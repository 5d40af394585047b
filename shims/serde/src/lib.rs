//! Offline stand-in for the `serde` crate.
//!
//! The build environment for this repository has no access to a crates.io
//! registry, so the real `serde` cannot be resolved. This shim provides the
//! subset the workspace actually uses: `#[derive(Serialize, Deserialize)]`
//! on plain (non-generic) structs and enums, round-tripped through the
//! [`Value`] data model by the sibling `serde_json` shim.
//!
//! The API is intentionally *not* the real serde visitor API — nothing in
//! this workspace calls serde directly; everything goes through the derive
//! macros and `serde_json::{to_string, to_string_pretty, from_str}`.

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;

/// The self-describing data model every serializable type lowers to.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unit / missing.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer.
    UInt(u64),
    /// Signed integer (only used for negative values after parsing).
    Int(i64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Key-value map with preserved insertion order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of a map value.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if `self` is not a map or lacks the field.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error(format!("missing field `{name}`"))),
            other => Err(Error(format!(
                "expected map with field `{name}`, got {other:?}"
            ))),
        }
    }

    /// Interprets the value as a sequence of exactly `len` elements.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on kind or arity mismatch.
    pub fn seq(&self, len: usize) -> Result<&[Value], Error> {
        match self {
            Value::Seq(items) if items.len() == len => Ok(items),
            other => Err(Error(format!("expected sequence of {len}, got {other:?}"))),
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that lower themselves into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Types reconstructible from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the value's shape does not match.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let raw = match v {
                    Value::UInt(u) => *u,
                    Value::Int(i) if *i >= 0 => *i as u64,
                    Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 => *f as u64,
                    other => return Err(Error(format!("expected unsigned int, got {other:?}"))),
                };
                <$t>::try_from(raw).map_err(|_| Error(format!("{raw} out of range")))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let x = *self as i64;
                if x >= 0 { Value::UInt(x as u64) } else { Value::Int(x) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let raw: i64 = match v {
                    Value::Int(i) => *i,
                    Value::UInt(u) => i64::try_from(*u)
                        .map_err(|_| Error(format!("{u} out of i64 range")))?,
                    Value::Float(f) if f.fract() == 0.0 => *f as i64,
                    other => return Err(Error(format!("expected int, got {other:?}"))),
                };
                <$t>::try_from(raw).map_err(|_| Error(format!("{raw} out of range")))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    Value::Int(i) => Ok(*i as $t),
                    other => Err(Error(format!("expected float, got {other:?}"))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error(format!("expected string, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error(format!("expected sequence, got {other:?}"))),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) if items.len() == N => {
                let elems: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
                elems
                    .try_into()
                    .map_err(|_| Error(format!("expected array of {N}")))
            }
            other => Err(Error(format!("expected array of {N}, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                const LEN: usize = [$($idx),+].len();
                let items = v.seq(LEN)?;
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        let v: Vec<(u64, u64)> = vec![(1, 2), (3, 4)];
        assert_eq!(Vec::<(u64, u64)>::from_value(&v.to_value()).unwrap(), v);
    }

    #[test]
    fn boxes_serialize_as_their_contents() {
        let boxed: Option<Box<(u32, String)>> = Some(Box::new((7, "x".into())));
        let value = boxed.to_value();
        assert_eq!(value, (7u32, "x".to_string()).to_value());
        assert_eq!(
            Option::<Box<(u32, String)>>::from_value(&value).unwrap(),
            boxed
        );
        assert_eq!(
            Option::<Box<(u32, String)>>::from_value(&Value::Null).unwrap(),
            None
        );
    }

    #[test]
    fn integral_float_coerces() {
        // `2.0f64` prints as "2" and may parse back as an unsigned integer.
        assert_eq!(f64::from_value(&Value::UInt(2)).unwrap(), 2.0);
        assert_eq!(f64::from_value(&Value::Int(-2)).unwrap(), -2.0);
    }

    #[test]
    fn field_lookup_errors() {
        let m = Value::Map(vec![("a".into(), Value::UInt(1))]);
        assert!(m.field("a").is_ok());
        assert!(m.field("b").is_err());
        assert!(Value::Null.field("a").is_err());
    }
}

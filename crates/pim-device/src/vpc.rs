//! Vector Processing Commands (paper Table II) and VPC traces.
//!
//! The host programs StreamPIM at *vector* granularity: coarse enough that a
//! matrix multiplication needs only `O(n^2)` commands, fine enough to keep
//! decoding simple and the host in control. Four commands exist:
//!
//! | Command | Meaning                                 |
//! |---------|-----------------------------------------|
//! | `MUL`   | dot product of two vectors              |
//! | `SMUL`  | scalar-vector multiplication            |
//! | `ADD`   | element-wise vector addition            |
//! | `TRAN`  | data transfer (inter-subarray/bank move)|

use serde::{Deserialize, Serialize};
use std::fmt;

/// A reference to a vector operand: which PIM subarray holds it and how
/// long it is.
///
/// The engine works at placement granularity (subarray homes), not raw byte
/// addresses; `placement` produces these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VecRef {
    /// Global subarray index holding the vector.
    pub subarray: u32,
    /// Vector length in elements.
    pub len: u32,
}

impl VecRef {
    /// Creates a reference to a `len`-element vector in `subarray`.
    pub fn new(subarray: u32, len: u32) -> Self {
        VecRef { subarray, len }
    }
}

impl fmt::Display for VecRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v[{}]@s{}", self.len, self.subarray)
    }
}

/// One Vector Processing Command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vpc {
    /// Dot product: `dst[0] = src1 · src2` (both vectors in the same
    /// subarray; the result is a scalar left at the processor for
    /// collection).
    Mul {
        /// First operand vector.
        src1: VecRef,
        /// Second operand vector.
        src2: VecRef,
    },
    /// Scalar-vector multiplication: `dst = s * src`.
    Smul {
        /// Vector operand.
        src: VecRef,
    },
    /// Element-wise vector addition: `dst = src1 + src2`.
    Add {
        /// First operand vector.
        src1: VecRef,
        /// Second operand vector.
        src2: VecRef,
    },
    /// Data transfer of `len` elements from one subarray to another (or a
    /// broadcast leg of the `distribute` optimization).
    Tran {
        /// Source subarray.
        src: u32,
        /// Destination subarray.
        dst: u32,
        /// Elements moved.
        len: u32,
    },
}

impl Vpc {
    /// Whether this is a compute command (MUL/SMUL/ADD) rather than a move.
    pub fn is_compute(&self) -> bool {
        !matches!(self, Vpc::Tran { .. })
    }

    /// The subarray whose RM processor executes this command (compute
    /// commands only).
    pub fn home_subarray(&self) -> Option<u32> {
        match *self {
            Vpc::Mul { src1, .. } | Vpc::Smul { src: src1 } | Vpc::Add { src1, .. } => {
                Some(src1.subarray)
            }
            Vpc::Tran { .. } => None,
        }
    }

    /// Elements processed or moved by this command.
    pub fn elements(&self) -> u64 {
        match *self {
            Vpc::Mul { src1, .. } => src1.len as u64,
            Vpc::Smul { src } => src.len as u64,
            Vpc::Add { src1, .. } => src1.len as u64,
            Vpc::Tran { len, .. } => len as u64,
        }
    }
}

impl fmt::Display for Vpc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Vpc::Mul { src1, src2 } => write!(f, "MUL {src1},{src2}"),
            Vpc::Smul { src } => write!(f, "SMUL {src}"),
            Vpc::Add { src1, src2 } => write!(f, "ADD {src1},{src2}"),
            Vpc::Tran { src, dst, len } => write!(f, "TRAN s{src}->s{dst} x{len}"),
        }
    }
}

/// Summary statistics of a VPC stream (Table IV's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VpcCounts {
    /// Compute commands (MUL + SMUL + ADD) — the paper's `#PIM-VPC`.
    pub pim: u64,
    /// Data-movement commands — the paper's `#move-VPC`.
    pub moves: u64,
}

impl VpcCounts {
    /// Total commands.
    pub fn total(&self) -> u64 {
        self.pim + self.moves
    }
}

/// A flattened trace of VPCs with aggregate counts.
///
/// Produced by lowering a `PimTask` against a placement; consumed by the
/// execution engine and by the Table IV validation tests.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct VpcTrace {
    /// The command stream, in issue order.
    pub vpcs: Vec<Vpc>,
}

impl VpcTrace {
    /// An empty trace.
    pub fn new() -> Self {
        VpcTrace::default()
    }

    /// Appends a command.
    pub fn push(&mut self, vpc: Vpc) {
        self.vpcs.push(vpc);
    }

    /// Number of commands.
    pub fn len(&self) -> usize {
        self.vpcs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.vpcs.is_empty()
    }

    /// Compute/move counts (Table IV).
    pub fn counts(&self) -> VpcCounts {
        let mut c = VpcCounts::default();
        for v in &self.vpcs {
            if v.is_compute() {
                c.pim += 1;
            } else {
                c.moves += 1;
            }
        }
        c
    }
}

impl FromIterator<Vpc> for VpcTrace {
    fn from_iter<I: IntoIterator<Item = Vpc>>(iter: I) -> Self {
        VpcTrace {
            vpcs: iter.into_iter().collect(),
        }
    }
}

impl Extend<Vpc> for VpcTrace {
    fn extend<I: IntoIterator<Item = Vpc>>(&mut self, iter: I) {
        self.vpcs.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: u32, n: u32) -> VecRef {
        VecRef::new(s, n)
    }

    #[test]
    fn classification() {
        assert!(Vpc::Mul {
            src1: v(0, 4),
            src2: v(0, 4)
        }
        .is_compute());
        assert!(Vpc::Add {
            src1: v(1, 4),
            src2: v(1, 4)
        }
        .is_compute());
        assert!(Vpc::Smul { src: v(2, 4) }.is_compute());
        assert!(!Vpc::Tran {
            src: 0,
            dst: 1,
            len: 4
        }
        .is_compute());
    }

    #[test]
    fn home_subarray() {
        assert_eq!(
            Vpc::Mul {
                src1: v(7, 4),
                src2: v(7, 4)
            }
            .home_subarray(),
            Some(7)
        );
        assert_eq!(
            Vpc::Tran {
                src: 0,
                dst: 1,
                len: 4
            }
            .home_subarray(),
            None
        );
    }

    #[test]
    fn trace_counts() {
        let trace: VpcTrace = vec![
            Vpc::Mul {
                src1: v(0, 10),
                src2: v(0, 10),
            },
            Vpc::Tran {
                src: 0,
                dst: 1,
                len: 10,
            },
            Vpc::Add {
                src1: v(1, 5),
                src2: v(1, 5),
            },
        ]
        .into_iter()
        .collect();
        let c = trace.counts();
        assert_eq!(c.pim, 2);
        assert_eq!(c.moves, 1);
        assert_eq!(c.total(), 3);
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
    }

    #[test]
    fn display_formats() {
        let s = Vpc::Mul {
            src1: v(0, 8),
            src2: v(0, 8),
        }
        .to_string();
        assert!(s.starts_with("MUL"));
        assert_eq!(
            Vpc::Tran {
                src: 1,
                dst: 2,
                len: 3
            }
            .to_string(),
            "TRAN s1->s2 x3"
        );
    }
}

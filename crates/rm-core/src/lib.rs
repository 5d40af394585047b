//! Racetrack-memory (RM) substrate for the StreamPIM reproduction.
//!
//! Racetrack memory — also called domain-wall memory (DWM) — stores bits as
//! magnetization directions of *domains* along ferromagnetic nanowires.
//! Domains are moved past a small number of fixed *access ports* by applying
//! a spin-polarized current (the *shift* operation); a domain aligned with a
//! port can then be read or written through the magnetic tunnel junction the
//! two form.
//!
//! This crate provides:
//!
//! * a **functional model** — [`Nanowire`], [`Mat`] and [`Subarray`]
//!   faithfully move bits around, including the reserved overhead domains
//!   that prevent data loss during shifts, the save-track / transfer-track
//!   split used for non-destructive reads, and the transverse read used by
//!   the CORUSCANT baseline. Banks and the device exist only as
//!   [`Geometry`]: the bit-level flow in `pim-device` drives subarrays
//!   directly, and its analytic engine prices the full Table III device
//!   without instantiating its domains;
//! * a **timing and energy model** — [`TimingParams`] / [`EnergyParams`]
//!   carrying the constants from Table III of the paper, plus the
//!   [`stats`] accounting types every simulated platform reports through;
//! * a **fault model** — [`fault::ShiftFaultModel`] injects over/under-shift
//!   faults so reliability studies (paper §VI) can be reproduced.
//!
//! # Example
//!
//! ```
//! use rm_core::{Nanowire, ShiftDir};
//!
//! // A 64-domain racetrack with one access port at position 0.
//! let mut wire = Nanowire::new(64, &[0]);
//! wire.write_port(0, true).unwrap();
//! wire.shift(ShiftDir::Right, 3).unwrap();
//! wire.shift(ShiftDir::Left, 3).unwrap();
//! assert_eq!(wire.read_port(0).unwrap(), true);
//! ```

pub mod bits;
pub mod config;
pub mod energy;
pub mod error;
pub mod fault;
pub mod hash;
pub mod magnet;
pub mod mat;
pub mod nanowire;
pub mod probe;
pub mod reference;
pub mod shard;
pub mod stats;
pub mod subarray;
pub mod timing;
pub mod wear;
pub mod wide;

pub use bits::PackedBits;
pub use config::{DeviceConfig, Geometry};
pub use energy::{EnergyBreakdown, EnergyParams};
pub use error::RmError;
pub use fault::{FaultOutcome, ShiftFaultModel};
pub use hash::{fnv_digest, FnvHasher};
pub use magnet::Magnetization;
pub use mat::Mat;
pub use nanowire::{Nanowire, ShiftDir};
pub use probe::{NullProbe, Probe, ProbeSample};
pub use shard::{run_sharded, BufferProbe};
pub use stats::{OpCounters, TimeBreakdown};
pub use subarray::Subarray;
pub use timing::TimingParams;
pub use wear::{DeviceHealth, SubarrayHealth, SubarrayWear, WearTracker};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RmError>;

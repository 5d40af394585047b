//! Component-level attribution probes.
//!
//! A [`Probe`] is the write side of a profiler: simulation components call
//! [`Probe::record`] with a component *path* (a `/`-separated hierarchy such
//! as `device/subarray[3]` or `bus/lane[0]`) and a [`ProbeSample`] carrying
//! the operation counters, energy, and busy time attributable to that
//! component. The read side — the attribution tree,
//! exports, and diffing — lives in the `pim-profile` crate; this module only
//! defines the interface so the analytic layers (`pim-device`'s engines,
//! `pim-baselines`, `pim-cluster`) can emit samples without depending on the
//! profiler. The bit-level substrate below them emits nothing: its mats,
//! processors and flows are observed through their [`OpCounters`].
//!
//! Mirrors the `pim-trace::TraceSink` pattern: [`NullProbe`] reports
//! `enabled() == false` and every emission site is gated on `enabled()`, so
//! a disabled probe costs one virtual call.

use crate::energy::EnergyBreakdown;
use crate::stats::OpCounters;
use std::fmt::Debug;

/// One attribution sample: the deltas a component wants charged to itself.
///
/// Samples are *deltas*, not totals — a profiler accumulates them. Any
/// subset of the fields may be zero; e.g. the functional bus records only
/// counters (it has no energy model of its own), while the analytic engine
/// records counters, energy, and busy time together.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProbeSample {
    /// Low-level operation counts attributed to the component.
    pub ops: OpCounters,
    /// Energy attributed to the component, picojoules.
    pub energy: EnergyBreakdown,
    /// Time the component was busy, nanoseconds (occupancy, so samples on
    /// concurrent components may sum past the wall clock).
    pub busy_ns: f64,
}

impl ProbeSample {
    /// A sample carrying only operation counters.
    pub fn ops(ops: OpCounters) -> Self {
        ProbeSample {
            ops,
            ..ProbeSample::default()
        }
    }

    /// A sample carrying only energy.
    pub fn energy(energy: EnergyBreakdown) -> Self {
        ProbeSample {
            energy,
            ..ProbeSample::default()
        }
    }

    /// A sample carrying only busy time.
    pub fn busy(busy_ns: f64) -> Self {
        ProbeSample {
            busy_ns,
            ..ProbeSample::default()
        }
    }
}

/// The write side of a component-level profiler.
///
/// Implementations must be cheap to call and thread-safe: the runtime may
/// drive several platforms against one probe concurrently.
pub trait Probe: Debug + Send + Sync {
    /// Whether samples are being kept. Emission sites gate on this so a
    /// disabled probe never pays for sample construction (the zero-cost-
    /// when-disabled contract).
    fn enabled(&self) -> bool;

    /// Records `sample` against the component at `path`.
    ///
    /// `path` segments are separated by `/`; repeated records against the
    /// same path accumulate.
    fn record(&self, path: &str, sample: ProbeSample);
}

/// The default probe: keeps nothing, reports disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl Probe for NullProbe {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _path: &str, _sample: ProbeSample) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_disabled() {
        let p = NullProbe;
        assert!(!p.enabled());
        p.record("device", ProbeSample::busy(1.0));
    }

    #[test]
    fn sample_constructors() {
        let s = ProbeSample::energy(EnergyBreakdown {
            read_pj: 3.0,
            ..Default::default()
        });
        assert_eq!(s.energy.read_pj, 3.0);
        assert_eq!(s.busy_ns, 0.0);
        assert_eq!(s.ops, OpCounters::default());
    }
}

//! Execution reports shared by StreamPIM and every baseline platform.

use rm_core::{EnergyBreakdown, OpCounters, TimeBreakdown};
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::vpc::VpcCounts;

/// The result of simulating one workload on one platform.
///
/// `time` decomposes wall-clock as in the paper's Figure 19 (exclusive
/// read/write/shift/process plus overlapped); `energy` decomposes joule cost
/// as in Figures 18/20. `counters` carries the raw operation counts the
/// derivations came from, for auditability.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ExecReport {
    /// Wall-clock decomposition (total = sum of fields), nanoseconds.
    pub time: TimeBreakdown,
    /// Energy decomposition, picojoules.
    pub energy: EnergyBreakdown,
    /// Raw operation counters.
    pub counters: OpCounters,
    /// VPC counts (zero for non-PIM platforms).
    pub vpc: VpcCounts,
}

impl ExecReport {
    /// An empty report.
    pub fn new() -> Self {
        ExecReport::default()
    }

    /// Total execution time in nanoseconds.
    #[inline]
    pub fn total_ns(&self) -> f64 {
        self.time.total_ns()
    }

    /// Total energy in picojoules.
    #[inline]
    pub fn total_pj(&self) -> f64 {
        self.energy.total_pj()
    }

    /// Merges another report into this one (summing all fields), for
    /// composing phase reports into an end-to-end number.
    pub fn absorb(&mut self, other: &ExecReport) {
        self.time += other.time;
        self.energy += other.energy;
        self.counters += other.counters;
        self.vpc.pim += other.vpc.pim;
        self.vpc.moves += other.vpc.moves;
    }
}

impl fmt::Display for ExecReport {
    /// Human-readable multi-line summary: totals plus the Figure 19/20
    /// style breakdowns as percentages.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.total_ns();
        let e = self.total_pj();
        writeln!(f, "time   {:>12.3} us", t / 1e3)?;
        if t > 0.0 {
            writeln!(
                f,
                "  read {:.1}% | write {:.1}% | shift {:.1}% | process {:.1}% | overlapped {:.1}%",
                self.time.read_ns / t * 100.0,
                self.time.write_ns / t * 100.0,
                self.time.shift_ns / t * 100.0,
                self.time.process_ns / t * 100.0,
                self.time.overlapped_ns / t * 100.0
            )?;
        }
        writeln!(f, "energy {:>12.3} nJ", e / 1e3)?;
        if e > 0.0 {
            writeln!(
                f,
                "  read {:.1}% | write {:.1}% | shift {:.1}% | compute {:.1}% | other {:.1}%",
                self.energy.read_pj / e * 100.0,
                self.energy.write_pj / e * 100.0,
                self.energy.shift_pj / e * 100.0,
                self.energy.compute_pj / e * 100.0,
                self.energy.other_pj / e * 100.0
            )?;
        }
        write!(
            f,
            "VPCs   {} compute + {} move",
            self.vpc.pim, self.vpc.moves
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(total_ns: f64, total_pj: f64) -> ExecReport {
        ExecReport {
            time: TimeBreakdown {
                process_ns: total_ns,
                ..Default::default()
            },
            energy: EnergyBreakdown {
                compute_pj: total_pj,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn absorb_sums() {
        let mut a = report(10.0, 5.0);
        a.vpc.pim = 3;
        let mut b = report(20.0, 7.0);
        b.vpc.moves = 2;
        a.absorb(&b);
        assert_eq!(a.total_ns(), 30.0);
        assert_eq!(a.total_pj(), 12.0);
        assert_eq!(a.vpc.pim, 3);
        assert_eq!(a.vpc.moves, 2);
    }

    #[test]
    fn display_is_informative_and_nonempty() {
        let mut r = report(1000.0, 2000.0);
        r.vpc.pim = 7;
        let text = r.to_string();
        assert!(text.contains("us"));
        assert!(text.contains("nJ"));
        assert!(text.contains("7 compute"));
        // Zero report still renders something.
        assert!(!ExecReport::default().to_string().is_empty());
    }
}

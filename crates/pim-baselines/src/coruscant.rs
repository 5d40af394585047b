//! CORUSCANT: the state-of-the-art transverse-read process-in-RM baseline
//! (Ollivier et al., MICRO 2022; paper §II-B and Figure 4).
//!
//! CORUSCANT computes with CMOS units fed by **transverse reads** (TR): a TR
//! senses a whole span of domains at once, giving the one-counts that its
//! counter-based adders consume. Every arithmetic step still converts
//! between magnetic and electrical form — TRs to fetch, writes to store the
//! intermediate partial results — and RM writes are the slowest, hungriest
//! operation in the technology. That conversion traffic is precisely what
//! StreamPIM eliminates; this model reproduces its cost.
//!
//! Operations are row-wide (all save tracks move in lockstep, so one
//! operation processes `words_per_row` elements in parallel), and — as in
//! the paper's evaluation — the platform is *idealized*: inter-subarray and
//! inter-bank data movement is free.

use pim_device::report::ExecReport;
use pim_device::schedule::{Schedule, WorkCounts};
use rm_core::{EnergyBreakdown, EnergyParams, OpCounters, TimeBreakdown, TimingParams};
use serde::{Deserialize, Serialize};

/// CMOS counter-datapath latency of one row-wide multiply, ns. Chosen so
/// the compute share of a multiply is ~30% (Figure 4a).
const CMOS_MUL_NS: f64 = 12.1;
/// CMOS counter-datapath energy of one row-wide multiply, pJ (compute
/// share ~29%, Figure 4b).
const CMOS_MUL_PJ: f64 = 13.4;
/// CMOS latency of one row-wide add, ns.
const CMOS_ADD_NS: f64 = 4.5;
/// CMOS energy of one row-wide add, pJ.
const CMOS_ADD_PJ: f64 = 7.7;

/// The CORUSCANT platform model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoruscantModel {
    /// Element width in bits.
    pub word_bits: u32,
    /// Words processed per row-wide operation.
    pub words_per_row: u32,
    /// PIM subarrays working in parallel (identical to StreamPIM's 512 for
    /// fairness, per §V-A).
    pub subarrays: u32,
    /// RM timing constants.
    pub timing: TimingParams,
    /// RM energy constants.
    pub energy: EnergyParams,
}

/// Cost of one row-wide operation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RowOpCost {
    /// Transverse reads.
    pub tr: f64,
    /// RM writes (intermediate partial results + final result).
    pub writes: f64,
    /// Shift steps.
    pub shifts: f64,
    /// CMOS datapath time, ns.
    pub cmos_ns: f64,
    /// CMOS datapath energy, pJ.
    pub cmos_pj: f64,
}

impl CoruscantModel {
    /// The paper's configuration: 8-bit words, 512-track rows, 512 PIM
    /// subarrays, Table III constants.
    pub fn paper_default() -> Self {
        CoruscantModel {
            word_bits: 8,
            words_per_row: 64,
            subarrays: 512,
            timing: TimingParams::paper_default(),
            energy: EnergyParams::paper_default(),
        }
    }

    /// Cost of one row-wide multiplication: transverse reads fetch both
    /// operands' counts in bulk (that is CORUSCANT's key trick — TR counts
    /// a whole span in one sense), the CMOS counter datapath multiplies,
    /// and the product plus carry row are written back.
    pub fn mul_cost(&self) -> RowOpCost {
        RowOpCost {
            tr: 1.5,
            writes: 2.0,
            shifts: 1.0,
            cmos_ns: CMOS_MUL_NS,
            cmos_pj: CMOS_MUL_PJ,
        }
    }

    /// Cost of one row-wide addition: one TR per the second operand (the
    /// first is already latched), one write for the sum, one re-align
    /// shift.
    pub fn add_cost(&self) -> RowOpCost {
        RowOpCost {
            tr: 1.0,
            writes: 1.0,
            shifts: 1.0,
            cmos_ns: CMOS_ADD_NS,
            cmos_pj: CMOS_ADD_PJ,
        }
    }

    fn op_time_ns(&self, c: &RowOpCost) -> f64 {
        c.tr * self.timing.transverse_read_ns
            + c.writes * self.timing.write_ns
            + c.shifts * self.timing.shift_ns
            + c.cmos_ns
    }

    /// Lanes available device-wide for independent dot products.
    fn lane_capacity(&self) -> u64 {
        self.subarrays as u64 * self.words_per_row as u64
    }

    /// Prices a schedule on this platform using the wave model: each dot
    /// product is a serial multiply-accumulate chain (every step's partial
    /// result is written back before the next can start — the conversion
    /// overhead StreamPIM's streaming pipeline eliminates), while
    /// independent dots fill the device's lanes.
    pub fn run_schedule(&self, schedule: &Schedule) -> ExecReport {
        let groups = schedule.op_groups();
        let mul = self.mul_cost();
        let add = self.add_cost();
        let mac_ns = self.op_time_ns(&mul) + self.op_time_ns(&add);

        let mut time_ns = 0.0;
        let mut rowops_mul = 0.0;
        let mut rowops_add = 0.0;
        for &(len, count) in &groups.dots {
            let waves = count.div_ceil(self.lane_capacity()) as f64;
            time_ns += waves * len as f64 * mac_ns;
            // Physical row operations: one per MAC step per active row.
            let active_rows = count.div_ceil(self.words_per_row as u64) as f64;
            rowops_mul += active_rows * len as f64;
            rowops_add += active_rows * len as f64;
        }
        // Element-wise work has no dependency chains: full row parallelism.
        let ew_rows = groups
            .elementwise_elements
            .div_ceil(self.words_per_row as u64) as f64;
        time_ns += (ew_rows / self.subarrays as f64).ceil() * self.op_time_ns(&add);
        rowops_add += ew_rows;

        self.report_from_rowops(time_ns, rowops_mul, rowops_add, schedule.work_counts())
    }

    fn report_from_rowops(
        &self,
        time_ns: f64,
        rowops_mul: f64,
        rowops_add: f64,
        w: WorkCounts,
    ) -> ExecReport {
        let mul = self.mul_cost();
        let add = self.add_cost();
        let mac_ns = self.op_time_ns(&mul) + self.op_time_ns(&add);
        // Split the wall-clock into the shares of the underlying ops.
        let share = |ns: f64| if mac_ns > 0.0 { ns / mac_ns } else { 0.0 };
        let tr_share = share((mul.tr + add.tr) * self.timing.transverse_read_ns);
        let wr_share = share((mul.writes + add.writes) * self.timing.write_ns);
        let sh_share = share((mul.shifts + add.shifts) * self.timing.shift_ns);
        let cm_share = share(mul.cmos_ns + add.cmos_ns);

        let time = TimeBreakdown {
            read_ns: time_ns * tr_share,
            write_ns: time_ns * wr_share,
            shift_ns: time_ns * sh_share,
            process_ns: time_ns * cm_share,
            overlapped_ns: 0.0,
        };
        let energy = EnergyBreakdown {
            read_pj: (rowops_mul * mul.tr + rowops_add * add.tr) * self.energy.transverse_read_pj,
            write_pj: (rowops_mul * mul.writes + rowops_add * add.writes) * self.energy.write_pj,
            shift_pj: (rowops_mul * mul.shifts + rowops_add * add.shifts) * self.energy.shift_pj,
            compute_pj: rowops_mul * mul.cmos_pj + rowops_add * add.cmos_pj,
            other_pj: 0.0,
        };
        let counters = OpCounters {
            transverse_reads: (rowops_mul * mul.tr + rowops_add * add.tr) as u64,
            writes: (rowops_mul * mul.writes + rowops_add * add.writes) as u64,
            shifts: (rowops_mul * mul.shifts + rowops_add * add.shifts) as u64,
            pim_muls: w.word_muls,
            pim_adds: w.word_adds,
            ..OpCounters::default()
        };
        ExecReport {
            time,
            energy,
            counters,
            ..ExecReport::default()
        }
    }

    /// Prices word-level work counts on this platform (fully parallel
    /// approximation; the Figure 4 micro-op breakdowns use this).
    pub fn run_work(&self, w: &WorkCounts) -> ExecReport {
        let row_muls = w.word_muls as f64 / self.words_per_row as f64;
        let row_adds = w.word_adds as f64 / self.words_per_row as f64;
        let mul = self.mul_cost();
        let add = self.add_cost();

        let scale = |ops: f64| ops / self.subarrays as f64;
        let time = TimeBreakdown {
            read_ns: scale(
                (row_muls * mul.tr + row_adds * add.tr) * self.timing.transverse_read_ns,
            ),
            write_ns: scale((row_muls * mul.writes + row_adds * add.writes) * self.timing.write_ns),
            shift_ns: scale((row_muls * mul.shifts + row_adds * add.shifts) * self.timing.shift_ns),
            process_ns: scale(row_muls * mul.cmos_ns + row_adds * add.cmos_ns),
            // TR/write/compute strictly alternate per step: no overlap.
            overlapped_ns: 0.0,
        };
        let energy = EnergyBreakdown {
            read_pj: (row_muls * mul.tr + row_adds * add.tr) * self.energy.transverse_read_pj,
            write_pj: (row_muls * mul.writes + row_adds * add.writes) * self.energy.write_pj,
            shift_pj: (row_muls * mul.shifts + row_adds * add.shifts) * self.energy.shift_pj,
            compute_pj: row_muls * mul.cmos_pj + row_adds * add.cmos_pj,
            other_pj: 0.0,
        };
        let counters = OpCounters {
            transverse_reads: (row_muls * mul.tr + row_adds * add.tr) as u64,
            writes: (row_muls * mul.writes + row_adds * add.writes) as u64,
            shifts: (row_muls * mul.shifts + row_adds * add.shifts) as u64,
            pim_muls: w.word_muls,
            pim_adds: w.word_adds,
            ..OpCounters::default()
        };
        ExecReport {
            time,
            energy,
            counters,
            ..ExecReport::default()
        }
    }
}

impl Default for CoruscantModel {
    fn default() -> Self {
        CoruscantModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_4a_breakdown_write_dominates() {
        let m = CoruscantModel::paper_default();
        let c = m.mul_cost();
        let total = m.op_time_ns(&c);
        let write_frac = c.writes * m.timing.write_ns / total;
        let compute_frac = c.cmos_ns / total;
        // Paper: write 51.0%, compute 30.1%.
        assert!(
            (0.45..0.56).contains(&write_frac),
            "write fraction {write_frac}"
        );
        assert!(
            (0.25..0.35).contains(&compute_frac),
            "compute fraction {compute_frac}"
        );
    }

    #[test]
    fn figure_4b_energy_transfer_dominates() {
        let m = CoruscantModel::paper_default();
        let w = WorkCounts {
            word_muls: 64_000,
            word_adds: 64_000,
            elements_moved: 0,
        };
        let r = m.run_work(&w);
        let transfer = r.energy.transfer_fraction();
        // Paper: arithmetic units consume only ~29% of energy.
        assert!(
            (0.62..0.78).contains(&transfer),
            "transfer energy fraction {transfer}"
        );
    }

    #[test]
    fn exclusive_transfer_time_is_large() {
        let m = CoruscantModel::paper_default();
        let w = WorkCounts {
            word_muls: 640_000,
            word_adds: 640_000,
            elements_moved: 0,
        };
        let r = m.run_work(&w);
        // Figure 19: CORUSCANT's exclusive data-transfer time dominates.
        assert!(r.time.exclusive_transfer_fraction() > 0.6);
        assert_eq!(r.time.overlapped_ns, 0.0);
    }

    #[test]
    fn work_scales_linearly() {
        let m = CoruscantModel::paper_default();
        let w1 = WorkCounts {
            word_muls: 1000,
            word_adds: 0,
            elements_moved: 0,
        };
        let w2 = WorkCounts {
            word_muls: 2000,
            word_adds: 0,
            elements_moved: 0,
        };
        let t1 = m.run_work(&w1).total_ns();
        let t2 = m.run_work(&w2).total_ns();
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}

//! Closed-form cycle model of the four-stage RM processor pipeline.
//!
//! ## Model
//!
//! The processor consumes operands row-wise: a subarray's mats shift whole
//! rows (one domain per save track) onto the RM bus, so each pipeline
//! **beat** carries `lanes = save_tracks / word_bits` elements in parallel
//! (64 lanes for the Table III configuration of 512 tracks and 8-bit words).
//!
//! The steady-state initiation interval is set by the slowest stage, which
//! is stage 2: producing the `w` operand replicas a `w`-bit multiply needs
//! stalls `ceil(w / d)` cycles with `d` duplicators (paper §III-C — "an
//! n-bit scalar multiplication needs to perform duplication by n times,
//! which costs an n-cycle stall", mitigated by multiple duplicators).
//!
//! Pipeline fill is the sum of the stage latencies, derived from the
//! functional components: 1 (fetch/split) + 4 + `ceil(w/d)` (duplicate) +
//! `ceil(log2 w)` (tree levels) + 4 (circle). Because ops stream, fill is
//! paid once per VPC and amortized over thousands of beats.

use crate::op::{ProcCost, ProcOp};
use dw_logic::adder_tree::AdderTree;
use dw_logic::circle_adder::ACCUMULATE_STEPS;
use dw_logic::duplicator::DUPLICATION_STEPS;
use serde::{Deserialize, Serialize};

/// Closed-form pipeline cost model.
///
/// ```
/// use rm_proc::{PipelineModel, ProcOp};
///
/// let model = PipelineModel::paper_default();
/// let cost = model.cost(ProcOp::DotProduct { n: 2000 });
/// assert_eq!(cost.word_muls, 2000);
/// assert!(cost.cycles > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineModel {
    /// Operand width in bits (8 in the paper).
    pub word_bits: u32,
    /// Duplicators per processor (2 in the paper).
    pub duplicators: u32,
    /// Parallel word lanes per beat (save tracks / word bits).
    pub lanes: u32,
}

impl PipelineModel {
    /// Table III configuration: 8-bit words, 2 duplicators, 512 save tracks.
    pub fn paper_default() -> Self {
        PipelineModel {
            word_bits: 8,
            duplicators: 2,
            lanes: 512 / 8,
        }
    }

    /// Builds a model from raw configuration values.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `word_bits > 32`.
    pub fn new(word_bits: u32, duplicators: u32, save_tracks: u32) -> Self {
        assert!(word_bits > 0 && word_bits <= 32, "word_bits must be 1..=32");
        assert!(duplicators > 0, "need at least one duplicator");
        assert!(
            save_tracks >= word_bits,
            "a row must hold at least one word"
        );
        PipelineModel {
            word_bits,
            duplicators,
            lanes: save_tracks / word_bits,
        }
    }

    /// Steady-state initiation interval of the multiply path, cycles/beat.
    pub fn beat_interval(&self) -> u64 {
        (self.word_bits as u64).div_ceil(self.duplicators as u64)
    }

    /// Initiation interval of the add-only path (circle adder in scalar
    /// mode), cycles/beat — one beat per cycle.
    pub fn add_beat_interval(&self) -> u64 {
        1
    }

    /// Pipeline fill latency in cycles (all four stages).
    pub fn fill_cycles(&self) -> u64 {
        let split = 1;
        let duplicate = DUPLICATION_STEPS + self.beat_interval();
        let tree = AdderTree::depth_for(self.word_bits as usize) as u64;
        let circle = ACCUMULATE_STEPS;
        split + duplicate + tree + circle
    }

    /// Beats needed for `n` elements.
    pub fn beats(&self, n: u64) -> u64 {
        n.div_ceil(self.lanes as u64)
    }

    /// Cycle/operation cost of `op`.
    pub fn cost(&self, op: ProcOp) -> ProcCost {
        let n = op.elements();
        if n == 0 {
            return ProcCost::default();
        }
        let beats = self.beats(n);
        let interval = if op.uses_multiplier() {
            self.beat_interval()
        } else {
            self.add_beat_interval()
        };
        let cycles = self.fill_cycles() + beats.saturating_sub(1) * interval + interval;
        // I/O: dot consumes 2n words and emits 1; vadd consumes 2n, emits n;
        // smul consumes n + 1 and emits n.
        let io_words = match op {
            ProcOp::DotProduct { n } => 2 * n + 1,
            ProcOp::VectorAdd { n } => 3 * n,
            ProcOp::ScalarVectorMul { n } => 2 * n + 1,
        };
        ProcCost {
            cycles,
            word_muls: op.word_muls(),
            word_adds: op.word_adds(),
            io_words,
        }
    }
}

impl Default for PipelineModel {
    fn default() -> Self {
        PipelineModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_geometry() {
        let m = PipelineModel::paper_default();
        assert_eq!(m.lanes, 64);
        assert_eq!(m.beat_interval(), 4); // ceil(8 / 2)
    }

    #[test]
    fn more_duplicators_shorten_the_interval() {
        let d1 = PipelineModel::new(8, 1, 512);
        let d2 = PipelineModel::new(8, 2, 512);
        let d8 = PipelineModel::new(8, 8, 512);
        assert_eq!(d1.beat_interval(), 8);
        assert_eq!(d2.beat_interval(), 4);
        assert_eq!(d8.beat_interval(), 1);
    }

    #[test]
    fn dot_cost_scales_linearly_in_beats() {
        let m = PipelineModel::paper_default();
        let c1 = m.cost(ProcOp::DotProduct { n: 64 });
        let c2 = m.cost(ProcOp::DotProduct { n: 6400 });
        // 100x the beats, ~100x the steady-state cycles.
        let steady1 = c1.cycles - m.fill_cycles();
        let steady2 = c2.cycles - m.fill_cycles();
        assert_eq!(steady2, 100 * steady1);
    }

    #[test]
    fn add_path_is_faster_than_mul_path() {
        let m = PipelineModel::paper_default();
        let add = m.cost(ProcOp::VectorAdd { n: 6400 });
        let dot = m.cost(ProcOp::DotProduct { n: 6400 });
        assert!(add.cycles < dot.cycles);
    }

    #[test]
    fn zero_length_op_is_free() {
        let m = PipelineModel::paper_default();
        assert_eq!(m.cost(ProcOp::DotProduct { n: 0 }), ProcCost::default());
    }

    #[test]
    fn op_counts_propagate() {
        let m = PipelineModel::paper_default();
        let c = m.cost(ProcOp::DotProduct { n: 1000 });
        assert_eq!(c.word_muls, 1000);
        assert_eq!(c.word_adds, 1000);
        assert_eq!(c.io_words, 2001);
        let c = m.cost(ProcOp::ScalarVectorMul { n: 1000 });
        assert_eq!(c.word_muls, 1000);
        assert_eq!(c.word_adds, 0);
    }

    #[test]
    fn fill_is_amortized() {
        let m = PipelineModel::paper_default();
        let c = m.cost(ProcOp::DotProduct { n: 64_000 });
        assert!((m.fill_cycles() as f64) < 0.01 * c.cycles as f64);
    }

    #[test]
    #[should_panic(expected = "duplicator")]
    fn rejects_zero_duplicators() {
        let _ = PipelineModel::new(8, 0, 512);
    }
}

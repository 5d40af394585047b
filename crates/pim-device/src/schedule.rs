//! Round-structured schedules and the `unblock` reordering (paper §IV-C).
//!
//! Task lowering produces a sequence of **rounds**. One round broadcasts an
//! operand vector to the participating subarrays, computes the round's VPCs
//! on their RM processors, and collects results to the destination:
//!
//! ```text
//! round j:  [TRAN B_j -> banks...]  [MUL on s_0..s_P]  [TRAN results -> dst]
//! ```
//!
//! *Without* `unblock`, the natural command order interleaves each result
//! collection right after its compute; since read/write operations cannot
//! overlap shift/compute operations inside a subarray — and a stalled
//! transfer blocks the commands queued behind it — computations on different
//! subarrays largely serialize. *With* `unblock`, operands/results live in
//! disjoint subarray sets and the order is rearranged so transfers of one
//! round overlap computation of another. The engine prices both orders.

use crate::vpc::{Vpc, VpcTrace};
use serde::{Deserialize, Serialize};

/// One broadcast–compute–collect round.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Round {
    /// Operand broadcasts (TRAN commands) that must precede the computes.
    pub broadcasts: Vec<Vpc>,
    /// Compute commands of this round (MUL/SMUL/ADD across subarrays).
    pub computes: Vec<Vpc>,
    /// Result collections (TRAN commands) depending on the computes.
    pub collects: Vec<Vpc>,
    /// How many identical successive rounds this prototype stands for.
    ///
    /// A matrix multiplication issues one structurally identical round per
    /// output column; storing the prototype once with `repeat = n` keeps
    /// full-size workloads (millions of VPCs) compact. The engine prices the
    /// prototype and multiplies.
    pub repeat: u64,
}

impl Default for Round {
    fn default() -> Self {
        Round {
            broadcasts: Vec::new(),
            computes: Vec::new(),
            collects: Vec::new(),
            repeat: 1,
        }
    }
}

impl Round {
    /// An empty round.
    pub fn new() -> Self {
        Round::default()
    }

    /// Sets the repeat count (builder style).
    pub fn repeated(mut self, repeat: u64) -> Self {
        self.repeat = repeat.max(1);
        self
    }

    /// Whether the round has no commands at all.
    pub fn is_empty(&self) -> bool {
        self.broadcasts.is_empty() && self.computes.is_empty() && self.collects.is_empty()
    }

    /// Total commands in the round.
    pub fn len(&self) -> usize {
        self.broadcasts.len() + self.computes.len() + self.collects.len()
    }

    /// Whether [`Schedule::push`] keeps the round: it has a command and a
    /// non-zero repeat.
    pub(crate) fn is_kept(&self) -> bool {
        !self.is_empty() && self.repeat > 0
    }

    /// Empties the round for reuse, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.broadcasts.clear();
        self.computes.clear();
        self.collects.clear();
        self.repeat = 1;
    }
}

/// Dot-product and element-wise operation groups of a schedule.
///
/// Baseline PIM platforms (CORUSCANT, ELP2IM, FELIX) execute a dot product
/// as a *serial* chain of multiply-accumulate steps — each step writes its
/// partial result back before the next can start — while independent dots
/// proceed in parallel across lanes and subarrays. The groups aggregate the
/// schedule's compute commands by shape so those platforms can price waves.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OpGroups {
    /// `(vector length, command count)` per distinct dot-product length.
    pub dots: Vec<(u64, u64)>,
    /// Total elements processed by element-wise commands (SMUL/ADD), which
    /// have no loop-carried dependency.
    pub elementwise_elements: u64,
}

/// Word-level work performed by a schedule (inputs to the baseline PIM
/// platform models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WorkCounts {
    /// Word-level multiplications.
    pub word_muls: u64,
    /// Word-level additions.
    pub word_adds: u64,
    /// Elements moved between subarrays by TRAN commands.
    pub elements_moved: u64,
}

/// A complete schedule: rounds in dependency order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Schedule {
    /// Rounds, executed in order (with cross-round overlap under `unblock`).
    pub rounds: Vec<Round>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Appends a round (empty or zero-repeat rounds are dropped).
    pub fn push(&mut self, round: Round) {
        if round.is_kept() {
            self.rounds.push(round);
        }
    }

    /// Number of rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Flattens to the *natural* (pre-`unblock`) command order: broadcasts,
    /// then each compute immediately followed by its collect. Repeated
    /// rounds are expanded, so reserve this for small schedules.
    pub fn natural_order(&self) -> VpcTrace {
        let mut trace = VpcTrace::new();
        for round in &self.rounds {
            for _ in 0..round.repeat {
                trace.extend(round.broadcasts.iter().copied());
                let mut collects = round.collects.iter();
                for &c in &round.computes {
                    trace.push(c);
                    if let Some(&t) = collects.next() {
                        trace.push(t);
                    }
                }
                trace.extend(collects.copied());
            }
        }
        trace
    }

    /// Flattens to the `unblock` order: per round, all broadcasts, then all
    /// computes, then all collects (phases batched so transfers of one round
    /// can overlap computes of the next). Repeated rounds are expanded.
    pub fn unblock_order(&self) -> VpcTrace {
        let mut trace = VpcTrace::new();
        for round in &self.rounds {
            for _ in 0..round.repeat {
                trace.extend(round.broadcasts.iter().copied());
                trace.extend(round.computes.iter().copied());
                trace.extend(round.collects.iter().copied());
            }
        }
        trace
    }

    /// Word-level operation counts, computed without expansion. Baseline
    /// PIM platforms (CORUSCANT, ELP2IM, FELIX) price exactly this work on
    /// their own operation models.
    pub fn work_counts(&self) -> WorkCounts {
        let mut w = WorkCounts::default();
        for round in &self.rounds {
            let mut muls = 0u64;
            let mut adds = 0u64;
            for c in &round.computes {
                match c {
                    Vpc::Mul { src1, .. } => {
                        muls += src1.len as u64;
                        adds += src1.len as u64;
                    }
                    Vpc::Smul { src } => muls += src.len as u64,
                    Vpc::Add { src1, .. } => adds += src1.len as u64,
                    Vpc::Tran { .. } => {}
                }
            }
            let moved: u64 = round
                .broadcasts
                .iter()
                .chain(&round.collects)
                .map(|t| t.elements())
                .sum();
            w.word_muls += muls * round.repeat;
            w.word_adds += adds * round.repeat;
            w.elements_moved += moved * round.repeat;
        }
        w
    }

    /// Aggregates compute commands into [`OpGroups`] (see its docs).
    pub fn op_groups(&self) -> OpGroups {
        let mut dots: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut elementwise = 0u64;
        for round in &self.rounds {
            for c in &round.computes {
                match c {
                    Vpc::Mul { src1, .. } => {
                        *dots.entry(src1.len as u64).or_default() += round.repeat;
                    }
                    Vpc::Smul { src } => elementwise += src.len as u64 * round.repeat,
                    Vpc::Add { src1, .. } => elementwise += src1.len as u64 * round.repeat,
                    Vpc::Tran { .. } => {}
                }
            }
        }
        let mut dots: Vec<(u64, u64)> = dots.into_iter().collect();
        dots.sort_unstable();
        OpGroups {
            dots,
            elementwise_elements: elementwise,
        }
    }

    /// Content fingerprint of the schedule: a structural FNV-1a digest of
    /// the rounds (every field fed through [`std::hash::Hash`] — no `Debug`
    /// rendering, no intermediate string allocation). The digest is seeded
    /// with the `"schedule-v2"` version tag, so fingerprints from the
    /// retired v1 (debug-string) scheme can never collide by construction.
    /// Two schedules with identical rounds share a fingerprint; lowering is
    /// deterministic, so equal `(config, task)` pairs always map to the same
    /// fingerprint. Used by the runtime's schedule cache to sanity-check
    /// cached entries cheaply (rounds stay repeat-compressed — nothing is
    /// expanded).
    pub fn fingerprint(&self) -> u64 {
        rm_core::fnv_digest("schedule-v2", &self.rounds)
    }

    /// VPC counts (identical for both orders), computed without expansion.
    pub fn counts(&self) -> crate::vpc::VpcCounts {
        let mut c = crate::vpc::VpcCounts::default();
        for round in &self.rounds {
            c.pim += round.computes.len() as u64 * round.repeat;
            c.moves += (round.broadcasts.len() + round.collects.len()) as u64 * round.repeat;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vpc::VecRef;

    fn sample() -> Schedule {
        let mut s = Schedule::new();
        let mut r = Round::new();
        r.broadcasts.push(Vpc::Tran {
            src: 600,
            dst: 0,
            len: 100,
        });
        for sub in 0..3 {
            r.computes.push(Vpc::Mul {
                src1: VecRef::new(sub, 100),
                src2: VecRef::new(sub, 100),
            });
            r.collects.push(Vpc::Tran {
                src: sub,
                dst: 600,
                len: 1,
            });
        }
        s.push(r);
        s
    }

    #[test]
    fn empty_rounds_are_dropped() {
        let mut s = Schedule::new();
        s.push(Round::new());
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn both_orders_have_same_commands() {
        let s = sample();
        let natural = s.natural_order();
        let unblock = s.unblock_order();
        assert_eq!(natural.len(), unblock.len());
        let mut a = natural.vpcs.clone();
        let mut b = unblock.vpcs.clone();
        let key = |v: &Vpc| format!("{v}");
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
        assert_eq!(s.counts().pim, 3);
        assert_eq!(s.counts().moves, 4);
    }

    #[test]
    fn natural_order_interleaves_collects() {
        let s = sample();
        let trace = s.natural_order();
        // Pattern: bcast, (MUL, TRAN) x3.
        assert!(!trace.vpcs[0].is_compute());
        assert!(trace.vpcs[1].is_compute());
        assert!(!trace.vpcs[2].is_compute());
        assert!(trace.vpcs[3].is_compute());
    }

    #[test]
    fn unblock_order_batches_phases() {
        let s = sample();
        let trace = s.unblock_order();
        // Pattern: bcast, MUL x3, TRAN x3.
        assert!(!trace.vpcs[0].is_compute());
        assert!(trace.vpcs[1].is_compute());
        assert!(trace.vpcs[2].is_compute());
        assert!(trace.vpcs[3].is_compute());
        assert!(!trace.vpcs[4].is_compute());
    }

    #[test]
    fn work_counts_sum_elements() {
        let s = sample();
        let w = s.work_counts();
        assert_eq!(w.word_muls, 300);
        assert_eq!(w.word_adds, 300);
        assert_eq!(w.elements_moved, 103);
    }

    #[test]
    fn repeat_scales_counts() {
        let mut s = sample();
        s.rounds[0].repeat = 10;
        assert_eq!(s.counts().pim, 30);
        assert_eq!(s.work_counts().word_muls, 3000);
    }

    #[test]
    fn op_groups_aggregate_dots() {
        let mut s = sample();
        s.rounds[0].repeat = 5;
        let g = s.op_groups();
        assert_eq!(g.dots, vec![(100, 15)]);
        assert_eq!(g.elementwise_elements, 0);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = sample();
        let b = sample();
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal content");
        let mut c = sample();
        c.rounds[0].repeat = 2;
        assert_ne!(a.fingerprint(), c.fingerprint(), "repeat changes content");
        assert_ne!(
            Schedule::new().fingerprint(),
            0,
            "empty schedule has a stable nonzero seed hash"
        );
    }

    #[test]
    fn fingerprint_is_structural_and_collision_resistant() {
        // Stable across repeated evaluation of independently built values.
        let base = sample();
        assert_eq!(base.fingerprint(), sample().fingerprint());

        // Every field perturbation moves the digest.
        let mut seen = vec![base.fingerprint()];
        let mut perturbed = Vec::new();
        let mut p = sample();
        p.rounds[0].broadcasts[0] = Vpc::Tran {
            src: 600,
            dst: 0,
            len: 101,
        };
        perturbed.push(("broadcast len", p));
        let mut p = sample();
        p.rounds[0].computes[0] = Vpc::Smul {
            src: VecRef::new(0, 100),
        };
        perturbed.push(("compute opcode", p));
        let mut p = sample();
        p.rounds[0].collects.pop();
        perturbed.push(("collect count", p));
        let mut p = sample();
        p.rounds[0].repeat = 9;
        perturbed.push(("repeat", p));
        let mut p = sample();
        let extra = p.rounds[0].clone();
        p.push(extra);
        perturbed.push(("round count", p));
        for (what, s) in perturbed {
            let fp = s.fingerprint();
            assert!(!seen.contains(&fp), "{what} must change the fingerprint");
            seen.push(fp);
        }

        // Moving a command across phase boundaries changes the digest even
        // though a flat concatenation of the commands would be identical
        // (std's length-prefixed Vec hashing keeps the phases framed).
        let mut shifted = sample();
        let cmd = shifted.rounds[0].broadcasts.pop().unwrap();
        shifted.rounds[0].computes.insert(0, cmd);
        assert_ne!(base.fingerprint(), shifted.fingerprint(), "phase framing");
    }

    #[test]
    fn round_len() {
        let s = sample();
        assert_eq!(s.rounds[0].len(), 7);
        assert!(!s.rounds[0].is_empty());
    }
}

//! Vector operations executed by the RM processor and their cost record.

use serde::{Deserialize, Serialize};

/// A word-level vector operation offered by the RM processor.
///
/// These are the compute halves of the paper's Vector Processing Commands
/// (Table II); data movement (`TRAN`) is handled by the RM bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProcOp {
    /// Dot product of two `n`-element vectors (VPC `MUL`).
    DotProduct {
        /// Vector length in elements.
        n: u64,
    },
    /// Multiply every element of an `n`-element vector by one scalar
    /// (VPC `SMUL`). The scalar is duplicated repeatedly (stage 1-3),
    /// bypassing the circle adder.
    ScalarVectorMul {
        /// Vector length in elements.
        n: u64,
    },
    /// Element-wise addition of two `n`-element vectors (VPC `ADD`),
    /// pipelined through the circle adder in scalar mode (stages 1-3
    /// bypassed).
    VectorAdd {
        /// Vector length in elements.
        n: u64,
    },
}

impl ProcOp {
    /// Number of vector elements the operation consumes.
    pub fn elements(&self) -> u64 {
        match *self {
            ProcOp::DotProduct { n } | ProcOp::ScalarVectorMul { n } | ProcOp::VectorAdd { n } => n,
        }
    }

    /// Word-level multiplications performed.
    pub fn word_muls(&self) -> u64 {
        match *self {
            ProcOp::DotProduct { n } | ProcOp::ScalarVectorMul { n } => n,
            ProcOp::VectorAdd { .. } => 0,
        }
    }

    /// Word-level additions performed (circle-adder iterations).
    pub fn word_adds(&self) -> u64 {
        match *self {
            ProcOp::DotProduct { n } | ProcOp::VectorAdd { n } => n,
            ProcOp::ScalarVectorMul { .. } => 0,
        }
    }

    /// Whether the duplicator/multiplier/tree stages participate.
    pub fn uses_multiplier(&self) -> bool {
        matches!(
            self,
            ProcOp::DotProduct { .. } | ProcOp::ScalarVectorMul { .. }
        )
    }
}

/// Cycle and operation-count cost of one [`ProcOp`] on the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProcCost {
    /// Total pipeline occupancy in memory-core cycles (fill + drain
    /// included).
    pub cycles: u64,
    /// Word-level multiplications (priced at Table III's `mul` energy).
    pub word_muls: u64,
    /// Word-level additions (priced at Table III's `add` energy).
    pub word_adds: u64,
    /// Words that crossed the processor's input/output boundary (the bus
    /// traffic this operation generates).
    pub io_words: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts() {
        let dot = ProcOp::DotProduct { n: 100 };
        assert_eq!(dot.word_muls(), 100);
        assert_eq!(dot.word_adds(), 100);
        assert!(dot.uses_multiplier());

        let smul = ProcOp::ScalarVectorMul { n: 50 };
        assert_eq!(smul.word_muls(), 50);
        assert_eq!(smul.word_adds(), 0);

        let add = ProcOp::VectorAdd { n: 25 };
        assert_eq!(add.word_muls(), 0);
        assert_eq!(add.word_adds(), 25);
        assert!(!add.uses_multiplier());
        assert_eq!(add.elements(), 25);
    }
}

//! Fabrication-process energy scaling (paper §V-F).
//!
//! All StreamPIM arithmetic is performed by shift currents driving domains
//! across engineered couplings, so per-gate energy is dominated by the
//! domain scale. The paper reports 20 pJ per gate at the 1.0 µm research
//! sample scale dropping to 0.0008 pJ at 32 nm; we interpolate between these
//! anchors with a power law in feature size.

use serde::{Deserialize, Serialize};

/// A fabrication node (feature size in nanometres).
///
/// ```
/// use dw_logic::ProcessNode;
///
/// let node = ProcessNode::nm(32);
/// assert!((node.gate_energy_pj() - 0.0008).abs() < 1e-9);
/// assert!(ProcessNode::nm(1000).gate_energy_pj() > 19.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct ProcessNode {
    feature_nm: f64,
}

/// Per-gate energy anchor at the 1.0 µm research-sample scale, pJ.
const E_1UM_PJ: f64 = 20.0;
/// Per-gate energy anchor at the 32 nm node, pJ.
const E_32NM_PJ: f64 = 0.0008;

impl ProcessNode {
    /// Creates a node with the given feature size in nanometres.
    ///
    /// # Panics
    ///
    /// Panics if `feature_nm` is not a positive finite number.
    pub fn nm(feature_nm: u32) -> Self {
        ProcessNode::from_nm_f64(feature_nm as f64)
    }

    /// Creates a node from a fractional feature size.
    ///
    /// # Panics
    ///
    /// Panics if `feature_nm` is not a positive finite number.
    pub fn from_nm_f64(feature_nm: f64) -> Self {
        assert!(
            feature_nm.is_finite() && feature_nm > 0.0,
            "feature size must be positive"
        );
        ProcessNode { feature_nm }
    }

    /// The paper's evaluated node (CORUSCANT-compatible 32 nm).
    pub fn paper_default() -> Self {
        ProcessNode::nm(32)
    }

    /// Feature size in nanometres.
    #[inline]
    pub fn feature_nm(&self) -> f64 {
        self.feature_nm
    }

    /// Power-law exponent fitted through the two published anchors.
    fn exponent() -> f64 {
        (E_1UM_PJ / E_32NM_PJ).ln() / (1000.0_f64 / 32.0).ln()
    }

    /// Energy of one gate traversal at this node, picojoules.
    pub fn gate_energy_pj(&self) -> f64 {
        E_32NM_PJ * (self.feature_nm / 32.0).powf(Self::exponent())
    }
}

impl Default for ProcessNode {
    fn default() -> Self {
        ProcessNode::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_are_hit() {
        assert!((ProcessNode::nm(32).gate_energy_pj() - 0.0008).abs() < 1e-12);
        assert!((ProcessNode::nm(1000).gate_energy_pj() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn energy_decreases_with_shrinking_node() {
        let nodes = [1000, 180, 65, 32, 22];
        let energies: Vec<f64> = nodes
            .iter()
            .map(|&n| ProcessNode::nm(n).gate_energy_pj())
            .collect();
        for pair in energies.windows(2) {
            assert!(pair[0] > pair[1], "energy must drop: {energies:?}");
        }
    }

    #[test]
    fn drastic_drop_from_1um_to_32nm() {
        // Paper: "from 20pJ to 0.0008pJ" — a 25000x reduction.
        let ratio = ProcessNode::nm(1000).gate_energy_pj() / ProcessNode::nm(32).gate_energy_pj();
        assert!((ratio - 25_000.0).abs() / 25_000.0 < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_feature() {
        let _ = ProcessNode::from_nm_f64(0.0);
    }
}

//! Operation latencies (Table III of the paper).

use serde::{Deserialize, Serialize};

/// Latency constants for racetrack-memory operations, in nanoseconds.
///
/// The paper adopts these from the RTSim/NVSim-derived model of [Hu et al.,
/// GLSVLSI'16] and [Zhang et al., ASP-DAC'15]: read 3.91 ns, write 10.27 ns,
/// shift 2.13 ns per one-domain shift step.
///
/// ```
/// use rm_core::TimingParams;
///
/// let t = TimingParams::paper_default();
/// assert!(t.write_ns > t.read_ns && t.read_ns > t.shift_ns);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Latency of reading one aligned row through its access ports.
    pub read_ns: f64,
    /// Latency of writing one aligned row through its access ports.
    pub write_ns: f64,
    /// Latency of shifting a track by one domain position.
    pub shift_ns: f64,
    /// Latency of a transverse read over a span of domains (CORUSCANT's
    /// mechanism); sensed in one access like a regular read.
    pub transverse_read_ns: f64,
}

impl TimingParams {
    /// Table III constants.
    pub fn paper_default() -> Self {
        TimingParams {
            read_ns: 3.91,
            write_ns: 10.27,
            shift_ns: 2.13,
            // Transverse read senses a whole span in a single access; the TR
            // paper reports latency comparable to a regular read.
            transverse_read_ns: 3.91,
        }
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::paper_default()
    }
}

// Structural hashing for fingerprints/cache keys: f64 fields are folded in
// as their IEEE-754 bit patterns, so two configs hash equal iff their
// constants are bit-identical.
impl std::hash::Hash for TimingParams {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.read_ns.to_bits().hash(state);
        self.write_ns.to_bits().hash(state);
        self.shift_ns.to_bits().hash(state);
        self.transverse_read_ns.to_bits().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let t = TimingParams::paper_default();
        assert_eq!(t.read_ns, 3.91);
        assert_eq!(t.write_ns, 10.27);
        assert_eq!(t.shift_ns, 2.13);
    }

    #[test]
    fn write_is_slowest_rm_op() {
        // The paper's core motivation: RM writes dominate; shift is cheapest.
        let t = TimingParams::paper_default();
        assert!(t.write_ns > t.read_ns);
        assert!(t.read_ns > t.shift_ns);
    }
}

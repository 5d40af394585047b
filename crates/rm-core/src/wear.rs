//! Device-health accounting: per-subarray shift and wear tallies.
//!
//! Racetrack reliability work (PIRM, DOWNSHIFT) treats shift wear as an
//! *operational* concern: what matters is not only how much a run shifted,
//! but **where** — a handful of hot subarrays absorb most of the shift
//! current and therefore most of the wear and fault probability.
//! [`WearTracker`] is the aggregation point for that signal. It is
//! deliberately host-side-only bookkeeping: recording into a tracker never
//! feeds back into a simulation, so simulated reports stay byte-identical
//! whether or not a tracker is attached.
//!
//! It has one feeder: the serving path folds each finished job's
//! attribution tree (`device/subarray[s]` node stats) into the tracker
//! after the job completes. Its memory is O(subarrays) regardless of run
//! length. The bit-level flow's fault draws are counted in its own
//! statistics (`pim_device::DeviceFlowStats`), not here.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Mutex;

/// Accumulated activity of one subarray.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SubarrayWear {
    /// Shift operations issued against this subarray.
    pub shifts: u64,
    /// Total shift distance in domain positions (the wear proxy: each
    /// position moved is one current pulse through the wire).
    pub shift_distance: u64,
    /// Simulated busy time attributed to this subarray, nanoseconds.
    pub busy_ns: f64,
}

/// One row of the wear heatmap served at `GET /v1/device/health`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SubarrayHealth {
    /// Subarray index.
    pub subarray: u32,
    /// Wear counters for this subarray.
    pub wear: SubarrayWear,
}

/// Point-in-time snapshot of device health: the per-subarray wear heatmap.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceHealth {
    /// Per-subarray rows, sorted by subarray index (stable heatmap order).
    pub subarrays: Vec<SubarrayHealth>,
    /// Grand totals across all subarrays.
    pub totals: SubarrayWear,
}

/// Thread-safe device-health accumulator. See the module docs for the
/// determinism contract and its feeder.
#[derive(Default)]
pub struct WearTracker {
    subarrays: Mutex<HashMap<u32, SubarrayWear>>,
}

impl std::fmt::Debug for WearTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WearTracker")
            .field("subarrays", &self.subarrays.lock().unwrap().len())
            .finish()
    }
}

impl WearTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        WearTracker::default()
    }

    /// Records shift activity attributed to `subarray` (folded from a
    /// job's attribution tree).
    pub fn record_activity(&self, subarray: u32, shifts: u64, shift_distance: u64, busy_ns: f64) {
        if shifts == 0 && shift_distance == 0 && busy_ns == 0.0 {
            return;
        }
        let mut subarrays = self.subarrays.lock().unwrap();
        let wear = subarrays.entry(subarray).or_default();
        wear.shifts += shifts;
        wear.shift_distance += shift_distance;
        wear.busy_ns += busy_ns;
    }

    /// Snapshot of the heatmap.
    pub fn snapshot(&self) -> DeviceHealth {
        let mut subarrays: Vec<SubarrayHealth> = self
            .subarrays
            .lock()
            .unwrap()
            .iter()
            .map(|(&subarray, &wear)| SubarrayHealth { subarray, wear })
            .collect();
        subarrays.sort_by_key(|row| row.subarray);
        let mut totals = SubarrayWear::default();
        for row in &subarrays {
            totals.shifts += row.wear.shifts;
            totals.shift_distance += row.wear.shift_distance;
            totals.busy_ns += row.wear.busy_ns;
        }
        DeviceHealth { subarrays, totals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_and_faults_accumulate_per_subarray() {
        let tracker = WearTracker::new();
        tracker.record_activity(3, 10, 40, 1.5);
        tracker.record_activity(3, 5, 20, 0.5);
        let health = tracker.snapshot();
        assert_eq!(health.subarrays.len(), 1);
        let row = &health.subarrays[0];
        assert_eq!(row.subarray, 3);
        assert_eq!(row.wear.shifts, 15);
        assert_eq!(row.wear.shift_distance, 60);
        assert_eq!(health.totals.shifts, 15);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let build = || {
            let tracker = WearTracker::new();
            for s in 0..4u32 {
                tracker.record_activity(s, u64::from(s) * 3 + 1, u64::from(s) * 7, 0.25);
            }
            tracker.snapshot()
        };
        assert_eq!(build(), build());
    }
}

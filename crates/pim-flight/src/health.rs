//! Bridge from per-request attribution to the device-health tracker.
//!
//! The serving path prices jobs analytically, so it has no functional
//! nanowires to watch — but every request's attribution tree already says
//! exactly which subarrays did the work. Folding each finished request's
//! `device/subarray[s]` nodes into the shared [`WearTracker`] turns the
//! always-on flight taps into a device-health feed for free.

use pim_profile::AttributionTree;
use rm_core::WearTracker;

/// Folds a request's attribution tree into `tracker`: every
/// `device/subarray[s]` node contributes its shift counters and busy time
/// to subarray `s`'s wear row. Unparseable paths are ignored.
pub fn absorb_attribution(tracker: &WearTracker, tree: &AttributionTree) {
    for (path, stats) in tree.iter() {
        let Some(subarray) = parse_subarray(path) else {
            continue;
        };
        tracker.record_activity(
            subarray,
            stats.ops.shifts,
            stats.ops.shift_distance,
            stats.busy_ns,
        );
    }
}

/// Parses `device/subarray[N]` (exact node, not descendants) to `N`,
/// accepting the cluster-nested form `cluster/device[d]/device/subarray[N]`
/// as well: simulated cluster devices share one geometry, so subarray `N`
/// on any device wears the same heatmap row.
fn parse_subarray(path: &str) -> Option<u32> {
    let local = match crate::cluster::parse_device_path(path) {
        Some((_, rest)) => rest,
        None => path,
    };
    let rest = local.strip_prefix("device/subarray[")?;
    let digits = rest.strip_suffix(']')?;
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_core::ProbeSample;

    #[test]
    fn parses_subarray_paths_only() {
        assert_eq!(parse_subarray("device/subarray[3]"), Some(3));
        assert_eq!(parse_subarray("device/subarray[12]"), Some(12));
        assert_eq!(parse_subarray("bus/lane[3]"), None);
        assert_eq!(parse_subarray("device/controller"), None);
        assert_eq!(parse_subarray("device/subarray[x]"), None);
        // Cluster-nested lanes feed the same heatmap.
        assert_eq!(
            parse_subarray("cluster/device[2]/device/subarray[5]"),
            Some(5)
        );
        assert_eq!(parse_subarray("cluster/device[2]/device/controller"), None);
        assert_eq!(parse_subarray("cluster/interconnect/link[1]"), None);
    }

    #[test]
    fn folds_shift_activity_into_the_tracker() {
        let mut tree = AttributionTree::new();
        let mut ops = rm_core::OpCounters::new();
        ops.shifts = 11;
        ops.shift_distance = 44;
        tree.record(
            "device/subarray[2]",
            &ProbeSample {
                ops,
                energy: rm_core::EnergyBreakdown::default(),
                busy_ns: 12.5,
            },
        );
        tree.record("device/controller", &ProbeSample::busy(1.0));
        let tracker = WearTracker::new();
        absorb_attribution(&tracker, &tree);
        let health = tracker.snapshot();
        assert_eq!(health.subarrays.len(), 1);
        assert_eq!(health.subarrays[0].subarray, 2);
        assert_eq!(health.subarrays[0].wear.shifts, 11);
        assert_eq!(health.subarrays[0].wear.shift_distance, 44);
    }
}

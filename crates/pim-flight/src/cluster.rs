//! Per-device utilization rollup for multi-device (cluster) jobs.
//!
//! A cluster run attributes each lane's engine samples under
//! `cluster/device[d]/…` and its interconnect links under
//! `cluster/interconnect/link[d]` (see `pim_cluster`). This accumulator
//! folds those nodes out of each finished request's attribution tree into
//! per-device running totals, giving the serving path a cheap always-on
//! answer to "how busy is each simulated device, and how much of its energy
//! went to the links?" — the feed behind the `pim_cluster_device_*` gauges
//! and `pim_top`'s device panel.
//!
//! Totals are exact in the same sense as the attribution tree itself:
//! operation counters are `u64` sums, time/energy are `f64` accumulated in
//! completion order (observability only, never part of a job's result).

use pim_profile::AttributionTree;
use rm_core::OpCounters;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Running totals for one simulated device across all observed requests.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DeviceUtilization {
    /// Device index within its cluster.
    pub device: u32,
    /// Engine busy time attributed to the device, nanoseconds.
    pub busy_ns: f64,
    /// Engine energy attributed to the device, picojoules.
    pub energy_pj: f64,
    /// Engine operation counters attributed to the device.
    pub ops: OpCounters,
    /// Interconnect busy time on the device's link, nanoseconds.
    pub link_busy_ns: f64,
    /// Interconnect energy on the device's link, picojoules.
    pub link_energy_pj: f64,
}

/// Thread-safe accumulator of [`DeviceUtilization`] rows.
#[derive(Debug, Default)]
pub struct ClusterUtilization {
    devices: Mutex<BTreeMap<u32, DeviceUtilization>>,
}

impl ClusterUtilization {
    /// An empty accumulator.
    pub fn new() -> Self {
        ClusterUtilization::default()
    }

    /// Folds one finished request's attribution tree in. Trees without any
    /// `cluster/…` nodes (single-device jobs) contribute nothing.
    pub fn absorb_attribution(&self, tree: &AttributionTree) {
        let mut devices = self.devices.lock().expect("cluster utilization lock");
        for (path, stats) in tree.iter() {
            if let Some((device, _rest)) = parse_device_path(path) {
                let row = devices.entry(device).or_insert(DeviceUtilization {
                    device,
                    ..DeviceUtilization::default()
                });
                row.busy_ns += stats.busy_ns;
                row.energy_pj += stats.energy.total_pj();
                row.ops += stats.ops;
            } else if let Some(device) = parse_link_path(path) {
                let row = devices.entry(device).or_insert(DeviceUtilization {
                    device,
                    ..DeviceUtilization::default()
                });
                row.link_busy_ns += stats.busy_ns;
                row.link_energy_pj += stats.energy.total_pj();
            }
        }
    }

    /// Point-in-time rows, sorted by device index.
    pub fn snapshot(&self) -> Vec<DeviceUtilization> {
        let devices = self.devices.lock().expect("cluster utilization lock");
        devices.values().copied().collect()
    }
}

/// Parses `cluster/device[N]/<rest>` to `(N, rest)`. The bare node
/// `cluster/device[N]` (no trailing path) also parses, with an empty rest —
/// static-power samples land there.
pub fn parse_device_path(path: &str) -> Option<(u32, &str)> {
    let rest = path.strip_prefix("cluster/device[")?;
    let (digits, tail) = rest.split_once(']')?;
    let device = digits.parse().ok()?;
    match tail.strip_prefix('/') {
        Some(local) => Some((device, local)),
        None if tail.is_empty() => Some((device, "")),
        None => None,
    }
}

/// Parses `cluster/interconnect/link[N]` (exact node) to `N`.
fn parse_link_path(path: &str) -> Option<u32> {
    let rest = path.strip_prefix("cluster/interconnect/link[")?;
    rest.strip_suffix(']')?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_core::ProbeSample;

    #[test]
    fn parses_device_paths() {
        assert_eq!(
            parse_device_path("cluster/device[3]/device/subarray[1]"),
            Some((3, "device/subarray[1]"))
        );
        assert_eq!(
            parse_device_path("cluster/device[0]/peripherals"),
            Some((0, "peripherals"))
        );
        assert_eq!(parse_device_path("device/subarray[1]"), None);
        assert_eq!(parse_device_path("cluster/device[x]/bus"), None);
        assert_eq!(parse_link_path("cluster/interconnect/link[2]"), Some(2));
        assert_eq!(parse_link_path("cluster/interconnect/link[a]"), None);
    }

    #[test]
    fn accumulates_per_device_rows() {
        let mut tree = AttributionTree::new();
        let mut ops = OpCounters::new();
        ops.pim_adds = 5;
        tree.record(
            "cluster/device[0]/device/subarray[0]",
            &ProbeSample {
                ops,
                energy: rm_core::EnergyBreakdown {
                    compute_pj: 7.0,
                    ..Default::default()
                },
                busy_ns: 3.0,
            },
        );
        tree.record(
            "cluster/device[1]/device/controller",
            &ProbeSample::busy(9.0),
        );
        tree.record(
            "cluster/interconnect/link[1]",
            &ProbeSample {
                ops: OpCounters::new(),
                energy: rm_core::EnergyBreakdown {
                    read_pj: 2.0,
                    ..Default::default()
                },
                busy_ns: 4.0,
            },
        );
        // Non-cluster nodes are ignored.
        tree.record("device/controller", &ProbeSample::busy(99.0));

        let util = ClusterUtilization::new();
        util.absorb_attribution(&tree);
        util.absorb_attribution(&tree);
        let rows = util.snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].device, 0);
        assert_eq!(rows[0].ops.pim_adds, 10, "two absorptions");
        assert_eq!(rows[0].energy_pj, 14.0);
        assert_eq!(rows[1].device, 1);
        assert_eq!(rows[1].busy_ns, 18.0);
        assert_eq!(rows[1].link_busy_ns, 8.0);
        assert_eq!(rows[1].link_energy_pj, 4.0);
    }
}

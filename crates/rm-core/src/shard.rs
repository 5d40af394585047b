//! Deterministic sharded execution over hardware independence boundaries.
//!
//! StreamPIM's mats, subarrays, and banks operate concurrently, so the
//! functional simulator can shard work along the same boundaries and run the
//! shards on scoped OS threads (the same std-only style as the pim-runtime
//! executor). The contract that makes this safe to adopt everywhere is
//! **deterministic reduction**: results are concatenated and merged in shard
//! index order, never in thread completion order, so the merged
//! [`OpCounters`](crate::OpCounters) / [`EnergyBreakdown`](crate::EnergyBreakdown)
//! / probe streams are byte-identical to a serial run at *any* worker count.
//!
//! [`run_sharded`] is the one fan-out: each thread owns a disjoint `&mut`
//! chunk of a slice of shards (one subarray pipeline of a functional flow,
//! one device lane's workload of a cluster) and the results come back in
//! shard order, index-aligned with the input.
//!
//! [`BufferProbe`] complements it for probe fan-in across a cluster's
//! device lanes: each shard records into its own buffer, and the buffers
//! are replayed into the real probe in shard order afterwards, preserving
//! the exact serial emission sequence.

use crate::probe::{Probe, ProbeSample};
use std::sync::Mutex;

/// Runs `f` once per shard, each thread owning a disjoint chunk of shards.
///
/// `shards` is split into at most `workers` contiguous `&mut` chunks; each
/// thread drives its shards in ascending index order and the outputs are
/// concatenated in shard order. `f` receives the *global* shard index. The
/// result is identical to a serial `iter_mut().enumerate()` loop for any
/// worker count, so callers can merge per-shard accumulators in shard order
/// and get byte-identical totals.
///
/// `workers <= 1` (or a single shard) runs inline without spawning.
pub fn run_sharded<S, U, F>(shards: &mut [S], workers: usize, f: F) -> Vec<U>
where
    S: Send,
    U: Send,
    F: Fn(usize, &mut S) -> U + Sync,
{
    let n = shards.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return shards
            .iter_mut()
            .enumerate()
            .map(|(i, s)| f(i, s))
            .collect();
    }
    let chunk = n.div_ceil(workers);
    let mut chunks_out: Vec<Vec<U>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                let f = &f;
                scope.spawn(move || {
                    slice
                        .iter_mut()
                        .enumerate()
                        .map(|(i, s)| f(ci * chunk + i, s))
                        .collect::<Vec<U>>()
                })
            })
            .collect();
        for h in handles {
            chunks_out.push(h.join().expect("shard thread panicked"));
        }
    });
    let mut out = Vec::with_capacity(n);
    for c in chunks_out {
        out.extend(c);
    }
    out
}

/// A probe that buffers samples for later shard-ordered replay.
///
/// Each shard records into its own `BufferProbe` during a sharded run; the
/// coordinator then [`replay`](BufferProbe::replay)s the buffers into the
/// real probe in shard index order. Because every shard's internal emission
/// order is its serial order, the replayed stream is exactly the sequence a
/// serial run would have produced.
#[derive(Debug, Default)]
pub struct BufferProbe {
    records: Mutex<Vec<(String, ProbeSample)>>,
}

impl BufferProbe {
    /// An empty buffer.
    pub fn new() -> Self {
        BufferProbe::default()
    }

    /// Number of buffered samples.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replays every buffered sample into `target` in recording order.
    pub fn replay(&self, target: &dyn Probe) {
        for (path, sample) in self.records.lock().unwrap().iter() {
            target.record(path, *sample);
        }
    }

    /// Drains and returns the buffered samples in recording order.
    pub fn take(&self) -> Vec<(String, ProbeSample)> {
        std::mem::take(&mut self.records.lock().unwrap())
    }
}

impl Probe for BufferProbe {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, path: &str, sample: ProbeSample) {
        self.records
            .lock()
            .unwrap()
            .push((path.to_string(), sample));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpCounters;

    #[test]
    fn run_sharded_matches_serial_for_all_worker_counts() {
        let mut items: Vec<u64> = (0..23).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| i as u64 * 1000 + v * 3)
            .collect();
        for workers in [0, 1, 2, 3, 7, 16, 64] {
            let got = run_sharded(&mut items, workers, |i, v| i as u64 * 1000 + *v * 3);
            assert_eq!(got, serial, "workers={workers}");
        }
    }

    #[test]
    fn run_sharded_handles_empty_input() {
        let out: Vec<u32> = run_sharded(&mut [] as &mut [u32], 4, |_, v| *v);
        assert!(out.is_empty());
    }

    #[test]
    fn run_sharded_gives_each_thread_exclusive_state() {
        for workers in [1, 2, 5, 13] {
            let mut shards: Vec<u64> = vec![0; 13];
            let out = run_sharded(&mut shards, workers, |i, s| {
                *s += i as u64 + 1;
                *s * 10
            });
            assert_eq!(shards, (1..=13).collect::<Vec<u64>>(), "workers={workers}");
            assert_eq!(
                out,
                (1..=13).map(|v| v * 10).collect::<Vec<u64>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn buffer_probe_replays_in_recording_order() {
        let buf = BufferProbe::new();
        for i in 0..5u64 {
            buf.record(
                &format!("flow/subarray[{i}]"),
                ProbeSample::ops(OpCounters {
                    shifts: i,
                    ..OpCounters::default()
                }),
            );
        }
        assert_eq!(buf.len(), 5);
        let sink = BufferProbe::new();
        buf.replay(&sink);
        let got = sink.take();
        assert_eq!(got.len(), 5);
        for (i, (path, sample)) in got.iter().enumerate() {
            assert_eq!(path, &format!("flow/subarray[{i}]"));
            assert_eq!(sample.ops.shifts, i as u64);
        }
        assert!(sink.is_empty());
    }
}

//! Content-addressed schedule cache.
//!
//! Task lowering is deterministic: the schedule is a pure function of the
//! lowering configuration and the workload spec. The cache therefore keys
//! entries by a structural FNV-1a digest of that pair (every field fed
//! through [`std::hash::Hash`], floats by their IEEE-754 bits) — no
//! invalidation protocol is needed, entries are immutable, and a hit is
//! guaranteed to be byte-identical to what a fresh lowering would produce
//! (the determinism tests enforce this end to end).
//!
//! The cache is bounded: past [`SCHEDULE_CACHE_BUDGET`] entries the least
//! recently used one is dropped. Eviction only decides *when* a schedule is
//! lowered again, never what it contains, so reports are unaffected.

use pim_device::schedule::Schedule;
use pim_device::{PimError, StreamPimConfig};
use pim_workloads::WorkloadSpec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Schedules the cache keeps before evicting the least recently used.
/// Unbounded, a 17k-job serving run with fresh shapes held 1,653
/// schedules in 12.3 MiB (about 7.6 KiB each); 512 entries cap that near
/// 4 MiB while every shape a workload keeps reusing stays resident.
pub const SCHEDULE_CACHE_BUDGET: usize = 512;

/// Thread-safe cache of lowered schedules, shared across jobs and workers.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    entries: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The resident schedules, each stamped with the tick of its last use.
#[derive(Debug, Default)]
struct Lru {
    map: HashMap<u64, (Arc<Schedule>, u64)>,
    tick: u64,
}

impl Lru {
    /// The schedule for `key`, refreshed as most recently used.
    fn get(&mut self, key: u64) -> Option<Arc<Schedule>> {
        self.tick += 1;
        let (schedule, used) = self.map.get_mut(&key)?;
        *used = self.tick;
        Some(Arc::clone(schedule))
    }

    /// Inserts `schedule` unless `key` is already resident (the first
    /// insert wins), evicting the least recently used entry when full.
    /// Returns the resident schedule.
    fn insert(&mut self, key: u64, schedule: Arc<Schedule>) -> Arc<Schedule> {
        if let Some(resident) = self.get(key) {
            return resident;
        }
        if self.map.len() >= SCHEDULE_CACHE_BUDGET {
            // A linear scan: it runs once per miss, next to a lowering that
            // costs far more.
            let oldest = self.map.iter().min_by_key(|(_, (_, used))| *used);
            if let Some(&oldest) = oldest.map(|(key, _)| key) {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (Arc::clone(&schedule), self.tick));
        schedule
    }
}

impl ScheduleCache {
    /// An empty cache.
    pub fn new() -> Self {
        ScheduleCache::default()
    }

    /// The cache key for a `(lowering config, workload)` pair: a structural
    /// FNV-1a digest (see [`rm_core::FnvHasher`]) of both values, with no
    /// intermediate `format!` allocation. Floats hash by their IEEE-754
    /// bits, so distinct configs digest distinctly and equal configs digest
    /// equally. The digest is seeded with the `"cache-key-v2"` version tag,
    /// which partitions it from the retired v1 (debug-string) key space.
    pub fn key(config: &StreamPimConfig, workload: &WorkloadSpec) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = rm_core::FnvHasher::with_tag("cache-key-v2");
        config.hash(&mut h);
        workload.hash(&mut h);
        h.finish()
    }

    /// The *shape* key for a `(lowering config, workload)` pair: like
    /// [`ScheduleCache::key`] but dimension-blind — the workload
    /// contributes only its [`WorkloadSpec::shape_class`], so two jobs with
    /// the same operation DAG at different sizes collide. A full-key miss
    /// whose shape key was seen before is a *near miss*: the runtime
    /// re-prices only the shape-dependent rows through the shape's
    /// [`pim_device::PriceTable`] instead of pricing every row cold.
    pub fn shape_key(config: &StreamPimConfig, workload: &WorkloadSpec) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = rm_core::FnvHasher::with_tag("shape-key-v1");
        config.hash(&mut h);
        workload.shape_class().hash(&mut h);
        h.finish()
    }

    /// Returns the schedule for `key`, lowering it with `lower` on a miss.
    /// The second component reports whether this call was a hit. A hit
    /// refreshes the entry as most recently used.
    ///
    /// Lowering runs outside the lock so a slow lowering never serializes
    /// unrelated lookups; if two workers race on the same key, both lower
    /// (deterministically, to identical schedules) and the first insert
    /// wins.
    ///
    /// # Errors
    ///
    /// Propagates the error from `lower` on a miss.
    pub fn get_or_lower<F>(&self, key: u64, lower: F) -> Result<(Arc<Schedule>, bool), PimError>
    where
        F: FnOnce() -> Result<Schedule, PimError>,
    {
        if let Some(found) = self.entries.lock().expect("cache lock").get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((found, true));
        }
        let lowered = Arc::new(lower()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry = self
            .entries
            .lock()
            .expect("cache lock")
            .insert(key, Arc::clone(&lowered));
        debug_assert_eq!(
            entry.fingerprint(),
            lowered.fingerprint(),
            "deterministic lowering: racing lowerings must agree"
        );
        Ok((entry, false))
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (i.e. lowerings performed) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct schedules resident (at most
    /// [`SCHEDULE_CACHE_BUDGET`]).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").map.len()
    }

    /// Whether the cache holds no schedules.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries (counters are preserved).
    pub fn clear(&self) {
        self.entries.lock().expect("cache lock").map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_device::StreamPim;
    use pim_workloads::Kernel;

    fn lower(spec: &WorkloadSpec, cfg: &StreamPimConfig) -> Result<Schedule, PimError> {
        let device = StreamPim::new(cfg.clone())?;
        spec.shape_task().lower(&device)
    }

    #[test]
    fn second_lookup_hits() {
        let cache = ScheduleCache::new();
        let cfg = StreamPimConfig::paper_default();
        let spec = WorkloadSpec::polybench(Kernel::Atax, 0.02);
        let key = ScheduleCache::key(&cfg, &spec);

        let (first, hit1) = cache.get_or_lower(key, || lower(&spec, &cfg)).unwrap();
        assert!(!hit1, "cold lookup misses");
        let (second, hit2) = cache
            .get_or_lower(key, || panic!("must not re-lower"))
            .unwrap();
        assert!(hit2, "warm lookup hits");
        assert_eq!(first.fingerprint(), second.fingerprint());
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
    }

    #[test]
    fn keys_separate_configs_and_workloads() {
        let cfg = StreamPimConfig::paper_default();
        let cfg_e = StreamPimConfig::electrical_bus();
        let a = WorkloadSpec::polybench(Kernel::Atax, 0.02);
        let b = WorkloadSpec::polybench(Kernel::Bicg, 0.02);
        assert_ne!(
            ScheduleCache::key(&cfg, &a),
            ScheduleCache::key(&cfg, &b),
            "different workloads"
        );
        assert_ne!(
            ScheduleCache::key(&cfg, &a),
            ScheduleCache::key(&cfg_e, &a),
            "different configs"
        );
        assert_eq!(
            ScheduleCache::key(&cfg, &a),
            ScheduleCache::key(&StreamPimConfig::paper_default(), &a),
            "equal pairs share a key"
        );
    }

    #[test]
    fn keys_are_stable_and_sensitive_to_float_fields() {
        let cfg = StreamPimConfig::paper_default();
        let spec = WorkloadSpec::polybench(Kernel::Atax, 0.02);
        let k = ScheduleCache::key(&cfg, &spec);
        // Stable across calls and across independently built equal values.
        assert_eq!(k, ScheduleCache::key(&cfg, &spec));
        assert_eq!(
            k,
            ScheduleCache::key(
                &StreamPimConfig::paper_default(),
                &WorkloadSpec::polybench(Kernel::Atax, 0.02)
            )
        );
        // A float-only config perturbation must move the key (the structural
        // hash feeds IEEE-754 bits, not a rendered string).
        let mut nudged = StreamPimConfig::paper_default();
        nudged.device.timing.shift_ns += 1e-9;
        assert_ne!(k, ScheduleCache::key(&nudged, &spec), "float field");
        // A workload scale perturbation likewise.
        let denser = WorkloadSpec::polybench(Kernel::Atax, 0.021);
        assert_ne!(k, ScheduleCache::key(&cfg, &denser), "workload scale");
    }

    #[test]
    fn shape_keys_collide_across_sizes_but_not_shapes() {
        let cfg = StreamPimConfig::paper_default();
        // Same DAG at different sizes: full keys differ, shape keys agree.
        let small = WorkloadSpec::MatMul { m: 8, k: 8, n: 8 };
        let large = WorkloadSpec::MatMul {
            m: 64,
            k: 32,
            n: 16,
        };
        assert_ne!(
            ScheduleCache::key(&cfg, &small),
            ScheduleCache::key(&cfg, &large)
        );
        assert_eq!(
            ScheduleCache::shape_key(&cfg, &small),
            ScheduleCache::shape_key(&cfg, &large)
        );
        // Polybench kernels: scale-blind, kernel-sensitive.
        let atax = WorkloadSpec::polybench(Kernel::Atax, 0.02);
        let atax_big = WorkloadSpec::polybench(Kernel::Atax, 0.05);
        let bicg = WorkloadSpec::polybench(Kernel::Bicg, 0.02);
        assert_eq!(
            ScheduleCache::shape_key(&cfg, &atax),
            ScheduleCache::shape_key(&cfg, &atax_big)
        );
        assert_ne!(
            ScheduleCache::shape_key(&cfg, &atax),
            ScheduleCache::shape_key(&cfg, &bicg)
        );
        // Different configs must not share price tables.
        assert_ne!(
            ScheduleCache::shape_key(&cfg, &atax),
            ScheduleCache::shape_key(&StreamPimConfig::electrical_bus(), &atax)
        );
    }

    #[test]
    fn errors_propagate_and_do_not_poison() {
        let cache = ScheduleCache::new();
        let err = cache.get_or_lower(7, || Err(PimError::EmptyTask));
        assert!(err.is_err());
        assert!(cache.is_empty());
        let cfg = StreamPimConfig::paper_default();
        let spec = WorkloadSpec::polybench(Kernel::Mvt, 0.02);
        cache.get_or_lower(7, || lower(&spec, &cfg)).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hot_keys_survive_eviction_and_len_stays_within_budget() {
        let cache = ScheduleCache::new();
        let cfg = StreamPimConfig::paper_default();
        let spec = WorkloadSpec::MatMul { m: 4, k: 4, n: 4 };
        let schedule = lower(&spec, &cfg).unwrap();
        const HOT: u64 = u64::MAX;
        cache.get_or_lower(HOT, || Ok(schedule.clone())).unwrap();
        for key in 0..(2 * SCHEDULE_CACHE_BUDGET as u64 + 3) {
            let (_, hit) = cache.get_or_lower(key, || Ok(schedule.clone())).unwrap();
            assert!(!hit, "every cold key misses");
            assert!(cache.len() <= SCHEDULE_CACHE_BUDGET);
            // Touching the hot key between inserts keeps it the most
            // recently used, so it is never the one evicted.
            let (_, hit) = cache
                .get_or_lower(HOT, || panic!("hot key was evicted"))
                .unwrap();
            assert!(hit);
        }
        assert_eq!(cache.len(), SCHEDULE_CACHE_BUDGET);
        // The oldest cold keys were evicted; the newest are still resident.
        let (_, hit) = cache.get_or_lower(0, || Ok(schedule.clone())).unwrap();
        assert!(!hit, "least recently used key was evicted");
        let newest = 2 * SCHEDULE_CACHE_BUDGET as u64 + 2;
        let (_, hit) = cache
            .get_or_lower(newest, || panic!("newest key was evicted"))
            .unwrap();
        assert!(hit);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = ScheduleCache::new();
        let cfg = StreamPimConfig::paper_default();
        let spec = WorkloadSpec::polybench(Kernel::Atax, 0.02);
        let key = ScheduleCache::key(&cfg, &spec);
        cache.get_or_lower(key, || lower(&spec, &cfg)).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 1);
    }
}

//! Per-tenant FIFO queues with smooth weighted round-robin dispatch.
//!
//! Jobs within a tenant are strictly FIFO. *Across* tenants, the dispatcher
//! picks by smooth weighted round robin (the nginx algorithm): each
//! eligible tenant's credit grows by its weight every pick, the tenant with
//! the most credit wins and pays back the total eligible weight. The
//! sequence is deterministic (ties break on tenant name) and interleaves
//! proportionally — with weights 2:1, tenant A gets two dispatches for
//! every one of B instead of long alternating bursts.

use std::collections::{BTreeMap, VecDeque};

/// One tenant's queue state.
#[derive(Debug, Default)]
struct TenantQueue {
    /// FIFO of job ids awaiting dispatch.
    fifo: VecDeque<u64>,
    /// Dispatch weight (≥ 1).
    weight: u64,
    /// Smooth-WRR running credit.
    credit: i64,
    /// Jobs currently being executed for this tenant.
    in_flight: usize,
}

/// All tenants' queues plus the fair-dispatch state.
#[derive(Debug, Default)]
pub struct TenantQueues {
    tenants: BTreeMap<String, TenantQueue>,
    /// Total queued jobs across tenants.
    queued: usize,
    /// Total in-flight jobs across tenants.
    in_flight: usize,
}

impl TenantQueues {
    /// Empty queues.
    pub fn new() -> Self {
        TenantQueues::default()
    }

    /// Sets a tenant's dispatch weight (clamped to ≥ 1). May be called
    /// before the tenant ever submits.
    pub fn set_weight(&mut self, tenant: &str, weight: u64) {
        self.entry(tenant).weight = weight.max(1);
    }

    fn entry(&mut self, tenant: &str) -> &mut TenantQueue {
        self.tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantQueue {
                weight: 1,
                ..TenantQueue::default()
            })
    }

    /// Appends a job to its tenant's FIFO.
    pub fn push(&mut self, tenant: &str, job_id: u64) {
        self.entry(tenant).fifo.push_back(job_id);
        self.queued += 1;
    }

    /// Removes a queued job (cancellation). Returns `false` if the job is
    /// not queued under this tenant (already dispatched or unknown).
    pub fn remove(&mut self, tenant: &str, job_id: u64) -> bool {
        let Some(queue) = self.tenants.get_mut(tenant) else {
            return false;
        };
        let Some(pos) = queue.fifo.iter().position(|&id| id == job_id) else {
            return false;
        };
        queue.fifo.remove(pos);
        self.queued -= 1;
        true
    }

    /// Picks the next job to dispatch by smooth weighted round robin over
    /// tenants that have queued work and are under `per_tenant_inflight`.
    /// Returns `(tenant, job_id)` and marks the job in flight; the caller
    /// must pair it with [`TenantQueues::finish`].
    pub fn dispatch(&mut self, per_tenant_inflight: usize) -> Option<(String, u64)> {
        let mut total_weight = 0i64;
        let mut winner: Option<&str> = None;
        let mut best_credit = i64::MIN;
        for (name, queue) in self.tenants.iter() {
            if queue.fifo.is_empty() || queue.in_flight >= per_tenant_inflight {
                continue;
            }
            total_weight += queue.weight as i64;
            let credit = queue.credit + queue.weight as i64;
            // Strict `>` with BTreeMap iteration order makes ties break on
            // the lexicographically smallest tenant name.
            if credit > best_credit {
                best_credit = credit;
                winner = Some(name.as_str());
            }
        }
        let winner = winner?.to_string();
        // Everyone eligible earns their weight; the winner pays back the
        // round's total, keeping long-run dispatch counts proportional.
        for (name, queue) in self.tenants.iter_mut() {
            if queue.fifo.is_empty() || queue.in_flight >= per_tenant_inflight {
                continue;
            }
            queue.credit += queue.weight as i64;
            if *name == winner {
                queue.credit -= total_weight;
            }
        }
        let queue = self.tenants.get_mut(&winner).expect("winner exists");
        let job_id = queue.fifo.pop_front().expect("winner has work");
        queue.in_flight += 1;
        self.queued -= 1;
        self.in_flight += 1;
        Some((winner, job_id))
    }

    /// Marks a dispatched job finished, freeing its tenant's in-flight slot.
    pub fn finish(&mut self, tenant: &str) {
        let queue = self
            .tenants
            .get_mut(tenant)
            .expect("finished tenant exists");
        queue.in_flight -= 1;
        self.in_flight -= 1;
    }

    /// Queued jobs for one tenant.
    pub fn queued_for(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map_or(0, |q| q.fifo.len())
    }

    /// Total queued jobs across tenants.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Total in-flight jobs across tenants.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether any work is queued or running.
    pub fn is_idle(&self) -> bool {
        self.queued == 0 && self.in_flight == 0
    }

    /// Per-tenant `(tenant, queued, in_flight)` rows in tenant-name order
    /// — the scrape-time source for the queue-depth gauges.
    pub fn depths(&self) -> Vec<(String, usize, usize)> {
        self.tenants
            .iter()
            .map(|(name, queue)| (name.clone(), queue.fifo.len(), queue.in_flight))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dispatches everything with unlimited in-flight, returning the
    /// tenant order.
    fn drain_order(queues: &mut TenantQueues) -> Vec<String> {
        let mut order = Vec::new();
        while let Some((tenant, _)) = queues.dispatch(usize::MAX) {
            queues.finish(&tenant);
            order.push(tenant);
        }
        order
    }

    #[test]
    fn fifo_within_a_tenant() {
        let mut queues = TenantQueues::new();
        for id in [10, 11, 12] {
            queues.push("a", id);
        }
        let ids: Vec<u64> = std::iter::from_fn(|| {
            queues.dispatch(usize::MAX).map(|(t, id)| {
                queues.finish(&t);
                id
            })
        })
        .collect();
        assert_eq!(ids, vec![10, 11, 12]);
    }

    #[test]
    fn equal_weights_interleave_fairly() {
        let mut queues = TenantQueues::new();
        for id in 0..4 {
            queues.push("a", id);
            queues.push("b", 100 + id);
        }
        let order = drain_order(&mut queues);
        // Strict alternation (deterministic: ties break to "a").
        assert_eq!(order, vec!["a", "b", "a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn weights_bias_dispatch_proportionally() {
        let mut queues = TenantQueues::new();
        queues.set_weight("a", 2);
        for id in 0..8 {
            queues.push("a", id);
        }
        for id in 0..4 {
            queues.push("b", 100 + id);
        }
        let order = drain_order(&mut queues);
        // The first 12 picks give "a" twice the service, smoothly
        // interleaved rather than in bursts.
        let first_six = &order[..6];
        assert_eq!(
            first_six.iter().filter(|t| *t == "a").count(),
            4,
            "2:1 service ratio in {order:?}"
        );
        assert!(first_six.contains(&"b".to_string()), "no starvation");
    }

    #[test]
    fn inflight_cap_skips_saturated_tenants() {
        let mut queues = TenantQueues::new();
        queues.push("a", 1);
        queues.push("a", 2);
        queues.push("b", 3);
        let (t1, _) = queues.dispatch(1).unwrap();
        assert_eq!(t1, "a");
        // "a" is at its cap of 1: the next dispatch must pick "b".
        let (t2, _) = queues.dispatch(1).unwrap();
        assert_eq!(t2, "b");
        // Nothing else is eligible until a slot frees.
        assert!(queues.dispatch(1).is_none());
        queues.finish("a");
        let (t3, id3) = queues.dispatch(1).unwrap();
        assert_eq!((t3.as_str(), id3), ("a", 2));
    }

    #[test]
    fn remove_cancels_only_queued_jobs() {
        let mut queues = TenantQueues::new();
        queues.push("a", 1);
        queues.push("a", 2);
        assert!(queues.remove("a", 2));
        assert!(!queues.remove("a", 2), "already removed");
        assert!(!queues.remove("ghost", 1), "unknown tenant");
        let (tenant, id) = queues.dispatch(usize::MAX).unwrap();
        assert_eq!((tenant.as_str(), id), ("a", 1));
        assert!(!queues.remove("a", 1), "in-flight jobs are not queued");
        assert_eq!(queues.in_flight(), 1);
        queues.finish("a");
        assert!(queues.is_idle());
    }

    #[test]
    fn counters_track_state() {
        let mut queues = TenantQueues::new();
        queues.push("a", 1);
        queues.push("b", 2);
        assert_eq!(queues.queued(), 2);
        assert_eq!(queues.queued_for("a"), 1);
        queues.dispatch(usize::MAX).unwrap();
        assert_eq!(queues.queued(), 1);
        assert_eq!(queues.in_flight(), 1);
        assert_eq!(
            queues.depths(),
            vec![("a".to_string(), 0, 1), ("b".to_string(), 1, 0)],
            "per-tenant rows in name order"
        );
    }
}

//! Job requests: what to run, where, and under which configuration.

use pim_baselines::{Platform, PlatformKind};
use pim_cluster::ClusterSpec;
use pim_device::{OptLevel, PimError, StreamPimConfig};
use pim_workloads::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// One batch-runtime request: a workload priced on a platform.
///
/// Jobs are plain serializable values; nothing heavyweight (matrices,
/// schedules, devices) is built until the runtime dispatches them. The
/// optional `config`/`opt` overrides apply to the StreamPIM family
/// ([`PlatformKind::StPim`]/[`PlatformKind::StPimE`]); other platforms have
/// fixed paper configurations and ignore them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Display name (defaults to `<workload>/<platform>`).
    pub name: String,
    /// Correlating request id, stamped by a serving edge (empty for
    /// direct batch submissions). Host-side telemetry only: it flows
    /// into the job's trace-span attributes but never into the job's
    /// outcome, its schedule-cache key, or its platform identity.
    pub request_id: String,
    /// What to price.
    pub workload: WorkloadSpec,
    /// Where to price it.
    pub platform: PlatformKind,
    /// Full StreamPIM configuration override (StreamPIM family only).
    /// Boxed: few jobs carry one, and a `Job` without it stays small.
    pub config: Option<Box<StreamPimConfig>>,
    /// Optimization-level override, applied on top of `config` or the
    /// platform default (StreamPIM family only).
    pub opt: Option<OptLevel>,
    /// Multi-device scale-out request (StreamPIM family only): price the
    /// workload on a cluster of `devices` devices instead of one. The
    /// device count is a *hint* — the runtime clamps the lane threads to
    /// the batch's fair-share budget, which changes wall-clock only, never
    /// results. `None` (the default) runs single-device.
    pub cluster: Option<ClusterSpec>,
}

impl Job {
    /// A job with the platform's default configuration.
    pub fn new(workload: WorkloadSpec, platform: PlatformKind) -> Self {
        Job {
            name: format!("{}/{}", workload.name(), platform.name()),
            request_id: String::new(),
            workload,
            platform,
            config: None,
            opt: None,
            cluster: None,
        }
    }

    /// Replaces the display name (builder style).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Stamps the correlating request id (builder style). A serving edge
    /// overwrites this on admission.
    pub fn with_request_id(mut self, request_id: impl Into<String>) -> Self {
        self.request_id = request_id.into();
        self
    }

    /// Sets a full StreamPIM configuration override (builder style).
    pub fn with_config(mut self, config: StreamPimConfig) -> Self {
        self.config = Some(Box::new(config));
        self
    }

    /// Sets an optimization-level override (builder style).
    pub fn with_opt(mut self, opt: OptLevel) -> Self {
        self.opt = Some(opt);
        self
    }

    /// Requests multi-device cluster execution (builder style).
    pub fn with_cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// The StreamPIM configuration this job runs under, with overrides
    /// applied — `None` for platforms that are not in the StreamPIM family.
    pub fn effective_config(&self) -> Option<StreamPimConfig> {
        let base = match (&self.config, self.platform) {
            (Some(cfg), _) => StreamPimConfig::clone(cfg),
            (None, PlatformKind::StPim) => StreamPimConfig::paper_default(),
            (None, PlatformKind::StPimE) => StreamPimConfig::electrical_bus(),
            (None, _) => return None,
        };
        Some(match self.opt {
            Some(opt) => base.with_opt(opt),
            None => base,
        })
    }

    /// Builds the platform instance this job targets.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::Config`] for invalid configuration overrides.
    pub fn build_platform(&self) -> Result<Platform, PimError> {
        match self.platform {
            PlatformKind::StPim | PlatformKind::StPimE => Platform::stream_pim(
                self.effective_config()
                    .expect("StreamPIM-family jobs always have a config"),
            ),
            other => Platform::new(other),
        }
    }

    /// Stable identity of the platform instance this job needs: jobs with
    /// equal keys can share one [`Platform`] from the runtime's pool. A
    /// structural digest of the platform kind and the effective
    /// configuration, like the schedule cache's keys.
    pub(crate) fn platform_key(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = rm_core::FnvHasher::with_tag("platform-key-v2");
        self.platform.hash(&mut h);
        self.effective_config().hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_workloads::{DnnKind, Kernel};

    #[test]
    fn default_config_follows_platform() {
        let spec = WorkloadSpec::polybench(Kernel::Gemm, 0.02);
        let stpim = Job::new(spec, PlatformKind::StPim);
        assert_eq!(
            stpim.effective_config(),
            Some(StreamPimConfig::paper_default())
        );
        let stpim_e = Job::new(spec, PlatformKind::StPimE);
        assert_eq!(
            stpim_e.effective_config(),
            Some(StreamPimConfig::electrical_bus())
        );
        let cpu = Job::new(spec, PlatformKind::CpuRm);
        assert_eq!(cpu.effective_config(), None);
    }

    #[test]
    fn opt_override_applies_on_top_of_default() {
        let spec = WorkloadSpec::polybench(Kernel::Gemm, 0.02);
        let job = Job::new(spec, PlatformKind::StPim).with_opt(OptLevel::Base);
        assert_eq!(job.effective_config().unwrap().opt, OptLevel::Base);
    }

    #[test]
    fn platform_keys_separate_configs() {
        let spec = WorkloadSpec::polybench(Kernel::Gemm, 0.02);
        let a = Job::new(spec, PlatformKind::StPim);
        let b = Job::new(spec, PlatformKind::StPim).with_opt(OptLevel::Distribute);
        let c = Job::new(spec, PlatformKind::StPim);
        assert_ne!(a.platform_key(), b.platform_key());
        assert_eq!(a.platform_key(), c.platform_key());
        // Telemetry-only fields never split the platform pool.
        let d = Job::new(spec, PlatformKind::StPim).with_request_id("req-00000001");
        assert_eq!(a.platform_key(), d.platform_key());
    }

    #[test]
    fn jobs_round_trip_through_json() {
        let job = Job::new(
            WorkloadSpec::polybench(Kernel::Atax, 0.05),
            PlatformKind::Coruscant,
        )
        .named("atax-on-coruscant");
        let overridden = Job::new(WorkloadSpec::dnn(DnnKind::Mlp), PlatformKind::StPim)
            .with_config(StreamPimConfig::paper_default().with_segment_domains(64));
        for job in [job, overridden] {
            let json = serde_json::to_string(&job).unwrap();
            let back: Job = serde_json::from_str(&json).unwrap();
            assert_eq!(job, back);
        }
    }

    #[test]
    fn default_name_is_descriptive() {
        let job = Job::new(WorkloadSpec::polybench(Kernel::Mvt, 1.0), PlatformKind::Gpu);
        assert_eq!(job.name, "mvt/GPU");
    }
}

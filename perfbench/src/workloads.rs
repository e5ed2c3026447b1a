//! The benchmark's workloads. Each is a pure function of the seed: the
//! simulator receives only the `RunConfig` built here.
//!
//! The load shape (the per-minute trace) is generated once per workload
//! from [`TRACE_SEED`]; `--seed` drives everything else the run draws —
//! arrival instants, the prompt stream, the classifier's training set,
//! routing and service noise, the network model and which spot workers
//! the storm reclaims. Varying the trace shape with the seed would move
//! saturation and violation counts by an order of magnitude between
//! seeds (0.9% to 11% violations on `twitter_ac`), which is a property
//! of the generator, not of the code under test.

use argus_cachestore::NetworkRegime;
use argus_core::{
    preemption_events, AutoscalePolicy, CascadeConfig, Policy, RunConfig, RunOutcome,
};
use argus_models::GpuArch;
use argus_prompts::DriftSchedule;
use argus_workload::{preemption_storm, sysx_like, twitter_like, Trace};

/// Seed of every workload's trace shape (the s62 trace's seed).
pub const TRACE_SEED: u64 = 42;

/// On-demand pools of `sysx_fleet`, in worker-id order.
const SYSX_POOLS: [(GpuArch, usize); 3] =
    [(GpuArch::A100, 8), (GpuArch::A10G, 12), (GpuArch::V100, 12)];
/// Size of the `sysx_fleet` spot A10G pool (worker ids follow the
/// on-demand pools).
const SYSX_SPOT: usize = 8;
/// Minutes of `twitter_ac`'s trace the telemetry-overhead rounds replay.
const TWITTER_OBS_MINUTES: usize = 60;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The s62 configuration: the per-job AC read path at volume.
    TwitterAc,
    /// A SysX day on a heterogeneous elastic fleet with the cascade.
    SysxFleet,
    /// The paper testbed under prompt drift and a retrieval outage.
    TestbedDrift,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::TwitterAc,
        Workload::SysxFleet,
        Workload::TestbedDrift,
    ];

    /// The name the command line and the reports use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TwitterAc => "twitter_ac",
            Workload::SysxFleet => "sysx_fleet",
            Workload::TestbedDrift => "testbed_drift",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulator seeds one run of the benchmark pools its outcome
    /// metrics over. The first is `seed` itself. Cheap workloads pool
    /// several so that one seed's burst of violations does not decide the
    /// run's figure.
    pub fn sim_seeds(self, seed: u64) -> Vec<u64> {
        let k = match self {
            Workload::TwitterAc => 1,
            Workload::SysxFleet => 3,
            Workload::TestbedDrift => 3,
        };
        (0..k)
            .map(|i: u64| seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    }

    /// The simulator configuration for `seed`.
    pub fn config(self, seed: u64) -> RunConfig {
        match self {
            Workload::TwitterAc => twitter_ac(seed, twitter_trace()),
            Workload::SysxFleet => {
                let first_spot: usize = SYSX_POOLS.iter().map(|&(_, n)| n).sum();
                let storm = preemption_storm(seed, first_spot, SYSX_SPOT, 0.5, 3.0);
                let mut c = RunConfig::new(Policy::Argus, sysx_like(TRACE_SEED, 1440))
                    .with_seed(seed)
                    .with_heterogeneous_pools(SYSX_POOLS.to_vec())
                    .with_spot_pool(GpuArch::A10G, SYSX_SPOT, 0.6)
                    .with_faults(preemption_events(&storm, 30.0))
                    .with_autoscaler(AutoscalePolicy::default())
                    .with_demand_resplit()
                    .with_cascade(CascadeConfig::new())
                    .with_batching(4)
                    .without_retraining();
                c.classifier_train_size = 800;
                c
            }
            Workload::TestbedDrift => RunConfig::new(Policy::Argus, twitter_like(TRACE_SEED, 720))
                .with_seed(seed)
                .with_drift(DriftSchedule {
                    start_at: 20_000,
                    ramp: 10_000,
                    max_fraction: 0.6,
                })
                .with_network_events(vec![
                    (240.0, NetworkRegime::Congested),
                    (270.0, NetworkRegime::Outage),
                    (300.0, NetworkRegime::Normal),
                ]),
        }
    }

    /// The configuration the telemetry-overhead rounds run: the workload
    /// itself, except `twitter_ac`, whose rounds replay the first
    /// [`TWITTER_OBS_MINUTES`] of its trace so that several interleaved
    /// rounds fit in one run.
    pub fn obs_config(self, seed: u64) -> RunConfig {
        match self {
            Workload::TwitterAc => {
                let full = twitter_trace();
                let window = full.as_qpm()[..TWITTER_OBS_MINUTES].to_vec();
                twitter_ac(seed, Trace::from_qpm(window))
            }
            _ => self.config(seed),
        }
    }

    /// Checks that a run exercised what the workload was chosen for.
    pub fn purpose(self, out: &RunOutcome) -> Result<(), String> {
        let r = &out.retrieval;
        let probes = r.hits() + r.misses() + r.failures();
        let escalations: u64 = out
            .cascade
            .as_ref()
            .map_or(0, |c| c.escalated.values().sum());
        let scale_events = out.fleet.scale_out_events + out.fleet.scale_in_events;
        let (ok, want) = match self {
            Workload::TwitterAc => (
                probes > 0 && out.saturated_minutes > 0,
                "retrieval lookups and saturated minutes",
            ),
            Workload::SysxFleet => (
                escalations > 0
                    && scale_events > 0
                    && out.fleet.preemptions_ridden > 0
                    && probes == 0,
                "escalations, scale events, ridden preemptions and no retrieval lookups",
            ),
            Workload::TestbedDrift => (
                !out.retrain_minutes.is_empty() && out.switches.0 + out.switches.1 > 0,
                "classifier refits and an AC/SM switch",
            ),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "run lacks {want}: {probes} lookups, {} saturated minutes, {escalations} escalations, \
                 {scale_events} scale events, {} ridden preemptions, {} refits, switches {:?}",
                out.saturated_minutes,
                out.fleet.preemptions_ridden,
                out.retrain_minutes.len(),
                out.switches
            ))
        }
    }

    /// Whether [`Workload::obs_config`] is the full workload.
    pub fn obs_is_full(self) -> bool {
        self != Workload::TwitterAc
    }
}

/// The s62 trace: 260 diurnal minutes scaled ×40 (~950k jobs).
fn twitter_trace() -> Trace {
    twitter_like(TRACE_SEED, 260).scale(40.0)
}

/// The s62 configuration over `trace`: Argus on 256×A100 with the LSH
/// retrieval plane and the classifier frozen after its initial fit.
fn twitter_ac(seed: u64, trace: Trace) -> RunConfig {
    let mut c = RunConfig::new(Policy::Argus, trace)
        .with_seed(seed)
        .with_workers(256)
        .with_lsh_cache()
        .without_retraining();
    c.classifier_train_size = 800;
    c
}

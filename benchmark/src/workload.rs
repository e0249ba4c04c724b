//! The three workloads: which pipeline configuration a sweep runs
//! under, what it warm-starts from, and how much work one run does.

use clientmap_core::PipelineConfig;
use clientmap_faults::{FaultConfig, FaultProfile};

use crate::spec::{FAULT_SEED, RUN_SECONDS, WORKLOADS};

/// What a run's inputs are generated from.
///
/// The world and the fault plan are **not** drawn from `--seed`: how
/// much work a sweep is depends on both, and it swings far outside any
/// bound a regression gate could use — by ±60 % from one world seed to
/// the next (snapshot 9.6 MB at world seed 101, 15.7 MB at 102; the
/// lossy tiny sweep 2.5 s vs 6.7 s), and by 6 % in `snapshot_bytes`
/// and 15 % in `sweep_s` from one fault seed to the next. So both are
/// constants of the benchmark, like a fixed database, and the seed
/// draws what is replayed against it: the query trace.
/// `--world-seed` lets a human check a claim on another world (the
/// fault plan mixes the world seed in, so it moves too); its numbers
/// are not comparable with the committed ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inputs {
    /// `--seed`: the query trace.
    pub seed: u64,
    /// `--world-seed`: the generated world and the fault plan.
    pub world_seed: u64,
    /// `--smoke`: tiny worlds, K = 1.
    pub smoke: bool,
}

/// One workload. Every workload makes the same two measurements — K
/// direct sweeps, then a resident service re-sweeping S times under a
/// closed-loop query client — under a different sweep regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exhaustive cold sweeps, 2 threads; the service starts cold and
    /// then re-sweeps with a zero plan.
    ColdSweep,
    /// Cold sweeps of the tiny world under the lossy fault profile.
    LossySweep,
    /// Clustered warm sweeps; the long service phase.
    ServeMixed,
}

/// How much work one run does: fixed counts, so two commits given the
/// same `--seconds` do identical work and the byte metrics repeat
/// exactly. The counts are what fits `--seconds` on the 2-core
/// reference host (see README, "Run length").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Set-up rounds; `setup_s` is their median.
    pub setup_rounds: u32,
    /// K: timed direct sweeps.
    pub sweep_iters: u32,
    /// S: generations the service publishes.
    pub service_sweeps: u32,
    /// W: the generation whose publication opens the timed window.
    pub warm_generations: u32,
}

impl Workload {
    /// Every workload, in the order the set runs them.
    pub const ALL: [Workload; 3] = [
        Workload::ColdSweep,
        Workload::LossySweep,
        Workload::ServeMixed,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].0
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The configuration of the reference sweep made in set-up:
    /// exhaustive, cold, no expiry. Its snapshot is the 1-thread
    /// oracle for cold workloads and the prior for warm ones. Smoke
    /// runs shrink every world to the tiny preset and probe from three
    /// PoPs only.
    pub fn base_config(self, inputs: Inputs) -> PipelineConfig {
        let mut cfg = match self {
            Workload::LossySweep => PipelineConfig {
                faults: FaultConfig::profile(FaultProfile::Lossy, FAULT_SEED),
                ..PipelineConfig::tiny(inputs.world_seed)
            },
            _ if inputs.smoke => PipelineConfig::tiny(inputs.world_seed),
            _ => PipelineConfig::small(inputs.world_seed),
        };
        if inputs.smoke {
            cfg.probe.max_pops = Some(3);
        }
        cfg
    }

    /// The configuration every timed sweep — direct or inside the
    /// service — runs under.
    pub fn sweep_config(self, inputs: Inputs) -> PipelineConfig {
        let mut cfg = self.base_config(inputs);
        match self {
            Workload::ColdSweep | Workload::LossySweep => {}
            Workload::ServeMixed => {
                cfg.probe.expiry_budget = 1.0;
                cfg.probe.clustered_probing = true;
            }
        }
        cfg
    }

    /// Whether direct sweeps warm-start from the reference snapshot.
    pub fn direct_uses_prior(self) -> bool {
        self == Workload::ServeMixed
    }

    /// Whether the service's first sweep warm-starts from the
    /// reference snapshot. Only `cold_sweep` starts its service cold;
    /// `lossy_sweep` re-sweeps under faults from a prior so its
    /// generations are not 2.5 s apart.
    pub fn service_uses_prior(self) -> bool {
        self != Workload::ColdSweep
    }

    /// `par_map` workers of a direct sweep. The service's sweep thread
    /// always runs 1 (`CLIENTMAP_THREADS=1`, set by the harness): with
    /// the connection thread and the client that is 2 busy threads.
    pub fn sweep_threads(self) -> usize {
        match self {
            Workload::ColdSweep => 2,
            _ => 1,
        }
    }

    /// Event-log compaction cadence of the service.
    pub fn compact_every(self) -> u32 {
        match self {
            Workload::ServeMixed => 4,
            _ => 0,
        }
    }

    /// The work of one run measuring for `seconds`.
    pub fn plan(self, seconds: u32, smoke: bool) -> Plan {
        if smoke {
            return Plan {
                setup_rounds: 1,
                sweep_iters: 1,
                service_sweeps: 3,
                warm_generations: 1,
            };
        }
        // (K, S) at RUN_SECONDS; see README for the per-unit times
        // they come from.
        let (k, s) = match self {
            Workload::ColdSweep => (8, 14),
            Workload::LossySweep => (6, 14),
            Workload::ServeMixed => (6, 14),
        };
        let scale = |n: u32, floor: u32| (n * seconds).div_ceil(RUN_SECONDS).max(floor);
        Plan {
            setup_rounds: 3,
            sweep_iters: scale(k, 3),
            service_sweeps: scale(s, 4),
            warm_generations: 2,
        }
    }

    /// The work of one traced run. It reports no bounded metric, so it
    /// spends its time on breadth: one set-up round and fewer
    /// iterations of each of many things.
    pub fn traced_plan(self, seconds: u32, smoke: bool) -> Plan {
        let full = self.plan(seconds, smoke);
        if smoke {
            return full;
        }
        Plan {
            setup_rounds: 1,
            sweep_iters: (full.sweep_iters * 3 / 8).max(2),
            service_sweeps: (full.service_sweeps * 2 / 3).max(4),
            ..full
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_plans_are_smaller() {
        for w in Workload::ALL {
            let (full, traced) = (
                w.plan(RUN_SECONDS, false),
                w.traced_plan(RUN_SECONDS, false),
            );
            assert!(traced.sweep_iters >= 2 && traced.sweep_iters < full.sweep_iters);
            assert!(traced.service_sweeps > traced.warm_generations + 1);
            assert!(traced.service_sweeps < full.service_sweeps);
            assert_eq!(w.traced_plan(RUN_SECONDS, true), w.plan(RUN_SECONDS, true));
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("warm_resweep"), None);
    }

    #[test]
    fn plans_are_a_pure_function_of_seconds() {
        for w in Workload::ALL {
            let p = w.plan(RUN_SECONDS, false);
            assert_eq!(p, w.plan(RUN_SECONDS, false));
            assert!(p.sweep_iters >= 3 && p.service_sweeps > p.warm_generations + 1);
            let half = w.plan(RUN_SECONDS / 2, false);
            assert!(half.sweep_iters <= p.sweep_iters && half.service_sweeps <= p.service_sweeps);
            let long = w.plan(RUN_SECONDS * 3, false);
            assert!(long.sweep_iters >= 2 * p.sweep_iters);
        }
    }

    #[test]
    fn regimes_differ_where_the_issue_says() {
        let inputs = Inputs {
            seed: 5,
            world_seed: 1,
            smoke: false,
        };
        let cold = Workload::ColdSweep.sweep_config(inputs);
        let lossy = Workload::LossySweep.sweep_config(inputs);
        let serve = Workload::ServeMixed.sweep_config(inputs);
        // `--seed` reaches neither the world nor the fault plan.
        assert_eq!(lossy.world.seed, 1);
        assert_eq!(cold.world.seed, 1);
        let other_seed = Workload::LossySweep.sweep_config(Inputs { seed: 6, ..inputs });
        assert_eq!(other_seed.faults, lossy.faults);
        assert_eq!(lossy.faults.fault_seed, FAULT_SEED);
        assert_eq!(cold.probe.expiry_budget, 0.0);
        assert!(serve.probe.clustered_probing && serve.probe.expiry_budget == 1.0);
        assert_eq!(lossy.faults.profile, FaultProfile::Lossy);
        assert!(lossy.world.num_ases < cold.world.num_ases);
        assert_eq!(cold.faults, FaultConfig::default());
    }
}

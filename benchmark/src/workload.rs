//! The benchmark's workloads, reclaimers and reclaimer configuration.

use smr_common::SmrConfig;
use smr_harness::{KeyDist, StopCondition, WorkloadMix, WorkloadSpec};
use std::time::Duration;

/// Threads every workload runs, in total (workers plus the stalled reader).
pub const THREADS: usize = 2;

/// Rounds of every workload. Most of the trial-to-trial spread comes from
/// the fresh set itself (where its nodes land), so a run is many short
/// rounds.
const ROUNDS: usize = 15;

/// Untimed ops each worker runs after prefill, so the node pools and caches
/// are warm when the timed window opens. Counted in `setup_s`.
pub const WARMUP_OPS: u64 = 20_000;

/// The set under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// `conc_ds::DgtTree`, the paper's lock-based external BST.
    DgtTree,
    /// `conc_ds::LazyList`, the paper's lazy list.
    LazyList,
    /// `conc_ds::HarrisList`, the only structure with the lookup memo.
    HarrisList,
}

impl Structure {
    /// Label used in the benchmark's header line.
    pub fn label(self) -> &'static str {
        match self {
            Structure::DgtTree => "dgt-tree",
            Structure::LazyList => "lazy-list",
            Structure::HarrisList => "harris-list",
        }
    }
}

/// One workload: the set, its inputs and the thread layout.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// The set under test.
    pub structure: Structure,
    /// Operation mix.
    pub mix: WorkloadMix,
    /// Keys are drawn from `1..=key_range`.
    pub key_range: u64,
    /// Keys inserted before the run.
    pub prefill: u64,
    /// Key distribution.
    pub dist: KeyDist,
    /// Closed-loop client threads.
    pub workers: usize,
    /// One more thread that holds a read phase for the whole timed window.
    pub stalled_reader: bool,
    /// Rounds per run; each round builds a fresh set for every reclaimer.
    pub rounds: usize,
}

impl Workload {
    /// The op-stream description handed to `smr_harness::OpGenerator`.
    pub fn spec(&self, seed: u64, window: Duration) -> WorkloadSpec {
        WorkloadSpec::new(
            self.mix,
            self.key_range,
            self.workers,
            StopCondition::Duration(window),
        )
        .with_prefill(self.prefill)
        .with_seed(seed)
        .with_key_dist(self.dist)
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        workloads().into_iter().find(|w| w.name == name)
    }
}

/// The four workloads. Why each exists is recorded in `BENCHMARK.json` and
/// the benchmark's README.
///
/// Every set is cache-resident: on a small shared host, a tree far larger
/// than the caches ran at the host's memory speed more than the
/// reclaimers' (its runs spread by up to 30%).
pub fn workloads() -> Vec<Workload> {
    vec![
        // Read-mostly over a tree: traversal dominates and reclamation
        // touches ~5% of ops, so the reclamation layers should not move
        // here.
        Workload {
            name: "tree-read",
            structure: Structure::DgtTree,
            mix: WorkloadMix::READ_HEAVY,
            key_range: 16_384,
            prefill: 8_192,
            dist: KeyDist::Uniform,
            workers: 2,
            stalled_reader: false,
            rounds: ROUNDS,
        },
        // Update-only over a cache-resident list: half of all ops allocate
        // or retire, so recycle, limbo and ping do most of the work.
        Workload {
            name: "list-churn",
            structure: Structure::LazyList,
            mix: WorkloadMix::UPDATE_HEAVY,
            key_range: 1_000,
            prefill: 500,
            dist: KeyDist::Uniform,
            workers: 2,
            stalled_reader: false,
            rounds: ROUNDS,
        },
        // list-churn with one worker and one reader stalled in a read
        // phase: the paper's bounded-garbage experiment (E2).
        Workload {
            name: "list-stall",
            structure: Structure::LazyList,
            mix: WorkloadMix::UPDATE_HEAVY,
            key_range: 1_000,
            prefill: 500,
            dist: KeyDist::Uniform,
            workers: 1,
            stalled_reader: true,
            rounds: ROUNDS,
        },
        // Skewed read-mostly Harris list: the only workload that runs the
        // lookup memo, with hot-key contention at the list head.
        Workload {
            name: "harris-hot",
            structure: Structure::HarrisList,
            mix: WorkloadMix::READ_HEAVY,
            key_range: 2_000,
            prefill: 1_000,
            dist: KeyDist::Zipf(0.99),
            workers: 2,
            stalled_reader: false,
            rounds: ROUNDS,
        },
    ]
}

/// The reclaimers the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// NBR+ (`nbr::NbrPlus`).
    Nbrp,
    /// DEBRA (`smr_baselines::Debra`).
    Debra,
    /// Hazard pointers (`smr_baselines::HazardPointers`).
    Hp,
    /// The leaky reclaimer (`smr_baselines::Leaky`): the per-layer reference.
    None,
}

impl Scheme {
    /// The paper's three compared reclaimers, in report order.
    pub const COMPARED: [Scheme; 3] = [Scheme::Nbrp, Scheme::Debra, Scheme::Hp];

    /// Metric-name prefix.
    pub fn key(self) -> &'static str {
        match self {
            Scheme::Nbrp => "nbrp",
            Scheme::Debra => "debra",
            Scheme::Hp => "hp",
            Scheme::None => "none",
        }
    }
}

/// The reclaimer configuration of every trial: the `SmrConfig` default with
/// the watermarks and simulated signal cost the `throughput` bench uses.
pub fn smr_config() -> SmrConfig {
    SmrConfig::default()
        .with_max_threads(THREADS + 4)
        .with_watermarks(1024, 256)
        .with_signal_cost_ns(2_000)
}

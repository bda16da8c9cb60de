//! The benchmark's workloads. All run the paper's network — a 16-ary
//! 2-cube (256 nodes), 3 VCs, 8-flit buffers, 16-flit packets, Disha
//! recovery — under open-loop Bernoulli uniform-random sources, with at
//! most two threads busy at once. Why each exists is in `BENCHMARK.json`
//! and `plan.json`.

use experiments::{NetPreset, Scale};
use stcc::{Scheme, SimConfig};
use traffic::{Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig};

/// One simulation, repeated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Single {
    /// Offered load, packets/node/cycle.
    pub rate: f64,
    /// Step-loop shard count.
    pub shards: usize,
    /// Simulated cycles per repetition.
    pub cycles: u64,
    /// Warm-up cycles excluded from the simulated metrics.
    pub warmup: u64,
    /// Plausible measured-window throughput, flits/node/cycle: a result
    /// outside it is wrong, however fast.
    pub accepted: (f64, f64),
}

/// A Figure-3-style sweep through the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sweep {
    /// Worker-pool size.
    pub jobs: usize,
    /// Checkpoint cadence in cycles (`STCC_CKPT_EVERY`).
    pub ckpt_every: u64,
    /// Highest offered load whose points feed the latency metrics: the
    /// knee. Past it the open-loop sources' backlog grows for the whole
    /// run, so a point's latency tail depends on its seed's few recovery
    /// episodes rather than on the program; the throughput metric and
    /// `saturated-tune-s2` cover that regime.
    pub latency_max_rate: f64,
}

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// One simulation with the self-tuned controller.
    Single(Single),
    /// The sweep.
    Sweep(Sweep),
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// What it runs.
    pub kind: Kind,
}

/// Every workload.
pub const ALL: &[Def] = &[
    Def {
        name: "light-tune",
        kind: Kind::Single(Single {
            rate: 0.005,
            shards: 1,
            cycles: 40_000,
            warmup: 8_000,
            accepted: (0.076, 0.084),
        }),
    },
    Def {
        name: "saturated-tune-s2",
        kind: Kind::Single(Single {
            rate: 0.028,
            shards: 2,
            cycles: 100_000,
            warmup: 10_000,
            accepted: (0.18, 0.32),
        }),
    },
    Def {
        name: "sweep-j2",
        kind: Kind::Sweep(Sweep {
            jobs: 2,
            ckpt_every: 6_000,
            latency_max_rate: 0.014,
        }),
    },
];

/// The workload called `name`.
#[must_use]
pub fn by_name(name: &str) -> Option<Def> {
    ALL.iter().copied().find(|d| d.name == name)
}

/// The paper network with Disha recovery.
#[must_use]
pub fn paper_net() -> NetConfig {
    NetConfig::paper(DeadlockMode::PAPER_RECOVERY)
}

/// The self-tuned scheme with the paper's Table-1 parameters and a
/// side-band matched to the 16-ary torus.
#[must_use]
pub fn tune() -> Scheme {
    NetPreset::Paper.tuned()
}

impl Single {
    /// The simulation for `seed`.
    #[must_use]
    pub fn config(&self, seed: u64) -> SimConfig {
        SimConfig {
            net: paper_net(),
            workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(self.rate)),
            scheme: tune(),
            cycles: self.cycles,
            warmup: self.warmup,
            seed,
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Index in sweep order (also the journal index).
    pub index: usize,
    /// `base` or `tune`.
    pub scheme: &'static str,
    /// Offered load.
    pub rate: f64,
    /// The simulation.
    pub cfg: SimConfig,
}

impl Point {
    /// Progress/error label.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{} @ {}", self.scheme, self.rate)
    }
}

impl Sweep {
    /// Base and Tune at the six smoke-scale rates (0.001 to 0.1), smoke
    /// length (24 000 cycles, 4 000 warm-up); point `i` uses seed
    /// `seed + i`.
    #[must_use]
    pub fn points(&self, seed: u64) -> Vec<Point> {
        let mut points = Vec::new();
        for (scheme_name, scheme) in [("base", Scheme::Base), ("tune", tune())] {
            for rate in experiments::sweep_rates_for(Scale::Smoke) {
                let index = points.len();
                let cfg = experiments::steady_config(
                    paper_net(),
                    scheme.clone(),
                    Pattern::UniformRandom,
                    rate,
                    Scale::Smoke,
                    seed.wrapping_add(index as u64),
                );
                points.push(Point {
                    index,
                    scheme: scheme_name,
                    rate,
                    cfg,
                });
            }
        }
        points
    }
}

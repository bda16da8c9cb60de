//! The traced run: a replica of `stcc::Simulation`'s step loop built from
//! the layers' public entry points, so each layer can be timed from
//! outside.
//!
//! * `Network::cycle` is one span per cycle.
//! * The controller is wrapped: `on_cycle` (once per cycle, side-band
//!   included) is a span; `allow_injection`, a sub-100 ns call made
//!   millions of times, is only *sampled* — every [`ALLOW_STRIDE`]-th call
//!   is timed and the mean scales to all calls.
//! * Traffic polls are counted, never timed in place: the poll sequence
//!   does not depend on network state (every node, every cycle), so
//!   [`replay_polls`] re-runs exactly that sequence under one timer.
//! * Delivery drain and statistics are one span per cycle.
//!
//! Spans stay in memory (preallocated per cycle) and are written out after
//! the run. The replica's simulated summary must equal the real
//! `Simulation`'s exactly; the benchmark checks that on every run.

use simstats::{jain_fairness, LatencyStats, RunSummary};
use stcc::{Control, SimConfig};
use std::hint::black_box;
use std::time::Instant;
use traffic::WorkloadRunner;
use wormsim::{CongestionControl, Counters, Network};

/// A node index (`kncube::NodeId`).
type NodeId = usize;

/// One in this many injection-gate calls is timed.
pub const ALLOW_STRIDE: u64 = 16;

/// Nanoseconds elapsed since `t`, saturated into a `u32` span slot.
fn ns_since(t: Instant) -> u32 {
    u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// Folds one generated packet into an order-sensitive digest, so the
/// replayed poll sequence can be proven identical to the traced one.
fn mix(h: u64, now: u64, node: NodeId, dst: NodeId) -> u64 {
    let v = now.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((node as u64) << 32 | dst as u64);
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The median cost of one `Instant::now()` read, subtracted from every
/// sampled `allow_injection` span.
#[must_use]
pub fn timer_cost_ns() -> f64 {
    let mut v: Vec<f64> = (0..4_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Per-cycle spans, in nanoseconds.
#[derive(Debug, Default)]
pub struct Spans {
    /// `Network::cycle`, nested layers included.
    pub cycle: Vec<u32>,
    /// `CongestionControl::on_cycle`, nested in `cycle`.
    pub on_cycle: Vec<u32>,
    /// `Network::drain_deliveries` plus the latency statistics.
    pub drain: Vec<u32>,
}

/// What the traffic layer produced while traced.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Polls {
    /// Source polls.
    pub polls: u64,
    /// Polls that generated a packet.
    pub generated: u64,
    /// Digest of every generated `(cycle, node, destination)`.
    pub digest: u64,
}

/// Injection-gate tallies.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gate {
    /// `allow_injection` calls.
    pub calls: u64,
    /// Calls that refused injection.
    pub denied: u64,
    /// Calls that were timed.
    pub samples: u64,
    /// Summed wall time of the timed calls.
    pub sample_ns: u64,
}

/// Everything a traced run counts and times.
#[derive(Debug, Default)]
pub struct Tallies {
    /// Per-cycle spans.
    pub spans: Spans,
    /// Traffic tallies.
    pub polls: Polls,
    /// Injection-gate tallies.
    pub gate: Gate,
    /// Delivery records drained.
    pub records: u64,
}

impl Gate {
    /// Estimated total time of every call: the mean timed call, less one
    /// timer read (`timer_ns`), times the call count.
    #[must_use]
    pub fn estimate_ns(&self, timer_ns: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let mean = self.sample_ns as f64 / self.samples as f64;
        (mean - timer_ns).max(0.0) * self.calls as f64
    }
}

/// The controller, with its hooks timed as described in the module docs.
struct TimedCtl<'a> {
    inner: &'a mut Control,
    gate: &'a mut Gate,
    on_cycle_ns: u32,
}

impl CongestionControl for TimedCtl<'_> {
    fn on_cycle(&mut self, now: u64, net: &Network) {
        let t = Instant::now();
        CongestionControl::on_cycle(self.inner, now, net);
        self.on_cycle_ns = ns_since(t);
    }

    fn allow_injection(&mut self, now: u64, node: NodeId, dst: NodeId, net: &Network) -> bool {
        self.gate.calls += 1;
        let ok = if self.gate.calls.is_multiple_of(ALLOW_STRIDE) {
            let t = Instant::now();
            let ok = self.inner.allow_injection(now, node, dst, net);
            self.gate.sample_ns += u64::from(ns_since(t));
            self.gate.samples += 1;
            ok
        } else {
            self.inner.allow_injection(now, node, dst, net)
        };
        self.gate.denied += u64::from(!ok);
        ok
    }

    fn throttled_recently(&self) -> bool {
        self.inner.throttled_recently()
    }

    fn next_wakeup(&self, now: u64) -> u64 {
        self.inner.next_wakeup(now)
    }

    fn name(&self) -> &'static str {
        CongestionControl::name(self.inner)
    }
}

/// The traced replica of one simulation.
///
/// Bernoulli sources veto quiescence fast-forward (polling consumes random
/// state), so stepping every cycle is what `Simulation::run_to_end` does
/// for every workload of this benchmark.
#[derive(Debug)]
pub struct Harness {
    cfg: SimConfig,
    net: Network,
    runner: WorkloadRunner,
    ctl: Control,
    net_latency: LatencyStats,
    total_latency: LatencyStats,
    base: Option<Counters>,
    src_delivered: Vec<u64>,
    /// Exact network latencies of the measured window (the summary's
    /// histogram only resolves powers of two).
    pub net_samples: Vec<u64>,
    /// Exact end-to-end latencies of the measured window.
    pub total_samples: Vec<u64>,
    /// What the run counted and timed.
    pub tallies: Tallies,
}

impl Harness {
    /// Builds the network, route tables, controller and (for `shards > 1`)
    /// the shard pool, with the network's phase timing on.
    ///
    /// # Errors
    ///
    /// Returns the configuration error as text.
    pub fn new(cfg: SimConfig, shards: usize) -> Result<Harness, String> {
        let mut net = Network::new(cfg.net.clone()).map_err(|e| e.to_string())?;
        net.set_shards(shards);
        net.set_phase_stats(true);
        let nodes = net.torus().node_count();
        let runner =
            WorkloadRunner::new(&cfg.workload, nodes, cfg.seed).map_err(|e| e.to_string())?;
        let ctl = cfg.scheme.build();
        let cycles = usize::try_from(cfg.cycles).map_err(|e| e.to_string())?;
        Ok(Harness {
            net,
            runner,
            ctl,
            net_latency: LatencyStats::new(),
            total_latency: LatencyStats::new(),
            base: None,
            src_delivered: vec![0; nodes],
            net_samples: Vec::new(),
            total_samples: Vec::new(),
            tallies: Tallies {
                spans: Spans {
                    cycle: Vec::with_capacity(cycles),
                    on_cycle: Vec::with_capacity(cycles),
                    drain: Vec::with_capacity(cycles),
                },
                ..Tallies::default()
            },
            cfg,
        })
    }

    /// The network.
    #[must_use]
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The controller.
    #[must_use]
    pub fn controller(&self) -> &Control {
        &self.ctl
    }

    /// Whether the configured run length has been simulated.
    #[must_use]
    pub fn done(&self) -> bool {
        self.net.now() >= self.cfg.cycles
    }

    /// One cycle, as `Simulation::step` runs it.
    pub fn step(&mut self) {
        let now = self.net.now();
        let warmup = self.cfg.warmup;
        if self.base.is_none() && now >= warmup {
            self.base = Some(*self.net.counters());
        }
        let runner = &mut self.runner;
        let tallies = &mut self.tallies;
        let polls = &mut tallies.polls;
        let mut source = |t: u64, node: NodeId| {
            let got = runner.poll(t, node);
            polls.polls += 1;
            if let Some(dst) = got {
                polls.generated += 1;
                polls.digest = mix(polls.digest, t, node, dst);
            }
            got
        };
        let mut ctl = TimedCtl {
            inner: &mut self.ctl,
            gate: &mut tallies.gate,
            on_cycle_ns: 0,
        };
        let t0 = Instant::now();
        self.net.cycle(&mut source, &mut ctl);
        let on_cycle_ns = ctl.on_cycle_ns;
        tallies.spans.cycle.push(ns_since(t0));
        tallies.spans.on_cycle.push(on_cycle_ns);
        let t1 = Instant::now();
        for rec in self.net.drain_deliveries() {
            tallies.records += 1;
            if rec.generated_at >= warmup {
                self.net_latency.record(rec.network_latency());
                self.total_latency.record(rec.total_latency());
                self.net_samples.push(rec.network_latency());
                self.total_samples.push(rec.total_latency());
                self.src_delivered[rec.src] += 1;
            }
        }
        tallies.spans.drain.push(ns_since(t1));
    }

    /// The measured-window summary, computed as `Simulation::summary`
    /// computes it; `None` before warm-up.
    #[must_use]
    pub fn summary(&self) -> Option<RunSummary> {
        let base = self.base?;
        let c = self.net.counters();
        let now = self.net.now();
        let warmup = self.cfg.warmup;
        Some(RunSummary {
            measured_cycles: now - warmup,
            nodes: self.net.torus().node_count(),
            packet_len: self.cfg.net.packet_len,
            offered_rate: self.cfg.workload.mean_offered_rate(warmup, now),
            delivered_flits: c.delivered_flits - base.delivered_flits,
            delivered_packets: c.delivered_packets - base.delivered_packets,
            network_latency: self.net_latency.clone(),
            total_latency: self.total_latency.clone(),
            recovered_packets: c.recovered_packets - base.recovered_packets,
            throttled_injections: c.throttled_injections - base.throttled_injections,
            fairness: jain_fairness(&self.src_delivered),
        })
    }
}

/// The poll sequence of a traced run, re-run under one timer.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Wall time of the whole replay.
    pub ns: u64,
    /// What it produced (must equal the traced run's [`Polls`]).
    pub polls: Polls,
}

/// Replays the polls of `cycles` simulated cycles of `cfg` on `nodes`
/// nodes: every node, every cycle, in the order `Network::cycle` polls.
///
/// # Panics
///
/// Panics if the workload is invalid, which the traced run has already
/// ruled out.
#[must_use]
pub fn replay_polls(cfg: &SimConfig, nodes: usize, cycles: u64) -> Replay {
    let mut runner =
        WorkloadRunner::new(&cfg.workload, nodes, cfg.seed).expect("validated by the traced run");
    let mut polls = Polls::default();
    let t = Instant::now();
    for now in 0..cycles {
        for node in 0..nodes {
            if let Some(dst) = black_box(runner.poll(now, node)) {
                polls.generated += 1;
                polls.digest = mix(polls.digest, now, node, dst);
            }
        }
    }
    let ns = t.elapsed().as_nanos() as u64;
    polls.polls = cycles * nodes as u64;
    Replay { ns, polls }
}

/// The median-time replay of three (they are identical but for timing).
#[must_use]
pub fn replay_median(cfg: &SimConfig, nodes: usize, cycles: u64) -> Replay {
    let mut runs: Vec<Replay> = (0..3).map(|_| replay_polls(cfg, nodes, cycles)).collect();
    runs.sort_by_key(|r| r.ns);
    runs[1]
}

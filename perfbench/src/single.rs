//! `light-tune` and `saturated-tune-s2`: one `Simulation`, repeated.
//!
//! The untraced part builds and runs the real `Simulation` (set-up, then
//! `run_to_end`) as many times as fit in the measuring time, and reports
//! medians. The traced part runs the replica of [`crate::trace`] once,
//! then the checks run outside every timed region.

use crate::checks::Checks;
use crate::report::Values;
use crate::stats::{
    median, percentile_sorted, self_time, supports, tail_percentile, unattributed_ns, Layer,
};
use crate::trace::{replay_median, timer_cost_ns, Harness, Replay, Spans, Tallies};
use crate::workloads::Single;
use crate::{host, Outcome};
use simstats::RunSummary;
use stcc::{Controller, SimConfig, Simulation};
use std::time::{Duration, Instant};
use wormsim::PhaseStats;

/// Standalone set-ups timed before each measured run and after the last.
const SETUP_TRIALS: usize = 8;

/// Share of the measuring time that interleaved traced runs may take.
const TRACED_SHARE: f64 = 0.25;

/// Cycles of the shard-count agreement check that opens every run.
const PREFIX: u64 = 8_000;

/// Times `SETUP_TRIALS` set-ups into `out`, in seconds.
fn time_setups(cfg: &SimConfig, shards: usize, out: &mut Vec<f64>) {
    for _ in 0..SETUP_TRIALS {
        let t = Instant::now();
        let sim = build(cfg, shards);
        out.push(t.elapsed().as_secs_f64());
        drop(sim);
    }
}

/// One traced run: its loop time and set-up time (ns), and its harness.
fn traced_run(cfg: &SimConfig, shards: usize) -> (f64, f64, Harness) {
    let t = Instant::now();
    let mut h = Harness::new(cfg.clone(), shards).expect("workload configs are valid");
    let setup_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    while !h.done() {
        h.step();
    }
    (t.elapsed().as_nanos() as f64, setup_ns, h)
}

fn build(cfg: &SimConfig, shards: usize) -> Simulation {
    let mut sim = Simulation::new(cfg.clone()).expect("workload configs are valid");
    sim.set_shards(shards);
    sim
}

/// Runs `spec` for `seed`, measuring for about `seconds`.
#[must_use]
pub fn run(spec: &Single, seed: u64, seconds: f64) -> Outcome {
    let cfg = spec.config(seed);
    let mut checks = Checks::default();
    let mut e2e = Values::default();
    let mut layers = Values::default();

    // Two fresh runs of the seed, at the workload's shard count and at
    // one shard, must reach byte-identical states; they also warm the
    // caches before anything is timed.
    let mut a = build(&cfg, spec.shards);
    let mut b = build(&cfg, 1);
    for _ in 0..PREFIX {
        a.step();
        b.step();
    }
    checks.check(
        &format!(
            "{} shards and 1 shard reach the same state after {PREFIX} cycles",
            spec.shards
        ),
        a.checkpoint() == b.checkpoint(),
    );
    drop((a, b));

    // Measured runs: whole repetitions while they fit in `seconds`, with
    // set-up (network and route tables, controller, shard pool) timed
    // alone between them so its samples span the whole run. Traced runs
    // are interleaved while they take under `TRACED_SHARE` of the time and
    // a traced and an untraced run still fit, so both kinds see the same
    // host; a workload too long for that is traced once afterwards.
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut walls = Vec::new();
    let mut summaries = Vec::new();
    let mut traced = Vec::new();
    let mut traced_time = Duration::ZERO;
    let mut peak_rss = f64::NAN;
    let mut sim;
    loop {
        time_setups(&cfg, spec.shards, &mut setup_s);
        let t = Instant::now();
        sim = build(&cfg, spec.shards);
        setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        sim.run_to_end();
        let wall = t.elapsed();
        walls.push(wall.as_secs_f64());
        summaries.push(sim.summary().expect("run is past warm-up"));
        if walls.len() == 1 {
            // Before any traced run allocates; every repetition does the
            // same work, so the first sets the high-water mark.
            peak_rss = host::peak_rss_mib().unwrap_or(f64::NAN);
        }
        let elapsed = start.elapsed();
        if traced_time < elapsed.mul_f64(TRACED_SHARE) && elapsed + wall * 3 < budget {
            let t = Instant::now();
            traced.push(traced_run(&cfg, spec.shards));
            traced_time += t.elapsed();
        }
        if start.elapsed() + wall / 2 >= budget {
            break;
        }
    }
    time_setups(&cfg, spec.shards, &mut setup_s);
    let untraced_wall = median(&walls);
    let summary = summaries[0].clone();
    checks.check(
        "every repetition gives the same simulated summary",
        summaries.iter().all(|s| *s == summary),
    );
    if traced.is_empty() {
        traced.push(traced_run(&cfg, spec.shards));
    }

    // The traced run with the median loop time is reported, so the
    // overhead compares a median with a median.
    let traced_runs = traced.len();
    checks.check(
        "every traced repetition gives the same simulated summary",
        traced
            .iter()
            .all(|r| r.2.summary() == traced[0].2.summary()),
    );
    traced.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (loop_ns, setup_ns, h) = traced.swap_remove(traced_runs / 2);
    drop(traced);
    let nodes = h.net().torus().node_count();
    let replay = replay_median(&cfg, nodes, cfg.cycles);
    check_replica(&mut checks, &summary, &h, &replay);

    // End-of-run checks on the real simulation.
    let t = Instant::now();
    let report = sim.audit();
    let audit_ns = t.elapsed().as_nanos() as f64;
    checks.check(
        &format!("end-of-run audit is clean: {report}"),
        report.is_clean(),
    );
    checks.check("traced network audit is clean", h.net().audit().is_clean());
    let c = sim.network().counters();
    checks.equal(
        "generated - delivered = live packets",
        &c.undelivered(),
        &(sim.network().live_packets() as u64),
    );
    let (ser_ns, restore_ns, bytes) = checkpoint_round_trip(&cfg, &sim, &mut checks);

    // Simulated metrics, from the exact per-packet latencies of the
    // replica (its histogram was just checked equal to the real one).
    let accepted = summary.throughput_flits();
    checks.within(
        "accepted flits/node/cycle",
        accepted,
        spec.accepted.0,
        spec.accepted.1,
    );
    let net = sorted(&h.net_samples);
    let total = sorted(&h.total_samples);
    checks.check(
        &format!("{} latency samples support a p99.9", net.len()),
        supports(net.len(), 9_990),
    );
    e2e.set("sim_cycles_per_s", cfg.cycles as f64 / untraced_wall);
    e2e.set("setup_s", median(&setup_s));
    e2e.set("peak_rss_mib", peak_rss);
    e2e.set("accepted_flits_per_node_cycle", accepted);
    e2e.set("net_latency_p50_cycles", percentile_sorted(&net, 5_000));
    e2e.set("net_latency_p999_cycles", percentile_sorted(&net, 9_990));
    e2e.set("total_latency_p99_cycles", percentile_sorted(&total, 9_900));

    // Per-layer metrics.
    let t = &h.tallies;
    let cycle_ns = total_ns(&t.spans.cycle);
    let on_cycle_ns = total_ns(&t.spans.on_cycle);
    let drain_ns = total_ns(&t.spans.drain);
    let allow_ns = t.gate.estimate_ns(timer_cost_ns());
    let traffic_ns = replay.ns as f64;
    let stcc_ns = on_cycle_ns + allow_ns;
    let wormsim_ns = self_time(cycle_ns, &[traffic_ns, stcc_ns]);
    let region = [
        Layer::new("setup", setup_ns),
        Layer::new("traffic", traffic_ns),
        Layer::new("stcc", stcc_ns),
        Layer::new("wormsim", wormsim_ns),
        Layer::new("simstats", drain_ns),
    ];
    let capacity = setup_ns + loop_ns;
    let rest = unattributed_ns(capacity, &region);
    let counters = *h.net().counters();
    let ctl = Controller::counters(h.controller());
    set_traffic(&mut layers, t, traffic_ns);
    set_stcc(&mut layers, t, on_cycle_ns, allow_ns, ctl);
    layers.set("wormsim.cycle_self_ns", wormsim_ns);
    set_cycle_tail(&mut layers, &t.spans.cycle);
    set_network(
        &mut layers,
        &counters,
        h.net().phase_stats().unwrap_or_default(),
    );
    layers.set("simstats.drain_ns", drain_ns);
    layers.set("simstats.records", t.records as f64);
    layers.set("checkpoint.serialize_ns", ser_ns);
    layers.set("checkpoint.restore_ns", restore_ns);
    layers.set("checkpoint.bytes", bytes);
    layers.set("audit.ns", audit_ns);
    layers.set("audit.violations", report.violations.len() as f64);
    let point_s = (setup_ns + loop_ns) / 1e9;
    layers.set("experiments.point_s_p50", point_s);
    layers.set("experiments.point_s_max", point_s);
    layers.set("experiments.pool_idle_s", 0.0);
    layers.set("experiments.parallel_efficiency", 1.0);
    layers.set("experiments.journal_replay_s", 0.0);
    layers.set(
        "trace.overhead_pct",
        100.0 * (loop_ns / 1e9 / untraced_wall - 1.0),
    );
    layers.set("trace.unattributed_pct", 100.0 * rest / capacity);

    Outcome {
        checks,
        e2e,
        layers,
        region: region.to_vec(),
        capacity_ns: capacity,
        notes: vec![
            format!(
                "{} measured runs of {} cycles: {:?} s",
                walls.len(),
                cfg.cycles,
                walls
            ),
            format!("{} set-ups", setup_s.len()),
            format!("{traced_runs} traced runs"),
            latency_note(net.len()),
            format!("{} cycle spans", t.spans.cycle.len()),
        ],
        spans: span_lines(&t.spans),
    }
}

/// The traced replica must reproduce the real run's simulated summary
/// exactly, and the poll replay must reproduce the traced polls.
pub fn check_replica(checks: &mut Checks, real: &RunSummary, h: &Harness, replay: &Replay) {
    checks.equal(
        "traced run reproduces the untraced simulated summary",
        &Some(real),
        &h.summary().as_ref(),
    );
    checks.equal(
        "replayed polls equal the traced polls",
        &h.tallies.polls,
        &replay.polls,
    );
}

/// The latency sample count and the highest percentile it supports.
pub fn latency_note(n: usize) -> String {
    match tail_percentile(n) {
        Some(bp) => format!("{n} latency samples (support up to p{})", bp as f64 / 100.0),
        None => format!("{n} latency samples (too few for any percentile)"),
    }
}

fn sorted(v: &[u64]) -> Vec<f64> {
    let mut s: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    s.sort_by(f64::total_cmp);
    s
}

/// Checkpoint → restore → checkpoint must reproduce the bytes. Returns the
/// median serialize and restore times (ns) and the checkpoint size.
pub fn checkpoint_round_trip(
    cfg: &SimConfig,
    sim: &Simulation,
    checks: &mut Checks,
) -> (f64, f64, f64) {
    let mut ser = Vec::new();
    let mut restore = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        bytes = sim.checkpoint();
        ser.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let back = Simulation::restore(cfg.clone(), None, &bytes);
        restore.push(t.elapsed().as_nanos() as f64);
        match back {
            Ok(back) => checks.check(
                "checkpoint -> restore -> checkpoint is byte-identical",
                back.checkpoint() == bytes,
            ),
            Err(e) => checks.check(&format!("checkpoint restores: {e}"), false),
        }
    }
    (median(&ser), median(&restore), bytes.len() as f64)
}

/// Sum of a span column, in nanoseconds.
#[must_use]
pub fn total_ns(spans: &[u32]) -> f64 {
    spans.iter().map(|&v| f64::from(v)).sum()
}

/// The `traffic.*` metrics.
pub fn set_traffic(layers: &mut Values, t: &Tallies, traffic_ns: f64) {
    layers.set("traffic.polls", t.polls.polls as f64);
    layers.set("traffic.poll_ns", traffic_ns);
    layers.set(
        "traffic.useful_poll_ratio",
        t.polls.generated as f64 / t.polls.polls as f64,
    );
}

/// The `stcc.*` metrics.
pub fn set_stcc(
    layers: &mut Values,
    t: &Tallies,
    on_cycle_ns: f64,
    allow_ns: f64,
    ctl: stcc::ControllerCounters,
) {
    layers.set("stcc.on_cycle_calls", t.spans.on_cycle.len() as f64);
    layers.set("stcc.on_cycle_ns", on_cycle_ns);
    layers.set("stcc.allow_calls", t.gate.calls as f64);
    layers.set("stcc.allow_ns", allow_ns);
    layers.set(
        "stcc.throttle_ratio",
        if t.gate.calls == 0 {
            0.0
        } else {
            t.gate.denied as f64 / t.gate.calls as f64
        },
    );
    layers.set("stcc.decisions", ctl.decisions as f64);
    layers.set("stcc.cuts", ctl.cuts as f64);
    layers.set("stcc.raises", ctl.raises as f64);
}

/// `wormsim.cycle_us_p50`/`_p99` over every `Network::cycle` span.
pub fn set_cycle_tail(layers: &mut Values, cycle_ns: &[u32]) {
    let mut us: Vec<f64> = cycle_ns.iter().map(|&v| f64::from(v) / 1e3).collect();
    us.sort_by(f64::total_cmp);
    layers.set("wormsim.cycle_us_p50", percentile_sorted(&us, 5_000));
    layers.set("wormsim.cycle_us_p99", percentile_sorted(&us, 9_900));
}

/// Network counters and the shard phase split.
pub fn set_network(layers: &mut Values, c: &wormsim::Counters, phase: PhaseStats) {
    layers.set("wormsim.recovered_packets", c.recovered_packets as f64);
    layers.set("wormsim.refused_generations", c.refused_generations as f64);
    let v = c.stage_cycles();
    layers.set("wormsim.visits.inject", v.inject as f64);
    layers.set("wormsim.visits.route", v.route as f64);
    layers.set("wormsim.visits.starvation", v.starvation as f64);
    layers.set("wormsim.visits.switch", v.switch as f64);
    layers.set("wormsim.visits.drain", v.drain as f64);
    layers.set("shard.decide_ns", phase.decide_ns as f64);
    layers.set("shard.apply_ns", phase.apply_ns as f64);
    layers.set("shard.barrier_ns", phase.barrier_ns as f64);
    let phases = (phase.decide_ns + phase.apply_ns + phase.barrier_ns) as f64;
    layers.set(
        "shard.barrier_share",
        if phases > 0.0 {
            phase.barrier_ns as f64 / phases
        } else {
            0.0
        },
    );
}

/// The per-cycle spans as tab-separated lines.
fn span_lines(spans: &Spans) -> Vec<String> {
    let mut out = vec!["cycle\tcycle_ns\ton_cycle_ns\tdrain_ns".to_owned()];
    for (i, ((c, o), d)) in spans
        .cycle
        .iter()
        .zip(&spans.on_cycle)
        .zip(&spans.drain)
        .enumerate()
    {
        out.push(format!("{i}\t{c}\t{o}\t{d}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::replay_polls;
    use traffic::{Pattern, Process, Workload};
    use wormsim::{DeadlockMode, NetConfig};

    fn small(rate: f64) -> SimConfig {
        SimConfig {
            net: NetConfig::small(DeadlockMode::PAPER_RECOVERY),
            workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(rate)),
            scheme: stcc::Scheme::tuned_paper(),
            cycles: 3_000,
            warmup: 500,
            seed: 5,
        }
    }

    fn replica(cfg: &SimConfig) -> (RunSummary, Harness, Replay) {
        let mut sim = Simulation::new(cfg.clone()).unwrap();
        sim.run_to_end();
        let mut h = Harness::new(cfg.clone(), 1).unwrap();
        while !h.done() {
            h.step();
        }
        let replay = replay_polls(cfg, 64, cfg.cycles);
        (sim.summary().unwrap(), h, replay)
    }

    #[test]
    fn replica_reproduces_the_simulation_at_light_and_saturated_load() {
        for rate in [0.005, 0.05] {
            let cfg = small(rate);
            let (real, h, replay) = replica(&cfg);
            let mut c = Checks::default();
            check_replica(&mut c, &real, &h, &replay);
            assert!(c.failures().is_empty(), "{:?}", c.failures());
            assert_eq!(h.tallies.polls.polls, 3_000 * 64);
            assert_eq!(h.net_samples.len() as u64, real.network_latency.count());
        }
    }

    #[test]
    fn a_perturbed_output_is_counted_as_failed() {
        let cfg = small(0.02);
        let (real, h, replay) = replica(&cfg);
        // One flit more, as a fast but wrong program might report.
        let mut wrong = real.clone();
        wrong.delivered_flits += 1;
        let mut c = Checks::default();
        check_replica(&mut c, &wrong, &h, &replay);
        assert_eq!((c.attempted(), c.failures().len()), (2, 1));
        // A replay that drifts by one generated packet fails too.
        let mut drifted = replay;
        drifted.polls.generated -= 1;
        let mut c = Checks::default();
        check_replica(&mut c, &real, &h, &drifted);
        assert_eq!(c.failures().len(), 1);
        // And a failed check turns the result line incorrect.
        let line = crate::report::result_line(&[], &crate::report::Values::default(), &mut c);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}

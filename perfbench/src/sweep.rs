//! `sweep-j2`: a Figure-3-style sweep through the experiment harness.
//!
//! The untraced part is exactly what a figure binary runs:
//! `SweepCtx::try_run_rows` over `try_run_point` on a two-worker `Pool`,
//! journaling every point and checkpointing on the `STCC_CKPT_EVERY`
//! cadence. A second pass resumes from the journal. The traced part runs
//! the same sweep through the same pool and journal, with each point
//! stepped by the replica of [`crate::trace`] under `drive`'s guard (a
//! livelock check every cycle, no fast-forward) and the checkpoint cadence
//! re-enacted on the real `Simulation` restored from the untraced
//! snapshots.

use crate::checks::Checks;
use crate::report::Values;
use crate::single::{latency_note, set_cycle_tail, set_network, set_stcc, set_traffic, total_ns};
use crate::stats::{median, percentile_sorted, self_time, supports, unattributed_ns, Layer};
use crate::trace::{replay_polls, timer_cost_ns, Harness, Tallies};
use crate::workloads::{Point, Sweep};
use crate::{host, Outcome};
use experiments::journal::{Journal, Rows};
use experiments::{try_run_point, JobError, PointResult, Pool, SweepCtx};
use simstats::RunSummary;
use stcc::{Controller, ControllerCounters, Simulation, DEFAULT_LIVELOCK_WINDOW};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use std::{fs, io};
use wormsim::{Counters, PhaseStats};

/// Standalone set-up repetitions.
const SETUP_TRIALS: usize = 8;

/// One row per point. Floats print in full (`{:?}` round-trips), so equal
/// rows mean equal results.
#[allow(clippy::too_many_arguments)]
fn row(
    p: &Point,
    offered: f64,
    tput_packets: f64,
    tput_flits: f64,
    latency: f64,
    latency_total: f64,
    recovered: u64,
    throttled: u64,
    fairness: f64,
) -> Rows {
    vec![vec![
        p.scheme.to_owned(),
        format!("{:?}", p.rate),
        format!("{offered:?}"),
        format!("{tput_packets:?}"),
        format!("{tput_flits:?}"),
        format!("{latency:?}"),
        format!("{latency_total:?}"),
        recovered.to_string(),
        throttled.to_string(),
        format!("{fairness:?}"),
    ]]
}

/// Column of `tput_flits` in [`row`].
const TPUT_FLITS: usize = 4;

fn point_row(p: &Point, r: &PointResult) -> Rows {
    row(
        p,
        r.offered,
        r.tput_packets,
        r.tput_flits,
        r.latency,
        r.latency_total,
        r.recovered,
        r.throttled,
        r.fairness,
    )
}

/// The row `try_run_point` would produce for `s`.
fn summary_row(p: &Point, s: &RunSummary) -> Rows {
    row(
        p,
        s.offered_rate,
        s.throughput_packets(),
        s.throughput_flits(),
        s.network_latency.mean().unwrap_or(f64::NAN),
        s.total_latency.mean().unwrap_or(f64::NAN),
        s.recovered_packets,
        s.throttled_injections,
        s.fairness,
    )
}

fn open(jobs: usize, path: &Path, fingerprint: u64, resume: bool) -> io::Result<SweepCtx> {
    let (journal, load) = Journal::begin(path, fingerprint, resume)?;
    Ok(SweepCtx::with_journal(Pool::new(jobs), journal, load))
}

/// Writes `sim`'s checkpoint the way the sweep's point runner does: a temporary
/// file renamed into place.
fn write_snapshot(dir: &Path, index: usize, sim: &Simulation) -> io::Result<()> {
    let tmp = dir.join(format!("ckpt-{index}.tmp"));
    fs::write(&tmp, sim.checkpoint())?;
    fs::rename(&tmp, dir.join(format!("ckpt-{index}.bin")))
}

/// What one traced point measured.
struct PointTrace {
    harness: Harness,
    setup_ns: f64,
    ckpt_ns: f64,
    audit_ns: f64,
    audit_violations: usize,
    closure_ns: f64,
}

/// Runs the sweep for `seed`, measuring for about `seconds`, with scratch
/// files under `work`.
///
/// # Errors
///
/// Returns a description of a sweep that could not run at all.
pub fn run(spec: &Sweep, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let points = spec.points(seed);
    let n = points.len();
    let fingerprint = checkpoint::fnv1a64(format!("perfbench sweep-j2 {seed}").as_bytes());
    let ckpt_dir = work.join("ckpt");
    std::env::set_var("STCC_CKPT_EVERY", spec.ckpt_every.to_string());
    std::env::set_var("STCC_CKPT_DIR", &ckpt_dir);
    let io_err = |e: io::Error| e.to_string();
    let mut checks = Checks::default();
    let mut e2e = Values::default();
    let mut layers = Values::default();

    // Set-up: the pool, a fresh journal, and the first point's network,
    // route tables and controller; timed before each sweep and after the
    // last, so the samples span the run.
    let mut setup_s = Vec::new();
    let time_setups = |out: &mut Vec<f64>| -> Result<(), String> {
        for k in 0..SETUP_TRIALS {
            let path = work.join(format!("setup-{k}.journal"));
            let t = Instant::now();
            let ctx = open(spec.jobs, &path, fingerprint, false).map_err(io_err)?;
            let sim = Simulation::new(points[0].cfg.clone()).map_err(|e| e.to_string())?;
            out.push(t.elapsed().as_secs_f64());
            drop((ctx, sim));
            fs::remove_file(&path).map_err(io_err)?;
        }
        Ok(())
    };

    // Measured sweeps: whole sweeps while they fit in `seconds`.
    let journal = work.join("sweep.journal");
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut results: Vec<Vec<Vec<String>>> = Vec::new();
    loop {
        time_setups(&mut setup_s)?;
        let ctx = open(spec.jobs, &journal, fingerprint, false).map_err(io_err)?;
        let t = Instant::now();
        let rows = ctx
            .try_run_rows(points.clone(), Point::label, |p| {
                try_run_point(p.cfg.clone()).map(|r| point_row(&p, &r))
            })
            .map_err(|e| e.to_string())?;
        let wall = t.elapsed();
        walls.push(wall.as_secs_f64());
        results.push(rows);
        if start.elapsed() + wall / 2 >= budget {
            break;
        }
    }
    time_setups(&mut setup_s)?;
    let peak_rss = host::peak_rss_mib().unwrap_or(f64::NAN);
    let untraced_wall = median(&walls);
    let rows = results[0].clone();
    checks.check(
        "every sweep gives the same rows",
        results.iter().all(|r| *r == rows),
    );

    // Resume pass: every point must replay from the journal.
    let reran = AtomicUsize::new(0);
    let t = Instant::now();
    let ctx = open(spec.jobs, &journal, fingerprint, true).map_err(io_err)?;
    let replayed = ctx.try_run_rows(points.clone(), Point::label, |_| {
        reran.fetch_add(1, Ordering::SeqCst);
        Err::<Rows, _>(JobError::Failed(
            "resume re-simulated a journaled point".into(),
        ))
    });
    let journal_replay_s = t.elapsed().as_secs_f64();
    checks.equal(
        "resume finds every point journaled",
        &n,
        &ctx.resumed_jobs(),
    );
    checks.equal(
        "resume re-simulates nothing",
        &0,
        &reran.load(Ordering::SeqCst),
    );
    checks.equal(
        "resumed rows are byte-identical",
        &Some(&rows),
        &replayed.as_ref().ok(),
    );

    // The last snapshot of every point: checkpoint -> restore ->
    // checkpoint must reproduce it.
    let mut by_fingerprint = Vec::new();
    for p in &points {
        let sim = Simulation::new(p.cfg.clone()).map_err(|e| e.to_string())?;
        let fp = checkpoint::peek_fingerprint(&sim.checkpoint()).map_err(|e| e.to_string())?;
        by_fingerprint.push(fp);
    }
    let mut snapshots: Vec<Option<Simulation>> = (0..n).map(|_| None).collect();
    let (mut ser, mut restore, mut sizes) = (Vec::new(), Vec::new(), Vec::new());
    let mut files: Vec<PathBuf> = fs::read_dir(&ckpt_dir)
        .map_err(io_err)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    files.sort();
    for f in files {
        let bytes = fs::read(&f).map_err(io_err)?;
        let fp = checkpoint::peek_fingerprint(&bytes).map_err(|e| e.to_string())?;
        let Some(i) = by_fingerprint.iter().position(|&x| x == fp) else {
            checks.check(&format!("{} belongs to a sweep point", f.display()), false);
            continue;
        };
        let t = Instant::now();
        let back = Simulation::restore(points[i].cfg.clone(), None, &bytes);
        restore.push(t.elapsed().as_nanos() as f64);
        let back = match back {
            Ok(b) => b,
            Err(e) => {
                checks.check(
                    &format!("snapshot of {} restores: {e}", points[i].label()),
                    false,
                );
                continue;
            }
        };
        let t = Instant::now();
        let again = back.checkpoint();
        ser.push(t.elapsed().as_nanos() as f64);
        sizes.push(bytes.len() as f64);
        checks.check(
            &format!(
                "{}: checkpoint -> restore -> checkpoint is byte-identical",
                points[i].label()
            ),
            again == bytes,
        );
        snapshots[i] = Some(back);
    }
    checks.check(
        "every point left a snapshot",
        snapshots.iter().all(Option::is_some),
    );

    // Traced sweep.
    let traced_dir = work.join("ckpt-traced");
    fs::create_dir_all(&traced_dir).map_err(io_err)?;
    let traces: Mutex<Vec<Option<PointTrace>>> = Mutex::new((0..n).map(|_| None).collect());
    let ctx = open(spec.jobs, &work.join("traced.journal"), fingerprint, false).map_err(io_err)?;
    let jobs: Vec<(Point, Option<Simulation>)> = points.iter().cloned().zip(snapshots).collect();
    let every = spec.ckpt_every;
    let t = Instant::now();
    let traced_rows = ctx.try_run_rows(
        jobs,
        |(p, _)| p.label(),
        |(p, snapshot)| {
            let t0 = Instant::now();
            let mut h = Harness::new(p.cfg.clone(), 1).map_err(JobError::Failed)?;
            let setup_ns = t0.elapsed().as_nanos() as f64;
            let mut ckpt_ns = 0.0;
            let cycles = p.cfg.cycles;
            while !h.done() {
                h.step();
                if h.net().livelocked(DEFAULT_LIVELOCK_WINDOW) {
                    return Err(JobError::TimedOut(format!("{}: livelock", p.label())));
                }
                let now = h.net().now();
                if now % every == 0 && now < cycles {
                    if let Some(sim) = &snapshot {
                        let tc = Instant::now();
                        write_snapshot(&traced_dir, p.index, sim)
                            .map_err(|e| JobError::Failed(format!("checkpoint write: {e}")))?;
                        ckpt_ns += tc.elapsed().as_nanos() as f64;
                    }
                }
            }
            let ta = Instant::now();
            let report = h.net().audit();
            let audit_ns = ta.elapsed().as_nanos() as f64;
            let summary = h
                .summary()
                .ok_or_else(|| JobError::Failed("summary before warm-up".into()))?;
            let rows = summary_row(&p, &summary);
            let trace = PointTrace {
                harness: h,
                setup_ns,
                ckpt_ns,
                audit_ns,
                audit_violations: report.violations.len(),
                closure_ns: t0.elapsed().as_nanos() as f64,
            };
            traces.lock().expect("no traced point panicked")[p.index] = Some(trace);
            Ok::<_, JobError>(rows)
        },
    );
    let traced_wall = t.elapsed().as_secs_f64();
    checks.equal(
        "traced sweep reproduces the untraced rows",
        &Some(&rows),
        &traced_rows.as_ref().ok(),
    );
    let traces: Vec<PointTrace> = traces
        .into_inner()
        .expect("no traced point panicked")
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("a traced point did not finish")?;

    // Traffic time by replay, point by point.
    let mut traffic_ns = 0.0;
    for (p, tr) in points.iter().zip(&traces) {
        let h = &tr.harness;
        let replay = replay_polls(&p.cfg, h.net().torus().node_count(), p.cfg.cycles);
        traffic_ns += replay.ns as f64;
        checks.equal(
            &format!("{}: replayed polls equal the traced polls", p.label()),
            &h.tallies.polls,
            &replay.polls,
        );
    }

    // Simulated metrics and correctness of the figure's shape.
    let tput = |i: usize| -> f64 { rows[i][TPUT_FLITS].parse().unwrap_or(f64::NAN) };
    let accepted = (0..n).map(tput).sum::<f64>() / n as f64;
    for (i, p) in points.iter().enumerate() {
        if p.rate <= spec.latency_max_rate {
            let offered = p.rate * p.cfg.net.packet_len as f64;
            checks.within(
                &format!("{} accepted flits/node/cycle", p.label()),
                tput(i),
                offered * 0.9,
                offered * 1.1,
            );
        }
    }
    let top = |scheme: &str| -> f64 {
        let i = points
            .iter()
            .rposition(|p| p.scheme == scheme)
            .expect("both schemes are swept");
        tput(i)
    };
    checks.check(
        &format!(
            "past saturation tune ({}) holds at least twice base's ({}) throughput",
            top("tune"),
            top("base")
        ),
        top("tune") >= 2.0 * top("base"),
    );
    // Latency pools the points that accept their offered load (checked
    // above); past the knee the sources' backlog grows with run length.
    let mut net = Vec::new();
    let mut total = Vec::new();
    for (p, tr) in points.iter().zip(&traces) {
        if p.rate > spec.latency_max_rate {
            continue;
        }
        net.extend(tr.harness.net_samples.iter().map(|&x| x as f64));
        total.extend(tr.harness.total_samples.iter().map(|&x| x as f64));
    }
    net.sort_by(f64::total_cmp);
    total.sort_by(f64::total_cmp);
    checks.check(
        &format!(
            "every traced point audits clean ({} violations)",
            traces.iter().map(|t| t.audit_violations).sum::<usize>()
        ),
        traces.iter().all(|t| t.audit_violations == 0),
    );
    checks.check(
        &format!("{} latency samples support a p99.9", net.len()),
        supports(net.len(), 9_990),
    );
    let sim_cycles: u64 = points.iter().map(|p| p.cfg.cycles).sum();
    e2e.set("sim_cycles_per_s", sim_cycles as f64 / untraced_wall);
    e2e.set("setup_s", median(&setup_s));
    e2e.set("peak_rss_mib", peak_rss);
    e2e.set("accepted_flits_per_node_cycle", accepted);
    e2e.set("net_latency_p50_cycles", percentile_sorted(&net, 5_000));
    e2e.set("net_latency_p999_cycles", percentile_sorted(&net, 9_990));
    e2e.set("total_latency_p99_cycles", percentile_sorted(&total, 9_900));

    // Per-layer metrics, summed over points.
    let sum = |f: &dyn Fn(&PointTrace) -> f64| traces.iter().map(f).sum::<f64>();
    let cycle_ns = sum(&|t| total_ns(&t.harness.tallies.spans.cycle));
    let on_cycle_ns = sum(&|t| total_ns(&t.harness.tallies.spans.on_cycle));
    let drain_ns = sum(&|t| total_ns(&t.harness.tallies.spans.drain));
    let timer_ns = timer_cost_ns();
    let allow_ns = sum(&|t| t.harness.tallies.gate.estimate_ns(timer_ns));
    let stcc_ns = on_cycle_ns + allow_ns;
    let wormsim_ns = self_time(cycle_ns, &[traffic_ns, stcc_ns]);
    let capacity = spec.jobs as f64 * traced_wall * 1e9;
    let busy = sum(&|t| t.closure_ns);
    let region = vec![
        Layer::new("setup", sum(&|t| t.setup_ns)),
        Layer::new("traffic", traffic_ns),
        Layer::new("stcc", stcc_ns),
        Layer::new("wormsim", wormsim_ns),
        Layer::new("simstats", drain_ns),
        Layer::new("checkpoint", sum(&|t| t.ckpt_ns)),
        Layer::new("audit", sum(&|t| t.audit_ns)),
        Layer::new("pool-idle", capacity - busy),
    ];
    let rest = unattributed_ns(capacity, &region);

    let merged = merge(&traces);
    set_traffic(&mut layers, &merged, traffic_ns);
    set_stcc(
        &mut layers,
        &merged,
        on_cycle_ns,
        allow_ns,
        sum_counters(&traces),
    );
    layers.set("wormsim.cycle_self_ns", wormsim_ns);
    set_cycle_tail(&mut layers, &merged.spans.cycle);
    let (counters, phase) = sum_network(&traces);
    set_network(&mut layers, &counters, phase);
    layers.set("simstats.drain_ns", drain_ns);
    layers.set("simstats.records", merged.records as f64);
    layers.set("checkpoint.serialize_ns", median(&ser));
    layers.set("checkpoint.restore_ns", median(&restore));
    layers.set("checkpoint.bytes", median(&sizes));
    let audits: Vec<f64> = traces.iter().map(|t| t.audit_ns).collect();
    layers.set("audit.ns", median(&audits));
    layers.set(
        "audit.violations",
        traces.iter().map(|t| t.audit_violations).sum::<usize>() as f64,
    );
    let point_s: Vec<f64> = traces.iter().map(|t| t.closure_ns / 1e9).collect();
    layers.set("experiments.point_s_p50", median(&point_s));
    layers.set(
        "experiments.point_s_max",
        point_s.iter().copied().fold(0.0, f64::max),
    );
    layers.set("experiments.pool_idle_s", (capacity - busy) / 1e9);
    layers.set("experiments.parallel_efficiency", busy / capacity);
    layers.set("experiments.journal_replay_s", journal_replay_s);
    layers.set(
        "trace.overhead_pct",
        100.0 * (traced_wall / untraced_wall - 1.0),
    );
    layers.set("trace.unattributed_pct", 100.0 * rest / capacity);

    let mut lines = vec![
        "point\tlabel\tsetup_ns\tcycle_ns\tdrain_ns\tckpt_ns\taudit_ns\tclosure_ns".to_owned(),
    ];
    for (p, t) in points.iter().zip(&traces) {
        let spans = &t.harness.tallies.spans;
        lines.push(format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            p.index,
            p.label(),
            t.setup_ns,
            total_ns(&spans.cycle),
            total_ns(&spans.drain),
            t.ckpt_ns,
            t.audit_ns,
            t.closure_ns
        ));
    }
    Ok(Outcome {
        checks,
        e2e,
        layers,
        region,
        capacity_ns: capacity,
        notes: vec![
            format!("{} measured sweeps of {n} points", walls.len()),
            format!("{} set-ups", setup_s.len()),
            format!(
                "latency pooled over the points at or below {} pkts/node/cycle",
                spec.latency_max_rate
            ),
            latency_note(net.len()),
            format!("{} cycle spans", merged.spans.cycle.len()),
        ],
        spans: lines,
    })
}

/// The points' tallies folded into one (gate samples stay per point:
/// their estimates are summed separately).
fn merge(traces: &[PointTrace]) -> Tallies {
    let mut m = Tallies::default();
    for t in traces {
        let h = &t.harness.tallies;
        m.polls.polls += h.polls.polls;
        m.polls.generated += h.polls.generated;
        m.gate.calls += h.gate.calls;
        m.gate.denied += h.gate.denied;
        m.records += h.records;
        m.spans.cycle.extend(&h.spans.cycle);
        m.spans.on_cycle.extend(&h.spans.on_cycle);
    }
    m
}

fn sum_counters(traces: &[PointTrace]) -> ControllerCounters {
    let mut c = ControllerCounters::default();
    for t in traces {
        let k = Controller::counters(t.harness.controller());
        c.decisions += k.decisions;
        c.cuts += k.cuts;
        c.raises += k.raises;
    }
    c
}

fn sum_network(traces: &[PointTrace]) -> (Counters, PhaseStats) {
    let mut c = Counters::default();
    let mut ph = PhaseStats::default();
    for t in traces {
        let k = t.harness.net().counters();
        c.recovered_packets += k.recovered_packets;
        c.refused_generations += k.refused_generations;
        c.stage_inject_visits += k.stage_inject_visits;
        c.stage_route_visits += k.stage_route_visits;
        c.stage_starvation_checks += k.stage_starvation_checks;
        c.stage_switch_visits += k.stage_switch_visits;
        c.stage_drain_steps += k.stage_drain_steps;
        let p = t.harness.net().phase_stats().unwrap_or_default();
        ph.decide_ns += p.decide_ns;
        ph.apply_ns += p.apply_ns;
        ph.barrier_ns += p.barrier_ns;
    }
    (c, ph)
}

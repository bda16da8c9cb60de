//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` lists the same metrics; a test keeps the two equal.

use crate::checks::Checks;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
/// Host time: `sim_cycles_per_s`, `setup_s`, `peak_rss_mib`. Simulated
/// time: the rest.
pub const END_TO_END: &[Metric] = &[
    m("sim_cycles_per_s", "cycles/s"),
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
    m("accepted_flits_per_node_cycle", "flit/node/cycle"),
    m("net_latency_p50_cycles", "cycles"),
    m("net_latency_p999_cycles", "cycles"),
    m("total_latency_p99_cycles", "cycles"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`). Times
/// are host nanoseconds summed over the traced region unless the name
/// says otherwise; `checkpoint.*` and `audit.ns` are per call.
pub const PER_LAYER: &[Metric] = &[
    m("traffic.polls", "count"),
    m("traffic.poll_ns", "ns"),
    m("traffic.useful_poll_ratio", "ratio"),
    m("stcc.on_cycle_calls", "count"),
    m("stcc.on_cycle_ns", "ns"),
    m("stcc.allow_calls", "count"),
    m("stcc.allow_ns", "ns"),
    m("stcc.throttle_ratio", "ratio"),
    m("stcc.decisions", "count"),
    m("stcc.cuts", "count"),
    m("stcc.raises", "count"),
    m("wormsim.cycle_self_ns", "ns"),
    m("wormsim.cycle_us_p50", "us"),
    m("wormsim.cycle_us_p99", "us"),
    m("wormsim.recovered_packets", "count"),
    m("wormsim.refused_generations", "count"),
    m("wormsim.visits.inject", "count"),
    m("wormsim.visits.route", "count"),
    m("wormsim.visits.starvation", "count"),
    m("wormsim.visits.switch", "count"),
    m("wormsim.visits.drain", "count"),
    m("shard.decide_ns", "ns"),
    m("shard.apply_ns", "ns"),
    m("shard.barrier_ns", "ns"),
    m("shard.barrier_share", "ratio"),
    m("simstats.drain_ns", "ns"),
    m("simstats.records", "count"),
    m("checkpoint.serialize_ns", "ns"),
    m("checkpoint.restore_ns", "ns"),
    m("checkpoint.bytes", "bytes"),
    m("audit.ns", "ns"),
    m("audit.violations", "count"),
    m("experiments.point_s_p50", "s"),
    m("experiments.point_s_max", "s"),
    m("experiments.pool_idle_s", "s"),
    m("experiments.parallel_efficiency", "ratio"),
    m("experiments.journal_replay_s", "s"),
    m("trace.overhead_pct", "%"),
    m("trace.unattributed_pct", "%"),
];

/// Measured values, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value recorded for `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Renders the result line for `catalogue`, recording as failed checks any
/// metric that is missing, set twice, unknown or not a finite number.
#[must_use]
pub fn result_line(catalogue: &[Metric], values: &Values, checks: &mut Checks) -> String {
    for (name, _) in &values.0 {
        checks.check(
            &format!("metric {name} is in the catalogue"),
            catalogue.iter().any(|m| m.name == *name),
        );
    }
    let mut metrics = Vec::with_capacity(catalogue.len());
    for m in catalogue {
        let set: Vec<f64> = values
            .0
            .iter()
            .filter(|(n, _)| *n == m.name)
            .map(|&(_, v)| v)
            .collect();
        checks.check(&format!("metric {} is set once", m.name), set.len() == 1);
        let value = set.first().copied().unwrap_or(f64::NAN);
        checks.check(&format!("metric {} is finite", m.name), value.is_finite());
        let shown = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_owned()
        };
        metrics.push(format!(
            "\"{}\": {{\"value\": {shown}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    let failed = checks.failures().len();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        checks.attempted(),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The body of the JSON array under `key`, brackets matched by depth.
    fn array<'a>(json: &'a str, key: &str) -> &'a str {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key}"));
        let open = start + json[start..].find('[').expect("array opens");
        let mut depth = 0;
        for (i, c) in json[open..].char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        return &json[open..open + i];
                    }
                }
                _ => {}
            }
        }
        panic!("{key} never closes")
    }

    /// The string values of `field` in the `key` array, in order.
    fn fields_in(json: &str, key: &str, field: &str) -> Vec<String> {
        array(json, key)
            .split(&format!("\"{field}\""))
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted value").to_owned())
            .collect()
    }

    fn names_in(json: &str, key: &str) -> Vec<String> {
        fields_in(json, key, "name")
    }

    /// Whether `name` is a valid metric or workload name: it starts with a
    /// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
    /// `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
    const PLAN: &str = include_str!("../plan.json");

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for m in &all {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit(""));
        assert!(!valid_unit("flits per s"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names_in(BENCHMARK, "end_to_end"), e2e);
        assert_eq!(names_in(BENCHMARK, "per_layer"), layer);
        let e2e_units: Vec<&str> = END_TO_END.iter().map(|m| m.unit).collect();
        let layer_units: Vec<&str> = PER_LAYER.iter().map(|m| m.unit).collect();
        assert_eq!(fields_in(BENCHMARK, "end_to_end", "unit"), e2e_units);
        assert_eq!(fields_in(BENCHMARK, "per_layer", "unit"), layer_units);
        for w in names_in(BENCHMARK, "workloads") {
            assert!(valid_name(&w), "bad workload name {w}");
            assert!(crate::workloads::by_name(&w).is_some(), "unknown {w}");
        }
    }

    #[test]
    fn plan_maps_every_layer_metric() {
        let mapped = names_in(PLAN, "layer_map");
        for m in PER_LAYER {
            assert!(
                mapped.iter().any(|n| n == m.name),
                "{} has no entry in plan.json",
                m.name
            );
        }
        for n in &mapped {
            assert!(
                PER_LAYER.iter().any(|m| m.name == n),
                "{n} is not a layer metric"
            );
        }
    }

    #[test]
    fn result_line_has_every_metric_and_counts_gaps() {
        let cat = [m("a_s", "s"), m("b", "count")];
        let mut v = Values::default();
        v.set("a_s", 1.25);
        v.set("b", 3.0);
        let mut c = Checks::default();
        let line = result_line(&cat, &v, &mut c);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 6, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        let mut v = Values::default();
        v.set("a_s", f64::NAN);
        let mut c = Checks::default();
        let line = result_line(&cat, &v, &mut c);
        assert!(line.starts_with("{\"correct\": false"));
        assert_eq!(c.failures().len(), 3, "{:?}", c.failures());
    }
}

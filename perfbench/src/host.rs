//! Host fingerprint, peak memory, and the local result log.
//!
//! Every result is logged with the fingerprint of the host that measured
//! it. A later run compares itself only with results from the same host;
//! results from any other host are reported as foreign and not compared.

use crate::stats::median;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::process::Command;

/// What identifies the measuring host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// Kernel clocksource (it sets what a timer read costs).
    pub clocksource: String,
    /// `rustc --version`.
    pub rustc: String,
}

impl Host {
    /// Reads the fingerprint of this host.
    #[must_use]
    pub fn detect() -> Host {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|v| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let clocksource =
            fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
                .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu,
            clocksource,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    /// A short stable key for comparing hosts.
    #[must_use]
    pub fn key(&self) -> String {
        let text = format!(
            "{}|{}|{}|{}",
            self.nproc, self.cpu, self.clocksource, self.rustc
        );
        format!("{:016x}", checkpoint::fnv1a64(text.as_bytes()))
    }
}

/// The first output line of `program args`, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(|l| l.trim().to_owned())
}

/// The measured code: the git commit when the checkout has one, and always
/// a hash of the sources the benchmark builds.
#[must_use]
pub fn commit() -> String {
    let git = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        None
    };
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src", "Cargo.lock"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut text = Vec::new();
    for f in &files {
        text.extend_from_slice(f.to_string_lossy().as_bytes());
        text.extend(fs::read(f).unwrap_or_default());
    }
    let source = format!("src-{:016x}", checkpoint::fnv1a64(&text));
    match git {
        Some(g) => format!("{g} {source}"),
        None => source,
    }
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            let skip = name.to_string_lossy().starts_with('.') || name == "target";
            if !skip {
                collect(&p, out);
            }
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One logged result.
#[derive(Debug, Clone, PartialEq)]
pub struct Logged {
    /// Host key.
    pub host: String,
    /// Commit and source hash.
    pub commit: String,
    /// Workload name.
    pub workload: String,
    /// `0` or `1`.
    pub trace: u8,
    /// Metric values.
    pub metrics: BTreeMap<String, f64>,
}

impl Logged {
    /// One tab-separated log line.
    #[must_use]
    pub fn line(&self, seed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            self.host,
            self.commit,
            self.workload,
            self.trace,
            seed,
            metrics.join(";")
        )
    }

    /// Parses a line written by [`Logged::line`].
    #[must_use]
    pub fn parse(line: &str) -> Option<Logged> {
        let f: Vec<&str> = line.split('\t').collect();
        let [host, commit, workload, trace, _seed, metrics] = f.as_slice() else {
            return None;
        };
        let metrics = metrics
            .split(';')
            .filter(|kv| !kv.is_empty())
            .map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((k.to_owned(), v.parse().ok()?))
            })
            .collect::<Option<BTreeMap<_, _>>>()?;
        Some(Logged {
            host: (*host).to_owned(),
            commit: (*commit).to_owned(),
            workload: (*workload).to_owned(),
            trace: trace.parse().ok()?,
            metrics,
        })
    }
}

/// How `current` relates to earlier results of the same workload and mode.
#[derive(Debug, Default, PartialEq)]
pub struct Comparison {
    /// Earlier same-host results compared against.
    pub same_host: usize,
    /// Earlier results from other hosts, not compared.
    pub foreign: usize,
    /// Per metric: (current, median of same-host earlier results).
    pub rows: Vec<(String, f64, f64)>,
}

/// Compares `current` with the same-host entries of `earlier`.
#[must_use]
pub fn compare(current: &Logged, earlier: &[Logged]) -> Comparison {
    let mut cmp = Comparison::default();
    let mut same = Vec::new();
    for e in earlier
        .iter()
        .filter(|e| e.workload == current.workload && e.trace == current.trace)
    {
        if e.host == current.host {
            same.push(e);
        } else {
            cmp.foreign += 1;
        }
    }
    cmp.same_host = same.len();
    if same.is_empty() {
        return cmp;
    }
    for (name, &value) in &current.metrics {
        let prior: Vec<f64> = same
            .iter()
            .filter_map(|e| e.metrics.get(name))
            .copied()
            .collect();
        if !prior.is_empty() {
            cmp.rows.push((name.clone(), value, median(&prior)));
        }
    }
    cmp
}

/// Reads the log at `path` (missing is empty), appends `current`, and
/// returns the earlier entries.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn log_result(path: &Path, current: &Logged, seed: u64) -> std::io::Result<Vec<Logged>> {
    let earlier: Vec<Logged> = fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(Logged::parse)
        .collect();
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", current.line(seed))?;
    Ok(earlier)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logged(host: &str, v: f64) -> Logged {
        Logged {
            host: host.to_owned(),
            commit: "c".to_owned(),
            workload: "w".to_owned(),
            trace: 0,
            metrics: BTreeMap::from([("x_s".to_owned(), v)]),
        }
    }

    #[test]
    fn log_lines_round_trip() {
        let l = logged("h", 1.5);
        assert_eq!(Logged::parse(&l.line(7)), Some(l));
        assert_eq!(Logged::parse("garbage"), None);
    }

    #[test]
    fn foreign_hosts_are_counted_not_compared() {
        let now = logged("here", 10.0);
        let earlier = [
            logged("here", 8.0),
            logged("there", 1.0),
            logged("here", 12.0),
        ];
        let c = compare(&now, &earlier);
        assert_eq!((c.same_host, c.foreign), (2, 1));
        assert_eq!(c.rows, vec![("x_s".to_owned(), 10.0, 10.0)]);
        let c = compare(&now, &[logged("there", 1.0)]);
        assert_eq!((c.same_host, c.foreign), (0, 1));
        assert!(c.rows.is_empty());
    }
}

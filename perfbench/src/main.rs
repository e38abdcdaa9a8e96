//! End-to-end and per-layer benchmark of the canvas pipeline.
//!
//! ```text
//! perfbench --workload fleet-disk|serve-mix|certify-check --seed N --seconds S --trace 0|1
//!           [--canvas PATH] [--eval PATH] [--work DIR] [--smoke]
//! ```
//!
//! Every workload makes its inputs from `--seed`, sets up several times
//! (reporting the median as `setup_s`), then measures passes for about
//! `--seconds` seconds. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs untraced and traced passes, times every call the
//! benchmark makes into a layer's public functions, writes those spans as
//! a Chrome trace, checks it with `eval trace-check`, and prints the
//! per-layer metrics. The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! See `NOTES.md` for why each workload exists and which layer metric
//! should move which end-to-end metric.

mod certify_check;
mod fleet_disk;
mod ledger;
mod serve_mix;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The seed later performance claims must also hold on; it is never used
/// while tuning a change.
pub const HELDOUT_SEED: u64 = 9001;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `canvas` binary (serve-mix runs it as its daemon).
    pub canvas: PathBuf,
    /// The `eval` binary (checks the traced pass's Chrome trace).
    pub eval: PathBuf,
    /// Scratch directory for corpora, stores and traces.
    pub work: PathBuf,
    /// Smoke size: tiny inputs, for the benchmark's own tests.
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        canvas: PathBuf::from(".bench_build/release/canvas"),
        eval: PathBuf::from(".bench_build/release/eval"),
        work: PathBuf::from(".bench_work"),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: not {what}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--canvas" => args.canvas = PathBuf::from(value),
            "--eval" => args.eval = PathBuf::from(value),
            "--work" => args.work = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(args)
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Adds a metric to `out`.
pub fn put(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric { name: name.into(), value, unit });
}

/// Correctness tally of one run.
#[derive(Clone, Copy, Default, Debug)]
pub struct Tally {
    /// Operations attempted (programs, requests, certifications, replays).
    pub attempted: u64,
    /// Operations that did not produce a usable answer: poisoned programs,
    /// dead-shard losses, inconclusive verdicts, sheds, error responses,
    /// rejected certificates.
    pub failed: u64,
    /// Answers that disagree with ground truth.
    pub mismatches: u64,
}

/// What one workload run produced.
pub struct Outcome {
    pub tally: Tally,
    /// The contract metrics: the end-to-end set untraced, the per-layer
    /// set traced.
    pub metrics: Vec<Metric>,
    /// The workload's own named figures, printed as text lines.
    pub report: Vec<Metric>,
    /// Problems that make the run incorrect beyond verdict mismatches.
    pub problems: Vec<String>,
}

/// The per-layer metrics with their units, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("json.decode_ns_per_byte.1k", "ns/B"),
        ("json.decode_ns_per_byte.64k", "ns/B"),
        ("json.decode_ns_per_byte.256k", "ns/B"),
        ("json.decode_bytes", "B"),
        ("manifest.load_ns", "ns"),
        ("manifest.decode_ns", "ns"),
        ("manifest.bytes", "B"),
        ("driver.run_ns", "ns"),
        ("driver.steals", "count"),
        ("driver.shard_skew", "ratio"),
        ("driver.merge_ns", "ns"),
        ("driver.merge_conflicts", "count"),
        ("driver.program_p50_us", "us"),
        ("driver.program_p99_us", "us"),
        ("driver.reported_frac", "frac"),
        ("store.open_ns", "ns"),
        ("store.hits", "count"),
        ("store.hit_ratio", "ratio"),
        ("fingerprint.ns", "ns"),
        ("store.persist_ns", "ns"),
        ("store.misses", "count"),
        ("store.delta_seeded", "count"),
        ("store.evictions", "count"),
        ("store.lines", "count"),
        ("minijava.parse_ns", "ns"),
        ("minijava.ns_per_byte", "ns/B"),
        ("wp.derive_ns", "ns"),
        ("dataflow.solve_ns", "ns"),
        ("fds.edge_visits", "count"),
        ("fds.worklist_pops", "count"),
        ("fds.words_touched", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for engine in canvas_core::Engine::all() {
        names.push((format!("engine.{engine}.certify_ns"), "ns"));
    }
    names.extend(
        [
            ("cert.emit_ns", "ns"),
            ("cert.cells", "count"),
            ("cert.bytes", "B"),
            ("check.replay_ns", "ns"),
            ("check.transfers", "count"),
            ("check.ratio", "ratio"),
            ("serve.inband_ns", "ns"),
            ("serve.outside_frac", "frac"),
            ("serve.shed", "count"),
            ("serve.errors", "count"),
            ("serve.worker_busy_frac", "frac"),
            ("residue_frac", "frac"),
            ("telemetry.overhead_frac", "frac"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    names
}

/// The full per-layer metric list from a workload's measured `values`. A
/// layer the workload never calls reads 0: its work there is nil.
pub fn per_layer(values: &[(impl AsRef<str>, f64)]) -> Vec<Metric> {
    let names = per_layer_names();
    for (name, _) in values {
        let name = name.as_ref();
        assert!(names.iter().any(|(n, _)| n == name), "undeclared per-layer metric {name}");
    }
    names
        .into_iter()
        .map(|(name, unit)| {
            let value =
                values.iter().rev().find(|(n, _)| n.as_ref() == name).map_or(0.0, |(_, v)| *v);
            Metric { name, value, unit }
        })
        .collect()
}

/// Median of `xs` (mean of the middle pair for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The figure of the slow-decile pass among per-pass figures `xs`: the
/// 90th percentile of a time, the 10th of a rate (`rate`). A shared
/// machine's slow state is much steadier than its bursts of speed, so this
/// is the per-run figure the gated metrics report (see `NOTES.md`).
pub fn slow_decile(xs: &[f64], rate: bool) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() / 10;
    if rate {
        v[k]
    } else {
        v[v.len() - 1 - k]
    }
}

/// The tail of `xs`: the highest percentile with at least ten samples
/// beyond it, i.e. the 11th-largest sample, or the maximum when there are
/// fewer than eleven. Returns `(value, percentile, samples)`.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let n = xs.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if n < 11 {
        return (v[n - 1], 100.0, n);
    }
    let k = n - 11;
    (v[k], 100.0 * (k + 1) as f64 / n as f64, n)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// `VmHWM` (peak resident set) of process `pid` (`self` for this one), MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Splits the run's measuring time between untraced and traced passes: a
/// traced run spends half its time on each, so `telemetry.overhead_frac`
/// compares like with like.
pub fn budgets(args: &Args) -> (Duration, Duration) {
    let total = Duration::from_secs_f64(args.seconds);
    if args.trace {
        (total / 2, total / 2)
    } else {
        (total, Duration::ZERO)
    }
}

/// The result line. A non-finite value (already reported as a problem,
/// which makes `correct` false) is written as 0 to keep the line JSON.
fn render_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "fleet-disk" => fleet_disk::run(&args),
        "serve-mix" => serve_mix::run(&args),
        "certify-check" => certify_check::run(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (fleet-disk, serve-mix, certify-check)"
            );
            return ExitCode::from(2);
        }
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let tally = out.tally;
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    put(&mut out.report, "error_rate", failed_frac, "failed/attempted");
    put(&mut out.report, "verdict_mismatches", tally.mismatches as f64, "count");
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.problems.push(format!("metric {} is not finite", m.name));
        }
    }
    println!(
        "workload {} seed {} (held-out seed {HELDOUT_SEED}) seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in out.report.iter().chain(&out.metrics) {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &out.problems {
        println!("  problem: {p}");
    }
    let correct = tally.mismatches == 0 && tally.attempted > 0 && out.problems.is_empty();
    println!("{}", render_json(correct, &tally, &out.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, pct, n) = tail(&xs);
        assert_eq!((v, n), (90.0, 100));
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0, 3));
    }

    #[test]
    fn slow_decile_picks_the_slow_side() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(slow_decile(&xs, false), 18.0);
        assert_eq!(slow_decile(&xs, true), 3.0);
        assert_eq!(slow_decile(&[5.0, 1.0], false), 5.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}

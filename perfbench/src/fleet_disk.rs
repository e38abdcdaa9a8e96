//! `fleet-disk`: a seeded `fleet gen` corpus on disk, certified by passes
//! of a cold run (empty store) then a warm run (the persisted store), each
//! `load_corpus → run_fleet` with two shards; `run_fleet` opens, merges
//! into and persists the store itself.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use canvas_core::{Certifier, Engine};
use canvas_fleet::driver::{run_fleet, FleetConfig};
use canvas_fleet::gen::{generate_with_threads, GenParams};
use canvas_fleet::manifest::{load_corpus, write_corpus, FleetItem, Manifest, MANIFEST_FILE};
use canvas_fleet::FleetReport;
use canvas_incr::fingerprint::ProgramFingerprints;
use canvas_incr::json::Json;
use canvas_incr::store::CertCache;
use canvas_minijava::Program;

use crate::ledger::{finish_trace, telemetry_layers, Ledger};
use crate::{
    budgets, median, ms, ns, peak_rss_mb, put, slow_decile, Args, Outcome, Tally, SETUP_REPS,
};

/// Corpus size: large enough that manifest decode is most of a cold run
/// (1k programs: ~0.3 s of ~0.35 s on 2 cores), small enough for a few
/// dozen passes per run, so the slow-decile pass is well estimated.
const PROGRAMS: usize = 1000;
const SMOKE_PROGRAMS: usize = 60;
const SHARDS: usize = 2;
/// Programs parsed and fingerprinted by the traced pass's layer probes.
const PROBE_PROGRAMS: usize = 400;

/// One cold or warm run.
struct RunRec {
    wall: Duration,
    load: Duration,
    run: Duration,
    report: FleetReport,
}

/// The ground truth the report must reproduce, counted from the manifest.
struct Truth {
    programs: usize,
    violating: usize,
    sites: usize,
}

fn truth_of(items: &[FleetItem]) -> Truth {
    let expected = || items.iter().map(|i| i.expected.as_ref().map_or(0, Vec::len));
    Truth {
        programs: items.len(),
        violating: expected().filter(|&n| n > 0).count(),
        sites: expected().sum(),
    }
}

fn io_err(path: &Path, e: std::io::Error) -> String {
    format!("{}: {e}", path.display())
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(io_err(dir, e)),
        _ => Ok(()),
    }
}

/// Generates the corpus and writes it to `dir` (the set-up of this
/// workload). Files are overwritten in place: program file names do not
/// depend on the seed, and deleting thousands of files leaves a file
/// system that discards freed blocks slow for seconds afterwards.
fn set_up(params: &GenParams, dir: &Path) -> Result<(), String> {
    let programs = generate_with_threads(params, SHARDS).map_err(|e| e.to_string())?;
    let manifest = Manifest::from_programs(params, &programs);
    write_corpus(dir, &manifest, &programs, true).map_err(|e| e.to_string())
}

/// One `load_corpus → run_fleet` run against the store in `store`.
fn fleet_run(
    ledger: &mut Ledger,
    corpus: &Path,
    cfg: &FleetConfig,
    name: &'static str,
    parent: u64,
    pass: u64,
) -> Result<RunRec, String> {
    let open = ledger.begin(name, parent, pass);
    let (loaded, load) = ledger.time("manifest.load", open.id, pass, || load_corpus(corpus));
    let (_, items) = loaded.map_err(|e| e.to_string())?;
    let (report, run) = ledger.time("driver.run", open.id, pass, || run_fleet(&items, cfg));
    let report = report.map_err(|e| e.to_string())?;
    let wall = ledger.end(open);
    Ok(RunRec { wall, load, run, report })
}

/// Checks one run's report against the manifest's ground truth.
fn check_run(rec: &RunRec, truth: &Truth, tally: &mut Tally, problems: &mut Vec<String>) {
    let r = &rec.report;
    tally.attempted += truth.programs as u64;
    // a dead shard's lost program is counted as poisoned
    tally.failed += (r.poisoned_programs + r.inconclusive) as u64;
    // the driver's own per-program truth check, plus an outside count of
    // what the manifest says the corpus contains
    let mut wrong = r.truth_mismatches;
    if r.programs != truth.programs
        || r.truth_checked + r.poisoned_programs + r.inconclusive < truth.programs
    {
        problems.push(format!("{} of {} programs truth-checked", r.truth_checked, truth.programs));
    }
    if r.poisoned_programs == 0 && r.inconclusive == 0 {
        wrong += r.violating.abs_diff(truth.violating) + r.violation_sites.abs_diff(truth.sites);
    }
    tally.mismatches += wrong as u64;
}

/// Per-layer figures of one traced pass.
fn layer_metrics(cold: &RunRec, warm: &RunRec, out: &mut Vec<(&'static str, f64)>) {
    let c = &cold.report;
    let w = &warm.report;
    let pass_wall = (cold.wall + warm.wall).as_secs_f64();
    let covered = (cold.load + cold.run + warm.load + warm.run).as_secs_f64();
    let processed: Vec<f64> = c.shard_rows.iter().map(|s| s.processed as f64).collect();
    let mean = processed.iter().sum::<f64>() / processed.len().max(1) as f64;
    let max = processed.iter().copied().fold(0.0, f64::max);
    // the driver keeps one latency histogram per shard; the busiest
    // shard's quantiles stand for the run
    let busiest = c.shard_rows.iter().max_by_key(|s| s.latency.count());
    let q = |p: f64| busiest.map_or(0.0, |s| s.latency.quantile_ns(p) as f64 / 1e3);
    let warm_lookups = (w.cache.hits + w.cache.misses) as f64;
    out.extend([
        ("manifest.load_ns", ns(cold.load)),
        ("driver.run_ns", ns(cold.run)),
        ("driver.steals", c.steals as f64),
        ("driver.shard_skew", if mean > 0.0 { max / mean } else { 0.0 }),
        ("driver.merge_ns", ns(c.merge_wall)),
        ("driver.merge_conflicts", c.cache.conflicts as f64),
        ("driver.program_p50_us", q(0.5)),
        ("driver.program_p99_us", q(0.99)),
        ("driver.reported_frac", c.wall.as_secs_f64() / cold.wall.as_secs_f64()),
        ("store.hits", w.cache.hits as f64),
        (
            "store.hit_ratio",
            if warm_lookups > 0.0 { w.cache.hits as f64 / warm_lookups } else { 0.0 },
        ),
        ("store.misses", c.cache.misses as f64),
        ("store.delta_seeded", c.cache.delta_seeded as f64),
        ("residue_frac", 1.0 - covered / pass_wall),
    ]);
}

/// Layer probes run once after the traced passes: calls the passes make
/// only inside `load_corpus`/`run_fleet`, timed on their own.
fn probes(
    ledger: &mut Ledger,
    corpus: &Path,
    store: &Path,
    scratch_store: &Path,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let manifest_path = corpus.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&manifest_path).map_err(|e| io_err(&manifest_path, e))?;
    let (json, decode) = ledger.time("manifest.decode", 0, 0, || Json::parse(&text));
    let json = json.map_err(|e| format!("manifest decode: {e}"))?;
    let manifest = Manifest::from_json(&json).map_err(|e| e.to_string())?;

    let (cache, open) = ledger.time("store.open", 0, 0, || CertCache::open(store));
    remove_dir(scratch_store)?;
    let copy = CertCache::open(scratch_store);
    copy.merge_from(&cache);
    let (persisted, persist) = ledger.time("store.persist", 0, 0, || copy.persist());
    persisted.map_err(|e| e.to_string())?;
    let mut lines = 0usize;
    for entry in std::fs::read_dir(store).map_err(|e| io_err(store, e))? {
        let path = entry.map_err(|e| io_err(store, e))?.path();
        lines += std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?.lines().count();
    }

    let spec = canvas_easl::builtin::cmp();
    let (derived, derive) = ledger.time("wp.derive", 0, 0, || Certifier::from_spec(spec.clone()));
    derived.map_err(|e| e.to_string())?;
    let (mut parse, mut fingerprint, mut bytes) = (Duration::ZERO, Duration::ZERO, 0usize);
    for (k, entry) in manifest.entries.iter().take(PROBE_PROGRAMS).enumerate() {
        let id = k as u64 + 1;
        let path = corpus.join(&entry.name);
        let source = std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        let (program, d) = ledger.time("minijava.parse", 0, id, || Program::parse(&source, &spec));
        let program = program.map_err(|e| format!("{}: {e}", entry.name))?;
        parse += d;
        bytes += source.len();
        let (fps, d) = ledger.time("fingerprint", 0, id, || ProgramFingerprints::new(&program));
        std::hint::black_box(fps);
        fingerprint += d;
    }
    out.extend([
        ("manifest.decode_ns", ns(decode)),
        ("manifest.bytes", text.len() as f64),
        ("json.decode_bytes", text.len() as f64),
        ("store.open_ns", ns(open)),
        ("store.persist_ns", ns(persist)),
        ("store.lines", lines as f64),
        ("wp.derive_ns", ns(derive)),
        ("minijava.parse_ns", ns(parse)),
        ("minijava.ns_per_byte", ns(parse) / bytes.max(1) as f64),
        ("fingerprint.ns", ns(fingerprint)),
    ]);
    Ok(())
}

/// Runs `fleet-disk`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let programs = if args.smoke { SMOKE_PROGRAMS } else { PROGRAMS };
    let params = GenParams { programs, seed: args.seed, ..GenParams::default() };
    let corpus: PathBuf = args.work.join("fleet-disk.corpus");
    let store = args.work.join("fleet-disk.store");
    let scratch_store = args.work.join("fleet-disk.probe-store");

    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        set_up(&params, &corpus)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let (_, items) = load_corpus(&corpus).map_err(|e| e.to_string())?;
    let truth = truth_of(&items);
    drop(items);

    let mut cfg = FleetConfig::local(canvas_easl::builtin::cmp(), "cmp", Engine::ScmpFds, SHARDS);
    cfg.cache_dir = Some(store.clone());
    let epoch = Instant::now();
    let mut ledger = Ledger::new(epoch, 1);
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let (untraced, traced) = budgets(args);

    // passes: (traced?, cold, warm)
    let mut passes: Vec<(bool, RunRec, RunRec)> = Vec::new();
    for (tracing, budget) in [(false, untraced), (true, traced)] {
        if budget.is_zero() {
            continue;
        }
        ledger.set_tracing(tracing);
        let started = Instant::now();
        let mut pass = 0u64;
        while pass == 0 || started.elapsed() < budget {
            pass += 1;
            remove_dir(&store)?;
            let open = ledger.begin("fleet.pass", 0, pass);
            let cold = fleet_run(&mut ledger, &corpus, &cfg, "fleet.cold", open.id, pass)?;
            let warm = fleet_run(&mut ledger, &corpus, &cfg, "fleet.warm", open.id, pass)?;
            ledger.end(open);
            check_run(&cold, &truth, &mut tally, &mut problems);
            check_run(&warm, &truth, &mut tally, &mut problems);
            if warm.report.cache.misses != 0 {
                problems.push(format!("warm run recomputed {} cells", warm.report.cache.misses));
            }
            if warm.report.corpus_digest != cold.report.corpus_digest {
                problems.push("warm and cold runs disagree on the corpus digest".into());
            }
            passes.push((tracing, cold, warm));
        }
    }

    let rate = |r: &RunRec| programs as f64 / r.wall.as_secs_f64();
    let select = |traced: bool| passes.iter().filter(move |p| p.0 == traced);
    let cold_rates: Vec<f64> = select(false).map(|p| rate(&p.1)).collect();
    let warm_rates: Vec<f64> = select(false).map(|p| rate(&p.2)).collect();
    let mut report = Vec::new();
    put(&mut report, "fleet_cold_programs_per_s", median(&cold_rates), "programs/s");
    put(&mut report, "fleet_warm_programs_per_s", median(&warm_rates), "programs/s");

    let mut metrics = Vec::new();
    if !args.trace {
        // a pass's median run is the mean of its cold and warm runs
        let pass_p50_ms: Vec<f64> = select(false).map(|p| ms(p.1.wall + p.2.wall) / 2.0).collect();
        let pass_rates: Vec<f64> = select(false)
            .map(|p| 2.0 * programs as f64 / (p.1.wall + p.2.wall).as_secs_f64())
            .collect();
        put(&mut report, "passes", pass_rates.len() as f64, "passes");
        put(&mut metrics, "setup_s", median(&setups), "s");
        put(&mut metrics, "throughput_per_s", slow_decile(&pass_rates, true), "1/s");
        put(&mut metrics, "latency_p50_ms", slow_decile(&pass_p50_ms, false), "ms");
        put(&mut metrics, "peak_rss_mb", peak_rss_mb("self")?, "MiB");
    } else {
        let mut per_pass: Vec<Vec<(&'static str, f64)>> = Vec::new();
        for (_, cold, warm) in select(true) {
            let mut row = Vec::new();
            layer_metrics(cold, warm, &mut row);
            per_pass.push(row);
        }
        let mut layer = telemetry_layers(per_pass.len());
        probes(&mut ledger, &corpus, &store, &scratch_store, &mut layer)?;
        ledger.set_tracing(false);
        let pass_ms = |traced: bool| {
            median(&select(traced).map(|p| ms(p.1.wall + p.2.wall)).collect::<Vec<_>>())
        };
        layer.push(("telemetry.overhead_frac", pass_ms(true) / pass_ms(false) - 1.0));
        for (k, (name, _)) in per_pass[0].iter().enumerate() {
            layer.push((name, median(&per_pass.iter().map(|r| r[k].1).collect::<Vec<_>>())));
        }
        metrics = crate::per_layer(&layer);
        if let Err(e) = finish_trace(args, &mut ledger.spans) {
            problems.push(e);
        }
    }
    Ok(Outcome { tally, metrics, report, problems })
}

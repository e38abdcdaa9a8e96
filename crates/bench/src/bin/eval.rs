//! Regenerates the paper's evaluation tables and figures (DESIGN.md E1–E15).
//!
//! ```text
//! eval [TABLE] [--explain] [--trace-out PATH] [--log-json PATH] [--metrics]
//!      [--json PATH] [--check-baseline PATH] [--max-steps N] [--deadline-ms N]
//! eval fixpoint|fleet|obs|overload [--json PATH] [--check-baseline PATH]
//! eval compare A.json B.json
//! eval trace-check PATH
//! eval log-check FILE
//! eval oracle
//! ```
//!
//! `TABLE` is one of `derive|fig3|fig3-metrics|fig6|fig7|fig8|
//! generic-vs-specialized|precision|timing|modes|scaling|specs|interproc|
//! incr|certs|all` (default `all`). `incr` is the warm-vs-cold benchmark:
//! each engine certifies the E10 workload cold, warm (identical rerun), and
//! after a one-line single-method edit, through the content-addressed
//! certificate cache, reporting hit/miss counts and the wall-clock speedup.
//! `certs` is E11: every corpus benchmark's proof-carrying certificate is
//! emitted (full fixpoint) and re-checked (one `canvas-check` replay pass),
//! reporting both times and the certificate size.
//!
//! The experiments write one record shape, `canvas-bench/1` (see
//! `canvas_bench::record`): `eval` itself (E1/E4/E5/E10 with telemetry on),
//! `fixpoint` (E12), `fleet` (E15), `obs` (E13) and `overload` (E14).
//! `--json PATH` writes the run's record; `--check-baseline PATH` gates it
//! against a committed baseline — the record's deterministic section
//! against the baseline's key for the experiment, plus the record's
//! bounded checks — and exits 1 on a failure. `compare` diffs the
//! deterministic sections of two records of the same experiment (the CI
//! determinism check runs the evaluation twice and compares); it exits 2
//! when their schema or experiment differs. `--metrics` prints a telemetry
//! summary after the run.
//!
//! `--explain` switches the `fig3` table to the witness-trace rendering
//! (rustc-style labeled diagnostics). `--trace-out` collects structured
//! trace events during the run and writes them as Chrome Trace Format JSON;
//! `trace-check` validates such a file (valid JSON, >0 events) — CI runs it
//! against the bench-smoke artifact. `--log-json` streams the structured
//! `canvas-log/1` event log to a file at `info` level; `log-check`
//! validates such a file (schema fields, `(ts_ns, seq)` emit order).
//!
//! `--max-steps` / `--deadline-ms` install a process-wide resource budget:
//! every certifier the evaluation constructs inherits it, and engines whose
//! fixpoints exhaust it degrade to inconclusive verdicts instead of running
//! away. `oracle` runs the concrete-execution oracle on the Fig. 3 client
//! (exit 1 on an oracle error, e.g. a contained interpreter panic — the CI
//! fault-injection matrix drives this with `CANVAS_FAULT=oracle-death`).

use std::collections::BTreeMap;
use std::env;
use std::process::ExitCode;

use canvas_bench::record::Record;
use canvas_bench::{
    collect_eval_metrics, derivation_table, fmt_duration, json::Json, precision_table,
    render_derive, render_fig3, scaling_blocks, scaling_vars, PrecisionCell, FIG3,
};
use canvas_core::{Certifier, Engine};

/// Every table, in `all` order.
const TABLES: &[(&str, fn())] = &[
    ("derive", table_derive),
    ("fig3", table_fig3),
    ("fig3-metrics", table_fig3_metrics),
    ("fig6", figure_fig6),
    ("fig7", figure_fig7),
    ("fig8", figure_fig8),
    ("generic-vs-specialized", table_generic_vs_specialized),
    ("precision", table_precision),
    ("timing", table_timing),
    ("modes", table_modes),
    ("scaling", figure_scaling),
    ("specs", table_specs),
    ("interproc", table_interproc),
    ("incr", table_incr),
    ("certs", table_certs),
];

/// An experiment verb: runs, prints its table, and [`finish`]es its record.
type Experiment = fn(&RecordArgs) -> ExitCode;

const EXPERIMENTS: &[(&str, Experiment)] =
    &[("fixpoint", fixpoint), ("fleet", fleet), ("obs", obs), ("overload", overload)];

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return compare(&args[1..]),
        Some("trace-check") => return trace_check(&args[1..]),
        Some("log-check") => return log_check(&args[1..]),
        Some("oracle") => return oracle_check(),
        Some(verb) => {
            if let Some((_, run)) = EXPERIMENTS.iter().find(|(name, _)| *name == verb) {
                return match RecordArgs::parse(verb, &args[1..]) {
                    Ok(record_args) => run(&record_args),
                    Err(e) => {
                        eprintln!("{e}");
                        ExitCode::from(2)
                    }
                };
            }
        }
        None => {}
    }

    let mut table: Option<String> = None;
    let mut budget = canvas_faults::Budget::unlimited();
    let mut metrics = false;
    let mut explain = false;
    let mut trace_out: Option<String> = None;
    let mut record_args = RecordArgs::default();
    let mut i = 0;
    while i < args.len() {
        match record_args.take(&args, &mut i) {
            Ok(true) => {
                i += 1;
                continue;
            }
            Ok(false) => {}
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
        match args[i].as_str() {
            "--metrics" => metrics = true,
            "--explain" => explain = true,
            "--trace-out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => trace_out = Some(p.clone()),
                    None => {
                        eprintln!("--trace-out needs a path");
                        return ExitCode::from(2);
                    }
                }
            }
            "--log-json" => {
                i += 1;
                match args.get(i) {
                    Some(p) => {
                        if let Err(e) =
                            canvas_telemetry::events::log_to_file(std::path::Path::new(p))
                        {
                            eprintln!("cannot open log {p}: {e}");
                            return ExitCode::from(2);
                        }
                        canvas_telemetry::events::set_min_level(
                            canvas_telemetry::events::Level::Info,
                        );
                    }
                    None => {
                        eprintln!("--log-json needs a path");
                        return ExitCode::from(2);
                    }
                }
            }
            "--max-steps" | "--deadline-ms" => {
                let flag = args[i].clone();
                i += 1;
                let n: u64 = match args.get(i).map(|v| v.parse()) {
                    Some(Ok(n)) => n,
                    _ => {
                        eprintln!("{flag} needs a number");
                        return ExitCode::from(2);
                    }
                };
                budget = match flag.as_str() {
                    "--max-steps" => budget.with_max_steps(n),
                    _ => budget.with_deadline_ms(n),
                };
            }
            other if other.starts_with("--") => {
                eprintln!("unknown option {other:?}");
                return ExitCode::from(2);
            }
            other if other == "all" || TABLES.iter().any(|(name, _)| *name == other) => {
                table = Some(other.to_string())
            }
            other => {
                eprintln!("unknown table {other:?}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    if !budget.is_unlimited() {
        canvas_faults::set_process_budget(budget);
    }

    if record_args.json.is_some() || record_args.baseline.is_some() {
        let m = collect_eval_metrics();
        if metrics {
            print!("{}", m.snapshot);
        }
        if let Some(t) = &table {
            run_table(t, explain);
        }
        return finish(&canvas_bench::record(&m), &record_args);
    }

    if metrics {
        canvas_telemetry::set_enabled(true);
    }
    canvas_telemetry::trace::set_tracing(trace_out.is_some());
    run_table(table.as_deref().unwrap_or("all"), explain);
    if metrics {
        print!("{}", canvas_telemetry::snapshot());
    }
    if let Some(path) = &trace_out {
        let json = canvas_telemetry::trace::export_chrome_json();
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write trace {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote trace to {path}");
    }
    ExitCode::SUCCESS
}

/// `--json PATH` (write the run's record) and `--check-baseline PATH`
/// (gate it), shared by `eval` and every experiment verb.
#[derive(Default)]
struct RecordArgs {
    json: Option<String>,
    baseline: Option<String>,
}

impl RecordArgs {
    /// A verb's whole option list, which holds only these two flags.
    fn parse(verb: &str, args: &[String]) -> Result<RecordArgs, String> {
        let mut out = RecordArgs::default();
        let mut i = 0;
        while i < args.len() {
            if !out.take(args, &mut i)? {
                return Err(format!("unknown {verb} option {:?}", args[i]));
            }
            i += 1;
        }
        Ok(out)
    }

    /// Takes `args[*i]` and its operand when it is one of the two flags;
    /// `Ok(false)` leaves any other argument to the caller.
    fn take(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        let flag = args[*i].as_str();
        let slot = match flag {
            "--json" => &mut self.json,
            "--check-baseline" => &mut self.baseline,
            _ => return Ok(false),
        };
        *i += 1;
        *slot = Some(args.get(*i).ok_or_else(|| format!("{flag} needs a path"))?.clone());
        Ok(true)
    }
}

/// Writes the record to `--json`, gates it against `--check-baseline`, and
/// prints the outcome: exit 1 on a failed gate, 2 on an I/O error.
fn finish(record: &Record, args: &RecordArgs) -> ExitCode {
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, record.render()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    }
    let Some(path) = &args.baseline else {
        return ExitCode::SUCCESS;
    };
    let baseline = match read_json(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read baseline {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let fails = record.check(&baseline);
    if fails.is_empty() {
        println!(
            "baseline check: {} record matches {path}, {} check(s) within bounds",
            record.experiment,
            record.checks.len()
        );
        return ExitCode::SUCCESS;
    }
    eprintln!("{} record fails against {path}:", record.experiment);
    for f in &fails {
        eprintln!("  {f}");
    }
    eprintln!("({} failure(s); measured values are gated only by their checks)", fails.len());
    ExitCode::FAILURE
}

fn read_json(path: &str) -> Result<Json, String> {
    std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|text| Json::parse(&text))
}

/// `eval fixpoint`: E12 — the bit-parallel FDS kernel vs the per-bit
/// reference on a scaling sweep, plus the within-method delta re-solve on
/// the E10 edit workload. Its work-unit counters are baseline-gated; wall
/// times are recorded, never gated.
fn fixpoint(args: &RecordArgs) -> ExitCode {
    use canvas_bench::fixpoint::{collect_fixpoint_metrics, record, render_fixpoint};
    let m = collect_fixpoint_metrics();
    print!("{}", render_fixpoint(&m));
    finish(&record(&m), args)
}

/// `eval fleet`: E15 — shard sweep (1/2/4/8) over a fixed synthetic corpus
/// plus a cold->warm certificate-store pair. Verdicts, digests and
/// warm-run misses are baseline-gated.
fn fleet(args: &RecordArgs) -> ExitCode {
    use canvas_bench::fleet::{collect_fleet_metrics, record, render_fleet};
    let m = collect_fleet_metrics();
    print!("{}", render_fleet(&m));
    finish(&record(&m), args)
}

/// `eval obs`: E13 — telemetry overhead under disabled/enabled/scoped modes
/// and log₂-histogram quantile fidelity. Its checks are the overhead
/// ceilings and the factor-2 quantile bound (the CI obs-smoke gate).
fn obs(args: &RecordArgs) -> ExitCode {
    use canvas_bench::obs::{collect_obs, record, render_obs};
    let report = collect_obs();
    print!("{}", render_obs(&report));
    finish(&record(&report), args)
}

/// `eval overload`: E14 — the open-loop overload sweep against an
/// in-process `canvas serve` TCP daemon at 1x/4x/16x the calibrated
/// capacity. Its checks are the robustness shape: no lost response, cache
/// within budget, ≤ 2% shed at 1x, sheds at 16x, a bounded admitted p99.
fn overload(args: &RecordArgs) -> ExitCode {
    use canvas_bench::overload::{collect_overload, record, render_overload};
    let report = match collect_overload() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("overload harness failed: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", render_overload(&report));
    finish(&record(&report), args)
}

/// `eval log-check FILE`: exit 1 unless `FILE` is a valid `canvas-log/1`
/// NDJSON stream in emit order (the CI obs-smoke gate for `--log-json`).
fn log_check(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("usage: eval log-check FILE");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match canvas_bench::obs::check_log_text(&text) {
        Ok(n) => {
            println!("log check: {n} canvas-log/1 record(s), (ts_ns, seq)-ordered");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("log check failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `eval oracle`: run the concrete-execution oracle on the Fig. 3 client.
/// Exit 1 on an oracle error (no main, spawn failure, or a contained
/// interpreter panic — the injected `oracle-death` fault lands here).
fn oracle_check() -> ExitCode {
    use canvas_suite::oracle::{explore, OracleConfig};
    let spec = canvas_easl::builtin::cmp();
    let program = match canvas_minijava::Program::parse(FIG3, &spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("eval oracle: fig3 does not parse: {e}");
            return ExitCode::FAILURE;
        }
    };
    match explore(&program, &spec, OracleConfig::default()) {
        Ok(r) => {
            println!(
                "oracle: {} violation line(s) {:?}, {} path(s), truncated: {}",
                r.violation_lines.len(),
                r.violation_lines,
                r.paths,
                r.truncated
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("eval oracle: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `eval trace-check PATH`: exit 1 unless `PATH` is a valid Chrome Trace
/// Format document with at least one event (the CI bench-smoke gate).
fn trace_check(paths: &[String]) -> ExitCode {
    let [path] = paths else {
        eprintln!("usage: eval trace-check PATH");
        return ExitCode::from(2);
    };
    let doc = match read_json(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match doc.get("traceEvents") {
        Some(Json::Arr(events)) if !events.is_empty() => {
            println!("{path}: valid Chrome Trace JSON with {} event(s)", events.len());
            ExitCode::SUCCESS
        }
        Some(Json::Arr(_)) => {
            eprintln!("{path}: traceEvents is empty");
            ExitCode::FAILURE
        }
        _ => {
            eprintln!("{path}: missing traceEvents array");
            ExitCode::FAILURE
        }
    }
}

/// `eval compare A.json B.json`: exit 1 when the deterministic sections of
/// two records differ, 2 when they are not records of the same experiment.
fn compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("usage: eval compare A.json B.json");
        return ExitCode::from(2);
    };
    let read = |path: &String| read_json(path).and_then(|doc| Record::from_json(&doc));
    let (ra, rb) = match (read(a), read(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("not a comparable record: {e}");
            return ExitCode::from(2);
        }
    };
    if ra.experiment != rb.experiment {
        eprintln!("{a} is a {:?} record, {b} a {:?} record", ra.experiment, rb.experiment);
        return ExitCode::from(2);
    }
    let drift = canvas_bench::json::diff(&ra.deterministic, &rb.deterministic);
    if drift.is_empty() {
        println!("deterministic metrics identical: {a} == {b}");
        ExitCode::SUCCESS
    } else {
        eprintln!("deterministic metrics differ between {a} and {b}:");
        for d in &drift {
            eprintln!("  {d}");
        }
        ExitCode::FAILURE
    }
}

fn run_table(what: &str, explain: bool) {
    match what {
        "fig3" if explain => print!("{}", canvas_bench::render_fig3_explained()),
        "all" => TABLES.iter().for_each(|(_, table)| table()),
        _ => {
            let (_, table) =
                TABLES.iter().find(|(name, _)| *name == what).expect("validated during parsing");
            table()
        }
    }
}

fn header(title: &str) {
    println!();
    println!("== {title} ==");
    println!();
}

/// E1: the derived abstraction for CMP (paper Figs. 4–5).
fn table_derive() {
    print!("{}", render_derive());
}

/// E2: the Fig. 3 walkthrough.
fn table_fig3() {
    print!("{}", render_fig3());
}

/// E2 counters: deterministic work per engine on Fig. 3 (golden-tested).
fn table_fig3_metrics() {
    print!("{}", canvas_bench::render_fig3_metrics());
}

/// The paper's Fig. 6: the transformed boolean client program for Fig. 3.
fn figure_fig6() {
    header("Fig. 6: the transformed (boolean) client program for Fig. 3");
    let spec = canvas_easl::builtin::cmp();
    let derived = canvas_wp::derive_abstraction(&spec).expect("cmp derives");
    let program = canvas_minijava::Program::parse(FIG3, &spec).expect("fig3 parses");
    let main = program.main_method().expect("main");
    let bp = canvas_abstraction::transform_method(
        &program,
        main,
        &spec,
        &derived,
        canvas_abstraction::EntryAssumption::Clean,
    );
    print!("{}", bp.dump(&program, &derived));
}

/// The paper's Fig. 7: storage shape graphs before/after `i1.remove()`
/// under the *generic* translation — the two version objects merge.
fn figure_fig7() {
    header("Fig. 7: generic shape graphs around i1.remove() (version objects merge)");
    let spec = canvas_easl::builtin::cmp();
    let program = canvas_minijava::Program::parse(FIG3, &spec).expect("fig3 parses");
    let main = program.main_method().expect("main");
    let tvp = canvas_tvla::translate_generic(&program, main, &spec);
    let (_, states) = canvas_tvla::run_collect(&tvp, canvas_tvla::EngineMode::Relational, 50_000);
    // locate the remove edge in the IR (same node ids as the TVP prefix)
    let (before, after) = remove_nodes(&program);
    println!("before i1.remove() ({} structure(s)):", states[before].len());
    for s in &states[before] {
        print!("{}", canvas_tvla::render_structure(s, &tvp.preds));
        println!("  --");
    }
    println!("after i1.remove() ({} structure(s)):", states[after].len());
    for s in &states[after] {
        print!("{}", canvas_tvla::render_structure(s, &tvp.preds));
        println!("  --");
    }
}

/// The paper's Fig. 8: the nullary abstract state before/after
/// `i1.remove()` under the *specialized* certifier.
fn figure_fig8() {
    header("Fig. 8: specialized abstract state around i1.remove()");
    let spec = canvas_easl::builtin::cmp();
    let derived = canvas_wp::derive_abstraction(&spec).expect("cmp derives");
    let program = canvas_minijava::Program::parse(FIG3, &spec).expect("fig3 parses");
    let main = program.main_method().expect("main");
    let bp = canvas_abstraction::transform_method(
        &program,
        main,
        &spec,
        &derived,
        canvas_abstraction::EntryAssumption::Clean,
    );
    let rel = canvas_dataflow::relational::analyze(&bp, 1 << 14).expect("fig3 is tiny");
    let (before, after) = remove_nodes(&program);
    for (label, node) in [("before", before), ("after", after)] {
        println!("{label} i1.remove():");
        for val in &rel.states[node] {
            let mut parts = Vec::new();
            for k in 0..bp.preds.len() {
                parts.push(format!(
                    "{}={}",
                    bp.pred_name(k, &program, &derived),
                    u8::from(val.get(k))
                ));
            }
            println!("  {}", parts.join("  "));
        }
    }
}

/// The CFG nodes immediately before and after the `i1.remove()` call.
fn remove_nodes(program: &canvas_minijava::Program) -> (usize, usize) {
    let main = program.main_method().expect("main");
    for e in main.cfg.edges() {
        if let canvas_minijava::Instr::CallComponent { method, at, .. } = &e.instr {
            if method == "remove" && at.what.starts_with("i1") {
                return (e.from.0, e.to.0);
            }
        }
    }
    unreachable!("fig3 contains i1.remove()")
}

/// E3: generic vs specialized on the two killer examples.
fn table_generic_vs_specialized() {
    header("E3: generic baselines vs the specialized certifier (§3, §4.4)");
    let c = Certifier::from_spec(canvas_easl::builtin::cmp()).expect("cmp derives");
    let loop_src = r#"
class Main {
    static void main() {
        Set s = new Set();
        while (true) {
            s.add("x");
            for (Iterator i = s.iterator(); i.hasNext(); ) { i.next(); }
        }
    }
}
"#;
    println!("version-loop (safe):");
    for engine in [Engine::ScmpFds, Engine::GenericAllocSite, Engine::GenericSsgRelational] {
        let r = c.certify_source(loop_src, engine).expect("runs");
        println!("  {:<26} -> {} false alarm(s)", engine.to_string(), r.violations.len());
    }
    println!("fig3 line 11 (safe use of i3):");
    for engine in [Engine::ScmpFds, Engine::GenericAllocSite, Engine::GenericSsgRelational] {
        let r = c.certify_source(FIG3, engine).expect("runs");
        let fa = r.lines().contains(&11);
        println!("  {:<26} -> {}", engine.to_string(), if fa { "FALSE ALARM" } else { "exact" });
    }
}

fn cells_by_engine(cells: &[PrecisionCell]) -> BTreeMap<String, Vec<&PrecisionCell>> {
    let mut out: BTreeMap<String, Vec<&PrecisionCell>> = BTreeMap::new();
    for c in cells {
        out.entry(c.engine.to_string()).or_default().push(c);
    }
    out
}

/// E4: the precision table.
fn table_precision() {
    header("E4: precision per benchmark x engine (reported / real / false alarms)");
    let cells = precision_table();
    // wide table: benchmarks as rows, engines as columns (abbreviated)
    let engines: Vec<Engine> = Engine::all();
    print!("{:<20} {:>5}", "benchmark", "real");
    for e in &engines {
        print!(" {:>12}", e.abbrev());
    }
    println!();
    let mut names: Vec<&'static str> = cells.iter().map(|c| c.benchmark).collect();
    names.dedup();
    for name in names {
        let real = cells.iter().find(|c| c.benchmark == name).map(|c| c.real).unwrap_or_default();
        print!("{name:<20} {real:>5}");
        for e in &engines {
            let cell = cells
                .iter()
                .find(|c| c.benchmark == name && c.engine == *e)
                .expect("every cell present");
            let s = match &cell.failed {
                Some(_) if cell.poisoned => "poisoned".to_string(),
                Some(_) => "budget".to_string(),
                None => format!("{}+{}fa", cell.reported - cell.false_alarms, cell.false_alarms),
            };
            print!(" {s:>12}");
        }
        println!();
    }
    // summary
    println!();
    for (engine, cs) in cells_by_engine(&cells) {
        let ok: Vec<_> = cs.iter().filter(|c| c.failed.is_none()).collect();
        let fa: usize = ok.iter().map(|c| c.false_alarms).sum();
        let missed: usize = ok.iter().map(|c| c.missed).sum();
        let poisoned = cs.iter().filter(|c| c.poisoned).count();
        let failed = cs.len() - ok.len() - poisoned;
        print!(
            "{engine:<26} false alarms: {fa:>3}   missed: {missed:>2}   budget failures: {failed}"
        );
        if poisoned > 0 {
            print!("   poisoned: {poisoned}");
        }
        println!();
    }
}

/// E5: the timing table, plus the deterministic work counters behind it.
fn table_timing() {
    header("E5: analysis time per benchmark x engine");
    let cells = precision_table();
    let engines: Vec<Engine> = Engine::all();
    print!("{:<20}", "benchmark");
    for e in &engines {
        print!(" {:>10}", e.abbrev());
    }
    println!();
    let mut names: Vec<&'static str> = cells.iter().map(|c| c.benchmark).collect();
    names.dedup();
    for name in &names {
        print!("{name:<20}");
        for e in &engines {
            let cell = cells
                .iter()
                .find(|c| c.benchmark == *name && c.engine == *e)
                .expect("every cell present");
            let s = match &cell.failed {
                Some(_) => "-".to_string(),
                None => fmt_duration(cell.time),
            };
            print!(" {s:>10}");
        }
        println!();
    }
    // the deterministic work counters the timings are made of (same layout;
    // these are what CI gates against bench/baseline.json)
    println!();
    println!("work units (deterministic) per benchmark x engine:");
    print!("{:<20}", "benchmark");
    for e in &engines {
        print!(" {:>10}", e.abbrev());
    }
    println!();
    for name in &names {
        print!("{name:<20}");
        for e in &engines {
            let cell = cells
                .iter()
                .find(|c| c.benchmark == *name && c.engine == *e)
                .expect("every cell present");
            let s = match &cell.failed {
                Some(_) => "-".to_string(),
                None => cell.work.to_string(),
            };
            print!(" {s:>10}");
        }
        println!();
    }
}

/// E6: relational vs independent-attribute TVLA (the §7 observation).
fn table_modes() {
    header("E6: TVLA relational vs independent-attribute (same precision per §7)");
    let cells = precision_table();
    let mut names: Vec<&'static str> = cells.iter().map(|c| c.benchmark).collect();
    names.dedup();
    let mut diff = 0;
    for name in names {
        let rel = cells
            .iter()
            .find(|c| c.benchmark == name && c.engine == Engine::TvlaRelational)
            .expect("cell");
        let ind = cells
            .iter()
            .find(|c| c.benchmark == name && c.engine == Engine::TvlaIndependent)
            .expect("cell");
        let same = rel.reported == ind.reported && rel.false_alarms == ind.false_alarms;
        if !same {
            diff += 1;
        }
        println!(
            "{name:<20} relational {} ({}fa, {})  independent {} ({}fa, {})  {}",
            rel.reported,
            rel.false_alarms,
            fmt_duration(rel.time),
            ind.reported,
            ind.false_alarms,
            fmt_duration(ind.time),
            if same { "same" } else { "DIFFER" }
        );
    }
    println!("\nbenchmarks where the modes differ in precision: {diff}");
}

/// E7: the scaling figure (printed series).
fn figure_scaling() {
    header("E7: FDS certifier scaling (polynomial in E and B)");
    println!("sweep client size (blocks of sets+iterators):");
    println!("{:>8} {:>8} {:>8} {:>10} {:>10}", "blocks", "edges", "preds", "work", "time");
    for p in scaling_blocks(&[2, 4, 8, 16, 32, 64, 128]) {
        println!(
            "{:>8} {:>8} {:>8} {:>10} {:>10}",
            p.param,
            p.edges,
            p.predicates,
            p.work,
            fmt_duration(p.time)
        );
    }
    println!("\nsweep component variables (iterator ring; preds grow ~B^2):");
    println!("{:>8} {:>8} {:>8} {:>10} {:>10}", "vars", "edges", "preds", "work", "time");
    for p in scaling_vars(&[2, 4, 8, 16, 32, 64]) {
        println!(
            "{:>8} {:>8} {:>8} {:>10} {:>10}",
            p.param,
            p.edges,
            p.predicates,
            p.work,
            fmt_duration(p.time)
        );
    }
}

/// E8: derivation convergence and the mutation-restricted class.
fn table_specs() {
    header("E8: spec classification and derivation convergence (§6)");
    for row in derivation_table() {
        println!(
            "{:<4} {:?}: {} families, converged (rounds: {:?})",
            row.spec,
            row.class,
            row.families.len(),
            row.rounds
        );
    }
    let unbounded = canvas_easl::builtin::unbounded();
    println!(
        "unbounded (adversarial) {:?}: derivation -> {}",
        canvas_easl::classify(&unbounded),
        match canvas_wp::derive_with_budget(&unbounded, 8) {
            Ok(_) => "converged (unexpected!)".to_string(),
            Err(e) => format!("{e}"),
        }
    );
}

/// E10: incremental certification — cold vs warm vs edited-one-method.
fn table_incr() {
    print!("{}", canvas_bench::render_incr());
}

/// E11: proof-carrying certificates — emit cost vs replay-check cost vs size.
fn table_certs() {
    print!("{}", canvas_bench::render_certs());
}

/// E9: interprocedural certification.
fn table_interproc() {
    header("E9: context-sensitive interprocedural SCMP (§8)");
    let cells = precision_table();
    for name in [
        "make-worklist",
        "interproc-grow",
        "interproc-other-set",
        "interproc-returned",
        "app-cache",
    ] {
        for engine in [Engine::ScmpFds, Engine::ScmpInterproc] {
            if let Some(cell) = cells.iter().find(|c| c.benchmark == name && c.engine == engine) {
                println!(
                    "{name:<22} {:<16} real {}  reported {}  false alarms {}",
                    engine.to_string(),
                    cell.real,
                    cell.reported,
                    cell.false_alarms
                );
            }
        }
    }
    println!("\n(the intraprocedural engine is sound but must havoc across calls;");
    println!(" the §8 engine removes exactly those false alarms)");
}

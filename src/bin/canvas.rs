//! `canvas` — the command-line certifier.
//!
//! ```text
//! canvas derive  --spec <cmp|grp|imp|aop|PATH.easl> [--metrics] [--log-json PATH]
//! canvas certify --spec <...> [--engine <name>] [--whole-program|--inline]
//!                [--explain] [--trace-out PATH] [--metrics] [--log-json PATH]
//!                [--max-steps N] [--deadline-ms N]
//!                [--emit-cert PATH] CLIENT.mj
//! canvas check   --spec <...> [--metrics] [--log-json PATH] CERT CLIENT.mj
//! canvas serve   [--threads N] [--cache-dir DIR | --no-cache] [--log-json PATH]
//! canvas fleet gen --out DIR [--programs N] [--seed N] [--violation-rate R] [--force]
//! canvas fleet run --corpus DIR [--shards N] [--cache-dir DIR] [--report PATH]
//! canvas engines
//! canvas specs
//! ```
//!
//! `--metrics` enables pipeline telemetry and prints a summary (counters,
//! timers) after the command's normal output. `--explain` records per-fact
//! provenance during the analysis and renders each violation as a
//! rustc-style labeled diagnostic with its witness trace. `--trace-out`
//! records solver/certification trace events and writes them as Chrome
//! Trace Format JSON (loadable in Perfetto / `chrome://tracing`).
//! `--log-json` streams the structured event log as `canvas-log/1`
//! newline-delimited JSON to a file (threshold lowered to `info`);
//! warnings and errors keep their stderr rendering either way.
//!
//! `--max-steps` and `--deadline-ms` bound the engine fixpoints through the
//! resource governor (`canvas-faults`): when a budget trips, the engine
//! degrades to an inconclusive verdict instead of running away.
//!
//! `certify --whole-program --emit-cert PATH` writes a proof-carrying
//! certificate: the engine's fixpoint solution in the versioned
//! `canvas-cert/1` byte-stable format, bound by digest to the exact client
//! source, spec, and derived abstraction. `canvas check CERT CLIENT.mj`
//! revalidates it with the engine-free `canvas-check` crate — single-pass
//! post-fixpoint replay, no fixpoint iteration, no engine code trusted —
//! and exits 0 (valid, certified), 1 (valid, violations confirmed), or
//! 2 (rejected: mutated, truncated, or inconsistent).
//!
//! `certify --whole-program --cache-dir DIR` certifies through the
//! content-addressed certificate cache: unchanged `(method, entry, engine)`
//! cells are answered from `DIR` instead of re-analysed. `canvas serve`
//! runs the long-lived certification daemon: newline-delimited JSON
//! requests on stdin, one response line each on stdout (see
//! `canvas_incr::service`), sharing one warm cache across concurrent
//! requests (default `.canvas-cache/`; `--no-cache` keeps it in memory).
//!
//! `canvas fleet gen` materializes a deterministic, seed-parameterized
//! synthetic corpus (with a `canvas-fleet-manifest/1` manifest recording
//! per-file fingerprints and ground truth); it refuses an existing output
//! directory without `--force`. `canvas fleet run` certifies a corpus
//! across sharded, work-stealing in-process workers, merging the
//! per-shard certificate caches losslessly into `--cache-dir` at the end,
//! and prints the aggregated fleet report (`--report` also writes it as
//! a `canvas-bench/1` record of experiment `fleet-run`).
//!
//! Exit status: 0 = certified conformant, 1 = potential violations found,
//! 2 = usage/spec/client/engine error, 3 = analysis inconclusive (resource
//! budget exhausted before a verdict was reached; for `fleet run`, also any
//! poisoned program or dead shard).

use std::process::ExitCode;

use canvas_core::{CanvasError, Certifier, Engine, Stage};
use canvas_faults::Budget;
use canvas_incr::service::{load_spec, serve, ServeConfig};
use canvas_incr::store::CertCache;
use canvas_incr::IncrementalCertifier;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("canvas: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, CanvasError> {
    let mut it = args.iter();
    let cmd = it.next().map(String::as_str).unwrap_or("help");
    match cmd {
        "engines" => {
            for e in canvas_core::registry() {
                println!(
                    "{:<26} {}",
                    e.name(),
                    if e.specialized() { "derived abstraction" } else { "generic baseline" }
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "derive" => {
            let opts = parse_opts(it.as_slice())?;
            canvas_telemetry::set_enabled(opts.metrics);
            init_log_json(opts.log_json.as_deref())?;
            let spec = load_spec(&opts.spec)?;
            println!("specification {} ({:?})", spec.name(), canvas_easl::classify(&spec));
            let certifier = Certifier::from_spec(spec)?;
            println!("derived instrumentation-predicate families:");
            for f in certifier.derived().families() {
                println!("  {f}");
            }
            let stats = certifier.derived().stats();
            println!(
                "derivation: {} WP computations, {} equivalence checks, converged in {} rounds",
                stats.wp_count,
                stats.equiv_checks,
                stats.families_discovered.len()
            );
            if opts.metrics {
                print!("{}", canvas_telemetry::snapshot());
            }
            Ok(ExitCode::SUCCESS)
        }
        "certify" => {
            let opts = parse_opts(it.as_slice())?;
            canvas_telemetry::set_enabled(opts.metrics);
            init_log_json(opts.log_json.as_deref())?;
            canvas_telemetry::trace::set_tracing(opts.trace_out.is_some());
            let client_path = opts
                .client
                .as_deref()
                .ok_or_else(|| CanvasError::usage("certify needs a client file argument"))?;
            let source = std::fs::read_to_string(client_path)
                .map_err(|e| CanvasError::io(Stage::ClientFrontend, client_path, &e))?;
            let spec = load_spec(&opts.spec)?;
            let certifier =
                Certifier::from_spec(spec)?.with_explain(opts.explain).with_budget(opts.budget);
            let program = {
                let _parse_phase = canvas_telemetry::phase::PARSE.span();
                canvas_minijava::Program::parse(&source, certifier.spec())
                    .map_err(|e| CanvasError::client(&e))?
            };
            if opts.emit_cert.is_some() && !opts.whole_program {
                return Err(CanvasError::usage("--emit-cert requires --whole-program"));
            }
            let mut certificate: Option<canvas_abstraction::Certificate> = None;
            let report = if opts.inline {
                certifier.certify_inlined(&program, opts.engine)?
            } else if let Some(dir) = &opts.cache_dir {
                if !opts.whole_program {
                    return Err(CanvasError::usage("--cache-dir requires --whole-program"));
                }
                let inc = IncrementalCertifier::new(
                    certifier,
                    CertCache::open(std::path::Path::new(dir)),
                );
                let (report, stats) = if opts.emit_cert.is_some() {
                    let (report, cert, stats) = inc
                        .certify_program_certified(&source, &program, opts.engine)
                        .map_err(CanvasError::from)?;
                    certificate = Some(cert);
                    (report, stats)
                } else {
                    inc.certify_program_cached_with_stats(&program, opts.engine)
                        .map_err(CanvasError::from)?
                };
                inc.persist()?;
                eprintln!(
                    "canvas: certificate cache: {} hit(s), {} miss(es)",
                    stats.hits, stats.misses
                );
                report
            } else if opts.whole_program {
                if opts.emit_cert.is_some() {
                    let (report, cert) =
                        certifier.certify_with_certificate(&source, &program, opts.engine)?;
                    certificate = Some(cert);
                    report
                } else {
                    certifier.certify_program(&program, opts.engine)?
                }
            } else {
                certifier.certify(&program, opts.engine)?
            };
            if opts.explain {
                print!("{}", report.render_explained(client_path, &source));
            } else {
                print!("{report}");
            }
            if opts.metrics {
                print!("{}", canvas_telemetry::snapshot());
            }
            if let Some(path) = &opts.trace_out {
                let json = canvas_telemetry::trace::export_chrome_json();
                std::fs::write(path, &json).map_err(|e| CanvasError::io(Stage::Cli, path, &e))?;
                eprintln!("canvas: wrote trace to {path}");
            }
            if let Some(path) = &opts.emit_cert {
                let cert = certificate
                    .as_ref()
                    .ok_or_else(|| CanvasError::usage("--emit-cert requires --whole-program"))?;
                std::fs::write(path, cert.to_text())
                    .map_err(|e| CanvasError::io(Stage::Cli, path, &e))?;
                eprintln!(
                    "canvas: wrote certificate to {path} ({}checkable, {} cell(s))",
                    if cert.checkable() { "" } else { "not " },
                    cert.cells.len()
                );
            }
            Ok(if report.is_inconclusive() {
                ExitCode::from(3)
            } else if report.certified() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        "check" => {
            let mut spec_name = "cmp".to_string();
            let mut metrics = false;
            let mut log_json: Option<String> = None;
            let mut positional: Vec<&str> = Vec::new();
            let mut it = it.clone();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--spec" => {
                        spec_name = it
                            .next()
                            .ok_or_else(|| CanvasError::usage("--spec needs a value"))?
                            .clone();
                    }
                    "--metrics" => metrics = true,
                    "--log-json" => {
                        log_json = Some(
                            it.next()
                                .ok_or_else(|| CanvasError::usage("--log-json needs a path"))?
                                .clone(),
                        );
                    }
                    other if other.starts_with("--") => {
                        return Err(CanvasError::usage(format!("unknown check option {other:?}")));
                    }
                    other => positional.push(other),
                }
            }
            canvas_telemetry::set_enabled(metrics);
            init_log_json(log_json.as_deref())?;
            let [cert_path, client_path] = positional[..] else {
                return Err(CanvasError::usage("check needs CERT and CLIENT.mj arguments"));
            };
            let cert_text = std::fs::read_to_string(cert_path)
                .map_err(|e| CanvasError::io(Stage::Cli, cert_path, &e))?;
            let source = std::fs::read_to_string(client_path)
                .map_err(|e| CanvasError::io(Stage::ClientFrontend, client_path, &e))?;
            let spec = load_spec(&spec_name)?;
            // Re-deriving the abstraction from the spec is part of the trusted
            // recomputation: the certificate's digests are compared against
            // what *this* binary derives, not against what the emitter claims.
            let certifier = Certifier::from_spec(spec)?;
            // `canvas-check` is the engine-free trusted base and carries no
            // telemetry dependency, so the replay phase is timed here at the
            // call site instead.
            let outcome = {
                let _replay_phase = canvas_telemetry::phase::CHECK_REPLAY.span();
                canvas_check::check_text(&source, certifier.spec(), certifier.derived(), &cert_text)
            };
            let code = match outcome {
                Ok(outcome) => {
                    let s = &outcome.stats;
                    if outcome.certified {
                        println!(
                            "certificate valid: {client_path} certified conformant with {}",
                            certifier.spec().name()
                        );
                    } else {
                        println!(
                            "certificate valid: {} potential violation(s) confirmed",
                            outcome.violations.len()
                        );
                        for v in &outcome.violations {
                            println!(
                                "  {}:{}:{} {} in {}",
                                client_path, v.line, v.col, v.what, v.method
                            );
                        }
                    }
                    eprintln!(
                        "canvas: replayed {} cell(s), {} edge(s), {} transfer(s)",
                        s.cells, s.edges_replayed, s.transfers
                    );
                    if outcome.certified {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    canvas_telemetry::events::error(
                        "canvas.check",
                        format!("certificate rejected: {e}"),
                    );
                    ExitCode::from(2)
                }
            };
            if metrics {
                print!("{}", canvas_telemetry::snapshot());
            }
            Ok(code)
        }
        "specs" => {
            let mut specs = canvas_easl::builtin::all();
            specs.push(canvas_easl::builtin::unbounded());
            println!("{:<12} {:<20} {:<8} {:<8} derivation", "name", "class", "classes", "methods");
            for spec in &specs {
                let class = canvas_easl::classify(spec);
                println!(
                    "{:<12} {:<20} {:<8} {:<8} {}",
                    spec.name(),
                    format!("{class:?}"),
                    spec.classes().len(),
                    spec.classes().iter().map(|c| c.methods().len()).sum::<usize>(),
                    if class.derivation_terminates() {
                        "guaranteed to terminate"
                    } else {
                        "budgeted (no termination guarantee)"
                    }
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "serve" => {
            let mut workers = canvas_suite::worker_count(usize::MAX);
            let mut cache_dir = Some(".canvas-cache".to_string());
            let mut log_json: Option<String> = None;
            let mut listen: Option<String> = None;
            let mut config = ServeConfig::default();
            let mut it = it.clone();
            let parse_u64 = |flag: &str, n: &String| -> Result<u64, CanvasError> {
                n.parse().map_err(|_| CanvasError::usage(format!("{flag}: not a number: {n:?}")))
            };
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--log-json" => {
                        log_json = Some(
                            it.next()
                                .ok_or_else(|| CanvasError::usage("--log-json needs a path"))?
                                .clone(),
                        );
                    }
                    "--threads" => {
                        let n = it
                            .next()
                            .ok_or_else(|| CanvasError::usage("--threads needs a number"))?;
                        workers = n.parse().map_err(|_| {
                            CanvasError::usage(format!("--threads: not a number: {n:?}"))
                        })?;
                        if workers == 0 {
                            return Err(CanvasError::usage("--threads must be at least 1"));
                        }
                    }
                    "--cache-dir" => {
                        cache_dir = Some(
                            it.next()
                                .ok_or_else(|| CanvasError::usage("--cache-dir needs a path"))?
                                .clone(),
                        );
                    }
                    "--no-cache" => cache_dir = None,
                    "--listen" => {
                        listen = Some(
                            it.next()
                                .ok_or_else(|| CanvasError::usage("--listen needs HOST:PORT"))?
                                .clone(),
                        );
                    }
                    "--cache-bytes" => {
                        let n = it
                            .next()
                            .ok_or_else(|| CanvasError::usage("--cache-bytes needs a size"))?;
                        config.cache_bytes = Some(parse_byte_size(n)?);
                    }
                    "--queue" => {
                        let n =
                            it.next().ok_or_else(|| CanvasError::usage("--queue needs a size"))?;
                        config.queue_cap = parse_u64("--queue", n)?.max(1) as usize;
                    }
                    "--tenant-burst" => {
                        let n = it
                            .next()
                            .ok_or_else(|| CanvasError::usage("--tenant-burst needs a count"))?;
                        config.tenant_burst = parse_u64("--tenant-burst", n)?;
                    }
                    "--tenant-rate" => {
                        let n = it
                            .next()
                            .ok_or_else(|| CanvasError::usage("--tenant-rate needs a rate"))?;
                        config.tenant_rate = parse_u64("--tenant-rate", n)?;
                    }
                    "--deadline-ms" => {
                        let n = it
                            .next()
                            .ok_or_else(|| CanvasError::usage("--deadline-ms needs a number"))?;
                        config.default_deadline_ms = Some(parse_u64("--deadline-ms", n)?);
                    }
                    "--write-timeout-ms" => {
                        let n = it.next().ok_or_else(|| {
                            CanvasError::usage("--write-timeout-ms needs a number")
                        })?;
                        config.write_timeout_ms = parse_u64("--write-timeout-ms", n)?.max(1);
                    }
                    "--max-line-bytes" => {
                        let n = it
                            .next()
                            .ok_or_else(|| CanvasError::usage("--max-line-bytes needs a size"))?;
                        config.max_line_bytes = parse_byte_size(n)?.max(1) as usize;
                    }
                    other => {
                        return Err(CanvasError::usage(format!("unknown serve option {other:?}")))
                    }
                }
            }
            init_log_json(log_json.as_deref())?;
            config.workers = workers;
            config.cache_dir = cache_dir.map(std::path::PathBuf::from);
            if let Some(addr) = listen {
                canvas_conformance::incr::net::serve_listen(addr.as_str(), &config)?;
            } else {
                let stdin = std::io::stdin();
                serve(stdin.lock(), std::io::stdout(), &config)?;
            }
            canvas_telemetry::events::close_file();
            Ok(ExitCode::SUCCESS)
        }
        "fleet" => fleet(it.as_slice()),
        _ => {
            println!(
                "usage:\n  canvas derive  --spec <cmp|grp|imp|aop|PATH.easl> [--metrics] \
                 [--log-json PATH]\n  \
                 canvas certify --spec <...> [--engine <name>] [--whole-program|--inline] \
                 [--explain] [--trace-out PATH] [--metrics] [--log-json PATH] \
                 [--max-steps N] [--deadline-ms N] [--cache-dir DIR] \
                 [--emit-cert PATH] CLIENT.mj\n  \
                 canvas check   --spec <...> [--metrics] [--log-json PATH] CERT CLIENT.mj\n  \
                 canvas serve   [--listen HOST:PORT] [--threads N] [--queue N] \
                 [--cache-dir DIR | --no-cache] [--cache-bytes N[k|m|g]] \
                 [--tenant-burst N] [--tenant-rate N] [--deadline-ms N] \
                 [--write-timeout-ms N] [--max-line-bytes N[k|m|g]] \
                 [--log-json PATH]\n  \
                 canvas fleet gen --out DIR [--programs N] [--seed N] [--max-methods N] \
                 [--max-loop-depth N] [--violation-rate R] [--threads N] [--force]\n  \
                 canvas fleet run --corpus DIR [--shards N] [--engine <name>] [--spec <name>] \
                 [--cache-dir DIR] [--report PATH]\n  \
                 canvas engines\n  \
                 canvas specs"
            );
            Ok(ExitCode::from(2))
        }
    }
}

/// The `canvas fleet` verb: `gen` materializes a seeded synthetic corpus,
/// `run` certifies a corpus across sharded in-process workers with merged
/// certificate caches.
fn fleet(args: &[String]) -> Result<ExitCode, CanvasError> {
    use canvas_fleet::{driver, gen, manifest};
    let mut it = args.iter();
    let sub = it.next().map(String::as_str).unwrap_or("");
    let need = |flag: &str, v: Option<&String>| -> Result<String, CanvasError> {
        v.cloned().ok_or_else(|| CanvasError::usage(format!("{flag} needs a value")))
    };
    let parse_usize = |flag: &str, n: &str| -> Result<usize, CanvasError> {
        n.parse().map_err(|_| CanvasError::usage(format!("{flag}: not a number: {n:?}")))
    };
    match sub {
        "gen" => {
            let mut out: Option<String> = None;
            let mut params = gen::GenParams::default();
            let mut threads: Option<usize> = None;
            let mut force = false;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--out" => out = Some(need("--out", it.next())?),
                    "--programs" => {
                        params.programs =
                            parse_usize("--programs", &need("--programs", it.next())?)?;
                    }
                    "--seed" => {
                        let n = need("--seed", it.next())?;
                        params.seed = n.parse().map_err(|_| {
                            CanvasError::usage(format!("--seed: not a number: {n:?}"))
                        })?;
                    }
                    "--max-methods" => {
                        params.max_methods =
                            parse_usize("--max-methods", &need("--max-methods", it.next())?)?;
                    }
                    "--max-loop-depth" => {
                        params.max_loop_depth =
                            parse_usize("--max-loop-depth", &need("--max-loop-depth", it.next())?)?;
                    }
                    "--violation-rate" => {
                        let n = need("--violation-rate", it.next())?;
                        params.violation_rate = n.parse().map_err(|_| {
                            CanvasError::usage(format!("--violation-rate: not a number: {n:?}"))
                        })?;
                        if !(0.0..=1.0).contains(&params.violation_rate) {
                            return Err(CanvasError::usage("--violation-rate must be in [0, 1]"));
                        }
                    }
                    "--threads" => {
                        threads =
                            Some(parse_usize("--threads", &need("--threads", it.next())?)?.max(1));
                    }
                    "--force" => force = true,
                    other => {
                        return Err(CanvasError::usage(format!(
                            "unknown fleet gen option {other:?}"
                        )))
                    }
                }
            }
            let out = out.ok_or_else(|| CanvasError::usage("fleet gen needs --out DIR"))?;
            let programs = match threads {
                Some(t) => gen::generate_with_threads(&params, t)?,
                None => gen::generate(&params)?,
            };
            let m = manifest::Manifest::from_programs(&params, &programs);
            manifest::write_corpus(std::path::Path::new(&out), &m, &programs, force)?;
            println!("fleet gen: {} programs (seed {}) -> {out}", programs.len(), params.seed);
            println!("  manifest digest: {}", m.digest);
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let mut corpus: Option<String> = None;
            let mut shards = canvas_suite::worker_count(usize::MAX);
            let mut engine = Engine::ScmpFds;
            let mut spec_name: Option<String> = None;
            let mut cache_dir: Option<String> = None;
            let mut report_path: Option<String> = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--corpus" => corpus = Some(need("--corpus", it.next())?),
                    "--shards" => {
                        shards = parse_usize("--shards", &need("--shards", it.next())?)?.max(1);
                    }
                    "--engine" => {
                        let name = need("--engine", it.next())?;
                        engine = Engine::by_name(&name).ok_or_else(|| {
                            CanvasError::usage(format!(
                                "unknown engine {name:?} (see `canvas engines`)"
                            ))
                        })?;
                    }
                    "--spec" => spec_name = Some(need("--spec", it.next())?),
                    "--cache-dir" => cache_dir = Some(need("--cache-dir", it.next())?),
                    "--report" => report_path = Some(need("--report", it.next())?),
                    other => {
                        return Err(CanvasError::usage(format!(
                            "unknown fleet run option {other:?}"
                        )))
                    }
                }
            }
            let corpus =
                corpus.ok_or_else(|| CanvasError::usage("fleet run needs --corpus DIR"))?;
            let (m, items) = manifest::load_corpus(std::path::Path::new(&corpus))?;
            let spec_name = spec_name.unwrap_or_else(|| m.spec.clone());
            let spec = load_spec(&spec_name)?;
            let cfg = driver::FleetConfig {
                shards,
                engine,
                spec,
                spec_name,
                cache_dir: cache_dir.map(std::path::PathBuf::from),
                manifest_digest: Some(m.digest),
            };
            let report = driver::run_fleet(&items, &cfg)?;
            print!("{}", report.render());
            if let Some(path) = report_path {
                std::fs::write(&path, report.to_json().render())
                    .map_err(|e| CanvasError::io(Stage::Cli, &path, &e))?;
                eprintln!("canvas: fleet report written to {path}");
            }
            Ok(ExitCode::from(canvas_fleet::exit_code(&report)))
        }
        other => {
            Err(CanvasError::usage(format!("fleet needs a subcommand: gen or run (got {other:?})")))
        }
    }
}

/// Parses a byte size with an optional `k`/`m`/`g` suffix (powers of 1024).
fn parse_byte_size(s: &str) -> Result<u64, CanvasError> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k' | b'K') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'm' | b'M') => (&s[..s.len() - 1], 1u64 << 20),
        Some(b'g' | b'G') => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| CanvasError::usage(format!("not a byte size: {s:?} (try 512k, 64m, 1g)")))?;
    n.checked_mul(mult).ok_or_else(|| CanvasError::usage(format!("byte size overflows: {s:?}")))
}

/// Arms the `canvas-log/1` NDJSON file sink and lowers the log threshold
/// to `Info` so routine lifecycle records land in the file; stderr keeps
/// echoing warnings and errors for TTY use.
fn init_log_json(path: Option<&str>) -> Result<(), CanvasError> {
    if let Some(path) = path {
        canvas_telemetry::events::log_to_file(std::path::Path::new(path))
            .map_err(|e| CanvasError::io(Stage::Cli, path, &e))?;
        canvas_telemetry::events::set_min_level(canvas_telemetry::events::Level::Info);
    }
    Ok(())
}

struct Opts {
    spec: String,
    engine: Engine,
    whole_program: bool,
    inline: bool,
    metrics: bool,
    explain: bool,
    trace_out: Option<String>,
    log_json: Option<String>,
    budget: Budget,
    cache_dir: Option<String>,
    emit_cert: Option<String>,
    client: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, CanvasError> {
    let mut opts = Opts {
        spec: "cmp".to_string(),
        engine: Engine::ScmpFds,
        whole_program: false,
        inline: false,
        metrics: false,
        explain: false,
        trace_out: None,
        log_json: None,
        budget: Budget::unlimited(),
        cache_dir: None,
        emit_cert: None,
        client: None,
    };
    fn usage(m: impl Into<String>) -> CanvasError {
        CanvasError::usage(m)
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => {
                opts.spec = it.next().ok_or_else(|| usage("--spec needs a value"))?.clone();
            }
            "--engine" => {
                let name = it.next().ok_or_else(|| usage("--engine needs a value"))?;
                opts.engine = Engine::by_name(name).ok_or_else(|| {
                    usage(format!("unknown engine {name:?} (see `canvas engines`)"))
                })?;
            }
            "--whole-program" => opts.whole_program = true,
            "--inline" => opts.inline = true,
            "--metrics" => opts.metrics = true,
            "--explain" => opts.explain = true,
            "--trace-out" => {
                opts.trace_out =
                    Some(it.next().ok_or_else(|| usage("--trace-out needs a path"))?.clone());
            }
            "--log-json" => {
                opts.log_json =
                    Some(it.next().ok_or_else(|| usage("--log-json needs a path"))?.clone());
            }
            "--max-steps" => {
                let n = it.next().ok_or_else(|| usage("--max-steps needs a number"))?;
                let n: u64 =
                    n.parse().map_err(|_| usage(format!("--max-steps: not a number: {n:?}")))?;
                opts.budget = opts.budget.with_max_steps(n);
            }
            "--cache-dir" => {
                opts.cache_dir =
                    Some(it.next().ok_or_else(|| usage("--cache-dir needs a path"))?.clone());
            }
            "--emit-cert" => {
                opts.emit_cert =
                    Some(it.next().ok_or_else(|| usage("--emit-cert needs a path"))?.clone());
            }
            "--deadline-ms" => {
                let n = it.next().ok_or_else(|| usage("--deadline-ms needs a number"))?;
                let n: u64 =
                    n.parse().map_err(|_| usage(format!("--deadline-ms: not a number: {n:?}")))?;
                opts.budget = opts.budget.with_deadline_ms(n);
            }
            other if other.starts_with("--") => {
                return Err(usage(format!("unknown option {other:?}")));
            }
            other => {
                if opts.client.replace(other.to_string()).is_some() {
                    return Err(usage("more than one client file given"));
                }
            }
        }
    }
    Ok(opts)
}

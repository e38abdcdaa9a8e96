//! `certify-check`: whole-program certification of the §7 corpus on all
//! eight engines, then `scmp-fds` over a `scmp_loop_blocks` sweep; every
//! certificate is rendered and every checkable one is replayed by the
//! independent checker. No store and no JSON: decode or store changes
//! must not move this workload.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use canvas_core::{Certifier, Engine, Report};
use canvas_easl::Spec;
use canvas_minijava::Program;
use canvas_suite::{corpus, SpecKind};

use crate::ledger::{finish_trace, telemetry_layers, Ledger};
use crate::{
    budgets, median, ms, ns, peak_rss_mb, put, slow_decile, Args, Outcome, Tally, SETUP_REPS,
};

/// `scmp_loop_blocks` sizes of the sweep (relational and TVLA engines stay
/// on the §7 corpus: past 32 loop blocks they run for minutes).
const SWEEP: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
const SMOKE_SWEEP: [usize; 2] = [1, 4];
const SWEEP_ITERS: usize = 2;

/// One client with its engines and ground truth.
struct Item {
    name: String,
    spec: usize,
    source: String,
    truth: BTreeSet<u32>,
    engines: Vec<Engine>,
    /// Must the engines report exactly `truth` (not just a superset)?
    exact: bool,
}

/// The specs the items use, with their derived certifiers.
struct Specs {
    specs: Vec<Spec>,
    certifiers: Vec<Certifier>,
}

const KINDS: [SpecKind; 4] = [SpecKind::Cmp, SpecKind::Grp, SpecKind::Imp, SpecKind::Aop];

fn kind_index(kind: SpecKind) -> usize {
    KINDS.iter().position(|&k| k == kind).expect("KINDS lists every SpecKind")
}

/// The seed fixes the order items are certified in; the item set itself
/// is the same for every seed, so runs with different seeds stay
/// comparable.
fn items(seed: u64, smoke: bool) -> Vec<Item> {
    let mut items: Vec<Item> = corpus()
        .into_iter()
        .take(if smoke { 4 } else { usize::MAX })
        .map(|b| Item {
            name: b.name.to_string(),
            spec: kind_index(b.spec),
            source: b.source.to_string(),
            truth: b.truth().into_iter().collect(),
            // the relational SCMP engine exceeds its state budget on the two
            // heap-stored-iterator clients, which are outside SCMP
            engines: Engine::all()
                .into_iter()
                .filter(|&e| b.scmp || e != Engine::ScmpRelational)
                .collect(),
            exact: false,
        })
        .collect();
    let sweep: &[usize] = if smoke { &SMOKE_SWEEP } else { &SWEEP };
    for &blocks in sweep {
        let g = canvas_suite::generators::scmp_loop_blocks(blocks, SWEEP_ITERS);
        items.push(Item {
            name: format!("loop_blocks_{blocks}"),
            spec: kind_index(SpecKind::Cmp),
            source: g.source,
            truth: g.error_lines.into_iter().collect(),
            engines: vec![Engine::ScmpFds],
            // scmp-fds computes the exact MOP solution on these
            exact: true,
        });
    }
    // Fisher-Yates with a splitmix64 stream
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

fn derive_all() -> Result<Specs, String> {
    let specs: Vec<Spec> = KINDS.iter().map(|k| k.spec()).collect();
    let certifiers = specs
        .iter()
        .map(|s| Certifier::from_spec(s.clone()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Specs { specs, certifiers })
}

/// Figures of one pass.
#[derive(Default)]
struct Pass {
    wall: Duration,
    parse: Duration,
    parse_bytes: usize,
    certify: Duration,
    emit: Duration,
    replay: Duration,
    /// certify time of the certificates that were replayed
    certify_checkable: Duration,
    per_engine: Vec<Duration>,
    /// latency of each certify call
    calls: Vec<f64>,
    cells: usize,
    cert_bytes: usize,
    transfers: usize,
}

fn verdict_ok(item: &Item, report: &Report) -> bool {
    let reported: BTreeSet<u32> = report.lines().into_iter().collect();
    if item.exact {
        reported == item.truth
    } else {
        // every engine is sound: it never misses a real error
        item.truth.is_subset(&reported)
    }
}

fn one_pass(
    ledger: &mut Ledger,
    specs: &Specs,
    items: &[Item],
    pass_no: u64,
    tally: &mut Tally,
    problems: &mut Vec<String>,
) -> Pass {
    let engines = Engine::all();
    let mut p = Pass { per_engine: vec![Duration::ZERO; engines.len()], ..Pass::default() };
    let open = ledger.begin("certify.pass", 0, pass_no);
    for (k, item) in items.iter().enumerate() {
        let id = k as u64 + 1;
        let spec = &specs.specs[item.spec];
        let certifier = &specs.certifiers[item.spec];
        let (program, d) =
            ledger.time("minijava.parse", open.id, id, || Program::parse(&item.source, spec));
        p.parse += d;
        p.parse_bytes += item.source.len();
        let program = match program {
            Ok(program) => program,
            Err(e) => {
                problems.push(format!("{}: {e}", item.name));
                continue;
            }
        };
        for &engine in &item.engines {
            tally.attempted += 1;
            let (res, certify_d) = ledger.time("engine.certify", open.id, id, || {
                certifier.certify_with_certificate(&item.source, &program, engine)
            });
            p.certify += certify_d;
            p.calls.push(ms(certify_d));
            let slot = engines.iter().position(|&e| e == engine).expect("registered engine");
            p.per_engine[slot] += certify_d;
            let (report, cert) = match res {
                Ok(r) => r,
                Err(e) => {
                    tally.failed += 1;
                    eprintln!("certify-check: {} on {engine}: {e}", item.name);
                    continue;
                }
            };
            if report.is_inconclusive() {
                tally.failed += 1;
                continue;
            }
            if !verdict_ok(item, &report) {
                tally.mismatches += 1;
                problems.push(format!("{} on {engine}: lines {:?}", item.name, report.lines()));
            }
            let (text, d) = ledger.time("cert.emit", open.id, id, || cert.to_text());
            p.emit += d;
            p.cells += cert.cells.len();
            p.cert_bytes += text.len();
            if !cert.checkable() {
                continue;
            }
            tally.attempted += 1;
            let (checked, d) = ledger.time("check.replay", open.id, id, || {
                canvas_check::check_text(&item.source, spec, certifier.derived(), &text)
            });
            p.replay += d;
            p.certify_checkable += certify_d;
            match checked {
                Ok(outcome) => {
                    let lines: Vec<u32> = outcome.violations.iter().map(|v| v.line).collect();
                    let mut reported = report.lines();
                    reported.sort_unstable();
                    reported.dedup();
                    let mut confirmed = lines;
                    confirmed.sort_unstable();
                    confirmed.dedup();
                    p.transfers += outcome.stats.transfers;
                    if outcome.certified != report.certified() || confirmed != reported {
                        tally.mismatches += 1;
                        problems.push(format!("{} on {engine}: replay disagrees", item.name));
                    }
                }
                Err(e) => {
                    tally.failed += 1;
                    eprintln!(
                        "certify-check: {} on {engine}: certificate rejected: {e}",
                        item.name
                    );
                }
            }
        }
    }
    p.wall = ledger.end(open);
    p
}

/// Runs `certify-check`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut prepared = None;
    // this set-up takes milliseconds; more repetitions steady its median
    for _ in 0..5 * SETUP_REPS {
        let t = Instant::now();
        let items = items(args.seed, args.smoke);
        let specs = derive_all()?;
        setups.push(t.elapsed().as_secs_f64());
        prepared = Some((items, specs));
    }
    let (items, specs) = prepared.expect("set up at least once");

    let mut ledger = Ledger::new(Instant::now(), 1);
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let (untraced, traced) = budgets(args);
    // one unmeasured pass first, so process-wide caches are warm in every
    // measured pass
    one_pass(&mut ledger, &specs, &items, 0, &mut tally, &mut problems);
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let mut pass_no = 0u64;
    for (tracing, budget) in [(false, untraced), (true, traced)] {
        if budget.is_zero() {
            continue;
        }
        ledger.set_tracing(tracing);
        let started = Instant::now();
        let mut n = 0;
        while n == 0 || started.elapsed() < budget {
            n += 1;
            pass_no += 1;
            let pass = one_pass(&mut ledger, &specs, &items, pass_no, &mut tally, &mut problems);
            passes.push((tracing, pass));
        }
    }
    let select = |traced: bool| passes.iter().filter(move |p| p.0 == traced).map(|p| &p.1);
    let med =
        |traced: bool, f: &dyn Fn(&Pass) -> f64| median(&select(traced).map(f).collect::<Vec<_>>());
    let mut report = Vec::new();
    put(&mut report, "certify_s", med(false, &|p| p.certify.as_secs_f64()), "s");
    put(&mut report, "check_s", med(false, &|p| p.replay.as_secs_f64()), "s");
    put(&mut report, "cert_bytes", med(false, &|p| p.cert_bytes as f64), "bytes");

    let mut metrics = Vec::new();
    if !args.trace {
        // every pass certifies the same items, so the latency median is
        // taken per pass (the same item lands on the same rank)
        let rates: Vec<f64> =
            select(false).map(|p| p.calls.len() as f64 / p.wall.as_secs_f64()).collect();
        let p50s: Vec<f64> = select(false).map(|p| median(&p.calls)).collect();
        put(&mut report, "passes", rates.len() as f64, "passes");
        put(&mut metrics, "setup_s", median(&setups), "s");
        put(&mut metrics, "throughput_per_s", slow_decile(&rates, true), "1/s");
        put(&mut metrics, "latency_p50_ms", slow_decile(&p50s, false), "ms");
        put(&mut metrics, "peak_rss_mb", peak_rss_mb("self")?, "MiB");
    } else {
        let mut layer: Vec<(String, f64)> = telemetry_layers(select(true).count())
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect();
        let (derived, derive) = ledger.time("wp.derive", 0, 0, derive_all);
        derived?;
        ledger.set_tracing(false);
        let mut add = |name: &str, v: f64| layer.push((name.to_string(), v));
        add("minijava.parse_ns", med(true, &|p| ns(p.parse)));
        add("minijava.ns_per_byte", med(true, &|p| ns(p.parse) / p.parse_bytes.max(1) as f64));
        add("wp.derive_ns", ns(derive));
        for (k, engine) in Engine::all().into_iter().enumerate() {
            add(&format!("engine.{engine}.certify_ns"), med(true, &|p| ns(p.per_engine[k])));
        }
        add("cert.emit_ns", med(true, &|p| ns(p.emit)));
        add("cert.cells", med(true, &|p| p.cells as f64));
        add("cert.bytes", med(true, &|p| p.cert_bytes as f64));
        add("check.replay_ns", med(true, &|p| ns(p.replay)));
        add("check.transfers", med(true, &|p| p.transfers as f64));
        add(
            "check.ratio",
            med(true, &|p| p.replay.as_secs_f64() / p.certify_checkable.as_secs_f64().max(1e-12)),
        );
        add(
            "residue_frac",
            med(true, &|p| {
                let covered = p.parse + p.certify + p.emit + p.replay;
                1.0 - covered.as_secs_f64() / p.wall.as_secs_f64()
            }),
        );
        add(
            "telemetry.overhead_frac",
            med(true, &|p| p.wall.as_secs_f64()) / med(false, &|p| p.wall.as_secs_f64()) - 1.0,
        );
        metrics = crate::per_layer(&layer);
        if let Err(e) = finish_trace(args, &mut ledger.spans) {
            problems.push(e);
        }
    }
    Ok(Outcome { tally, metrics, report, problems })
}

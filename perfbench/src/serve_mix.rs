//! `serve-mix`: a closed loop over two TCP connections to
//! `canvas serve --listen 127.0.0.1:0 --threads 2`. Each connection sends
//! rounds of a fixed, seed-shuffled mix: mostly small fleet-generator
//! programs (a quarter of them repeats, so warm store hits occur) plus
//! one 256 KiB and two 64 KiB wide many-method sources. Latency is timed
//! at the client: the in-band `total_ns` starts only after the daemon has
//! decoded the request line.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use canvas_fleet::gen::{generate_with_threads, GenParams};
use canvas_incr::json::{obj, Json};
use canvas_minijava::synth::SourceBuilder;

use crate::ledger::{finish_trace, Ledger, Span};
use crate::{budgets, median, ms, ns, peak_rss_mb, put, tail, Args, Outcome, Tally, SETUP_REPS};

const CONNECTIONS: usize = 2;
const DAEMON_THREADS: usize = 2;
/// Small requests per connection per round; one in `REPEAT_EVERY` repeats
/// a source that connection already sent.
const SMALL_PER_ROUND: usize = 40;
const SMOKE_SMALL_PER_ROUND: usize = 6;
const REPEAT_EVERY: usize = 4;
/// Wide sources per connection per round, by size class.
const LARGE_PER_ROUND: [(Class, usize); 2] = [(Class::K256, 1), (Class::K64, 2)];
/// Distinct wide sources generated per class; later rounds resend them.
const WIDE_VARIANTS: usize = 3;
/// Rounds the generated inputs cover before the schedule repeats (more
/// than a 20-second run completes).
const POOL_ROUNDS: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Small,
    K64,
    K256,
}

impl Class {
    fn target_bytes(self, smoke: bool) -> usize {
        let scale = if smoke { 16 } else { 1 };
        match self {
            Class::Small => 0,
            Class::K64 => (64 << 10) / scale,
            Class::K256 => (256 << 10) / scale,
        }
    }
}

/// One client program with its expected violation lines.
struct Source {
    text: String,
    expected: Vec<u32>,
}

/// A wide many-method client of roughly `target` bytes: `main` calls every
/// method, each method iterates a fresh set, and about one in ten mutates
/// the set before a last `next()` (the expected violation).
fn wide_source(seed: u64, target: usize) -> Source {
    let mut rng = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
    let mut next = move |n: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % n
    };
    // ~170 bytes per method body plus its call in main
    let methods = (target / 185).max(2);
    let mut b = SourceBuilder::new("Main");
    let mut expected = Vec::new();
    b.open_block("static void main()");
    for k in 0..methods {
        b.stmt(&format!("w{k}();"));
    }
    b.close_block();
    for k in 0..methods {
        b.open_block(&format!("static void w{k}()"));
        b.stmt("Set s = new Set();");
        b.stmt("s.add(\"a\");");
        b.stmt("Iterator i = s.iterator();");
        for _ in 0..=next(3) {
            b.stmt("i.next();");
        }
        if next(2) == 0 {
            b.open_block("if (true)");
            b.stmt("i.next();");
            b.close_block();
        }
        if next(10) == 0 {
            b.stmt("s.add(\"b\");");
            expected.push(b.stmt("i.next();"));
        }
        b.close_block();
    }
    Source { text: b.finish(), expected }
}

/// A request ready to send.
struct Request {
    id: u64,
    class: Class,
    line: String,
    expected: Vec<u32>,
}

fn certify_line(id: u64, source: &str) -> String {
    obj(vec![
        ("id", Json::Int(id)),
        ("cmd", Json::Str("certify".into())),
        ("source", Json::Str(source.to_string())),
        ("spec", Json::Str("cmp".into())),
        ("engine", Json::Str("scmp-fds".into())),
    ])
    .render_compact()
}

/// The request schedule of every connection: `rounds[c][r]` is round `r`
/// of connection `c`, shuffled by the seed.
struct Inputs {
    rounds: Vec<Vec<Vec<Request>>>,
}

fn make_inputs(seed: u64, smoke: bool) -> Result<Inputs, String> {
    let small_per_round = if smoke { SMOKE_SMALL_PER_ROUND } else { SMALL_PER_ROUND };
    let fresh_per_round = small_per_round - small_per_round / REPEAT_EVERY;
    let programs = CONNECTIONS * POOL_ROUNDS * fresh_per_round;
    let params = GenParams { programs, seed, ..GenParams::default() };
    let pool = generate_with_threads(&params, 2).map_err(|e| e.to_string())?;
    let mut rng = seed ^ 0x5851_f42d_4c95_7f2d;
    let mut next = move |n: usize| {
        rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ((rng >> 33) % n as u64) as usize
    };
    let wide: Vec<(Class, usize, Vec<Source>)> = LARGE_PER_ROUND
        .into_iter()
        .map(|(class, count)| {
            let variants = (0..WIDE_VARIANTS)
                .map(|v| {
                    let variant_seed = seed.wrapping_add(v as u64 * 7919 + class as u64);
                    wide_source(variant_seed, class.target_bytes(smoke))
                })
                .collect();
            (class, count, variants)
        })
        .collect();
    let mut id = 0u64;
    let mut rounds = Vec::new();
    for c in 0..CONNECTIONS {
        let mut sent: Vec<usize> = Vec::new();
        let mut conn_rounds = Vec::new();
        for r in 0..POOL_ROUNDS {
            let mut round: Vec<(Class, &str, &[u32])> = Vec::new();
            for k in 0..small_per_round {
                let idx = if k % REPEAT_EVERY == REPEAT_EVERY - 1 && !sent.is_empty() {
                    sent[next(sent.len())]
                } else {
                    (c * POOL_ROUNDS + r) * fresh_per_round
                        + (k - k / REPEAT_EVERY).min(fresh_per_round - 1)
                };
                sent.push(idx);
                round.push((Class::Small, &pool[idx].source, &pool[idx].expected));
            }
            for (class, count, variants) in &wide {
                for _ in 0..*count {
                    let s = &variants[next(variants.len())];
                    round.push((*class, &s.text, &s.expected));
                }
            }
            for i in (1..round.len()).rev() {
                round.swap(i, next(i + 1));
            }
            // every round opens with its 256 KiB request; rounds start
            // together on all connections, so those requests always meet in
            // the daemon and its peak memory does not depend on timing luck
            round.sort_by_key(|(class, _, _)| *class != Class::K256);
            conn_rounds.push(
                round
                    .into_iter()
                    .map(|(class, text, expected)| {
                        id += 1;
                        Request {
                            id,
                            class,
                            line: certify_line(id, text),
                            expected: expected.to_vec(),
                        }
                    })
                    .collect(),
            );
        }
        rounds.push(conn_rounds);
    }
    Ok(Inputs { rounds })
}

/// The daemon process; killed and reaped if still running when dropped.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(canvas: &Path, work: &Path) -> Result<Daemon, String> {
        let out_path = work.join("serve-mix.daemon.out");
        let stdout = File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
        let err_path = work.join("serve-mix.daemon.err");
        let stderr = File::create(&err_path).map_err(|e| format!("{}: {e}", err_path.display()))?;
        let child = Command::new(canvas)
            .args(["serve", "--listen", "127.0.0.1:0", "--threads"])
            .arg(DAEMON_THREADS.to_string())
            .arg("--no-cache")
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", canvas.display()))?;
        let mut daemon = Daemon { child, addr: String::new() };
        let started = Instant::now();
        loop {
            let text = std::fs::read_to_string(&out_path).unwrap_or_default();
            if let Some(addr) =
                text.lines().find_map(|l| l.strip_prefix("canvas serve: listening on "))
            {
                daemon.addr = addr.trim().to_string();
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited before listening: {status}"));
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not report its address within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("{}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(120))).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    /// Sends `shutdown` and waits for the daemon to drain and exit.
    fn stop(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        conn.call("{\"id\":0,\"cmd\":\"shutdown\"}")?;
        let started = Instant::now();
        while started.elapsed() < Duration::from_secs(30) {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exit: {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("daemon did not exit within 30 s of shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Sends one request line and reads its one response line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.stream.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        self.stream.write_all(b"\n").map_err(|e| e.to_string())?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(resp),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// What the client saw for one request.
struct Sample {
    class: Class,
    client: Duration,
    inband_ns: f64,
    phases: [f64; 3],
    hits: f64,
    misses: f64,
    delta_seeded: f64,
    failed: bool,
    shed: bool,
    error: bool,
    mismatch: bool,
}

fn num(j: Option<&Json>) -> f64 {
    match j {
        Some(Json::Int(n)) => *n as f64,
        _ => 0.0,
    }
}

fn judge(req: &Request, resp: &str, client: Duration) -> Sample {
    let mut s = Sample {
        class: req.class,
        client,
        inband_ns: 0.0,
        phases: [0.0; 3],
        hits: 0.0,
        misses: 0.0,
        delta_seeded: 0.0,
        failed: true,
        shed: false,
        error: true,
        mismatch: false,
    };
    let Ok(json) = Json::parse(resp.trim_end()) else { return s };
    if json.get("ok") != Some(&Json::Bool(true)) {
        return s;
    }
    s.error = false;
    s.shed = json.get("shed") == Some(&Json::Bool(true));
    let stats = json.get("stats");
    s.inband_ns = num(stats.and_then(|st| st.get("total_ns")));
    let phases = stats.and_then(|st| st.get("phases"));
    for (k, name) in ["parse_ns", "derive_ns", "solve_ns"].iter().enumerate() {
        s.phases[k] = num(phases.and_then(|p| p.get(name)));
    }
    let cache = json.get("cache");
    s.hits = num(cache.and_then(|c| c.get("hits")));
    s.misses = num(cache.and_then(|c| c.get("misses")));
    s.delta_seeded = num(cache.and_then(|c| c.get("delta_seeded")));
    let verdict = match json.get("verdict") {
        Some(Json::Str(v)) => v.as_str(),
        _ => "",
    };
    if verdict != "certified" && verdict != "violations" {
        return s;
    }
    s.failed = false;
    let lines: BTreeSet<u32> = match json.get("violations") {
        Some(Json::Arr(vs)) => vs.iter().map(|v| num(v.get("line")) as u32).collect(),
        _ => BTreeSet::new(),
    };
    let expected: BTreeSet<u32> = req.expected.iter().copied().collect();
    s.mismatch = lines != expected || (verdict == "certified") != expected.is_empty();
    s
}

/// One connection's pass over one round of its schedule.
struct Round {
    traced: bool,
    wall: Duration,
    /// time inside request round trips
    busy: Duration,
    samples: Vec<Sample>,
}

impl Round {
    fn rate(&self) -> f64 {
        self.samples.len() as f64 / self.wall.as_secs_f64()
    }

    fn ms_of(&self, class: Class) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().filter(move |s| s.class == class).map(|s| ms(s.client))
    }
}

/// Starts the connections' rounds together and decides, for all of them,
/// whether another round runs.
struct Pacer {
    barrier: Barrier,
    started: Instant,
    budget: Duration,
    more: AtomicBool,
    failed: AtomicBool,
}

impl Pacer {
    fn next_round(&self, done: usize) -> bool {
        if self.barrier.wait().is_leader() {
            let more = done == 0 || self.started.elapsed() < self.budget;
            self.more.store(more && !self.failed.load(Ordering::SeqCst), Ordering::SeqCst);
        }
        self.barrier.wait();
        self.more.load(Ordering::SeqCst)
    }
}

fn one_round(
    conn: &mut Conn,
    requests: &[Request],
    ledger: &mut Ledger,
    r: usize,
) -> Result<Round, String> {
    let open = ledger.begin("serve.round", 0, r as u64);
    let (mut busy, mut samples) = (Duration::ZERO, Vec::new());
    for req in requests {
        let (resp, d) = ledger.time("serve.request", open.id, req.id, || conn.call(&req.line));
        busy += d;
        samples.push(judge(req, &resp?, d));
    }
    let wall = ledger.end(open);
    Ok(Round { traced: ledger.tracing(), wall, busy, samples })
}

/// One connection's closed loop: whole rounds until the pacer stops.
fn client(
    daemon: &Daemon,
    schedule: &[Vec<Request>],
    pacer: &Pacer,
    ledger: &mut Ledger,
    first_round: usize,
) -> Result<Vec<Round>, String> {
    let mut conn = daemon.connect();
    let (mut rounds, mut error, mut done) = (Vec::new(), None, 0);
    while pacer.next_round(done) {
        let r = (first_round + done) % schedule.len();
        done += 1;
        let round = match &mut conn {
            Ok(c) => one_round(c, &schedule[r], ledger, r),
            Err(e) => Err(e.clone()),
        };
        match round {
            Ok(round) => rounds.push(round),
            Err(e) => {
                // keep meeting the barrier so the other connections stop too
                pacer.failed.store(true, Ordering::SeqCst);
                error.get_or_insert(e);
            }
        }
    }
    error.map_or(Ok(rounds), Err)
}

/// Runs every connection's closed loop for `budget` and collects their
/// rounds.
fn phase(
    daemon: &Daemon,
    inputs: &Inputs,
    budget: Duration,
    ledgers: &mut [Ledger],
    first_round: usize,
    rounds: &mut Vec<Round>,
) -> Result<(), String> {
    let pacer = Pacer {
        barrier: Barrier::new(CONNECTIONS),
        started: Instant::now(),
        budget,
        more: AtomicBool::new(true),
        failed: AtomicBool::new(false),
    };
    let pacer = &pacer;
    let results: Vec<Result<Vec<Round>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ledgers
            .iter_mut()
            .zip(&inputs.rounds)
            .map(|(ledger, schedule)| {
                scope.spawn(move || client(daemon, schedule, pacer, ledger, first_round))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect()
    });
    for r in results {
        rounds.extend(r?);
    }
    Ok(())
}

/// A `metrics` scrape: `(uptime_s, latency_sum_s)` for certify requests.
fn scrape(daemon: &Daemon) -> Result<(f64, f64), String> {
    let mut conn = daemon.connect()?;
    let resp = conn.call("{\"id\":0,\"cmd\":\"metrics\"}")?;
    let json = Json::parse(resp.trim_end())?;
    let Some(Json::Str(text)) = json.get("metrics") else {
        return Err("metrics response has no metrics text".into());
    };
    let value = |prefix: &str| {
        text.lines()
            .filter(|l| l.starts_with(prefix))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum::<f64>()
    };
    Ok((value("canvas_serve_uptime_seconds"), value("canvas_serve_request_latency_seconds_sum")))
}

/// Starts a daemon and primes it: one certify request derives the `cmp`
/// certifier, so lazy set-up is done before measuring.
fn start_primed(args: &Args) -> Result<Daemon, String> {
    let daemon = Daemon::start(&args.canvas, &args.work)?;
    let mut conn = daemon.connect()?;
    let resp = conn.call(&certify_line(0, "class P { static void main() { } }\n"))?;
    if !resp.contains("\"ok\":true") {
        return Err(format!("priming request failed: {}", resp.trim()));
    }
    Ok(daemon)
}

/// Runs `serve-mix`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        if let Some((daemon, _)) = ready.take() {
            Daemon::stop(daemon)?;
        }
        let t = Instant::now();
        let inputs = make_inputs(args.seed, args.smoke)?;
        let daemon = start_primed(args)?;
        setups.push(t.elapsed().as_secs_f64());
        ready = Some((daemon, inputs));
    }
    let (daemon, inputs) = ready.expect("set up at least once");

    let epoch = Instant::now();
    let mut ledgers: Vec<Ledger> =
        (1..=CONNECTIONS as u64).map(|t| Ledger::new(epoch, t)).collect();
    let mut rounds = Vec::new();
    let (untraced, traced) = budgets(args);
    phase(&daemon, &inputs, untraced, &mut ledgers, 0, &mut rounds)?;
    if args.trace {
        for l in &mut ledgers {
            l.set_tracing(true);
        }
        let first = rounds.len() / CONNECTIONS;
        phase(&daemon, &inputs, traced, &mut ledgers, first, &mut rounds)?;
    }
    let (uptime, busy_sum) = scrape(&daemon)?;
    let rss = peak_rss_mb(&daemon.child.id().to_string())?;
    Daemon::stop(daemon)?;

    let mut tally = Tally::default();
    for s in rounds.iter().flat_map(|r| &r.samples) {
        tally.attempted += 1;
        tally.failed += u64::from(s.failed);
        tally.mismatches += u64::from(s.mismatch);
    }
    let mut problems = Vec::new();
    if tally.mismatches > 0 {
        problems
            .push(format!("{} responses disagree with the generator's truth", tally.mismatches));
    }
    // Rates and medians are taken per round (every round has the same mix)
    // and the median round is reported. Rounds start together, so each
    // one already waits for its slowest connection. Rates count all
    // connections.
    let select = |traced: bool| rounds.iter().filter(move |r| r.traced == traced);
    let rates = |traced: bool| -> Vec<f64> {
        select(traced).map(|r| CONNECTIONS as f64 * r.rate()).collect()
    };
    let small_p50s: Vec<f64> =
        select(false).map(|r| median(&r.ms_of(Class::Small).collect::<Vec<_>>())).collect();
    let rps = median(&rates(false));
    let small: Vec<f64> = select(false).flat_map(|r| r.ms_of(Class::Small)).collect();
    let large: Vec<f64> = select(false).flat_map(|r| r.ms_of(Class::K256)).collect();
    let (tail_ms, pct, n) = tail(&small);
    let mut report = Vec::new();
    put(&mut report, "serve_rps", rps, "requests/s");
    put(&mut report, "serve_small_p50_ms", median(&small_p50s), "ms");
    put(&mut report, "serve_small_tail_ms", tail_ms, "ms");
    put(&mut report, "serve_small_tail_percentile", pct, "%");
    put(&mut report, "serve_small_samples", n as f64, "requests");
    put(&mut report, "serve_large_p50_ms", median(&large), "ms");
    put(&mut report, "serve_large_samples", large.len() as f64, "requests");
    put(&mut report, "serve_rounds", select(false).count() as f64, "rounds");

    let mut metrics = Vec::new();
    if args.trace {
        let mut probe_ledger = Ledger::new(epoch, 0);
        probe_ledger.set_tracing(true);
        let mut layer: Vec<(&str, f64)> = Vec::new();
        let mut probed = 0usize;
        for (class, name) in [
            (Class::Small, "json.decode_ns_per_byte.1k"),
            (Class::K64, "json.decode_ns_per_byte.64k"),
            (Class::K256, "json.decode_ns_per_byte.256k"),
        ] {
            let take = if class == Class::Small { 64 } else { 1 };
            let (mut t, mut bytes) = (Duration::ZERO, 0usize);
            for req in inputs.rounds[0].iter().flatten().filter(|r| r.class == class).take(take) {
                let (parsed, d) = probe_ledger.time("json.decode", 0, 0, || Json::parse(&req.line));
                parsed?;
                t += d;
                bytes += req.line.len();
            }
            probed += bytes;
            layer.push((name, ns(t) / bytes.max(1) as f64));
        }
        probe_ledger.set_tracing(false);
        let traced_samples: Vec<&Sample> = select(true).flat_map(|r| &r.samples).collect();
        let per_round = |f: &dyn Fn(&Sample) -> f64| {
            traced_samples.iter().map(|s| f(s)).sum::<f64>() / select(true).count() as f64
        };
        let client_sum: f64 = traced_samples.iter().map(|s| ns(s.client)).sum();
        let inband: Vec<f64> = traced_samples.iter().map(|s| s.inband_ns).collect();
        let inband_sum: f64 = inband.iter().sum();
        let (hits, misses) = (per_round(&|s| s.hits), per_round(&|s| s.misses));
        let residue = median(
            &select(true)
                .map(|r| 1.0 - r.busy.as_secs_f64() / r.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        );
        layer.extend([
            ("json.decode_bytes", probed as f64),
            ("serve.inband_ns", median(&inband)),
            ("serve.outside_frac", 1.0 - inband_sum / client_sum.max(1.0)),
            ("serve.shed", traced_samples.iter().filter(|s| s.shed).count() as f64),
            ("serve.errors", traced_samples.iter().filter(|s| s.error).count() as f64),
            ("serve.worker_busy_frac", busy_sum / (uptime * DAEMON_THREADS as f64).max(1e-9)),
            ("minijava.parse_ns", per_round(&|s| s.phases[0])),
            ("wp.derive_ns", per_round(&|s| s.phases[1])),
            ("dataflow.solve_ns", per_round(&|s| s.phases[2])),
            ("store.hits", hits),
            ("store.misses", misses),
            ("store.hit_ratio", hits / (hits + misses).max(1.0)),
            ("store.delta_seeded", per_round(&|s| s.delta_seeded)),
            ("residue_frac", residue),
            ("telemetry.overhead_frac", rps / median(&rates(true)) - 1.0),
        ]);
        metrics = crate::per_layer(&layer);
        let mut spans: Vec<Span> = probe_ledger.spans;
        for l in ledgers {
            spans.extend(l.spans);
        }
        if let Err(e) = finish_trace(args, &mut spans) {
            problems.push(e);
        }
    } else {
        put(&mut metrics, "setup_s", median(&setups), "s");
        put(&mut metrics, "throughput_per_s", rps, "1/s");
        put(&mut metrics, "latency_p50_ms", median(&small_p50s), "ms");
        put(&mut metrics, "peak_rss_mb", rss, "MiB");
    }
    Ok(Outcome { tally, metrics, report, problems })
}

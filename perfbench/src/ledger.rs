//! The benchmark's own span recorder.
//!
//! Every call the benchmark makes into a layer's public function is timed
//! here. With tracing on, each call also becomes a span (name, start, end,
//! parent span, program/request id) held in memory; [`write_trace`] turns
//! them into a Chrome trace at the end of the run, and [`check_trace`]
//! validates that file with `eval trace-check`.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::Args;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Program or request id the span belongs to (0 = the pass itself).
    pub item: u64,
    pub tid: u64,
    pub start: Duration,
    pub dur: Duration,
}

/// A span that has begun but not ended.
#[must_use]
pub struct Open {
    pub id: u64,
    parent: u64,
    name: &'static str,
    item: u64,
    start: Instant,
}

/// Span recorder of one thread. Timings are always taken; spans are kept
/// only while tracing.
pub struct Ledger {
    tracing: bool,
    epoch: Instant,
    tid: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Ledger {
    /// A recorder for thread `tid`; span ids are unique per `tid`.
    pub fn new(epoch: Instant, tid: u64) -> Ledger {
        Ledger { tracing: false, epoch, tid, next: tid << 40, spans: Vec::new() }
    }

    /// Turns span recording (and the program's telemetry) on or off.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        canvas_telemetry::set_enabled(on);
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    pub fn begin(&mut self, name: &'static str, parent: u64, item: u64) -> Open {
        self.next += 1;
        Open { id: self.next, parent, name, item, start: Instant::now() }
    }

    /// Ends `open` and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let dur = open.start.elapsed();
        if self.tracing {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                item: open.item,
                tid: self.tid,
                start: open.start.saturating_duration_since(self.epoch),
                dur,
            });
        }
        dur
    }

    /// Times `f` as one call into layer `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        item: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(name, parent, item);
        let out = f();
        (out, self.end(open))
    }
}

/// The program's own solver and store figures from its telemetry counters
/// and phase timers (on only while tracing), per traced pass.
pub fn telemetry_layers(passes: usize) -> Vec<(&'static str, f64)> {
    let snap = canvas_telemetry::snapshot();
    let per_pass = |v: u64| v as f64 / passes.max(1) as f64;
    let solve = snap.timers.iter().find(|t| t.name == "phase.solve").map_or(0, |t| t.sum);
    let counter = |name: &str| per_pass(snap.counter(name).unwrap_or(0));
    vec![
        ("dataflow.solve_ns", per_pass(solve)),
        ("fds.edge_visits", counter("fds.edge_visits")),
        ("fds.worklist_pops", counter("fds.worklist_pops")),
        ("fds.words_touched", counter("fds.words_touched")),
        ("store.evictions", counter("incr.cache_evictions")),
    ]
}

/// Most spans written to one trace file. `eval trace-check` decodes the
/// file with the repository's JSON parser, whose cost grows faster than
/// linearly with document size; the cap keeps the check to seconds. Spans
/// are written in start order, so the cap drops the end of the run.
const TRACE_SPAN_CAP: usize = 1500;

/// Writes `spans` to `<work>/<workload>-<seed>.trace.json` and checks the
/// file with `eval trace-check`.
pub fn finish_trace(args: &Args, spans: &mut [Span]) -> Result<(), String> {
    let path = args.work.join(format!("{}-{}.trace.json", args.workload, args.seed));
    write_trace(&path, spans)?;
    check_trace(&args.eval, &path)
}

/// Writes `spans` as a Chrome trace (complete `X` events, integer
/// microseconds).
fn write_trace(path: &Path, spans: &mut [Span]) -> Result<(), String> {
    spans.sort_by_key(|s| (s.start, s.id));
    let kept = &spans[..spans.len().min(TRACE_SPAN_CAP)];
    let mut out = String::from("{\"traceEvents\":[");
    for (k, s) in kept.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\
             \"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}",
            s.name,
            s.start.as_micros(),
            s.dur.as_micros(),
            s.tid,
            s.id,
            s.parent,
            s.item
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

fn check_trace(eval: &Path, path: &Path) -> Result<(), String> {
    let out = Command::new(eval)
        .arg("trace-check")
        .arg(path)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", eval.display()))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "eval trace-check rejected {}: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

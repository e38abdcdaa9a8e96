//! The sharded, work-stealing corpus certification driver.
//!
//! The corpus manifest is partitioned into `shards` contiguous ranges,
//! one worker thread per shard, on the suite's batch executor
//! (`canvas_suite::run_batch`): a worker first drains its own partition
//! and then *steals* from the other shards, so a slow or dead shard's
//! remaining work is redistributed automatically. Every program is
//! processed exactly once: a claimed index is either completed, poisoned,
//! or — if the claimant dies — lost with the dead worker, which is the
//! failure-isolation contract (a worker death loses only its in-flight
//! program).
//!
//! Each shard runs its own in-memory certificate cache, optionally
//! seeded from a warm on-disk store; at the end the shard caches are
//! merged losslessly (content-addressed, order-independent — see
//! `CertCache::merge_from`) back into the store.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use canvas_core::{CanvasError, Certifier, Engine, Verdict};
use canvas_easl::Spec;
use canvas_faults::Fault;
use canvas_incr::fingerprint::{Digest, Fingerprint};
use canvas_incr::store::CertCache;
use canvas_incr::{IncrementalCertifier, RunCacheStats};
use canvas_minijava::Program;
use canvas_suite::threads::WorkerDeath;
use canvas_telemetry::Counter;

use crate::manifest::FleetItem;
use crate::report::{FleetCacheTraffic, FleetReport, ShardRow};

static FLEET_PROGRAMS: Counter = Counter::new("fleet.programs");
static FLEET_VIOLATING: Counter = Counter::new("fleet.programs_violating");
static FLEET_STEALS: Counter = Counter::non_deterministic("fleet.steals");
static FLEET_POISONED: Counter = Counter::non_deterministic("fleet.poisoned_programs");
static FLEET_DEAD_SHARDS: Counter = Counter::non_deterministic("fleet.dead_shards");
static FLEET_MERGED: Counter = Counter::non_deterministic("fleet.cache_merge_entries");

/// How one fleet run is configured.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Worker/partition/cache count (clamped to `[1, programs]`).
    pub shards: usize,
    /// Engine every program is certified with.
    pub engine: Engine,
    /// The loaded spec (derived once, shared by every shard).
    pub spec: Spec,
    /// The spec's name, echoed into the report (e.g. `cmp`).
    pub spec_name: String,
    /// Warm certificate store directory: seeded from at startup, merged
    /// into and persisted at the end.
    pub cache_dir: Option<PathBuf>,
    /// The corpus manifest digest, echoed into the report.
    pub manifest_digest: Option<Fingerprint>,
}

impl FleetConfig {
    /// A config with `shards` workers and no warm store.
    pub fn local(spec: Spec, spec_name: &str, engine: Engine, shards: usize) -> FleetConfig {
        FleetConfig {
            shards,
            engine,
            spec,
            spec_name: spec_name.to_string(),
            cache_dir: None,
            manifest_digest: None,
        }
    }
}

/// One violation site, as the digest and truth check see it.
#[derive(Clone, Debug)]
struct Site {
    method: String,
    line: u32,
    col: u32,
    what: String,
}

/// A program whose certification ran to a verdict (empty sites =
/// certified).
#[derive(Clone, Debug)]
struct Checked {
    sites: Vec<Site>,
    inconclusive: Option<String>,
    truth_ok: Option<bool>,
    cache: RunCacheStats,
}

/// One shard's worker state: its certifier over the shard cache, and how
/// many programs it has finished (for the shard-death fault).
struct Shard {
    index: usize,
    inc: IncrementalCertifier,
    completed: u64,
}

/// Certifies `item` in-process; a frontend or engine error is the
/// program's poisoning message.
fn certify_item(
    inc: &IncrementalCertifier,
    item: &FleetItem,
    engine: Engine,
) -> Result<Checked, String> {
    let program = Program::parse(&item.source, inc.certifier().spec())
        .map_err(|e| format!("frontend: {e}"))?;
    let (report, cache) = inc
        .certify_program_cached_with_stats(&program, engine)
        .map_err(|e| format!("certify: {e}"))?;
    let sites: Vec<Site> = report
        .violations
        .iter()
        .map(|v| Site { method: v.method.clone(), line: v.line, col: v.col, what: v.what.clone() })
        .collect();
    let inconclusive = match &report.verdict {
        Verdict::Inconclusive { reason } => Some(reason.clone()),
        Verdict::Complete => None,
    };
    let truth_ok = truth_check(item, engine, inconclusive.is_some(), &sites);
    Ok(Checked { sites, inconclusive, truth_ok, cache })
}

/// Compares reported violation lines against the manifest ground truth
/// (only meaningful for the engine the generator recorded truth for).
fn truth_check(
    item: &FleetItem,
    engine: Engine,
    inconclusive: bool,
    sites: &[Site],
) -> Option<bool> {
    let expected = item.expected.as_ref()?;
    if engine != Engine::ScmpFds || inconclusive {
        return None;
    }
    let mut got: Vec<u32> = sites.iter().map(|s| s.line).collect();
    got.sort_unstable();
    let mut want = expected.clone();
    want.sort_unstable();
    Some(got == want)
}

/// Runs the fleet: partitions `items` across shards, certifies every
/// program exactly once (modulo worker death), merges the shard caches,
/// and aggregates the report.
///
/// # Errors
///
/// Derivation failure (the spec itself is bad), or a cache-store I/O
/// error at persist time. Per-program and per-worker failures never
/// surface as errors — they are contained and counted in the report.
pub fn run_fleet(items: &[FleetItem], cfg: &FleetConfig) -> Result<FleetReport, CanvasError> {
    let started = Instant::now();
    let n = items.len();
    let shards = cfg.shards.clamp(1, n.max(1));

    // one certifier derivation, cloned per worker
    let certifier = Certifier::from_spec(cfg.spec.clone())?;

    // warm store: seed every shard cache from it, merge back at the end
    let store = cfg.cache_dir.as_ref().map(|dir| CertCache::open(dir));
    let shard_caches: Vec<Arc<CertCache>> =
        (0..shards).map(|_| Arc::new(CertCache::in_memory())).collect();
    let mut seeded = 0u64;
    if let Some(store) = &store {
        for cache in &shard_caches {
            seeded += cache.merge_from(store).merged;
        }
    }

    let batch = canvas_suite::run_batch(
        n,
        shards,
        |index| Shard {
            index,
            inc: IncrementalCertifier::shared(certifier.clone(), Arc::clone(&shard_caches[index])),
            completed: 0,
        },
        |shard, idx| {
            // injected fault: this worker dies between programs; the
            // claimed index is its lost in-flight program
            if shard.index == 0 && shard.completed >= 1 && canvas_faults::active(Fault::ShardDeath)
            {
                canvas_telemetry::events::warn(
                    "fleet.shard_death",
                    format!(
                        "injected fault shard-death: fleet worker 0 died mid-corpus (in-flight: {})",
                        items[idx].name
                    ),
                );
                std::panic::resume_unwind(Box::new(WorkerDeath));
            }
            shard.completed += 1;
            certify_item(&shard.inc, &items[idx], cfg.engine)
        },
    );

    // merge the shard caches losslessly into the (possibly disk-backed)
    // final store, then persist it
    let merge_started = Instant::now();
    let mut cache = FleetCacheTraffic { seeded, ..FleetCacheTraffic::default() };
    let merged_store = store.unwrap_or_else(CertCache::in_memory);
    for shard_cache in &shard_caches {
        let stats = merged_store.merge_from(shard_cache);
        cache.merged += stats.merged;
        cache.duplicates += stats.duplicates;
        cache.conflicts += stats.conflicts;
    }
    FLEET_MERGED.add(cache.merged);
    if cfg.cache_dir.is_some() {
        merged_store.persist()?;
    }
    let merge_wall = merge_started.elapsed();

    // aggregate: verdict counts and the index-ordered outcome digest are
    // schedule-independent; everything per-shard is measured
    let mut report = FleetReport {
        engine: cfg.engine.to_string(),
        spec: cfg.spec_name.clone(),
        shards_requested: shards,
        programs: n,
        certified: 0,
        violating: 0,
        violation_sites: 0,
        inconclusive: 0,
        poisoned_programs: 0,
        dead_shards: 0,
        truth_checked: 0,
        truth_mismatches: 0,
        corpus_digest: Fingerprint(0),
        manifest_digest: cfg.manifest_digest,
        cache,
        steals: 0,
        shard_rows: batch
            .workers
            .iter()
            .enumerate()
            .map(|(shard, w)| ShardRow {
                shard,
                processed: w.processed,
                stolen: w.stolen,
                dead: w.died,
                ..ShardRow::default()
            })
            .collect(),
        wall: std::time::Duration::default(),
        merge_wall,
    };
    let mut h = Digest::new();
    for (item, done) in items.iter().zip(&batch.items) {
        h.write_str(&item.name);
        let Some(done) = done else {
            // lost with a dead worker (its in-flight program)
            report.poisoned_programs += 1;
            h.write_u8(4);
            continue;
        };
        let row = &mut report.shard_rows[done.worker];
        row.latency.record(done.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
        match &done.result {
            Ok(Ok(Checked { sites, inconclusive, truth_ok, cache })) => {
                row.hits += cache.hits;
                row.misses += cache.misses;
                row.delta_seeded += cache.delta_seeded;
                match inconclusive {
                    Some(reason) => {
                        report.inconclusive += 1;
                        h.write_u8(2);
                        h.write_str(reason);
                    }
                    None if sites.is_empty() => {
                        report.certified += 1;
                        h.write_u8(0);
                    }
                    None => {
                        report.violating += 1;
                        h.write_u8(1);
                    }
                }
                report.violation_sites += sites.len();
                h.write_usize(sites.len());
                for s in sites {
                    h.write_str(&s.method);
                    h.write_u32(s.line);
                    h.write_u32(s.col);
                    h.write_str(&s.what);
                }
                if let Some(ok) = truth_ok {
                    report.truth_checked += 1;
                    if !ok {
                        report.truth_mismatches += 1;
                    }
                }
            }
            // a certification error or a contained panic
            Ok(Err(message)) | Err(message) => {
                canvas_telemetry::events::warn(
                    "fleet.poisoned",
                    format!("{}: {message}", item.name),
                );
                row.poisoned_programs += 1;
                report.poisoned_programs += 1;
                h.write_u8(3);
            }
        }
    }
    report.corpus_digest = Fingerprint(h.finish());

    for row in &report.shard_rows {
        report.dead_shards += usize::from(row.dead);
        report.steals += row.stolen;
        report.cache.hits += row.hits;
        report.cache.misses += row.misses;
        report.cache.delta_seeded += row.delta_seeded;
    }

    FLEET_PROGRAMS.add((report.programs - report.poisoned_programs) as u64);
    FLEET_VIOLATING.add(report.violating as u64);
    FLEET_STEALS.add(report.steals);
    FLEET_POISONED.add(report.poisoned_programs as u64);
    FLEET_DEAD_SHARDS.add(report.dead_shards as u64);
    report.wall = started.elapsed();
    Ok(report)
}

/// Maps a fleet report to the CLI exit code contract: `3` when anything
/// was inconclusive or poisoned (the fleet cannot vouch for the corpus),
/// `1` when violations were found, `0` when everything certified.
pub fn exit_code(report: &FleetReport) -> u8 {
    if report.inconclusive > 0 || report.poisoned_programs > 0 || report.dead_shards > 0 {
        3
    } else if report.violating > 0 {
        1
    } else {
        0
    }
}

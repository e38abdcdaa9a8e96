//! The one bench record every `eval` experiment writes and gates.
//!
//! ```text
//! {"schema":"canvas-bench/1","experiment":E,
//!  "deterministic":{…},"measured":{…},
//!  "checks":[{"name":…,"value":…,"lo":…,"hi":…},…]}
//! ```
//!
//! `deterministic` must be byte-identical run to run and is gated against
//! the `E` key of the committed `bench/baseline.json`; an experiment with
//! nothing deterministic leaves it empty and needs no baseline key.
//! `measured` (wall times, scheduling-dependent counters) is recorded and
//! never gated. `checks` are the only measured values that are gated: each
//! is an integer that must lie within its inclusive `[lo, hi]` bounds.

use crate::json::{self, obj, Json};

/// The record's `schema` tag, also required of the baseline.
pub const SCHEMA: &str = "canvas-bench/1";

/// One gated measured value with its inclusive bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// Stable name, e.g. `overhead_bp.enabled`.
    pub name: String,
    /// The measured value.
    pub value: u64,
    /// Inclusive lower bound, if any.
    pub lo: Option<u64>,
    /// Inclusive upper bound, if any.
    pub hi: Option<u64>,
}

impl Check {
    /// A check of `value` against `[lo, hi]` (either side may be open).
    pub fn new(name: impl Into<String>, value: u64, lo: Option<u64>, hi: Option<u64>) -> Check {
        Check { name: name.into(), value, lo, hi }
    }

    /// The violation as a human-readable line, or `None` within bounds.
    pub fn violation(&self) -> Option<String> {
        match (self.lo, self.hi) {
            (Some(lo), _) if self.value < lo => {
                Some(format!("check {}: {} is below its lower bound {lo}", self.name, self.value))
            }
            (_, Some(hi)) if self.value > hi => {
                Some(format!("check {}: {} is above its upper bound {hi}", self.name, self.value))
            }
            _ => None,
        }
    }
}

/// One experiment's result in the shared `canvas-bench/1` shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// `eval`, `fixpoint`, `fleet`, `obs`, or `overload`.
    pub experiment: String,
    /// Byte-stable results, gated against `baseline[experiment]`.
    pub deterministic: Json,
    /// Timings and scheduling-dependent values, never gated.
    pub measured: Json,
    /// The gated measured values.
    pub checks: Vec<Check>,
}

/// `Ok` when `doc` carries the [`SCHEMA`] tag.
fn require_schema(doc: &Json) -> Result<(), String> {
    match doc.get("schema") {
        Some(Json::Str(s)) if s == SCHEMA => Ok(()),
        Some(other) => Err(format!("schema {} is not {SCHEMA:?}", other.render_compact())),
        None => Err(format!("no \"schema\" field; expected {SCHEMA:?}")),
    }
}

impl Record {
    /// A record without checks.
    pub fn new(experiment: &str, deterministic: Json, measured: Json) -> Record {
        Record { experiment: experiment.to_string(), deterministic, measured, checks: Vec::new() }
    }

    /// The record as a JSON document.
    pub fn to_json(&self) -> Json {
        let checks = self
            .checks
            .iter()
            .map(|c| {
                let mut pairs =
                    vec![("name", Json::Str(c.name.clone())), ("value", Json::Int(c.value))];
                pairs.extend(c.lo.map(|lo| ("lo", Json::Int(lo))));
                pairs.extend(c.hi.map(|hi| ("hi", Json::Int(hi))));
                obj(pairs)
            })
            .collect();
        obj(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("experiment", Json::Str(self.experiment.clone())),
            ("deterministic", self.deterministic.clone()),
            ("measured", self.measured.clone()),
            ("checks", Json::Arr(checks)),
        ])
    }

    /// The pretty-printed document, as `--json` writes it.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Reads a record back from its document.
    ///
    /// # Errors
    ///
    /// A human-readable message when `doc` is not a `canvas-bench/1` record.
    pub fn from_json(doc: &Json) -> Result<Record, String> {
        require_schema(doc)?;
        let Some(Json::Str(experiment)) = doc.get("experiment") else {
            return Err("missing string field \"experiment\"".to_string());
        };
        let section =
            |key: &str| doc.get(key).cloned().ok_or_else(|| format!("missing section {key:?}"));
        let Some(Json::Arr(items)) = doc.get("checks") else {
            return Err("missing array \"checks\"".to_string());
        };
        let checks = items
            .iter()
            .map(|c| {
                let bound = |key: &str| match c.get(key) {
                    Some(Json::Int(n)) => Ok(Some(*n)),
                    None => Ok(None),
                    Some(_) => Err(format!("check field {key:?} is not an integer")),
                };
                match (c.get("name"), c.get("value")) {
                    (Some(Json::Str(name)), Some(Json::Int(value))) => {
                        Ok(Check::new(name.clone(), *value, bound("lo")?, bound("hi")?))
                    }
                    _ => Err("a check lacks its \"name\" or integer \"value\"".to_string()),
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(Record {
            experiment: experiment.clone(),
            deterministic: section("deterministic")?,
            measured: section("measured")?,
            checks,
        })
    }

    /// Gates the record against a `canvas-bench/1` baseline: the
    /// `deterministic` section must equal `baseline[experiment]` (skipped
    /// when the section is empty) and every check must hold. Returns the
    /// failures as human-readable lines (empty = pass).
    pub fn check(&self, baseline: &Json) -> Vec<String> {
        if let Err(e) = require_schema(baseline) {
            return vec![format!("baseline {e}")];
        }
        let mut fails = Vec::new();
        if self.deterministic != Json::Obj(Vec::new()) {
            match baseline.get(&self.experiment) {
                Some(base) => fails.extend(json::diff(&self.deterministic, base)),
                None => fails.push(format!("baseline has no {:?} section", self.experiment)),
            }
        }
        fails.extend(self.checks.iter().filter_map(Check::violation));
        fails
    }
}

/// The exact `q`-quantile of ascending `sorted`: the sample of 1-based
/// rank `ceil(q·n)` (clamped to `[1, n]`), or the default when empty.
pub(crate) fn exact_percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    let n = sorted.len();
    if n == 0 {
        return T::default();
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        let mut r = Record::new(
            "fixpoint",
            obj(vec![("counters", obj(vec![("fds.worklist_pops", Json::Int(12))]))]),
            obj(vec![("wall_ns", Json::Int(123_456))]),
        );
        r.checks.push(Check::new("bounded", 5, Some(1), Some(10)));
        r.checks.push(Check::new("ceiling", 5, None, Some(5)));
        r.checks.push(Check::new("floor", 5, Some(5), None));
        r
    }

    fn baseline_with(experiment: &str, det: Json) -> Json {
        obj(vec![("schema", Json::Str(SCHEMA.to_string())), (experiment, det)])
    }

    #[test]
    fn record_round_trips_through_its_rendering() {
        let r = sample();
        let back = Json::parse(&r.render()).expect("the rendering is JSON");
        assert_eq!(back, r.to_json());
        assert_eq!(Record::from_json(&back), Ok(r));
    }

    #[test]
    fn edited_counter_is_reported_with_its_path() {
        let r = sample();
        assert_eq!(
            r.check(&baseline_with("fixpoint", r.deterministic.clone())),
            Vec::<String>::new()
        );
        let edited = obj(vec![("counters", obj(vec![("fds.worklist_pops", Json::Int(13))]))]);
        let fails = r.check(&baseline_with("fixpoint", edited));
        assert_eq!(fails, vec!["$.counters.fds.worklist_pops: 12 vs 13".to_string()]);
    }

    #[test]
    fn missing_baseline_section_fails_only_with_deterministic_content() {
        let base = baseline_with("eval", obj(vec![]));
        let fails = sample().check(&base);
        assert_eq!(fails, vec!["baseline has no \"fixpoint\" section".to_string()]);
        let gated_only_by_checks = Record { deterministic: obj(vec![]), ..sample() };
        assert!(gated_only_by_checks.check(&base).is_empty());
    }

    #[test]
    fn lo_and_hi_violations_are_caught() {
        let base = baseline_with("obs", obj(vec![]));
        let mut r = Record::new("obs", obj(vec![]), obj(vec![]));
        r.checks.push(Check::new("low", 0, Some(1), None));
        r.checks.push(Check::new("high", 9, Some(1), Some(8)));
        r.checks.push(Check::new("edge", 8, Some(8), Some(8)));
        let fails = r.check(&base);
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(fails[0].contains("low") && fails[0].contains("below its lower bound 1"));
        assert!(fails[1].contains("high") && fails[1].contains("above its upper bound 8"));
    }

    #[test]
    fn baseline_with_another_schema_is_rejected() {
        let r = sample();
        let old = obj(vec![
            ("schema", Json::Str("canvas-bench/0".to_string())),
            ("fixpoint", r.deterministic.clone()),
        ]);
        let fails = r.check(&old);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("is not \"canvas-bench/1\""), "{fails:?}");
        assert!(Record::from_json(&old).is_err());
    }

    #[test]
    fn exact_percentile_picks_rank_ceil_qn() {
        let v = [10, 20, 30, 40];
        assert_eq!(exact_percentile(&v, 0.5), 20);
        assert_eq!(exact_percentile(&v, 0.99), 40);
        assert_eq!(exact_percentile(&v, 0.0), 10);
        assert_eq!(exact_percentile::<u64>(&[], 0.5), 0);
    }
}

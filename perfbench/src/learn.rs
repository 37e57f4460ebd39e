//! The learn phase: cold, counterexample-refined learning of the five
//! Table-1 languages, at the refinement configuration of the repository's
//! `trace` and `refine` tools.
//!
//! The traced variant wraps two public seams — the membership-oracle
//! closure under the `Mat` and the `EvidenceSource` of the refinement loop —
//! and installs a `vstar_telemetry` collector to read the learner's own spans.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use vstar::refine::{Evidence, EvidenceSource, RefineConfig};
use vstar::{LearnedLanguage, Mat, VStar, VStarConfig, VStarResult};
use vstar_fuzz::{CampaignEvidence, FuzzConfig};
use vstar_oracles::Language;
use vstar_telemetry::Timings;

use crate::corpus::{members, stream_seed, Stream, RECALL_SIZE};
use crate::host;

/// In-loop campaign iterations.
const CAMPAIGN_ITERATIONS: usize = 300;
/// Sample budget of every in-loop campaign.
const CAMPAIGN_BUDGET: usize = 24;
/// Evidence rounds of one refinement loop.
const MAX_CAMPAIGNS: usize = 40;
/// Base seed of the in-loop campaigns, the `trace`/`refine` default. The
/// learning task is the same in every run; `--seed` varies what is served
/// and the held-out recall corpus, not the counterexamples learning sees.
const CAMPAIGN_SEED: u64 = 42;

/// The learner spans reported as layers, as `(metric stem, span path)`.
pub const LEARN_SPANS: [(&str, &str); 7] = [
    ("token_inference", "learn/token-inference"),
    ("pool_build", "learn/pool-build"),
    ("row_fill", "learn/vpa-learning/row-fill"),
    ("hypothesis_construction", "learn/vpa-learning/hypothesis-construction"),
    ("pool_equivalence", "learn/vpa-learning/pool-equivalence"),
    ("ce_processing", "learn/vpa-learning/ce-processing"),
    ("extraction", "learn/extraction"),
];

/// What learning one language produced.
pub struct Learned {
    /// Language name.
    pub name: &'static str,
    /// The learned language, detached from its `Mat`.
    pub language: LearnedLanguage,
    /// Wall time of `learn_refined`, host probes excluded.
    pub seconds: f64,
    /// `seconds` scaled to the reference host speed (see [`HostProbe`]);
    /// equal to `seconds` on a traced learn.
    pub scaled_seconds: f64,
    /// Unique membership queries (the paper's #Queries).
    pub unique: u64,
    /// Membership calls including cache hits.
    pub calls: u64,
    /// States of the learned VPA.
    pub vpa_states: u64,
    /// Rules of the extracted VPG.
    pub vpg_rules: u64,
    /// Seeds the learned language rejects (0 on a successful run).
    pub rejected_seeds: u64,
    /// Held-out recall strings the learned language accepts, and how many
    /// were drawn.
    pub recall: (u64, u64),
    /// Per-layer probes; present only on a traced learn.
    pub layers: Option<LearnLayers>,
}

/// Per-layer numbers of one traced learn.
pub struct LearnLayers {
    /// The learner's span timings.
    pub timings: Timings,
    /// `learner.rounds` counter.
    pub rounds: u64,
    /// Time inside the membership oracle.
    pub oracle_seconds: f64,
    /// Oracle invocations (cache misses of the `Mat`).
    pub oracle_calls: u64,
    /// Time inside `EvidenceSource::collect`.
    pub evidence_seconds: f64,
    /// Evidence rounds collected.
    pub evidence_campaigns: u64,
}

/// Times every `collect` of the wrapped source.
struct TimedEvidence<'a> {
    inner: CampaignEvidence<'a>,
    seconds: f64,
    campaigns: u64,
}

impl EvidenceSource for TimedEvidence<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn collect(&mut self, round: usize, learned: &LearnedLanguage, mat: &Mat<'_>) -> Vec<Evidence> {
        let start = Instant::now();
        let evidence = self.inner.collect(round, learned, mat);
        self.seconds += start.elapsed().as_secs_f64();
        self.campaigns += 1;
        evidence
    }
}

/// Learning time between two host probes.
const PROBE_INTERVAL_S: f64 = 0.2;

/// Samples the host slowdown ([`host::slowdown`]) during an untraced learn,
/// from inside the oracle closure, once per [`PROBE_INTERVAL_S`] of learning.
/// Each stretch of learning is then scaled by the slowdown measured at its
/// end, as every raw serving pass is.
struct HostProbe {
    start: Instant,
    /// `(stretch end since start, probe seconds, slowdown)`.
    marks: RefCell<Vec<(f64, f64, f64)>>,
    next: Cell<f64>,
}

impl HostProbe {
    fn new() -> Self {
        HostProbe {
            start: Instant::now(),
            marks: RefCell::new(Vec::new()),
            next: Cell::new(PROBE_INTERVAL_S),
        }
    }

    fn tick(&self) {
        let at = self.start.elapsed().as_secs_f64();
        if at < self.next.get() {
            return;
        }
        let t = Instant::now();
        let slowdown = host::slowdown();
        let probe = t.elapsed().as_secs_f64();
        self.marks.borrow_mut().push((at, probe, slowdown));
        self.next.set(at + probe + PROBE_INTERVAL_S);
    }

    /// The learn's wall time `wall` (measured from [`HostProbe::new`]) with
    /// probe time removed, and the same time scaled stretch by stretch.
    fn finish(&self, wall: f64) -> (f64, f64) {
        let last = host::slowdown();
        let marks = self.marks.borrow();
        let (mut scaled, mut from, mut probes) = (0.0, 0.0, 0.0);
        for &(at, probe, slowdown) in marks.iter() {
            scaled += (at - from) / slowdown;
            from = at + probe;
            probes += probe;
        }
        scaled += (wall - from).max(0.0) / last;
        (wall - probes, scaled)
    }
}

/// The in-loop campaign source of one language.
fn campaign_source<'a>(lang: &'a dyn Language, refine: &RefineConfig) -> CampaignEvidence<'a> {
    let fuzz = FuzzConfig {
        seed: CAMPAIGN_SEED,
        iterations: CAMPAIGN_ITERATIONS,
        sample_budget: CAMPAIGN_BUDGET,
        ..FuzzConfig::default()
    };
    CampaignEvidence::new(lang, fuzz).with_seed_window(refine.clean_passes as u64)
}

/// One timed `learn_refined` on a fresh `Mat` over `oracle`: the result,
/// its wall time, and the `Mat`'s unique and total query counts.
fn timed_learn(
    lang: &dyn Language,
    oracle: &dyn Fn(&str) -> bool,
    source: &mut dyn EvidenceSource,
    refine: RefineConfig,
) -> Result<(VStarResult, f64, u64, u64), String> {
    let (alphabet, seeds) = (lang.alphabet(), lang.seeds());
    let start = Instant::now();
    let mat = Mat::new(oracle);
    let learned =
        VStar::new(VStarConfig::default()).learn_refined(&mat, &alphabet, &seeds, source, refine);
    let seconds = start.elapsed().as_secs_f64();
    let (result, _log) = learned.map_err(|e| format!("{}: {e}", lang.name()))?;
    Ok((result, seconds, mat.unique_queries() as u64, mat.total_queries() as u64))
}

/// Learns `lang` cold; `traced` selects the instrumented variant. `seed`
/// draws the held-out recall corpus.
///
/// # Errors
///
/// The learner's error, rendered.
pub fn learn(lang: &dyn Language, seed: u64, traced: bool) -> Result<Learned, String> {
    let refine = RefineConfig { max_campaigns: MAX_CAMPAIGNS, ..RefineConfig::default() };
    let mut source = campaign_source(lang, &refine);
    let (result, seconds, scaled_seconds, unique, calls, layers) = if traced {
        let oracle_nanos = Cell::new(0u128);
        let oracle_calls = Cell::new(0u64);
        let oracle = |s: &str| {
            let start = Instant::now();
            let verdict = lang.accepts(s);
            oracle_nanos.set(oracle_nanos.get() + start.elapsed().as_nanos());
            oracle_calls.set(oracle_calls.get() + 1);
            verdict
        };
        let mut timed = TimedEvidence { inner: source, seconds: 0.0, campaigns: 0 };
        let guard = vstar_telemetry::install();
        let run = timed_learn(lang, &oracle, &mut timed, refine);
        let report = guard.finish();
        let (result, seconds, unique, calls) = run?;
        let layers = LearnLayers {
            timings: report.timings,
            rounds: report.facts.counter("learner.rounds"),
            oracle_seconds: oracle_nanos.get() as f64 / 1e9,
            oracle_calls: oracle_calls.get(),
            evidence_seconds: timed.seconds,
            evidence_campaigns: timed.campaigns,
        };
        (result, seconds, seconds, unique, calls, Some(layers))
    } else {
        let probe = HostProbe::new();
        let oracle = |s: &str| {
            probe.tick();
            lang.accepts(s)
        };
        let (result, _, unique, calls) = timed_learn(lang, &oracle, &mut source, refine)?;
        let (seconds, scaled) = probe.finish(probe.start.elapsed().as_secs_f64());
        (result, seconds, scaled, unique, calls, None)
    };

    // Off the clock: the acceptance checks run on a separate Mat, so they
    // add nothing to the learning query count.
    let language = result.as_learned_language();
    let oracle = |s: &str| lang.accepts(s);
    let check_mat = Mat::new(&oracle);
    let rejected_seeds =
        lang.seeds().iter().filter(|s| !language.accepts(&check_mat, s)).count() as u64;
    let held_out = members(lang, stream_seed(seed, Stream::Recall), RECALL_SIZE);
    let recalled = held_out.iter().filter(|s| language.accepts(&check_mat, s)).count() as u64;

    Ok(Learned {
        name: lang.name(),
        seconds,
        scaled_seconds,
        unique,
        calls,
        vpa_states: result.stats.states as u64,
        vpg_rules: result.vpg.rule_count() as u64,
        rejected_seeds,
        recall: (recalled, held_out.len() as u64),
        language,
        layers,
    })
}

/// Nanoseconds of the span at `path` (0 when it never opened).
#[must_use]
pub fn span_nanos(timings: &Timings, path: &str) -> u64 {
    timings.spans.iter().find(|t| t.path == path).map_or(0, |t| t.nanos)
}

/// One parent span's attribution: its time, the time its direct children
/// cover, and whether the children fit inside it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Parent nanoseconds.
    pub parent: u64,
    /// Sum of the direct children's nanoseconds.
    pub children: u64,
}

impl Attribution {
    /// Share of the parent no child covers, in percent.
    #[must_use]
    pub fn unattributed_pct(self) -> f64 {
        if self.parent == 0 {
            0.0
        } else {
            100.0 * self.parent.saturating_sub(self.children) as f64 / self.parent as f64
        }
    }
}

/// Attribution of every span that has children, keyed by path.
#[must_use]
pub fn attribution(timings: &Timings) -> Vec<(String, Attribution)> {
    let mut out = Vec::new();
    for parent in &timings.spans {
        let prefix = format!("{}/", parent.path);
        let children: u64 = timings
            .spans
            .iter()
            .filter(|t| {
                if parent.path.is_empty() {
                    !t.path.is_empty() && !t.path.contains('/')
                } else {
                    t.path.strip_prefix(&prefix).is_some_and(|rest| !rest.contains('/'))
                }
            })
            .map(|t| t.nanos)
            .sum();
        if children > 0 {
            out.push((parent.path.clone(), Attribution { parent: parent.nanos, children }));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstar_telemetry::SpanTiming;

    fn timing(path: &str, nanos: u64) -> SpanTiming {
        SpanTiming { path: path.to_string(), nanos }
    }

    #[test]
    fn attribution_sums_direct_children_only() {
        let timings = Timings {
            spans: vec![
                timing("learn", 100),
                timing("learn/a", 30),
                timing("learn/a/x", 25),
                timing("learn/b", 50),
            ],
        };
        let rows = attribution(&timings);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], ("learn".to_string(), Attribution { parent: 100, children: 80 }));
        assert_eq!(rows[1], ("learn/a".to_string(), Attribution { parent: 30, children: 25 }));
        assert!((rows[0].1.unattributed_pct() - 20.0).abs() < 1e-9);
        assert_eq!(span_nanos(&timings, "learn/b"), 50);
        assert_eq!(span_nanos(&timings, "learn/c"), 0);
    }
}

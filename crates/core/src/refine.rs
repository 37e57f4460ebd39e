//! Counterexample-guided refinement of learned grammars.
//!
//! The pipeline's simulated equivalence queries only consult the seed-derived
//! test pool, so a hypothesis can converge while still over- or
//! under-approximating the oracle language in regions the pool never probes —
//! exactly the precision gaps differential fuzzing exposed (a learned `while`
//! grammar accepting identifiers in arithmetic positions, a learned `json`
//! grammar accepting value concatenations). This module closes the loop,
//! GLADE/Arvada-style: an [`EvidenceSource`] interrogates each hypothesis with
//! whatever heavy machinery it likes (the fuzz crate plugs in a full
//! differential `FuzzCampaign` over the compiled serving artifact), the
//! resulting divergences are replayed into the learner as counterexamples, and
//! learning continues — learn → fuzz → refine — until the evidence runs dry
//! (a fixed point) or the campaign budget is exhausted.
//!
//! The loop is packaged as an [`EvidenceEquivalence`] strategy for
//! [`crate::VStar::learn_with_strategy`]: it first replays the classic pool
//! check (the cheap simulated equivalence query), and only when the pool runs
//! clean does it pay for an evidence round. [`crate::VStar::learn_refined`] is
//! the one-call entry point.

use std::collections::VecDeque;

use serde::Serialize;

use vstar_vpl::{vpa_to_vpg, Vpg};

use crate::equivalence::{EquivalenceContext, EquivalenceStrategy};
use crate::mat::Mat;
use crate::pipeline::LearnedLanguage;

/// Budget and convergence knobs of the refinement loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefineConfig {
    /// Maximum number of evidence rounds (e.g. fuzz campaigns) before the
    /// strategy gives up and lets learning end with the current hypothesis.
    pub max_campaigns: usize,
    /// Number of *consecutive* evidence rounds that must come back empty
    /// before the loop declares a fixed point. Sources are expected to vary
    /// their probing across a window of this size (see
    /// [`EvidenceSource::collect`]'s `round` argument), so a fixed point
    /// means every probe in the window ran clean against the same hypothesis.
    pub clean_passes: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig { max_campaigns: 40, clean_passes: 2 }
    }
}

/// One piece of divergence evidence against a hypothesis: a raw string the
/// learned artifacts and the oracle disagree on.
#[derive(Clone, Debug, Serialize)]
pub struct Evidence {
    /// The raw witness string (over Σ, not the converted alphabet).
    pub raw: String,
    /// Verdict of the learned artifacts when the evidence was gathered.
    pub learned_accepts: bool,
    /// Verdict of the ground-truth oracle.
    pub oracle_accepts: bool,
    /// Where the evidence came from (a mutation label, corpus name, …).
    pub source: String,
}

impl Evidence {
    /// The divergence direction: `"false-positive"` when the learned side
    /// over-approximates, `"false-negative"` when it under-approximates.
    #[must_use]
    pub fn class_label(&self) -> &'static str {
        if self.learned_accepts {
            "false-positive"
        } else {
            "false-negative"
        }
    }
}

/// A generator of divergence evidence against the current hypothesis.
///
/// Implementations judge the hypothesis-as-learned-language against ground
/// truth however they can afford: the fuzz crate runs a differential campaign
/// over the compiled artifact; [`CorpusEvidence`] diffs a fixed corpus.
pub trait EvidenceSource {
    /// A short identifier recorded as [`RefineLog::evidence_source`].
    fn name(&self) -> &'static str;

    /// Collects divergence evidence against `learned` (the current
    /// hypothesis bundled with the run's tokenizer). `round` counts the
    /// collection rounds of one refinement loop; sources should vary their
    /// probing with it (different RNG seeds per round) so consecutive clean
    /// rounds genuinely mean different probes found nothing.
    fn collect(&mut self, round: usize, learned: &LearnedLanguage, mat: &Mat<'_>) -> Vec<Evidence>;
}

/// A counterexample the refinement loop replayed into the learner.
#[derive(Clone, Debug, Serialize)]
pub struct CounterexampleRecord {
    /// Evidence round (campaign number) the witness came from.
    pub campaign: usize,
    /// The raw witness string.
    pub raw: String,
    /// Divergence class at replay time ([`Evidence::class_label`]).
    pub class: String,
    /// The [`EvidenceSource`]-reported provenance.
    pub source: String,
}

/// Rule-liveness counts of one hypothesis grammar: how much of it actually
/// participates in finite derivations from the start symbol.
///
/// A rule is *live* when its left-hand side is reachable from the start
/// symbol and every nonterminal on its right-hand side is productive; only
/// live rules can appear in a derivation of a member string. Learned grammars
/// carry large dead regions (the `while` grammar shrinks from tens of
/// thousands of rules to ~a quarter under refinement), and these counts make
/// that shrinkage auditable per evidence round instead of anecdotal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct RuleLiveness {
    /// Nonterminals in the grammar.
    pub nonterminals: usize,
    /// Total rules in the grammar.
    pub rules: usize,
    /// Rules on some finite derivation from the start symbol.
    pub live_rules: usize,
}

/// Computes the [`RuleLiveness`] counts of `vpg`.
#[must_use]
pub fn rule_liveness(vpg: &Vpg) -> RuleLiveness {
    use std::collections::BTreeSet;
    use vstar_vpl::{NonterminalId, RuleRhs};

    let mut reachable = BTreeSet::new();
    let mut work = vec![vpg.start()];
    reachable.insert(vpg.start());
    while let Some(nt) = work.pop() {
        for rhs in vpg.alternatives(nt) {
            let succs: &[NonterminalId] = match *rhs {
                RuleRhs::Empty => &[],
                RuleRhs::Linear { next, .. } => &[next],
                RuleRhs::Match { inner, next, .. } => &[inner, next],
            };
            for &s in succs {
                if reachable.insert(s) {
                    work.push(s);
                }
            }
        }
    }
    let productive: Vec<bool> = vpg.min_lengths().iter().map(Option::is_some).collect();
    let mut rules = 0usize;
    let mut live = 0usize;
    for (lhs, rhs) in vpg.rules() {
        rules += 1;
        let rhs_productive = match rhs {
            RuleRhs::Empty => true,
            RuleRhs::Linear { next, .. } => productive[next.0],
            RuleRhs::Match { inner, next, .. } => productive[inner.0] && productive[next.0],
        };
        if reachable.contains(&lhs) && rhs_productive {
            live += 1;
        }
    }
    RuleLiveness { nonterminals: vpg.nonterminal_count(), rules, live_rules: live }
}

/// Query and cache economics of one evidence round, snapshotted from the
/// telemetry `query.<site>.{hit,miss}` counters — the same source of truth
/// the paper's "#Queries" metric is measured from, so the bench tallies and
/// the telemetry counters can never drift apart. The snapshot reads the
/// *innermost* query site that moved during the round's collection: the
/// shared `oracle` site when the evidence source drives a
/// `CountingOracle`-backed language (`vstar_oracles`), else the learner's
/// `mat` cache. All fields are zero when no telemetry collector is
/// installed for the run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct RefineRoundSnapshot {
    /// The evidence round (0-based campaign number).
    pub round: usize,
    /// Divergence evidence items the round produced.
    pub evidence: usize,
    /// Unique membership queries (cache misses) spent collecting the round's
    /// evidence.
    pub unique_queries: usize,
    /// Total membership calls (hits included) during the round's collection.
    pub total_queries: usize,
    /// Cache hits during the round's collection.
    pub cache_hits: usize,
    /// `cache_hits / total_queries` for this round (0 when no calls).
    pub cache_hit_rate: f64,
}

/// What a refinement loop did: every counterexample replayed, plus how the
/// loop ended. Serialisable so bench reports can track refinement across
/// commits (deliberately no wall-clock fields).
#[derive(Clone, Debug, Default, Serialize)]
pub struct RefineLog {
    /// The [`EvidenceSource::name`] of the source that drove the loop.
    pub evidence_source: String,
    /// Evidence rounds (campaigns) executed.
    pub campaigns_run: usize,
    /// Counterexamples replayed into the learner, in replay order.
    pub counterexamples: Vec<CounterexampleRecord>,
    /// Evidence items that no longer diverged when checked against the
    /// then-current hypothesis (an earlier counterexample already fixed them).
    pub stale_evidence: usize,
    /// Members of the oracle language whose conversion is not well matched
    /// under the inferred structure; they cannot be replayed as
    /// counterexamples and are skipped (a structure-inference gap, not a
    /// learner gap).
    pub skipped_ill_matched: usize,
    /// `true` when [`RefineConfig::clean_passes`] consecutive evidence rounds
    /// came back empty: the evidence ran dry.
    pub fixed_point: bool,
    /// `true` when [`RefineConfig::max_campaigns`] rounds were spent without
    /// reaching a fixed point.
    pub budget_exhausted: bool,
    /// Rule liveness of the hypothesis at the *first* evidence round — the
    /// grammar refinement started from. `None` when no evidence round ran.
    pub pre_liveness: Option<RuleLiveness>,
    /// Rule liveness of the hypothesis at the *latest* evidence round. `None`
    /// when no evidence round ran.
    pub post_liveness: Option<RuleLiveness>,
    /// Per-evidence-round query/cache snapshot (the embedded telemetry view):
    /// one entry per campaign, in round order.
    pub rounds: Vec<RefineRoundSnapshot>,
}

impl RefineLog {
    /// Number of counterexamples replayed into the learner.
    #[must_use]
    pub fn counterexamples_replayed(&self) -> usize {
        self.counterexamples.len()
    }

    /// Unique membership queries spent across all evidence rounds.
    #[must_use]
    pub fn unique_queries(&self) -> usize {
        self.rounds.iter().map(|r| r.unique_queries).sum()
    }

    /// Cache hit rate across all evidence rounds (0 when no calls were made).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: usize = self.rounds.iter().map(|r| r.cache_hits).sum();
        let total: usize = self.rounds.iter().map(|r| r.total_queries).sum();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Rebuilds the learned-language view of the current hypothesis: the VPG is
/// re-extracted from the hypothesis VPA (so evidence sources always fuzz the
/// grammar the final pipeline would ship for *this* hypothesis), bundled with
/// the run's tokenizer and mode.
#[must_use]
pub fn hypothesis_language(cx: &EquivalenceContext<'_>) -> LearnedLanguage {
    let vpg = vpa_to_vpg(&cx.hypothesis.vpa);
    LearnedLanguage::new(cx.hypothesis.vpa.clone(), vpg, cx.tokenizer.clone(), cx.mode)
}

/// The evidence-driven equivalence strategy: the classic pool check, wrapped
/// so that a pool-clean hypothesis is interrogated by an [`EvidenceSource`]
/// before being declared equivalent.
///
/// Divergence evidence is queued and replayed one counterexample per
/// equivalence round (the learner refines between rounds); evidence that no
/// longer diverges against the refined hypothesis is dropped as stale rather
/// than replayed, so one underlying defect fixed by an earlier counterexample
/// does not get "fixed" twice.
pub struct EvidenceEquivalence<'s> {
    source: &'s mut dyn EvidenceSource,
    config: RefineConfig,
    pending: VecDeque<Evidence>,
    clean_streak: usize,
    log: RefineLog,
}

enum Confirmation {
    /// Still a disagreement; replay this converted word.
    Confirmed(String),
    /// No longer (or never was) a hypothesis/oracle disagreement.
    Stale,
    /// A member whose conversion the inferred structure cannot represent.
    IllMatched,
}

impl<'s> EvidenceEquivalence<'s> {
    /// Wraps an evidence source as an equivalence strategy.
    pub fn new(source: &'s mut dyn EvidenceSource, config: RefineConfig) -> Self {
        let log = RefineLog { evidence_source: source.name().to_string(), ..RefineLog::default() };
        EvidenceEquivalence { source, config, pending: VecDeque::new(), clean_streak: 0, log }
    }

    /// The refinement log accumulated so far.
    #[must_use]
    pub fn log(&self) -> &RefineLog {
        &self.log
    }

    /// Consumes the strategy, returning the refinement log.
    #[must_use]
    pub fn into_log(self) -> RefineLog {
        self.log
    }

    /// Re-checks one piece of evidence against the *current* hypothesis.
    fn confirm(cx: &EquivalenceContext<'_>, evidence: &Evidence) -> Confirmation {
        let conv = cx.convert(&evidence.raw);
        let oracle_says = cx.mat.member(&evidence.raw);
        if cx.hypothesis.vpa.accepts(&conv) == oracle_says {
            return Confirmation::Stale;
        }
        if oracle_says && !cx.hypothesis.vpa.tagging().is_well_matched(&conv) {
            // A member whose conversion is not pair-matched cannot be
            // replayed: the inferred structure cannot represent it, and the
            // learner would reject it as incompatible. (The converse — a
            // *non*-member the hypothesis accepts through cross-pair return
            // transitions — is a legitimate counterexample and falls
            // through.)
            return Confirmation::IllMatched;
        }
        Confirmation::Confirmed(conv)
    }
}

impl EquivalenceStrategy for EvidenceEquivalence<'_> {
    fn find_counterexample(&mut self, cx: &EquivalenceContext<'_>) -> Option<String> {
        // The cheap simulated equivalence query first: the pool must run
        // clean before an evidence round is worth paying for.
        let pool_ce = {
            let _pool_check = vstar_telemetry::span("pool-check");
            cx.pool.find_counterexample(cx.mat, cx.hypothesis)
        };
        if let Some(ce) = pool_ce {
            self.clean_streak = 0;
            return Some(ce);
        }
        loop {
            // Replay queued evidence one counterexample per equivalence
            // round, dropping items an earlier refinement already fixed.
            while let Some(evidence) = self.pending.pop_front() {
                let confirmation = {
                    let _replay = vstar_telemetry::span("evidence-replay");
                    Self::confirm(cx, &evidence)
                };
                match confirmation {
                    Confirmation::Confirmed(conv) => {
                        self.clean_streak = 0;
                        vstar_telemetry::counter("refine.counterexamples_replayed", 1);
                        self.log.counterexamples.push(CounterexampleRecord {
                            campaign: self.log.campaigns_run,
                            raw: evidence.raw.clone(),
                            class: evidence.class_label().to_string(),
                            source: evidence.source.clone(),
                        });
                        return Some(conv);
                    }
                    Confirmation::Stale => {
                        vstar_telemetry::counter("refine.stale_evidence", 1);
                        self.log.stale_evidence += 1;
                    }
                    Confirmation::IllMatched => {
                        vstar_telemetry::counter("refine.skipped_ill_matched", 1);
                        self.log.skipped_ill_matched += 1;
                    }
                }
            }
            if self.log.campaigns_run >= self.config.max_campaigns {
                self.log.budget_exhausted = true;
                return None;
            }
            let round = self.log.campaigns_run;
            self.log.campaigns_run += 1;
            vstar_telemetry::counter("refine.campaigns", 1);
            let (learned, liveness) = {
                let _hypothesis_language = vstar_telemetry::span("hypothesis-language");
                let learned = hypothesis_language(cx);
                let liveness = rule_liveness(learned.vpg());
                (learned, liveness)
            };
            self.log.pre_liveness.get_or_insert(liveness);
            self.log.post_liveness = Some(liveness);
            // Snapshot the telemetry query counters around the collection so
            // the round's query budget and cache economics land in the log.
            // The `oracle` site is the innermost cache when the evidence
            // source drives a CountingOracle-backed language; sources that
            // only query through the learner's Mat move the `mat` site
            // instead, so prefer whichever innermost site actually moved.
            let oracle_miss_before = vstar_telemetry::counter_total("query.oracle.miss");
            let oracle_hit_before = vstar_telemetry::counter_total("query.oracle.hit");
            let mat_miss_before = vstar_telemetry::counter_total("query.mat.miss");
            let mat_hit_before = vstar_telemetry::counter_total("query.mat.hit");
            let evidence = {
                let _campaign = vstar_telemetry::span("evidence-campaign");
                self.source.collect(round, &learned, cx.mat)
            };
            let oracle_miss =
                (vstar_telemetry::counter_total("query.oracle.miss") - oracle_miss_before) as usize;
            let oracle_hit =
                (vstar_telemetry::counter_total("query.oracle.hit") - oracle_hit_before) as usize;
            let mat_miss =
                (vstar_telemetry::counter_total("query.mat.miss") - mat_miss_before) as usize;
            let mat_hit =
                (vstar_telemetry::counter_total("query.mat.hit") - mat_hit_before) as usize;
            let (unique_queries, cache_hits) = if oracle_miss + oracle_hit > 0 {
                (oracle_miss, oracle_hit)
            } else {
                (mat_miss, mat_hit)
            };
            let total_queries = unique_queries + cache_hits;
            self.log.rounds.push(RefineRoundSnapshot {
                round,
                evidence: evidence.len(),
                unique_queries,
                total_queries,
                cache_hits,
                cache_hit_rate: if total_queries == 0 {
                    0.0
                } else {
                    cache_hits as f64 / total_queries as f64
                },
            });
            vstar_telemetry::counter("refine.evidence_collected", evidence.len() as u64);
            vstar_telemetry::event(
                "refine.round",
                &[
                    ("round", round as u64),
                    ("evidence", evidence.len() as u64),
                    ("unique_queries", unique_queries as u64),
                    ("total_queries", total_queries as u64),
                ],
            );
            if evidence.is_empty() {
                self.clean_streak += 1;
                if self.clean_streak >= self.config.clean_passes {
                    self.log.fixed_point = true;
                    return None;
                }
            } else {
                self.clean_streak = 0;
                self.pending.extend(evidence);
            }
        }
    }
}

/// The simplest evidence source: diff the hypothesis against a fixed corpus
/// of raw strings. Deterministic and oracle-cheap — the unit-test and
/// held-out-corpus counterpart of the fuzz crate's campaign-backed source.
#[derive(Clone, Debug)]
pub struct CorpusEvidence {
    words: Vec<String>,
}

impl CorpusEvidence {
    /// Builds a source from raw strings (members and non-members both work;
    /// each round reports those the hypothesis misjudges).
    #[must_use]
    pub fn new(words: Vec<String>) -> Self {
        CorpusEvidence { words }
    }

    /// The corpus being diffed.
    #[must_use]
    pub fn words(&self) -> &[String] {
        &self.words
    }
}

impl EvidenceSource for CorpusEvidence {
    fn name(&self) -> &'static str {
        "corpus"
    }

    fn collect(
        &mut self,
        _round: usize,
        learned: &LearnedLanguage,
        mat: &Mat<'_>,
    ) -> Vec<Evidence> {
        self.words
            .iter()
            .filter_map(|w| {
                let learned_says = learned.accepts(mat, w);
                let oracle_says = mat.member(w);
                (learned_says != oracle_says).then(|| Evidence {
                    raw: w.clone(),
                    learned_accepts: learned_says,
                    oracle_accepts: oracle_says,
                    source: "corpus".to_string(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TokenDiscovery, VStar, VStarConfig};

    fn dyck(s: &str) -> bool {
        let mut depth = 0i64;
        for c in s.chars() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                'x' => {}
                _ => return false,
            }
        }
        depth == 0
    }

    /// A deliberately weak pool (no combinations beyond the seeds) so that
    /// base learning over-generalizes and the evidence loop has work to do.
    fn weak_pool_config() -> crate::equivalence::TestPoolConfig {
        crate::equivalence::TestPoolConfig { max_test_strings: 1, max_length: Some(2), rng_seed: 1 }
    }

    /// Dyck with parity: only even numbers of 'x' at the top level. The weak
    /// pool cannot distinguish the parity states, so the evidence corpus must.
    fn dyck_even(s: &str) -> bool {
        dyck(s) && s.chars().filter(|&c| c == 'x').count() % 2 == 0
    }

    #[test]
    fn corpus_evidence_repairs_a_weakly_learned_language() {
        let oracle = dyck_even;
        let mat = Mat::new(&oracle);
        let config = VStarConfig { test_pool: weak_pool_config(), ..VStarConfig::default() };
        let vstar = VStar::new(config);
        let seeds = vec!["(xx)".to_string(), "()".to_string()];

        // Base learning with the crippled pool misjudges some short strings.
        let base = vstar.learn(&mat, &['(', ')', 'x'], &seeds).expect("base learning succeeds");
        let probe: Vec<String> = vstar_vpl::words::all_strings(&['(', ')', 'x'], 5);
        let base_wrong = probe.iter().filter(|w| base.accepts(&mat, w) != dyck_even(w)).count();
        assert!(base_wrong > 0, "weak pool was expected to leave divergences");

        // Refined learning with the probe corpus as held-out evidence.
        let mut source = CorpusEvidence::new(probe.clone());
        let (refined, log) = vstar
            .learn_refined(&mat, &['(', ')', 'x'], &seeds, &mut source, RefineConfig::default())
            .expect("refined learning succeeds");
        assert!(log.fixed_point, "evidence should run dry: {log:?}");
        assert!(!log.budget_exhausted);
        assert!(log.counterexamples_replayed() > 0, "refinement should replay evidence");
        // Every evidence round snapshots hypothesis rule liveness, making the
        // refinement's grammar-size trajectory auditable.
        let pre = log.pre_liveness.expect("evidence rounds ran");
        let post = log.post_liveness.expect("evidence rounds ran");
        assert!(pre.live_rules <= pre.rules);
        assert!(post.live_rules <= post.rules);
        assert!(post.rules > 0 && post.live_rules > 0);
        for w in &probe {
            assert_eq!(refined.accepts(&mat, w), dyck_even(w), "refined misjudges {w:?}");
        }
        // Refinement never decreases recall on the evidence corpus.
        let base_recall = probe.iter().filter(|w| dyck_even(w) && base.accepts(&mat, w)).count();
        let refined_recall =
            probe.iter().filter(|w| dyck_even(w) && refined.accepts(&mat, w)).count();
        assert!(refined_recall >= base_recall);
    }

    #[test]
    fn clean_corpus_reaches_fixed_point_without_counterexamples() {
        let oracle = dyck;
        let mat = Mat::new(&oracle);
        let vstar = VStar::new(VStarConfig::default());
        let seeds = vec!["(x(x))x".to_string(), "()".to_string()];
        let corpus = vstar_vpl::words::all_strings(&['(', ')', 'x'], 5);
        let mut source = CorpusEvidence::new(corpus);
        let (result, log) = vstar
            .learn_refined(&mat, &['(', ')', 'x'], &seeds, &mut source, RefineConfig::default())
            .expect("learning succeeds");
        // Dyck learns exactly from the default pool; the corpus adds nothing.
        assert!(log.fixed_point);
        assert_eq!(log.counterexamples_replayed(), 0);
        assert_eq!(log.campaigns_run, RefineConfig::default().clean_passes);
        assert_eq!(result.mode, TokenDiscovery::Tokens);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // An evidence source that always reports an unusable (ill-matched
        // member) witness: the loop must burn its budget, not spin forever.
        struct Unfixable;
        impl EvidenceSource for Unfixable {
            fn name(&self) -> &'static str {
                "unfixable"
            }
            fn collect(
                &mut self,
                _round: usize,
                _learned: &LearnedLanguage,
                _mat: &Mat<'_>,
            ) -> Vec<Evidence> {
                vec![Evidence {
                    raw: ")(".to_string(),
                    learned_accepts: false,
                    oracle_accepts: true,
                    source: "unfixable".to_string(),
                }]
            }
        }
        // Oracle accepts ")(", which is never well matched under {(,)}.
        let oracle = |s: &str| s == ")(" || dyck(s);
        let mat = Mat::new(&oracle);
        let vstar = VStar::new(VStarConfig::default());
        let seeds = vec!["(x)".to_string()];
        let config = RefineConfig { max_campaigns: 3, clean_passes: 2 };
        let (_result, log) = vstar
            .learn_refined(&mat, &['(', ')', 'x'], &seeds, &mut Unfixable, config)
            .expect("learning still converges on the representable part");
        assert!(log.budget_exhausted, "{log:?}");
        assert!(!log.fixed_point);
        assert_eq!(log.campaigns_run, 3);
        assert_eq!(log.skipped_ill_matched, 3);
        assert_eq!(log.counterexamples_replayed(), 0);
    }

    #[test]
    fn rule_liveness_counts_only_derivable_rules() {
        use vstar_vpl::{Tagging, VpgBuilder};
        let tagging = Tagging::from_pairs([('(', ')')]).unwrap();
        let mut b = VpgBuilder::new(tagging);
        let s = b.nonterminal("S");
        let orphan = b.nonterminal("Orphan");
        let stuck = b.nonterminal("Stuck");
        b.empty_rule(s); // live
        b.match_rule(s, '(', s, ')', s); // live
        b.linear_rule(s, 'x', stuck); // dead: Stuck is unproductive
        b.empty_rule(orphan); // dead: Orphan is unreachable
        b.linear_rule(stuck, 'x', stuck); // dead on both counts
        let vpg = b.build(s).unwrap();
        let live = rule_liveness(&vpg);
        assert_eq!(live, RuleLiveness { nonterminals: 3, rules: 5, live_rules: 2 }, "{live:?}");
    }

    #[test]
    fn evidence_class_labels() {
        let fp = Evidence {
            raw: "x".into(),
            learned_accepts: true,
            oracle_accepts: false,
            source: "t".into(),
        };
        let fn_ = Evidence {
            raw: "y".into(),
            learned_accepts: false,
            oracle_accepts: true,
            source: "t".into(),
        };
        assert_eq!(fp.class_label(), "false-positive");
        assert_eq!(fn_.class_label(), "false-negative");
        assert_eq!(CorpusEvidence::new(vec!["x".into()]).words().len(), 1);
    }
}

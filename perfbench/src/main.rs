//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! One run follows a user through the whole system: learn the five Table-1
//! languages cold with counterexample-guided refinement, compile and save the
//! five grammars, load them, then serve them in process (raw
//! `CompiledGrammar::recognize`) and through a real `vstar_serve::Daemon` on
//! loopback. The workload decides which serving path gets the measured time.
//!
//! ```text
//! perfbench --workload serve-raw|daemon --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The full result
//! set, with the host fingerprint and per-language rows, is written to
//! `DIR/<workload>-seed<N>-trace<T>.json`. See `perfbench/README.md`.

mod corpus;
mod daemon;
mod host;
mod learn;
mod serving;
mod stats;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use vstar::{LearnedLanguage, Mat};
use vstar_oracles::{language_by_name, table1_languages, Language};
use vstar_parser::CompiledGrammar;
use vstar_telemetry::{SpanTiming, Timings};

use corpus::{digest, LangCorpus};
use learn::{attribution, span_nanos, Attribution, Learned, LEARN_SPANS};
use serde::{Serialize, Value};
use serving::{Labels, Wrong};
use stats::{median, percentile, Metrics};

/// End-to-end metrics, `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("learn_s", "s"),
    ("learn_queries", "count"),
    ("learn_recall", "ratio"),
    ("raw_short_inputs_per_s", "1/s"),
    ("raw_long_kchars_per_s", "kchar/s"),
    ("q_p50_us", "us"),
    ("q_p99_us", "us"),
    ("daemon_req_per_s", "1/s"),
];

/// Per-layer metrics, `(name, unit)`, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("token_inference.s", "s"),
    ("pool_build.s", "s"),
    ("row_fill.s", "s"),
    ("hypothesis_construction.s", "s"),
    ("pool_equivalence.s", "s"),
    ("ce_processing.s", "s"),
    ("extraction.s", "s"),
    ("learner.rounds", "count"),
    ("vpa.states", "count"),
    ("vpg.rules", "count"),
    ("mat.calls", "count"),
    ("mat.unique", "count"),
    ("mat.unique_per_call", "ratio"),
    ("oracle.s", "s"),
    ("oracle.calls", "count"),
    ("evidence.s", "s"),
    ("evidence.campaigns", "count"),
    ("learn.unattributed_pct", "%"),
    ("vpa_learning.unattributed_pct", "%"),
    ("pool_equivalence.unattributed_pct", "%"),
    ("json.table_pct", "%"),
    ("telemetry.overhead_pct", "%"),
    ("learn_s.json", "s"),
    ("learn_s.lisp", "s"),
    ("learn_s.xml", "s"),
    ("learn_s.while", "s"),
    ("learn_s.mathexpr", "s"),
    ("compile.s", "s"),
    ("artifact.bytes", "bytes"),
    ("artifact.from_json_s", "s"),
    ("scan.short.s", "s"),
    ("scan.long.s", "s"),
    ("walk.short.s", "s"),
    ("walk.long.s", "s"),
    ("scan.failed.short", "count"),
    ("scan.failed.long", "count"),
    ("session.mchars_per_s", "Mchar/s"),
    ("batch.inputs_per_s", "1/s"),
    ("daemon.overhead_us", "us"),
    ("daemon.rss_kb_per_request", "KiB"),
    ("daemon.frame_rtt_us", "us"),
    ("client.q_ms", "ms"),
    ("publish.ms", "ms"),
    ("admin_metrics.ms", "ms"),
    ("admin_metrics.stall_ms", "ms"),
    ("stream.disagree", "count"),
];

/// Set-ups timed per run. `setup_s` is the median of their times, each
/// divided by the host slowdown measured right after it.
const SETUP_REPS: usize = 9;
/// `Q` round trips through `vstar_serve::Client` in a traced run.
const CLIENT_PROBES: usize = 20;
/// Passes of the per-layer serving probes in a traced run.
const LAYER_REPS: usize = 5;
/// Length of the traced run's closed loop, which feeds `daemon.overhead_us`.
const TRACED_LOOP: Duration = Duration::from_secs(2);

const USAGE: &str =
    "usage: perfbench --workload serve-raw|daemon --seed N --seconds S --trace 0|1 [--out DIR]";

/// Which serving path gets the run's measured time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// In-process raw recognition, single thread.
    ServeRaw,
    /// The daemon's closed loop over two connections.
    Daemon,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::ServeRaw => "serve-raw",
            Workload::Daemon => "daemon",
        }
    }

    /// Time budgets of the raw phase and the daemon phase: the workload's
    /// own path gets all of `seconds`, the other three quarters of it.
    fn budgets(self, seconds: u64) -> (Duration, Duration) {
        let full = Duration::from_secs(seconds);
        match self {
            Workload::ServeRaw => (full, full * 3 / 4),
            Workload::Daemon => (full * 3 / 4, full),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        if !matches!(key, "workload" | "seed" | "seconds" | "trace" | "out") {
            return Err(format!("unknown flag --{key}"));
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        values.insert(key.to_string(), value);
    }
    let get = |k: &str| values.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = match get("workload")?.as_str() {
        "serve-raw" => Workload::ServeRaw,
        "daemon" => Workload::Daemon,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let out = values
        .get("out")
        .map_or_else(|| PathBuf::from("perfbench/target/perfbench-results"), PathBuf::from);
    Ok(Args { workload, seed, seconds, trace, out })
}

/// Labels every serving input with the learned language's own definition
/// (oracle-backed `conv_τ` plus the learned VPA) and with the ground truth.
fn label(lang: &dyn Language, learned: &LearnedLanguage, corpus: &LangCorpus) -> Labels {
    let oracle = |s: &str| lang.accepts(s);
    let mat = Mat::new(&oracle);
    let by_def = |inputs: &[String]| inputs.iter().map(|s| learned.accepts(&mat, s)).collect();
    let by_oracle = |inputs: &[String]| inputs.iter().map(|s| lang.accepts(s)).collect();
    Labels {
        short: by_def(&corpus.short),
        long: by_def(&corpus.long),
        oracle_short: by_oracle(&corpus.short),
        oracle_long: by_oracle(&corpus.long),
    }
}

/// One set-up: what a user pays between holding the saved artifacts and the
/// first served request, timed in two parts.
struct Setup {
    /// The learn side (oracles and a `Mat` over each) and
    /// `CompiledGrammar::from_json` of every artifact: all of `serve-raw`'s
    /// set-up.
    load_seconds: f64,
    /// `Daemon::start`, the connects and the initial `P` publishes, which
    /// `daemon`'s set-up adds.
    daemon_seconds: f64,
    grammars: Vec<CompiledGrammar>,
    served: daemon::Served,
}

impl Setup {
    /// The set-up time of `workload`.
    fn seconds(&self, workload: Workload) -> f64 {
        match workload {
            Workload::ServeRaw => self.load_seconds,
            Workload::Daemon => self.load_seconds + self.daemon_seconds,
        }
    }
}

fn set_up(artifacts: &[(&str, String)]) -> Result<Setup, String> {
    let start = Instant::now();
    let oracles: Vec<Box<dyn Language>> = artifacts
        .iter()
        .map(|(name, _)| language_by_name(name).ok_or_else(|| format!("no oracle {name}")))
        .collect::<Result<_, _>>()?;
    let closures: Vec<_> = oracles.iter().map(|o| move |s: &str| o.accepts(s)).collect();
    let mats: Vec<Mat<'_>> = closures.iter().map(|f| Mat::new(f)).collect();
    black_box(&mats);
    let grammars = serving::load_all(artifacts)?;
    let load_seconds = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let served = daemon::start(artifacts)?;
    Ok(Setup { load_seconds, daemon_seconds: start.elapsed().as_secs_f64(), grammars, served })
}

/// Sums span timings over languages, path by path.
fn merge_timings<'a>(all: impl IntoIterator<Item = &'a Timings>) -> Timings {
    let mut sums: BTreeMap<String, u64> = BTreeMap::new();
    for t in all {
        for s in &t.spans {
            *sums.entry(s.path.clone()).or_default() += s.nanos;
        }
    }
    Timings { spans: sums.into_iter().map(|(path, nanos)| SpanTiming { path, nanos }).collect() }
}

/// Everything one run measured, beyond the metrics themselves.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Facts that must repeat exactly for one build and one seed.
    facts: BTreeMap<String, String>,
    /// Per-language rows and diagnostics for the results file.
    rows: Vec<Value>,
    notes: Vec<String>,
}

/// Logs a progress line with the time since `start`.
fn progress(start: Instant, what: &str) {
    eprintln!("perfbench: [{:6.1}s] {what}", start.elapsed().as_secs_f64());
}

fn run(args: &Args) -> Result<Report, String> {
    let clock = Instant::now();
    let languages = table1_languages();
    let seed = args.seed;
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Metrics::default(),
        facts: BTreeMap::new(),
        rows: Vec::new(),
        notes: Vec::new(),
    };

    // Inputs first: they depend on the seed only. Their digests go to the
    // determinism ledger.
    let corpora: Vec<LangCorpus> =
        languages.iter().map(|l| LangCorpus::generate(l.as_ref(), seed)).collect();
    for c in &corpora {
        report.facts.insert(format!("corpus.{}", c.name), format!("{:016x}", c.digest()));
    }

    // Learn, untraced; a traced run learns a second time under telemetry.
    progress(clock, &format!("learning {} languages (seed {seed})", languages.len()));
    let learned: Vec<Learned> = languages
        .iter()
        .map(|l| learn::learn(l.as_ref(), seed, false))
        .collect::<Result<_, _>>()?;
    let traced: Option<Vec<Learned>> = if args.trace {
        progress(clock, "learning again under telemetry");
        Some(
            languages
                .iter()
                .map(|l| learn::learn(l.as_ref(), seed, true))
                .collect::<Result<_, _>>()?,
        )
    } else {
        None
    };
    report.notes.push(format!(
        "peak RSS after learning: {:.1} MB",
        host::peak_rss_mb().unwrap_or(f64::NAN)
    ));
    report.attempted += learned.len() as u64;
    report.failed += learned.iter().filter(|l| l.rejected_seeds > 0).count() as u64;
    for l in &learned {
        for (key, value) in [
            ("unique", l.unique),
            ("calls", l.calls),
            ("vpa_states", l.vpa_states),
            ("vpg_rules", l.vpg_rules),
            ("recalled", l.recall.0),
            ("rejected_seeds", l.rejected_seeds),
        ] {
            report.facts.insert(format!("learn.{}.{key}", l.name), value.to_string());
        }
    }

    // Compile and save the five grammars.
    let mut compile_s = 0.0;
    let mut artifacts: Vec<(&str, String)> = Vec::new();
    for l in &learned {
        let t = Instant::now();
        let grammar = CompiledGrammar::from_learned(&l.language)
            .map_err(|e| format!("compiling {}: {e}", l.name))?;
        compile_s += t.elapsed().as_secs_f64();
        artifacts.push((l.name, grammar.to_json()));
    }

    // Reference verdicts, off every clock.
    progress(clock, "labelling the serving corpora");
    let labels: Vec<Labels> = languages
        .iter()
        .zip(&learned)
        .zip(&corpora)
        .map(|((lang, l), c)| label(lang.as_ref(), &l.language, c))
        .collect();
    for (c, lab) in corpora.iter().zip(&labels) {
        let bits = |v: &[bool]| v.iter().map(|&b| if b { "1" } else { "0" }).collect::<String>();
        let all =
            [bits(&lab.short), bits(&lab.long), bits(&lab.oracle_short), bits(&lab.oracle_long)];
        report.facts.insert(
            format!("labels.{}", c.name),
            format!("{:016x}", digest(all.iter().map(String::as_str))),
        );
        if lab.oracle_long.contains(&false) {
            report.correct = false;
            report.notes.push(format!("{}: a long document is not an oracle member", c.name));
        }
        let off = |a: &[bool], b: &[bool]| a.iter().zip(b).filter(|(x, y)| x != y).count();
        report.rows.push(
            ReferenceRow {
                reference: c.name,
                learned_vs_oracle_short: off(&lab.short, &lab.oracle_short),
                learned_vs_oracle_long: off(&lab.long, &lab.oracle_long),
            }
            .to_value(),
        );
    }

    // Set-up and serving run on one CPU; see `host::pin_to_one_cpu`.
    let cpu = host::pin_to_one_cpu()?;
    progress(clock, &format!("timing {SETUP_REPS} set-ups on CPU {cpu}"));
    let mut setup_s = Vec::new();
    let mut setup_wall_s = Vec::new();
    let mut load_s = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            previous.served.stop();
        }
        let setup = set_up(&artifacts)?;
        setup_wall_s.push(setup.seconds(args.workload));
        setup_s.push(setup.seconds(args.workload) / host::slowdown());
        load_s.push(setup.load_seconds);
        kept = Some(setup);
    }
    let Setup { grammars, mut served, .. } = kept.expect("SETUP_REPS > 0");

    // Every distinct serving input is one operation; see `Wrong`.
    let mut wrong = Wrong::new(&corpora);
    if let Some(traced) = &traced {
        traced_layers(&mut report, &learned, traced, compile_s, &artifacts, &load_s);
        serve_layers(
            &mut report,
            seed,
            &grammars,
            &mut served,
            &corpora,
            &labels,
            &mut wrong,
            &artifacts,
        )?;
    } else {
        let (raw_budget, daemon_budget) = args.workload.budgets(args.seconds);
        progress(
            clock,
            &format!("serving raw for {raw_budget:?}, through the daemon for {daemon_budget:?}"),
        );
        let raw = serving::run_raw(&grammars, &corpora, &labels, raw_budget, &mut wrong);
        // The daemon's access log keeps every record in memory, so its memory
        // grows with the requests served; peak memory is read before the loop
        // and the growth per request is the per-layer `daemon.rss_kb_per_request`.
        let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
        let run = daemon::run_loop(&mut served, &corpora, &labels, &artifacts, daemon_budget, seed);
        report.notes.push(format!(
            "peak RSS after the daemon loop: {:.1} MB",
            host::peak_rss_mb().unwrap_or(f64::NAN)
        ));
        count_loop(&mut report, &run, &mut wrong);

        let learn_s: f64 = learned.iter().map(|l| l.scaled_seconds).sum();
        report.notes.push(format!(
            "learn wall clock: {:.3} s",
            learned.iter().map(|l| l.seconds).sum::<f64>()
        ));
        let recall = learned.iter().map(|l| l.recall.0 as f64 / l.recall.1 as f64).sum::<f64>()
            / learned.len() as f64;
        let m = &mut report.metrics;
        m.push("setup_s", median(&setup_s), "s");
        m.push("peak_rss_mb", peak_rss_mb, "MB");
        m.push("learn_s", learn_s, "s");
        m.push("learn_queries", learned.iter().map(|l| l.unique).sum::<u64>() as f64, "count");
        m.push("learn_recall", recall, "ratio");
        m.push("raw_short_inputs_per_s", raw.short_inputs_per_s, "1/s");
        m.push("raw_long_kchars_per_s", raw.long_kchars_per_s, "kchar/s");
        m.push("q_p50_us", percentile(&run.scaled_query_ns, 50.0) as f64 / 1e3, "us");
        m.push("q_p99_us", median(&run.slice_p99_ns) / 1e3, "us");
        m.push("daemon_req_per_s", median(&run.slice_rates), "1/s");
        report.notes.push(format!("set-up wall seconds: {setup_wall_s:?}; loading: {load_s:?}"));
        report.notes.push(format!(
            "raw wall clock: {:.0} short inputs/s, {:.2} long kchar/s",
            raw.short_wall_inputs_per_s, raw.long_wall_kchars_per_s
        ));
        report.notes.push(format!(
            "daemon wall clock: Q p50 {:.1} us, p99 {:.1} us, {:.0} requests/s",
            percentile(&run.query_ns, 50.0) as f64 / 1e3,
            percentile(&run.query_ns, 99.0) as f64 / 1e3,
            run.completed as f64 / run.wall_s,
        ));
        report.notes.push(format!(
            "daemon: {} Q, {} P (p50 {:.2} ms, max {:.2} ms), {} A (p50 {:.2} ms)",
            run.query_ns.len(),
            run.publish_ns.len(),
            percentile(&run.publish_ns, 50.0) as f64 / 1e6,
            percentile(&run.publish_ns, 100.0) as f64 / 1e6,
            run.scrape_ns.len(),
            percentile(&run.scrape_ns, 50.0) as f64 / 1e6,
        ));
    }
    served.stop();
    let (wrong_short, wrong_long) = wrong.counts();
    report.attempted += wrong.inputs();
    report.failed += wrong_short + wrong_long;
    report.facts.insert("served.wrong.short".into(), wrong_short.to_string());
    report.facts.insert("served.wrong.long".into(), wrong_long.to_string());
    report.notes.push(format!(
        "served: {wrong_short} short and {wrong_long} long inputs answered wrongly (distinct)"
    ));
    progress(clock, "done");

    for l in &learned {
        report.rows.push(
            LanguageRow {
                language: l.name,
                learn_s: l.scaled_seconds,
                learn_wall_s: l.seconds,
                unique: l.unique,
                calls: l.calls,
                vpa_states: l.vpa_states,
                vpg_rules: l.vpg_rules,
                recall: l.recall.0 as f64 / l.recall.1 as f64,
                rejected_seeds: l.rejected_seeds,
            }
            .to_value(),
        );
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = report.metrics.names().collect();
    let declared: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, declared, "the run must report exactly the declared metrics");
    Ok(report)
}

/// Per-layer metrics of the learn phase, from the traced learn.
fn traced_layers(
    report: &mut Report,
    learned: &[Learned],
    traced: &[Learned],
    compile_s: f64,
    artifacts: &[(&str, String)],
    load_s: &[f64],
) {
    let layers: Vec<&learn::LearnLayers> =
        traced.iter().map(|l| l.layers.as_ref().expect("traced learns carry layers")).collect();
    for (plain, instrumented) in learned.iter().zip(traced) {
        if (plain.unique, plain.calls) != (instrumented.unique, instrumented.calls) {
            report.correct = false;
            report.notes.push(format!("{}: telemetry changed the learning run", plain.name));
        }
    }
    // Children must fit in their parent, per language.
    for (l, lay) in traced.iter().zip(&layers) {
        for (path, a) in attribution(&lay.timings) {
            if a.children > a.parent {
                report.correct = false;
                report.notes.push(format!("{}: children of {path:?} exceed it: {a:?}", l.name));
            }
        }
        report.facts.insert(format!("learner.rounds.{}", l.name), lay.rounds.to_string());
    }
    let merged = merge_timings(layers.iter().map(|l| &l.timings));
    let share = |path: &str| {
        attribution(&merged)
            .into_iter()
            .find(|(p, _)| p == path)
            .map_or(Attribution::default(), |(_, a)| a)
            .unattributed_pct()
    };
    let json = traced.iter().zip(&layers).find(|(l, _)| l.name == "json").map(|(_, lay)| lay);
    let table_pct = json.map_or(0.0, |lay| {
        let table = span_nanos(&lay.timings, "learn/vpa-learning/row-fill")
            + span_nanos(&lay.timings, "learn/vpa-learning/hypothesis-construction");
        100.0 * table as f64 / span_nanos(&lay.timings, "learn").max(1) as f64
    });
    let plain_s: f64 = learned.iter().map(|l| l.seconds).sum();
    let traced_s: f64 = traced.iter().map(|l| l.seconds).sum();
    let sum = |f: &dyn Fn(&Learned) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let lsum = |f: &dyn Fn(&learn::LearnLayers) -> f64| layers.iter().map(|l| f(l)).sum::<f64>();

    let m = &mut report.metrics;
    for (stem, path) in LEARN_SPANS {
        m.push(format!("{stem}.s"), span_nanos(&merged, path) as f64 / 1e9, "s");
    }
    m.push("learner.rounds", lsum(&|l| l.rounds as f64), "count");
    m.push("vpa.states", sum(&|l| l.vpa_states), "count");
    m.push("vpg.rules", sum(&|l| l.vpg_rules), "count");
    m.push("mat.calls", sum(&|l| l.calls), "count");
    m.push("mat.unique", sum(&|l| l.unique), "count");
    m.push("mat.unique_per_call", sum(&|l| l.unique) / sum(&|l| l.calls), "ratio");
    m.push("oracle.s", lsum(&|l| l.oracle_seconds), "s");
    m.push("oracle.calls", lsum(&|l| l.oracle_calls as f64), "count");
    m.push("evidence.s", lsum(&|l| l.evidence_seconds), "s");
    m.push("evidence.campaigns", lsum(&|l| l.evidence_campaigns as f64), "count");
    m.push("learn.unattributed_pct", share("learn"), "%");
    m.push("vpa_learning.unattributed_pct", share("learn/vpa-learning"), "%");
    m.push("pool_equivalence.unattributed_pct", share("learn/vpa-learning/pool-equivalence"), "%");
    m.push("json.table_pct", table_pct, "%");
    m.push("telemetry.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s, "%");
    for l in learned {
        m.push(format!("learn_s.{}", l.name), l.scaled_seconds, "s");
    }
    m.push("compile.s", compile_s, "s");
    m.push("artifact.bytes", artifacts.iter().map(|(_, a)| a.len()).sum::<usize>() as f64, "bytes");
    m.push("artifact.from_json_s", median(load_s), "s");

    for (span, a) in attribution(&merged) {
        report.rows.push(
            SpanRow {
                span,
                parent_s: a.parent as f64 / 1e9,
                children_s: a.children as f64 / 1e9,
                unattributed_pct: a.unattributed_pct(),
            }
            .to_value(),
        );
    }
    for (l, lay) in traced.iter().zip(&layers) {
        let spans = LEARN_SPANS
            .iter()
            .map(|(stem, path)| ((*stem).to_string(), span_nanos(&lay.timings, path) as f64 / 1e9))
            .collect();
        report.rows.push(
            TracedRow { traced_language: l.name, learn_s: l.seconds, rounds: lay.rounds, spans }
                .to_value(),
        );
    }
}

/// Per-layer metrics of the serving side, in a traced run.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    report: &mut Report,
    seed: u64,
    grammars: &[CompiledGrammar],
    served: &mut daemon::Served,
    corpora: &[LangCorpus],
    labels: &[Labels],
    wrong: &mut Wrong,
    artifacts: &[(&str, String)],
) -> Result<(), String> {
    eprintln!("perfbench: per-layer serving probes");
    let raw = serving::raw_layers(grammars, corpora, labels, LAYER_REPS, wrong);
    let local_ns = daemon::local_recognize_ns(grammars, corpora, LAYER_REPS);
    let rss_before = host::rss_mb().unwrap_or(f64::NAN);
    let run = daemon::run_loop(served, corpora, labels, artifacts, TRACED_LOOP, seed);
    let rss_growth_mb = host::rss_mb().unwrap_or(f64::NAN) - rss_before;
    let queries: Vec<f64> = run.query_ns.iter().map(|&n| n as f64).collect();
    let mut conn = daemon::FrameConn::connect(served.daemon.addr(), "probe")?;
    let inputs: Vec<(&str, &str)> =
        corpora.iter().flat_map(|c| c.short.iter().map(move |s| (c.name, s.as_str()))).collect();
    let frame_ms =
        daemon::round_trips_ms(inputs.len(), |i| conn.query(inputs[i].0, inputs[i].1).map(drop))?;
    let publish_ms = daemon::round_trips_ms(LAYER_REPS * artifacts.len(), |i| {
        let (name, json) = &artifacts[i % artifacts.len()];
        conn.publish(name, json).map(drop)
    })?;
    let scrape_ms = daemon::round_trips_ms(20 * LAYER_REPS, |_| conn.scrape(true).map(drop))?;
    let stalled_ms = daemon::round_trips_ms(LAYER_REPS, |_| conn.scrape(false).map(drop))?;
    let disagree = daemon::stream_disagreements(&mut conn, corpora, seed)?;
    let mut client = vstar_serve::Client::connect(served.daemon.addr(), "probe-client")
        .map_err(|e| format!("client connect: {e}"))?;
    let client_ms = daemon::round_trips_ms(CLIENT_PROBES, |i| {
        let (name, input) = inputs[i % inputs.len()];
        client.recognize(name, input).map(drop).map_err(|e| format!("client query: {e}"))
    })?;

    count_loop(report, &run, wrong);
    report.facts.insert("scan.failed.short".into(), raw.failed_short.to_string());
    report.facts.insert("scan.failed.long".into(), raw.failed_long.to_string());
    report.facts.insert("stream.disagree".into(), disagree.to_string());

    let m = &mut report.metrics;
    m.push("scan.short.s", raw.scan_short_s, "s");
    m.push("scan.long.s", raw.scan_long_s, "s");
    m.push("walk.short.s", raw.walk_short_s, "s");
    m.push("walk.long.s", raw.walk_long_s, "s");
    m.push("scan.failed.short", raw.failed_short as f64, "count");
    m.push("scan.failed.long", raw.failed_long as f64, "count");
    m.push("session.mchars_per_s", raw.session_mchars_per_s, "Mchar/s");
    m.push("batch.inputs_per_s", raw.batch_inputs_per_s, "1/s");
    m.push("daemon.overhead_us", (median(&queries) - local_ns) / 1e3, "us");
    m.push("daemon.rss_kb_per_request", rss_growth_mb * 1024.0 / run.completed as f64, "KiB");
    m.push("daemon.frame_rtt_us", median(&frame_ms) * 1e3, "us");
    m.push("client.q_ms", median(&client_ms), "ms");
    m.push("publish.ms", median(&publish_ms), "ms");
    m.push("admin_metrics.ms", median(&scrape_ms), "ms");
    m.push("admin_metrics.stall_ms", median(&stalled_ms), "ms");
    m.push("stream.disagree", disagree as f64, "count");
    Ok(())
}

/// Marks the closed loop's wrong `Q` verdicts in `wrong` and counts each of
/// its failed requests as one more failed operation.
fn count_loop(report: &mut Report, run: &daemon::LoopRun, wrong: &mut Wrong) {
    for &(l, i) in &run.wrong_queries {
        wrong.short[l][i] = true;
    }
    report.attempted += run.failed_requests;
    report.failed += run.failed_requests;
}

/// Compares this run's exact facts with those of an earlier run of the same
/// build, workload, seed and trace flag, or records them for later runs.
fn check_determinism(args: &Args, facts: &BTreeMap<String, String>) -> Result<(), String> {
    let build = host::build_id().map_err(|e| format!("reading this executable: {e}"))?;
    let dir = args.out.join("determinism").join(build);
    let path = dir.join(format!(
        "{}-seed{}-trace{}.txt",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let text: String = facts.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == text => Ok(()),
        Ok(earlier) => {
            let before: BTreeMap<&str, &str> =
                earlier.lines().filter_map(|l| l.split_once('=')).collect();
            let changed: Vec<String> = facts
                .iter()
                .filter(|(k, v)| before.get(k.as_str()) != Some(&v.as_str()))
                .map(|(k, v)| {
                    format!("{k}: {} -> {v}", before.get(k.as_str()).unwrap_or(&"(absent)"))
                })
                .collect();
            Err(format!(
                "determinism guard: same build and seed, different facts ({}): {}",
                path.display(),
                changed.join("; ")
            ))
        }
        Err(_) => {
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

/// The result set a run writes beside its standard output.
#[derive(Serialize)]
struct ResultsFile {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    host: host::Fingerprint,
    result: ResultLine,
    rows: Vec<Value>,
    facts: BTreeMap<String, String>,
    notes: Vec<String>,
}

/// The last line of standard output.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Per-language learn row.
#[derive(Serialize)]
struct LanguageRow {
    language: &'static str,
    learn_s: f64,
    learn_wall_s: f64,
    unique: u64,
    calls: u64,
    vpa_states: u64,
    vpg_rules: u64,
    recall: f64,
    rejected_seeds: u64,
}

/// How often the learned language's own definition and the oracle disagree
/// on the serving inputs of one language.
#[derive(Serialize)]
struct ReferenceRow {
    reference: &'static str,
    learned_vs_oracle_short: usize,
    learned_vs_oracle_long: usize,
}

/// Attribution of one parent span, over all languages.
#[derive(Serialize)]
struct SpanRow {
    span: String,
    parent_s: f64,
    children_s: f64,
    unattributed_pct: f64,
}

/// Per-language span seconds of the traced learn.
#[derive(Serialize)]
struct TracedRow {
    traced_language: &'static str,
    learn_s: f64,
    rounds: u64,
    spans: BTreeMap<String, f64>,
}

fn write_results(args: &Args, doc: &ResultsFile) -> Result<(), String> {
    let file = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let text = serde_json::to_string_pretty(doc).map_err(|e| format!("results: {e}"))?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    std::fs::write(&file, text + "\n").map_err(|e| format!("{}: {e}", file.display()))?;
    eprintln!("perfbench: wrote {}", file.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host::fingerprint();
    eprintln!(
        "perfbench: commit {} | {} | nproc {} | effective parallelism {:.2}",
        host.commit, host.rustc, host.nproc, host.effective_parallelism
    );
    let outcome = run(&args).and_then(|report| {
        check_determinism(&args, &report.facts)?;
        Ok(report)
    });
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Report { correct, attempted, failed, metrics, facts, rows, notes } = report;
    for note in &notes {
        eprintln!("perfbench: {note}");
    }
    let result = ResultLine { correct, attempted, failed, metrics };
    let line = match serde_json::to_string(&result) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: result: {e}");
            return ExitCode::FAILURE;
        }
    };
    let declared = if args.trace { &PER_LAYER[..] } else { &END_TO_END[..] };
    for (name, unit) in declared {
        let value = result.metrics.get(name).unwrap_or(f64::NAN);
        println!("{name:<36} {value:>16.6} {unit}");
    }
    println!("attempted {attempted} failed {failed} correct {correct}");
    let doc = ResultsFile {
        workload: args.workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        host,
        result,
        rows,
        facts,
        notes,
    };
    if let Err(e) = write_results(&args, &doc) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
        for name in &all {
            assert!(stats::valid_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<&&str> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit.len() <= 16);
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn benchmark_manifest_lists_the_declared_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |v: &serde::Value, key: &str| -> String {
            v.get(key).and_then(|x| x.as_str()).expect("string field").to_string()
        };
        let entries =
            |key: &str| doc.get(key).and_then(|v| v.as_array()).expect("an array").to_vec();
        let listed = |key: &str| -> Vec<(String, String)> {
            entries(key).iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
        };
        let declared = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| ((*n).to_string(), (*u).to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), declared(&END_TO_END));
        assert_eq!(listed("per_layer"), declared(&PER_LAYER));
        let workloads: Vec<String> =
            entries("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, [Workload::ServeRaw.name(), Workload::Daemon.name()]);
    }

    #[test]
    fn budgets_favour_the_workload_path() {
        assert_eq!(Workload::ServeRaw.budgets(8), (Duration::from_secs(8), Duration::from_secs(6)));
        assert_eq!(Workload::Daemon.budgets(8), (Duration::from_secs(6), Duration::from_secs(8)));
    }
}

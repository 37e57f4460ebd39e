//! The in-process serving path: artifact load and single-threaded
//! `CompiledGrammar::recognize` on raw strings.

use std::hint::black_box;
use std::time::{Duration, Instant};

use vstar_parser::CompiledGrammar;

use crate::corpus::LangCorpus;
use crate::host;
use crate::stats::median;

/// Documents of each language per timed `long` slice.
const LONG_DOCS_PER_SLICE: usize = 3;

/// Reference verdicts of one language's inputs (see `main.rs`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Labels {
    /// `LearnedLanguage::accepts` on each `short` input.
    pub short: Vec<bool>,
    /// `LearnedLanguage::accepts` on each `long` input.
    pub long: Vec<bool>,
    /// Ground-truth oracle on each `short` input.
    pub oracle_short: Vec<bool>,
    /// Ground-truth oracle on each `long` input.
    pub oracle_long: Vec<bool>,
}

/// Parses every artifact document.
///
/// # Errors
///
/// The first artifact that fails to load.
pub fn load_all(artifacts: &[(&str, String)]) -> Result<Vec<CompiledGrammar>, String> {
    artifacts
        .iter()
        .map(|(name, json)| {
            CompiledGrammar::from_json(json).map_err(|e| format!("loading {name}: {e}"))
        })
        .collect()
}

/// Which distinct inputs got a wrong verdict on some serving path.
///
/// Each distinct input is one operation of a run's `attempted` and `failed`
/// counts, however often the timed loops serve it, so both counts depend on
/// the seed alone and not on how fast the host is.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Wrong {
    /// Per language, per `short` input.
    pub short: Vec<Vec<bool>>,
    /// Per language, per `long` input.
    pub long: Vec<Vec<bool>>,
}

impl Wrong {
    /// No wrong verdict yet for any input of `corpora`.
    #[must_use]
    pub fn new(corpora: &[LangCorpus]) -> Self {
        Self {
            short: corpora.iter().map(|c| vec![false; c.short.len()]).collect(),
            long: corpora.iter().map(|c| vec![false; c.long.len()]).collect(),
        }
    }

    /// Distinct inputs, both classes.
    #[must_use]
    pub fn inputs(&self) -> u64 {
        self.short.iter().chain(&self.long).map(Vec::len).sum::<usize>() as u64
    }

    /// Distinct `short` and `long` inputs with a wrong verdict.
    #[must_use]
    pub fn counts(&self) -> (u64, u64) {
        let count = |flags: &[Vec<bool>]| flags.iter().flatten().filter(|&&w| w).count() as u64;
        (count(&self.short), count(&self.long))
    }
}

/// What the timed raw-recognition phase measured.
#[derive(Debug, Default)]
pub struct RawPhase {
    /// Median over passes of `short` inputs recognized per second, each
    /// pass scaled by the host slowdown measured right after it.
    pub short_inputs_per_s: f64,
    /// `long` kilo-characters recognized per second: every document's
    /// characters over the sum of each slice's median scaled time.
    pub long_kchars_per_s: f64,
    /// `short_inputs_per_s` unscaled: the median wall-clock rate.
    pub short_wall_inputs_per_s: f64,
    /// `long_kchars_per_s` unscaled: slices' median wall-clock times.
    pub long_wall_kchars_per_s: f64,
}

/// One timed unit of work: `(language index, input index)` pairs.
type Batch = Vec<(usize, usize)>;

/// Every `long` document once, cut into slices that each hold
/// [`LONG_DOCS_PER_SLICE`] documents of every language, so slices are alike.
fn long_slices(corpora: &[LangCorpus]) -> Vec<Batch> {
    let docs = corpora.iter().map(|c| c.long.len()).max().unwrap_or(0);
    (0..docs.div_ceil(LONG_DOCS_PER_SLICE))
        .map(|slice| {
            let range = slice * LONG_DOCS_PER_SLICE..(slice + 1) * LONG_DOCS_PER_SLICE;
            corpora
                .iter()
                .enumerate()
                .flat_map(|(l, c)| range.clone().filter(|&i| i < c.long.len()).map(move |i| (l, i)))
                .collect()
        })
        .collect()
}

/// Recognizes `short` passes for a quarter of `budget` and `long` slices for
/// the rest, each class at least once in full, marking every input whose
/// verdict differs from the reference in `wrong`.
///
/// The speed of a shared host drifts by half within seconds, so every pass
/// and slice is followed by a short reference workload ([`host::slowdown`])
/// and its time is scaled by the slowdown measured there.
#[must_use]
pub fn run_raw(
    grammars: &[CompiledGrammar],
    corpora: &[LangCorpus],
    labels: &[Labels],
    budget: Duration,
    wrong: &mut Wrong,
) -> RawPhase {
    let mut phase = RawPhase::default();

    let short_inputs: usize = corpora.iter().map(|c| c.short.len()).sum();
    let mut short_rates = Vec::new();
    let mut short_wall = Vec::new();
    let start = Instant::now();
    while short_rates.is_empty() || start.elapsed() < budget / 4 {
        let mut verdicts = Vec::with_capacity(short_inputs);
        let pass = Instant::now();
        for (g, c) in grammars.iter().zip(corpora) {
            for s in &c.short {
                verdicts.push(g.recognize(black_box(s)));
            }
        }
        let rate = short_inputs as f64 / pass.elapsed().as_secs_f64();
        short_wall.push(rate);
        short_rates.push(rate * host::slowdown());
        let expected = labels.iter().flat_map(|lab| &lab.short);
        let flags = wrong.short.iter_mut().flatten();
        for ((verdict, want), flag) in verdicts.into_iter().zip(expected).zip(flags) {
            *flag |= verdict != *want;
        }
    }

    let slices = long_slices(corpora);
    let mut slice_times: Vec<Vec<f64>> = vec![Vec::new(); slices.len()];
    let mut slice_wall: Vec<Vec<f64>> = vec![Vec::new(); slices.len()];
    let start = Instant::now();
    let mut next = 0;
    while next < slices.len() || start.elapsed() < budget * 3 / 4 {
        let k = next % slices.len();
        next += 1;
        let slice = &slices[k];
        let t = Instant::now();
        let verdicts: Vec<bool> = slice
            .iter()
            .map(|&(l, i)| grammars[l].recognize(black_box(&corpora[l].long[i])))
            .collect();
        let seconds = t.elapsed().as_secs_f64();
        slice_wall[k].push(seconds);
        slice_times[k].push(seconds / host::slowdown());
        for (&(l, i), verdict) in slice.iter().zip(verdicts) {
            wrong.long[l][i] |= verdict != labels[l].long[i];
        }
    }
    let long_chars: usize = corpora.iter().flat_map(|c| &c.long).map(|d| d.chars().count()).sum();
    let long_kchars = long_chars as f64 / 1e3;
    let per_second =
        |times: &[Vec<f64>]| long_kchars / times.iter().map(|t| median(t)).sum::<f64>();

    phase.short_inputs_per_s = median(&short_rates);
    phase.long_kchars_per_s = per_second(&slice_times);
    phase.short_wall_inputs_per_s = median(&short_wall);
    phase.long_wall_kchars_per_s = per_second(&slice_wall);
    phase
}

/// Per-layer split of the raw path into the token scan
/// (`converted_word`) and the word walk (`recognize_word`), plus the
/// `Session` and batch serving APIs.
#[derive(Debug, Default)]
pub struct RawLayers {
    /// Scan seconds over one pass of the `short` class.
    pub scan_short_s: f64,
    /// Scan seconds over one pass of the `long` class.
    pub scan_long_s: f64,
    /// Walk seconds over the converted `short` words.
    pub walk_short_s: f64,
    /// Walk seconds over the converted `long` words.
    pub walk_long_s: f64,
    /// `short` inputs whose split verdict differs from the reference.
    pub failed_short: u64,
    /// `long` inputs whose split verdict differs from the reference.
    pub failed_long: u64,
    /// `Session` throughput on the converted `short` words, Mchar/s.
    pub session_mchars_per_s: f64,
    /// `recognize_batch` throughput on the `short` class, inputs/s.
    pub batch_inputs_per_s: f64,
}

/// Runs the scan/walk split once over both classes, marking every input
/// whose split verdict differs from the reference in `wrong`, then times
/// `Session` and `recognize_batch` for `reps` passes each and keeps their
/// medians.
#[must_use]
pub fn raw_layers(
    grammars: &[CompiledGrammar],
    corpora: &[LangCorpus],
    labels: &[Labels],
    reps: usize,
    wrong: &mut Wrong,
) -> RawLayers {
    let mut layers = RawLayers::default();
    let mut words: Vec<Vec<String>> = Vec::new();
    for (l, ((g, c), lab)) in grammars.iter().zip(corpora).zip(labels).enumerate() {
        let mut converted = Vec::new();
        for (long, inputs, expected) in [(false, &c.short, &lab.short), (true, &c.long, &lab.long)]
        {
            for (i, (s, &want)) in inputs.iter().zip(expected).enumerate() {
                let t = Instant::now();
                let word = g.converted_word(black_box(s));
                let scanned = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let verdict = word.as_deref().is_some_and(|w| g.recognize_word(black_box(w)));
                let walked = t.elapsed().as_secs_f64();
                let off = verdict != want;
                if long {
                    layers.scan_long_s += scanned;
                    layers.walk_long_s += walked;
                    layers.failed_long += u64::from(off);
                    wrong.long[l][i] |= off;
                } else {
                    layers.scan_short_s += scanned;
                    layers.walk_short_s += walked;
                    layers.failed_short += u64::from(off);
                    wrong.short[l][i] |= off;
                    converted.extend(word);
                }
            }
        }
        words.push(converted);
    }

    let word_chars: usize = words.iter().flatten().map(|w| w.chars().count()).sum();
    let mut session_rates = Vec::new();
    let mut batch_rates = Vec::new();
    let inputs: Vec<Vec<&str>> =
        corpora.iter().map(|c| c.short.iter().map(String::as_str).collect()).collect();
    let input_count: usize = inputs.iter().map(Vec::len).sum();
    for _ in 0..reps {
        let t = Instant::now();
        for (g, ws) in grammars.iter().zip(&words) {
            let mut session = g.session();
            for w in ws {
                session.reset();
                session.push_str(w);
                black_box(session.finish());
            }
        }
        session_rates.push(word_chars as f64 / 1e6 / t.elapsed().as_secs_f64());
        let t = Instant::now();
        for (g, batch) in grammars.iter().zip(&inputs) {
            black_box(g.recognize_batch(batch));
        }
        batch_rates.push(input_count as f64 / t.elapsed().as_secs_f64());
    }
    layers.session_mchars_per_s = median(&session_rates);
    layers.batch_inputs_per_s = median(&batch_rates);
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_slices_cover_every_document_once() {
        let corpus = |name, n: usize| LangCorpus {
            name,
            short: Vec::new(),
            long: (0..n).map(|i| i.to_string()).collect(),
        };
        let corpora = [corpus("a", 7), corpus("b", 5)];
        let slices = long_slices(&corpora);
        assert_eq!(slices.len(), 3);
        let mut all: Vec<(usize, usize)> = slices.concat();
        all.sort_unstable();
        let expected: Vec<(usize, usize)> =
            (0..7).map(|i| (0, i)).chain((0..5).map(|i| (1, i))).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn wrong_counts_each_distinct_input_once() {
        let corpus = LangCorpus {
            name: "a",
            short: vec!["x".into(), "y".into(), "z".into()],
            long: vec!["xy".into(), "yz".into()],
        };
        let mut wrong = Wrong::new(std::slice::from_ref(&corpus));
        assert_eq!((wrong.inputs(), wrong.counts()), (5, (0, 0)));
        for _ in 0..3 {
            wrong.short[0][1] |= true;
            wrong.long[0][0] |= true;
        }
        assert_eq!((wrong.inputs(), wrong.counts()), (5, (1, 1)));
    }
}

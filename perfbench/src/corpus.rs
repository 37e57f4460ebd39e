//! Seeded inputs: the held-out recall corpus, the `short` and `long` serving
//! corpora, and their digests.
//!
//! Every input is drawn from the ground-truth generators of
//! `vstar_oracles`, never from the learned grammars, so a corpus depends only
//! on the seed and not on the code under test.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vstar_oracles::Language;

/// Generator budgets of the recall and `short` corpora (5–60 characters).
pub const SHORT_BUDGETS: [usize; 8] = [8, 14, 24, 40, 64, 100, 150, 200];
/// Held-out recall strings per language.
pub const RECALL_SIZE: usize = 320;
/// Generated members per language in the `short` class; the class holds as
/// many one-character mutants again.
pub const SHORT_MEMBERS: usize = 400;
/// Long documents per language.
pub const LONG_DOCS: usize = 128;
/// Members joined into one long document, inclusive range.
pub const LONG_PARTS: (usize, usize) = (16, 64);

/// Independent random streams derived from the one `--seed`.
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    /// Held-out recall corpus.
    Recall,
    /// `short` members.
    Short,
    /// One-character mutants of the `short` members.
    Mutants,
    /// `long` documents.
    Long,
    /// The daemon's request schedule.
    Requests,
    /// Chunk boundaries of streamed inputs.
    Chunks,
}

/// The seed of `stream` under the run seed `seed` (splitmix64 finaliser).
#[must_use]
pub fn stream_seed(seed: u64, stream: Stream) -> u64 {
    let mut z = seed ^ (stream as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` members drawn evenly over [`SHORT_BUDGETS`].
#[must_use]
pub fn members(lang: &dyn Language, seed: u64, count: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let per_budget = count.div_ceil(SHORT_BUDGETS.len());
    let mut out = Vec::with_capacity(count);
    for budget in SHORT_BUDGETS {
        out.extend(lang.generate_corpus(&mut rng, budget, per_budget));
    }
    out.truncate(count);
    out
}

/// One seeded one-character edit of `s`: a deletion, an insertion or a
/// replacement with a character of `alphabet`. Never empty.
fn mutate(rng: &mut StdRng, s: &str, alphabet: &[char]) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    let ch = alphabet[rng.gen_range(0..alphabet.len())];
    match rng.gen_range(0..3u32) {
        0 if chars.len() > 1 => {
            chars.remove(rng.gen_range(0..chars.len()));
        }
        1 if !chars.is_empty() => {
            let at = rng.gen_range(0..chars.len());
            chars[at] = ch;
        }
        _ => chars.insert(rng.gen_range(0..=chars.len()), ch),
    }
    chars.into_iter().collect()
}

/// Joins `parts` (members of `lang`) with the language's own list construct.
/// The result is a member whenever every part is.
///
/// # Panics
///
/// Panics on a language without a list construct here.
#[must_use]
pub fn long_document(lang: &str, parts: &[String]) -> String {
    match lang {
        "json" => format!("[{}]", parts.join(",")),
        "lisp" => format!("({})", parts.join(" ")),
        "xml" => format!("<r>{}</r>", parts.concat()),
        "while" => parts.join(";"),
        "mathexpr" => parts.join("+"),
        other => panic!("no list construct for language {other:?}"),
    }
}

/// The serving inputs of one language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LangCorpus {
    /// Language name.
    pub name: &'static str,
    /// Members followed by as many one-character mutants.
    pub short: Vec<String>,
    /// Long documents.
    pub long: Vec<String>,
}

impl LangCorpus {
    /// Generates the corpus of `lang` under the run seed `seed`.
    #[must_use]
    pub fn generate(lang: &dyn Language, seed: u64) -> Self {
        let mut short = members(lang, stream_seed(seed, Stream::Short), SHORT_MEMBERS);
        let alphabet = lang.alphabet();
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, Stream::Mutants));
        let mutants: Vec<String> = short.iter().map(|s| mutate(&mut rng, s, &alphabet)).collect();
        short.extend(mutants);

        let mut rng = StdRng::seed_from_u64(stream_seed(seed, Stream::Long));
        let long = (0..LONG_DOCS)
            .map(|_| {
                let parts: Vec<String> = (0..rng.gen_range(LONG_PARTS.0..=LONG_PARTS.1))
                    .map(|_| {
                        let budget = SHORT_BUDGETS[rng.gen_range(0..SHORT_BUDGETS.len())];
                        lang.generate(&mut rng, budget)
                    })
                    .collect();
                long_document(lang.name(), &parts)
            })
            .collect();
        LangCorpus { name: lang.name(), short, long }
    }

    /// FNV-1a digest of both classes.
    #[must_use]
    pub fn digest(&self) -> u64 {
        digest(self.short.iter().chain(&self.long).map(String::as_str))
    }
}

/// FNV-1a over the strings, each terminated by a 0xFF byte (never in UTF-8).
#[must_use]
pub fn digest<'a>(items: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for item in items {
        for b in item.bytes().chain([0xFF]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstar_oracles::table1_languages;

    #[test]
    fn same_seed_gives_byte_identical_corpora() {
        for lang in table1_languages() {
            let a = LangCorpus::generate(lang.as_ref(), 7);
            let b = LangCorpus::generate(lang.as_ref(), 7);
            assert_eq!(a, b, "{}", lang.name());
            assert_eq!(a.digest(), b.digest());
            let recall_a = members(lang.as_ref(), stream_seed(7, Stream::Recall), RECALL_SIZE);
            let recall_b = members(lang.as_ref(), stream_seed(7, Stream::Recall), RECALL_SIZE);
            assert_eq!(recall_a, recall_b);
            let other = LangCorpus::generate(lang.as_ref(), 8);
            assert_ne!(a.digest(), other.digest(), "{}: seeds 7 and 8 collide", lang.name());
        }
    }

    #[test]
    fn corpus_shapes_match_the_workload_definition() {
        for lang in table1_languages() {
            let c = LangCorpus::generate(lang.as_ref(), 1);
            assert_eq!(c.short.len(), 2 * SHORT_MEMBERS, "{}", lang.name());
            assert_eq!(c.long.len(), LONG_DOCS, "{}", lang.name());
            assert!(c.short[..SHORT_MEMBERS].iter().all(|s| lang.accepts(s)));
            assert!(c.short.iter().all(|s| !s.is_empty()));
            let longest = c.long.iter().map(|d| d.chars().count()).max().unwrap_or(0);
            assert!(longest >= 100, "{}: long documents stay short ({longest})", lang.name());
        }
    }

    #[test]
    fn long_document_builder_yields_oracle_members() {
        for lang in table1_languages() {
            for seed in [1, 2, 3] {
                for doc in LangCorpus::generate(lang.as_ref(), seed).long {
                    assert!(lang.accepts(&doc), "{}: {doc:?}", lang.name());
                }
            }
        }
    }

    #[test]
    fn streams_are_distinct() {
        let all = [
            Stream::Recall,
            Stream::Short,
            Stream::Mutants,
            Stream::Long,
            Stream::Requests,
            Stream::Chunks,
        ];
        let seeds: std::collections::BTreeSet<u64> =
            all.iter().map(|&s| stream_seed(42, s)).collect();
        assert_eq!(seeds.len(), all.len());
    }
}

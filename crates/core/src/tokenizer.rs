//! Partial tokenizers and the `conv_τ` conversion (paper §5.1–§5.2, Algorithm 5).
//!
//! A *partial tokenizer* recognises only the call and return tokens of the oracle
//! language; everything between them is implicitly treated as plain text (the plain
//! tokens are learned later, during VPA learning). Tokenizing a string must respect
//! the *k-Repetition* property: an occurrence of a call/return token string that is
//! `k`-repeatable in context (e.g. a `{` inside a JSON string literal) is *not* a
//! real token occurrence and is skipped (Algorithm 5).
//!
//! `conv_τ` (here [`PartialTokenizer::convert`]) inserts an artificial call marker
//! `⊳ᵢ` before each call-token match and an artificial return marker `⊲ᵢ` after each
//! return-token match, turning the token-based VPL into a character-based VPL that
//! Algorithm 1 can learn.

use std::fmt;

use vstar_automata::Dfa;
use vstar_vpl::Tagging;

use crate::mat::Mat;

/// First code point of the artificial call markers `⊳₀, ⊳₁, …` (Unicode private use
/// area, so they can never collide with oracle alphabets).
const CALL_MARKER_BASE: u32 = 0xE000;
/// First code point of the artificial return markers `⊲₀, ⊲₁, …`.
const RETURN_MARKER_BASE: u32 = 0xE800;

/// The artificial call marker `⊳ᵢ` for pair index `i`.
#[must_use]
pub fn call_marker(pair_index: usize) -> char {
    char::from_u32(CALL_MARKER_BASE + u32::try_from(pair_index).expect("small index"))
        .expect("private use area code point")
}

/// The artificial return marker `⊲ᵢ` for pair index `i`.
#[must_use]
pub fn return_marker(pair_index: usize) -> char {
    char::from_u32(RETURN_MARKER_BASE + u32::try_from(pair_index).expect("small index"))
        .expect("private use area code point")
}

/// Returns `true` if `c` is one of the artificial markers inserted by `conv_τ`.
#[must_use]
pub fn is_marker(c: char) -> bool {
    let v = c as u32;
    (CALL_MARKER_BASE..CALL_MARKER_BASE + 0x400).contains(&v)
        || (RETURN_MARKER_BASE..RETURN_MARKER_BASE + 0x400).contains(&v)
}

/// Removes all artificial markers from a string over the extended alphabet Σ̃,
/// recovering the raw string over Σ (the inverse direction of `conv_τ` used to
/// answer membership queries on learner-composed strings).
#[must_use]
pub fn strip_markers(s: &str) -> String {
    s.chars().filter(|&c| !is_marker(c)).collect()
}

/// Whether a token is a call or a return token.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// A call token (paired with pushes).
    Call,
    /// A return token (paired with pops).
    Return,
}

/// A matcher for the strings of one token: either a literal string or a learned
/// regular language (a DFA produced by L\*).
#[derive(Clone, Debug)]
pub enum TokenMatcher {
    /// The token has exactly one string.
    Literal(String),
    /// The token's lexical rule is a regular language.
    Dfa(Dfa),
}

impl TokenMatcher {
    /// Lengths (in characters, ascending) of the non-empty prefixes of `input`
    /// matched by this token.
    #[must_use]
    pub fn prefix_match_lengths(&self, input: &str) -> Vec<usize> {
        match self {
            TokenMatcher::Literal(lit) => {
                if !lit.is_empty() && input.starts_with(lit.as_str()) {
                    vec![lit.chars().count()]
                } else {
                    Vec::new()
                }
            }
            TokenMatcher::Dfa(dfa) => {
                dfa.matching_prefix_lengths(input).into_iter().filter(|&l| l > 0).collect()
            }
        }
    }

    /// Returns `true` if the whole string is a string of this token.
    #[must_use]
    pub fn matches(&self, input: &str) -> bool {
        match self {
            TokenMatcher::Literal(lit) => lit == input,
            TokenMatcher::Dfa(dfa) => dfa.accepts(input),
        }
    }

    /// A human-readable description of the token's lexical rule.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            TokenMatcher::Literal(lit) => format!("{lit:?}"),
            TokenMatcher::Dfa(dfa) => dfa.to_regex(),
        }
    }

    /// Calls `found(start, len)` for every start position of `chars` at which
    /// this token has a non-empty match, with the length of the shortest one.
    ///
    /// A DFA is run from every start position in one forward sweep: the runs
    /// advance together, and runs that reach the same DFA state at the same
    /// position merge (their futures are the same), so the sweep costs
    /// O(`chars.len()` · states) rather than a run per start position. Each
    /// start is resolved when its run first accepts, or dropped when it dies.
    fn shortest_matches(&self, chars: &[char], mut found: impl FnMut(usize, usize)) {
        match self {
            TokenMatcher::Literal(lit) => {
                let len = lit.chars().count();
                if len == 0 {
                    return;
                }
                for (start, window) in chars.windows(len).enumerate() {
                    if window.iter().copied().eq(lit.chars()) {
                        found(start, len);
                    }
                }
            }
            TokenMatcher::Dfa(dfa) => {
                let accepting: Vec<bool> =
                    (0..dfa.state_count()).map(|q| dfa.accepting().contains(&q)).collect();
                // The unresolved starts whose runs are in DFA state `q` form
                // the list `groups[q] = Some((first, last))`, chained through
                // `link`.
                let mut groups: Vec<Option<(usize, usize)>> = vec![None; accepting.len()];
                let mut next_groups = groups.clone();
                let mut link = vec![0; chars.len()];
                for (pos, &c) in chars.iter().enumerate() {
                    join(&mut groups[dfa.initial()], &mut link, (pos, pos));
                    for (q, group) in groups.iter_mut().enumerate() {
                        let Some((first, last)) = group.take() else {
                            continue;
                        };
                        let Some(next) = dfa.delta(q, c) else {
                            continue;
                        };
                        if !accepting[next] {
                            join(&mut next_groups[next], &mut link, (first, last));
                            continue;
                        }
                        let mut start = first;
                        loop {
                            found(start, pos + 1 - start);
                            if start == last {
                                break;
                            }
                            start = link[start];
                        }
                    }
                    std::mem::swap(&mut groups, &mut next_groups);
                }
            }
        }
    }
}

/// Appends the list `(first, last)` of start positions to `group`.
fn join(group: &mut Option<(usize, usize)>, link: &mut [usize], (first, last): (usize, usize)) {
    match group {
        Some((_, tail)) => {
            link[*tail] = first;
            *tail = last;
        }
        None => *group = Some((first, last)),
    }
}

/// A paired call/return token.
#[derive(Clone, Debug)]
pub struct TokenPair {
    /// Matcher for the call token.
    pub call: TokenMatcher,
    /// Matcher for the return token.
    pub ret: TokenMatcher,
}

/// One token occurrence: a candidate of [`PartialTokenizer::candidates`], or a
/// real token found by [`PartialTokenizer::tokenize`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TokenMatch {
    /// Index of the token pair in the tokenizer.
    pub pair: usize,
    /// Call or return.
    pub kind: TokenKind,
    /// Character range `[start, end)` of the occurrence in the input.
    pub start: usize,
    /// Exclusive end of the occurrence.
    pub end: usize,
}

/// A partial tokenizer `D = {(r₁, r₁′), …}` recognising call/return token pairs.
#[derive(Clone, Debug, Default)]
pub struct PartialTokenizer {
    pairs: Vec<TokenPair>,
    /// The `k` of the k-Repetition check (the paper sets `k = 2`).
    k_repetition: usize,
}

impl PartialTokenizer {
    /// An empty tokenizer with the paper's default repetition bound (`k = 2`).
    #[must_use]
    pub fn new() -> Self {
        PartialTokenizer { pairs: Vec::new(), k_repetition: 2 }
    }

    /// Sets the `k` used by the k-Repetition check.
    #[must_use]
    pub fn with_k_repetition(mut self, k: usize) -> Self {
        self.k_repetition = k.max(2);
        self
    }

    /// Builds a tokenizer whose tokens are single characters, from a character-level
    /// tagging (the character-based setting of paper §4 embeds into the token-based
    /// one by taking literal one-character tokens).
    #[must_use]
    pub fn from_tagging(tagging: &Tagging) -> Self {
        let mut t = PartialTokenizer::new();
        for &(call, ret) in tagging.pairs() {
            t.push_pair(TokenPair {
                call: TokenMatcher::Literal(call.to_string()),
                ret: TokenMatcher::Literal(ret.to_string()),
            });
        }
        t
    }

    /// Adds a call/return token pair and returns its index.
    pub fn push_pair(&mut self, pair: TokenPair) -> usize {
        self.pairs.push(pair);
        self.pairs.len() - 1
    }

    /// The token pairs.
    #[must_use]
    pub fn pairs(&self) -> &[TokenPair] {
        &self.pairs
    }

    /// The `k` used by the k-Repetition check.
    #[must_use]
    pub fn k_repetition(&self) -> usize {
        self.k_repetition
    }

    /// Number of call/return token pairs.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Returns `true` if the tokenizer has no token pairs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The tagging over the extended alphabet Σ̃: pair `i` maps to the artificial
    /// markers `(⊳ᵢ, ⊲ᵢ)`; all raw characters are plain.
    ///
    /// # Panics
    ///
    /// Never panics for realistic pair counts (the private-use area is large).
    #[must_use]
    pub fn marker_tagging(&self) -> Tagging {
        Tagging::from_pairs((0..self.pairs.len()).map(|i| (call_marker(i), return_marker(i))))
            .expect("marker characters are distinct by construction")
    }

    /// Tokenizes `s` with the k-Repetition filter (paper Algorithm 5).
    ///
    /// Scans left to right; at each position the first (shortest) match of any
    /// call/return token is considered. If the matched substring is `k`-repeatable
    /// in `s` — repeating it `k` times in place keeps the string valid — it is *not*
    /// a real token occurrence (e.g. a `{` inside a JSON string) and the scan moves
    /// on by one character; otherwise the match is recorded and the scan jumps past
    /// it.
    #[must_use]
    pub fn tokenize(&self, mat: &Mat<'_>, s: &str) -> Vec<TokenMatch> {
        let chars: Vec<char> = s.chars().collect();
        let candidates = self.candidates(&chars);
        let mut matches = Vec::new();
        let mut i = 0usize;
        while i < chars.len() {
            match candidates[i] {
                Some(m) => {
                    let occurrence: String = chars[m.start..m.end].iter().collect();
                    if self.is_k_repeatable(mat, &chars, m.start, m.end, &occurrence) {
                        i += 1;
                    } else {
                        matches.push(m);
                        i = m.end;
                    }
                }
                None => i += 1,
            }
        }
        matches
    }

    /// The candidate table of `chars`: entry `i` is the first (shortest) match
    /// of any call/return token starting at position `i`, the occurrence
    /// Algorithm 5 considers there. Ties go to the earlier pair, and to the
    /// call token within a pair.
    ///
    /// The table depends only on the input, so both conversion scans (the
    /// oracle-backed [`PartialTokenizer::tokenize`] and the compiled serving
    /// scan) read it. Each matcher fills it in one forward sweep, linear in the
    /// input length.
    #[must_use]
    pub fn candidates(&self, chars: &[char]) -> Vec<Option<TokenMatch>> {
        let mut table: Vec<Option<TokenMatch>> = vec![None; chars.len()];
        for (pair, p) in self.pairs.iter().enumerate() {
            for (kind, matcher) in [(TokenKind::Call, &p.call), (TokenKind::Return, &p.ret)] {
                matcher.shortest_matches(chars, |start, len| {
                    let slot = &mut table[start];
                    if slot.is_none_or(|c| start + len < c.end) {
                        *slot = Some(TokenMatch { pair, kind, start, end: start + len });
                    }
                });
            }
        }
        table
    }

    fn is_k_repeatable(
        &self,
        mat: &Mat<'_>,
        chars: &[char],
        start: usize,
        end: usize,
        occurrence: &str,
    ) -> bool {
        let prefix: String = chars[..start].iter().collect();
        let suffix: String = chars[end..].iter().collect();
        let repeated = occurrence.repeat(self.k_repetition);
        mat.member(&format!("{prefix}{repeated}{suffix}"))
    }

    /// `conv_τ(s)`: inserts artificial markers around every tokenized call/return
    /// occurrence (paper §5.1). Membership queries issued by the k-Repetition check
    /// go through `mat`.
    #[must_use]
    pub fn convert(&self, mat: &Mat<'_>, s: &str) -> String {
        self.convert_with_positions(mat, s).into_iter().map(|(c, _)| c).collect()
    }

    /// Like [`PartialTokenizer::convert`], but each output character carries the
    /// index of the input character it belongs to (markers carry the index of the
    /// first/last character of their token occurrence). Used by the compatibility
    /// check of Definition 5.1, which needs to know which markers fall inside the
    /// `x`/`y` parts of a nesting pattern.
    #[must_use]
    pub fn convert_with_positions(&self, mat: &Mat<'_>, s: &str) -> Vec<(char, usize)> {
        let chars: Vec<char> = s.chars().collect();
        let matches = self.tokenize(mat, s);
        let mut out: Vec<(char, usize)> = Vec::with_capacity(chars.len() + 2 * matches.len());
        let mut match_iter = matches.iter().peekable();
        let mut pending_return_at: Vec<(usize, char)> = Vec::new();
        for (i, &c) in chars.iter().enumerate() {
            if let Some(m) = match_iter.peek() {
                if m.start == i && m.kind == TokenKind::Call {
                    out.push((call_marker(m.pair), i));
                    match_iter.next();
                } else if m.start == i && m.kind == TokenKind::Return {
                    pending_return_at.push((m.end, return_marker(m.pair)));
                    match_iter.next();
                }
            }
            out.push((c, i));
            // Emit any return marker whose occurrence just ended.
            while let Some(&(end, marker)) = pending_return_at.first() {
                if end == i + 1 {
                    out.push((marker, i));
                    pending_return_at.remove(0);
                } else {
                    break;
                }
            }
        }
        out
    }

    /// Returns `true` if `conv_τ(s)` is well matched under the marker tagging.
    #[must_use]
    pub fn converts_to_well_matched(&self, mat: &Mat<'_>, s: &str) -> bool {
        self.marker_tagging().is_well_matched(&self.convert(mat, s))
    }
}

impl fmt::Display for PartialTokenizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "partial tokenizer with {} pair(s):", self.pairs.len())?;
        for (i, pair) in self.pairs.iter().enumerate() {
            writeln!(
                f,
                "  #{i}: call = {}, return = {}",
                pair.call.describe(),
                pair.ret.describe()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json_like(s: &str) -> bool {
        // Minimal JSON-ish oracle: {"<letters or {>":true} objects, nested objects,
        // enough to exercise the k-repetition example from the paper.
        fn value(s: &[u8], pos: usize) -> Option<usize> {
            match s.get(pos) {
                Some(b'{') => {
                    if s.get(pos + 1) == Some(&b'}') {
                        return Some(pos + 2);
                    }
                    let mut p = pos + 1;
                    loop {
                        p = string(s, p)?;
                        if s.get(p) != Some(&b':') {
                            return None;
                        }
                        p = value(s, p + 1)?;
                        match s.get(p) {
                            Some(b'}') => return Some(p + 1),
                            Some(b',') => p += 1,
                            _ => return None,
                        }
                    }
                }
                Some(b't') => s[pos..].starts_with(b"true").then_some(pos + 4),
                _ => string(s, pos),
            }
        }
        fn string(s: &[u8], pos: usize) -> Option<usize> {
            if s.get(pos) != Some(&b'"') {
                return None;
            }
            let mut p = pos + 1;
            while let Some(&c) = s.get(p) {
                if c == b'"' {
                    return Some(p + 1);
                }
                if c.is_ascii_lowercase() || c == b'{' {
                    p += 1;
                } else {
                    return None;
                }
            }
            None
        }
        value(s.as_bytes(), 0) == Some(s.len())
    }

    fn brace_tokenizer() -> PartialTokenizer {
        let mut t = PartialTokenizer::new();
        t.push_pair(TokenPair {
            call: TokenMatcher::Literal("{".to_string()),
            ret: TokenMatcher::Literal("}".to_string()),
        });
        t
    }

    #[test]
    fn markers_are_distinct_and_strippable() {
        assert_ne!(call_marker(0), return_marker(0));
        assert_ne!(call_marker(0), call_marker(1));
        assert!(is_marker(call_marker(3)));
        assert!(is_marker(return_marker(7)));
        assert!(!is_marker('{'));
        let s = format!("{}abc{}", call_marker(0), return_marker(0));
        assert_eq!(strip_markers(&s), "abc");
    }

    #[test]
    fn literal_matcher() {
        let m = TokenMatcher::Literal("<p>".to_string());
        assert_eq!(m.prefix_match_lengths("<p>x"), vec![3]);
        assert_eq!(m.prefix_match_lengths("x<p>"), Vec::<usize>::new());
        assert!(m.matches("<p>"));
        assert!(!m.matches("<p>x"));
        assert_eq!(m.describe(), "\"<p>\"");
    }

    #[test]
    fn paper_k_repetition_example() {
        // The paper's §5.2 walkthrough: for D = {({, })} and s = {"{"  :true}
        // (compacted to our dialect), Algorithm 5 returns the outer braces only.
        let oracle = json_like;
        let mat = Mat::new(&oracle);
        let t = brace_tokenizer();
        let s = "{\"{\":true}";
        assert!(json_like(s));
        let matches = t.tokenize(&mat, s);
        assert_eq!(matches.len(), 2, "{matches:?}");
        assert_eq!(matches[0].kind, TokenKind::Call);
        assert_eq!(matches[0].start, 0);
        assert_eq!(matches[1].kind, TokenKind::Return);
        assert_eq!(matches[1].start, s.chars().count() - 1);
    }

    #[test]
    fn conversion_is_well_matched_and_strips_back() {
        let oracle = json_like;
        let mat = Mat::new(&oracle);
        let t = brace_tokenizer();
        for s in ["{}", "{\"a\":true}", "{\"a\":{\"b\":true}}", "{\"{\":true}"] {
            let converted = t.convert(&mat, s);
            assert_eq!(strip_markers(&converted), s);
            assert!(t.converts_to_well_matched(&mat, s), "{s}");
        }
        // An ill-matched raw string converts to an ill-matched marked string.
        assert!(!t.converts_to_well_matched(&mat, "{\"a\":true"));
    }

    #[test]
    fn conversion_positions_cover_regions() {
        let oracle = json_like;
        let mat = Mat::new(&oracle);
        let t = brace_tokenizer();
        let s = "{\"a\":true}";
        let with_pos = t.convert_with_positions(&mat, s);
        // First output char is the call marker attached to position 0.
        assert!(is_marker(with_pos[0].0));
        assert_eq!(with_pos[0].1, 0);
        // Last output char is the return marker attached to the last position.
        let last = *with_pos.last().unwrap();
        assert!(is_marker(last.0));
        assert_eq!(last.1, s.chars().count() - 1);
    }

    #[test]
    fn from_tagging_builds_single_char_tokens() {
        let tagging = vstar_vpl::Tagging::from_pairs([('(', ')')]).unwrap();
        let t = PartialTokenizer::from_tagging(&tagging);
        assert_eq!(t.pair_count(), 1);
        let oracle = |s: &str| {
            let mut d = 0i64;
            for c in s.chars() {
                match c {
                    '(' => d += 1,
                    ')' => {
                        d -= 1;
                        if d < 0 {
                            return false;
                        }
                    }
                    _ => {}
                }
            }
            d == 0
        };
        let mat = Mat::new(&oracle);
        let matches = t.tokenize(&mat, "(x)");
        assert_eq!(matches.len(), 2);
        assert!(t.converts_to_well_matched(&mat, "(x)"));
    }

    #[test]
    fn multi_character_token_matching() {
        // Toy XML with literal <p> / </p> tokens.
        let oracle = |s: &str| {
            fn parse(s: &[u8], pos: usize) -> Option<usize> {
                if s[pos..].starts_with(b"<p>") {
                    let inner = parse(s, pos + 3)?;
                    s[inner..].starts_with(b"</p>").then_some(inner + 4)
                } else {
                    let mut i = pos;
                    while i < s.len() && s[i].is_ascii_lowercase() {
                        i += 1;
                    }
                    (i > pos).then_some(i)
                }
            }
            parse(s.as_bytes(), 0) == Some(s.len())
        };
        let mat = Mat::new(&oracle);
        let mut t = PartialTokenizer::new();
        t.push_pair(TokenPair {
            call: TokenMatcher::Literal("<p>".to_string()),
            ret: TokenMatcher::Literal("</p>".to_string()),
        });
        let s = "<p><p>p</p></p>";
        let matches = t.tokenize(&mat, s);
        assert_eq!(matches.len(), 4);
        assert_eq!(matches[0].kind, TokenKind::Call);
        assert_eq!(matches[2].kind, TokenKind::Return);
        let converted = t.convert(&mat, s);
        assert!(t.marker_tagging().is_well_matched(&converted));
        // The converted string mirrors the paper's ⊳<p>⊳<p>p</p>⊲</p>⊲ shape.
        assert_eq!(converted.chars().filter(|&c| is_marker(c)).count(), 4);
        assert!(converted.starts_with(call_marker(0)));
        assert!(converted.ends_with(return_marker(0)));
    }

    /// The per-position reference for [`PartialTokenizer::candidates`]: run
    /// every matcher from `i` and keep the first shortest non-empty match.
    fn reference_candidate(t: &PartialTokenizer, chars: &[char], i: usize) -> Option<TokenMatch> {
        let rest: String = chars[i..].iter().collect();
        let mut best: Option<TokenMatch> = None;
        for (pair, p) in t.pairs().iter().enumerate() {
            for (kind, matcher) in [(TokenKind::Call, &p.call), (TokenKind::Return, &p.ret)] {
                if let Some(&len) = matcher.prefix_match_lengths(&rest).first() {
                    if best.is_none_or(|b| i + len < b.end) {
                        best = Some(TokenMatch { pair, kind, start: i, end: i + len });
                    }
                }
            }
        }
        best
    }

    #[test]
    fn candidate_table_matches_the_per_position_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::{BTreeMap, BTreeSet};

        let alphabet = ['a', 'b', 'c'];
        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        let random_matcher = |rng: &mut StdRng| {
            if rng.gen_range(0..3u32) == 0 {
                let len = rng.gen_range(1..4usize);
                return TokenMatcher::Literal(
                    (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect(),
                );
            }
            // Partial DFAs with up to five states and random (often cyclic)
            // transitions, so runs may loop for a while before accepting.
            let states = rng.gen_range(1..6usize);
            let mut transitions = BTreeMap::new();
            for q in 0..states {
                for &c in &alphabet {
                    if rng.gen_range(0..4u32) != 0 {
                        transitions.insert((q, c), rng.gen_range(0..states));
                    }
                }
            }
            let accepting: BTreeSet<usize> =
                (0..states).filter(|_| rng.gen_range(0..3u32) == 0).collect();
            TokenMatcher::Dfa(Dfa::new(alphabet.to_vec(), states, 0, accepting, transitions))
        };
        // `a (b|c)* a` loops on `b`/`c` before it accepts.
        let looping = Dfa::new(
            alphabet.to_vec(),
            3,
            0,
            BTreeSet::from([2]),
            BTreeMap::from([((0, 'a'), 1), ((1, 'b'), 1), ((1, 'c'), 1), ((1, 'a'), 2)]),
        );
        let mut compared = 0usize;
        for case in 0..400 {
            let mut t = PartialTokenizer::new();
            for _ in 0..rng.gen_range(1..4usize) {
                let call = random_matcher(&mut rng);
                let ret = random_matcher(&mut rng);
                t.push_pair(TokenPair { call, ret });
            }
            if case % 2 == 0 {
                let call = random_matcher(&mut rng);
                t.push_pair(TokenPair { call, ret: TokenMatcher::Dfa(looping.clone()) });
            }
            let len = rng.gen_range(0..40usize);
            let chars: Vec<char> =
                (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect();
            let table = t.candidates(&chars);
            assert_eq!(table.len(), chars.len());
            for (i, &got) in table.iter().enumerate() {
                let expected = reference_candidate(&t, &chars, i);
                assert_eq!(got, expected, "case {case}, position {i} of {chars:?}\n{t}");
                compared += usize::from(expected.is_some());
            }
        }
        assert!(compared > 1000, "only {compared} positions had a candidate");
    }

    #[test]
    fn display_lists_pairs() {
        let t = brace_tokenizer();
        let text = t.to_string();
        assert!(text.contains("1 pair"));
        assert!(text.contains("call"));
    }
}

//! Deterministic visibly pushdown automata (paper §3.3).
//!
//! A [`Vpa`] is a partial deterministic VPA over a [`Tagging`]: reading a call
//! symbol pushes a stack symbol, a return symbol pops one and a plain symbol leaves
//! the stack untouched. Missing transitions reject. Acceptance requires ending in an
//! accepting state **with an empty stack** (the well-matched acceptance condition
//! used by the paper's learner).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::error::VplError;
use crate::symbol::{Kind, TaggedChar};
use crate::tagging::Tagging;

/// Identifier of a VPA state.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub usize);

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Identifier of a stack symbol (other than the implicit bottom symbol `⊥`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StackSymId(pub usize);

/// A run configuration: current state plus the stack (top last, bottom implicit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Configuration {
    /// The current state.
    pub state: StateId,
    /// Pushed stack symbols, bottom first; the `⊥` bottom marker is implicit.
    pub stack: Vec<StackSymId>,
}

/// The outcome of tracing a VPA over a tagged string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Configuration after each prefix: `configs[i]` is the configuration after
    /// reading `i` symbols. Always contains at least the initial configuration.
    pub configs: Vec<Configuration>,
    /// If the automaton got stuck (missing transition), the index of the symbol it
    /// could not read.
    pub stuck_at: Option<usize>,
}

impl Trace {
    /// `true` if the whole input was consumed.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.stuck_at.is_none()
    }

    /// The final configuration reached (the last one before getting stuck).
    ///
    /// # Panics
    ///
    /// Never panics: `configs` always holds the initial configuration.
    #[must_use]
    pub fn last(&self) -> &Configuration {
        self.configs.last().expect("trace always has the initial configuration")
    }
}

/// A deterministic (partial) visibly pushdown automaton.
///
/// Transition tables are ordered maps, so the transition iterators — and
/// everything downstream of their order, like the rule order of
/// [`crate::vpa_to_vpg()`] and the draws of samplers over the extracted
/// grammar — are stable across processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Vpa {
    tagging: Tagging,
    n_states: usize,
    n_stack_syms: usize,
    initial: StateId,
    accepting: BTreeSet<StateId>,
    call_tr: BTreeMap<(StateId, char), (StateId, StackSymId)>,
    ret_tr: BTreeMap<(StateId, char, StackSymId), StateId>,
    /// Transitions taken when a return symbol is read with an empty stack
    /// (the paper allows them; well-matched languages never exercise them).
    ret_bottom_tr: BTreeMap<(StateId, char), StateId>,
    plain_tr: BTreeMap<(StateId, char), StateId>,
}

impl Vpa {
    /// The automaton's tagging function.
    #[must_use]
    pub fn tagging(&self) -> &Tagging {
        &self.tagging
    }

    /// Number of states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.n_states
    }

    /// Number of (non-bottom) stack symbols.
    #[must_use]
    pub fn stack_symbol_count(&self) -> usize {
        self.n_stack_syms
    }

    /// The initial state.
    #[must_use]
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The accepting states.
    #[must_use]
    pub fn accepting(&self) -> &BTreeSet<StateId> {
        &self.accepting
    }

    /// Returns `true` if `state` is accepting.
    #[must_use]
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting.contains(&state)
    }

    /// Iterates over all call transitions `(from, call) → (to, pushed)`.
    pub fn call_transitions(
        &self,
    ) -> impl Iterator<Item = (StateId, char, StateId, StackSymId)> + '_ {
        self.call_tr.iter().map(|(&(q, c), &(q2, g))| (q, c, q2, g))
    }

    /// Iterates over all return transitions `(from, ret, popped) → to`.
    pub fn return_transitions(
        &self,
    ) -> impl Iterator<Item = (StateId, char, StackSymId, StateId)> + '_ {
        self.ret_tr.iter().map(|(&(q, c, g), &q2)| (q, c, g, q2))
    }

    /// Iterates over all plain transitions `(from, plain) → to`.
    pub fn plain_transitions(&self) -> impl Iterator<Item = (StateId, char, StateId)> + '_ {
        self.plain_tr.iter().map(|(&(q, c), &q2)| (q, c, q2))
    }

    /// Iterates over all return-on-empty-stack transitions `(from, ret) → to`
    /// (the paper allows them; well-matched languages never exercise them).
    pub fn bottom_return_transitions(&self) -> impl Iterator<Item = (StateId, char, StateId)> + '_ {
        self.ret_bottom_tr.iter().map(|(&(q, c), &q2)| (q, c, q2))
    }

    /// Performs one configuration step (paper §3.3). Returns `None` when the
    /// required transition is missing.
    #[must_use]
    pub fn step(&self, config: &Configuration, sym: TaggedChar) -> Option<Configuration> {
        match sym.kind {
            Kind::Call => {
                let &(q2, g) = self.call_tr.get(&(config.state, sym.ch))?;
                let mut stack = config.stack.clone();
                stack.push(g);
                Some(Configuration { state: q2, stack })
            }
            Kind::Return => {
                if let Some(&top) = config.stack.last() {
                    let &q2 = self.ret_tr.get(&(config.state, sym.ch, top))?;
                    let mut stack = config.stack.clone();
                    stack.pop();
                    Some(Configuration { state: q2, stack })
                } else {
                    let &q2 = self.ret_bottom_tr.get(&(config.state, sym.ch))?;
                    Some(Configuration { state: q2, stack: Vec::new() })
                }
            }
            Kind::Plain => {
                let &q2 = self.plain_tr.get(&(config.state, sym.ch))?;
                Some(Configuration { state: q2, stack: config.stack.clone() })
            }
        }
    }

    /// Runs the automaton over a pre-tagged string and records every configuration.
    #[must_use]
    pub fn trace_tagged(&self, input: &[TaggedChar]) -> Trace {
        let mut configs = vec![Configuration { state: self.initial, stack: Vec::new() }];
        for (i, &sym) in input.iter().enumerate() {
            match self.step(configs.last().expect("nonempty"), sym) {
                Some(next) => configs.push(next),
                None => return Trace { configs, stuck_at: Some(i) },
            }
        }
        Trace { configs, stuck_at: None }
    }

    /// Runs the automaton on a raw string, tagging it with the automaton's tagging.
    #[must_use]
    pub fn trace(&self, input: &str) -> Trace {
        self.trace_tagged(&self.tagging.tag(input))
    }

    /// Returns `true` if the automaton accepts the (pre-tagged) string: the run
    /// completes and ends in an accepting state with an empty stack. Walks one
    /// state and one stack, so no configuration is copied; a missing
    /// transition rejects exactly as [`Vpa::step`] does.
    #[must_use]
    pub fn accepts_tagged(&self, input: &[TaggedChar]) -> bool {
        let mut state = self.initial;
        let mut stack = Vec::new();
        for &sym in input {
            let next = match sym.kind {
                Kind::Call => self.call_tr.get(&(state, sym.ch)).map(|&(q2, g)| {
                    stack.push(g);
                    q2
                }),
                Kind::Return => match stack.pop() {
                    Some(top) => self.ret_tr.get(&(state, sym.ch, top)).copied(),
                    None => self.ret_bottom_tr.get(&(state, sym.ch)).copied(),
                },
                Kind::Plain => self.plain_tr.get(&(state, sym.ch)).copied(),
            };
            let Some(q2) = next else { return false };
            state = q2;
        }
        stack.is_empty() && self.is_accepting(state)
    }

    /// Returns `true` if the automaton accepts the raw string under its own tagging.
    #[must_use]
    pub fn accepts(&self, input: &str) -> bool {
        self.accepts_tagged(&self.tagging.tag(input))
    }
}

/// Builder for [`Vpa`] values.
///
/// # Example
///
/// ```
/// use vstar_vpl::{Tagging, VpaBuilder};
///
/// // The Dyck language over a single pair of brackets with plain 'x' bodies.
/// let tagging = Tagging::from_pairs([('(', ')')]).unwrap();
/// let mut b = VpaBuilder::new(tagging);
/// let q0 = b.add_state();
/// let gamma = b.add_stack_symbol();
/// b.set_initial(q0);
/// b.add_accepting(q0);
/// b.call(q0, '(', q0, gamma).unwrap();
/// b.ret(q0, ')', gamma, q0).unwrap();
/// b.plain(q0, 'x', q0).unwrap();
/// let vpa = b.build().unwrap();
/// assert!(vpa.accepts("((x)x)"));
/// assert!(!vpa.accepts("((x)"));
/// ```
#[derive(Clone, Debug)]
pub struct VpaBuilder {
    tagging: Tagging,
    n_states: usize,
    n_stack_syms: usize,
    initial: Option<StateId>,
    accepting: BTreeSet<StateId>,
    call_tr: BTreeMap<(StateId, char), (StateId, StackSymId)>,
    ret_tr: BTreeMap<(StateId, char, StackSymId), StateId>,
    ret_bottom_tr: BTreeMap<(StateId, char), StateId>,
    plain_tr: BTreeMap<(StateId, char), StateId>,
}

impl VpaBuilder {
    /// Creates a builder over the given tagging.
    #[must_use]
    pub fn new(tagging: Tagging) -> Self {
        VpaBuilder {
            tagging,
            n_states: 0,
            n_stack_syms: 0,
            initial: None,
            accepting: BTreeSet::new(),
            call_tr: BTreeMap::new(),
            ret_tr: BTreeMap::new(),
            ret_bottom_tr: BTreeMap::new(),
            plain_tr: BTreeMap::new(),
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(self.n_states);
        self.n_states += 1;
        id
    }

    /// Adds `count` fresh states and returns them.
    pub fn add_states(&mut self, count: usize) -> Vec<StateId> {
        (0..count).map(|_| self.add_state()).collect()
    }

    /// Adds a fresh stack symbol.
    pub fn add_stack_symbol(&mut self) -> StackSymId {
        let id = StackSymId(self.n_stack_syms);
        self.n_stack_syms += 1;
        id
    }

    /// Sets the initial state.
    pub fn set_initial(&mut self, state: StateId) -> &mut Self {
        self.initial = Some(state);
        self
    }

    /// Marks a state as accepting.
    pub fn add_accepting(&mut self, state: StateId) -> &mut Self {
        self.accepting.insert(state);
        self
    }

    fn check_state(&self, s: StateId) -> Result<(), VplError> {
        if s.0 >= self.n_states {
            return Err(VplError::UnknownState { index: s.0 });
        }
        Ok(())
    }

    /// Adds the call transition `(from, ‹call) → (to, push)`.
    ///
    /// # Errors
    ///
    /// Rejects unknown states, symbols that are not call symbols under the tagging,
    /// and conflicting (nondeterministic) transitions.
    pub fn call(
        &mut self,
        from: StateId,
        call: char,
        to: StateId,
        push: StackSymId,
    ) -> Result<&mut Self, VplError> {
        self.check_state(from)?;
        self.check_state(to)?;
        if self.tagging.kind(call) != Kind::Call {
            return Err(VplError::InvalidTransitionKind { ch: call, table: "call" });
        }
        if push.0 >= self.n_stack_syms {
            return Err(VplError::UnknownState { index: push.0 });
        }
        if let Some(&existing) = self.call_tr.get(&(from, call)) {
            if existing != (to, push) {
                return Err(VplError::ConflictingTransition {
                    detail: format!("call transition from {from} on {call:?} already defined"),
                });
            }
        }
        self.call_tr.insert((from, call), (to, push));
        Ok(self)
    }

    /// Adds the return transition `(from, ret›, pop) → to`.
    ///
    /// # Errors
    ///
    /// Rejects unknown states, symbols that are not return symbols under the
    /// tagging, and conflicting transitions.
    pub fn ret(
        &mut self,
        from: StateId,
        ret: char,
        pop: StackSymId,
        to: StateId,
    ) -> Result<&mut Self, VplError> {
        self.check_state(from)?;
        self.check_state(to)?;
        if self.tagging.kind(ret) != Kind::Return {
            return Err(VplError::InvalidTransitionKind { ch: ret, table: "return" });
        }
        if pop.0 >= self.n_stack_syms {
            return Err(VplError::UnknownState { index: pop.0 });
        }
        if let Some(&existing) = self.ret_tr.get(&(from, ret, pop)) {
            if existing != to {
                return Err(VplError::ConflictingTransition {
                    detail: format!("return transition from {from} on {ret:?} already defined"),
                });
            }
        }
        self.ret_tr.insert((from, ret, pop), to);
        Ok(self)
    }

    /// Adds a return transition taken on an empty stack.
    ///
    /// # Errors
    ///
    /// Rejects unknown states and symbols that are not return symbols.
    pub fn ret_on_empty(
        &mut self,
        from: StateId,
        ret: char,
        to: StateId,
    ) -> Result<&mut Self, VplError> {
        self.check_state(from)?;
        self.check_state(to)?;
        if self.tagging.kind(ret) != Kind::Return {
            return Err(VplError::InvalidTransitionKind { ch: ret, table: "return" });
        }
        self.ret_bottom_tr.insert((from, ret), to);
        Ok(self)
    }

    /// Adds the plain transition `(from, plain) → to`.
    ///
    /// # Errors
    ///
    /// Rejects unknown states, symbols that are not plain, and conflicts.
    pub fn plain(
        &mut self,
        from: StateId,
        plain: char,
        to: StateId,
    ) -> Result<&mut Self, VplError> {
        self.check_state(from)?;
        self.check_state(to)?;
        if self.tagging.kind(plain) != Kind::Plain {
            return Err(VplError::InvalidTransitionKind { ch: plain, table: "plain" });
        }
        if let Some(&existing) = self.plain_tr.get(&(from, plain)) {
            if existing != to {
                return Err(VplError::ConflictingTransition {
                    detail: format!("plain transition from {from} on {plain:?} already defined"),
                });
            }
        }
        self.plain_tr.insert((from, plain), to);
        Ok(self)
    }

    /// Finishes the automaton.
    ///
    /// # Errors
    ///
    /// Returns an error when no state was declared or the initial state is missing.
    pub fn build(self) -> Result<Vpa, VplError> {
        if self.n_states == 0 {
            return Err(VplError::EmptyGrammar);
        }
        let initial = self.initial.ok_or(VplError::UnknownState { index: usize::MAX })?;
        Ok(Vpa {
            tagging: self.tagging,
            n_states: self.n_states,
            n_stack_syms: self.n_stack_syms,
            initial,
            accepting: self.accepting,
            call_tr: self.call_tr,
            ret_tr: self.ret_tr,
            ret_bottom_tr: self.ret_bottom_tr,
            plain_tr: self.plain_tr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dyck_vpa() -> Vpa {
        let tagging = Tagging::from_pairs([('(', ')')]).unwrap();
        let mut b = VpaBuilder::new(tagging);
        let q0 = b.add_state();
        let gamma = b.add_stack_symbol();
        b.set_initial(q0);
        b.add_accepting(q0);
        b.call(q0, '(', q0, gamma).unwrap();
        b.ret(q0, ')', gamma, q0).unwrap();
        b.plain(q0, 'x', q0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dyck_acceptance() {
        let vpa = dyck_vpa();
        assert!(vpa.accepts(""));
        assert!(vpa.accepts("x"));
        assert!(vpa.accepts("(x)"));
        assert!(vpa.accepts("((x)(x))x"));
        assert!(!vpa.accepts("("));
        assert!(!vpa.accepts(")"));
        assert!(!vpa.accepts("(x))"));
        assert!(!vpa.accepts("y"));
    }

    #[test]
    fn trace_records_configurations() {
        let vpa = dyck_vpa();
        let t = vpa.trace("(x)");
        assert!(t.completed());
        assert_eq!(t.configs.len(), 4);
        assert_eq!(t.configs[1].stack.len(), 1);
        assert_eq!(t.configs[3].stack.len(), 0);
        assert!(t.last().stack.is_empty());
    }

    #[test]
    fn trace_reports_stuck_position() {
        let vpa = dyck_vpa();
        let t = vpa.trace("(y)");
        assert_eq!(t.stuck_at, Some(1));
        assert_eq!(t.configs.len(), 2);
        assert!(!vpa.accepts("(y)"));
    }

    #[test]
    fn counting_vpa_distinguishes_depth() {
        // Language: { (^k x )^k | k ≥ 0 } with at most depth 2 states distinguishing
        // acceptance of the inner body.
        let tagging = Tagging::from_pairs([('(', ')')]).unwrap();
        let mut b = VpaBuilder::new(tagging);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let g = b.add_stack_symbol();
        b.set_initial(q0);
        b.add_accepting(q1);
        b.call(q0, '(', q0, g).unwrap();
        b.plain(q0, 'x', q1).unwrap();
        b.ret(q1, ')', g, q1).unwrap();
        let vpa = b.build().unwrap();
        assert!(vpa.accepts("x"));
        assert!(vpa.accepts("(x)"));
        assert!(vpa.accepts("(((x)))"));
        assert!(!vpa.accepts("(x"));
        assert!(!vpa.accepts("(x))"));
        assert!(!vpa.accepts(""));
    }

    #[test]
    fn builder_rejects_wrong_kinds() {
        let tagging = Tagging::from_pairs([('(', ')')]).unwrap();
        let mut b = VpaBuilder::new(tagging);
        let q0 = b.add_state();
        let g = b.add_stack_symbol();
        assert!(b.call(q0, 'x', q0, g).is_err());
        assert!(b.ret(q0, '(', g, q0).is_err());
        assert!(b.plain(q0, ')', q0).is_err());
    }

    #[test]
    fn builder_rejects_conflicts_and_unknowns() {
        let tagging = Tagging::from_pairs([('(', ')')]).unwrap();
        let mut b = VpaBuilder::new(tagging);
        let q0 = b.add_state();
        let q1 = b.add_state();
        let _g = b.add_stack_symbol();
        b.plain(q0, 'x', q0).unwrap();
        assert!(b.plain(q0, 'x', q1).is_err());
        assert!(b.plain(StateId(9), 'x', q0).is_err());
        assert!(b.call(q0, '(', q0, StackSymId(5)).is_err());
        // Re-adding the identical transition is fine.
        assert!(b.plain(q0, 'x', q0).is_ok());
    }

    #[test]
    fn build_requires_initial_state() {
        let tagging = Tagging::new();
        let mut b = VpaBuilder::new(tagging.clone());
        b.add_state();
        assert!(b.build().is_err());
        let b = VpaBuilder::new(tagging);
        assert!(b.build().is_err());
    }

    #[test]
    fn return_on_empty_stack() {
        let tagging = Tagging::from_pairs([('(', ')')]).unwrap();
        let mut b = VpaBuilder::new(tagging);
        let q0 = b.add_state();
        let q1 = b.add_state();
        b.set_initial(q0);
        b.add_accepting(q1);
        b.ret_on_empty(q0, ')', q1).unwrap();
        let vpa = b.build().unwrap();
        // ")" pops on the empty stack and reaches the accepting state with an
        // empty stack, so it is accepted under the paper's VPA semantics.
        assert!(vpa.accepts(")"));
        assert!(!vpa.accepts("))"));
        assert_eq!(vpa.bottom_return_transitions().collect::<Vec<_>>(), vec![(q0, ')', q1)]);
    }

    /// Paper Fig. 1, `L → a A b L | c d L | ε` and `A → g L h`, tagged
    /// {(a,b)}: `q0`/`q1` read `L` at the top level, `p0`–`p3` inside `a…b`.
    fn fig1_vpa() -> Vpa {
        let mut b = VpaBuilder::new(Tagging::from_pairs([('a', 'b')]).unwrap());
        let [q0, q1, p0, p1, p2, p3] = [(); 6].map(|()| b.add_state());
        b.set_initial(q0);
        b.add_accepting(q0);
        for (from, to) in [(q0, q1), (p1, p2)] {
            b.plain(from, 'c', to).unwrap();
            b.plain(to, 'd', from).unwrap();
        }
        b.plain(p0, 'g', p1).unwrap();
        b.plain(p1, 'h', p3).unwrap();
        for from in [q0, p1] {
            let gamma = b.add_stack_symbol();
            b.call(from, 'a', p0, gamma).unwrap();
            b.ret(p3, 'b', gamma, from).unwrap();
        }
        b.build().unwrap()
    }

    /// `E → a E b | c E d | x`, tagged {(a,b), (c,d)}; with `ret_bottom` a
    /// `d` read on the empty stack after an `E` starts another `E`.
    fn two_pair_vpa(ret_bottom: bool) -> Vpa {
        let mut b = VpaBuilder::new(Tagging::from_pairs([('a', 'b'), ('c', 'd')]).unwrap());
        let [s0, s1] = [(); 2].map(|()| b.add_state());
        b.set_initial(s0);
        b.add_accepting(s1);
        b.plain(s0, 'x', s1).unwrap();
        for (call, ret) in [('a', 'b'), ('c', 'd')] {
            let gamma = b.add_stack_symbol();
            b.call(s0, call, s0, gamma).unwrap();
            b.ret(s1, ret, gamma, s1).unwrap();
        }
        if ret_bottom {
            b.ret_on_empty(s1, 'd', s0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn accepts_tagged_agrees_with_the_trace() {
        let traced = |vpa: &Vpa, tagged: &[TaggedChar]| {
            let trace = vpa.trace_tagged(tagged);
            trace.completed()
                && trace.last().stack.is_empty()
                && vpa.is_accepting(trace.last().state)
        };
        let cases =
            [(fig1_vpa(), "abcdgh"), (two_pair_vpa(false), "abcdx"), (two_pair_vpa(true), "abcdx")];
        for (vpa, alphabet) in &cases {
            let chars: Vec<char> = alphabet.chars().collect();
            let mut accepted = 0;
            for word in crate::words::all_strings(&chars, 7) {
                let tagged = vpa.tagging().tag(&word);
                let accepts = vpa.accepts_tagged(&tagged);
                assert_eq!(accepts, traced(vpa, &tagged), "{word:?}");
                accepted += usize::from(accepts);
            }
            assert!(accepted > 0);
        }
        assert!(cases[0].0.accepts("agcdhbcd") && cases[0].0.accepts("agaghbhb"));
        assert!(!cases[1].0.accepts("xdx") && cases[2].0.accepts("xdx"));
    }

    #[test]
    fn transition_iterators() {
        let vpa = dyck_vpa();
        assert_eq!(vpa.call_transitions().count(), 1);
        assert_eq!(vpa.return_transitions().count(), 1);
        assert_eq!(vpa.plain_transitions().count(), 1);
        assert_eq!(vpa.state_count(), 1);
        assert_eq!(vpa.stack_symbol_count(), 1);
        assert!(vpa.is_accepting(vpa.initial()));
    }
}

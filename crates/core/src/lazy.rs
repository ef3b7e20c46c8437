//! On-the-fly (lazy) D-SFA construction.
//!
//! Section V-A of the paper: "The idea of the on-the-fly construction is to
//! construct DFA during the matching only for the required states … it
//! generates at most n states for input text of length n even if the number
//! of states in DFA explodes. We can easily apply on-the-fly construction
//! to an SFA-based matcher because the correspondence construction is a
//! natural extension of the subset construction."
//!
//! [`LazyDSfa`] does exactly that for the D-SFA: states (transformations)
//! are interned and transition-table rows filled only when the matcher
//! actually reaches them. It is the second implementation of the
//! [`SfaBackend`](crate::SfaBackend) abstraction and offers the same
//! matcher-facing surface as the eager [`DSfa`](crate::DSfa): sink
//! detection for early exit, state-level composition
//! ([`compose_states`](LazyDSfa::compose_states)) for streaming, and an
//! indexed [`state_of`](LazyDSfa::state_of).
//!
//! ## Concurrency
//!
//! The structure is shareable across threads — one cache serves every pool
//! worker. The cache sits behind a read/write lock with a double-checked
//! fast path: [`run_from`](LazyDSfa::run_from) walks as many cached
//! transitions as it can under a **single** read lock (readers never
//! exclude each other, so workers scan concurrently without serializing),
//! and only a cache miss drops to the write lock, re-checking the slot
//! after acquiring it in case another worker filled it in the meantime.
//! A batch of independent jobs ([`run_from_many`](LazyDSfa::run_from_many))
//! walks four of them in lockstep under one read lock the same way: a
//! miss in any lane fills that lane's transition under the write lock,
//! and the four lanes resume together.
//!
//! ## Knobs and limits
//!
//! Unlike the eager construction, the lazy cache enforces **no state
//! limit**: [`SfaConfig::max_states`](crate::SfaConfig::max_states) bounds
//! the *eager* construction precisely because Algorithm 4 must enumerate
//! every reachable transformation up front, while the lazy cache holds one
//! entry per transformation actually *visited* — at most one new state per
//! input byte (plus composition results), so its memory is bounded by the
//! traffic, not by `|S_d|`. [`SfaConfig::premultiply`](crate::SfaConfig)
//! is likewise eager-only: a dense 256-column table over states that may
//! never materialize would defeat the point. See the [`crate`] docs for
//! the knob/backend matrix.
//!
//! ## Table layout: premultiplied, tagged `u32` entries
//!
//! The cache holds one row of [`num_classes`](LazyDSfa::num_classes)
//! entries per materialized state, like the eager class rows, but an
//! entry holds its target's *row offset* (`id × stride`) rather than its
//! id. One step of a walk is then one add and one load,
//! `table[offset + class]`, with no multiply on the dependent chain. This
//! is the layout of regex-automata's lazy DFA. Two high bits tag the
//! entries that a walk must not simply follow:
//!
//! * the *unknown* tag marks a transition that is not computed yet. The
//!   walk drops to the write lock and fills it;
//! * the *sink* tag marks a transition into a [sink](LazyDSfa::is_sink).
//!   A sink maps every class back to itself, so its own row is known when
//!   it is interned and is filled then: every entry points back at the
//!   sink, tagged.
//!
//! [`run_from`](LazyDSfa::run_from) therefore pays one compare per byte
//! for both of its exits: an entry above the largest plain offset is
//! either a miss or the sink it stops on. The lockstep walk of
//! [`run_from_many`](LazyDSfa::run_from_many) tests the unknown tag of
//! its four entries with one branch per step and leaves the lockstep only
//! on a miss. A lane that enters a sink strips the tag and keeps walking
//! the sink's self-loops, which interns nothing.
//!
//! The public API keeps plain [`SfaStateId`]s: a call converts its states
//! to row offsets once on entry and back once on return. Row offsets must
//! stay below the tag bits, under 2^30, so a cache holds at most
//! `2^30 / stride` states. Interning one more panics with "lazy D-SFA
//! cache exceeds its u32 id space" instead of wrapping onto a live row.
//!
//! Entries stay `u32` even where the eager D-SFA packs its ids down to
//! `u8`/`u16` ([`StateIdRepr`](crate::StateIdRepr)). The lazy state count
//! is unknown up front and grows while pool workers hold ids, so a narrow
//! width would have to be repacked under the write lock the moment the
//! cache outgrew it, serializing the workers the read-lock design keeps
//! concurrent. Since the table is bounded by visited traffic rather than
//! `|S_d|`, the width costs little; [`SfaConfig::repr`](crate::SfaConfig)
//! is ignored here.

use crate::dsfa::{RowIndex, SfaStateId, INTERLEAVE_LANES};
use crate::mapping::Transformation;
use sfa_automata::{CompileError, Dfa, PatternSet, StateId};
use std::sync::RwLock;

/// A lazily constructed D-SFA. See the [module docs](self).
#[derive(Debug)]
pub struct LazyDSfa {
    dfa: Dfa,
    /// `loop_states[q]` is true when every transition of DFA state `q`
    /// loops back to `q`. An SFA state is a *sink* (its mapping can never
    /// change again) exactly when every state in its image is such a
    /// self-looping state — precomputing this per-DFA-state bitmap makes
    /// the per-interning sink check `O(|D|)`.
    loop_states: Box<[bool]>,
    inner: RwLock<Inner>,
}

#[derive(Debug, Clone)]
struct Inner {
    /// The state mappings, `|D|` DFA state ids per state: the one copy of
    /// each, found by hash through `index` (about 20 bytes per state),
    /// as in the eager construction.
    maps: Vec<StateId>,
    index: RowIndex,
    /// Row-major like the eager class rows: the entry of state `s` on
    /// class `c` sits at `s × stride + c` and holds the target's row
    /// offset, tagged [`SINK`] when the target is a sink, or [`UNKNOWN`]
    /// while not yet computed (see the [module docs](self)).
    table: Vec<u32>,
    accepting: Vec<bool>,
    sink: Vec<bool>,
}

impl Inner {
    /// The mapping row of state `s` over `d` DFA states.
    fn row(&self, s: SfaStateId, d: usize) -> &[StateId] {
        &self.maps[s as usize * d..][..d]
    }

    /// The materialized state whose mapping row is `row`, if any.
    fn find(&self, row: &[StateId]) -> Option<SfaStateId> {
        self.index.find(self.index.hash(row), |s| self.row(s, row.len()) == row)
    }
}

/// Tag of a table entry whose target is not computed yet.
const UNKNOWN: u32 = 1 << 31;
/// Tag of a table entry whose target is a sink.
const SINK: u32 = 1 << 30;
/// The largest row offset an entry can hold: every bit below the tags.
const MAX_OFFSET: u32 = SINK - 1;
const POISONED: &str = "lazy D-SFA lock poisoned";

/// The row offset of state `id` in a table of `stride`-entry rows.
///
/// # Panics
///
/// With "lazy D-SFA cache exceeds its u32 id space" when the offset does
/// not fit below the tag bits.
fn row_offset(id: usize, stride: usize) -> u32 {
    match id.checked_mul(stride) {
        Some(offset) if offset <= MAX_OFFSET as usize => offset as u32,
        _ => panic!(
            "lazy D-SFA cache exceeds its u32 id space: state {id} of {stride} classes would \
             start past row offset {MAX_OFFSET}"
        ),
    }
}

impl Clone for LazyDSfa {
    fn clone(&self) -> LazyDSfa {
        LazyDSfa {
            dfa: self.dfa.clone(),
            loop_states: self.loop_states.clone(),
            inner: RwLock::new(self.inner.read().expect(POISONED).clone()),
        }
    }
}

impl LazyDSfa {
    /// Creates a lazy D-SFA over the given DFA. Only the identity state is
    /// materialized up front.
    pub fn new(dfa: Dfa) -> LazyDSfa {
        let n = dfa.num_states();
        let stride = dfa.num_classes();
        let loop_states: Box<[bool]> = (0..n as StateId)
            .map(|q| (0..stride as u16).all(|c| dfa.next_by_class(q, c) == q))
            .collect();
        let inner = Inner {
            maps: Vec::new(),
            index: RowIndex::default(),
            table: Vec::new(),
            accepting: Vec::new(),
            sink: Vec::new(),
        };
        let lazy = LazyDSfa { dfa, loop_states, inner: RwLock::new(inner) };
        let identity: Vec<StateId> = (0..n as StateId).collect();
        let initial = lazy.intern_locked(&mut lazy.inner.write().expect(POISONED), &identity);
        debug_assert_eq!(initial, lazy.initial());
        lazy
    }

    /// Convenience: pattern → minimal DFA → lazy D-SFA.
    pub fn from_pattern(pattern: &str) -> Result<LazyDSfa, CompileError> {
        let dfa = sfa_automata::minimal_dfa_from_pattern(pattern)?;
        Ok(LazyDSfa::new(dfa))
    }

    /// The underlying DFA.
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// The initial (identity) state.
    #[inline]
    pub fn initial(&self) -> SfaStateId {
        0
    }

    /// Number of SFA states materialized so far (the lazy analogue of
    /// [`DSfa::num_states`](crate::DSfa::num_states) — a lower bound on
    /// `|S_d|` that grows as inputs visit new transformations).
    pub fn num_states_constructed(&self) -> usize {
        self.inner.read().expect(POISONED).accepting.len()
    }

    /// Number of states of the source DFA.
    #[inline]
    pub fn num_dfa_states(&self) -> usize {
        self.dfa.num_states()
    }

    /// Number of byte classes (row width of the transition table).
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.dfa.num_classes()
    }

    /// The start state of the source DFA.
    #[inline]
    pub fn dfa_start(&self) -> StateId {
        self.dfa.start()
    }

    /// Returns true if the DFA state is accepting (used by reductions).
    #[inline]
    pub fn dfa_is_accepting(&self, q: StateId) -> bool {
        self.dfa.is_accepting(q)
    }

    /// Number of original patterns compiled into the source DFA.
    #[inline]
    pub fn pattern_count(&self) -> usize {
        self.dfa.pattern_count()
    }

    /// The set of patterns a source-DFA state accepts (no lock needed —
    /// the accept sets live on the DFA, outside the cache).
    #[inline]
    pub fn dfa_accepting_patterns(&self, q: StateId) -> &PatternSet {
        self.dfa.accept_set(q)
    }

    /// The set of patterns matched when the whole input lands in `state`:
    /// the accept set of `f(q_0)`. Takes the read lock to apply the
    /// cached mapping, then indexes the DFA's interned accept sets.
    pub fn accepting_patterns(&self, state: SfaStateId) -> &PatternSet {
        let q = self.apply(state, self.dfa.start());
        self.dfa.accept_set(q)
    }

    /// Returns true if the given state is accepting.
    pub fn is_accepting(&self, state: SfaStateId) -> bool {
        self.inner.read().expect(POISONED).accepting[state as usize]
    }

    /// True when the mapping carried by `state` can never change again,
    /// whatever input follows (every state in its image self-loops on
    /// every byte). Matchers stop scanning early on such states.
    pub fn is_sink(&self, state: SfaStateId) -> bool {
        self.inner.read().expect(POISONED).sink[state as usize]
    }

    /// The mapping carried by a state (copied out of the cache).
    pub fn mapping(&self, state: SfaStateId) -> Transformation {
        let inner = self.inner.read().expect(POISONED);
        Transformation::from_vec(inner.row(state, self.num_dfa_states()).to_vec())
    }

    /// Applies the mapping of `state` to a single DFA state — the
    /// `f(q)` lookup of the sequential reduction, without copying the
    /// mapping out of the cache.
    pub fn apply(&self, state: SfaStateId, q: StateId) -> StateId {
        self.inner.read().expect(POISONED).row(state, self.num_dfa_states())[q as usize]
    }

    /// Looks up the state id of an already-materialized transformation:
    /// one hash lookup in the interning index.
    pub fn state_of(&self, mapping: &Transformation) -> Option<SfaStateId> {
        if mapping.degree() != self.num_dfa_states() {
            return None;
        }
        self.inner.read().expect(POISONED).find(mapping.as_slice())
    }

    /// Interns a mapping row, materializing a new state if the cache has
    /// not seen it yet. Must be called with the write lock held. A new
    /// sink gets its row filled at once; every other new row starts
    /// unknown.
    fn intern_locked(&self, inner: &mut Inner, row: &[StateId]) -> SfaStateId {
        let hash = inner.index.hash(row);
        if let Some(id) = inner.index.find(hash, |s| inner.row(s, row.len()) == row) {
            return id;
        }
        let stride = self.dfa.num_classes();
        let id = inner.accepting.len();
        let offset = row_offset(id, stride);
        let sink = row.iter().all(|&q| self.loop_states[q as usize]);
        inner.index.insert(hash, id as SfaStateId);
        inner.maps.extend_from_slice(row);
        inner.accepting.push(self.dfa.is_accepting(row[self.dfa.start() as usize]));
        inner.sink.push(sink);
        let entry = if sink { offset | SINK } else { UNKNOWN };
        inner.table.extend(std::iter::repeat_n(entry, stride));
        id as SfaStateId
    }

    /// Computes the transition at table index `idx` (a row offset plus a
    /// class) under the write lock and returns its tagged entry. The slot
    /// is re-checked first: another thread may have filled it while this
    /// one waited for the lock.
    fn fill(&self, idx: usize) -> u32 {
        let stride = self.dfa.num_classes();
        let mut inner = self.inner.write().expect(POISONED);
        let cached = inner.table[idx];
        if cached & UNKNOWN == 0 {
            return cached;
        }
        let (state, class) = ((idx / stride) as SfaStateId, (idx % stride) as u16);
        let next: Vec<StateId> = inner
            .row(state, self.num_dfa_states())
            .iter()
            .map(|&q| self.dfa.next_by_class(q, class))
            .collect();
        let next_id = self.intern_locked(&mut inner, &next);
        let tag = if inner.sink[next_id as usize] { SINK } else { 0 };
        let entry = row_offset(next_id as usize, stride) | tag;
        inner.table[idx] = entry;
        entry
    }

    /// Transition on a byte, constructing the target state on demand.
    pub fn next_state(&self, state: SfaStateId, byte: u8) -> SfaStateId {
        self.next_by_class(state, self.dfa.classes().class_of(byte))
    }

    /// Transition on a byte class, constructing the target state on
    /// demand. The cached case takes only the read lock; a miss drops to
    /// the write lock and re-checks the slot (another thread may have
    /// filled it while we waited).
    pub fn next_by_class(&self, state: SfaStateId, class: u16) -> SfaStateId {
        let stride = self.dfa.num_classes();
        let idx = state as usize * stride + class as usize;
        let cached = self.inner.read().expect(POISONED).table[idx];
        let entry = if cached & UNKNOWN == 0 { cached } else { self.fill(idx) };
        ((entry & MAX_OFFSET) as usize / stride) as SfaStateId
    }

    /// Runs the lazy SFA over an input from the identity state.
    pub fn run(&self, input: &[u8]) -> SfaStateId {
        self.run_from(self.initial(), input)
    }

    /// Runs the lazy SFA over `input` from an arbitrary state (the chunk
    /// phase of Algorithm 5, per worker).
    ///
    /// The hot loop walks every already-cached transition under a single
    /// read lock — concurrent workers share the cache without excluding
    /// each other — and exits early on a [sink](LazyDSfa::is_sink). Both
    /// exits cost one compare per byte, on the entry's tag bits. Only a
    /// cache miss releases the read lock and constructs the missing state
    /// under the write lock before resuming the walk.
    pub fn run_from(&self, state: SfaStateId, input: &[u8]) -> SfaStateId {
        let stride = self.dfa.num_classes();
        (self.walk(state as usize * stride, input) / stride) as SfaStateId
    }

    /// The walk behind [`run_from`](LazyDSfa::run_from), over row offsets:
    /// returns the row offset `input` ends on from row offset `f`, or the
    /// sink it reaches first.
    fn walk(&self, mut f: usize, input: &[u8]) -> usize {
        let classes = self.dfa.classes();
        let mut i = 0;
        loop {
            let tagged = {
                let inner = self.inner.read().expect(POISONED);
                loop {
                    let Some(&byte) = input.get(i) else { return f };
                    let entry = inner.table[f + classes.class_of(byte) as usize];
                    if entry > MAX_OFFSET {
                        break entry;
                    }
                    f = entry as usize;
                    i += 1;
                }
            };
            let entry = if tagged & UNKNOWN == 0 {
                tagged
            } else {
                self.fill(f + classes.class_of(input[i]) as usize)
            };
            if entry & SINK != 0 {
                return (entry & MAX_OFFSET) as usize;
            }
            f = entry as usize;
            i += 1;
        }
    }

    /// Runs several independent `(state, input)` jobs, walking
    /// [`INTERLEAVE_LANES`] of them in lockstep, and returns their end
    /// states in job order — each equal to `run_from(state, input)`.
    ///
    /// Each group of four walks its common prefix length under one read
    /// lock, so a warm cache serves the whole group with one lock
    /// acquisition and four independent lookup chains in flight, as the
    /// eager [`DSfa::run_from_many`](crate::DSfa::run_from_many) does. At
    /// the first position where some lane's transition is not cached yet,
    /// the walk drops the read lock, fills that one transition under the
    /// write lock and resumes at the same position. There is no per-byte
    /// sink exit: a sink's row maps every class back to itself, so a lane
    /// on a sink keeps walking in place and interns nothing. Each tail
    /// then finishes through the walk behind
    /// [`run_from`](LazyDSfa::run_from), which keeps the sink exit. A lane
    /// therefore materializes exactly the states its own `run_from` would:
    /// the lockstep changes the order states are interned in (and so their
    /// ids), never which ones.
    pub fn run_from_many(&self, jobs: &[(SfaStateId, &[u8])]) -> Vec<SfaStateId> {
        let stride = self.dfa.num_classes();
        let classes = self.dfa.classes();
        let mut out = Vec::with_capacity(jobs.len());
        let mut groups = jobs.chunks_exact(INTERLEAVE_LANES);
        for group in groups.by_ref() {
            let mut f: [usize; INTERLEAVE_LANES] =
                std::array::from_fn(|lane| group[lane].0 as usize * stride);
            let inputs = [group[0].1, group[1].1, group[2].1, group[3].1];
            let common = inputs.iter().map(|s| s.len()).min().unwrap_or(0);
            let mut at = 0;
            while at < common {
                if let Some(lane) = self.walk_lanes(&mut f, &inputs, &mut at, common) {
                    self.fill(f[lane] + classes.class_of(inputs[lane][at]) as usize);
                }
            }
            for (lane, input) in inputs.iter().enumerate() {
                out.push((self.walk(f[lane], &input[at..]) / stride) as SfaStateId);
            }
        }
        out.extend(groups.remainder().iter().map(|&(s, input)| self.run_from(s, input)));
        out
    }

    /// The lockstep hot loop of [`run_from_many`](LazyDSfa::run_from_many):
    /// advances all four lanes (row offsets) from position `*at` towards
    /// `common` under one read lock. Returns the first lane whose next
    /// transition is not cached, with `*at` left on the byte it misses (no
    /// lane has taken it), or `None` once every lane has walked to
    /// `common`.
    fn walk_lanes(
        &self,
        f: &mut [usize; INTERLEAVE_LANES],
        inputs: &[&[u8]; INTERLEAVE_LANES],
        at: &mut usize,
        common: usize,
    ) -> Option<usize> {
        let classes = self.dfa.classes();
        let inner = self.inner.read().expect(POISONED);
        let table = &inner.table[..];
        let (a, b) = (&inputs[0][..common], &inputs[1][..common]);
        let (c, d) = (&inputs[2][..common], &inputs[3][..common]);
        let step = |f: usize, byte: u8| table[f + classes.class_of(byte) as usize];
        for i in *at..common {
            let next = [step(f[0], a[i]), step(f[1], b[i]), step(f[2], c[i]), step(f[3], d[i])];
            if (next[0] | next[1] | next[2] | next[3]) & UNKNOWN != 0 {
                *at = i;
                return next.iter().position(|&n| n & UNKNOWN != 0);
            }
            *f = next.map(|n| (n & MAX_OFFSET) as usize);
        }
        *at = common;
        None
    }

    /// Whole-input membership.
    pub fn accepts(&self, input: &[u8]) -> bool {
        self.is_accepting(self.run(input))
    }

    /// Composes two SFA states *as states*: the state whose mapping is
    /// `f_w ⋄ f_v` when `a = f_w` and `b = f_v` (Lemma 1) — what lets a
    /// streaming matcher fold per-block chunk states into its running
    /// state.
    ///
    /// The composite transformation is always *reachable* (it is the
    /// mapping of the concatenated word), but the lazy cache may not have
    /// visited it yet, so — unlike the eager
    /// [`DSfa::compose_states`](crate::DSfa::compose_states), which only
    /// looks the result up — this interns the composite, materializing a
    /// new state when needed. Identity on either side and a sink on the
    /// left resolve without composing.
    pub fn compose_states(&self, a: SfaStateId, b: SfaStateId) -> SfaStateId {
        if a == self.initial() {
            return b;
        }
        if b == self.initial() {
            return a;
        }
        let d = self.num_dfa_states();
        let composed = {
            let inner = self.inner.read().expect(POISONED);
            if inner.sink[a as usize] {
                return a;
            }
            let fb = inner.row(b, d);
            let composed: Vec<StateId> = inner.row(a, d).iter().map(|&q| fb[q as usize]).collect();
            if let Some(id) = inner.find(&composed) {
                return id;
            }
            composed
        };
        let mut inner = self.inner.write().expect(POISONED);
        self.intern_locked(&mut inner, &composed)
    }

    /// Bytes occupied by the materialized (class-compressed) transition
    /// table rows.
    pub fn table_bytes(&self) -> usize {
        self.inner.read().expect(POISONED).table.len() * std::mem::size_of::<u32>()
    }

    /// Bytes occupied by the materialized state mappings (each held
    /// once).
    pub fn mapping_bytes(&self) -> usize {
        self.inner.read().expect(POISONED).maps.len() * std::mem::size_of::<StateId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsfa::DSfa;
    use proptest::prelude::*;

    #[test]
    fn lazy_matches_eager_semantics() {
        let eager = DSfa::from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        let lazy = LazyDSfa::from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        for input in [&b""[..], b"0055", b"00550459", b"005", b"5500", b"xyz"] {
            assert_eq!(eager.accepts(input), lazy.accepts(input), "{:?}", input);
        }
    }

    #[test]
    fn lazy_materializes_only_visited_states() {
        // Paper, Sect. V-A: at most one new state per input byte.
        let lazy = LazyDSfa::from_pattern("([0-4]{5}[5-9]{5})*").unwrap();
        assert_eq!(lazy.num_states_constructed(), 1);
        let input = b"0000055555";
        lazy.run(input);
        assert!(lazy.num_states_constructed() <= 1 + input.len());
        // The eager SFA for this pattern has 110 states; a short input must
        // touch far fewer.
        assert!(lazy.num_states_constructed() < 30);
    }

    #[test]
    fn each_mapping_is_held_once_and_indexed() {
        let lazy = LazyDSfa::from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        lazy.run(b"00550459xx");
        let (n, d) = (lazy.num_states_constructed(), lazy.num_dfa_states());
        assert!(n > 3);
        assert_eq!(lazy.mapping_bytes(), n * d * std::mem::size_of::<StateId>());
        for s in 0..n as SfaStateId {
            assert_eq!(lazy.state_of(&lazy.mapping(s)), Some(s));
        }
        assert_eq!(lazy.state_of(&Transformation::identity(d + 1)), None);
    }

    #[test]
    fn lazy_state_cache_is_reused_across_runs() {
        let lazy = LazyDSfa::from_pattern("(ab)*").unwrap();
        lazy.run(b"abababab");
        let after_first = lazy.num_states_constructed();
        lazy.run(b"abababababab");
        assert_eq!(lazy.num_states_constructed(), after_first, "no new states needed");
        // The full SFA has 6 states; the accepted-input walk touches 3
        // (identity, f_a, f_ab).
        assert_eq!(after_first, 3);
    }

    #[test]
    fn full_materialization_equals_eager_state_count() {
        // Driving every transition of every materialized state to a
        // fixpoint reconstructs exactly the eager SFA: the lazy cache
        // never invents states and never misses reachable ones.
        let eager = DSfa::from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        let lazy = LazyDSfa::from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        let mut done = 0;
        while done < lazy.num_states_constructed() {
            let state = done as SfaStateId;
            for class in 0..lazy.num_classes() as u16 {
                lazy.next_by_class(state, class);
            }
            done += 1;
        }
        assert_eq!(lazy.num_states_constructed(), eager.num_states());
        for s in 0..eager.num_states() as SfaStateId {
            // Same mapping set; ids may differ, so compare via the index.
            assert!(lazy.state_of(&eager.mapping(s)).is_some());
        }
    }

    #[test]
    fn sink_detection_matches_eager() {
        for pattern in ["(ab)*", "([0-4]{2}[5-9]{2})*", "(?s).*", "a|bc"] {
            let eager = DSfa::from_pattern(pattern).unwrap();
            let lazy = LazyDSfa::from_pattern(pattern).unwrap();
            for input in [&b""[..], b"ab", b"aa", b"abab", b"0055", b"zzzz", b"bc"] {
                let fe = eager.run(input);
                let fl = lazy.run(input);
                assert_eq!(
                    eager.is_sink(fe),
                    lazy.is_sink(fl),
                    "pattern {:?} input {:?}",
                    pattern,
                    input
                );
                assert_eq!(eager.is_accepting(fe), lazy.is_accepting(fl));
            }
        }
    }

    #[test]
    fn run_from_sink_early_exit_is_correct() {
        // After the synchronizing word "aa", (ab)* is dead; a long tail
        // must not materialize anything new and must keep the verdict.
        let lazy = LazyDSfa::from_pattern("(ab)*").unwrap();
        let dead = lazy.run(b"aa");
        assert!(lazy.is_sink(dead));
        let before = lazy.num_states_constructed();
        let long = b"a".repeat(100_000);
        assert_eq!(lazy.run_from(dead, &long), dead);
        assert_eq!(lazy.num_states_constructed(), before);
        assert!(!lazy.accepts(&long[..]));
    }

    #[test]
    fn compose_states_matches_concatenated_run() {
        // State-level Lemma 1 on the lazy backend: composing the states of
        // two words gives the state of the concatenation, interning the
        // composite when the cache has not visited it yet.
        let lazy = LazyDSfa::from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        let words: [&[u8]; 5] = [b"", b"0456", b"0055044", b"9", b"005504590055"];
        for w1 in words {
            for w2 in words {
                let f1 = lazy.run(w1);
                let f2 = lazy.run(w2);
                let mut whole = w1.to_vec();
                whole.extend_from_slice(w2);
                assert_eq!(lazy.compose_states(f1, f2), lazy.run(&whole), "{:?}+{:?}", w1, w2);
            }
        }
    }

    #[test]
    fn compose_states_shortcuts_identity_and_sink() {
        let lazy = LazyDSfa::from_pattern("(ab)*").unwrap();
        let id = lazy.initial();
        let f = lazy.run(b"ab");
        let dead = lazy.run(b"aa");
        assert!(lazy.is_sink(dead));
        assert_eq!(lazy.compose_states(id, f), f);
        assert_eq!(lazy.compose_states(f, id), f);
        for g in 0..lazy.num_states_constructed() as SfaStateId {
            assert_eq!(lazy.compose_states(dead, g), dead);
        }
    }

    #[test]
    fn accepting_patterns_agree_with_eager() {
        use sfa_automata::{determinize, minimize, DfaConfig, Nfa};
        let nfa = Nfa::from_patterns(["(ab)*", "a+", "[ab]{2}"]).unwrap();
        let dfa = minimize(&determinize(&nfa, &DfaConfig::default()).unwrap());
        let eager = DSfa::from_dfa(&dfa, &crate::SfaConfig::default()).unwrap();
        let lazy = LazyDSfa::new(dfa);
        assert_eq!(lazy.pattern_count(), 3);
        for input in [&b""[..], b"a", b"ab", b"aa", b"abab", b"ba", b"zz"] {
            let fe = eager.run(input);
            let fl = lazy.run(input);
            assert_eq!(
                eager.accepting_patterns(fe),
                lazy.accepting_patterns(fl),
                "input {:?}",
                input
            );
        }
    }

    #[test]
    fn apply_matches_mapping_apply() {
        let lazy = LazyDSfa::from_pattern("(a|b)*abb").unwrap();
        let f = lazy.run(b"aab");
        for q in 0..lazy.num_dfa_states() as StateId {
            assert_eq!(lazy.apply(f, q), lazy.mapping(f).apply(q));
        }
    }

    #[test]
    fn clone_snapshots_the_cache() {
        let lazy = LazyDSfa::from_pattern("(ab)*").unwrap();
        lazy.run(b"abab");
        let snap = lazy.clone();
        assert_eq!(snap.num_states_constructed(), lazy.num_states_constructed());
        // Diverging after the clone leaves the snapshot untouched.
        lazy.run(b"aa");
        assert!(lazy.num_states_constructed() > snap.num_states_constructed());
        assert!(snap.accepts(b"ab"));
    }

    #[test]
    fn lazy_is_shareable_across_threads() {
        let lazy = LazyDSfa::from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        let eager = DSfa::from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let lazy = &lazy;
                let eager = &eager;
                scope.spawn(move || {
                    let input = if t % 2 == 0 { &b"00550459"[..] } else { &b"0055045"[..] };
                    for _ in 0..50 {
                        assert_eq!(lazy.accepts(input), eager.accepts(input));
                    }
                });
            }
        });
        // Never more states than the eager construction.
        assert!(lazy.num_states_constructed() <= eager.num_states());
    }

    #[test]
    #[should_panic(expected = "lazy D-SFA cache exceeds its u32 id space")]
    fn row_offsets_stop_at_the_tag_bits() {
        // The last state whose row starts at or below the tag bits fits;
        // the next one stops with the documented message.
        let stride = 73;
        let last = MAX_OFFSET as usize / stride;
        assert_eq!(row_offset(last, stride) as usize, last * stride);
        assert!(row_offset(last, stride) + stride as u32 > MAX_OFFSET);
        row_offset(last + 1, stride);
    }

    #[test]
    fn sink_rows_are_filled_when_interned() {
        // A sink maps every class to itself, so its row never misses and
        // every entry carries the sink tag.
        let lazy = LazyDSfa::from_pattern("(ab)*").unwrap();
        let dead = lazy.run(b"aa");
        assert!(lazy.is_sink(dead));
        let stride = lazy.num_classes();
        let inner = lazy.inner.read().unwrap();
        let row = &inner.table[dead as usize * stride..][..stride];
        assert!(row.iter().all(|&e| e == row_offset(dead as usize, stride) | SINK));
    }

    /// The minimal DFA of a generated pattern over `a`–`d`, or `None`
    /// when it busts a small state budget.
    fn generated_dfa(seed: u64) -> Option<Dfa> {
        use rand::{rngs::StdRng, SeedableRng};
        use sfa_automata::{determinize, minimize, DfaConfig, Nfa};
        use sfa_regex_syntax::generator::{AstGenerator, GeneratorConfig};
        let generator = AstGenerator::with_config(GeneratorConfig {
            max_depth: 3,
            max_width: 3,
            max_repeat: 3,
            alphabet: sfa_regex_syntax::ByteSet::range(b'a', b'd'),
            repeat_bias: 0.35,
        });
        let nfa = Nfa::from_ast(&generator.generate(&mut StdRng::seed_from_u64(seed))).ok()?;
        let dfa = determinize(&nfa, &DfaConfig { max_states: 300, ..Default::default() }).ok()?;
        Some(minimize(&dfa))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `run_from_many` on a cold cache ends every job where a one-lane
        /// `run_from` on a second cold cache ends it, and both caches end
        /// with the same number of states: the lockstep walk materializes
        /// nothing the one-lane walks would not. Where the eager D-SFA of
        /// the same DFA fits a small cap, every end state also carries the
        /// eager end state's mapping, sink flag and verdict. The jobs are
        /// ragged and start from arbitrary materialized states. Job 4 is
        /// empty, in the second group or the remainder. Job 1 steps out of
        /// the pattern's alphabet (`z`) at `sink_at`, inside the first
        /// group's common prefix, so its lane enters the all-dead sink and
        /// keeps walking in lockstep.
        #[test]
        fn lockstep_on_a_cold_cache_matches_one_lane_runs(
            seed in any::<u64>(),
            warm in prop::collection::vec("[a-d]{0,8}", 0..4),
            jobs in prop::collection::vec((any::<prop::sample::Index>(), "[a-dz]{1,40}"), 5..14),
            sink_at in any::<prop::sample::Index>(),
        ) {
            let Some(dfa) = generated_dfa(seed) else { return Ok(()) };
            let eager =
                DSfa::from_dfa(&dfa, &crate::SfaConfig { max_states: 4_096, ..Default::default() })
                    .ok();
            let (many, one) = (LazyDSfa::new(dfa.clone()), LazyDSfa::new(dfa));
            // Identical warm-ups give both caches the same states and ids.
            for word in &warm {
                many.run(word.as_bytes());
                one.run(word.as_bytes());
            }
            let warmed = many.num_states_constructed();
            prop_assert_eq!(one.num_states_constructed(), warmed);
            let mut inputs: Vec<Vec<u8>> = jobs.iter().map(|(_, s)| s.clone().into_bytes()).collect();
            inputs[4].clear();
            let common = inputs[..INTERLEAVE_LANES].iter().map(Vec::len).min().unwrap();
            inputs[1].insert(sink_at.index(common), b'z');
            let batch: Vec<(SfaStateId, &[u8])> = jobs
                .iter()
                .zip(&inputs)
                .map(|((start, _), input)| (start.index(warmed) as SfaStateId, &input[..]))
                .collect();
            let ends = many.run_from_many(&batch);
            prop_assert!(many.is_sink(ends[1]));
            for (&(start, input), &end) in batch.iter().zip(&ends) {
                prop_assert_eq!(many.mapping(end), one.mapping(one.run_from(start, input)));
                if let Some(eager) = &eager {
                    let from = eager.state_of(&many.mapping(start)).expect("lazy states are reachable");
                    let to = eager.run_from(from, input);
                    prop_assert_eq!(many.mapping(end), eager.mapping(to));
                    prop_assert_eq!(many.is_sink(end), eager.is_sink(to));
                    prop_assert_eq!(many.is_accepting(end), eager.is_accepting(to));
                }
            }
            prop_assert_eq!(many.num_states_constructed(), one.num_states_constructed());
        }
    }
}

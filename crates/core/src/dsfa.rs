//! D-SFA: the simultaneous finite automaton constructed from a DFA
//! (Definition 5 + Algorithm 4 of the paper, specialized to deterministic
//! input as described in Section V-A).
//!
//! Each D-SFA state is a [`Transformation`] of the DFA state set: the state
//! reached after reading a word `w` is the mapping `q ↦ δ̂(q, w)`, i.e. the
//! simultaneous simulation of the DFA from *every* start state. The D-SFA
//! itself is an ordinary DFA over the same byte classes, so matching costs
//! exactly one table lookup per input byte — that is the whole point of the
//! model: the speculative simulation of Algorithm 3 has been evaluated at
//! construction time instead of at match time.

use crate::mapping::Transformation;
#[cfg(feature = "simd")]
use crate::simd;
use crate::table::{extend_ids, ids, read_repr, ArtifactTables, PackedId, RawTables, TableBuf};
use crate::SfaConfig;
use sfa_automata::{ByteClasses, CompileError, Dfa, PatternSet, StateId};
use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::ops::Range;
use std::sync::OnceLock;

/// Identifier of an SFA state.
///
/// This is the *interface* width: every public API hands ids around as
/// `u32` regardless of how the transition tables store them internally
/// (see [`StateIdRepr`]), so callers never churn when an automaton packs
/// down to `u8`/`u16` rows.
pub type SfaStateId = u32;

/// Physical width of the state ids stored in the eager D-SFA transition
/// tables.
///
/// The automaton picks the narrowest width that fits `|S_d|`
/// ([`StateIdRepr::for_states`]): a 2 000-state shard's premultiplied
/// rows shrink 2× (`u16`), a 250-state one 4× (`u8`), which is the
/// difference between a working set that blows L2 and one that sits in
/// L1. The public API stays [`SfaStateId`] (`u32`) at the boundary; the
/// width only changes what the tables *store* and which monomorphized
/// scan loop runs. [`SfaConfig::repr`] can force a wider width (for
/// baseline measurements); a narrower override is widened automatically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StateIdRepr {
    /// One byte per id — automata with at most 256 states.
    U8,
    /// Two bytes per id — automata with at most 65 536 states.
    U16,
    /// Four bytes per id — unbounded (the public [`SfaStateId`] width).
    U32,
}

impl StateIdRepr {
    /// Bytes occupied by one stored state id.
    pub const fn bytes(self) -> usize {
        match self {
            StateIdRepr::U8 => 1,
            StateIdRepr::U16 => 2,
            StateIdRepr::U32 => 4,
        }
    }

    /// Largest state count this width can address (ids are `0..n`).
    pub const fn max_states(self) -> usize {
        match self {
            StateIdRepr::U8 => 1 << 8,
            StateIdRepr::U16 => 1 << 16,
            StateIdRepr::U32 => usize::MAX,
        }
    }

    /// The narrowest width that fits `n` states: `U8` through 256 states
    /// (ids 0–255), `U16` through 65 536, `U32` beyond.
    pub fn for_states(n: usize) -> StateIdRepr {
        if n <= StateIdRepr::U8.max_states() {
            StateIdRepr::U8
        } else if n <= StateIdRepr::U16.max_states() {
            StateIdRepr::U16
        } else {
            StateIdRepr::U32
        }
    }

    /// The width's name (`"u8"` / `"u16"` / `"u32"`), used in benchmark
    /// summaries.
    pub fn as_str(self) -> &'static str {
        match self {
            StateIdRepr::U8 => "u8",
            StateIdRepr::U16 => "u16",
            StateIdRepr::U32 => "u32",
        }
    }
}

impl std::fmt::Display for StateIdRepr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How many DFA states [`DSfa::states_lower_bound`] follows.
pub const BOUND_PROBES: usize = 32;

/// Number of independent inputs [`DSfa::run_from_many`] walks in lockstep.
///
/// Four dependent table loads in flight cover typical L2 latency without
/// spilling the lane states out of registers.
pub const INTERLEAVE_LANES: usize = 4;

/// The premultiplied hot loop over one packed width: one dense lookup per
/// byte, sink bitmap consulted only on state change (see
/// [`DSfa::run_from`]).
#[inline]
fn scan_dense<T: PackedId>(
    table: &[T],
    sink: &[bool],
    state: SfaStateId,
    input: &[u8],
) -> SfaStateId {
    let mut f = state;
    for &b in input {
        let next = table[f as usize * 256 + b as usize].unpack();
        if next != f {
            f = next;
            if sink[f as usize] {
                return f;
            }
        }
    }
    f
}

/// The class-compressed fallback loop over one packed width (no
/// premultiplied table: one `class_of` indirection plus one row lookup
/// per byte).
#[inline]
fn scan_classes<T: PackedId>(
    table: &[T],
    classes: &ByteClasses,
    stride: usize,
    sink: &[bool],
    state: SfaStateId,
    input: &[u8],
) -> SfaStateId {
    let mut f = state;
    for &b in input {
        let next = table[f as usize * stride + classes.class_of(b) as usize].unpack();
        if next != f {
            f = next;
            if sink[f as usize] {
                return f;
            }
        }
    }
    f
}

/// The interleaved hot loop: walks [`INTERLEAVE_LANES`] independent
/// inputs in lockstep over their common prefix length. Each iteration
/// issues four *independent* dependent-load chains, hiding table-load
/// latency the single-lane loop exposes. No per-byte sink branch: a sink
/// self-loops on every byte, so walking it is harmless, and the caller
/// finishes the tails through [`DSfa::run_from`] (which early-exits).
#[inline]
fn scan_dense_lanes<T: PackedId>(
    table: &[T],
    f: &mut [SfaStateId; INTERLEAVE_LANES],
    inputs: &[&[u8]; INTERLEAVE_LANES],
    common: usize,
) {
    let a = &inputs[0][..common];
    let b = &inputs[1][..common];
    let c = &inputs[2][..common];
    let d = &inputs[3][..common];
    for ((&b0, &b1), (&b2, &b3)) in a.iter().zip(b).zip(c.iter().zip(d)) {
        f[0] = table[f[0] as usize * 256 + b0 as usize].unpack();
        f[1] = table[f[1] as usize * 256 + b1 as usize].unpack();
        f[2] = table[f[2] as usize * 256 + b2 as usize].unpack();
        f[3] = table[f[3] as usize * 256 + b3 as usize].unpack();
    }
}

/// Mapping rows by hash: the interning index of [`DSfa::from_dfa`],
/// [`DSfa::states_lower_bound`] and the lazy cache, and the index behind
/// [`DSfa::state_of`]. The rows themselves stay in their owner's table.
/// Rows are hashed with a randomly keyed SipHash, like any `HashMap` key,
/// so patterns cannot be crafted to make rows collide; the map then uses
/// that hash as is. A hit is confirmed by comparing the stored row, so a
/// collision costs a comparison, never a wrong state.
#[derive(Clone, Debug, Default)]
pub(crate) struct RowIndex {
    hasher: RandomState,
    first: HashMap<u64, SfaStateId, BuildHasherDefault<KeyIsHash>>,
    /// States whose row hash was already taken by a different row.
    collided: Vec<SfaStateId>,
}

/// The hasher of [`RowIndex`]'s map, whose `u64` keys are hashes already.
#[derive(Default)]
struct KeyIsHash(u64);

impl Hasher for KeyIsHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("RowIndex keys are u64 hashes")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

impl RowIndex {
    /// The hash a row is indexed under.
    pub(crate) fn hash<T: Hash + ?Sized>(&self, row: &T) -> u64 {
        self.hasher.hash_one(row)
    }

    /// The indexed state whose row hashes to `hash` and is `same`.
    pub(crate) fn find(&self, hash: u64, same: impl Fn(SfaStateId) -> bool) -> Option<SfaStateId> {
        let hit = *self.first.get(&hash)?;
        if same(hit) {
            Some(hit)
        } else {
            self.collided.iter().copied().find(|&s| same(s))
        }
    }

    /// Indexes state `s`, whose row hashes to `hash`.
    pub(crate) fn insert(&mut self, hash: u64, s: SfaStateId) {
        match self.first.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(s);
            }
            Entry::Occupied(_) => self.collided.push(s),
        }
    }
}

/// A simultaneous finite automaton built from a DFA.
///
/// The transition tables and state mappings live in one byte buffer in
/// the layout described in [`crate::table`]. [`from_dfa`](DSfa::from_dfa)
/// builds and owns that buffer; [`from_artifact`](DSfa::from_artifact)
/// borrows it zero-copy from a serialized artifact (typically an mmap).
/// Either way the automaton is the same type with the same scan loops and
/// SIMD kernel. Small derived state — the sink and accepting bitmaps and
/// the source DFA's accept sets — is always owned.
#[derive(Clone, Debug)]
pub struct DSfa {
    classes: ByteClasses,
    stride: usize,
    /// The packed width both transition tables store ids at (never
    /// narrower than `|S_d|` requires; see [`StateIdRepr`]).
    repr: StateIdRepr,
    num_states: usize,
    /// The buffer all three tables below index into.
    buf: TableBuf,
    /// The class-compressed rows: `|S_d| × stride` ids.
    table: Range<usize>,
    /// Premultiplied dense `256 × |S_d|` byte→state table (row `s` holds
    /// the successor of `s` for every raw byte value), built when
    /// [`SfaConfig::premultiply`] is set and the **packed** table fits the
    /// size ceiling. Fuses the `class_of` indirection out of the hot loop.
    byte_table: Option<Range<usize>>,
    /// The state mappings: `|S_d| × |D|` `u32` DFA state ids.
    mappings: Range<usize>,
    /// `sink[s]` is true when every transition of `s` loops back to `s` —
    /// once reached, the mapping can never change again, so a chunk run may
    /// stop early (the constant/synchronizing-word early exit: the all-dead
    /// mapping is always a sink, and in `Contains` mode so is the
    /// constant-to-accepting mapping).
    sink: Box<[bool]>,
    accepting: Box<[bool]>,
    /// Every state's mapping row by hash — the index behind
    /// [`state_of`](DSfa::state_of) and
    /// [`compose_states`](DSfa::compose_states), built on the first call
    /// that needs it (lane folds and streaming composition do; plain
    /// scans never do). The rows themselves stay in the mapping table,
    /// so the index costs about 20 bytes per state.
    state_index: OnceLock<RowIndex>,
    /// The shuffle kernel for this automaton, built lazily on the first
    /// scan after runtime CPU detection (`None` when only the scalar
    /// loops apply — see [`simd::shuffle_applies`]).
    #[cfg(feature = "simd")]
    simd: OnceLock<Option<simd::ShuffleKernel>>,
    dfa_start: StateId,
    dfa_accepting: Box<[bool]>,
    /// Number of original patterns compiled into the source DFA.
    pattern_count: usize,
    /// Per-DFA-state index into `dfa_accept_sets` (copied from the source
    /// DFA): which patterns each DFA state accepts.
    dfa_accept_index: Box<[u32]>,
    /// The distinct pattern accept sets of the source DFA (entry 0 is the
    /// empty set).
    dfa_accept_sets: Vec<PatternSet>,
}

impl DSfa {
    /// **Algorithm 4 (correspondence construction)** specialized to a
    /// deterministic source automaton.
    ///
    /// Starting from the identity mapping `f_I`, repeatedly extends every
    /// discovered mapping by every byte class:
    /// `f_next(q) = δ(f(q), σ)`. Mappings are interned so each distinct
    /// transformation becomes exactly one SFA state.
    ///
    /// Each new mapping is written once, straight into the automaton's
    /// buffer as its mapping row; the interning index keys a row's hash
    /// to its state and confirms a hit by comparing the stored row, so no
    /// mapping is held twice.
    pub fn from_dfa(dfa: &Dfa, config: &SfaConfig) -> Result<DSfa, CompileError> {
        let (d, stride) = (dfa.num_states(), dfa.num_classes());
        let row_bytes = 4 * d;
        let mut buf: Vec<u8> = Vec::new();
        let mut index = RowIndex::default();
        let mut intern = |row: &[u8], buf: &mut Vec<u8>| -> Result<SfaStateId, CompileError> {
            let hash = index.hash(row);
            let same = |s: SfaStateId| buf[s as usize * row_bytes..][..row_bytes] == *row;
            if let Some(s) = index.find(hash, same) {
                return Ok(s);
            }
            let id = buf.len() / row_bytes;
            if id >= config.max_states {
                return Err(CompileError::TooManyStates { limit: config.max_states });
            }
            index.insert(hash, id as SfaStateId);
            buf.extend_from_slice(row);
            Ok(id as SfaStateId)
        };

        let identity: Vec<u8> = (0..d as StateId).flat_map(StateId::to_le_bytes).collect();
        let initial = intern(&identity, &mut buf)?;
        debug_assert_eq!(initial, 0);
        let mut table: Vec<SfaStateId> = Vec::new();
        let mut current: Vec<StateId> = Vec::with_capacity(d);
        let mut next = identity;
        let mut processed = 0usize;
        while processed < buf.len() / row_bytes {
            current.clear();
            current.extend(ids::<4>(&buf)[processed * d..][..d].iter().map(|f| f.unpack()));
            for class in 0..stride as u16 {
                for (t, &f) in next.as_chunks_mut::<4>().0.iter_mut().zip(&current) {
                    *t = dfa.next_by_class(f, class).to_le_bytes();
                }
                table.push(intern(&next, &mut buf)?);
            }
            processed += 1;
        }
        drop(index);

        // Interning works in full-width ids; only now that |S_d| is known
        // can the storage width be chosen. A configured override is
        // honored only when it is at least as wide as the automaton
        // requires (a narrower one would truncate ids).
        let num_states = processed;
        let auto = StateIdRepr::for_states(num_states);
        let repr = match config.repr {
            Some(r) if r.bytes() >= auto.bytes() => r,
            _ => auto,
        };
        let premultiply = config.premultiply
            && num_states.saturating_mul(256).saturating_mul(repr.bytes())
                <= SfaConfig::PREMULTIPLY_MAX_BYTES;

        // The class rows and the byte table follow the mapping rows. The
        // byte table is packed straight from the class rows — a u32
        // staging table for a 65k-state u16 automaton would transiently
        // double the 64 MiB ceiling just enforced.
        let mappings = 0..buf.len();
        buf.reserve_exact(num_states * (stride + if premultiply { 256 } else { 0 }) * repr.bytes());
        extend_ids(&mut buf, repr, table.iter().copied());
        let class_rows = mappings.end..buf.len();
        let classes = dfa.classes();
        let byte_table = premultiply.then(|| {
            let start = buf.len();
            let dense = table
                .chunks_exact(stride)
                .flat_map(|row| (0..=255u8).map(move |byte| row[classes.class_of(byte) as usize]));
            extend_ids(&mut buf, repr, dense);
            start..buf.len()
        });
        Ok(DSfa::assemble(
            TableBuf::Owned(buf.into_boxed_slice()),
            repr,
            num_states,
            class_rows,
            byte_table,
            mappings,
            dfa,
        ))
    }

    /// A lower bound on the number of states [`from_dfa`](DSfa::from_dfa)
    /// would build, found without building them; it stops counting at
    /// `cap + 1`.
    ///
    /// It follows [`BOUND_PROBES`] DFA states, the start state and ids
    /// evenly spaced after it, or every state of a smaller DFA. Each SFA
    /// state is a mapping `f`, and the tuple of its images
    /// `(f(p₁), …, f(p₃₂))` steps by the DFA alone, so the tuples
    /// reachable from the probes themselves are the projections of the
    /// reachable mappings: there are at most as many. With every state
    /// as a probe the tuple is the mapping itself, so the count is exact.
    /// Each tuple holds 32 ids where a mapping holds `|D|`, so for
    /// `|D| > 32` the count costs at most `32/|D|` of the eager build in
    /// time and memory. That is when the matcher's `BackendChoice::Auto`
    /// asks for it, to go straight to the lazy backend once the bound
    /// exceeds the cap.
    pub fn states_lower_bound(dfa: &Dfa, cap: usize) -> usize {
        let (d, stride) = (dfa.num_states(), dfa.num_classes());
        let probes: Vec<StateId> = if d <= BOUND_PROBES {
            (0..d as StateId).collect()
        } else {
            let start = dfa.start() as usize;
            (0..BOUND_PROBES).map(|k| ((start + k * d / BOUND_PROBES) % d) as StateId).collect()
        };
        let k = probes.len();
        let mut tuples: Vec<StateId> = Vec::new();
        let mut index = RowIndex::default();
        let mut intern = |tuple: &[StateId], tuples: &mut Vec<StateId>| {
            let hash = index.hash(tuple);
            let same = |s: SfaStateId| tuples[s as usize * k..][..k] == *tuple;
            if index.find(hash, same).is_none() {
                index.insert(hash, (tuples.len() / k) as SfaStateId);
                tuples.extend_from_slice(tuple);
            }
        };
        intern(&probes, &mut tuples);
        let mut next = probes;
        let mut processed = 0;
        while processed < tuples.len() / k && tuples.len() / k <= cap {
            for class in 0..stride as u16 {
                for (t, &q) in next.iter_mut().zip(&tuples[processed * k..][..k]) {
                    *t = dfa.next_by_class(q, class);
                }
                intern(&next, &mut tuples);
            }
            processed += 1;
        }
        (tuples.len() / k).min(cap.saturating_add(1))
    }

    /// Assembles an automaton over tables loaded zero-copy from an
    /// artifact buffer: the tables stay in `tables.data`, which the
    /// automaton keeps alive.
    ///
    /// `dfa` is the reconstructed (and already [`Dfa::validate`]d) source
    /// automaton; its accept metadata is copied — it is small. Every
    /// invariant a scan loop relies on is checked first (see
    /// [`ArtifactTables`]), so a bit-flipped buffer fails closed with a
    /// reason instead of panicking mid-match, and the sink and accepting
    /// bitmaps are derived from the validated tables, never read from the
    /// artifact.
    pub fn from_artifact(tables: ArtifactTables, dfa: &Dfa) -> Result<DSfa, String> {
        tables.validate(dfa)?;
        let ArtifactTables { data, repr, num_states, table, byte_table, mappings } = tables;
        Ok(DSfa::assemble(
            TableBuf::Shared(data),
            repr,
            num_states,
            table,
            byte_table,
            mappings,
            dfa,
        ))
    }

    /// Derives the sink and accepting bitmaps from the tables and copies
    /// the source DFA's accept metadata.
    fn assemble(
        buf: TableBuf,
        repr: StateIdRepr,
        num_states: usize,
        table: Range<usize>,
        byte_table: Option<Range<usize>>,
        mappings: Range<usize>,
        dfa: &Dfa,
    ) -> DSfa {
        let (stride, d, dfa_start) = (dfa.num_classes(), dfa.num_states(), dfa.start());
        let rows = &buf.bytes()[table.clone()];
        let sink = (0..num_states)
            .map(|s| (0..stride).all(|c| read_repr(rows, repr, s * stride + c) as usize == s))
            .collect();
        let maps = &buf.bytes()[mappings.clone()];
        let accepting = (0..num_states)
            .map(|s| dfa.is_accepting(ids::<4>(maps)[s * d + dfa_start as usize].unpack()))
            .collect();
        DSfa {
            classes: dfa.classes().clone(),
            stride,
            repr,
            num_states,
            buf,
            table,
            byte_table,
            mappings,
            sink,
            accepting,
            state_index: OnceLock::new(),
            #[cfg(feature = "simd")]
            simd: OnceLock::new(),
            dfa_start,
            dfa_accepting: dfa.accepting().into(),
            pattern_count: dfa.pattern_count(),
            dfa_accept_index: dfa.accept_indices().into(),
            dfa_accept_sets: dfa.distinct_accept_sets().to_vec(),
        }
    }

    /// Convenience: pattern → NFA → DFA → minimal DFA → D-SFA with default
    /// limits.
    pub fn from_pattern(pattern: &str) -> Result<DSfa, CompileError> {
        let dfa = sfa_automata::minimal_dfa_from_pattern(pattern)?;
        DSfa::from_dfa(&dfa, &SfaConfig::default())
    }

    /// The class-compressed rows.
    #[inline]
    fn rows(&self) -> &[u8] {
        &self.buf.bytes()[self.table.clone()]
    }

    /// The premultiplied byte table, when built.
    #[inline]
    fn dense(&self) -> Option<&[u8]> {
        let range = self.byte_table.as_ref()?;
        Some(&self.buf.bytes()[range.clone()])
    }

    /// The mapping rows.
    #[inline]
    fn maps(&self) -> &[u8] {
        &self.buf.bytes()[self.mappings.clone()]
    }

    /// The three tables as little-endian bytes in the
    /// [artifact layout](crate::table) — what an encoder writes out.
    pub fn raw_tables(&self) -> RawTables<'_> {
        RawTables { class_rows: self.rows(), byte_table: self.dense(), mappings: self.maps() }
    }

    /// Size of the artifact buffer the tables are borrowed from, when
    /// this automaton was loaded by [`from_artifact`](DSfa::from_artifact)
    /// (`None` for a compiled automaton, which owns its tables).
    pub fn artifact_bytes(&self) -> Option<usize> {
        match &self.buf {
            TableBuf::Owned(_) => None,
            TableBuf::Shared(data) => Some((**data).as_ref().len()),
        }
    }

    /// Number of SFA states (`|S_d|` in the paper).
    #[inline]
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of states of the source DFA.
    #[inline]
    pub fn num_dfa_states(&self) -> usize {
        self.dfa_accepting.len()
    }

    /// The byte classes shared with the source DFA.
    #[inline]
    pub fn classes(&self) -> &ByteClasses {
        &self.classes
    }

    /// Number of byte classes (row width of the transition table).
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.stride
    }

    /// The initial state (always 0: the identity mapping `f_I`).
    #[inline]
    pub fn initial(&self) -> SfaStateId {
        0
    }

    /// The start state of the source DFA.
    #[inline]
    pub fn dfa_start(&self) -> StateId {
        self.dfa_start
    }

    /// Returns true if the DFA state is accepting (used by reductions).
    #[inline]
    pub fn dfa_is_accepting(&self, q: StateId) -> bool {
        self.dfa_accepting[q as usize]
    }

    /// Returns true if the SFA state is accepting
    /// (`F_s = { f | f(q_0) ∈ F_D }`).
    #[inline]
    pub fn is_accepting(&self, state: SfaStateId) -> bool {
        self.accepting[state as usize]
    }

    /// Number of original patterns compiled into the source DFA (1 for
    /// single-pattern automata).
    #[inline]
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// The set of patterns a source-DFA state accepts (the per-rule
    /// verdict carried through from compilation — used by the reductions,
    /// which end on a DFA state).
    #[inline]
    pub fn dfa_accepting_patterns(&self, q: StateId) -> &PatternSet {
        &self.dfa_accept_sets[self.dfa_accept_index[q as usize] as usize]
    }

    /// The set of patterns matched when the whole input lands in `state`:
    /// the accept set of `f(q_0)`. The multi-pattern refinement of
    /// [`is_accepting`](DSfa::is_accepting) — non-empty exactly when the
    /// state accepts — and the hook the streaming matcher reads its
    /// per-rule verdict from. `O(1)`: one mapping lookup plus one
    /// interned-set index.
    #[inline]
    pub fn accepting_patterns(&self, state: SfaStateId) -> &PatternSet {
        self.dfa_accepting_patterns(self.apply(state, self.dfa_start))
    }

    /// Applies the mapping carried by `state` to one DFA state: `f(q)`,
    /// one table load and no allocation.
    #[inline]
    pub fn apply(&self, state: SfaStateId, q: StateId) -> StateId {
        ids::<4>(self.maps())[state as usize * self.num_dfa_states() + q as usize].unpack()
    }

    /// The mapping (transformation) carried by an SFA state, copied out
    /// of the table (`O(|D|)`; [`apply`](DSfa::apply) reads one entry).
    pub fn mapping(&self, state: SfaStateId) -> Transformation {
        let d = self.num_dfa_states();
        Transformation::from_vec((0..d as StateId).map(|q| self.apply(state, q)).collect())
    }

    /// Transition on a byte class.
    #[inline]
    pub fn next_by_class(&self, state: SfaStateId, class: u16) -> SfaStateId {
        read_repr(self.rows(), self.repr, state as usize * self.stride + class as usize)
    }

    /// Transition on a byte — one table lookup, exactly like the DFA.
    #[inline]
    pub fn next_state(&self, state: SfaStateId, byte: u8) -> SfaStateId {
        match self.dense() {
            Some(t) => read_repr(t, self.repr, state as usize * 256 + byte as usize),
            None => self.next_by_class(state, self.classes.class_of(byte)),
        }
    }

    /// The packed width this automaton's tables store state ids at. The
    /// automatic choice is the narrowest width fitting
    /// [`num_states`](DSfa::num_states); [`SfaConfig::repr`] can force a
    /// wider one.
    #[inline]
    pub fn repr(&self) -> StateIdRepr {
        self.repr
    }

    /// Bytes per stored state id (1, 2 or 4) — `repr().bytes()`.
    #[inline]
    pub fn state_id_bytes(&self) -> usize {
        self.repr.bytes()
    }

    /// True when the premultiplied dense byte table was built (see
    /// [`SfaConfig::premultiply`]).
    #[inline]
    pub fn premultiplied(&self) -> bool {
        self.byte_table.is_some()
    }

    /// True when every transition of `state` loops back to itself: the
    /// mapping carried by the state can never change again, whatever input
    /// follows. [`DSfa::run_from`] stops as soon as it reaches such a
    /// state.
    #[inline]
    pub fn is_sink(&self, state: SfaStateId) -> bool {
        self.sink[state as usize]
    }

    /// Runs the SFA over `input` starting from the identity state.
    pub fn run(&self, input: &[u8]) -> SfaStateId {
        self.run_from(self.initial(), input)
    }

    /// Runs the SFA over `input` from an arbitrary state (each worker of
    /// Algorithm 5 calls this on its chunk, always starting from the
    /// identity state).
    ///
    /// Two hot-loop refinements over the naive walk:
    /// * with a premultiplied table the per-byte step is a single dense
    ///   lookup, no `class_of` indirection;
    /// * reaching a sink state (a constant mapping that can no longer
    ///   change, e.g. the all-dead mapping after a synchronizing word)
    ///   stops the scan early — the remaining bytes cannot alter the
    ///   result. A sink can only ever be entered, never left, so the
    ///   `sink` bitmap is consulted only when the state changes; the
    ///   common self-looping byte costs just the lookup and a register
    ///   compare.
    ///
    /// With the `simd` feature the call dispatches once — never per byte —
    /// to the shuffle kernel when this automaton qualifies (see
    /// [`scan_kernel`](DSfa::scan_kernel)); the scalar loop remains the
    /// fallback and returns identical states.
    pub fn run_from(&self, state: SfaStateId, input: &[u8]) -> SfaStateId {
        if self.sink[state as usize] {
            return state;
        }
        #[cfg(feature = "simd")]
        if let Some(k) = self.shuffle_kernel() {
            return k.run(&self.sink, state, input);
        }
        self.scan_scalar(state, input)
    }

    /// [`run_from`](DSfa::run_from) restricted to the scalar loops: never
    /// dispatches to a SIMD kernel, whatever features and CPU are
    /// available. This is the semantic reference the kernels are tested
    /// against and the baseline the benchmarks compare them to; verdicts
    /// are identical to `run_from` by construction.
    pub fn run_from_scalar(&self, state: SfaStateId, input: &[u8]) -> SfaStateId {
        if self.sink[state as usize] {
            return state;
        }
        self.scan_scalar(state, input)
    }

    /// The monomorphized scalar loops behind
    /// [`run_from_scalar`](DSfa::run_from_scalar).
    #[inline]
    fn scan_scalar(&self, state: SfaStateId, input: &[u8]) -> SfaStateId {
        // One match on (table kind × packed width) per *call*; each arm is
        // a monomorphized loop whose loads are the packed width.
        let sink = &self.sink;
        match (self.dense(), self.repr) {
            (Some(t), StateIdRepr::U8) => scan_dense(ids::<1>(t), sink, state, input),
            (Some(t), StateIdRepr::U16) => scan_dense(ids::<2>(t), sink, state, input),
            (Some(t), StateIdRepr::U32) => scan_dense(ids::<4>(t), sink, state, input),
            (None, repr) => {
                let (t, c, s) = (self.rows(), &self.classes, self.stride);
                match repr {
                    StateIdRepr::U8 => scan_classes(ids::<1>(t), c, s, sink, state, input),
                    StateIdRepr::U16 => scan_classes(ids::<2>(t), c, s, sink, state, input),
                    StateIdRepr::U32 => scan_classes(ids::<4>(t), c, s, sink, state, input),
                }
            }
        }
    }

    /// Runs several independent `(state, input)` jobs, walking
    /// [`INTERLEAVE_LANES`] of them in lockstep to hide table-load
    /// latency.
    ///
    /// A single scan is one long dependent-load chain — every lookup
    /// waits for the previous one. Four independent chains keep four
    /// loads in flight, so a worker handed several haystacks (the sharded
    /// batch path) approaches the cache's bandwidth instead of its
    /// latency. Groups of four run over their common prefix length with
    /// no per-byte sink branch (a sink self-loops harmlessly); each tail
    /// then finishes through [`run_from`](DSfa::run_from), which keeps
    /// the sink early-exit. Results are returned in job order, and equal
    /// `run_from(state, input)` for every job. Without a premultiplied
    /// table the jobs simply run one by one.
    ///
    /// With the `simd` feature an automaton that runs the shuffle kernel
    /// (see [`scan_kernel`](DSfa::scan_kernel)) scans each job through it
    /// instead: the kernel already runs at ~1 byte/cycle on a single
    /// input, so lockstep interleaving would only add bookkeeping.
    pub fn run_from_many(&self, jobs: &[(SfaStateId, &[u8])]) -> Vec<SfaStateId> {
        #[cfg(feature = "simd")]
        if self.shuffle_kernel().is_some() {
            return jobs.iter().map(|&(s, input)| self.run_from(s, input)).collect();
        }
        self.run_from_many_scalar(jobs)
    }

    /// [`run_from_many`](DSfa::run_from_many) restricted to the scalar
    /// loops (the [`INTERLEAVE_LANES`]-wide lockstep walk) — the
    /// reference and benchmark baseline for the SIMD batch path, with
    /// identical results.
    pub fn run_from_many_scalar(&self, jobs: &[(SfaStateId, &[u8])]) -> Vec<SfaStateId> {
        let mut out = Vec::with_capacity(jobs.len());
        let Some(t) = self.dense() else {
            out.extend(jobs.iter().map(|&(s, input)| self.run_from_scalar(s, input)));
            return out;
        };
        let mut groups = jobs.chunks_exact(INTERLEAVE_LANES);
        for group in groups.by_ref() {
            let mut f = [group[0].0, group[1].0, group[2].0, group[3].0];
            let inputs = [group[0].1, group[1].1, group[2].1, group[3].1];
            let common = inputs.iter().map(|s| s.len()).min().unwrap_or(0);
            match self.repr {
                StateIdRepr::U8 => scan_dense_lanes(ids::<1>(t), &mut f, &inputs, common),
                StateIdRepr::U16 => scan_dense_lanes(ids::<2>(t), &mut f, &inputs, common),
                StateIdRepr::U32 => scan_dense_lanes(ids::<4>(t), &mut f, &inputs, common),
            }
            for (lane, input) in inputs.iter().enumerate() {
                out.push(self.run_from_scalar(f[lane], &input[common..]));
            }
        }
        out.extend(groups.remainder().iter().map(|&(s, input)| self.run_from_scalar(s, input)));
        out
    }

    /// The lazily built shuffle kernel for this automaton (`None` when the
    /// scalar loops are the only applicable path).
    #[cfg(feature = "simd")]
    #[inline]
    fn shuffle_kernel(&self) -> Option<&simd::ShuffleKernel> {
        self.simd
            .get_or_init(|| simd::ShuffleKernel::build(self.repr, self.dense(), self.num_states))
            .as_ref()
    }

    /// Name of the transition kernel [`run_from`](DSfa::run_from) /
    /// [`run_from_many`](DSfa::run_from_many) dispatch to on this build,
    /// CPU and automaton shape: `"shuffle"` (SSSE3 `pshufb`, `u8` repr,
    /// ≤ 16 states, premultiplied) or `"scalar"` (the monomorphized loops
    /// and the [`INTERLEAVE_LANES`]-lane lockstep walk — always the answer
    /// without the `simd` feature). Surfaced through `SizeReport` as the
    /// `scan_kernel` JSON field.
    pub fn scan_kernel(&self) -> &'static str {
        #[cfg(feature = "simd")]
        if simd::shuffle_applies(self.repr, self.premultiplied(), self.num_states) {
            return "shuffle";
        }
        "scalar"
    }

    /// How many independent sub-chunks an *interleaving* caller should
    /// drive through one [`run_from_many`](DSfa::run_from_many) call to
    /// saturate this automaton's scan kernel on a single large haystack:
    ///
    /// * scalar premultiplied → [`INTERLEAVE_LANES`] (4): the lockstep
    ///   scalar walk keeps that many dependent-load chains in flight;
    /// * `"shuffle"` kernel or no premultiplied table → 1: the shuffle
    ///   kernel already runs at ~1 byte/cycle from a 4 KiB L1-resident
    ///   table (splitting only adds composition overhead), and without a
    ///   premultiplied table batch jobs run one by one anyway.
    ///
    /// `sfa-matcher` consumes this through
    /// `Engine::plan_chunks_interleaved` to split each worker's chunk;
    /// composing the per-sub-chunk states (Lemma 1) keeps verdicts exact.
    pub fn preferred_lanes(&self) -> usize {
        if !self.premultiplied() || self.scan_kernel() == "shuffle" {
            1
        } else {
            INTERLEAVE_LANES
        }
    }

    /// Whole-input membership using the SFA alone (sequential; the parallel
    /// version lives in `sfa-matcher`).
    pub fn accepts(&self, input: &[u8]) -> bool {
        self.is_accepting(self.run(input))
    }

    /// Composes the mappings of two SFA states: if `a = f_w` and `b = f_v`,
    /// the result is `f_wv`. This is the `⋄` operator of the reduction step.
    pub fn compose(&self, a: SfaStateId, b: SfaStateId) -> Transformation {
        let d = self.num_dfa_states() as StateId;
        Transformation::from_vec((0..d).map(|q| self.apply(b, self.apply(a, q))).collect())
    }

    /// Composes two SFA states *as states*: the state whose mapping is
    /// `f_w ⋄ f_v` when `a = f_w` and `b = f_v`.
    ///
    /// This is total: the reachable transformations are closed under
    /// composition (Lemma 1 — `f_w ⋄ f_v = f_wv`, the mapping of an actual
    /// word), so the composite is always an existing state. It is what lets
    /// a streaming matcher fold the per-block states produced by parallel
    /// chunk scans into one running state and keep matching from it.
    ///
    /// Three compositions resolve without touching the mapping index:
    /// identity on either side is a no-op, and a [sink](DSfa::is_sink) on
    /// the left absorbs anything (a sink's image state loops on every byte,
    /// so no suffix can move it). The general case composes the two
    /// mappings (`O(|D|)`) and resolves the result through the lazily built
    /// state index.
    pub fn compose_states(&self, a: SfaStateId, b: SfaStateId) -> SfaStateId {
        if a == self.initial() {
            return b;
        }
        if b == self.initial() || self.is_sink(a) {
            return a;
        }
        // Row `a` mapped through row `b`, entry by entry: the composite's
        // row, already in the table's byte form.
        let (maps, d) = (ids::<4>(self.maps()), self.num_dfa_states());
        let fb = &maps[b as usize * d..][..d];
        let row: Vec<[u8; 4]> =
            maps[a as usize * d..][..d].iter().map(|q| fb[q.unpack() as usize]).collect();
        self.find_state(&row).expect("SFA states are closed under composition (Lemma 1)")
    }

    /// Looks up the SFA state corresponding to a transformation, if that
    /// transformation is reachable (i.e. is an actual SFA state).
    ///
    /// The first call builds an index of mapping-row hashes (about 20
    /// bytes per state); subsequent calls are one hash lookup plus a row
    /// comparison.
    pub fn state_of(&self, mapping: &Transformation) -> Option<SfaStateId> {
        if mapping.degree() != self.num_dfa_states() {
            return None;
        }
        let row: Vec<[u8; 4]> = mapping.as_slice().iter().map(|q| q.to_le_bytes()).collect();
        self.find_state(&row)
    }

    /// The state whose mapping row is `row`, found through the hash index.
    fn find_state(&self, row: &[[u8; 4]]) -> Option<SfaStateId> {
        let (maps, d) = (ids::<4>(self.maps()), row.len());
        let index = self.state_index.get_or_init(|| {
            let mut index = RowIndex::default();
            for (s, row) in self.maps().chunks_exact(4 * d).enumerate() {
                index.insert(index.hash(row), s as SfaStateId);
            }
            index
        });
        index.find(index.hash(row.as_flattened()), |s| maps[s as usize * d..][..d] == *row)
    }

    /// Bytes occupied by the (class-compressed) transition table, at the
    /// packed width.
    pub fn table_bytes(&self) -> usize {
        self.table.len()
    }

    /// Bytes occupied by the premultiplied dense byte table at the packed
    /// width (0 when it was not built).
    pub fn byte_table_bytes(&self) -> usize {
        self.byte_table.as_ref().map_or(0, Range::len)
    }

    /// Bytes occupied by the state mappings (needed by the reduction step).
    pub fn mapping_bytes(&self) -> usize {
        self.mappings.len()
    }

    /// Re-interprets the SFA as a plain DFA over the same byte classes
    /// (the SFA *is* deterministic). Used for equivalence checking. The
    /// packed rows are widened back to the automata layer's `u32` ids at
    /// this boundary.
    pub fn as_dfa(&self) -> Dfa {
        let rows = (0..self.num_states * self.stride).map(|i| read_repr(self.rows(), self.repr, i));
        Dfa::from_parts(
            self.classes.clone(),
            rows.collect(),
            self.accepting.to_vec(),
            self.initial(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_automata::equivalence::equivalent;
    use sfa_automata::minimal_dfa_from_pattern;

    fn dsfa(pattern: &str) -> (Dfa, DSfa) {
        let dfa = minimal_dfa_from_pattern(pattern).unwrap();
        let sfa = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        (dfa, sfa)
    }

    #[test]
    fn paper_example_ab_star_has_six_states() {
        // Fig. 2 / Table I: the D-SFA of (ab)* has exactly 6 states
        // f0..f5, built from the 3-state DFA (2 live + dead).
        let (dfa, sfa) = dsfa("(ab)*");
        assert_eq!(dfa.num_states(), 3);
        assert_eq!(sfa.num_states(), 6);
        assert_eq!(sfa.num_dfa_states(), 3);
        // The initial state is the identity mapping.
        assert!(sfa.mapping(sfa.initial()).is_identity());
    }

    #[test]
    fn paper_example_computation_over_abab() {
        // Example 1: f0 -a-> f1 -b-> f4 -a-> f1 -b-> f4 and f4(0) = 0,
        // so abab is accepted.
        let (dfa, sfa) = dsfa("(ab)*");
        let f = sfa.run(b"abab");
        assert!(sfa.is_accepting(f));
        assert_eq!(sfa.mapping(f).apply(dfa.start()), dfa.start());
        // The same SFA state is reached after ab (period 2).
        assert_eq!(sfa.run(b"ab"), f);
        // And a different, non-accepting state after aba.
        let g = sfa.run(b"aba");
        assert_ne!(g, f);
        assert!(!sfa.is_accepting(g));
    }

    #[test]
    fn sfa_equivalent_to_dfa() {
        for pattern in
            ["(ab)*", "a|bc|d", "(a|b)*abb", "([0-4]{2}[5-9]{2})*", "a{2,4}b{1,3}", "(?i)get|post"]
        {
            let (dfa, sfa) = dsfa(pattern);
            assert!(equivalent(&dfa, &sfa.as_dfa()), "pattern {:?}", pattern);
            for input in [&b""[..], b"ab", b"abab", b"abb", b"0055", b"GET", b"zzz"] {
                assert_eq!(dfa.accepts(input), sfa.accepts(input), "{:?} {:?}", pattern, input);
            }
        }
    }

    #[test]
    fn rn_family_sizes_match_paper() {
        // Sect. VI-B: |D| = 2n (live) and |S_d| is "almost the square" of
        // |D|. Analytically the reachable transformations of the complete
        // DFA number d(d+1) with d = 2n (d^2 single-survivor mappings, d-2
        // prefix mappings, the identity and the all-dead sink). The paper
        // reports 109 for n = 5, i.e. one fewer — it does not count one of
        // the sink states; we assert our exact count and check the
        // "quadratic, not exponential" property the paper cares about.
        for n in [2usize, 3, 5] {
            let pattern = format!("([0-4]{{{n}}}[5-9]{{{n}}})*");
            let (dfa, sfa) = dsfa(&pattern);
            let d = 2 * n;
            assert_eq!(dfa.num_live_states(), d);
            assert_eq!(sfa.num_states(), d * (d + 1), "n = {}", n);
            assert!(sfa.num_states() <= (dfa.num_states()) * (dfa.num_states()));
        }
        // The paper's headline number for n = 5 is 109; ours counts 110
        // (the all-dead mapping included).
        let (_, sfa) = dsfa("([0-4]{5}[5-9]{5})*");
        assert_eq!(sfa.num_states(), 110);
    }

    #[test]
    fn fig10_expression_sfa_size() {
        // Sect. VI-C: (([02468][13579]){5})* — "the size of DFA is 10, and
        // the size of SFA is 21". Our count is 22 because the all-dead
        // mapping is included as a state; the live structure (10 even-phase
        // mappings, 10 odd-phase mappings, identity) matches the paper.
        let (dfa, sfa) = dsfa("(([02468][13579]){5})*");
        assert_eq!(dfa.num_live_states(), 10);
        assert_eq!(sfa.num_states(), 22);
    }

    #[test]
    fn composition_matches_concatenated_run() {
        let (_, sfa) = dsfa("([0-4]{2}[5-9]{2})*");
        let w1 = b"0456";
        let w2 = b"0055044";
        let f1 = sfa.run(w1);
        let f2 = sfa.run(w2);
        let mut whole = Vec::new();
        whole.extend_from_slice(w1);
        whole.extend_from_slice(w2);
        let f12 = sfa.run(&whole);
        // Lemma 1: f_{w1} ⋄ f_{w2} = f_{w1 w2}.
        assert_eq!(sfa.compose(f1, f2), sfa.mapping(f12));
        assert_eq!(sfa.state_of(&sfa.compose(f1, f2)), Some(f12));
    }

    #[test]
    fn compose_states_matches_concatenated_run() {
        // compose_states is the state-level form of Lemma 1: for any two
        // reachable states the composite is again a state, and it is the
        // state of the concatenated word.
        let (_, sfa) = dsfa("([0-4]{2}[5-9]{2})*");
        let words: [&[u8]; 5] = [b"", b"0456", b"0055044", b"9", b"005504590055"];
        for w1 in words {
            for w2 in words {
                let f1 = sfa.run(w1);
                let f2 = sfa.run(w2);
                let mut whole = w1.to_vec();
                whole.extend_from_slice(w2);
                assert_eq!(sfa.compose_states(f1, f2), sfa.run(&whole), "w1 {:?} w2 {:?}", w1, w2);
            }
        }
    }

    #[test]
    fn compose_states_shortcuts_identity_and_sink() {
        let (_, sfa) = dsfa("(ab)*");
        let id = sfa.initial();
        let f = sfa.run(b"ab");
        let dead = sfa.run(b"aa");
        assert!(sfa.is_sink(dead));
        // Identity is neutral on both sides.
        assert_eq!(sfa.compose_states(id, f), f);
        assert_eq!(sfa.compose_states(f, id), f);
        // A sink on the left absorbs any right-hand state.
        for g in 0..sfa.num_states() as SfaStateId {
            assert_eq!(sfa.compose_states(dead, g), dead);
        }
    }

    #[test]
    fn state_limit_enforced() {
        let dfa = minimal_dfa_from_pattern("([0-4]{5}[5-9]{5})*").unwrap();
        let err = DSfa::from_dfa(&dfa, &SfaConfig { max_states: 50, ..SfaConfig::default() })
            .unwrap_err();
        assert_eq!(err, CompileError::TooManyStates { limit: 50 });
    }

    #[test]
    fn accepting_patterns_refine_is_accepting() {
        use sfa_automata::{determinize, minimize, DfaConfig, Nfa};
        let nfa = Nfa::from_patterns(["(ab)*", "a+", "[ab]{2}"]).unwrap();
        let dfa = minimize(&determinize(&nfa, &DfaConfig::default()).unwrap());
        let sfa = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        assert_eq!(sfa.pattern_count(), 3);
        for input in [&b""[..], b"a", b"ab", b"aa", b"abab", b"ba", b"zz"] {
            let state = sfa.run(input);
            let pats = sfa.accepting_patterns(state);
            assert_eq!(pats, dfa.matching_patterns(input), "input {:?}", input);
            assert_eq!(sfa.is_accepting(state), !pats.is_empty(), "input {:?}", input);
            assert_eq!(pats, sfa.dfa_accepting_patterns(dfa.run(input)));
        }
        // "ab" fires (ab)* and [ab]{2} together in a single pass.
        let hits = sfa.accepting_patterns(sfa.run(b"ab"));
        assert_eq!(hits.iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn accepting_states_check_dfa_start_image() {
        let (dfa, sfa) = dsfa("(ab)*");
        for s in 0..sfa.num_states() as SfaStateId {
            let expected = dfa.is_accepting(sfa.mapping(s).apply(dfa.start()));
            assert_eq!(sfa.is_accepting(s), expected);
        }
    }

    #[test]
    fn table_and_mapping_sizes() {
        let (_, sfa) = dsfa("(ab)*");
        // 6 states pack to u8: one byte per stored id.
        assert_eq!(sfa.repr(), StateIdRepr::U8);
        assert_eq!(sfa.state_id_bytes(), 1);
        assert_eq!(sfa.table_bytes(), sfa.num_states() * sfa.num_classes() * sfa.state_id_bytes());
        assert_eq!(sfa.mapping_bytes(), sfa.num_states() * sfa.num_dfa_states() * 4);
    }

    #[test]
    fn premultiplied_table_agrees_with_class_rows() {
        let dfa = minimal_dfa_from_pattern("(a|b)*abb").unwrap();
        let fast = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        let slow = DSfa::from_dfa(&dfa, &SfaConfig { premultiply: false, ..SfaConfig::default() })
            .unwrap();
        assert!(fast.premultiplied());
        assert!(!slow.premultiplied());
        assert_eq!(fast.byte_table_bytes(), fast.num_states() * 256 * fast.state_id_bytes());
        assert_eq!(slow.byte_table_bytes(), 0);
        // Every single-byte step agrees between the dense and the
        // class-compressed layout.
        for s in 0..fast.num_states() as SfaStateId {
            for byte in 0..=255u8 {
                assert_eq!(fast.next_state(s, byte), slow.next_state(s, byte));
            }
        }
        for input in [&b""[..], b"abb", b"aababb", b"zzz", b"abba"] {
            assert_eq!(fast.run(input), slow.run(input));
            assert_eq!(fast.accepts(input), dfa.accepts(input));
        }
    }

    #[test]
    fn sink_states_are_constant_and_absorbing() {
        let (_, sfa) = dsfa("(ab)*");
        let mut sinks = 0;
        for s in 0..sfa.num_states() as SfaStateId {
            if sfa.is_sink(s) {
                sinks += 1;
                // A sink's mapping is constant and survives any further byte.
                assert!(sfa.mapping(s).is_constant());
                for byte in [b'a', b'b', b'z'] {
                    assert_eq!(sfa.next_state(s, byte), s);
                }
            }
        }
        // (ab)* has exactly one sink: the all-dead mapping (reached e.g.
        // after the synchronizing word "aa").
        assert_eq!(sinks, 1);
        let dead = sfa.run(b"aa");
        assert!(sfa.is_sink(dead));
        // The early exit must not change the result: a long tail after the
        // synchronizing word still lands in the same state.
        let mut long = b"aa".to_vec();
        long.resize(long.len() + 10_000, b'a');
        assert_eq!(sfa.run(&long), dead);
        assert!(!sfa.accepts(&long));
    }

    #[test]
    fn empty_and_universal_languages() {
        let (_, sfa) = dsfa("(?s).*");
        assert_eq!(sfa.num_states(), 1, "universal language: identity only");
        assert!(sfa.accepts(b""));
        assert!(sfa.accepts(b"anything"));

        use sfa_automata::determinize::{dfa_from_ast, DfaConfig};
        use sfa_regex_syntax::ast::Ast;
        use sfa_regex_syntax::ByteSet;
        let void = sfa_automata::minimize(
            &dfa_from_ast(&Ast::Class(ByteSet::EMPTY), &DfaConfig::default()).unwrap(),
        );
        let sfa = DSfa::from_dfa(&void, &SfaConfig::default()).unwrap();
        assert_eq!(sfa.num_states(), 1);
        assert!(!sfa.accepts(b""));
        assert!(!sfa.accepts(b"a"));
    }

    /// An `n`-state rotation DFA (state `i` steps to `i+1 mod n` on every
    /// byte, state 0 accepts) whose D-SFA has *exactly* `n` states — the
    /// reachable transformations are the `n` rotations — which pins the
    /// repr promotion boundaries precisely.
    fn cycle_dfa(n: usize) -> Dfa {
        let table: Vec<StateId> = (0..n).map(|i| ((i + 1) % n) as StateId).collect();
        let mut accepting = vec![false; n];
        accepting[0] = true;
        Dfa::from_parts(ByteClasses::single(), table, accepting, 0)
    }

    #[test]
    fn repr_selection_rule() {
        assert_eq!(StateIdRepr::for_states(1), StateIdRepr::U8);
        assert_eq!(StateIdRepr::for_states(255), StateIdRepr::U8);
        assert_eq!(StateIdRepr::for_states(256), StateIdRepr::U8);
        assert_eq!(StateIdRepr::for_states(257), StateIdRepr::U16);
        assert_eq!(StateIdRepr::for_states(65_536), StateIdRepr::U16);
        assert_eq!(StateIdRepr::for_states(65_537), StateIdRepr::U32);
        for repr in [StateIdRepr::U8, StateIdRepr::U16, StateIdRepr::U32] {
            assert_eq!(repr.to_string(), repr.as_str());
        }
    }

    #[test]
    fn u8_to_u16_promotion_boundary() {
        // Automata with exactly 255 / 256 / 257 SFA states: ids 0..=254
        // and 0..=255 fit one byte; 257 states force two.
        for (n, expected) in
            [(255, StateIdRepr::U8), (256, StateIdRepr::U8), (257, StateIdRepr::U16)]
        {
            let dfa = cycle_dfa(n);
            let sfa = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
            assert_eq!(sfa.num_states(), n, "rotation SFA has exactly n states");
            assert_eq!(sfa.repr(), expected, "n = {n}");
            assert_eq!(sfa.table_bytes(), n * sfa.num_classes() * expected.bytes());
            // The walk crosses the full id range: after k bytes the state
            // is rotation k, and n bytes return to the identity.
            let mut f = sfa.initial();
            for step in 1..=n {
                f = sfa.next_state(f, b'x');
                assert_eq!(sfa.is_accepting(f), step % n == 0 || step == n);
            }
            assert_eq!(f, sfa.initial());
            assert_eq!(sfa.run(&vec![b'x'; n]), sfa.initial());
        }
    }

    #[test]
    fn forced_repr_widens_but_never_narrows() {
        let dfa = minimal_dfa_from_pattern("(ab)*").unwrap();
        // 6 states: auto is u8; forcing wider widths is honored.
        for (forced, expected) in [
            (None, StateIdRepr::U8),
            (Some(StateIdRepr::U8), StateIdRepr::U8),
            (Some(StateIdRepr::U16), StateIdRepr::U16),
            (Some(StateIdRepr::U32), StateIdRepr::U32),
        ] {
            let sfa =
                DSfa::from_dfa(&dfa, &SfaConfig { repr: forced, ..SfaConfig::default() }).unwrap();
            assert_eq!(sfa.repr(), expected, "forced {forced:?}");
            assert_eq!(sfa.state_id_bytes(), expected.bytes());
        }
        // 257 states: a forced u8 cannot hold the ids and is widened.
        let big = cycle_dfa(257);
        let sfa = DSfa::from_dfa(
            &big,
            &SfaConfig { repr: Some(StateIdRepr::U8), ..SfaConfig::default() },
        )
        .unwrap();
        assert_eq!(sfa.repr(), StateIdRepr::U16);
    }

    #[test]
    fn packed_reprs_agree_on_runs_and_tables() {
        let dfa = minimal_dfa_from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        let base = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        for forced in [StateIdRepr::U8, StateIdRepr::U16, StateIdRepr::U32] {
            for premultiply in [true, false] {
                let cfg = SfaConfig { repr: Some(forced), premultiply, ..SfaConfig::default() };
                let sfa = DSfa::from_dfa(&dfa, &cfg).unwrap();
                // Interning order is repr-independent, so state ids agree
                // exactly, not just up to isomorphism.
                for input in [&b""[..], b"0055", b"00550459", b"005", b"5500", b"zzz"] {
                    assert_eq!(sfa.run(input), base.run(input), "{forced:?} {input:?}");
                }
                for s in 0..sfa.num_states() as SfaStateId {
                    for byte in [b'0', b'5', b'9', b'z'] {
                        assert_eq!(sfa.next_state(s, byte), base.next_state(s, byte));
                    }
                }
            }
        }
    }

    #[test]
    fn run_from_many_agrees_with_run_from() {
        let (_, sfa) = dsfa("([0-4]{2}[5-9]{2})*");
        let dead = sfa.run(b"z");
        assert!(sfa.is_sink(dead));
        let long = b"00550459".repeat(100);
        // Mixed lengths (forcing unequal tails), a sink start, an empty
        // input, and a count that is not a multiple of the lane width.
        let jobs: Vec<(SfaStateId, &[u8])> = vec![
            (sfa.initial(), &long[..]),
            (sfa.initial(), b"0055"),
            (dead, &long[..]),
            (sfa.initial(), b""),
            (sfa.run(b"00"), b"550459"),
            (sfa.initial(), b"zz"),
            (sfa.initial(), &long[..17]),
        ];
        let expected: Vec<SfaStateId> = jobs.iter().map(|&(s, i)| sfa.run_from(s, i)).collect();
        assert_eq!(sfa.run_from_many(&jobs), expected);
        // The class-row fallback path (no premultiplied table) agrees too.
        let dfa = minimal_dfa_from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        let slow = DSfa::from_dfa(&dfa, &SfaConfig { premultiply: false, ..SfaConfig::default() })
            .unwrap();
        assert_eq!(slow.run_from_many(&jobs), expected);
        assert!(sfa.run_from_many(&[]).is_empty());
    }

    /// `run_from` / `run_from_many` must return exactly what their
    /// `*_scalar` references do, whatever kernel the dispatch picks —
    /// trivial without the `simd` feature, the real agreement check with
    /// it (shuffle on the 6-state automaton, the scalar lanes on the wider
    /// ones). Lengths cover 0, 1, the shuffle kernel's 64-byte block
    /// boundary, lane-remainder tails and mid-input sink entry.
    #[test]
    fn simd_dispatch_agrees_with_scalar() {
        let automata: Vec<DSfa> = vec![
            dsfa("(ab)*").1,               // 6 states: shuffle candidate
            dsfa("([0-4]{2}[5-9]{2})*").1, // 20 states: u8, scalar lanes
            DSfa::from_dfa(&cycle_dfa(300), &SfaConfig::default()).unwrap(), // u16
            DSfa::from_dfa(
                &minimal_dfa_from_pattern("(ab)*").unwrap(),
                &SfaConfig { repr: Some(StateIdRepr::U32), ..SfaConfig::default() },
            )
            .unwrap(), // forced u32
        ];
        let ab = b"ab".repeat(300);
        for sfa in &automata {
            let mut inputs: Vec<Vec<u8>> = Vec::new();
            for len in [0usize, 1, 2, 63, 64, 65, 128, 300, 599] {
                inputs.push(ab[..len].to_vec());
            }
            // Sink entry mid-input: a byte outside every pattern's
            // alphabet early, then a long tail (and one past the first
            // block boundary).
            let mut poisoned = ab[..7].to_vec();
            poisoned.push(b'!');
            poisoned.extend_from_slice(&ab[..200]);
            inputs.push(poisoned);
            let mut late_poison = ab[..100].to_vec();
            late_poison.push(b'!');
            late_poison.extend_from_slice(&ab[..100]);
            inputs.push(late_poison);
            // Keeps the window automaton out of its sink for the whole
            // scan (and covers a non-multiple-of-64 length).
            inputs.push(b"00550459".repeat(37));
            for input in &inputs {
                assert_eq!(
                    sfa.run_from(sfa.initial(), input),
                    sfa.run_from_scalar(sfa.initial(), input)
                );
            }
            // Batches of every size 0..=13 exercise both the 4-lane
            // lockstep groups and the remainder path.
            let jobs: Vec<(SfaStateId, &[u8])> =
                inputs.iter().cycle().take(13).map(|v| (sfa.initial(), &v[..])).collect();
            for n in 0..=jobs.len() {
                assert_eq!(sfa.run_from_many(&jobs[..n]), sfa.run_from_many_scalar(&jobs[..n]));
            }
            // From every state, single bytes agree too.
            for s in 0..sfa.num_states().min(64) as SfaStateId {
                for b in [b'a', b'b', b'0', b'7', b'!'] {
                    assert_eq!(sfa.run_from(s, &[b]), sfa.run_from_scalar(s, &[b]));
                }
            }
        }
    }

    /// Exactly one kernel besides the scalar loops: the shuffle kernel
    /// runs `(ab)*` (6 states, `u8`) when this build and CPU have it, and
    /// every wider premultiplied automaton walks [`INTERLEAVE_LANES`]
    /// scalar lanes in both feature settings.
    #[test]
    fn scan_kernel_and_preferred_lanes_are_consistent() {
        // Without a premultiplied table there is nothing to vectorize.
        let dfa = minimal_dfa_from_pattern("(ab)*").unwrap();
        let plain = DSfa::from_dfa(&dfa, &SfaConfig { premultiply: false, ..SfaConfig::default() })
            .unwrap();
        assert_eq!(plain.scan_kernel(), "scalar");
        assert_eq!(plain.preferred_lanes(), 1);

        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        let shuffle = std::arch::is_x86_feature_detected!("ssse3");
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        let shuffle = false;
        let small = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        assert_eq!(small.num_states(), 6);
        let expected = if shuffle { ("shuffle", 1) } else { ("scalar", INTERLEAVE_LANES) };
        assert_eq!((small.scan_kernel(), small.preferred_lanes()), expected);
        let window = dsfa("([0-4]{2}[5-9]{2})*").1;
        let wide = DSfa::from_dfa(&cycle_dfa(300), &SfaConfig::default()).unwrap();
        assert_eq!((window.num_states(), window.repr()), (20, StateIdRepr::U8));
        assert_eq!(wide.repr(), StateIdRepr::U16);
        for sfa in [&window, &wide] {
            assert_eq!((sfa.scan_kernel(), sfa.preferred_lanes()), ("scalar", INTERLEAVE_LANES));
        }
    }

    /// On the Example 3 family (Fact 1 of the paper) the 32 probes of a
    /// 64- to 256-state DFA already tell every mapping apart: the bound is
    /// the eager state count, and a smaller cap stops it at cap + 1.
    #[test]
    fn lower_bound_is_exact_on_example3() {
        for (n, states) in [(6usize, 121usize), (7, 248), (8, 503)] {
            let (dfa, sfa) = dsfa(&format!("[ap]*[al][alp]{{{}}}", n - 2));
            assert!(dfa.num_states() > BOUND_PROBES, "n = {n}");
            assert_eq!(sfa.num_states(), states, "n = {n}");
            assert_eq!(DSfa::states_lower_bound(&dfa, usize::MAX), states, "n = {n}");
            assert_eq!(DSfa::states_lower_bound(&dfa, states - 1), states, "n = {n}");
            assert_eq!(DSfa::states_lower_bound(&dfa, states / 2), states / 2 + 1, "n = {n}");
        }
    }

    /// Rows that share a hash are told apart by comparing them: every
    /// row below is indexed under one hash and each is still found.
    #[test]
    fn row_index_resolves_hash_collisions_by_comparison() {
        let rows: [&[u8]; 3] = [b"aaaa", b"bbbb", b"cccc"];
        let mut index = RowIndex::default();
        for s in 0..rows.len() as SfaStateId {
            index.insert(7, s);
        }
        for (s, row) in rows.iter().enumerate() {
            assert_eq!(index.find(7, |t| rows[t as usize] == *row), Some(s as SfaStateId));
        }
        assert_eq!(index.find(7, |t| rows[t as usize] == b"dddd"), None);
        assert_eq!(index.find(8, |_| true), None);
        assert_eq!(index.hash(b"aaaa"), index.hash(b"aaaa"));
    }

    /// An automaton loaded from its own tables is the compiled automaton:
    /// same states, verdicts, mappings, composition, kernel and lanes —
    /// the zero-copy load changes where the bytes live, nothing else.
    #[test]
    fn loaded_automata_agree_with_compiled() {
        for premultiply in [true, false] {
            for pattern in ["(ab)*", "(a|b)*abb", "([0-4]{2}[5-9]{2})*", "a{2,4}b{1,3}"] {
                let dfa = minimal_dfa_from_pattern(pattern).unwrap();
                let cfg = SfaConfig { premultiply, ..SfaConfig::default() };
                let sfa = DSfa::from_dfa(&dfa, &cfg).unwrap();
                let tables = ArtifactTables::copy_of(&sfa);
                let artifact_len = (*tables.data).as_ref().len();
                let loaded = DSfa::from_artifact(tables, &dfa).unwrap();
                assert_eq!(sfa.artifact_bytes(), None);
                assert_eq!(loaded.artifact_bytes(), Some(artifact_len));
                assert_eq!(loaded.num_states(), sfa.num_states());
                assert_eq!(loaded.premultiplied(), sfa.premultiplied());
                assert_eq!(loaded.repr(), sfa.repr());
                assert_eq!(loaded.scan_kernel(), sfa.scan_kernel(), "{pattern}");
                assert_eq!(loaded.preferred_lanes(), sfa.preferred_lanes(), "{pattern}");
                assert_eq!(
                    (loaded.table_bytes(), loaded.byte_table_bytes(), loaded.mapping_bytes()),
                    (sfa.table_bytes(), sfa.byte_table_bytes(), sfa.mapping_bytes())
                );
                for s in 0..sfa.num_states() as SfaStateId {
                    assert_eq!(loaded.is_sink(s), sfa.is_sink(s), "sink {s}");
                    assert_eq!(loaded.is_accepting(s), sfa.is_accepting(s), "accepting {s}");
                    assert_eq!(loaded.accepting_patterns(s), sfa.accepting_patterns(s));
                    assert_eq!(loaded.mapping(s), sfa.mapping(s));
                }
                let inputs = [&b""[..], b"ab", b"abab", b"abb", b"0055", b"aabbb", b"zzz"];
                for input in inputs {
                    let f = sfa.run(input);
                    assert_eq!(
                        loaded.run(input),
                        f,
                        "{pattern} {input:?} premultiply={premultiply}"
                    );
                    assert_eq!(loaded.accepts(input), dfa.accepts(input));
                }
                let long = b"ab0055".repeat(100);
                let jobs: Vec<(SfaStateId, &[u8])> =
                    (0..11).map(|i| (sfa.initial(), &long[i * 7..])).collect();
                assert_eq!(loaded.run_from_many(&jobs), sfa.run_from_many(&jobs));
                let (a, b) = (sfa.run(b"ab"), sfa.run(b"ba"));
                assert_eq!(loaded.compose_states(a, b), sfa.compose_states(a, b));
                assert_eq!(loaded.state_of(&sfa.mapping(a)), Some(a));
                assert!(equivalent(&dfa, &loaded.as_dfa()), "{pattern}");
            }
        }
    }
}

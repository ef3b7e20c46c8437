//! The one byte layout every eager D-SFA keeps its tables in, whether it
//! owns them or borrows them from a serialized artifact.
//!
//! A [`DSfa`](crate::DSfa) holds three tables inside one byte buffer:
//!
//! * the class-compressed rows: `|S_d| × classes` state ids;
//! * the premultiplied byte table, when built: `|S_d| × 256` state ids;
//! * the state mappings: `|S_d| × |D|` `u32` DFA state ids (row `s` is the
//!   transformation carried by SFA state `s`).
//!
//! State ids are little-endian at the automaton's packed width
//! ([`StateIdRepr`]). These are exactly the SFA sections `sfa-serialize`
//! writes, so loading an artifact hands its buffer to
//! [`DSfa::from_artifact`](crate::DSfa::from_artifact) as is — no copy and
//! no second automaton type: the same scan loops and SIMD kernel run on
//! compiled and loaded automata alike. Reading ids out of bytes rather
//! than typed slices needs no alignment and no unsafe code; a
//! fixed-width little-endian read compiles to one plain load.

use crate::dsfa::{SfaStateId, StateIdRepr};
use sfa_automata::Dfa;
use std::ops::Range;
use std::sync::Arc;

/// A shared byte buffer an automaton can borrow its tables from — an
/// mmap, a `Vec<u8>`, anything that can hand out `&[u8]`. The automaton
/// keeps it alive for as long as any clone of it exists.
pub type ArtifactBytes = Arc<dyn AsRef<[u8]> + Send + Sync>;

/// The buffer holding one automaton's tables.
#[derive(Clone)]
pub(crate) enum TableBuf {
    /// Built by [`DSfa::from_dfa`](crate::DSfa::from_dfa).
    Owned(Box<[u8]>),
    /// Borrowed from an artifact buffer.
    Shared(ArtifactBytes),
}

impl TableBuf {
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            TableBuf::Owned(b) => b,
            TableBuf::Shared(data) => (**data).as_ref(),
        }
    }
}

impl std::fmt::Debug for TableBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if matches!(self, TableBuf::Owned(_)) { "Owned" } else { "Shared" };
        write!(f, "{kind}({} bytes)", self.bytes().len())
    }
}

/// Where one automaton's tables sit inside an artifact buffer. Produced
/// by the artifact parser (`sfa-serialize`); consumed, together with the
/// reconstructed source [`Dfa`], by
/// [`DSfa::from_artifact`](crate::DSfa::from_artifact).
pub struct ArtifactTables {
    /// The shared buffer every range below indexes into.
    pub data: ArtifactBytes,
    /// The packed width of the state ids in `table` and `byte_table`.
    pub repr: StateIdRepr,
    /// Number of SFA states (`|S_d|`).
    pub num_states: usize,
    /// The class-compressed rows.
    pub table: Range<usize>,
    /// The premultiplied byte table, when the artifact carries one.
    pub byte_table: Option<Range<usize>>,
    /// The state mappings.
    pub mappings: Range<usize>,
}

/// The three tables of a D-SFA as little-endian bytes, in the layout of
/// the [module docs](self) — what an artifact encoder writes out.
#[derive(Clone, Copy, Debug)]
pub struct RawTables<'a> {
    /// The class-compressed rows at the packed width.
    pub class_rows: &'a [u8],
    /// The premultiplied byte table at the packed width, when built.
    pub byte_table: Option<&'a [u8]>,
    /// The state mappings as `u32` DFA state ids.
    pub mappings: &'a [u8],
}

/// One stored state id: `N` little-endian bytes. Scan loops are written
/// once over this trait and monomorphized per width, so each compiles to
/// fixed-width loads with one bounds check, like a typed slice.
pub(crate) trait PackedId: Copy {
    /// The id, widened to the interface width.
    fn unpack(self) -> SfaStateId;
}

impl PackedId for [u8; 1] {
    #[inline(always)]
    fn unpack(self) -> SfaStateId {
        self[0] as SfaStateId
    }
}

impl PackedId for [u8; 2] {
    #[inline(always)]
    fn unpack(self) -> SfaStateId {
        u16::from_le_bytes(self) as SfaStateId
    }
}

impl PackedId for [u8; 4] {
    #[inline(always)]
    fn unpack(self) -> SfaStateId {
        u32::from_le_bytes(self)
    }
}

/// A table's bytes viewed as `W`-byte ids (a trailing partial id, which
/// validated tables never have, is ignored).
#[inline(always)]
pub(crate) fn ids<const W: usize>(buf: &[u8]) -> &[[u8; W]] {
    buf.as_chunks::<W>().0
}

/// Id `i` of a table at a width known only at run time — for the
/// per-call accessors, never inside a scan loop.
#[inline]
pub(crate) fn read_repr(buf: &[u8], repr: StateIdRepr, i: usize) -> SfaStateId {
    match repr {
        StateIdRepr::U8 => ids::<1>(buf)[i].unpack(),
        StateIdRepr::U16 => ids::<2>(buf)[i].unpack(),
        StateIdRepr::U32 => ids::<4>(buf)[i].unpack(),
    }
}

/// Appends `ids` at width `repr`, dispatching on the width once.
pub(crate) fn extend_ids(
    buf: &mut Vec<u8>,
    repr: StateIdRepr,
    ids: impl Iterator<Item = SfaStateId>,
) {
    fn extend<const W: usize>(buf: &mut Vec<u8>, ids: impl Iterator<Item = SfaStateId>) {
        for id in ids {
            buf.extend_from_slice(&id.to_le_bytes()[..W]);
        }
    }
    match repr {
        StateIdRepr::U8 => extend::<1>(buf, ids),
        StateIdRepr::U16 => extend::<2>(buf, ids),
        StateIdRepr::U32 => extend::<4>(buf, ids),
    }
}

impl ArtifactTables {
    /// Checks every invariant the scan loops rely on, so a corrupt
    /// artifact fails closed with a reason instead of panicking mid-match:
    ///
    /// * all three ranges lie inside the buffer and have exactly the
    ///   advertised `count × width` lengths;
    /// * every transition target (class rows *and* byte table) is a valid
    ///   SFA state id;
    /// * every mapping entry is a valid DFA state id;
    /// * state 0 carries the identity mapping (the composition shortcuts
    ///   assume it).
    pub(crate) fn validate(&self, dfa: &Dfa) -> Result<(), String> {
        let buf = (*self.data).as_ref();
        let (n, d, stride, repr) =
            (self.num_states, dfa.num_states(), dfa.num_classes(), self.repr);
        if n == 0 {
            return Err("an SFA needs at least one state".to_string());
        }
        if n > repr.max_states() {
            return Err(format!("{n} states do not fit the declared {repr} id width"));
        }
        let section = |range: &Range<usize>, len: usize, what: &str| -> Result<&[u8], String> {
            if range.start > range.end || range.end > buf.len() {
                return Err(format!(
                    "{what} range {}..{} escapes the {}-byte buffer",
                    range.start,
                    range.end,
                    buf.len()
                ));
            }
            if range.len() != len {
                return Err(format!("{what} has {} bytes, expected {len}", range.len()));
            }
            Ok(&buf[range.clone()])
        };
        let check_ids = |bytes: &[u8], what: &str| -> Result<(), String> {
            for i in 0..bytes.len() / repr.bytes() {
                let id = read_repr(bytes, repr, i);
                if id as usize >= n {
                    return Err(format!("{what} entry {i} is {id}, out of range (0..{n})"));
                }
            }
            Ok(())
        };
        let w = repr.bytes();
        check_ids(section(&self.table, n * stride * w, "class-row table")?, "class-row")?;
        if let Some(bt) = &self.byte_table {
            check_ids(section(bt, n * 256 * w, "premultiplied byte table")?, "byte-table")?;
        }
        let maps = ids::<4>(section(&self.mappings, n * d * 4, "mapping table")?);
        for (i, q) in maps.iter().map(|q| q.unpack()).enumerate() {
            if q as usize >= d {
                return Err(format!("mapping entry {i} is {q}, out of range (0..{d})"));
            }
        }
        if (0..d).any(|q| maps[q].unpack() != q as u32) {
            return Err("state 0 does not carry the identity mapping".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
impl ArtifactTables {
    /// Lays `sfa`'s tables out back to back in a fresh buffer, the way an
    /// artifact stores them.
    pub(crate) fn copy_of(sfa: &crate::DSfa) -> ArtifactTables {
        let raw = sfa.raw_tables();
        let mut buf = raw.class_rows.to_vec();
        let table = 0..buf.len();
        let byte_table = raw.byte_table.map(|t| {
            let start = buf.len();
            buf.extend_from_slice(t);
            start..buf.len()
        });
        let start = buf.len();
        buf.extend_from_slice(raw.mappings);
        let mappings = start..buf.len();
        ArtifactTables {
            data: Arc::new(buf),
            repr: sfa.repr(),
            num_states: sfa.num_states(),
            table,
            byte_table,
            mappings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DSfa, SfaConfig};
    use sfa_automata::minimal_dfa_from_pattern;

    /// The tables of `pristine` over a copy of its buffer with `corrupt`
    /// applied.
    fn corrupted(pristine: &ArtifactTables, corrupt: impl FnOnce(&mut Vec<u8>)) -> ArtifactTables {
        let mut buf = (*pristine.data).as_ref().to_vec();
        corrupt(&mut buf);
        ArtifactTables {
            data: Arc::new(buf),
            table: pristine.table.clone(),
            byte_table: pristine.byte_table.clone(),
            mappings: pristine.mappings.clone(),
            ..*pristine
        }
    }

    #[test]
    fn validation_rejects_out_of_range_and_misshapen_tables() {
        let dfa = minimal_dfa_from_pattern("(ab)*").unwrap();
        let sfa = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        let pristine = ArtifactTables::copy_of(&sfa);
        let load = |t: ArtifactTables| DSfa::from_artifact(t, &dfa).map(|_| ()).unwrap_err();
        assert!(DSfa::from_artifact(corrupted(&pristine, |_| {}), &dfa).is_ok());

        // An out-of-range state id in the class rows fails closed, and so
        // does one in the byte table.
        let err = load(corrupted(&pristine, |b| b[0] = 0xFF));
        assert!(err.contains("class-row entry 0") && err.contains("out of range"), "{err}");
        let at = pristine.byte_table.clone().unwrap().start + 7;
        let err = load(corrupted(&pristine, |b| b[at] = 0xFF));
        assert!(err.contains("byte-table entry 7"), "{err}");

        // A truncated buffer fails the range check, not a panic.
        let err = load(corrupted(&pristine, |b| {
            b.pop();
        }));
        assert!(err.contains("escapes"), "{err}");

        // A corrupted identity row (state 0) is rejected.
        let maps = pristine.mappings.start;
        let err = load(corrupted(&pristine, |b| b[maps] = 1));
        assert!(err.contains("identity"), "{err}");

        // A mapping entry pointing at a nonexistent DFA state is rejected.
        let err = load(corrupted(&pristine, |b| b[maps + 4] = 0xEE));
        assert!(err.contains("mapping entry"), "{err}");

        // Misdeclared shapes: a wrong length, a width too narrow for the
        // state count, no states at all.
        let err = load(ArtifactTables { table: 0..1, ..corrupted(&pristine, |_| {}) });
        assert!(err.contains("expected"), "{err}");
        let err = load(ArtifactTables { num_states: 300, ..corrupted(&pristine, |_| {}) });
        assert!(err.contains("do not fit"), "{err}");
        let err = load(ArtifactTables { num_states: 0, ..corrupted(&pristine, |_| {}) });
        assert!(err.contains("at least one state"), "{err}");
    }
}

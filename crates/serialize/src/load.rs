//! The zero-copy artifact loader.
//!
//! Parsing never trusts the artifact: the header is bounds- and
//! version-checked, the payload checksum is verified before any field is
//! interpreted, every section read is range-checked against the buffer,
//! and the reconstructed automata re-validate their structural invariants
//! ([`Dfa::validate`] for the DFA, [`DSfa::from_artifact`]'s table bounds
//! checks for the SFA) before a [`LoadedArtifact`] is handed out. A
//! truncated or bit-flipped file fails closed with
//! [`ArtifactError::Corrupt`] naming the offending byte offset.
//!
//! The big tables — SFA class rows, the premultiplied byte table, the
//! state mappings — are **not copied**: the loader records their byte
//! ranges and hands the shared buffer to [`DSfa::from_artifact`], so
//! loading from an mmap touches only the small metadata pages plus one
//! checksum sweep.

use crate::format::{
    checksum, repr_from_width, FLAG_CONVERGENCE, FLAG_PREMULTIPLIED, FORMAT_VERSION, HEADER_LEN,
    MAGIC,
};
use crate::ArtifactError;
use sfa_analysis::ConvergenceSummary;
use sfa_automata::{ByteClasses, Dfa, PatternSet};
use sfa_core::{ArtifactBytes, ArtifactTables, DSfa};
use std::ops::Range;

/// A fully parsed and validated artifact: the reconstructed source DFA
/// (owned — its tables are small), the zero-copy SFA backend, and the
/// matcher-level metadata the encoder stored.
pub struct LoadedArtifact {
    /// The original pattern text.
    pub pattern: String,
    /// The opaque matcher-level mode tag (see
    /// [`ArtifactSource::mode`](crate::ArtifactSource::mode)).
    pub mode: u8,
    /// NFA state count of the original compilation.
    pub nfa_states: u32,
    /// The reconstructed source DFA (validated).
    pub dfa: Dfa,
    /// The SFA with its tables borrowed from the artifact buffer.
    pub sfa: DSfa,
    /// Per-DFA-state "verdict decided" bitmap.
    pub decided_verdict: Vec<bool>,
    /// Per-DFA-state "accept-set decided" bitmap.
    pub decided_accept: Vec<bool>,
    /// The convergence summary, when the artifact carried one.
    pub convergence: Option<ConvergenceSummary>,
}

impl std::fmt::Debug for LoadedArtifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedArtifact")
            .field("pattern", &self.pattern)
            .field("mode", &self.mode)
            .field("nfa_states", &self.nfa_states)
            .field("dfa_states", &self.dfa.num_states())
            .field("sfa_states", &self.sfa.num_states())
            .field("convergence", &self.convergence.is_some())
            .finish()
    }
}

/// Cursor over the artifact buffer; every read is bounds-checked and
/// failures carry the current byte offset.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn corrupt(&self, reason: impl Into<String>) -> ArtifactError {
        ArtifactError::Corrupt { offset: self.pos, reason: reason.into() }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.buf.len() - self.pos < n {
            return Err(
                self.corrupt(format!("needs {n} bytes, only {} remain", self.buf.len() - self.pos))
            );
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Like [`take`](Reader::take) but returns the byte *range* instead
    /// of the bytes — the zero-copy handle for a borrowed table.
    fn take_range(&mut self, n: usize) -> Result<Range<usize>, ArtifactError> {
        let start = self.pos;
        self.take(n)?;
        Ok(start..self.pos)
    }

    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ArtifactError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn align8(&mut self) -> Result<(), ArtifactError> {
        let pad = (8 - self.pos % 8) % 8;
        self.take(pad).map(|_| ())
    }

    fn bitmap(&mut self, bits: usize) -> Result<Vec<bool>, ArtifactError> {
        let bytes = self.take(bits.div_ceil(8))?;
        Ok((0..bits).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
    }
}

/// Parses, checksums and validates an artifact held in any shared byte
/// buffer (an [`ArtifactFile`](crate::ArtifactFile) mmap, a `Vec<u8>`
/// from a cache, …). The buffer is retained by the returned
/// [`LoadedArtifact`]'s SFA, which borrows its tables from it.
pub fn load(data: ArtifactBytes) -> Result<LoadedArtifact, ArtifactError> {
    let buf: &[u8] = (*data).as_ref();
    let mut r = Reader { buf, pos: 0 };

    // Header.
    if buf.len() < HEADER_LEN {
        return Err(r.corrupt(format!("{}-byte file is shorter than the header", buf.len())));
    }
    if r.take(8)? != MAGIC {
        return Err(ArtifactError::Corrupt {
            offset: 0,
            reason: "bad magic: not an SFA artifact".to_string(),
        });
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(ArtifactError::VersionMismatch { found: version, supported: FORMAT_VERSION });
    }
    let flags = r.u32()?;
    // The checksum skips the header, so the flags word (offset 12) is
    // checked here: a bit this build never writes is corruption.
    let unknown = flags & !(FLAG_PREMULTIPLIED | FLAG_CONVERGENCE);
    if unknown != 0 {
        return Err(ArtifactError::Corrupt {
            offset: 12,
            reason: format!("unknown header flag bits {unknown:#x}"),
        });
    }
    let width = r.u8()?;
    let repr = repr_from_width(width)
        .ok_or_else(|| r.corrupt(format!("invalid state-id width {width}")))?;
    let mode = r.u8()?;
    r.take(6)?; // header padding
    let expected_checksum = r.u64()?;
    let total_len = r.u64()?;
    if total_len != buf.len() as u64 {
        return Err(r.corrupt(format!(
            "header says {total_len} bytes, file has {} (truncated or padded)",
            buf.len()
        )));
    }
    debug_assert_eq!(r.pos, HEADER_LEN);
    let actual = checksum(&buf[HEADER_LEN..]);
    if actual != expected_checksum {
        return Err(ArtifactError::Corrupt {
            offset: 24,
            reason: format!("payload checksum {actual:#018x} != header {expected_checksum:#018x}"),
        });
    }

    // Pattern + metadata.
    let pattern_len = r.u32()? as usize;
    let pattern = String::from_utf8(r.take(pattern_len)?.to_vec())
        .map_err(|_| r.corrupt("pattern is not valid UTF-8"))?;
    r.align8()?;
    let nfa_states = r.u32()?;
    let dfa_start = r.u32()?;
    let pattern_count = r.u32()? as usize;
    let num_dfa = r.u32()? as usize;
    let stride = r.u32()? as usize;
    let num_sfa = r.u32()? as usize;
    r.align8()?;
    if num_dfa == 0 || num_sfa == 0 {
        return Err(r.corrupt("state counts must be positive"));
    }
    // Cap the section sizes we are about to multiply out so a corrupt
    // count fails here instead of overflowing or allocating wildly; the
    // per-section `take` calls then bound everything by the real file.
    if num_dfa > buf.len() || num_sfa > buf.len() || stride > 256 {
        return Err(r.corrupt("state or class count exceeds the file size"));
    }

    // Byte classes.
    let mut class_map = [0u16; 256];
    for slot in class_map.iter_mut() {
        *slot = r.u16()?;
    }
    let classes = ByteClasses::from_map(class_map)
        .ok_or_else(|| r.corrupt("byte-class map is not a dense partition"))?;
    if classes.count() != stride {
        return Err(r.corrupt(format!("{} byte classes but a stride of {stride}", classes.count())));
    }

    // DFA: table, accept index, accept sets — all validated before
    // `Dfa::from_parts_with_patterns` (which would panic on bad parts).
    let table_at = r.pos;
    let mut dfa_table = Vec::with_capacity(num_dfa * stride);
    for _ in 0..num_dfa * stride {
        let t = r.u32()?;
        if t as usize >= num_dfa {
            return Err(ArtifactError::Corrupt {
                offset: table_at,
                reason: format!("DFA transition target {t} out of range (0..{num_dfa})"),
            });
        }
        dfa_table.push(t);
    }
    r.align8()?;
    let mut accept_index = Vec::with_capacity(num_dfa);
    for _ in 0..num_dfa {
        accept_index.push(r.u32()?);
    }
    r.align8()?;
    let set_count = r.u32()? as usize;
    if set_count == 0 || set_count > buf.len() {
        return Err(r.corrupt(format!("implausible accept-set count {set_count}")));
    }
    let mut accept_sets = Vec::with_capacity(set_count);
    for _ in 0..set_count {
        let len = r.u32()? as usize;
        let mut ids = Vec::with_capacity(len.min(pattern_count));
        for _ in 0..len {
            let id = r.u32()?;
            if id as usize >= pattern_count {
                return Err(r.corrupt(format!("pattern id {id} out of range (0..{pattern_count})")));
            }
            ids.push(id);
        }
        accept_sets.push(PatternSet::from_iter(pattern_count, ids));
    }
    r.align8()?;
    if !accept_sets[0].is_empty() {
        return Err(r.corrupt("accept set 0 must be the empty set"));
    }
    if let Some(&i) = accept_index.iter().find(|&&i| i as usize >= set_count) {
        return Err(r.corrupt(format!("accept index {i} out of range (0..{set_count})")));
    }
    if dfa_start as usize >= num_dfa {
        return Err(r.corrupt(format!("DFA start state {dfa_start} out of range (0..{num_dfa})")));
    }
    let dfa = Dfa::from_parts_with_patterns(
        classes,
        dfa_table,
        accept_index,
        accept_sets,
        dfa_start,
        pattern_count,
    );
    dfa.validate().map_err(|reason| ArtifactError::Corrupt { offset: table_at, reason })?;

    // Decided bitmaps.
    let decided_verdict = r.bitmap(num_dfa)?;
    let decided_accept = r.bitmap(num_dfa)?;
    r.align8()?;

    // SFA tables: record ranges, never copy.
    let w = repr.bytes();
    let sfa_at = r.pos;
    let table = r.take_range(num_sfa * stride * w)?;
    r.align8()?;
    let byte_table = if flags & FLAG_PREMULTIPLIED != 0 {
        let range = r.take_range(num_sfa * 256 * w)?;
        r.align8()?;
        Some(range)
    } else {
        None
    };
    let mappings = r.take_range(num_sfa * num_dfa * 4)?;
    r.align8()?;

    // Convergence summary.
    let convergence = if flags & FLAG_CONVERGENCE != 0 {
        let len = r.u32()? as usize;
        let at = r.pos;
        let summary =
            ConvergenceSummary::from_bytes(r.take(len)?).ok_or(ArtifactError::Corrupt {
                offset: at,
                reason: "malformed convergence summary".to_string(),
            })?;
        r.align8()?;
        Some(summary)
    } else {
        None
    };

    if r.pos != buf.len() {
        return Err(
            r.corrupt(format!("{} trailing bytes after the last section", buf.len() - r.pos))
        );
    }

    // The SFA constructor bounds-checks every borrowed table entry.
    let tables = ArtifactTables {
        data: data.clone(),
        repr,
        num_states: num_sfa,
        table,
        byte_table,
        mappings,
    };
    let sfa = DSfa::from_artifact(tables, &dfa)
        .map_err(|reason| ArtifactError::Corrupt { offset: sfa_at, reason })?;

    Ok(LoadedArtifact {
        pattern,
        mode,
        nfa_states,
        dfa,
        sfa,
        decided_verdict,
        decided_accept,
        convergence,
    })
}

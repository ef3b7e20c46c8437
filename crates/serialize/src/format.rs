//! The artifact binary format: layout constants and the encoder.
//!
//! An artifact is a 40-byte header followed by an 8-byte-aligned payload:
//!
//! ```text
//! header   magic "SFARTFCT" · format version · flags · id width · mode
//!          striped FNV-1a checksum over the payload · total file length
//! payload  pattern string
//!          metadata (nfa/dfa/sfa state counts, start, patterns, classes)
//!          byte-class map (256 × u16)
//!          DFA: transition table (u32), accept index, accept sets
//!          decided-state bitmaps (verdict + accept-set, one bit per state)
//!          SFA class rows        (packed width — borrowed on load)
//!          SFA byte table        (packed width — borrowed, if premultiplied)
//!          SFA state mappings    (u32 — borrowed on load)
//!          convergence summary   (optional)
//! ```
//!
//! The header's flags word has two bits: [`FLAG_PREMULTIPLIED`] (the
//! byte table is present) and [`FLAG_CONVERGENCE`] (the summary is
//! present). The loader rejects any other bit as corrupt, since the
//! checksum does not cover the header.
//!
//! Every section starts 8-byte aligned. The three SFA sections are the
//! automaton's own [table layout](sfa_core::table), copied out verbatim,
//! so the zero-copy loader hands their ranges straight to
//! [`DSfa::from_artifact`](sfa_core::DSfa::from_artifact). All integers
//! are little-endian. The checksum covers everything after the header, so a
//! bit flip anywhere in the tables is caught before parsing begins.

use sfa_analysis::ConvergenceSummary;
use sfa_automata::Dfa;
use sfa_core::{DSfa, StateIdRepr};
use std::io::{self, Write};

/// The 8-byte magic opening every artifact.
pub const MAGIC: [u8; 8] = *b"SFARTFCT";

/// The format version this crate writes and the only one it reads.
pub const FORMAT_VERSION: u32 = 1;

/// Header length in bytes; the payload (and the checksum's coverage)
/// starts here.
pub const HEADER_LEN: usize = 40;

/// Flag bit: the artifact carries a premultiplied dense byte table.
pub const FLAG_PREMULTIPLIED: u32 = 1 << 0;
/// Flag bit: the artifact carries a convergence summary.
pub const FLAG_CONVERGENCE: u32 = 1 << 1;

/// FNV-1a over a byte string, the repo's corpus-fingerprint hash — cheap,
/// dependency-free, and plenty for integrity (not authenticity) checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Number of independent FNV lanes in the payload [`checksum`].
const CHECKSUM_LANES: usize = 8;

/// The payload checksum: 8-lane striped FNV-1a. Byte `i` feeds lane
/// `i % 8`; the final digest is plain [`fnv1a`] over the 8 lane digests
/// plus the payload length.
///
/// Plain FNV-1a is one serial multiply chain — ~3 cycles *latency* per
/// byte — which made checksum verification the dominant cost of loading a
/// multi-megabyte artifact (the whole point of the zero-copy loader is
/// that nothing else touches the big tables). Eight independent chains
/// run at multiply *throughput* instead, an ~8x faster sweep with the
/// same per-lane mixing; the length fold keeps zero-padding from
/// colliding across lengths.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [0u64; CHECKSUM_LANES];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = 0xcbf2_9ce4_8422_2325u64.wrapping_add(i as u64);
    }
    let mut chunks = bytes.chunks_exact(CHECKSUM_LANES);
    for chunk in &mut chunks {
        for (lane, &b) in lanes.iter_mut().zip(chunk) {
            *lane ^= u64::from(b);
            *lane = lane.wrapping_mul(0x100_0000_01b3);
        }
    }
    for (lane, &b) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane ^= u64::from(b);
        *lane = lane.wrapping_mul(0x100_0000_01b3);
    }
    let mut tail = [0u8; CHECKSUM_LANES * 8 + 8];
    for (i, lane) in lanes.iter().enumerate() {
        tail[i * 8..i * 8 + 8].copy_from_slice(&lane.to_le_bytes());
    }
    tail[CHECKSUM_LANES * 8..].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
    fnv1a(&tail)
}

/// Everything the encoder serializes: the compiled automata plus the
/// matcher-level metadata that must survive the round trip. Borrowed so
/// encoding never clones a table.
pub struct ArtifactSource<'a> {
    /// The original pattern text (a `RegexSet`'s label for multi-pattern
    /// automata).
    pub pattern: &'a str,
    /// Opaque matcher-level mode tag (the matcher maps its `MatchMode`
    /// through this byte; this crate stores it verbatim).
    pub mode: u8,
    /// NFA state count of the original compilation (size reporting).
    pub nfa_states: u32,
    /// The source DFA.
    pub dfa: &'a Dfa,
    /// The eager D-SFA built from `dfa`.
    pub sfa: &'a DSfa,
    /// Per-DFA-state "verdict decided" bitmap (length `dfa.num_states()`).
    pub decided_verdict: &'a [bool],
    /// Per-DFA-state "accept-set decided" bitmap (same length).
    pub decided_accept: &'a [bool],
    /// The convergence analysis summary, when one ran.
    pub convergence: Option<&'a ConvergenceSummary>,
}

/// Appends `v` little-endian.
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Pads with zero bytes to the next 8-byte boundary.
fn align8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

/// Appends a `bool` slice as an LSB-first bitmap.
fn put_bitmap(out: &mut Vec<u8>, bits: &[bool]) {
    let mut bytes = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bytes);
}

impl ArtifactSource<'_> {
    /// Serializes the artifact into a fresh buffer.
    ///
    /// The payload is assembled first so the header can carry its
    /// checksum and total length; artifacts are table-sized (not
    /// stream-sized), so buffering the payload is the natural shape.
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let total = (HEADER_LEN + payload.len()) as u64;
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        let mut flags = 0u32;
        if self.sfa.premultiplied() {
            flags |= FLAG_PREMULTIPLIED;
        }
        if self.convergence.is_some() {
            flags |= FLAG_CONVERGENCE;
        }
        put_u32(&mut out, flags);
        out.push(self.sfa.repr().bytes() as u8);
        out.push(self.mode);
        out.extend_from_slice(&[0u8; 6]);
        out.extend_from_slice(&checksum(&payload).to_le_bytes());
        out.extend_from_slice(&total.to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);
        out.extend_from_slice(&payload);
        out
    }

    /// Serializes the artifact to a writer (one buffered payload, two
    /// writes).
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(&self.encode_to_vec())
    }

    fn encode_payload(&self) -> Vec<u8> {
        let dfa = self.dfa;
        let sfa = self.sfa;
        let d = dfa.num_states();
        let stride = dfa.num_classes();
        let n = sfa.num_states();
        debug_assert_eq!(self.decided_verdict.len(), d);
        debug_assert_eq!(self.decided_accept.len(), d);

        let mut out = Vec::new();

        // Pattern string.
        put_u32(&mut out, self.pattern.len() as u32);
        out.extend_from_slice(self.pattern.as_bytes());
        align8(&mut out);

        // Metadata block (six u32s — 8-aligned by construction).
        put_u32(&mut out, self.nfa_states);
        put_u32(&mut out, dfa.start());
        put_u32(&mut out, dfa.pattern_count() as u32);
        put_u32(&mut out, d as u32);
        put_u32(&mut out, stride as u32);
        put_u32(&mut out, n as u32);
        align8(&mut out);

        // Byte-class map: 256 × u16.
        for b in 0..=255u8 {
            out.extend_from_slice(&dfa.classes().class_of(b).to_le_bytes());
        }

        // DFA transition table (u32 — small next to the SFA tables).
        for &t in dfa.table() {
            put_u32(&mut out, t);
        }
        align8(&mut out);

        // DFA accept index + interned accept sets.
        for &i in dfa.accept_indices() {
            put_u32(&mut out, i);
        }
        align8(&mut out);
        let sets = dfa.distinct_accept_sets();
        put_u32(&mut out, sets.len() as u32);
        for set in sets {
            put_u32(&mut out, set.len() as u32);
            for id in set.iter() {
                put_u32(&mut out, id);
            }
        }
        align8(&mut out);

        // Decided-state bitmaps.
        put_bitmap(&mut out, self.decided_verdict);
        put_bitmap(&mut out, self.decided_accept);
        align8(&mut out);

        // SFA class rows and byte table at the packed width, then the
        // |S| × |D| u32 state mappings — all borrowed on load.
        let tables = sfa.raw_tables();
        for section in
            [Some(tables.class_rows), tables.byte_table, Some(tables.mappings)].iter().flatten()
        {
            out.extend_from_slice(section);
            align8(&mut out);
        }

        // Convergence summary.
        if let Some(summary) = self.convergence {
            let bytes = summary.to_bytes();
            put_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(&bytes);
            align8(&mut out);
        }

        out
    }
}

/// Widths the format stores state ids at, mapped from the header byte.
pub(crate) fn repr_from_width(w: u8) -> Option<StateIdRepr> {
    Some(match w {
        1 => StateIdRepr::U8,
        2 => StateIdRepr::U16,
        4 => StateIdRepr::U32,
        _ => return None,
    })
}

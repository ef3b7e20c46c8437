//! The explicit-SIMD transition kernel for the eager D-SFA (feature `simd`).
//!
//! One kernel, picked at runtime per automaton shape and CPU: the SSSE3
//! **shuffle** (`pshufb`), for `u8`-repr automata with at most 16 live
//! states. The premultiplied byte table is transposed into 256 16-byte
//! *columns* — `cols[b]` holds `δ(s, b)` for every state `s` — and one
//! `_mm_shuffle_epi8(cols[b], v)` advances the scan. The column load
//! depends only on the input byte, never on the current state, so the
//! dependent-load chain of the scalar walk collapses to one
//! register-to-register shuffle per byte (~1 byte/cycle instead of one L1
//! latency per byte).
//!
//! Every other premultiplied automaton runs the scalar
//! [`INTERLEAVE_LANES`](crate::dsfa::INTERLEAVE_LANES)-lane lockstep walk
//! in `dsfa`, in both builds. A kernel belongs here only if it beats that
//! walk on the same jobs (the `batch_over_scalar_batch` throughput gate).
//!
//! The kernel is built lazily on first use (see `DSfa::run_from`) and only
//! when the CPU supports it — the scalar loops in `dsfa` remain the
//! mandatory fallback and the semantic reference: the kernel returns
//! exactly the state the scalar scan would. It works from a 4 KiB
//! transposed copy of the byte table, whether the automaton owns that
//! table or borrows it from an artifact (see [`crate::table`]).

use crate::dsfa::{SfaStateId, StateIdRepr};

/// Largest automaton the 16-wide `pshufb` shuffle kernel can address.
pub(crate) const SHUFFLE_MAX_STATES: usize = 16;

/// Whether [`ShuffleKernel::build`] builds a kernel for this table shape
/// on this CPU: a premultiplied `u8` table of at most
/// [`SHUFFLE_MAX_STATES`] states, and SSSE3. Pure classification — no
/// tables are copied — so size reporting can name the kernel without
/// paying for it.
pub(crate) fn shuffle_applies(repr: StateIdRepr, premultiplied: bool, num_states: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        premultiplied
            && repr == StateIdRepr::U8
            && num_states <= SHUFFLE_MAX_STATES
            && std::arch::is_x86_feature_detected!("ssse3")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (repr, premultiplied, num_states);
        false
    }
}

/// The SSSE3 shuffle kernel: a 4 KiB column-major transpose of the
/// premultiplied byte table, `cols[b * 16 + s] = δ(s, b)`.
#[derive(Clone, Debug)]
pub(crate) struct ShuffleKernel {
    cols: Box<[u8]>,
}

impl ShuffleKernel {
    /// Builds the kernel over the premultiplied byte table `dense` when
    /// [`shuffle_applies`], or `None` when only the scalar loops apply (no
    /// premultiplied table, too many states, unsupported CPU, or a
    /// non-x86_64 target).
    pub(crate) fn build(
        repr: StateIdRepr,
        dense: Option<&[u8]>,
        num_states: usize,
    ) -> Option<ShuffleKernel> {
        let byte_table = dense?;
        if !shuffle_applies(repr, true, num_states) {
            return None;
        }
        let mut cols = vec![0u8; 256 * SHUFFLE_MAX_STATES];
        for s in 0..num_states {
            for b in 0..256 {
                cols[b * SHUFFLE_MAX_STATES + s] = byte_table[s * 256 + b];
            }
        }
        Some(ShuffleKernel { cols: cols.into_boxed_slice() })
    }

    /// Scans `input` from `state`, returning exactly what the scalar
    /// dense loop would (including the sink early exit, checked once per
    /// 64-byte block — a sink self-loops, so overshooting inside a block
    /// cannot change the result).
    pub(crate) fn run(&self, sink: &[bool], state: SfaStateId, input: &[u8]) -> SfaStateId {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: the kernel is only built after `is_x86_feature_detected!`
            // confirmed SSSE3 (see `shuffle_applies`).
            #[allow(unsafe_code)]
            unsafe {
                self.run_ssse3(sink, state, input)
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (sink, state, input);
            unreachable!("shuffle kernel is only built on x86_64")
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "ssse3")]
    #[allow(unsafe_code)]
    unsafe fn run_ssse3(&self, sink: &[bool], state: SfaStateId, input: &[u8]) -> SfaStateId {
        use std::arch::x86_64::*;
        const BLOCK: usize = 64;
        let cols = self.cols.as_ptr();
        // All 16 lanes carry the same (valid, < 16) state id, so the
        // shuffle result is again a broadcast state: `pshufb` picks
        // `cols[b][state]` into every lane.
        let mut v = _mm_set1_epi8(state as i8);
        let mut i = 0;
        while i + BLOCK <= input.len() {
            for &b in &input[i..i + BLOCK] {
                // SAFETY: `(b as usize) << 4` is at most 255 * 16 and
                // `cols` holds 256 * 16 bytes, so the 16-byte load is in
                // bounds. No alignment requirement (`loadu`).
                let col = _mm_loadu_si128(cols.add((b as usize) << 4) as *const __m128i);
                v = _mm_shuffle_epi8(col, v);
            }
            i += BLOCK;
            let s = (_mm_cvtsi128_si32(v) & 0xFF) as usize;
            if sink[s] {
                return s as SfaStateId;
            }
        }
        // Tail: scalar steps through the same column table.
        let mut f = (_mm_cvtsi128_si32(v) & 0xFF) as SfaStateId;
        for &b in &input[i..] {
            let next = self.cols[((b as usize) << 4) + f as usize] as SfaStateId;
            if next != f {
                f = next;
                if sink[f as usize] {
                    return f;
                }
            }
        }
        f
    }
}

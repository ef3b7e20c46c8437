//! Explicit-SIMD transition kernels for the eager D-SFA (feature `simd`).
//!
//! Two kernels, picked at runtime per automaton shape and CPU:
//!
//! * **Shuffle** (SSSE3 `pshufb`): for `u8`-repr automata with at most 16
//!   live states the premultiplied byte table is transposed into 256
//!   16-byte *columns* — `cols[b]` holds `δ(s, b)` for every state `s` —
//!   and one `_mm_shuffle_epi8(cols[b], v)` advances the scan. The column
//!   load depends only on the input byte, never on the current state, so
//!   the dependent-load chain of the scalar walk collapses to one
//!   register-to-register shuffle per byte (~1 byte/cycle instead of one
//!   L1 latency per byte).
//! * **Gather** (AVX2 `vpgatherdd`): for any premultiplied automaton,
//!   [`GATHER_LANES`] independent input lanes advance per iteration with
//!   one vector gather — the table loads of all lanes are issued at once,
//!   so a cache-missing table (the 16 384-state window workload) is hit at
//!   memory-level-parallelism bandwidth instead of serial miss latency.
//!
//! Kernels are built lazily on first use (see `DSfa::run_from`) and only
//! when the CPU supports them — the scalar loops in `dsfa` remain the
//! mandatory fallback and the semantic reference: every kernel returns
//! exactly the state the scalar scan would. The gather kernel reads the
//! automaton's byte table in place, whether the automaton owns it or
//! borrows it from an artifact (see [`crate::table`]); the shuffle kernel
//! works from a 4 KiB transposed copy.

use crate::dsfa::{SfaStateId, StateIdRepr};

/// Lanes advanced per gather iteration (one AVX2 register of `i32` ids).
pub(crate) const GATHER_LANES: usize = 8;

/// Largest automaton the 16-wide `pshufb` shuffle kernel can address.
pub(crate) const SHUFFLE_MAX_STATES: usize = 16;

/// Input bytes scanned between all-lanes-in-sink checks of the gather
/// kernel. Sinks self-loop, so overshooting a sink entry by at most this
/// many bytes is harmless — the check only bounds wasted work on
/// synchronizing inputs.
const SINK_CHECK_BYTES: usize = 512;

/// The SIMD kernel selected for one automaton (mutually exclusive: an
/// automaton that qualifies for the shuffle kernel never uses gather).
#[derive(Clone, Debug)]
pub(crate) enum SimdKernels {
    /// 16-state `pshufb` kernel over a column-major table copy.
    Shuffle(ShuffleKernel),
    /// Multi-lane `vpgatherdd` kernel over the byte table itself (see
    /// [`gather_lanes`]).
    Gather,
}

/// Whether [`gather_lanes`] may run on `table`: a dword gather of the
/// last entry reads `4 - width` bytes past the table's end, so the slice
/// (the byte table followed by the rest of its buffer) must extend that
/// far.
fn gather_fits(repr: StateIdRepr, table: &[u8], num_states: usize) -> bool {
    let w = repr.bytes();
    table.len() >= num_states * 256 * w + (4 - w)
}

/// Which kernel [`SimdKernels::build`] would select for this table shape
/// on this CPU: `"shuffle"`, `"gather"` or `"scalar"`. Pure
/// classification — no tables are copied — so size reporting can name the
/// kernel without paying for it. `dense` is the premultiplied byte table
/// followed by the rest of its buffer, `None` without one.
pub(crate) fn kernel_name(
    repr: StateIdRepr,
    dense: Option<&[u8]>,
    num_states: usize,
) -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        match dense {
            Some(_)
                if repr == StateIdRepr::U8
                    && num_states <= SHUFFLE_MAX_STATES
                    && std::arch::is_x86_feature_detected!("ssse3") =>
            {
                "shuffle"
            }
            Some(t)
                if gather_fits(repr, t, num_states)
                    && std::arch::is_x86_feature_detected!("avx2") =>
            {
                "gather"
            }
            _ => "scalar",
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (repr, dense, num_states);
        "scalar"
    }
}

impl SimdKernels {
    /// Builds the kernel [`kernel_name`] names, or `None` when only the
    /// scalar loops apply (no premultiplied table, unsupported CPU, or a
    /// non-x86_64 target).
    pub(crate) fn build(
        repr: StateIdRepr,
        dense: Option<&[u8]>,
        num_states: usize,
    ) -> Option<SimdKernels> {
        match (dense, kernel_name(repr, dense, num_states)) {
            (Some(t), "shuffle") => Some(SimdKernels::Shuffle(ShuffleKernel::build(t, num_states))),
            (Some(_), "gather") => Some(SimdKernels::Gather),
            _ => None,
        }
    }
}

/// The SSSE3 shuffle kernel: a 4 KiB column-major transpose of the
/// premultiplied byte table, `cols[b * 16 + s] = δ(s, b)`.
#[derive(Clone, Debug)]
pub(crate) struct ShuffleKernel {
    cols: Box<[u8]>,
}

impl ShuffleKernel {
    fn build(byte_table: &[u8], num_states: usize) -> ShuffleKernel {
        debug_assert!(num_states <= SHUFFLE_MAX_STATES);
        let mut cols = vec![0u8; 256 * SHUFFLE_MAX_STATES];
        for s in 0..num_states {
            for b in 0..256 {
                cols[b * SHUFFLE_MAX_STATES + s] = byte_table[s * 256 + b];
            }
        }
        ShuffleKernel { cols: cols.into_boxed_slice() }
    }

    /// Scans `input` from `state`, returning exactly what the scalar
    /// dense loop would (including the sink early exit, checked once per
    /// 64-byte block — a sink self-loops, so overshooting inside a block
    /// cannot change the result).
    pub(crate) fn run(&self, sink: &[bool], state: SfaStateId, input: &[u8]) -> SfaStateId {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: the kernel is only built after `is_x86_feature_detected!`
            // confirmed SSSE3 (see `kernel_name`).
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

/// The AVX2 gather kernel: advances all [`GATHER_LANES`] lanes over the
/// first `common` bytes of their inputs, exactly like the scalar
/// `scan_dense_lanes` (no per-byte sink branch; every
/// [`SINK_CHECK_BYTES`] the kernel stops early if *all* lanes sit in
/// sinks).
///
/// `table` is the premultiplied byte table at width `repr`, followed by
/// the rest of its buffer; `sink` has one entry per state. The lookups
/// gather straight from `table`: a dword read at `table + index × width`
/// whose upper bytes are masked off for the narrow widths.
///
/// # Safety
/// Every entry of the byte table must be a valid state id (less than
/// `sink.len()`), so each gathered index stays inside the table.
/// [`DSfa`](crate::DSfa) guarantees it by construction for compiled tables
/// and by validation for loaded ones. The start states and the table's
/// length are checked here.
#[allow(unsafe_code)]
pub(crate) unsafe fn gather_lanes(
    repr: StateIdRepr,
    table: &[u8],
    sink: &[bool],
    f: &mut [SfaStateId; GATHER_LANES],
    inputs: &[&[u8]; GATHER_LANES],
    common: usize,
) {
    // The bounds every gathered dword relies on: start states are valid
    // ids, and the table (plus tail) covers the last entry's dword.
    assert!(gather_fits(repr, table, sink.len()), "gather table is missing its tail");
    assert!(f.iter().all(|&s| (s as usize) < sink.len()), "gather start state out of range");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the kernel is only selected after
        // `is_x86_feature_detected!` confirmed AVX2; the assertions above
        // and the caller's valid table entries bound every gathered
        // address (see `gather`).
        #[allow(unsafe_code)]
        unsafe {
            match repr {
                StateIdRepr::U8 => gather::<1>(table, sink, f, inputs, common),
                StateIdRepr::U16 => gather::<2>(table, sink, f, inputs, common),
                StateIdRepr::U32 => gather::<4>(table, sink, f, inputs, common),
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (inputs, common);
        unreachable!("gather kernel is only built on x86_64")
    }
}

/// One monomorphic gather loop per table width `SCALE` (bytes per entry).
///
/// # Safety
/// Caller detected AVX2 at runtime and checked the bounds in
/// [`gather_lanes`]. Every gathered index is `state * 256 + byte` with
/// `state` a valid id, so each dword read starts inside the table and
/// ends at most `4 - SCALE` bytes past it, inside `table`'s tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn gather<const SCALE: i32>(
    table: &[u8],
    sink: &[bool],
    f: &mut [SfaStateId; GATHER_LANES],
    inputs: &[&[u8]; GATHER_LANES],
    common: usize,
) {
    use std::arch::x86_64::*;
    // Strips the neighboring table bytes a dword gather drags in for the
    // narrow widths (all ones for `u32`).
    let mask = _mm256_set1_epi32((u32::MAX >> (32 - 8 * SCALE)) as i32);
    let base = table.as_ptr() as *const i32;
    #[allow(clippy::cast_possible_wrap)]
    let mut states = _mm256_set_epi32(
        f[7] as i32,
        f[6] as i32,
        f[5] as i32,
        f[4] as i32,
        f[3] as i32,
        f[2] as i32,
        f[1] as i32,
        f[0] as i32,
    );
    let mut j = 0;
    while j < common {
        let stop = (j + SINK_CHECK_BYTES).min(common);
        while j < stop {
            let bytes = _mm256_set_epi32(
                inputs[7][j] as i32,
                inputs[6][j] as i32,
                inputs[5][j] as i32,
                inputs[4][j] as i32,
                inputs[3][j] as i32,
                inputs[2][j] as i32,
                inputs[1][j] as i32,
                inputs[0][j] as i32,
            );
            let idx = _mm256_add_epi32(_mm256_slli_epi32::<8>(states), bytes);
            states = _mm256_and_si256(_mm256_i32gather_epi32::<SCALE>(base, idx), mask);
            j += 1;
        }
        let mut ids = [0i32; GATHER_LANES];
        _mm256_storeu_si256(ids.as_mut_ptr() as *mut __m256i, states);
        for (lane, &id) in ids.iter().enumerate() {
            f[lane] = id as SfaStateId;
        }
        // All lanes in sinks: no further byte can move any of them, so
        // the remaining `common - j` bytes are no-ops.
        if f.iter().all(|&s| sink[s as usize]) {
            return;
        }
    }
}

//! Splitting the input text into per-thread chunks.
//!
//! Theorem 3 of the paper: the computation of an SFA can be decomposed at
//! *any* division of the input word, so the matcher simply cuts the text
//! into `p` contiguous, nearly equal chunks — exactly what the paper's
//! pthread implementation does with its static partitioning.
//!
//! The same splitter is applied a *second* time inside each worker when
//! the plan carries an interleave lane count
//! ([`ChunkPlan::lanes`](crate::pool::ChunkPlan::lanes) > 1): the
//! worker's chunk is cut into `L` sub-chunks that advance in lockstep
//! through one batched scan, hiding transition-table load latency
//! (scalar) or filling SIMD gather lanes.

/// Splits `input` into at most `chunks` contiguous slices of nearly equal
/// length (the first `len % chunks` slices are one byte longer).
///
/// Fewer slices are returned when the input is shorter than the requested
/// chunk count; an empty input yields a single empty slice so that callers
/// always have at least one unit of work. A `chunks` of `0` is treated as
/// `1` — the [crate-wide `0 ⇒ 1` clamp](crate) (see "The `0 ⇒ 1`
/// parallelism clamp" in the crate docs).
pub fn split_chunks(input: &[u8], chunks: usize) -> Vec<&[u8]> {
    let chunks = chunks.max(1);
    if input.is_empty() {
        return vec![input];
    }
    let count = chunks.min(input.len());
    let base = input.len() / count;
    let extra = input.len() % count;
    let mut out = Vec::with_capacity(count);
    let mut start = 0;
    for i in 0..count {
        let len = base + usize::from(i < extra);
        out.push(&input[start..start + len]);
        start += len;
    }
    debug_assert_eq!(start, input.len());
    out
}

/// Like [`split_chunks`] but returns `(offset, slice)` pairs.
pub fn split_chunks_with_offsets(input: &[u8], chunks: usize) -> Vec<(usize, &[u8])> {
    let mut offset = 0;
    split_chunks(input, chunks)
        .into_iter()
        .map(|chunk| {
            let entry = (offset, chunk);
            offset += chunk.len();
            entry
        })
        .collect()
}

/// Like [`split_chunks_with_offsets`], but nudges every interior chunk
/// boundary forward to sit just *after* the first likely-synchronizing
/// byte (per `is_sync`) within `window` bytes of the even split point.
///
/// Theorem 3 makes any split correct; this one is merely *faster* for the
/// convergence-guided speculative matcher: a chunk that begins right
/// after a synchronizing byte has a minimal entry set (see
/// `sfa_analysis::ConvergenceReport::is_synchronizing_byte`), so the
/// downstream worker simulates from almost nothing instead of from every
/// survivor. Boundaries never move past the following chunk's territory
/// (each nudge is capped one byte short of the next split point), so the
/// result is always at most `chunks` non-empty contiguous slices covering
/// the input exactly — the same contract as [`split_chunks`].
pub fn split_chunks_guided<F>(
    input: &[u8],
    chunks: usize,
    window: usize,
    is_sync: F,
) -> Vec<(usize, &[u8])>
where
    F: Fn(u8) -> bool,
{
    let even = split_chunks_with_offsets(input, chunks);
    if even.len() <= 1 {
        return even;
    }
    // Nudge each interior boundary: boundary b covers input[b - 1] as the
    // previous chunk's last byte, so searching j ∈ [b-1, …] for a sync
    // byte and cutting at j + 1 puts that byte *behind* the boundary.
    let mut bounds: Vec<usize> = Vec::with_capacity(even.len() + 1);
    bounds.push(0);
    for w in even.windows(2) {
        bounds.push(w[1].0);
    }
    bounds.push(input.len());
    for i in 1..bounds.len() - 1 {
        let b = bounds[i];
        let next = bounds[i + 1];
        // Keep the next chunk non-empty (≤ next - 2 ⇒ new boundary ≤
        // next - 1) and stay inside the input.
        let hi = (b - 1 + window).min(next.saturating_sub(2)).min(input.len() - 2);
        if hi < b - 1 {
            continue;
        }
        if let Some(offset) = input[b - 1..=hi].iter().position(|&byte| is_sync(byte)) {
            bounds[i] = b + offset;
        }
    }
    debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "boundaries stay strictly increasing");
    bounds.windows(2).map(|w| (w[0], &input[w[0]..w[1]])).collect()
}

/// Packs consecutive items into groups bounded by total size: each
/// returned range covers adjacent indices of `sizes` whose sum stays
/// within `max_bytes`, and a group is only closed at a multiple of
/// `lanes` items. An item larger than `max_bytes` on its own gets a
/// singleton group when `lanes` is 1 (it is never split — callers that
/// need to cut a single oversized item use [`split_chunks`] on it
/// instead). The ranges partition `0..sizes.len()` in order; an empty
/// `sizes` yields no groups.
///
/// This is the batch dual of [`split_chunks`]: instead of cutting one
/// large input into per-worker chunks, it glues many small work items
/// into per-worker jobs big enough to amortize a pool hand-off. A packed
/// group of small haystacks is a ready-made batch for the interleaved
/// `run_from_many` scan (each item is its own lane), and backends that
/// interleave `lanes` independent inputs per scan (the SIMD gather
/// kernels walk [`INTERLEAVE_LANES`] haystacks in lockstep) only engage
/// the wide kernel on full lane groups — byte-balanced groups that
/// strand one or two items at the tail of *every* group would keep such
/// batches on the scalar remainder path. So every group except possibly
/// the last carries full lane complements, and the byte bound becomes
/// soft by up to `lanes − 1` items: a group may overshoot `max_bytes`
/// while filling out its lane complement. A `lanes` of `0` is treated as
/// `1` (the [crate-wide `0 ⇒ 1` clamp](crate)).
///
/// [`INTERLEAVE_LANES`]: sfa_core::dsfa::INTERLEAVE_LANES
pub fn pack_by_bytes_lanes(
    sizes: &[usize],
    max_bytes: usize,
    lanes: usize,
) -> Vec<std::ops::Range<usize>> {
    let lanes = lanes.max(1);
    let mut groups = Vec::new();
    let mut start = 0;
    let mut total = 0usize;
    for (i, &size) in sizes.iter().enumerate() {
        if i > start && (i - start) % lanes == 0 && total + size > max_bytes {
            groups.push(start..i);
            start = i;
            total = 0;
        }
        total += size;
    }
    if start < sizes.len() {
        groups.push(start..sizes.len());
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reassemble(chunks: &[&[u8]]) -> Vec<u8> {
        chunks.iter().flat_map(|c| c.iter().copied()).collect()
    }

    #[test]
    fn chunks_cover_input_exactly() {
        let input: Vec<u8> = (0..=255u8).collect();
        for p in [1usize, 2, 3, 7, 12, 100, 256, 1000] {
            let chunks = split_chunks(&input, p);
            assert_eq!(reassemble(&chunks), input, "p = {}", p);
            assert!(chunks.len() <= p);
            assert!(chunks.iter().all(|c| !c.is_empty()));
        }
    }

    #[test]
    fn chunk_sizes_are_balanced() {
        let input = vec![0u8; 1003];
        let chunks = split_chunks(&input, 4);
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![251, 251, 251, 250]);
    }

    #[test]
    fn empty_input_yields_single_empty_chunk() {
        let chunks = split_chunks(b"", 8);
        assert_eq!(chunks.len(), 1);
        assert!(chunks[0].is_empty());
    }

    #[test]
    fn more_chunks_than_bytes() {
        let chunks = split_chunks(b"abc", 16);
        assert_eq!(chunks.len(), 3);
        assert_eq!(reassemble(&chunks), b"abc");
    }

    #[test]
    fn zero_chunks_treated_as_one() {
        let chunks = split_chunks(b"xyz", 0);
        assert_eq!(chunks, vec![&b"xyz"[..]]);
    }

    #[test]
    fn pack_by_bytes_partitions_in_order() {
        let pack = |sizes: &[usize], bound| pack_by_bytes_lanes(sizes, bound, 1);
        // Groups close when the next item would overflow the bound.
        let sizes = [100, 100, 100, 100, 100];
        assert_eq!(pack(&sizes, 250), vec![0..2, 2..4, 4..5]);
        // An oversized item gets its own group without splitting, and
        // never drags its neighbors past the bound.
        let sizes = [10, 5000, 10, 10];
        assert_eq!(pack(&sizes, 100), vec![0..1, 1..2, 2..4]);
        // One giant item alone.
        assert_eq!(pack(&[9999], 10), vec![0..1]);
        // Everything fits in one group.
        assert_eq!(pack(&[1, 2, 3], 100), vec![0..3]);
        // Zero-size items pack densely; empty input yields no groups.
        assert_eq!(pack(&[0, 0, 0], 0), vec![0..3]);
        assert_eq!(pack(&[], 100), Vec::<std::ops::Range<usize>>::new());
    }

    #[test]
    fn lane_packing_closes_groups_on_lane_multiples() {
        // lanes = 4: the byte bound (250) would close after two items,
        // but the group only closes at the next multiple of 4.
        let sizes = [100, 100, 100, 100, 100];
        assert_eq!(pack_by_bytes_lanes(&sizes, 250, 4), vec![0..4, 4..5]);

        // Exactly-full lane groups close on the bound like before.
        let sizes = [100; 8];
        assert_eq!(pack_by_bytes_lanes(&sizes, 400, 4), vec![0..4, 4..8]);

        // lanes = 0 is clamped to 1, and the partition property holds for
        // every (bound, lanes) combination.
        let sizes = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        assert_eq!(pack_by_bytes_lanes(&sizes, 7, 0), pack_by_bytes_lanes(&sizes, 7, 1));
        for bound in [1, 7, 50, 1000] {
            for lanes in [1, 2, 4, 8] {
                let groups = pack_by_bytes_lanes(&sizes, bound, lanes);
                let mut covered = Vec::new();
                for g in &groups {
                    covered.extend(g.clone());
                }
                // Every group but the last is a full lane complement.
                for g in &groups[..groups.len() - 1] {
                    assert_eq!(g.len() % lanes, 0, "bound {bound} lanes {lanes} group {g:?}");
                }
                assert_eq!(covered, (0..sizes.len()).collect::<Vec<_>>(), "bound {bound}");
            }
        }
    }

    #[test]
    fn guided_split_nudges_boundaries_after_sync_bytes() {
        // Sync byte = b'.'. The even 2-way split of 10 bytes cuts at 5;
        // the '.' at index 6 is within the window, so the boundary moves
        // to 7 (just past it).
        let input = b"abcabc.abc";
        let got = split_chunks_guided(input, 2, 8, |b| b == b'.');
        assert_eq!(got, vec![(0, &b"abcabc."[..]), (7, &b"abc"[..])]);
        // No sync byte in the window: the even split stands.
        let got = split_chunks_guided(input, 2, 8, |b| b == b'!');
        assert_eq!(got, vec![(0, &b"abcab"[..]), (5, &b"c.abc"[..])]);
        // A sync byte right past the even split moves the cut one byte.
        let got = split_chunks_guided(b"abcde.fgh", 2, 1, |b| b == b'.');
        assert_eq!(got[1].0, 6);
    }

    #[test]
    fn guided_split_keeps_the_split_contract() {
        let input: Vec<u8> = (0..=255u8).cycle().take(1003).collect();
        for p in [1usize, 2, 3, 7, 12, 100, 1000, 1003, 5000] {
            for window in [0usize, 1, 7, 64, 10_000] {
                // An adversarial predicate that fires on most bytes.
                let got = split_chunks_guided(&input, p, window, |b| b % 3 == 0);
                let reassembled: Vec<u8> =
                    got.iter().flat_map(|(_, c)| c.iter().copied()).collect();
                assert_eq!(reassembled, input, "p={p} window={window}");
                assert!(got.len() <= p.max(1));
                assert!(got.iter().all(|(_, c)| !c.is_empty()));
                let mut offset = 0;
                for (o, c) in &got {
                    assert_eq!(*o, offset);
                    offset += c.len();
                }
            }
        }
        // Degenerate inputs fall back to the plain splitter.
        assert_eq!(split_chunks_guided(b"", 4, 8, |_| true), vec![(0, &b""[..])]);
        assert_eq!(split_chunks_guided(b"x", 4, 8, |_| true), vec![(0, &b"x"[..])]);
    }

    #[test]
    fn offsets_are_cumulative() {
        let input = b"abcdefghij";
        let chunks = split_chunks_with_offsets(input, 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], (0, &b"abcd"[..]));
        assert_eq!(chunks[1], (4, &b"efg"[..]));
        assert_eq!(chunks[2], (7, &b"hij"[..]));
    }
}

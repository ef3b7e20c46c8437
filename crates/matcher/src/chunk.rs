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
//! through one batched scan, hiding transition-table load latency.

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
/// interleave `lanes` independent inputs per scan (the scalar lockstep
/// walk advances [`INTERLEAVE_LANES`] haystacks at once) only engage
/// the interleaved walk on full lane groups — byte-balanced groups that
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
}

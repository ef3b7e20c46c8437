//! Multi-literal prefilter: a byte-class-compressed Aho–Corasick scanner
//! that maps haystacks to the set of *tags* whose literals occur.
//!
//! A sharded [`RegexSet`](crate::RegexSet) attaches one tag per *gated*
//! shard — a shard whose every rule has a
//! [required literal](sfa_regex_syntax::required_literals). Scanning the
//! haystack once through the prefilter tells the set which shards can
//! possibly match; the remaining shards' automata are never consulted.
//! On rule-scanning workloads, where most bytes are benign, most bytes
//! therefore touch no DFA at all: the prefilter spends its time in a
//! root-state skip loop over bytes that occur in no literal.
//!
//! The automaton is the textbook construction (goto trie, BFS failure
//! links, outputs merged along suffix links) DFA-ified into a dense
//! next-state table — but over *compressed byte classes*: each distinct
//! byte occurring in some literal gets its own class and every other
//! byte shares one catch-all class, so the table is
//! `nodes × (distinct bytes + 1)` instead of `nodes × 256`. When the
//! literals use all 256 byte values there is no catch-all class.
//!
//! The table is *premultiplied*: an entry holds its target node's row
//! offset (`node × classes`), so one step is one add and one load. The
//! nodes are renumbered after the BFS so that every node with outputs
//! comes after every node without. The scan then spots an output with
//! one compare of the offset against the first output row, and touches
//! the output lists only on a hit.

/// The missing-child sentinel in the goto trie during construction.
const NONE: u32 = u32::MAX;

/// A compiled multi-literal scanner; see the [module docs](self).
///
/// Each literal carries a `u32` tag (shard ids, in the sharded-set use);
/// several literals may share a tag, and [`Prefilter::find`] reports the
/// set of tags with at least one occurring literal.
#[derive(Clone, Debug)]
pub struct Prefilter {
    /// Byte → class; bytes in no literal share class 0, unless every
    /// byte value occurs in some literal and each has a class of its own.
    classes: [u8; 256],
    /// Byte → "the root loops on it": no literal *starts* with this byte,
    /// so at the root it can be skipped without a table lookup — a
    /// strictly larger set than the catch-all class (bytes occurring only
    /// in literal middles/ends also loop on the root).
    root_skip: [bool; 256],
    num_classes: usize,
    /// Dense DFA table, `offset + class` → the target's row offset, where
    /// a node's offset is `node * num_classes`. The root is node 0.
    next: Vec<u32>,
    /// The row offset of the first node with outputs: every node at or
    /// past it has some.
    first_output: usize,
    /// Tags completed at each node from `first_output` on (own + along
    /// failure links), deduped.
    outputs: Vec<Vec<u32>>,
    /// Tags of empty literals: they occur in every haystack.
    always: Vec<u32>,
    literals: usize,
    tags: usize,
}

impl Prefilter {
    /// Compiles `literals` — `(needle, tag)` pairs — into a scanner.
    ///
    /// An empty needle occurs in every haystack (its tag is always
    /// reported); an empty `literals` list yields a scanner that reports
    /// nothing.
    pub fn new<I>(literals: I) -> Prefilter
    where
        I: IntoIterator<Item = (Vec<u8>, u32)>,
    {
        let mut always = Vec::new();
        let needles: Vec<(Vec<u8>, u32)> = literals
            .into_iter()
            .filter(|(lit, tag)| {
                if lit.is_empty() {
                    always.push(*tag);
                    false
                } else {
                    true
                }
            })
            .collect();
        always.sort_unstable();
        always.dedup();

        // Classes in order of first occurrence, after the catch-all class
        // 0 when some byte value occurs in no literal.
        let mut seen = [false; 256];
        let mut distinct = Vec::new();
        for &b in needles.iter().flat_map(|(lit, _)| lit) {
            if !std::mem::replace(&mut seen[b as usize], true) {
                distinct.push(b);
            }
        }
        let catch_all = usize::from(distinct.len() < 256);
        let mut classes = [0u8; 256];
        for (class, &b) in distinct.iter().enumerate() {
            classes[b as usize] = (class + catch_all) as u8;
        }
        let num_classes = distinct.len() + catch_all;

        // Goto trie over classes. Node 0 is the root.
        let mut goto: Vec<Vec<u32>> = vec![vec![NONE; num_classes]];
        let mut outputs: Vec<Vec<u32>> = vec![Vec::new()];
        for (lit, tag) in &needles {
            let mut node = 0usize;
            for &b in lit {
                let c = classes[b as usize] as usize;
                if goto[node][c] == NONE {
                    goto[node][c] = goto.len() as u32;
                    goto.push(vec![NONE; num_classes]);
                    outputs.push(Vec::new());
                }
                node = goto[node][c] as usize;
            }
            outputs[node].push(*tag);
        }

        // BFS: failure links + DFA-ification + output merging, in one
        // pass (parents are finalized before their children enqueue).
        let nodes = goto.len();
        let mut next = vec![0u32; nodes * num_classes];
        let mut fail = vec![0u32; nodes];
        let mut queue = std::collections::VecDeque::new();
        for c in 0..num_classes {
            let child = goto[0][c];
            if child != NONE {
                next[c] = child;
                queue.push_back(child);
            }
        }
        while let Some(u) = queue.pop_front() {
            let (u, f) = (u as usize, fail[u as usize] as usize);
            let merged: Vec<u32> = outputs[f].clone();
            let out = &mut outputs[u];
            out.extend(merged);
            out.sort_unstable();
            out.dedup();
            for c in 0..num_classes {
                let child = goto[u][c];
                let via_fail = next[f * num_classes + c];
                if child == NONE {
                    next[u * num_classes + c] = via_fail;
                } else {
                    next[u * num_classes + c] = child;
                    fail[child as usize] = via_fail;
                    queue.push_back(child);
                }
            }
        }
        drop(goto);

        // Renumber in place, so no second table is allocated: swap nodes
        // with outputs from the front with nodes without from the back
        // until every node with outputs comes last. The root stays node 0,
        // as it has no outputs (empty needles were taken out). Then
        // premultiply every entry.
        assert!(next.len() <= u32::MAX as usize, "prefilter table exceeds u32 offsets");
        let mut renumbered: Vec<u32> = (0..nodes as u32).collect();
        let (mut plain, mut end) = (0, nodes);
        loop {
            while plain < end && outputs[plain].is_empty() {
                plain += 1;
            }
            while plain < end && !outputs[end - 1].is_empty() {
                end -= 1;
            }
            if plain == end {
                break;
            }
            end -= 1;
            let (front, back) = next.split_at_mut(end * num_classes);
            front[plain * num_classes..][..num_classes].swap_with_slice(&mut back[..num_classes]);
            outputs.swap(plain, end);
            renumbered.swap(plain, end);
        }
        for entry in &mut next {
            *entry = renumbered[*entry as usize] * num_classes as u32;
        }
        let outputs = outputs.split_off(plain);

        let tags = needles
            .iter()
            .map(|&(_, t)| t)
            .chain(always.iter().copied())
            .map(|t| t as usize + 1)
            .max()
            .unwrap_or(0);
        let literals = needles.len() + always.len();
        let mut root_skip = [false; 256];
        for (b, skip) in root_skip.iter_mut().enumerate() {
            *skip = next[classes[b] as usize] == 0;
        }
        Prefilter {
            classes,
            root_skip,
            num_classes,
            next,
            first_output: plain * num_classes,
            outputs,
            always,
            literals,
            tags,
        }
    }

    /// The number of literals compiled in (empty ones included).
    pub fn literal_count(&self) -> usize {
        self.literals
    }

    /// The tag universe: one more than the largest tag, 0 when empty.
    pub fn tag_count(&self) -> usize {
        self.tags
    }

    /// The number of DFA nodes (the trie plus the root).
    pub fn node_count(&self) -> usize {
        self.next.len() / self.num_classes
    }

    /// Heap footprint of the transition table, in bytes.
    pub fn table_bytes(&self) -> usize {
        self.next.len() * std::mem::size_of::<u32>()
    }

    /// The sorted tags whose literals occur in `haystack`.
    pub fn find(&self, haystack: &[u8]) -> Vec<u32> {
        let mut active = vec![false; self.tags];
        self.scan_into(haystack, &mut active);
        (0..self.tags as u32).filter(|&t| active[t as usize]).collect()
    }

    /// Marks `active[tag] = true` for every tag whose literals occur in
    /// `haystack`, early-exiting once every tag in `active` is marked.
    /// `active.len()` must be at least [`Self::tag_count`]. Returns how
    /// many tags this scan *newly* marked — 0 means the haystack added
    /// nothing over the incoming marks.
    pub(crate) fn scan_into(&self, haystack: &[u8], active: &mut [bool]) -> usize {
        let mut marked = 0usize;
        for &t in &self.always {
            if !active[t as usize] {
                active[t as usize] = true;
                marked += 1;
            }
        }
        let mut remaining = active.iter().filter(|&&a| !a).count();
        if remaining == 0 || self.outputs.is_empty() {
            return marked;
        }
        let first_output = self.first_output;
        let mut state = 0usize;
        let mut i = 0;
        while i < haystack.len() {
            if state == 0 {
                // Root fast path: bytes no literal starts with loop on
                // the root, so skip them without touching the table —
                // 8-wide and branchless per block, so the common "benign
                // stretch" case retires several bytes per cycle.
                let t = &self.root_skip;
                while i + 8 <= haystack.len() {
                    let all = t[haystack[i] as usize]
                        & t[haystack[i + 1] as usize]
                        & t[haystack[i + 2] as usize]
                        & t[haystack[i + 3] as usize]
                        & t[haystack[i + 4] as usize]
                        & t[haystack[i + 5] as usize]
                        & t[haystack[i + 6] as usize]
                        & t[haystack[i + 7] as usize];
                    if !all {
                        break;
                    }
                    i += 8;
                }
                while i < haystack.len() && t[haystack[i] as usize] {
                    i += 1;
                }
                if i >= haystack.len() {
                    return marked;
                }
            }
            state = self.next[state + self.classes[haystack[i] as usize] as usize] as usize;
            if state >= first_output {
                for &tag in &self.outputs[(state - first_output) / self.num_classes] {
                    if !active[tag as usize] {
                        active[tag as usize] = true;
                        marked += 1;
                        remaining -= 1;
                    }
                }
                if remaining == 0 {
                    return marked;
                }
            }
            i += 1;
        }
        marked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn filter(lits: &[(&str, u32)]) -> Prefilter {
        Prefilter::new(lits.iter().map(|&(l, t)| (l.as_bytes().to_vec(), t)))
    }

    #[test]
    fn classic_overlapping_needles() {
        // The textbook Aho–Corasick example: suffix links must fire
        // `he` inside `she` and `his`/`hers` around it.
        let p = filter(&[("he", 0), ("she", 1), ("his", 2), ("hers", 3)]);
        assert_eq!(p.find(b"ushers"), vec![0, 1, 3]);
        assert_eq!(p.find(b"this"), vec![2]);
        // a[his]hers also contains s-h-e across the seam: all four fire.
        assert_eq!(p.find(b"ahishers"), vec![0, 1, 2, 3]);
        assert_eq!(p.find(b"nothing of note"), Vec::<u32>::new());
    }

    #[test]
    fn shared_tags_and_gaps() {
        let p = filter(&[("select", 7), ("union", 7), ("attack", 2)]);
        assert_eq!(p.find(b"a union of attackers"), vec![2, 7]);
        assert_eq!(p.find(b"s-e-l-e-c-t"), Vec::<u32>::new());
        assert_eq!(p.tag_count(), 8);
        assert_eq!(p.literal_count(), 3);
    }

    #[test]
    fn needle_split_across_nothing_matches_only_contiguous() {
        let p = filter(&[("abc", 0)]);
        assert_eq!(p.find(b"ab c abc"), vec![0]);
        assert_eq!(p.find(b"ab cab c"), Vec::<u32>::new());
        assert_eq!(p.find(b""), Vec::<u32>::new());
    }

    #[test]
    fn empty_needle_always_fires() {
        let p = filter(&[("", 1), ("xyz", 0)]);
        assert_eq!(p.find(b""), vec![1]);
        assert_eq!(p.find(b"wxyz"), vec![0, 1]);
    }

    #[test]
    fn empty_prefilter_reports_nothing() {
        let p = Prefilter::new(Vec::<(Vec<u8>, u32)>::new());
        assert_eq!(p.find(b"anything"), Vec::<u32>::new());
        assert_eq!(p.tag_count(), 0);
        assert_eq!(p.table_bytes(), 4, "just the root over the catch-all class");
    }

    #[test]
    fn scan_into_respects_already_active_tags() {
        let p = filter(&[("aa", 0), ("bb", 1)]);
        let mut active = vec![true, false];
        assert_eq!(p.scan_into(b"xxbbxx", &mut active), 1, "only `bb` is newly marked");
        assert_eq!(active, vec![true, true]);
        // All-active: the early exit must not clear anything.
        let mut active = vec![true, true];
        assert_eq!(p.scan_into(b"no needles here", &mut active), 0);
        assert_eq!(active, vec![true, true]);
    }

    #[test]
    fn high_bytes_and_class_compression() {
        let p = Prefilter::new(vec![(vec![0xFF, 0x00, 0xFF], 0)]);
        assert_eq!(p.find(&[0x01, 0xFF, 0x00, 0xFF, 0x02]), vec![0]);
        assert_eq!(p.find(&[0xFF, 0x00, 0x00, 0xFF]), Vec::<u32>::new());
        // Two distinct bytes + the catch-all class.
        assert_eq!(p.table_bytes(), p.node_count() * 3 * 4);
    }

    #[test]
    fn every_byte_value_gets_its_own_class() {
        // 255 literals `b b` (0x00–0xFE) and two led by 0xFF use all 256
        // byte values, so no byte is left for a catch-all class.
        let mut lits: Vec<(Vec<u8>, u32)> = (0..=0xFE).map(|b| (vec![b, b], b as u32)).collect();
        lits.push((vec![0xFF, 0x41], 255));
        lits.push((vec![0xFF, 0xFF, 0x7A], 256));
        let p = Prefilter::new(lits);
        assert_eq!(p.table_bytes(), p.node_count() * 256 * 4);
        assert_eq!(p.find(&[0x00, 0x41]), Vec::<u32>::new());
        assert_eq!(p.find(&[0xFF, 0xFF, 0x7A]), vec![256]);
        assert_eq!(p.find(&[0x00, 0x00, 0xFF, 0x41]), vec![0, 255]);
        assert_eq!(p.find(&[0x7A, 0x41, 0xFE]), Vec::<u32>::new());
    }

    #[test]
    fn long_benign_stretch_exercises_the_root_skip() {
        let mut hay = vec![b'.'; 1 << 16];
        hay.extend_from_slice(b"needle");
        hay.extend(vec![b'.'; 1 << 16]);
        let p = filter(&[("needle", 0)]);
        assert_eq!(p.find(&hay), vec![0]);
    }

    /// A drawn string as bytes: `a`–`d` stand for themselves, `x`, `y`
    /// and `z` for the high bytes 0x80, 0xFE and 0xFF.
    fn bytes(s: &str) -> Vec<u8> {
        s.bytes()
            .map(|b| match b {
                b'x' => 0x80,
                b'y' => 0xFE,
                b'z' => 0xFF,
                b => b,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `find` reports exactly the tags of the literals a naive search
        /// finds, and `scan_into` over marks already set returns the number
        /// of tags it newly marked. Literals share tags, may be empty, and
        /// end on renumbered output nodes; haystacks also hold `d`, which
        /// no literal uses.
        #[test]
        fn find_agrees_with_a_naive_search(
            drawn in prop::collection::vec(("[abcxyz]{0,6}", 0..8u32), 0..41),
            haystacks in prop::collection::vec("[abcdxyz]{0,64}", 1..6),
            marks in any::<u8>(),
        ) {
            let lits: Vec<(Vec<u8>, u32)> = drawn.iter().map(|(s, t)| (bytes(s), *t)).collect();
            let p = Prefilter::new(lits.clone());
            for hay in haystacks.iter().map(|s| bytes(s)) {
                let occurs = |lit: &[u8]| lit.is_empty() || hay.windows(lit.len()).any(|w| w == lit);
                let naive: Vec<u32> = (0..p.tag_count() as u32)
                    .filter(|&t| lits.iter().any(|(lit, tag)| *tag == t && occurs(lit)))
                    .collect();
                prop_assert_eq!(p.find(&hay), naive.clone());
                let before: Vec<bool> = (0..p.tag_count()).map(|t| marks >> (t % 8) & 1 == 1).collect();
                let mut active = before.clone();
                let newly = naive.iter().filter(|&&t| !before[t as usize]).count();
                prop_assert_eq!(p.scan_into(&hay, &mut active), newly);
                for (t, &now) in active.iter().enumerate() {
                    prop_assert_eq!(now, before[t] || naive.contains(&(t as u32)));
                }
            }
        }
    }
}

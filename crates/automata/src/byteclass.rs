//! Alphabet compression: partitioning the 256 byte values into equivalence
//! classes.
//!
//! Two bytes are equivalent when no transition anywhere in the automaton
//! distinguishes them. Practical patterns use a handful of distinct byte
//! sets, so the number of classes is usually far below 256. The DFA and the
//! SFA index their transition tables by class, which shrinks the tables by
//! the same factor — an ablation against the paper's fixed 256-entry rows
//! ("256 symbols times 4 bytes") is provided in the benchmark harness.

use sfa_regex_syntax::class::ByteSet;

/// A mapping from bytes to equivalence-class indices.
#[derive(Clone, PartialEq, Eq)]
pub struct ByteClasses {
    map: [u16; 256],
    count: u16,
}

impl ByteClasses {
    /// The identity partition: every byte is its own class (no compression,
    /// exactly the paper's layout).
    pub fn identity() -> ByteClasses {
        let mut map = [0u16; 256];
        for (i, slot) in map.iter_mut().enumerate() {
            *slot = i as u16;
        }
        ByteClasses { map, count: 256 }
    }

    /// A single class containing every byte (used for automata with no byte
    /// transitions at all).
    pub fn single() -> ByteClasses {
        ByteClasses { map: [0u16; 256], count: 1 }
    }

    /// Builds the coarsest partition that keeps every one of the given byte
    /// sets a union of classes.
    ///
    /// Every byte gets a signature: the subset of `sets` it belongs to.
    /// Bytes with equal signatures share a class.
    pub fn from_sets<'a, I>(sets: I) -> ByteClasses
    where
        I: IntoIterator<Item = &'a ByteSet>,
    {
        let sets: Vec<&ByteSet> = sets.into_iter().collect();
        // Signature of byte b = bit vector over `sets`.
        let mut signatures: Vec<Vec<u64>> = Vec::with_capacity(256);
        let words = sets.len().div_ceil(64).max(1);
        for b in 0u16..256 {
            let mut sig = vec![0u64; words];
            for (i, set) in sets.iter().enumerate() {
                if set.contains(b as u8) {
                    sig[i / 64] |= 1u64 << (i % 64);
                }
            }
            signatures.push(sig);
        }
        let mut map = [0u16; 256];
        let mut seen: Vec<(Vec<u64>, u16)> = Vec::new();
        let mut count = 0u16;
        for b in 0usize..256 {
            let sig = &signatures[b];
            match seen.iter().find(|(s, _)| s == sig) {
                Some((_, class)) => map[b] = *class,
                None => {
                    seen.push((sig.clone(), count));
                    map[b] = count;
                    count += 1;
                }
            }
        }
        ByteClasses { map, count }
    }

    /// The common refinement of two partitions: bytes share a class when
    /// they share one in both. Classes are numbered by first byte, like
    /// [`from_sets`](ByteClasses::from_sets), so the refinement of the
    /// partitions of two set lists equals the partition of the lists
    /// concatenated.
    pub fn refine(&self, other: &ByteClasses) -> ByteClasses {
        let mut map = [0u16; 256];
        let mut seen: Vec<(u16, u16)> = Vec::new();
        for (b, slot) in map.iter_mut().enumerate() {
            let key = (self.map[b], other.map[b]);
            *slot = match seen.iter().position(|&k| k == key) {
                Some(class) => class as u16,
                None => {
                    seen.push(key);
                    (seen.len() - 1) as u16
                }
            };
        }
        ByteClasses { map, count: seen.len() as u16 }
    }

    /// Reconstructs a partition from a raw byte → class map (the inverse
    /// of reading [`class_of`](ByteClasses::class_of) for all 256 bytes —
    /// how a serialized automaton artifact stores its classes). Returns
    /// `None` unless the map is a valid dense partition: classes numbered
    /// `0..count` with every index used.
    pub fn from_map(map: [u16; 256]) -> Option<ByteClasses> {
        let count = map.iter().map(|&c| c as usize + 1).max().unwrap_or(1);
        if count > 256 {
            return None;
        }
        let classes = ByteClasses { map, count: count as u16 };
        classes.is_valid().then_some(classes)
    }

    /// The number of classes.
    #[inline]
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// The class of a byte.
    #[inline]
    pub fn class_of(&self, byte: u8) -> u16 {
        self.map[byte as usize]
    }

    /// All bytes belonging to the given class.
    pub fn bytes_in_class(&self, class: u16) -> ByteSet {
        let mut set = ByteSet::new();
        for b in 0u16..256 {
            if self.map[b as usize] == class {
                set.insert(b as u8);
            }
        }
        set
    }

    /// One representative byte per class, indexed by class.
    pub fn representatives(&self) -> Vec<u8> {
        let mut reps = vec![None; self.count()];
        for b in 0u16..256 {
            let c = self.map[b as usize] as usize;
            if reps[c].is_none() {
                reps[c] = Some(b as u8);
            }
        }
        reps.into_iter().map(|r| r.expect("every class has a byte")).collect()
    }

    /// Checks the partition invariant: classes cover all bytes and are
    /// numbered densely from zero.
    pub fn is_valid(&self) -> bool {
        let mut present = vec![false; self.count()];
        for b in 0u16..256 {
            let c = self.map[b as usize] as usize;
            if c >= self.count() {
                return false;
            }
            present[c] = true;
        }
        present.into_iter().all(|p| p)
    }
}

impl std::fmt::Debug for ByteClasses {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ByteClasses({} classes)", self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_partition() {
        let c = ByteClasses::identity();
        assert_eq!(c.count(), 256);
        assert_eq!(c.class_of(0), 0);
        assert_eq!(c.class_of(255), 255);
        assert!(c.is_valid());
        assert_eq!(c.representatives().len(), 256);
    }

    #[test]
    fn single_partition() {
        let c = ByteClasses::single();
        assert_eq!(c.count(), 1);
        assert_eq!(c.class_of(42), 0);
        assert!(c.is_valid());
        assert_eq!(c.bytes_in_class(0).len(), 256);
    }

    #[test]
    fn partition_from_two_disjoint_sets() {
        let a = ByteSet::range(b'0', b'4');
        let b = ByteSet::range(b'5', b'9');
        let c = ByteClasses::from_sets([&a, &b]);
        // Classes: [0-4], [5-9], everything else = 3 classes.
        assert_eq!(c.count(), 3);
        assert_eq!(c.class_of(b'0'), c.class_of(b'3'));
        assert_eq!(c.class_of(b'5'), c.class_of(b'9'));
        assert_ne!(c.class_of(b'0'), c.class_of(b'5'));
        assert_ne!(c.class_of(b'0'), c.class_of(b'z'));
        assert_eq!(c.class_of(b'z'), c.class_of(0xff));
        assert!(c.is_valid());
    }

    #[test]
    fn partition_from_overlapping_sets() {
        let a = ByteSet::range(b'a', b'm');
        let b = ByteSet::range(b'h', b'z');
        let c = ByteClasses::from_sets([&a, &b]);
        // a-only, overlap, b-only, neither = 4 classes.
        assert_eq!(c.count(), 4);
        assert_eq!(c.class_of(b'a'), c.class_of(b'g'));
        assert_eq!(c.class_of(b'h'), c.class_of(b'm'));
        assert_eq!(c.class_of(b'n'), c.class_of(b'z'));
        assert_eq!(c.class_of(b'A'), c.class_of(b'0'));
        assert!(c.is_valid());
    }

    #[test]
    fn sets_recoverable_as_union_of_classes() {
        let sets = [
            ByteSet::range(b'0', b'9'),
            ByteSet::from_bytes([b'a', b'e', b'i', b'o', b'u']),
            ByteSet::range(0x80, 0xff),
        ];
        let classes = ByteClasses::from_sets(sets.iter());
        for set in &sets {
            // Every class must be fully in or fully out of the set.
            for class in 0..classes.count() as u16 {
                let bytes = classes.bytes_in_class(class);
                let inter = bytes.intersection(set);
                assert!(inter.is_empty() || inter == bytes);
            }
        }
    }

    #[test]
    fn representatives_cover_all_classes() {
        let sets = [ByteSet::range(b'a', b'c'), ByteSet::singleton(b'z')];
        let classes = ByteClasses::from_sets(sets.iter());
        let reps = classes.representatives();
        assert_eq!(reps.len(), classes.count());
        for (class, &rep) in reps.iter().enumerate() {
            assert_eq!(classes.class_of(rep) as usize, class);
        }
    }

    #[test]
    fn refinement_equals_the_partition_of_both_set_lists() {
        let a = [ByteSet::range(b'a', b'm'), ByteSet::singleton(b'0')];
        let b = [ByteSet::range(b'h', b'z'), ByteSet::range(b'0', b'9')];
        let both: Vec<&ByteSet> = a.iter().chain(&b).collect();
        let refined = ByteClasses::from_sets(a.iter()).refine(&ByteClasses::from_sets(b.iter()));
        assert_eq!(refined, ByteClasses::from_sets(both));
        assert_eq!(ByteClasses::single().refine(&ByteClasses::single()), ByteClasses::single());
        let identity = ByteClasses::identity();
        assert_eq!(identity.refine(&ByteClasses::from_sets(a.iter())), identity);
    }

    #[test]
    fn empty_set_list_gives_single_class() {
        let classes = ByteClasses::from_sets(std::iter::empty());
        assert_eq!(classes.count(), 1);
        assert!(classes.is_valid());
    }
}

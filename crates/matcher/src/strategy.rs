//! The unified match-strategy selector.
//!
//! Every way this crate can execute a match — Algorithm 2's sequential
//! scan, Algorithm 5's chunk-parallel SFA run, Algorithm 3's speculative
//! baseline — is one value of [`Strategy`], consumed by the single
//! [`Regex::run`](crate::Regex::run) core. `is_match` and
//! [`RegexSet::matches`](crate::RegexSet::matches) route through it (the
//! batch APIs too, for haystacks big enough to cut into pool chunks), so
//! a new execution scenario means a new `Strategy` variant, not a new
//! `is_match_*` method for every verdict shape.

use crate::Reduction;

/// How a single match call executes. See the [module docs](self).
///
/// The per-call knobs (`threads`, `reduction`) live *in* the variant, so
/// one composable value carries them instead of a parameter list per
/// matcher method; [`Strategy::Auto`] defers to the knobs configured on the
/// [`RegexBuilder`](crate::RegexBuilder).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Use the builder-configured defaults plus the offline convergence
    /// analysis: sequential when the regex was built with one thread;
    /// otherwise convergence-guided speculative matching when the
    /// automaton is
    /// [`Synchronizing`](crate::ConvergenceClass::Synchronizing) (entry
    /// sets collapse, so speculation stops paying `O(|Q|)` per byte) and
    /// parallel SFA matching for everything else. This is what
    /// [`Regex::is_match`](crate::Regex::is_match) does; the decision is
    /// observable via [`Regex::auto_strategy`](crate::Regex::auto_strategy).
    #[default]
    Auto,
    /// **Algorithm 2**: the sequential DFA scan on the calling thread.
    Sequential,
    /// **Algorithm 5**: data-parallel SFA matching. `threads` caps the
    /// chunk count (further capped at the engine's worker count; the
    /// crate-wide [`0 ⇒ 1` clamp](crate) applies) and `reduction` picks
    /// how the per-chunk states are folded.
    Parallel {
        /// Maximum number of chunks the input is cut into.
        threads: usize,
        /// How the per-chunk partial results are combined.
        reduction: Reduction,
    },
    /// **Algorithm 3**, convergence-guided: speculative DFA simulation
    /// restricted to the analysis entry sets, with guided chunk
    /// boundaries and in-chunk state compaction (see
    /// [`SpeculativeDfaMatcher::with_analysis`](crate::SpeculativeDfaMatcher::with_analysis)).
    /// The prior-art all-states baseline — `O(|D|)` per byte — remains
    /// available by constructing a bare
    /// [`SpeculativeDfaMatcher`](crate::SpeculativeDfaMatcher) directly.
    Speculative {
        /// Maximum number of chunks the input is cut into.
        threads: usize,
        /// How the per-chunk simulations are combined.
        reduction: Reduction,
    },
}

impl Strategy {
    /// Parallel SFA matching with the [`Reduction::Sequential`] fold —
    /// the common case, as a shorthand.
    pub fn parallel(threads: usize) -> Strategy {
        Strategy::Parallel { threads, reduction: Reduction::Sequential }
    }

    /// Speculative DFA matching with the [`Reduction::Sequential`] fold.
    pub fn speculative(threads: usize) -> Strategy {
        Strategy::Speculative { threads, reduction: Reduction::Sequential }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_auto() {
        assert_eq!(Strategy::default(), Strategy::Auto);
    }

    #[test]
    fn shorthands_use_sequential_reduction() {
        assert_eq!(
            Strategy::parallel(4),
            Strategy::Parallel { threads: 4, reduction: Reduction::Sequential }
        );
        assert_eq!(
            Strategy::speculative(2),
            Strategy::Speculative { threads: 2, reduction: Reduction::Sequential }
        );
    }
}

//! # sfa — Simultaneous Finite Automata
//!
//! A reproduction of *"Simultaneous Finite Automata: An Efficient
//! Data-Parallel Model for Regular Expression Matching"*
//! (Ryoma Sin'ya, Kiminori Matsuzaki, Masataka Sassa — ICPP 2013).
//!
//! This facade crate re-exports the whole pipeline:
//!
//! * [`regex_syntax`] — byte-oriented pattern parsing,
//! * [`automata`] — NFA, subset construction, DFA, Hopcroft minimization,
//! * [`analysis`] — offline convergence analysis of compiled DFAs
//!   (survivor counts, reset words, convergence classes), whose
//!   compaction horizon tells the guided speculative matcher when to
//!   start deduplicating its chunk states,
//! * [`core`] — the simultaneous finite automaton (D-SFA / N-SFA), the
//!   correspondence construction, and the pluggable eager/lazy backend
//!   abstraction ([`core::SfaBackend`]),
//! * [`matcher`] — sequential (Algorithm 2), speculative-parallel
//!   (Algorithm 3) and SFA-parallel (Algorithm 5) matching over either
//!   backend,
//! * [`monoid`] — syntactic monoids and the state-explosion families,
//! * [`workloads`] — the SNORT-like corpus and scalability inputs,
//! * [`serialize`] — durable compiled-automaton artifacts: versioned,
//!   checksummed binary format with a zero-copy loader and a compile
//!   cache,
//! * [`server`] — a multi-tenant match service with batched admission,
//!   artifact-backed cold starts and explicit backpressure.
//!
//! ## Quick start
//!
//! ```
//! use sfa::prelude::*;
//!
//! let re = Regex::new("([0-4]{2}[5-9]{2})*").unwrap();
//! let text = b"00550459".repeat(512);
//! assert!(re.is_match_with(&text, Strategy::Sequential));
//! assert!(re.is_match_with(&text, Strategy::Parallel { threads: 4, reduction: Reduction::Sequential }));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use sfa_analysis as analysis;
pub use sfa_automata as automata;
pub use sfa_core as core;
pub use sfa_matcher as matcher;
pub use sfa_monoid as monoid;
pub use sfa_regex_syntax as regex_syntax;
pub use sfa_serialize as serialize;
pub use sfa_server as server;
pub use sfa_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use sfa_analysis::{ConvergenceClass, ConvergenceReport};
    pub use sfa_automata::{Dfa, Nfa};
    pub use sfa_automata::{PatternId, PatternSet};
    pub use sfa_core::{BackendKind, DSfa, LazyDSfa, NSfa, SfaBackend, SfaConfig};
    pub use sfa_matcher::{
        BackendChoice, Engine, Error, MatchMode, ParallelSfaMatcher, Prefilter, Reduction, Regex,
        RegexBuilder, RegexSet, SetMatches, SetStream, Shard, SpeculativeDfaMatcher, Strategy,
        StreamMatcher, WorkerPool,
    };
}

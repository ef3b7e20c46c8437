//! End-to-end integration tests spanning every crate of the workspace:
//! pattern → NFA → DFA → minimal DFA → D-SFA → sequential / speculative /
//! parallel matching, on the paper's own examples and on the synthetic
//! SNORT-like corpus.

use sfa::prelude::*;
use sfa::workloads;

#[test]
fn paper_running_example_end_to_end() {
    // Figures 1 & 2 + Example 2 of the paper.
    let re = Regex::new("(ab)*").unwrap();
    assert_eq!(re.dfa().num_live_states(), 2);
    assert_eq!(re.sfa().num_states(), 6);

    let input = b"ababababababab"; // Example 2's 14-byte input
    assert!(re.is_match_with(input, Strategy::Sequential));
    for threads in 1..=6 {
        for reduction in [Reduction::Sequential, Reduction::Tree] {
            assert!(re.is_match_with(input, Strategy::Parallel { threads, reduction }));
            assert!(re.is_match_with(input, Strategy::Speculative { threads, reduction }));
            assert!(!re.is_match_with(b"ababa", Strategy::Parallel { threads, reduction }));
        }
    }
}

#[test]
fn rn_family_sizes_and_matching() {
    // Section VI-B: |D| = 2n; |S_d| grows quadratically, not exponentially.
    for n in [2usize, 5, 10] {
        let re = Regex::new(&workloads::rn_pattern(n)).unwrap();
        assert_eq!(re.dfa().num_live_states(), 2 * n);
        assert!(re.sfa().num_states() <= re.dfa().num_states() * re.dfa().num_states());

        let text = workloads::rn_text(n, 4096, 1);
        assert!(re.is_match_with(&text, Strategy::Sequential));
        assert!(re.is_match_with(
            &text,
            Strategy::Parallel { threads: 4, reduction: Reduction::Sequential }
        ));
        assert!(
            re.is_match_with(&text, Strategy::Parallel { threads: 7, reduction: Reduction::Tree })
        );

        let mut corrupted = text.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] = b'x';
        assert!(!re.is_match_with(&corrupted, Strategy::Sequential));
        assert!(!re.is_match_with(
            &corrupted,
            Strategy::Parallel { threads: 4, reduction: Reduction::Sequential }
        ));
    }
}

#[test]
fn snort_like_corpus_compiles_and_matches_consistently() {
    let rules = workloads::ruleset(&workloads::SnortConfig {
        count: 120,
        seed: 99,
        dot_star_fraction: 0.02,
    });
    let mut built = 0;
    for pattern in &rules {
        let Ok(re) = Regex::builder().max_dfa_states(1000).max_sfa_states(100_000).build(pattern)
        else {
            continue;
        };
        built += 1;
        // Sample an accepted word from the DFA (when the language is not
        // empty) and check all matchers agree on it and on a mangled copy.
        let Ok(sampler) = sfa::automata::DfaSampler::new(re.dfa()) else { continue };
        let mut rng = rand_seed(built);
        let word = sampler.sample(200, &mut rng);
        assert!(re.is_match_with(&word, Strategy::Sequential), "pattern {:?}", pattern);
        assert!(
            re.is_match_with(
                &word,
                Strategy::Parallel { threads: 3, reduction: Reduction::Sequential }
            ),
            "pattern {:?}",
            pattern
        );
        assert!(
            re.is_match_with(
                &word,
                Strategy::Speculative { threads: 3, reduction: Reduction::Tree }
            ),
            "pattern {:?}",
            pattern
        );
    }
    assert!(built >= 80, "most of the corpus must compile, built = {built}");
}

fn rand_seed(n: usize) -> impl rand::Rng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(n as u64)
}

#[test]
fn contains_semantics_parallel_consistency() {
    let re = Regex::builder().mode(MatchMode::Contains).build("needle[0-9]{3}").unwrap();
    let mut haystack = vec![b'x'; 100_000];
    assert!(!re.is_match_with(
        &haystack,
        Strategy::Parallel { threads: 8, reduction: Reduction::Sequential }
    ));
    // Plant a match straddling a chunk boundary (Theorem 3: any split
    // works, including one through the middle of the match).
    let pos = haystack.len() / 8 - 3;
    haystack.splice(pos..pos, b"needle042".iter().copied());
    assert!(re.is_match_with(&haystack, Strategy::Sequential));
    for threads in [2, 4, 8, 16] {
        assert!(re.is_match_with(
            &haystack,
            Strategy::Parallel { threads, reduction: Reduction::Sequential }
        ));
        assert!(
            re.is_match_with(&haystack, Strategy::Parallel { threads, reduction: Reduction::Tree })
        );
    }
}

#[test]
fn lazy_sfa_matches_eager_on_long_input() {
    let pattern = workloads::rn_pattern(4);
    let eager = DSfa::from_pattern(&pattern).unwrap();
    let lazy = LazyDSfa::from_pattern(&pattern).unwrap();
    let text = workloads::rn_text(4, 10_000, 3);
    assert_eq!(eager.accepts(&text), lazy.accepts(&text));
    assert!(lazy.num_states_constructed() <= eager.num_states());
}

#[test]
fn untamed_ids_scan_ruleset_runs_on_the_auto_backend() {
    // The acceptance scenario of the backend refactor: the full ids_scan
    // ruleset — untamed SQLi rule included — fails eager construction but
    // compiles under backend(Auto), matches correctly via the parallel
    // and streaming paths, and materializes a bounded number of states.
    // The 2 000-state cap keeps the (failing) eager attempts cheap in
    // debug builds; the full construction exceeds 750k states anyway.
    let builder = Regex::builder()
        .mode(MatchMode::Contains)
        .max_dfa_states(50_000)
        .max_sfa_states(2_000)
        .engine(Engine::new(4))
        .threads(4);
    let eager = RegexSet::new(
        workloads::IDS_SCAN_RULES.iter().copied(),
        &builder.clone().backend(BackendChoice::Eager),
    );
    assert!(eager.is_err(), "the untamed ruleset must overflow the eager construction");

    let set = RegexSet::new(
        workloads::IDS_SCAN_RULES.iter().copied(),
        &builder.backend(BackendChoice::Auto),
    )
    .unwrap();
    assert_eq!(set.regex().backend_kind(), BackendKind::Lazy);

    let log = workloads::http_log(5_000, 97, 0xBEEF);
    assert!(set.is_match(&log), "the log plants /cgi-bin/ hits");
    for threads in [2, 4] {
        assert!(set
            .regex()
            .is_match_with(&log, Strategy::Parallel { threads, reduction: Reduction::Sequential }));
        assert!(set
            .regex()
            .is_match_with(&log, Strategy::Parallel { threads, reduction: Reduction::Tree }));
    }
    // Streaming: arrival-time blocks, including one cutting mid-rule.
    let mut stream = set.stream();
    let sqli = b"GET /q?u=union  select name, pass from users HTTP/1.1\n";
    let clean = workloads::http_log(200, 0, 7);
    stream.feed(&clean).feed(&sqli[..17]).feed(&sqli[17..]);
    assert_eq!(stream.verdict(), Some(true), "a Contains hit saturates the stream");

    // Bounded materialization: far below the 2 000-state eager cap the
    // construction overflowed (let alone the >750k full size).
    let report = set.regex().size_report();
    assert_eq!(report.backend, BackendKind::Lazy);
    assert!(report.materialized_states < 1_000, "got {}", report.materialized_states);
    assert_eq!(report.materialized_states, report.sfa_states);

    // A clean log still reports no match on every path.
    let clean_big = workloads::http_log(2_000, 0, 0xBEEF);
    assert!(!set.is_match(&clean_big));
    assert!(!set
        .regex()
        .is_match_with(&clean_big, Strategy::Parallel { threads: 4, reduction: Reduction::Tree }));
}

#[test]
fn explosion_families_behave_as_in_section_vii() {
    // Fact 1: DFA doubles with n.
    let d4 = sfa::monoid::explosion::example3_dfa(4).unwrap().num_live_states();
    let d6 = sfa::monoid::explosion::example3_dfa(6).unwrap().num_live_states();
    assert_eq!(d4, 15);
    assert_eq!(d6, 63);
    // Fact 2: the witness DFA's D-SFA hits n^n + 1.
    let dfa = sfa::monoid::fact2_dfa(3);
    let sfa_ = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
    assert_eq!(sfa_.num_states(), 28);
    // Syntactic complexity equals the SFA size for the running example.
    assert_eq!(sfa::monoid::syntactic_complexity("(ab)*", 1000).unwrap(), Some(6));
}

#[test]
fn sfa_lower_bound_proves_explosions_before_building() {
    // The untamed SQLi rule (Section VII's practical case) and the Fact 2
    // witness both explode past a 2 000-state cap; the probe bound proves
    // it without the eager build, so Auto goes straight to lazy.
    let cap = 2_000;
    let sqli = Regex::builder()
        .mode(MatchMode::Contains)
        .backend(BackendChoice::Lazy)
        .build(workloads::SQLI_RULE)
        .unwrap();
    assert_eq!(sqli.dfa().num_states(), 591);
    let fact2 = sfa::monoid::fact2_dfa(33);
    for dfa in [sqli.dfa(), &fact2] {
        assert!(dfa.num_states() > sfa::core::dsfa::BOUND_PROBES);
        assert_eq!(DSfa::states_lower_bound(dfa, cap), cap + 1);
    }
    let auto = Regex::builder()
        .mode(MatchMode::Contains)
        .backend(BackendChoice::Auto)
        .max_sfa_states(cap)
        .build(workloads::SQLI_RULE)
        .unwrap();
    assert_eq!(auto.backend_kind(), BackendKind::Lazy);
    assert!(auto.is_match(b"q=union select a, b from users"));
}

#[test]
fn nsfa_and_dsfa_agree_on_language() {
    for pattern in ["(ab)*", "(a|b)*abb", "a{2,4}b?"] {
        let nfa = Nfa::from_pattern(pattern).unwrap();
        let nsfa = NSfa::from_nfa(&nfa, &SfaConfig::default()).unwrap();
        let dsfa = DSfa::from_pattern(pattern).unwrap();
        for input in [&b""[..], b"ab", b"abab", b"abb", b"aab", b"aaaab", b"zz"] {
            assert_eq!(nsfa.accepts(input), dsfa.accepts(input), "{pattern:?} {input:?}");
        }
    }
}

#[test]
fn streaming_log_replay_agrees_with_whole_buffer() {
    // The streaming scenario end to end: a log cut into arrival blocks
    // (boundaries anywhere, including mid-needle) fed through a
    // StreamMatcher gives the whole-buffer verdict, for hit-free,
    // hit-bearing, sub-pool and pooled block sizes.
    let re = Regex::builder()
        .mode(MatchMode::Contains)
        .engine(Engine::new(4))
        .threads(4)
        .build("/cgi-bin/ph[a-z]{1,8}")
        .unwrap();
    for (attack_every, mean_block) in [(0usize, 256usize), (1000, 64), (97, 8192), (0, 64 << 10)] {
        let config = workloads::StreamConfig { lines: 3_000, attack_every, mean_block, seed: 11 };
        let blocks = workloads::log_stream(&config);
        let corpus = workloads::log_stream_bytes(&config);
        let expected = re.is_match(&corpus);
        assert_eq!(expected, attack_every != 0, "attack_every {attack_every}");

        let mut stream = re.stream();
        for block in &blocks {
            stream.feed(block);
        }
        assert_eq!(stream.finish(), expected, "attack_every {attack_every}");
        assert_eq!(stream.bytes_fed(), corpus.len() as u64);
        assert_eq!(stream.blocks_fed(), blocks.len() as u64);
        // A hit saturates the stream (constant-accept sink), so the
        // verdict is final before the end of a hit-bearing stream.
        assert_eq!(stream.verdict(), expected.then_some(true));
        stream.reset();
        assert!(!stream.finish());
    }
}

#[test]
fn batch_matching_over_request_lines() {
    let re = Regex::builder().mode(MatchMode::Contains).build("/cgi-bin/ph[a-z]{1,8}").unwrap();
    let corpus = workloads::http_log(2_000, 40, 5);
    let lines: Vec<&[u8]> = corpus.split(|&b| b == b'\n').collect();
    let expected: Vec<bool> = lines.iter().map(|l| re.is_match(l)).collect();
    assert_eq!(expected.iter().filter(|&&m| m).count(), 2_000 / 40);
    assert_eq!(re.is_match_batch(&lines), expected);
    // The RegexSet form answers "does any rule match?" per request.
    let set = RegexSet::new(
        ["/cgi-bin/ph[a-z]{1,8}", "(?i)etc/passwd"],
        &Regex::builder().mode(MatchMode::Contains),
    )
    .unwrap();
    assert_eq!(set.match_batch(&lines), expected);
}

#[test]
fn empty_regex_set_is_void_end_to_end() {
    for mode in [MatchMode::Whole, MatchMode::Contains] {
        let set = RegexSet::new([], &Regex::builder().mode(mode)).unwrap();
        assert!(!set.is_match(b""));
        assert!(!set.is_match(b"GET /index HTTP/1.1"));
        let mut stream = set.stream();
        stream.feed(b"anything").feed(b"at all");
        assert!(!stream.finish());
        // The void stream is saturated from the start: its verdict can
        // never change.
        assert_eq!(stream.verdict(), Some(false));
    }
}

#[test]
fn error_paths_are_reported_not_panicked() {
    assert!(Regex::new("(").is_err());
    assert!(Regex::new("a{10,1}").is_err());
    assert!(Regex::builder().max_dfa_states(3).build("abcdefgh").is_err());
    // Empty input, empty pattern, single byte, all fine.
    let re = Regex::new("").unwrap();
    assert!(re.is_match_with(b"", Strategy::Sequential));
    assert!(!re
        .is_match_with(b"x", Strategy::Parallel { threads: 4, reduction: Reduction::Sequential }));
}

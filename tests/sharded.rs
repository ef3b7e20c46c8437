//! Integration tests for the auto-sharded `RegexSet`: the sharded
//! compilation (any budget, any backend, any execution strategy, any
//! stream feed boundary) must be *observationally identical* to the
//! single combined automaton — sharding is a compilation strategy, not a
//! semantics change.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use sfa::prelude::*;
// Both preludes export a `Strategy` (proptest's trait, sfa's execution
// enum); the explicit import wins the ambiguity for the enum.
use sfa::prelude::Strategy;
use sfa::workloads;

fn contains_builder() -> RegexBuilder {
    Regex::builder()
        .mode(MatchMode::Contains)
        .backend(BackendChoice::Auto)
        .max_dfa_states(50_000)
        .max_sfa_states(2_000)
}

/// Keywords the snort-style generator builds its rules from, used to salt
/// haystacks so a good fraction of the checks exercise true matches.
const SALT: &[&str] = &[
    "admin",
    "passwd",
    "select",
    "union",
    "attack",
    "exploit",
    "payload",
    "overflow",
    "shell",
    "script",
    "cgi-bin/phf",
    "etc/passwd",
];

/// The prefilter is an *optimization* gate: a shard skipped on a haystack
/// must be a shard that cannot match it. Rules with a required literal
/// are gated; rules without one (here the dotted-digits rule) must bypass
/// the prefilter entirely — a ruleset mixing both kinds still reports
/// exactly the per-rule truth on every input.
#[test]
fn prefilter_never_suppresses_a_true_match() {
    let rules = [
        "(?i)select[a-z0-9_]{0,8}",
        "attack[0-9]{2}",
        "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}", // literal-free
        "(?i)etc/(passwd|shadow|group)",
    ];
    let sharded = RegexSet::new(rules, &contains_builder().shard_state_budget(64)).unwrap();
    assert!(sharded.is_sharded());
    assert!(sharded.prefilter().is_some());
    // The literal-free rule's shard must not be gated.
    for shard in sharded.shards() {
        assert_eq!(shard.is_gated(), !shard.members().contains(&2), "{:?}", shard.members());
    }
    let singles: Vec<Regex> = rules.iter().map(|p| contains_builder().build(p).unwrap()).collect();
    let haystacks: [&[u8]; 8] = [
        b"GET /index.html HTTP/1.1",
        b"SELECTION bias",               // gated rule 0 fires
        b"attack42 at 10.0.0.1",         // gated rule 1 + ungated rule 2
        b"192.168.001.254",              // only the literal-free rule
        b"ETC/SHADOW",                   // case-insensitive literal
        b"se lect union-free",           // literal absent: prefilter skip
        b"",                             // empty haystack
        b"passwd attack exploit select", // literals present, rules may still miss
    ];
    for hay in haystacks {
        let m = sharded.matches(hay);
        for (i, re) in singles.iter().enumerate() {
            assert_eq!(
                m.matched(i),
                re.is_match(hay),
                "rule {i} ({:?}) on {:?}",
                rules[i],
                String::from_utf8_lossy(hay)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random rule subsets from the snort-style corpus, compiled sharded
    /// (random budget) and unsharded: identical `SetMatches` on every
    /// haystack, under every strategy, on both backends, and through a
    /// stream cut at a random boundary (plus the batch forms).
    #[test]
    fn sharded_set_agrees_with_unsharded(
        seed in any::<u64>(),
        num_rules in 2usize..6,
        budget_pick in any::<prop::sample::Index>(),
        lazy_backend in any::<bool>(),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = workloads::ruleset(&workloads::SnortConfig {
            count: 40,
            seed: 5,
            dot_star_fraction: 0.05,
        });
        let mut idxs: Vec<usize> = (0..pool.len()).collect();
        idxs.shuffle(&mut rng);
        let rules: Vec<&str> = idxs[..num_rules].iter().map(|&i| pool[i].as_str()).collect();

        let backend = if lazy_backend { BackendChoice::Lazy } else { BackendChoice::Auto };
        let builder = contains_builder().backend(backend);
        let budget = [64usize, 256, 1024][budget_pick.index(3)];
        // The tracked product automaton can overflow the caps where the
        // shards fit — that asymmetry is the point of sharding — so
        // agreement is only checkable when both compile.
        let Ok(unsharded) = RegexSet::new(rules.iter().copied(), &builder) else {
            return Ok(());
        };
        let sharded = RegexSet::new(
            rules.iter().copied(),
            &builder.clone().shard_state_budget(budget),
        )
        .expect("whatever compiles combined must compile sharded");
        prop_assert_eq!(sharded.len(), unsharded.len());

        // Benign log lines plus keyword-salted lines so both verdict
        // polarities occur.
        let log = workloads::http_log(30, 7, seed);
        let mut haystacks: Vec<Vec<u8>> =
            log.split(|&b| b == b'\n').map(|l| l.to_vec()).collect();
        for _ in 0..6 {
            let a = SALT.choose(&mut rng).unwrap();
            let b = SALT.choose(&mut rng).unwrap();
            let n = rng.gen_range(0..100u32);
            haystacks.push(format!("GET /{a}{n}?q={b} HTTP/1.1").into_bytes());
        }

        for hay in &haystacks {
            for strategy in [
                Strategy::Auto,
                Strategy::Sequential,
                Strategy::Parallel { threads: 3, reduction: Reduction::Tree },
            ] {
                prop_assert_eq!(
                    sharded.matches_with(hay, strategy),
                    unsharded.matches_with(hay, strategy),
                    "strategy {:?} budget {} rules {:?}",
                    strategy,
                    budget,
                    &rules
                );
            }
            prop_assert_eq!(sharded.is_match(hay), unsharded.is_match(hay));

            // Streaming: a cut anywhere must not change the verdict.
            let cut = cut.index(hay.len() + 1).min(hay.len());
            let mut ss = sharded.stream();
            let mut us = unsharded.stream();
            ss.feed(&hay[..cut]).feed(&hay[cut..]);
            us.feed(&hay[..cut]).feed(&hay[cut..]);
            prop_assert_eq!(ss.set_matches(), us.set_matches(), "cut {}", cut);
            prop_assert_eq!(ss.finish(), us.finish());
            // A decided stream verdict must equal the final verdict.
            if let Some(v) = ss.set_verdict() {
                prop_assert_eq!(&v, &ss.set_matches());
            }
        }

        // Both forms run one batch core, so check it against the per-call
        // sequential verdicts too, not only sharded against unsharded.
        let refs: Vec<&[u8]> = haystacks.iter().map(|h| h.as_slice()).collect();
        let per_call: Vec<SetMatches> =
            refs.iter().map(|h| unsharded.matches_with(h, Strategy::Sequential)).collect();
        prop_assert_eq!(&unsharded.matches_batch(&refs), &per_call);
        prop_assert_eq!(&sharded.matches_batch(&refs), &per_call);
        prop_assert_eq!(sharded.match_batch(&refs), unsharded.match_batch(&refs));
    }
}

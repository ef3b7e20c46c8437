//! Facade-level integration tests for the match service: loopback
//! clients get exactly the in-process verdicts, tenants stay isolated,
//! unknown tenants fail typed, and cold starts resolve through the
//! artifact directory — including falling back gracefully when the
//! artifact on disk is damaged.

use sfa::prelude::*;
use sfa::server::{Client, ClientError, RegisterSource, Server, ServerConfig};

const RULES: &[&str] = &["worm", "exploit[0-9]+", "(ab)+c"];
const OTHER_RULES: &[&str] = &["(?i)etc/(passwd|shadow)", "attack[0-9]{2}"];

fn expected_verdicts(rules: &[&str], haystacks: &[&[u8]]) -> Vec<Vec<u32>> {
    let set =
        RegexSet::new(rules.iter().copied(), &Regex::builder().mode(MatchMode::Contains)).unwrap();
    set.matches_batch(haystacks).iter().map(|m| m.iter().map(|id| id as u32).collect()).collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sfa-test-srv-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const HAYSTACKS: &[&[u8]] = &[
    b"a worm in the apple",
    b"exploit99 deployed",
    b"ababc",
    b"GET /index.html HTTP/1.1",
    b"cat /etc/passwd attack42",
    b"",
];

/// Two tenants, different rule sets, several connections in flight:
/// every reply matches the in-process scan of that tenant's rules, and
/// verdicts never leak across namespaces.
#[test]
fn loopback_verdicts_match_in_process_per_tenant() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    let mut admin = Client::connect_tcp(addr).unwrap();
    let (count, source) = admin.register("ids", RULES).unwrap();
    assert_eq!((count, source), (RULES.len(), RegisterSource::CompiledFresh));
    let (count, _) = admin.register("audit", OTHER_RULES).unwrap();
    assert_eq!(count, OTHER_RULES.len());

    let mut handles = Vec::new();
    for (tenant, rules) in [("ids", RULES), ("audit", OTHER_RULES), ("ids", RULES)] {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(addr).unwrap();
            for _ in 0..10 {
                let got = client.matches_batch_retrying(tenant, HAYSTACKS, 50).unwrap();
                assert_eq!(got, expected_verdicts(rules, HAYSTACKS), "tenant {tenant}");
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    server.shutdown();
}

/// Matching under a tenant nobody registered is a typed server error
/// naming the tenant — not a hang, not a protocol violation.
#[test]
fn unknown_tenant_fails_typed() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    match client.matches_batch("nobody", &[b"haystack"]) {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("nobody"), "error names the tenant: {message}")
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }
    server.shutdown();
}

/// The three-tier cold start over a shared artifact directory: the first
/// server compiles fresh (writing the artifact back), a second server
/// re-registering the same namespace loads it zero-copy from disk, and
/// a *corrupted* artifact silently drops the registration back to a
/// fresh compile — same verdicts in all three lives.
#[test]
fn artifact_directory_cold_start_and_corrupt_fallback() {
    let dir = temp_dir("coldstart");
    let config = || ServerConfig { artifact_dir: Some(dir.clone()), ..Default::default() };
    let want = expected_verdicts(RULES, HAYSTACKS);

    let round = |expected_source: RegisterSource| {
        let server = Server::bind_tcp("127.0.0.1:0", config()).unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        let (count, source) = client.register("ids", RULES).unwrap();
        assert_eq!(count, RULES.len());
        assert_eq!(source, expected_source);
        let got = client.matches_batch_retrying("ids", HAYSTACKS, 50).unwrap();
        server.shutdown();
        got
    };

    assert_eq!(round(RegisterSource::CompiledFresh), want, "first life compiles");
    assert_eq!(round(RegisterSource::Artifact), want, "second life cold-starts from disk");

    // Damage every artifact in the directory mid-payload.
    let mut damaged = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        damaged += 1;
    }
    assert!(damaged > 0, "the first life must have written an artifact");

    assert_eq!(round(RegisterSource::CompiledFresh), want, "corrupt artifact falls back");
    // The fallback compile rewrote a good artifact; the next life loads it.
    assert_eq!(round(RegisterSource::Artifact), want, "fallback rewrites the artifact");

    std::fs::remove_dir_all(&dir).ok();
}

/// Re-registering an identical namespace on a server without an
/// artifact directory hits the in-memory compile cache.
#[test]
fn identical_namespaces_share_the_compile_cache() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    let (_, first) = client.register("a", RULES).unwrap();
    assert_eq!(first, RegisterSource::CompiledFresh);
    assert!(server.cache_bytes() > 0, "the fresh compile warms the cache");
    let (_, second) = client.register("b", RULES).unwrap();
    assert_eq!(second, RegisterSource::Cache);
    let got = client.matches_batch_retrying("b", HAYSTACKS, 50).unwrap();
    assert_eq!(got, expected_verdicts(RULES, HAYSTACKS));
    server.shutdown();
}

/// `["a|b", "c"]` and `["a", "b|c"]` join to one label with one count,
/// yet are different namespaces: neither may be served the other's
/// automaton from the compile cache (first life, no artifact directory)
/// or from an artifact file (second life). Each list compiles fresh
/// once, is served from its own stored artifact after that, and reports
/// its own rule for the haystack `b`.
#[test]
fn lists_joining_to_one_label_stay_apart() {
    const LISTS: [(&str, &[&str], u32); 2] =
        [("left", &["a|b", "c"], 0), ("right", &["a", "b|c"], 1)];
    let dir = temp_dir("joined");
    let lives = [(None, RegisterSource::Cache), (Some(dir.clone()), RegisterSource::Artifact)];
    for (life, (artifact_dir, stored)) in lives.into_iter().enumerate() {
        let config = ServerConfig { artifact_dir, ..Default::default() };
        let server = Server::bind_tcp("127.0.0.1:0", config).unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        for (round, source) in [RegisterSource::CompiledFresh, stored].into_iter().enumerate() {
            for (tenant, patterns, rule) in LISTS {
                let registered = client.register(tenant, patterns).unwrap();
                assert_eq!(registered, (2, source), "life {life}, round {round}, tenant {tenant}");
                let got = client.matches_batch_retrying(tenant, &[b"b"], 50).unwrap();
                assert_eq!(got, vec![vec![rule]], "life {life}, round {round}, tenant {tenant}");
            }
        }
        server.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A pattern list that repeats a pattern compiles to a set over its
/// distinct rules, and an empty one to the void set: either way the
/// compiled label and count differ from the request's, so neither the
/// cache nor the artifact directory could ever serve it. Nothing is
/// stored, and every registration in both lives compiles fresh.
#[test]
fn repeated_or_empty_patterns_store_nothing_unreadable() {
    const REPEATED: &[&str] = &["worm", "exploit[0-9]+", "worm"];
    let dir = temp_dir("repeated");
    for life in 0..2 {
        let config = ServerConfig { artifact_dir: Some(dir.clone()), ..Default::default() };
        let server = Server::bind_tcp("127.0.0.1:0", config).unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        for (tenant, patterns) in [("a", REPEATED), ("b", REPEATED), ("none", &[][..])] {
            let (count, source) = client.register(tenant, patterns).unwrap();
            let expected = (patterns.len(), RegisterSource::CompiledFresh);
            assert_eq!((count, source), expected, "life {life}, tenant {tenant}");
        }
        let got = client.matches_batch_retrying("b", &[b"a worm", b"exploit7"], 50).unwrap();
        assert_eq!(got, vec![vec![0, 2], vec![1]], "both copies of \"worm\" report");
        assert_eq!(client.matches_batch_retrying("none", &[b"worm"], 50).unwrap(), vec![vec![]]);
        assert_eq!(server.cache_bytes(), 0, "life {life} cached an unreadable artifact");
        server.shutdown();
    }
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "unreadable artifacts were written: {written:?}");
    std::fs::remove_dir_all(&dir).ok();
}

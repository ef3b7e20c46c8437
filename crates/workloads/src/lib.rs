//! # sfa-workloads
//!
//! Workload generators for the SFA experiments: the synthetic SNORT-like
//! ruleset behind Figure 3, the `r_n` scalability family and its accepted
//! input texts behind Figures 6–10 and Table III, the streaming log-replay
//! scenario (a corpus cut into arrival-time blocks), the match-service
//! request stream (batched haystacks the way a server receives them),
//! plus generic corpora.
//!
//! Everything is deterministic for a given seed so every figure the
//! `reproduce` binary of `sfa-bench` prints can be regenerated exactly.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod scalability;
pub mod service;
pub mod snort;
pub mod streaming;

pub use scalability::{
    digit_text, fig10_pattern, fig10_text, random_bytes, repeated_a_text, rn_or_a_pattern,
    rn_pattern, rn_text, window_pattern,
};
pub use service::{service_bytes, service_requests, ServiceConfig};
pub use snort::{
    corpus_1k, ruleset, SnortConfig, CORPUS_1K, CORPUS_1K_SEED, CURATED_PATTERNS, IDS_SCAN_RULES,
    SQLI_RULE,
};
pub use streaming::{log_stream, log_stream_bytes, StreamConfig, LOG_SCAN_RULE};

/// An HTTP-log-like line-oriented corpus (used by the examples): a mix of
/// benign request lines with a configurable number of "attack" lines
/// embedded at deterministic positions.
pub fn http_log(lines: usize, attack_every: usize, seed: u64) -> Vec<u8> {
    use rand::prelude::*;
    use rand::rngs::StdRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let paths = ["/index.html", "/api/v1/users", "/static/app.js", "/login", "/healthz"];
    let agents = ["Mozilla/5.0", "curl/8.4.0", "Go-http-client/1.1", "python-requests/2.31"];
    let mut out = Vec::with_capacity(lines * 64);
    for i in 0..lines {
        if attack_every != 0 && i % attack_every == attack_every - 1 {
            out.extend_from_slice(
                format!(
                    "GET /cgi-bin/ph{}?id={} HTTP/1.1 404 {}\n",
                    ["f", "p", "book"].choose(&mut rng).unwrap(),
                    rng.gen_range(0..100000),
                    rng.gen_range(100..9999)
                )
                .as_bytes(),
            );
        } else {
            out.extend_from_slice(
                format!(
                    "GET {} HTTP/1.1 200 {} {}\n",
                    paths.choose(&mut rng).unwrap(),
                    rng.gen_range(100..99999),
                    agents.choose(&mut rng).unwrap()
                )
                .as_bytes(),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_log_contains_attacks_at_requested_rate() {
        let log = http_log(100, 10, 1);
        let text = String::from_utf8(log).unwrap();
        let attacks = text.lines().filter(|l| l.contains("/cgi-bin/ph")).count();
        assert_eq!(attacks, 10);
        assert_eq!(text.lines().count(), 100);
    }

    #[test]
    fn http_log_without_attacks() {
        let log = http_log(50, 0, 2);
        let text = String::from_utf8(log).unwrap();
        assert_eq!(text.lines().count(), 50);
        assert!(!text.contains("/cgi-bin/"));
    }

    #[test]
    fn http_log_is_deterministic() {
        assert_eq!(http_log(20, 5, 9), http_log(20, 5, 9));
    }
}

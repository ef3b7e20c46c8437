//! Per-tenant pattern namespaces with artifact-backed cold starts.
//!
//! Registering a tenant resolves its pattern list to a matcher through
//! three tiers, cheapest first:
//!
//! 1. **Artifact directory** — a durable `.sfa` file written by a
//!    previous run (or an offline build step) is memory-mapped and loaded
//!    zero-copy: cold start skips the whole NFA → DFA → D-SFA pipeline.
//! 2. **Compile cache** — an in-memory LRU of encoded artifacts shared by
//!    all tenants of the server; two tenants registering the same rule
//!    set compile once.
//! 3. **Fresh compile** — the full pipeline; the result is encoded back
//!    into the cache and (best effort) the artifact directory so the
//!    *next* cold start takes tier 1 — but only when tiers 1 and 2 could
//!    serve it: a list that repeats a pattern, or is empty, compiles to
//!    another label and count than the request's and is stored nowhere.
//!
//! Both tiers are keyed on the pattern *list*, each pattern prefixed by
//! its length ([`namespace_key`]), not on the `|`-joined label: `["a|b",
//! "c"]` and `["a", "b|c"]` join to one label and count, yet are
//! different namespaces. A stale, corrupt, or mode-mismatched artifact
//! never panics and never misreports: validation failures (the typed
//! [`ArtifactError`](sfa_serialize::ArtifactError) surface) simply drop
//! to the next tier.

use crate::config::ServerConfig;
use sfa_matcher::{Error, MatchMode, Regex, RegexBuilder, RegexSet};
use sfa_serialize::{fnv1a, CompileCache};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};

/// Where a tenant's automaton came from at registration time (reported
/// on the wire so operators can see whether cold starts hit artifacts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegisterSource {
    /// Compiled from scratch this registration.
    CompiledFresh = 0,
    /// Loaded zero-copy from the artifact directory.
    Artifact = 1,
    /// Decoded from the in-memory compile cache.
    Cache = 2,
}

impl RegisterSource {
    /// Wire decoding (see [`STATUS_OK`](crate::protocol::STATUS_OK)).
    pub fn from_byte(b: u8) -> Option<RegisterSource> {
        Some(match b {
            0 => RegisterSource::CompiledFresh,
            1 => RegisterSource::Artifact,
            2 => RegisterSource::Cache,
            _ => return None,
        })
    }
}

/// A tenant's compiled matcher: either a freshly compiled set (which may
/// shard internally) or a single automaton borrowed from an artifact.
pub(crate) enum TenantMatcher {
    /// Fresh compile — the full [`RegexSet`] machinery (auto-sharding,
    /// prefilter) applies.
    Compiled(RegexSet),
    /// Zero-copy artifact load — one union automaton with per-pattern
    /// verdicts; its tables live in the mapped artifact. Boxed: `Regex`
    /// is much larger than the `RegexSet` handle.
    Artifact(Box<Regex>),
}

impl TenantMatcher {
    /// Per-haystack matched pattern ids, via one batched scan.
    pub fn matches_batch(&self, haystacks: &[&[u8]]) -> Vec<Vec<u32>> {
        let matches = match self {
            TenantMatcher::Compiled(set) => set.matches_batch(haystacks),
            TenantMatcher::Artifact(re) => re.matches_batch(haystacks),
        };
        matches.iter().map(|m| m.iter().map(|id| id as u32).collect()).collect()
    }

    /// Number of patterns in the namespace.
    pub fn pattern_count(&self) -> usize {
        match self {
            TenantMatcher::Compiled(set) => set.len(),
            TenantMatcher::Artifact(re) => re.pattern_count(),
        }
    }
}

/// The key both stored tiers file a pattern list under: every pattern
/// prefixed by its byte length, so no two lists share one (`["a|b", "c"]`
/// is `3:a|b1:c`, `["a", "b|c"]` is `1:a3:b|c`).
fn namespace_key(patterns: &[String]) -> String {
    patterns.iter().map(|p| format!("{}:{p}", p.len())).collect()
}

/// The tenant registry plus the shared compile cache.
pub(crate) struct Tenants {
    config: ServerConfig,
    map: RwLock<HashMap<String, Arc<TenantMatcher>>>,
    cache: CompileCache,
}

impl Tenants {
    pub fn new(config: ServerConfig) -> Tenants {
        let cache = CompileCache::new(config.cache_bytes);
        Tenants { config, map: RwLock::new(HashMap::new()), cache }
    }

    fn builder(&self) -> RegexBuilder {
        RegexBuilder::new().mode(self.config.mode)
    }

    /// The artifact path for a pattern namespace: content-addressed over
    /// the match mode and the [namespace key](namespace_key), so
    /// differently-configured servers sharing a directory never collide.
    fn artifact_path(&self, key: &str) -> Option<PathBuf> {
        let dir = self.config.artifact_dir.as_ref()?;
        let mode = match self.config.mode {
            MatchMode::Whole => 0u8,
            MatchMode::Contains => 1u8,
        };
        let mut keyed = vec![mode];
        keyed.extend_from_slice(key.as_bytes());
        Some(dir.join(format!("{:016x}.sfa", fnv1a(&keyed))))
    }

    /// Registers (or replaces) `tenant`'s namespace. See the module docs
    /// for the three-tier resolution. Errors are pre-rendered: they go
    /// straight onto the wire as `STATUS_ERROR` text.
    pub fn register(
        &self,
        tenant: &str,
        patterns: &[String],
    ) -> Result<(usize, RegisterSource), String> {
        let (key, label) = (namespace_key(patterns), patterns.join("|"));

        let (matcher, source) = if let Some(re) = self.try_artifact(&key, &label, patterns.len()) {
            (TenantMatcher::Artifact(Box::new(re)), RegisterSource::Artifact)
        } else if let Some(re) = self.try_cache(&key, &label, patterns.len()) {
            (TenantMatcher::Artifact(Box::new(re)), RegisterSource::Cache)
        } else {
            (self.compile(&key, &label, patterns)?, RegisterSource::CompiledFresh)
        };

        let count = matcher.pattern_count();
        self.map
            .write()
            .expect("tenant registry lock poisoned by a panicking holder")
            .insert(tenant.to_string(), Arc::new(matcher));
        Ok((count, source))
    }

    /// Whether `re` answers for the requested namespace: the same label,
    /// pattern count and match mode. The [key](namespace_key) finds the
    /// stored artifact; this check refuses one that does not fit it (a
    /// file another build or mode wrote, or a hash collision). Tiers 1
    /// and 2 serve only a regex that passes, so tier 3 stores only one
    /// that passes.
    fn serves(&self, re: &Regex, label: &str, pattern_count: usize) -> bool {
        re.pattern() == label
            && re.pattern_count() == pattern_count
            && re.mode() == self.config.mode
    }

    /// Tier 1: durable artifact, validated against the requested
    /// namespace before use.
    fn try_artifact(&self, key: &str, label: &str, pattern_count: usize) -> Option<Regex> {
        let path = self.artifact_path(key)?;
        let re = Regex::load_artifact(&path).ok()?;
        self.serves(&re, label, pattern_count).then_some(re)
    }

    /// Tier 2: the in-memory encoded-artifact cache.
    fn try_cache(&self, key: &str, label: &str, pattern_count: usize) -> Option<Regex> {
        let re = Regex::from_artifact(self.cache.get(key)?).ok()?;
        self.serves(&re, label, pattern_count).then_some(re)
    }

    /// Tier 3: fresh compile, then warm the cache and the artifact
    /// directory for the next registration / next cold start.
    fn compile(
        &self,
        key: &str,
        label: &str,
        patterns: &[String],
    ) -> Result<TenantMatcher, String> {
        let set = RegexSet::new(patterns.iter().map(|p| p.as_str()), &self.builder())
            .map_err(|e| format!("compile failed: {e}"))?;
        // Only unsharded eager automata serialize; sharded or lazy sets
        // simply skip the warm-up (to_artifact refuses them typed-ly). A
        // list with repeated patterns, or none, compiles to another label
        // and count than the request's, so no later registration could
        // read its artifact: it skips the warm-up too.
        if !set.is_sharded() && self.serves(set.regex(), label, patterns.len()) {
            if let Ok(bytes) = set.regex().to_artifact() {
                let bytes = Arc::new(bytes);
                self.cache.insert(key.to_string(), Arc::clone(&bytes));
                if let Some(path) = self.artifact_path(key) {
                    // Best effort: a read-only artifact dir just means the
                    // next cold start compiles again.
                    let dir =
                        path.parent().expect("an artifact path is a file in the artifact dir");
                    let _ = std::fs::create_dir_all(dir);
                    let _ = std::fs::write(&path, bytes.as_slice());
                }
            }
        }
        Ok(TenantMatcher::Compiled(set))
    }

    /// The tenant's matcher, cloned out of the lock so matching never
    /// holds the registry.
    pub fn get(&self, tenant: &str) -> Result<Arc<TenantMatcher>, Error> {
        self.map
            .read()
            .expect("tenant registry lock poisoned by a panicking holder")
            .get(tenant)
            .cloned()
            .ok_or_else(|| Error::TenantUnknown { tenant: tenant.to_string() })
    }

    /// Observability: cached artifact bytes currently held.
    pub fn cache_bytes(&self) -> usize {
        self.cache.bytes()
    }
}

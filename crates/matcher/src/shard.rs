//! Auto-sharding for [`RegexSet`](crate::RegexSet): budget-bounded
//! shards instead of one exponentially-growing product automaton.
//!
//! Tracking which rule of a `Contains`-mode set matched makes the
//! combined DFA remember *which* rules already hit — and since every
//! hit-combination of independent rules is reachable, the product DFA
//! grows with up to `2^rules` (the ids_scan ruleset: 787 states untracked
//! → 5 668 tracked, for only four rules). No budget on the union can fix
//! that; the fix is to stop building one union.
//!
//! The packer here is a greedy next-fit bin-packer driven by the real
//! cost function: it extends the current shard one rule at a time,
//! re-running the budget-capped subset construction as the fit test, and
//! closes the shard the moment a candidate rule would push the
//! determinized DFA past the per-shard state budget. The last successful
//! trial DFA is reused as the closed shard's DFA, so nothing determinizes
//! twice. A rule that busts the budget *alone* becomes a singleton
//! fallback shard compiled under the builder's full
//! [`max_dfa_states`](crate::RegexBuilder::max_dfa_states) limit — one
//! pathological rule degrades only itself, not its neighbors' packing.
//!
//! After packing, every rule's AST is run through
//! [required-literal clause extraction](sfa_regex_syntax::required_literal_clauses):
//! a conjunction of any-of literal sets, every clause of which must be
//! satisfied for the rule to match (`login.{0,64}passwd` requires *both*
//! tokens). Shards whose *every* member yields a clause list are
//! **gated** behind one shared [`Prefilter`] over the distinct literals:
//! a gated shard's automaton runs only on haystacks where some member
//! rule has at least one literal of each of its clauses present.
//! Extraction runs on the raw (pre-wrap) AST, which is sound in both
//! match modes — a `Contains` match contains a word of the raw pattern,
//! which satisfies every required clause.
//!
//! Every set is a list of shards: without a budget it is one ungated
//! shard over all its rules. This module also holds the one batch core
//! (`scan_batch`) that every batch API runs — a set over its shards
//! behind the prefilter, a plain [`Regex`] as one shard with every
//! haystack active.

use crate::chunk::pack_by_bytes_lanes;
use crate::error::Error;
use crate::pool::MIN_POOL_CHUNK_BYTES;
use crate::prefilter::Prefilter;
use crate::regex::{set_label, union_nfa, Regex, RegexBuilder};
use crate::strategy::Strategy;
use sfa_automata::{determinize, CompileError, Dfa, DfaConfig, PatternId, PatternSet, StateId};
use sfa_core::{SfaStateId, StateIdRepr};
use sfa_regex_syntax::literal::required_literal_clauses;
use sfa_regex_syntax::Ast;
use std::collections::HashMap;

/// One shard of a [`RegexSet`](crate::RegexSet): a compiled
/// sub-automaton covering a contiguous (in packing order) group of the
/// set's distinct rules. An unsharded set is one shard holding all of
/// them. Returned by [`RegexSet::shards`](crate::RegexSet::shards).
#[derive(Clone, Debug)]
pub struct Shard {
    regex: Regex,
    members: Vec<PatternId>,
    gated: bool,
    fallback: bool,
}

impl Shard {
    /// The compiled automaton of this shard's rules. Verdict index `i`
    /// of its [`matches`](Regex::matches) is rule `members()[i]` of the
    /// owning set.
    pub fn regex(&self) -> &Regex {
        &self.regex
    }

    /// The rules in this shard, as indices into the owning set's
    /// deduplicated pattern universe (equal to the set's pattern indices
    /// whenever the set has no duplicate patterns).
    pub fn members(&self) -> &[PatternId] {
        &self.members
    }

    /// The number of rules in this shard.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether this shard has no rules: true only for the one shard of
    /// an empty set (the void automaton); every other shard holds at
    /// least one rule.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether this shard sits behind the set's literal [`Prefilter`]:
    /// every member rule proved a required-literal clause list, so the
    /// shard's automaton is only consulted on haystacks where some member
    /// has a literal of *each* of its clauses present (`login.{0,64}passwd`
    /// needs both tokens before its shard runs).
    pub fn is_gated(&self) -> bool {
        self.gated
    }

    /// Whether this is a singleton fallback shard: the rule's own DFA
    /// exceeded the per-shard budget, so it was compiled alone under the
    /// builder's full [`max_dfa_states`](crate::RegexBuilder::max_dfa_states)
    /// limit and may exceed the budget.
    pub fn is_fallback(&self) -> bool {
        self.fallback
    }

    /// The packed state-id width of this shard's transition tables
    /// ([`StateIdRepr::U32`] when the shard fell back to the lazy
    /// backend). Budget-bounded shards are exactly what makes packing
    /// pay: a few thousand determinized states keep `|S_d|` under
    /// 65 536, so sharded sets typically scan `u16` (often `u8`) tables
    /// throughout — the set-wide maximum is
    /// [`SizeReport::state_id_bytes`](sfa_core::SizeReport::state_id_bytes).
    pub fn repr(&self) -> StateIdRepr {
        self.regex.sfa().repr()
    }
}

/// The compiled form of every [`RegexSet`](crate::RegexSet): its shards,
/// the shared prefilter gating the literal-only ones, and the merge logic
/// that makes the per-shard verdicts look like one automaton. An
/// unsharded set is one ungated shard over all its rules. All verdicts
/// are over the set's deduplicated pattern universe; the owning
/// `RegexSet` lifts them to caller indices.
#[derive(Clone, Debug)]
pub(crate) struct ShardedSet {
    pub(crate) shards: Vec<Shard>,
    pub(crate) prefilter: Option<Prefilter>,
    /// The per-shard state budget, `None` for an unsharded set.
    pub(crate) budget: Option<usize>,
    pub(crate) unique: usize,
    /// Whether per-rule verdicts survived compilation: the builder's
    /// [`track_patterns`](crate::RegexBuilder::track_patterns), or a set
    /// of at most one distinct rule (which tracks for free).
    pub(crate) tracked: bool,
    /// Per deduplicated rule, its required-literal clauses as prefilter
    /// tags: the rule can only match a haystack where every inner `Vec`
    /// has at least one marked tag. `None` for rules without a provable
    /// clause list (their shards are ungated, so it is never consulted).
    rule_reqs: Vec<Option<Vec<Vec<u32>>>>,
    /// Per shard, whether it runs unconditionally — the `!gated` template
    /// the per-haystack activity vector starts from.
    ungated: Vec<bool>,
}

impl ShardedSet {
    /// Compiles `asts` (the deduplicated rules, with `texts` their
    /// pattern strings). Without a
    /// [shard budget](crate::RegexBuilder::shard_state_budget), or with
    /// fewer than two rules, the set is one shard whose members are all
    /// the rules in order; otherwise the rules are packed into
    /// budget-bounded shards, see the [module docs](self) for the
    /// algorithm.
    pub(crate) fn build(
        builder: &RegexBuilder,
        texts: &[String],
        asts: Vec<Ast>,
    ) -> Result<ShardedSet, CompileError> {
        debug_assert_eq!(texts.len(), asts.len());
        let unique = asts.len();
        let tracked = builder.track_patterns || unique <= 1;
        let Some(budget) = builder.shard_budget.filter(|_| unique > 1) else {
            let regex = builder.build_from_asts(set_label(texts), asts)?;
            let members = (0..unique as PatternId).collect();
            return Ok(ShardedSet {
                shards: vec![Shard { regex, members, gated: false, fallback: false }],
                prefilter: None,
                budget: None,
                unique,
                tracked,
                rule_reqs: vec![None; unique],
                ungated: vec![true],
            });
        };
        // The fit test: determinize under the shard budget (never above
        // the builder's own DFA limit).
        let trial_cfg =
            DfaConfig { max_states: budget.min(builder.dfa.max_states), ..builder.dfa.clone() };
        // Packing order: biggest solo DFA first. Next-fit is sensitive to
        // arrival order — a large rule arriving at a nearly-full shard
        // closes it with most of the budget unused. Sorting by each rule's
        // own budget-capped trial size (the classic next-fit-decreasing
        // heuristic) lets big rules claim fresh shards and small rules
        // backfill the remainder, which packs the same ruleset into
        // measurably fewer shards. Rules that bust the budget alone sort
        // first and take their fallback singletons immediately.
        let mut solo_states: Vec<usize> = Vec::with_capacity(asts.len());
        for ast in &asts {
            let (wrapped, _) = builder.wrap_branches(vec![ast.clone()]);
            let nfa = union_nfa(&wrapped)?;
            match determinize(&nfa, &trial_cfg) {
                Ok(dfa) => solo_states.push(dfa.num_states()),
                Err(CompileError::TooManyStates { .. }) => solo_states.push(usize::MAX),
                Err(e) => return Err(e),
            }
        }
        let mut order: Vec<usize> = (0..asts.len()).collect();
        // Stable sort: equal-size rules keep their user-given order.
        order.sort_by_key(|&u| std::cmp::Reverse(solo_states[u]));
        let mut shards: Vec<Shard> = Vec::new();
        let mut open: Vec<PatternId> = Vec::new();
        let mut open_good: Option<(usize, Dfa)> = None;
        let mut pos = 0;
        while pos < order.len() {
            let i = order[pos];
            let mut candidate = open.clone();
            candidate.push(i as PatternId);
            let branches: Vec<Ast> = candidate.iter().map(|&u| asts[u as usize].clone()).collect();
            let (wrapped, _) = builder.wrap_branches(branches);
            let nfa = union_nfa(&wrapped)?;
            match determinize(&nfa, &trial_cfg) {
                Ok(dfa) => {
                    open = candidate;
                    open_good = Some((nfa.num_states(), dfa));
                    pos += 1;
                }
                Err(CompileError::TooManyStates { .. }) if open.is_empty() => {
                    // The rule busts the budget alone: singleton fallback
                    // under the builder's full limits.
                    let (wrapped, _) = builder.wrap_branches(vec![asts[i].clone()]);
                    let nfa = union_nfa(&wrapped)?;
                    let dfa = determinize(&nfa, &builder.dfa)?;
                    let regex =
                        builder.finish_regex(texts[i].clone(), nfa.num_states(), &dfa, false)?;
                    shards.push(Shard {
                        regex,
                        members: vec![i as PatternId],
                        gated: false,
                        fallback: true,
                    });
                    pos += 1;
                }
                Err(CompileError::TooManyStates { .. }) => {
                    // Close the open shard on its last good trial; rule i
                    // retries against a fresh shard (pos not advanced).
                    let (nfa_states, dfa) = open_good.take().expect("open shard had a good trial");
                    shards.push(close_shard(
                        builder,
                        texts,
                        std::mem::take(&mut open),
                        nfa_states,
                        &dfa,
                    )?);
                }
                Err(e) => return Err(e),
            }
        }
        if let Some((nfa_states, dfa)) = open_good.take() {
            if !open.is_empty() {
                shards.push(close_shard(builder, texts, open, nfa_states, &dfa)?);
            }
        }

        // Gate shards whose every rule proves a required-literal clause
        // list; one prefilter serves them all, tagged by distinct literal
        // (shared literals share a tag).
        let clauses: Vec<Option<Vec<Vec<Vec<u8>>>>> =
            asts.iter().map(required_literal_clauses).collect();
        let mut tag_of: HashMap<Vec<u8>, u32> = HashMap::new();
        let mut pairs: Vec<(Vec<u8>, u32)> = Vec::new();
        let mut rule_reqs: Vec<Option<Vec<Vec<u32>>>> = vec![None; unique];
        for shard in shards.iter_mut() {
            if shard.members.iter().any(|&u| clauses[u as usize].is_none()) {
                continue;
            }
            shard.gated = true;
            for &u in &shard.members {
                let reqs = clauses[u as usize]
                    .as_ref()
                    .expect("checked above")
                    .iter()
                    .map(|clause| {
                        clause
                            .iter()
                            .map(|lit| {
                                *tag_of.entry(lit.clone()).or_insert_with(|| {
                                    pairs.push((lit.clone(), pairs.len() as u32));
                                    (pairs.len() - 1) as u32
                                })
                            })
                            .collect()
                    })
                    .collect();
                rule_reqs[u as usize] = Some(reqs);
            }
        }
        let prefilter = if pairs.is_empty() { None } else { Some(Prefilter::new(pairs)) };
        let ungated: Vec<bool> = shards.iter().map(|s| !s.gated).collect();

        Ok(ShardedSet {
            shards,
            prefilter,
            budget: Some(budget),
            unique,
            tracked,
            rule_reqs,
            ungated,
        })
    }

    /// `Err(PatternTrackingDisabled)` when the rules were compiled
    /// collapsed (see [`RegexBuilder::track_patterns`](crate::RegexBuilder::track_patterns)).
    pub(crate) fn check_tracking(&self) -> Result<(), Error> {
        if self.tracked {
            Ok(())
        } else {
            Err(Error::PatternTrackingDisabled)
        }
    }

    /// Adds shard `shard`'s local accept set `local` to `into`, a verdict
    /// over the deduplicated universe, through the shard's member map.
    pub(crate) fn scatter(&self, into: &mut PatternSet, shard: usize, local: &PatternSet) {
        for hit in local.iter() {
            into.insert(self.shards[shard].members[hit as usize]);
        }
    }

    /// The prefilter's tag universe (0 without a prefilter) — the scratch
    /// size [`Self::active_shards_into`] needs for its literal marks.
    fn tag_count(&self) -> usize {
        self.prefilter.as_ref().map_or(0, Prefilter::tag_count)
    }

    /// Computes into `active` which shards must run on `haystack`:
    /// ungated shards always, gated shards only when some member rule has
    /// every required-literal clause satisfied. `marks` is reusable
    /// scratch of at least [`Self::tag_count`] bools (overwritten here);
    /// batch callers pass the same buffers for every haystack so the
    /// per-haystack cost is one prefilter scan and zero allocations.
    fn active_shards_into(&self, haystack: &[u8], marks: &mut [bool], active: &mut Vec<bool>) {
        active.clear();
        active.extend_from_slice(&self.ungated);
        let Some(prefilter) = &self.prefilter else { return };
        marks.fill(false);
        if prefilter.scan_into(haystack, marks) == 0 {
            // No literal occurs at all: no gated shard can activate.
            return;
        }
        for (a, shard) in active.iter_mut().zip(&self.shards) {
            if !*a {
                *a = shard.members.iter().any(|&u| {
                    self.rule_reqs[u as usize]
                        .as_ref()
                        .expect("gated shards' members all have clauses")
                        .iter()
                        .all(|clause| clause.iter().any(|&t| marks[t as usize]))
                });
            }
        }
    }

    /// One-shot [`Self::active_shards_into`] for the single-haystack
    /// entry points.
    fn active_shards(&self, haystack: &[u8]) -> Vec<bool> {
        let mut marks = vec![false; self.tag_count()];
        let mut active = Vec::with_capacity(self.shards.len());
        self.active_shards_into(haystack, &mut marks, &mut active);
        active
    }

    /// Any-match over the active shards, earliest hit wins.
    pub(crate) fn is_match(&self, haystack: &[u8]) -> bool {
        self.active_shards(haystack)
            .into_iter()
            .zip(&self.shards)
            .any(|(active, shard)| active && shard.regex.is_match(haystack))
    }

    /// Per-rule verdict over the deduplicated universe: every active
    /// shard's verdict, scattered through its member map. Skipped gated
    /// shards contribute nothing — sound, because without a required
    /// literal in the haystack none of their rules can match.
    pub(crate) fn matches_with(
        &self,
        haystack: &[u8],
        strategy: Strategy,
    ) -> Result<PatternSet, Error> {
        self.check_tracking()?;
        let active = self.active_shards(haystack);
        let mut out = PatternSet::new(self.unique);
        for (sid, (shard, active)) in self.shards.iter().zip(active).enumerate() {
            if active {
                let local = shard.regex.try_matches_with(haystack, strategy)?;
                self.scatter(&mut out, sid, local.as_pattern_set());
            }
        }
        Ok(out)
    }

    /// Runs the [batch core](scan_batch) over the shards, each haystack
    /// only on the shards its prefilter pass leaves active: one
    /// prefilter pass per haystack, flattened into a single allocation
    /// for the whole batch (bit `i * shards + sid` says shard `sid` must
    /// run on haystack `i`) plus reused scan scratch.
    pub(crate) fn scan_active(
        &self,
        haystacks: &[&[u8]],
        visit: impl FnMut(usize, usize, StateId),
    ) {
        let ns = self.shards.len();
        let mut actives = vec![false; haystacks.len() * ns];
        let mut marks = vec![false; self.tag_count()];
        let mut active = Vec::with_capacity(ns);
        for (i, h) in haystacks.iter().enumerate() {
            self.active_shards_into(h, &mut marks, &mut active);
            actives[i * ns..(i + 1) * ns].copy_from_slice(&active);
        }
        let regexes: Vec<&Regex> = self.shards.iter().map(Shard::regex).collect();
        scan_batch(&regexes, haystacks, |i, sid| actives[i * ns + sid], visit);
    }
}

/// The batch core behind every batch API: [`Regex::is_match_batch`] and
/// its siblings run it with the regex as the one shard and every
/// haystack active, [`RegexSet::match_batch`](crate::RegexSet::match_batch)
/// and its siblings over the set's shards behind the prefilter.
///
/// Every (shard, haystack) pair that `is_active(haystack, shard)` admits
/// is scanned once, and `visit(haystack, shard, q)` receives its final
/// DFA state `q` on the calling thread. All pairs run as **one** engine
/// batch: each shard's active haystacks are packed into groups of about
/// [`MIN_POOL_CHUNK_BYTES`], closed only on full lane complements of the
/// shard backend's
/// [`preferred_lanes`](sfa_core::SfaBackend::preferred_lanes), and every
/// (shard, group) pair becomes one job. Inside a job the group is
/// scanned from the identity state with
/// [`SfaBackend::run_from_many`](sfa_core::SfaBackend::run_from_many),
/// which walks [`INTERLEAVE_LANES`](sfa_core::dsfa::INTERLEAVE_LANES)
/// haystacks in lockstep on eager backends; the final DFA state is the
/// end state's mapping applied to the DFA start state (Lemma 1). Jobs
/// from all shards drain through the pool together, so hundreds of
/// shards cost one hand-off, not one each.
///
/// Two rules decide where the work runs:
///
/// * a haystack whose own [`Engine::plan_chunks`](crate::Engine::plan_chunks)
///   uses the pool runs Algorithm 5 across the workers (the builder's
///   `threads` and reduction) instead of joining a group;
/// * the jobs run inline on the calling thread when `threads` is 1, the
///   engine has one worker, or each worker's share of the grouped bytes
///   is under [`MIN_POOL_CHUNK_BYTES`].
///
/// Every shard of a set comes from one builder, so the first shard's
/// engine and `threads` speak for all of them.
pub(crate) fn scan_batch(
    regexes: &[&Regex],
    haystacks: &[&[u8]],
    is_active: impl Fn(usize, usize) -> bool,
    mut visit: impl FnMut(usize, usize, StateId),
) {
    let Some(lead) = regexes.first() else { return };
    let (engine, threads) = (lead.engine(), lead.threads());
    let mut jobs: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut total = 0usize;
    for (sid, regex) in regexes.iter().enumerate() {
        let mut idxs: Vec<usize> = Vec::new();
        for (i, h) in haystacks.iter().enumerate() {
            if !is_active(i, sid) {
                continue;
            }
            if engine.plan_chunks(h.len(), threads).use_pool {
                visit(i, sid, regex.run(h, regex.parallel_strategy()));
            } else {
                idxs.push(i);
            }
        }
        let sizes: Vec<usize> = idxs.iter().map(|&i| haystacks[i].len()).collect();
        total += sizes.iter().sum::<usize>();
        let lanes = regex.sfa().preferred_lanes();
        for range in pack_by_bytes_lanes(&sizes, MIN_POOL_CHUNK_BYTES, lanes) {
            jobs.push((sid, idxs[range].to_vec()));
        }
    }
    let workers = threads.clamp(1, engine.workers());
    let pooled = workers > 1 && total / workers >= MIN_POOL_CHUNK_BYTES;
    let scanned = engine.map_chunks(jobs, pooled, |_, (sid, idxs)| {
        let backend = regexes[sid].sfa();
        let init = backend.initial();
        let scan: Vec<(SfaStateId, &[u8])> = idxs.iter().map(|&i| (init, haystacks[i])).collect();
        let finals: Vec<StateId> = backend
            .run_from_many(&scan)
            .into_iter()
            .map(|f| backend.apply(f, backend.dfa_start()))
            .collect();
        (sid, idxs, finals)
    });
    for (sid, idxs, finals) in scanned {
        for (i, q) in idxs.into_iter().zip(finals) {
            visit(i, sid, q);
        }
    }
}

/// Compiles a closed shard from its last successful trial DFA.
fn close_shard(
    builder: &RegexBuilder,
    texts: &[String],
    members: Vec<PatternId>,
    nfa_states: usize,
    dfa: &Dfa,
) -> Result<Shard, CompileError> {
    let member_texts: Vec<String> = members.iter().map(|&u| texts[u as usize].clone()).collect();
    let collapsed = !builder.track_patterns && members.len() > 1;
    let regex = builder.finish_regex(set_label(&member_texts), nfa_states, dfa, collapsed)?;
    Ok(Shard { regex, members, gated: false, fallback: false })
}

#[cfg(test)]
mod tests {
    use crate::regex::{BackendChoice, MatchMode, Regex, RegexSet};
    use crate::Error;

    fn builder() -> crate::RegexBuilder {
        // The caps keep the (deliberately mis-sized) combined automata in
        // these tests cheap to build: overflowing eager SFAs fall back to
        // the lazy backend instead of materializing huge tables.
        Regex::builder()
            .mode(MatchMode::Contains)
            .backend(BackendChoice::Auto)
            .max_dfa_states(50_000)
            .max_sfa_states(2_000)
    }

    const RULES: [&str; 6] = [
        "attack[0-9]{2}",
        "exploit[a-z]{2}",
        "(?i)etc/passwd",
        "overflow(ed)?",
        "payload=[a-f0-9]{4,16}",
        "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}",
    ];

    /// A subset of [`RULES`] whose *tracked product* automaton stays
    /// small enough to build as the unsharded reference in debug tests.
    const AGREE_RULES: [&str; 4] =
        ["attack[0-9]{2}", "exploit[a-z]{2}", "(?i)etc/passwd", "overflow(ed)?"];

    #[test]
    fn tiny_budget_forces_many_shards_same_verdicts() {
        let unsharded = RegexSet::new(AGREE_RULES, &builder()).unwrap();
        let sharded = RegexSet::new(AGREE_RULES, &builder().shard_state_budget(64)).unwrap();
        assert!(sharded.is_sharded());
        assert!(!unsharded.is_sharded());
        assert!(sharded.shards().len() > 1, "64 states cannot hold all four rules");
        assert_eq!(sharded.shard_state_budget(), Some(64));
        // Every rule lives in exactly one shard.
        let mut seen: Vec<u32> =
            sharded.shards().iter().flat_map(|s| s.members()).copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..AGREE_RULES.len() as u32).collect::<Vec<_>>());
        // Non-fallback shards respect the budget.
        for shard in sharded.shards() {
            if !shard.is_fallback() {
                assert!(shard.regex().dfa().num_states() <= 64);
            }
        }
        for hay in [
            &b"GET /attack42 HTTP/1.1"[..],
            b"exploitok and ETC/PASSWD",
            b"overflowed",
            b"benign line",
            b"",
        ] {
            assert_eq!(sharded.matches(hay), unsharded.matches(hay), "{hay:?}");
            assert_eq!(sharded.is_match(hay), unsharded.is_match(hay), "{hay:?}");
        }
        let hays: Vec<&[u8]> = vec![b"attack77", b"nothing", b"overflowed exploitme"];
        assert_eq!(sharded.matches_batch(&hays), unsharded.matches_batch(&hays));
        assert_eq!(sharded.match_batch(&hays), unsharded.match_batch(&hays));
    }

    #[test]
    fn generous_budget_keeps_one_shard() {
        let sharded = RegexSet::new(
            ["attack[0-9]{2}", "exploit[a-z]{2}"],
            &builder().shard_state_budget(100_000),
        )
        .unwrap();
        assert_eq!(sharded.shards().len(), 1);
        // Members are in packing order (largest solo DFA first), not rule
        // order; both rules still land in the one shard.
        let mut members = sharded.shards()[0].members().to_vec();
        members.sort_unstable();
        assert_eq!(members, &[0, 1]);
        assert!(sharded.matches(b"attack42 exploitok").iter().eq([0, 1]));
    }

    #[test]
    fn pathological_rule_gets_a_fallback_singleton() {
        // The bounded-gap rule needs > 200 DFA states on its own (the
        // counter alone is 200 wide); under a 150-state budget it must
        // become a fallback shard while the small rules still pack.
        let rules = ["attack[0-9]{2}", "select.{0,200}from", "exploit[a-z]{2}"];
        let sharded = RegexSet::new(rules, &builder().shard_state_budget(150)).unwrap();
        let fallbacks: Vec<_> = sharded.shards().iter().filter(|s| s.is_fallback()).collect();
        assert_eq!(fallbacks.len(), 1);
        assert_eq!(fallbacks[0].members(), &[1]);
        assert!(fallbacks[0].regex().dfa().num_states() > 150);
        let m = sharded.matches(b"u=select name, pass from users");
        assert!(m.matched(1) && !m.matched(0) && !m.matched(2));
    }

    #[test]
    fn prefilter_gates_literal_shards_only() {
        let sharded = RegexSet::new(RULES, &builder().shard_state_budget(64)).unwrap();
        // Rules 0–4 all have required literals; rule 5 (dotted digits)
        // has none, so its shard must stay ungated.
        let prefilter = sharded.prefilter().expect("literal rules gate their shards");
        assert!(prefilter.literal_count() > 0);
        for shard in sharded.shards() {
            let has_ip_rule = shard.members().contains(&5);
            assert_eq!(!shard.is_gated(), has_ip_rule, "members {:?}", shard.members());
        }
        // A haystack matching only the literal-free rule: the gated
        // shards are skipped, the verdict still complete.
        let m = sharded.matches(b"GET / from 192.168.0.1");
        assert!(m.iter().eq([5]));
    }

    #[test]
    fn proximity_rules_gate_on_both_tokens() {
        // `login.{0,32}passwd` proves two clauses: `login` AND `passwd`.
        // Its shard must stay inactive when only one token occurs — the
        // conjunctive gate is what keeps trigger-happy first tokens from
        // waking the expensive bounded-gap automaton.
        let rules = ["login.{0,32}passwd", "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}"];
        let set = RegexSet::new(rules, &builder().shard_state_budget(64)).unwrap();
        assert!(set.is_sharded(), "a shard budget was set");
        let sharded = set.sharded();
        let sid =
            |rule: u32| sharded.shards.iter().position(|s| s.members().contains(&rule)).unwrap();
        let (proximity, ip) = (sid(0), sid(1));
        assert_ne!(proximity, ip, "a 64-state budget cannot merge these rules");
        assert!(sharded.shards[proximity].is_gated());
        assert!(!sharded.shards[ip].is_gated(), "the literal-free rule stays ungated");
        for (hay, expect) in [
            (&b"GET /login/session HTTP/1.1"[..], false), // first token only
            (b"old passwd file", false),                  // second token only
            (b"login: passwd", true),                     // both tokens
            (b"totally benign", false),
        ] {
            let active = sharded.active_shards(hay);
            assert_eq!(active[proximity], expect, "{:?}", String::from_utf8_lossy(hay));
            assert!(active[ip], "ungated shards always run");
        }
        // And the gate never costs a true match.
        let m = set.matches(b"login=admin&passwd=hunter2 from 10.0.0.1");
        assert!(m.matched(0) && m.matched(1));
        assert!(!set.matches(b"login only").matched(0));
    }

    #[test]
    fn untracked_sharded_set_does_any_match_only() {
        let sharded =
            RegexSet::new(RULES, &builder().shard_state_budget(64).track_patterns(false)).unwrap();
        let tracked = RegexSet::new(RULES, &builder().shard_state_budget(64)).unwrap();
        assert!(!sharded.tracks_patterns());
        for hay in [&b"attack42"[..], b"benign", b"10.0.0.1"] {
            assert_eq!(sharded.is_match(hay), tracked.is_match(hay));
        }
        assert_eq!(sharded.try_matches(b"attack42"), Err(Error::PatternTrackingDisabled));
        assert_eq!(
            sharded.try_matches_batch(&[&b"attack42"[..]]),
            Err(Error::PatternTrackingDisabled)
        );
    }

    #[test]
    fn duplicate_rules_share_a_bit_across_shards() {
        let rules = ["attack[0-9]{2}", "exploit[a-z]{2}", "attack[0-9]{2}", "(exploit)[a-z]{2}"];
        let sharded = RegexSet::new(rules, &builder().shard_state_budget(64)).unwrap();
        assert_eq!(sharded.len(), 4);
        // Two distinct rules; duplicates (including the alias spelled
        // with a group) never enter the packer.
        let total: usize = sharded.shards().iter().map(|s| s.len()).sum();
        assert_eq!(total, 2);
        let m = sharded.matches(b"attack42");
        assert!(m.iter().eq([0, 2]));
        let m = sharded.matches(b"exploitok");
        assert!(m.iter().eq([1, 3]));
    }

    #[test]
    fn sharded_size_report_counts_shards() {
        use sfa_core::{BackendKind, StateIdRepr};
        let sharded = RegexSet::new(RULES, &builder().shard_state_budget(64)).unwrap();
        let report = sharded.size_report();
        assert_eq!(report.shards, sharded.shards().len());
        assert!(report.shards > 1);
        assert!(report.max_shard_dfa_states <= 64);
        // Budget-bounded shards pack: every eager shard's SFA fits a
        // narrow id, lazy fallbacks report the u32 cache width, and the
        // combined report carries the set-wide maximum.
        for shard in sharded.shards() {
            match shard.regex().backend_kind() {
                BackendKind::Eager => assert!(shard.repr().bytes() <= 2, "{:?}", shard.members()),
                BackendKind::Lazy => assert_eq!(shard.repr(), StateIdRepr::U32),
            }
        }
        let widest = sharded.shards().iter().map(|s| s.repr().bytes()).max().unwrap();
        assert_eq!(report.state_id_bytes, widest);
        assert_eq!(
            report.dfa_states,
            sharded.shards().iter().map(|s| s.regex().dfa().num_states()).sum::<usize>()
        );
        // The unsharded single automaton reports itself as one shard.
        let unsharded = RegexSet::new(AGREE_RULES, &builder()).unwrap();
        let single = unsharded.size_report();
        assert_eq!(single.shards, 1);
        assert_eq!(single.max_shard_dfa_states, single.dfa_states);
    }

    #[test]
    #[should_panic(expected = "no single combined automaton")]
    fn regex_accessor_panics_on_sharded_sets() {
        let sharded = RegexSet::new(RULES, &builder().shard_state_budget(64)).unwrap();
        let _ = sharded.regex();
    }
}

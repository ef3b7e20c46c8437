//! Auto-sharding for [`RegexSet`](crate::RegexSet): budget-bounded
//! shards instead of one exponentially-growing product automaton.
//!
//! Tracking which rule of a `Contains`-mode set matched makes the
//! combined DFA remember *which* rules already hit — and since every
//! hit-combination of independent rules is reachable, the product DFA
//! grows with up to `2^rules` (the ids_scan ruleset: 787 states for the
//! plain any-match union → 5 668 with per-rule verdicts, for only four
//! rules). No budget on the union can fix that; the fix is to stop
//! building one union.
//!
//! The packer here is a greedy next-fit bin-packer driven by the real
//! cost function: it extends the current shard one rule at a time and
//! closes the shard the moment a candidate rule would push the
//! determinized DFA past the per-shard state budget. Each rule's NFA is
//! determinized once, alone, under the budget. The fit test is then
//! [`determinize_union`] of the open shard's DFA and the candidate's:
//! the exact tagged-union DFA, built as a product without the union NFA
//! and stopped at the budget. The last successful trial is the closed
//! shard's DFA. A rule that busts the budget *alone* becomes a
//! singleton fallback shard compiled under the builder's full
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
//! haystack active. The core is haystack-major: one pool job takes a
//! group of haystacks, runs the prefilter over them and scans each shard
//! they need, four haystacks in lockstep.

use crate::chunk::pack_by_bytes_lanes;
use crate::pool::MIN_POOL_CHUNK_BYTES;
use crate::prefilter::Prefilter;
use crate::regex::{set_label, union_nfa, Regex, RegexBuilder};
use crate::strategy::Strategy;
use sfa_automata::{
    determinize, determinize_union, CompileError, Dfa, DfaConfig, Nfa, PatternId, PatternSet,
    StateId,
};
use sfa_core::dsfa::INTERLEAVE_LANES;
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
        let Some(budget) = builder.shard_budget.filter(|_| unique > 1) else {
            let regex = builder.build_from_asts(set_label(texts), asts)?;
            let members = (0..unique as PatternId).collect();
            return Ok(ShardedSet {
                shards: vec![Shard { regex, members, gated: false, fallback: false }],
                prefilter: None,
                budget: None,
                unique,
                rule_reqs: vec![None; unique],
                ungated: vec![true],
            });
        };
        // The fit test: the tagged union of the open shard and the
        // candidate rule under the shard budget (never above the builder's
        // own DFA limit).
        let trial_cfg =
            DfaConfig { max_states: budget.min(builder.dfa.max_states), ..builder.dfa.clone() };
        // Each rule is determinized once, here: its solo DFA under the
        // budget (`None` when it busts the budget alone) and its NFA size.
        // The solo DFA is kept until the rule is placed; every fit trial
        // is the product of the open shard's DFA and the rule's.
        let mut solo: Vec<Option<Dfa>> = Vec::with_capacity(unique);
        let mut nfa_states: Vec<usize> = Vec::with_capacity(unique);
        for ast in &asts {
            let nfa = rule_nfa(builder, ast)?;
            nfa_states.push(nfa.num_states());
            solo.push(match determinize(&nfa, &trial_cfg) {
                Ok(dfa) => Some(dfa),
                Err(CompileError::TooManyStates { .. }) => None,
                Err(e) => return Err(e),
            });
        }
        // Packing order: biggest solo DFA first. Next-fit is sensitive to
        // arrival order — a large rule arriving at a nearly-full shard
        // closes it with most of the budget unused. Sorting by each rule's
        // own budget-capped trial size (the classic next-fit-decreasing
        // heuristic) lets big rules claim fresh shards and small rules
        // backfill the remainder, which packs the same ruleset into
        // measurably fewer shards. Rules that bust the budget alone sort
        // first and take their fallback singletons immediately.
        let mut order: Vec<usize> = (0..unique).collect();
        // Stable sort: equal-size rules keep their user-given order.
        order.sort_by_key(|&u| {
            std::cmp::Reverse(solo[u].as_ref().map_or(usize::MAX, Dfa::num_states))
        });
        let mut shards: Vec<Shard> = Vec::new();
        let mut open: Vec<PatternId> = Vec::new();
        let mut open_dfa: Option<Dfa> = None;
        let mut pos = 0;
        while pos < order.len() {
            let i = order[pos];
            let trial = match (&open_dfa, &solo[i]) {
                // A union has at least as many states as either side, so a
                // rule that busts the budget alone busts every shard.
                (_, None) => Err(CompileError::TooManyStates { limit: trial_cfg.max_states }),
                (None, Some(rule)) => Ok(rule.clone()),
                (Some(shard), Some(rule)) => determinize_union(shard, rule, &trial_cfg),
            };
            match trial {
                Ok(dfa) => {
                    open.push(i as PatternId);
                    open_dfa = Some(dfa);
                    solo[i] = None;
                    pos += 1;
                }
                Err(CompileError::TooManyStates { .. }) if open.is_empty() => {
                    // The rule busts the budget alone: singleton fallback
                    // under the builder's full limits.
                    let nfa = rule_nfa(builder, &asts[i])?;
                    let dfa = determinize(&nfa, &builder.dfa)?;
                    let regex = builder.finish_regex(texts[i].clone(), nfa.num_states(), &dfa)?;
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
                    let dfa = open_dfa.take().expect("an open shard has a DFA");
                    let members = std::mem::take(&mut open);
                    shards.push(close_shard(builder, texts, &nfa_states, members, dfa)?);
                }
                Err(e) => return Err(e),
            }
        }
        if let Some(dfa) = open_dfa {
            shards.push(close_shard(builder, texts, &nfa_states, open, dfa)?);
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

        Ok(ShardedSet { shards, prefilter, budget: Some(budget), unique, rule_reqs, ungated })
    }

    /// Adds shard `shard`'s local accept set `local` to `into`, a verdict
    /// over the deduplicated universe, through the shard's member map.
    pub(crate) fn scatter(&self, into: &mut PatternSet, shard: usize, local: &PatternSet) {
        for hit in local.iter() {
            into.insert(self.shards[shard].members[hit as usize]);
        }
    }

    /// Sets in `active` (one flag per shard) which shards must run on
    /// `haystack`: ungated shards always, gated shards only when some
    /// member rule has every required-literal clause satisfied. `marks` is
    /// scratch for the prefilter's literal marks, sized and cleared here;
    /// batch jobs pass the same buffers for each of their haystacks, so
    /// the per-haystack cost is one prefilter scan and no allocation.
    fn active_shards_into(&self, haystack: &[u8], marks: &mut Vec<bool>, active: &mut [bool]) {
        active.copy_from_slice(&self.ungated);
        let Some(prefilter) = &self.prefilter else { return };
        marks.clear();
        marks.resize(prefilter.tag_count(), false);
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
        let mut active = vec![false; self.shards.len()];
        self.active_shards_into(haystack, &mut Vec::new(), &mut active);
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
    pub(crate) fn matches_with(&self, haystack: &[u8], strategy: Strategy) -> PatternSet {
        let active = self.active_shards(haystack);
        let mut out = PatternSet::new(self.unique);
        for (sid, (shard, active)) in self.shards.iter().zip(active).enumerate() {
            if active {
                let local = shard.regex.matches_with(haystack, strategy);
                self.scatter(&mut out, sid, local.as_pattern_set());
            }
        }
        out
    }

    /// Runs the [batch core](scan_batch) over the shards, each haystack
    /// only on the shards the prefilter leaves active for it. The
    /// prefilter runs inside the batch's jobs, on the workers.
    pub(crate) fn scan_active(
        &self,
        haystacks: &[&[u8]],
        visit: impl FnMut(usize, usize, StateId),
    ) {
        let regexes: Vec<&Regex> = self.shards.iter().map(Shard::regex).collect();
        let active_into = |h: &[u8], marks: &mut Vec<bool>, active: &mut [bool]| {
            self.active_shards_into(h, marks, active)
        };
        scan_batch(&regexes, haystacks, active_into, visit);
    }
}

/// The batch core behind every batch API: [`Regex::is_match_batch`] and
/// its siblings run it with the regex as the one shard and every
/// haystack active, [`RegexSet::match_batch`](crate::RegexSet::match_batch)
/// and its siblings over the set's shards behind the prefilter.
///
/// `active_into(haystack, scratch, active)` sets `active[shard]` for
/// every shard that must scan `haystack` (`scratch` is job-local and
/// starts empty). Each pair it admits is scanned once, and
/// `visit(haystack, shard, q)` receives the pair's final DFA state `q` on
/// the calling thread.
///
/// The batch is haystack-major. The haystacks are packed in order into
/// groups of about [`MIN_POOL_CHUNK_BYTES`], closed only on full
/// complements of [`INTERLEAVE_LANES`], and each group is **one** job: it
/// computes its haystacks' active shards, then scans each active shard's
/// haystacks of the group from the identity state with one
/// [`SfaBackend::run_from_many`](sfa_core::SfaBackend::run_from_many),
/// which walks four haystacks in lockstep on the scalar eager walk and on
/// the lazy backend. The final DFA state is the end state's mapping applied to the
/// DFA start state (Lemma 1). The jobs drain through the pool together:
/// the prefilter runs on the workers, and hundreds of shards cost one
/// hand-off, not one each.
///
/// Two rules decide where the work runs:
///
/// * a haystack whose own [`Engine::plan_chunks`](crate::Engine::plan_chunks)
///   uses the pool joins no group: its active shards are found on the
///   calling thread, and each runs Algorithm 5 across the workers (the
///   builder's `threads` and reduction);
/// * the jobs run inline on the calling thread when `threads` is 1, the
///   engine has one worker, or each worker's share of the grouped
///   haystacks' bytes is under [`MIN_POOL_CHUNK_BYTES`].
///
/// Every shard of a set comes from one builder, so the first shard's
/// engine and `threads` speak for all of them.
pub(crate) fn scan_batch(
    regexes: &[&Regex],
    haystacks: &[&[u8]],
    active_into: impl Fn(&[u8], &mut Vec<bool>, &mut [bool]) + Sync,
    mut visit: impl FnMut(usize, usize, StateId),
) {
    let Some(lead) = regexes.first() else { return };
    let (engine, threads) = (lead.engine(), lead.threads());
    let shards = regexes.len();
    let (mut scratch, mut active) = (Vec::new(), vec![false; shards]);
    let mut grouped: Vec<usize> = Vec::with_capacity(haystacks.len());
    for (i, h) in haystacks.iter().enumerate() {
        // Only `threads > 1` uses the pool, and there Auto is Algorithm 5.
        if !engine.plan_chunks(h.len(), threads).use_pool {
            grouped.push(i);
            continue;
        }
        active_into(h, &mut scratch, &mut active);
        for (sid, regex) in regexes.iter().enumerate().filter(|&(sid, _)| active[sid]) {
            visit(i, sid, regex.run(h, Strategy::Auto));
        }
    }
    let sizes: Vec<usize> = grouped.iter().map(|&i| haystacks[i].len()).collect();
    let workers = threads.clamp(1, engine.workers());
    let pooled = workers > 1 && sizes.iter().sum::<usize>() / workers >= MIN_POOL_CHUNK_BYTES;
    let groups = pack_by_bytes_lanes(&sizes, MIN_POOL_CHUNK_BYTES, INTERLEAVE_LANES);
    let scanned = engine.map_chunks(groups, pooled, |_, group| {
        let members = &grouped[group];
        let mut scratch = Vec::new();
        let mut actives = vec![false; members.len() * shards];
        for (&i, row) in members.iter().zip(actives.chunks_exact_mut(shards)) {
            active_into(haystacks[i], &mut scratch, row);
        }
        let mut finals: Vec<(usize, usize, StateId)> = Vec::new();
        let mut ids: Vec<usize> = Vec::with_capacity(members.len());
        let mut jobs: Vec<(SfaStateId, &[u8])> = Vec::with_capacity(members.len());
        for (sid, regex) in regexes.iter().enumerate() {
            let backend = regex.sfa();
            ids.clear();
            for (&i, row) in members.iter().zip(actives.chunks_exact(shards)) {
                if row[sid] {
                    ids.push(i);
                }
            }
            if ids.is_empty() {
                continue;
            }
            jobs.clear();
            jobs.extend(ids.iter().map(|&i| (backend.initial(), haystacks[i])));
            for (&i, f) in ids.iter().zip(backend.run_from_many(&jobs)) {
                finals.push((i, sid, backend.apply(f, backend.dfa_start())));
            }
        }
        finals
    });
    for (i, sid, q) in scanned.into_iter().flatten() {
        visit(i, sid, q);
    }
}

/// The NFA of one rule alone, wrapped for the builder's match mode.
fn rule_nfa(builder: &RegexBuilder, ast: &Ast) -> Result<Nfa, CompileError> {
    union_nfa(&builder.wrap_branches(vec![ast.clone()]))
}

/// Compiles a closed shard from the DFA of its last successful trial,
/// the tagged union of its members.
fn close_shard(
    builder: &RegexBuilder,
    texts: &[String],
    nfa_states: &[usize],
    members: Vec<PatternId>,
    dfa: Dfa,
) -> Result<Shard, CompileError> {
    let member_texts: Vec<String> = members.iter().map(|&u| texts[u as usize].clone()).collect();
    // The union NFA is a fresh ε-start over every member's NFA; a single
    // rule compiles without one.
    let sizes = members.iter().map(|&u| nfa_states[u as usize]);
    let nfa_size = if members.len() == 1 { sizes.sum() } else { 1 + sizes.sum::<usize>() };
    let regex = builder.finish_regex(set_label(&member_texts), nfa_size, &dfa)?;
    Ok(Shard { regex, members, gated: false, fallback: false })
}

#[cfg(test)]
mod tests {
    use crate::pool::MIN_POOL_CHUNK_BYTES;
    use crate::regex::{BackendChoice, MatchMode, Regex, RegexSet};
    use crate::{Engine, Strategy};

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

        // A pooled batch on a fresh lazy set: three workers share the
        // prefilter and every shard's cold cache. The small haystacks
        // repeat (at ragged lengths) until each worker's share passes the
        // pool floor, and one haystack is big enough to run Algorithm 5
        // on its own.
        let engine = Engine::new(3);
        let lazy = builder().backend(BackendChoice::Lazy).engine(engine.clone()).threads(3);
        let lazy = RegexSet::new(AGREE_RULES, &lazy.shard_state_budget(64)).unwrap();
        assert!(lazy.shards().len() > 1);
        let small = [&hays[..], &[&b"exploitok and ETC/PASSWD"[..], b""][..]].concat();
        let mut owned: Vec<Vec<u8>> = Vec::new();
        while owned.iter().map(Vec::len).sum::<usize>() / 3 < 2 * MIN_POOL_CHUNK_BYTES {
            let k = owned.len();
            owned.push(small[k % small.len()].repeat(1 + k % 7));
        }
        let mut big = b"benign line, ".repeat(4 * MIN_POOL_CHUNK_BYTES / 13);
        big.extend_from_slice(b"attack42");
        assert!(engine.plan_chunks(big.len(), 3).use_pool);
        owned.insert(owned.len() / 2, big);
        let hays: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let (verdicts, any) = (lazy.matches_batch(&hays), lazy.match_batch(&hays));
        for (hay, (got, any)) in hays.iter().zip(verdicts.iter().zip(any)) {
            let want = lazy.matches_with(hay, Strategy::Sequential);
            assert_eq!((got, any), (&want, want.matched_any()), "{:?}", &hay[..hay.len().min(32)]);
        }
    }

    /// The product fit trials close shards exactly where determinizing
    /// the union NFA would: the next rule in packing order (the next
    /// shard's first) busts every closed shard's tagged union, and no
    /// non-fallback shard passes the budget.
    #[test]
    fn fit_trials_close_shards_where_determinize_would() {
        use crate::regex::union_nfa;
        use sfa_automata::{determinize, CompileError, DfaConfig, Nfa};
        let extra = ["(?i)union.{0,8}select", "cmd=[a-z]{2,6}", "%2[ef]%2[ef]"];
        let rules = [&RULES[..], &extra[..]].concat();
        for budget in [64, 200] {
            let b = builder().shard_state_budget(budget);
            let set = RegexSet::new(rules.iter().copied(), &b).unwrap();
            let wrapped = |members: &[u32]| {
                let asts = members.iter().map(|&u| sfa_regex_syntax::parse(rules[u as usize]));
                b.wrap_branches(asts.collect::<Result<_, _>>().unwrap())
            };
            let cfg = DfaConfig { max_states: budget, ..DfaConfig::default() };
            let shards = set.shards();
            assert!(shards.len() > 2, "budget {budget}");
            for shard in shards.iter().filter(|s| !s.is_fallback()) {
                let nfa = union_nfa(&wrapped(shard.members())).unwrap();
                assert!(determinize(&nfa, &cfg).is_ok(), "budget {budget}");
                assert!(shard.regex().dfa().num_states() <= budget);
            }
            for pair in shards.windows(2).filter(|pair| !pair[0].is_fallback()) {
                let mut members = pair[0].members().to_vec();
                members.push(pair[1].members()[0]);
                let tagged = Nfa::from_asts(&wrapped(&members)).unwrap();
                let bust = Err(CompileError::TooManyStates { limit: budget });
                assert_eq!(determinize(&tagged, &cfg).map(|_| ()), bust, "{members:?}");
            }
        }
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

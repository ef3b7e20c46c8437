//! Streaming (online) matching over input that arrives in blocks.
//!
//! Theorem 3 of the paper says the SFA computation decomposes at *any*
//! division of the word — the matcher exploits that for space-parallelism
//! (chunks of one buffer on many workers), but the same property works in
//! *time*: the division points can be the arrival boundaries of network
//! reads or log tails. A [`StreamMatcher`] keeps the SFA state reached by
//! everything fed so far; each [`feed`](StreamMatcher::feed) advances it by
//! one block, and because `f_w ⋄ f_v = f_wv` (Lemma 1) the state after the
//! last block is exactly the state of the concatenated input — no
//! buffering, no re-scanning, any block sizes.
//!
//! Within a single large block the two parallelisms compose: the block
//! runs Algorithm 5's chunk phase on the regex's
//! [`Engine`](crate::pool::Engine)
//! ([`ParallelSfaMatcher::chunk_states`], lanes included) exactly like a
//! whole-buffer parallel match, and the chunk states are folded into the
//! running state with
//! [`SfaBackend::compose_states`](sfa_core::SfaBackend::compose_states).
//! Small blocks (the common case for request-serving workloads) never
//! touch the pool: feeding them is a plain continuation of the table
//! walk, one lookup per byte. All of this runs identically over the
//! eager and the on-the-fly (lazy) [backend](sfa_core::SfaBackend) — on
//! a lazy backend the stream materializes states as the traffic visits
//! them, and a composition may intern a state no input has walked to.
//!
//! Once the running state reaches a *sink* (a mapping no suffix can change
//! — the all-dead mapping after a synchronizing word, or the
//! constant-accept mapping of a `Contains` scan that has seen its needle),
//! the verdict is final: [`verdict`](StreamMatcher::verdict) reports it
//! without waiting for the stream to end, and every further `feed` is a
//! counter bump, not a scan. Long streams are therefore cheap after
//! saturation (cf. Gusev et al., *Principal ideal languages and
//! synchronizing automata*: converging states make the tail free).
//!
//! ```
//! use sfa_matcher::{MatchMode, Regex};
//!
//! let re = Regex::builder().mode(MatchMode::Contains).build("attack[0-9]{2}").unwrap();
//! let mut stream = re.stream();
//! // The needle may straddle feed boundaries arbitrarily.
//! stream.feed(b"GET /atta").feed(b"ck4").feed(b"2/index.html");
//! assert!(stream.finish());
//! // A Contains match saturates: the verdict is already final and the
//! // rest of the stream will not be scanned at all.
//! assert_eq!(stream.verdict(), Some(true));
//! stream.reset();
//! assert!(!stream.feed(b"benign traffic").finish());
//! ```

use crate::error::Error;
use crate::matches::SetMatches;
use crate::parallel::ParallelSfaMatcher;
use crate::regex::{Regex, RegexSet};
use sfa_automata::PatternSet;
use sfa_core::SfaStateId;

/// An incremental matcher: the state of a [`Regex`] run over a stream of
/// input blocks. See the [module docs](self) for the model.
///
/// Created by [`Regex::stream`] (or
/// [`RegexSet::stream`](crate::RegexSet::stream)); borrows the compiled
/// regex, so many concurrent streams can share one compilation.
#[derive(Clone, Debug)]
pub struct StreamMatcher<'r> {
    regex: &'r Regex,
    state: SfaStateId,
    bytes_fed: u64,
    blocks_fed: u64,
}

impl<'r> StreamMatcher<'r> {
    /// Starts a stream at the identity state (no input fed yet).
    pub(crate) fn new(regex: &'r Regex) -> StreamMatcher<'r> {
        StreamMatcher { regex, state: regex.sfa().initial(), bytes_fed: 0, blocks_fed: 0 }
    }

    /// The regex this stream is matching against.
    pub fn regex(&self) -> &'r Regex {
        self.regex
    }

    /// Advances the running state by one block of input.
    ///
    /// The verdict after any sequence of `feed`s equals
    /// [`is_match`](Regex::is_match) on the concatenation of the blocks —
    /// the blocks may split the input anywhere, including mid-match.
    ///
    /// Blocks big enough to amortize the hand-off are cut into chunks and
    /// scanned on the regex's engine in parallel (using the regex's
    /// configured thread cap); smaller blocks continue the table walk
    /// inline. After [saturation](StreamMatcher::is_saturated) this is
    /// `O(1)`: the block is counted but not scanned.
    pub fn feed(&mut self, block: &[u8]) -> &mut Self {
        self.bytes_fed += block.len() as u64;
        self.blocks_fed += 1;
        let sfa = self.regex.sfa();
        if sfa.is_sink(self.state) {
            return self; // saturated: no suffix can change the verdict
        }
        let (engine, threads) = (self.regex.engine(), self.regex.threads());
        if !engine.plan_chunks(block.len(), threads).use_pool {
            // run_from dispatches once on the backend's packed table
            // width and scans the block in a monomorphized loop, so
            // block-at-a-time streaming gets the cache-packed fast path
            // with no per-byte dispatch.
            self.state = sfa.run_from(self.state, block);
        } else {
            // Chunk phase of Algorithm 5 within the block (lanes
            // included), then fold the chunk states into the running
            // state (Lemma 1 twice over).
            let partials =
                ParallelSfaMatcher::with_engine(sfa, engine.clone()).chunk_states(block, threads);
            for f in partials {
                self.state = sfa.compose_states(self.state, f);
                if sfa.is_sink(self.state) {
                    break;
                }
            }
        }
        self
    }

    /// The verdict over everything fed so far: would the concatenated
    /// blocks match?
    ///
    /// Non-consuming and always available — a stream can keep feeding
    /// after asking (e.g. a per-line verdict over a growing log).
    pub fn finish(&self) -> bool {
        self.regex.sfa().is_accepting(self.state)
    }

    /// The DFA state the stream's input would land on — the image of the
    /// running mapping at the DFA's start state. Verdict finality is a
    /// property of this state: no suffix can change what is decided in
    /// every state reachable from it.
    fn dfa_image(&self) -> sfa_automata::StateId {
        let sfa = self.regex.sfa();
        sfa.apply(self.state, sfa.dfa_start())
    }

    /// The final verdict, if it is already decided: `Some` once no
    /// possible suffix can change the answer — the stream
    /// [saturated](StreamMatcher::is_saturated), or the run entered a
    /// region of the automaton where every reachable state agrees on
    /// accept-vs-reject ([`Dfa::verdict_decided_states`]). `None` while
    /// further input still matters.
    ///
    /// In `Contains` mode a hit decides the verdict to `Some(true)`
    /// immediately (the accept region is absorbing), so an IDS-style
    /// scanner can stop reading a connection at the first match — even
    /// when the per-rule [`set_verdict`](StreamMatcher::set_verdict) is
    /// still open because other rules' fates are undecided.
    ///
    /// [`Dfa::verdict_decided_states`]: sfa_automata::Dfa::verdict_decided_states
    pub fn verdict(&self) -> Option<bool> {
        if self.is_saturated() || self.regex.decided_maps().any[self.dfa_image() as usize] {
            Some(self.finish())
        } else {
            None
        }
    }

    /// The per-pattern verdict over everything fed so far: which patterns
    /// of the compiled set the concatenated blocks match. The
    /// multi-pattern refinement of [`finish`](StreamMatcher::finish) —
    /// non-consuming, always available, identical to
    /// [`RegexSet::matches`](crate::RegexSet::matches) on the
    /// concatenation whatever the feed boundaries were.
    pub fn set_matches(&self) -> SetMatches {
        match self.try_set_matches() {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`set_matches`](StreamMatcher::set_matches):
    /// [`Error::PatternTrackingDisabled`] instead of a panic when the
    /// regex was compiled with
    /// [`track_patterns(false)`](crate::RegexBuilder::track_patterns).
    pub fn try_set_matches(&self) -> Result<SetMatches, Error> {
        self.regex.check_tracking()?;
        Ok(SetMatches::new(self.regex.sfa().accepting_patterns(self.state).clone()))
    }

    /// The final per-pattern verdict, if it is already decided: `Some`
    /// once no suffix can change *which* rules fired — the stream
    /// saturated, or every state reachable from the current one carries
    /// the same accept set ([`Dfa::accept_set_decided_states`]). `None`
    /// while further input still matters.
    ///
    /// Stricter than [`verdict`](StreamMatcher::verdict): in a multi-rule
    /// `Contains` scan the boolean verdict freezes at the first hit,
    /// while the set verdict stays open until every rule's fate is frozen
    /// (all hit, or nothing can change anymore).
    ///
    /// [`Dfa::accept_set_decided_states`]: sfa_automata::Dfa::accept_set_decided_states
    pub fn set_verdict(&self) -> Option<SetMatches> {
        match self.try_set_verdict() {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`set_verdict`](StreamMatcher::set_verdict):
    /// [`Error::PatternTrackingDisabled`] instead of a panic when the
    /// regex was compiled with
    /// [`track_patterns(false)`](crate::RegexBuilder::track_patterns).
    pub fn try_set_verdict(&self) -> Result<Option<SetMatches>, Error> {
        self.regex.check_tracking()?;
        if self.is_saturated() || self.regex.decided_maps().set[self.dfa_image() as usize] {
            Ok(Some(self.try_set_matches()?))
        } else {
            Ok(None)
        }
    }

    /// True once the running state is a sink: the mapping can never change
    /// again, every further [`feed`](StreamMatcher::feed) is a no-op bump
    /// and [`verdict`](StreamMatcher::verdict) is final.
    pub fn is_saturated(&self) -> bool {
        self.regex.sfa().is_sink(self.state)
    }

    /// The SFA state reached by the input fed so far (the transformation
    /// `f_w` of the concatenated blocks `w`).
    pub fn sfa_state(&self) -> SfaStateId {
        self.state
    }

    /// Total bytes fed since construction or the last reset.
    pub fn bytes_fed(&self) -> u64 {
        self.bytes_fed
    }

    /// Number of `feed` calls since construction or the last reset.
    pub fn blocks_fed(&self) -> u64 {
        self.blocks_fed
    }

    /// Rewinds to the identity state so the matcher can be reused for a new
    /// stream without touching the compiled regex.
    pub fn reset(&mut self) {
        self.state = self.regex.sfa().initial();
        self.bytes_fed = 0;
        self.blocks_fed = 0;
    }
}

/// An incremental matcher over a whole [`RegexSet`]: the streaming
/// counterpart of [`RegexSet::matches`], created by [`RegexSet::stream`].
///
/// It runs one [`StreamMatcher`] per [shard](crate::Shard) in lockstep
/// and merges their verdicts — an unsharded set has one shard, so one
/// stream over its combined automaton. The literal
/// prefilter is deliberately **not** consulted on streams: a required
/// literal may arrive in a later block (or straddle a block boundary), so
/// no shard can be skipped — every shard's automaton sees every byte.
/// Verdicts are nevertheless identical to the whole-buffer APIs on the
/// concatenated input, whatever the feed boundaries.
#[derive(Clone, Debug)]
pub struct SetStream<'s> {
    set: &'s RegexSet,
    streams: Vec<StreamMatcher<'s>>,
}

impl<'s> SetStream<'s> {
    /// Starts a stream per shard, all at the identity state.
    pub(crate) fn new(set: &'s RegexSet) -> SetStream<'s> {
        let streams = set.shards().iter().map(|s| s.regex().stream()).collect();
        SetStream { set, streams }
    }

    /// The set this stream is matching against.
    pub fn set(&self) -> &'s RegexSet {
        self.set
    }

    /// Advances every underlying stream by one block of input; see
    /// [`StreamMatcher::feed`]. Saturated shards skip the scan, so a
    /// long stream gets cheaper as shards decide.
    pub fn feed(&mut self, block: &[u8]) -> &mut Self {
        for stream in &mut self.streams {
            stream.feed(block);
        }
        self
    }

    /// Whether the concatenation of everything fed so far matches *any*
    /// rule of the set; see [`StreamMatcher::finish`].
    pub fn finish(&self) -> bool {
        self.streams.iter().any(StreamMatcher::finish)
    }

    /// The final any-match verdict, if already decided: `Some(true)` as
    /// soon as any shard's verdict freezes to a match, `Some(false)` once
    /// every shard's verdict freezes to a non-match, `None` while some
    /// undecided shard could still go either way.
    pub fn verdict(&self) -> Option<bool> {
        let mut all_false = true;
        for stream in &self.streams {
            match stream.verdict() {
                Some(true) => return Some(true),
                Some(false) => {}
                None => all_false = false,
            }
        }
        if all_false {
            Some(false)
        } else {
            None
        }
    }

    /// The per-rule verdict over everything fed so far; the streaming
    /// form of [`RegexSet::matches`]. Panics when the set was compiled
    /// with [`track_patterns(false)`](crate::RegexBuilder::track_patterns)
    /// — use [`try_set_matches`](SetStream::try_set_matches) to get the
    /// typed [`Error`] instead.
    pub fn set_matches(&self) -> SetMatches {
        match self.try_set_matches() {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`set_matches`](SetStream::set_matches).
    pub fn try_set_matches(&self) -> Result<SetMatches, Error> {
        let sharded = self.set.sharded();
        sharded.check_tracking()?;
        let mut uniq = PatternSet::new(sharded.unique);
        for (shard, stream) in self.streams.iter().enumerate() {
            sharded.scatter(&mut uniq, shard, stream.try_set_matches()?.as_pattern_set());
        }
        Ok(self.set.expand(uniq))
    }

    /// The final per-rule verdict, if already decided: `Some` once every
    /// shard's set verdict is frozen (see [`StreamMatcher::set_verdict`]),
    /// `None` while any shard's rules could still change fate. Panics on
    /// an untracked set — see
    /// [`try_set_verdict`](SetStream::try_set_verdict).
    pub fn set_verdict(&self) -> Option<SetMatches> {
        match self.try_set_verdict() {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`set_verdict`](SetStream::set_verdict).
    pub fn try_set_verdict(&self) -> Result<Option<SetMatches>, Error> {
        let sharded = self.set.sharded();
        sharded.check_tracking()?;
        let mut uniq = PatternSet::new(sharded.unique);
        for (shard, stream) in self.streams.iter().enumerate() {
            let Some(local) = stream.try_set_verdict()? else { return Ok(None) };
            sharded.scatter(&mut uniq, shard, local.as_pattern_set());
        }
        Ok(Some(self.set.expand(uniq)))
    }

    /// True once every underlying stream reached a sink; further feeds
    /// are counter bumps and all verdicts are final.
    pub fn is_saturated(&self) -> bool {
        self.streams.iter().all(StreamMatcher::is_saturated)
    }

    /// Total bytes fed since construction or the last reset.
    pub fn bytes_fed(&self) -> u64 {
        self.streams[0].bytes_fed()
    }

    /// Number of `feed` calls since construction or the last reset.
    pub fn blocks_fed(&self) -> u64 {
        self.streams[0].blocks_fed()
    }

    /// Rewinds every underlying stream to the identity state.
    pub fn reset(&mut self) {
        for stream in &mut self.streams {
            stream.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::pool::Engine;
    use crate::regex::{MatchMode, Regex};

    /// Splits `input` at the given positions and feeds the pieces.
    fn verdict_via_stream(re: &Regex, input: &[u8], cuts: &[usize]) -> bool {
        let mut stream = re.stream();
        let mut start = 0;
        for &cut in cuts {
            let cut = cut.min(input.len());
            if cut > start {
                stream.feed(&input[start..cut]);
                start = cut;
            }
        }
        stream.feed(&input[start..]);
        stream.finish()
    }

    #[test]
    fn streaming_agrees_with_whole_buffer_on_any_split() {
        let re = Regex::new("([0-4]{2}[5-9]{2})*").unwrap();
        let inputs: Vec<&[u8]> = vec![b"", b"0055", b"005504590459", b"00550", b"555500"];
        for input in inputs {
            let expected = re.is_match(input);
            // Every single cut position, plus byte-at-a-time.
            for cut in 0..=input.len() {
                assert_eq!(verdict_via_stream(&re, input, &[cut]), expected, "cut {cut}");
            }
            let every_byte: Vec<usize> = (0..=input.len()).collect();
            assert_eq!(verdict_via_stream(&re, input, &every_byte), expected);
        }
    }

    #[test]
    fn feed_boundaries_may_split_a_match_mid_needle() {
        let re = Regex::builder().mode(MatchMode::Contains).build("needle[0-9]{3}").unwrap();
        let haystack = b"xxxxxneedle042yyyyy";
        assert!(re.is_match(haystack));
        // Cut through every position of the needle occurrence.
        for cut in 5..14 {
            assert!(verdict_via_stream(&re, haystack, &[cut]), "cut {cut}");
            assert!(verdict_via_stream(&re, haystack, &[cut, cut + 1]), "cuts {cut},{}", cut + 1);
        }
        assert!(!verdict_via_stream(&re, b"xxxxxneedle04yyyyy", &[7, 9, 11]));
    }

    #[test]
    fn large_blocks_run_their_chunks_on_the_pool() {
        let engine = Engine::new(4);
        let re = Regex::builder().engine(engine).threads(4).build("([0-4]{2}[5-9]{2})*").unwrap();
        let block = b"00550459".repeat(8 * 1024); // 64 KiB → pool path
        assert!(re.engine().plan_chunks(block.len(), re.threads()).use_pool);
        let mut stream = re.stream();
        stream.feed(&block).feed(&block).feed(b"0055");
        assert!(stream.finish());
        assert_eq!(stream.bytes_fed(), 2 * block.len() as u64 + 4);
        assert_eq!(stream.blocks_fed(), 3);
        // A trailing partial period flips the verdict.
        stream.feed(b"9");
        assert!(!stream.finish());
        // Mixed block sizes agree with the whole buffer.
        let mut whole = block.repeat(2);
        whole.extend_from_slice(b"00559");
        assert_eq!(stream.finish(), re.is_match(&whole));
    }

    #[test]
    fn saturation_short_circuits_and_fixes_the_verdict() {
        let re = Regex::builder().mode(MatchMode::Contains).build("attack[0-9]{2}").unwrap();
        let mut stream = re.stream();
        assert_eq!(stream.verdict(), None);
        stream.feed(b"GET /atta").feed(b"ck42/");
        // Contains hit → constant-accept sink → final verdict.
        assert_eq!(stream.verdict(), Some(true));
        assert!(stream.is_saturated());
        let state = stream.sfa_state();
        // Further feeds are counted but cannot move the state.
        stream.feed(&b"y".repeat(1 << 20));
        assert_eq!(stream.sfa_state(), state);
        assert!(stream.finish());
        assert_eq!(stream.blocks_fed(), 3);

        // Whole-input mode saturates on the dead state instead.
        let re = Regex::new("(ab)*").unwrap();
        let mut stream = re.stream();
        stream.feed(b"aa");
        assert_eq!(stream.verdict(), Some(false));
        stream.feed(b"abab");
        assert!(!stream.finish());
    }

    #[test]
    fn reset_rewinds_to_a_fresh_stream() {
        let re = Regex::new("(ab)*").unwrap();
        let mut stream = re.stream();
        stream.feed(b"ab").feed(b"ab");
        assert!(stream.finish());
        assert_eq!(stream.bytes_fed(), 4);
        stream.reset();
        assert_eq!(stream.bytes_fed(), 0);
        assert_eq!(stream.blocks_fed(), 0);
        assert!(stream.finish(), "(ab)* accepts the empty stream");
        stream.feed(b"a");
        assert!(!stream.finish());
    }

    #[test]
    fn empty_blocks_are_harmless() {
        let re = Regex::new("(ab)*").unwrap();
        let mut stream = re.stream();
        stream.feed(b"").feed(b"ab").feed(b"").feed(b"");
        assert!(stream.finish());
        assert_eq!(stream.bytes_fed(), 2);
        assert_eq!(stream.blocks_fed(), 4);
    }

    #[test]
    fn lazy_backend_streams_identically() {
        use crate::regex::BackendChoice;
        // The same stream, eager vs lazy, block sizes spanning the inline
        // and pool paths — including a composition of pool-chunk states
        // into the running state on the lazy cache.
        let build = |choice| {
            Regex::builder()
                .backend(choice)
                .engine(Engine::new(4))
                .threads(4)
                .build("([0-4]{2}[5-9]{2})*")
                .unwrap()
        };
        let eager = build(BackendChoice::Eager);
        let lazy = build(BackendChoice::Lazy);
        let big = b"00550459".repeat(8 * 1024); // 64 KiB → pool path
        let blocks: [&[u8]; 5] = [b"0055", &big, b"04", b"59", &big];
        let mut se = eager.stream();
        let mut sl = lazy.stream();
        for block in blocks {
            se.feed(block);
            sl.feed(block);
            assert_eq!(se.finish(), sl.finish());
            assert_eq!(se.verdict(), sl.verdict());
        }
        assert!(se.finish(), "the concatenation is in the language");
        // A lazy stream saturates exactly like the eager one.
        let mut sl = lazy.stream();
        sl.feed(b"x");
        assert_eq!(sl.verdict(), Some(false));
    }

    #[test]
    fn regex_set_streams_too() {
        use crate::regex::RegexSet;
        let set = RegexSet::new(
            ["GET /[a-z]+", "POST /login"],
            &Regex::builder().mode(MatchMode::Contains),
        )
        .unwrap();
        let mut stream = set.stream();
        stream.feed(b"POST /log").feed(b"in HTTP/1.1");
        assert!(stream.finish());
        stream.reset();
        assert!(!stream.feed(b"PUT /upload").finish());
    }

    #[test]
    fn set_matches_reports_per_rule_verdicts_across_feed_boundaries() {
        use crate::regex::RegexSet;
        let set = RegexSet::new(
            ["GET /[a-z]+", "POST /login", "(?i)etc/passwd"],
            &Regex::builder().mode(MatchMode::Contains),
        )
        .unwrap();
        let mut stream = set.stream();
        assert!(stream.set_matches().is_empty());
        // The needle of rule 1 straddles the feed boundary.
        stream.feed(b"POST /log").feed(b"in?file=etc/pas").feed(b"swd");
        let m = stream.set_matches();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(&m, &set.matches(b"POST /login?file=etc/passwd"));
        assert!(stream.finish());
        stream.reset();
        assert!(stream.set_matches().is_empty());
    }

    #[test]
    fn any_verdict_freezes_before_the_set_verdict() {
        use crate::regex::RegexSet;
        let set = RegexSet::new(
            ["attack[0-9]{2}", "exploit[a-z]{2}"],
            &Regex::builder().mode(MatchMode::Contains),
        )
        .unwrap();
        let mut stream = set.stream();
        assert_eq!(stream.verdict(), None);
        assert_eq!(stream.set_verdict(), None);
        stream.feed(b"GET /attack42/");
        // One rule hit: the boolean verdict is final (the accept region
        // is absorbing) but the *set* verdict is still open — rule 1
        // could yet fire.
        assert_eq!(stream.verdict(), Some(true));
        assert!(stream.set_verdict().is_none());
        assert_eq!(stream.set_matches().iter().collect::<Vec<_>>(), vec![0]);
        // Second rule hits: every rule's fate is frozen, the set verdict
        // closes, and the running mapping is now a true sink.
        stream.feed(b"exploitok");
        let final_set = stream.set_verdict().expect("all rules decided");
        assert_eq!(final_set.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert!(stream.is_saturated());
        // Consistency with the whole-buffer per-rule verdict.
        assert_eq!(&final_set, &set.matches(b"GET /attack42/exploitok"));
    }

    #[test]
    fn single_pattern_set_verdict_matches_verdict() {
        let re = Regex::builder().mode(MatchMode::Contains).build("needle[0-9]{3}").unwrap();
        let mut stream = re.stream();
        assert_eq!(stream.set_verdict(), None);
        stream.feed(b"xxneedle042yy");
        let set = stream.set_verdict().expect("single-pattern hit saturates");
        assert!(set.matched(0));
        assert_eq!(stream.verdict(), Some(true));
    }
}

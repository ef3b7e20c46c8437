//! `serve`: `sfa-server` on TCP loopback, cold-started from its
//! artifact, driven open-loop at fixed rates and then up a rate ladder —
//! plus the server probe every workload's traced run uses.

use crate::harness::{
    contains, mb_s, secs, time_median, verify, Ctx, MemWatch, Outcome, SetupSampler, ATTACK_NEEDLE,
};
use crate::layers::{self, produced, ProbeSubject};
use crate::metrics::Metric;
use crate::stats;
use crate::trace::Tracer;
use sfa_matcher::{BackendChoice, MatchMode, Reduction, Regex, Strategy};
use sfa_server::protocol::{PayloadReader, PayloadWriter, OP_MATCH};
use sfa_server::{Client, ClientError, RegisterSource, Server, ServerConfig};
use sfa_workloads as workloads;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Step of the rate ladder above the fixed rates, in requests per second.
const LADDER_STEP_RPS: f64 = 250.0;
/// The fixed open-loop rates, requests per second.
const RATE_LOW: f64 = 1000.0;
const RATE_HIGH: f64 = 3000.0;
/// Latency limit a ladder step must meet at its tail percentile.
const LADDER_LIMIT_MS: f64 = 5.0;
/// Shortest ladder step: enough requests for a p99 with ten beyond it.
const LADDER_MIN_STEP_S: f64 = 0.5;
const TENANT: &str = "ids";

/// Time source of the open-loop generator, abstracted so the schedule
/// arithmetic can be tested on a virtual clock.
pub trait Clock {
    /// Seconds since the schedule's origin.
    fn now(&self) -> f64;
    fn sleep_until(&self, t: f64);
}

pub struct WallClock(Instant);

impl Clock for WallClock {
    fn now(&self) -> f64 {
        secs(self.0)
    }

    fn sleep_until(&self, t: f64) {
        let wait = t - self.now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }
}

/// One request as the generator saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sent {
    /// Seconds from when the request was due (open loop) or sent (closed
    /// loop) until its reply arrived — a stall delays every request
    /// queued behind it, and this counts that wait.
    pub latency: f64,
    /// How late the generator itself sent the request: send time minus
    /// the later of its due time and the previous reply on the same
    /// connection. Waiting for the server is latency, not lateness.
    pub late: f64,
    pub ok: bool,
}

/// One connection's share of an open-loop schedule: request `k` (for
/// `k ≡ conn mod conns`) is due at `k / rate` seconds, whatever happened
/// to the requests before it. `send` returns whether the request
/// succeeded, or an error that aborts the run.
pub fn open_loop(
    clock: &impl Clock,
    rate: f64,
    duration: f64,
    conn: usize,
    conns: usize,
    mut send: impl FnMut(usize) -> Result<bool, String>,
) -> Result<Vec<Sent>, String> {
    let mut out = Vec::new();
    let mut prev_done = 0.0f64;
    let mut k = conn;
    loop {
        let due = k as f64 / rate;
        if due >= duration {
            return Ok(out);
        }
        clock.sleep_until(due);
        let sent = clock.now();
        let ok = send(k)?;
        let done = clock.now();
        out.push(Sent { latency: done - due, late: sent - due.max(prev_done), ok });
        prev_done = done;
        k += conns;
    }
}

/// One connection of a closed loop: the next request goes out as soon as
/// the previous reply is in.
fn closed_loop(
    clock: &impl Clock,
    duration: f64,
    conn: usize,
    conns: usize,
    mut send: impl FnMut(usize) -> Result<bool, String>,
) -> Result<Vec<Sent>, String> {
    let mut out = Vec::new();
    let mut k = conn;
    while clock.now() < duration || out.is_empty() {
        let sent = clock.now();
        let ok = send(k)?;
        out.push(Sent { latency: clock.now() - sent, late: 0.0, ok });
        k += conns;
    }
    Ok(out)
}

/// Requests cycled by the generator, with their expected replies.
pub struct Traffic<'a> {
    pub requests: Vec<Vec<&'a [u8]>>,
    /// Per request, per haystack: the matched pattern ids an in-process
    /// sequential scan of the artifact-loaded namespace reports.
    pub expected: Vec<Vec<Vec<u32>>>,
    pub bytes: Vec<usize>,
}

impl<'a> Traffic<'a> {
    pub fn new(requests: Vec<Vec<&'a [u8]>>, loaded: &Regex) -> Result<Traffic<'a>, String> {
        let mut expected = Vec::with_capacity(requests.len());
        for request in &requests {
            let mut per = Vec::with_capacity(request.len());
            for h in request {
                let m = loaded
                    .try_matches_with(h, Strategy::Sequential)
                    .map_err(|e| format!("reference scan: {e}"))?;
                per.push(m.iter().map(|id| id as u32).collect());
            }
            expected.push(per);
        }
        let bytes = requests.iter().map(|r| r.iter().map(|h| h.len()).sum()).collect();
        Ok(Traffic { requests, expected, bytes })
    }

    fn len(&self) -> usize {
        self.requests.len()
    }
}

#[derive(Clone, Copy)]
enum Load {
    Open(f64),
    Closed,
}

/// What one load phase measured.
#[derive(Default)]
struct Phase {
    sent: Vec<Sent>,
    bytes: usize,
    elapsed: f64,
    depths: Vec<usize>,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.sent.iter().filter(|s| s.ok).map(|s| s.latency * 1e3).collect()
    }

    fn failed(&self) -> u64 {
        self.sent.iter().filter(|s| !s.ok).count() as u64
    }

    /// A ladder rung passes with no failure and a p99 within the limit.
    fn passes(&self) -> bool {
        self.failed() == 0
            && !self.sent.is_empty()
            && stats::percentile(&self.latencies_ms(), 0.99) <= LADDER_LIMIT_MS
    }
}

/// Drives `conns` connections (one request in flight each) through one
/// phase. Every reply is checked against the expected verdicts; refusals
/// and server errors count as failed, transport errors abort.
fn run_phase(
    server: &Server,
    traffic: &Traffic,
    load: Load,
    duration: f64,
    conns: usize,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let addr = server.local_addr().ok_or("the server has no TCP address")?;
    let barrier = Barrier::new(conns);
    let parts: Vec<Result<(Phase, Tracer), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                let mut local = tracer.fork();
                let barrier = &barrier;
                scope.spawn(move || {
                    // Connect outside the measured schedule.
                    let client = Client::connect_tcp(addr);
                    barrier.wait();
                    let mut client = client.map_err(|e| format!("connect: {e}"))?;
                    let mut phase = Phase::default();
                    let clock = WallClock(Instant::now());
                    let send = |k: usize| -> Result<bool, String> {
                        let i = k % traffic.len();
                        phase.depths.push(server.queue_depth());
                        let reply = local.span("server", "Client::matches_batch", k as u64, |_| {
                            client.matches_batch(TENANT, &traffic.requests[i])
                        });
                        match reply {
                            Ok(verdicts) => {
                                verify(verdicts == traffic.expected[i], || {
                                    format!("request {i}: the server's verdicts differ")
                                })?;
                                phase.bytes += traffic.bytes[i];
                                Ok(true)
                            }
                            Err(ClientError::Retry(_) | ClientError::Server(_)) => Ok(false),
                            Err(e) => Err(format!("request {i}: {e}")),
                        }
                    };
                    phase.sent = match load {
                        Load::Open(rate) => open_loop(&clock, rate, duration, conn, conns, send)?,
                        Load::Closed => closed_loop(&clock, duration, conn, conns, send)?,
                    };
                    phase.elapsed = clock.now();
                    Ok((phase, local))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("a generator thread panicked".into())))
            .collect()
    });
    // Elapsed time runs from the connections' common start, after connect.
    let mut phase = Phase::default();
    for part in parts {
        let (p, local) = part?;
        phase.elapsed = phase.elapsed.max(p.elapsed);
        phase.sent.extend(p.sent);
        phase.bytes += p.bytes;
        phase.depths.extend(p.depths);
        tracer.absorb(local);
    }
    Ok(phase)
}

/// A served namespace: a server cold-started from the namespace's
/// artifact, with the set-up times and the artifact-loaded regex.
pub struct Namespace {
    pub server: Server,
    /// Bind + register times of the cold starts, seconds.
    pub register_s: Vec<f64>,
    pub loaded: Regex,
    pub artifact_bytes: u64,
    config: ServerConfig,
    patterns: Vec<String>,
}

impl Namespace {
    /// Warms `dir` with one fresh compile, then cold-starts `reps`
    /// servers from the artifact it wrote (each must report
    /// [`RegisterSource::Artifact`]) and keeps the last one running.
    pub fn start(
        dir: &Path,
        mode: MatchMode,
        patterns: &[String],
        reps: usize,
    ) -> Result<Namespace, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let config =
            ServerConfig { mode, artifact_dir: Some(dir.to_path_buf()), ..Default::default() };
        let warm = bind(&config)?;
        warm.register(TENANT, patterns).map_err(|e| format!("register: {e}"))?;
        warm.shutdown();
        let mut register_s = Vec::with_capacity(reps);
        let mut server: Option<Server> = None;
        for _ in 0..reps.max(1) {
            let (fresh, t) = cold_start(&config, patterns)?;
            register_s.push(t);
            if let Some(old) = server.replace(fresh) {
                old.shutdown();
            }
        }
        let artifact = std::fs::read_dir(dir)
            .map_err(|e| format!("read {}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|x| x == "sfa"))
            .ok_or("the warm-up compile wrote no artifact")?;
        let artifact_bytes = std::fs::metadata(&artifact).map_or(0, |m| m.len());
        let loaded = Regex::load_artifact(&artifact).map_err(|e| format!("load: {e}"))?;
        let server = server.expect("at least one cold start");
        Ok(Namespace {
            server,
            register_s,
            loaded,
            artifact_bytes,
            config,
            patterns: patterns.to_vec(),
        })
    }

    /// One more cold start beside the running server, shut down again;
    /// returns its bind + register time.
    pub fn sample_cold_start(&self) -> Result<f64, String> {
        let (server, t) = cold_start(&self.config, &self.patterns)?;
        server.shutdown();
        Ok(t)
    }

    pub fn stop(self) {
        self.server.shutdown();
        if let Some(dir) = &self.config.artifact_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn bind(config: &ServerConfig) -> Result<Server, String> {
    Server::bind_tcp("127.0.0.1:0", config.clone()).map_err(|e| format!("bind: {e}"))
}

/// Binds a server and registers `patterns`, which must come from the
/// artifact directory; returns the server and the time both took.
fn cold_start(config: &ServerConfig, patterns: &[String]) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = bind(config)?;
    let (_, source) = server.register(TENANT, patterns).map_err(|e| format!("register: {e}"))?;
    let took = secs(t);
    verify(source == RegisterSource::Artifact, || {
        format!("the cold start registered from {source:?}, not the artifact")
    })?;
    Ok((server, took))
}

/// The `IDS_SCAN_RULES` that have a durable (eager) form: the untamed
/// SQL-injection rule only builds lazily, and lazy automata do not
/// serialize, so it is left out of the served namespace.
fn eager_rules() -> Result<Vec<String>, String> {
    let capped = Regex::builder()
        .mode(MatchMode::Contains)
        .backend(BackendChoice::Auto)
        .max_dfa_states(50_000)
        .max_sfa_states(2_000);
    let mut rules = Vec::new();
    for rule in workloads::IDS_SCAN_RULES {
        let re = capped.build(rule).map_err(|e| format!("{rule}: {e}"))?;
        if re.to_artifact().is_ok() {
            rules.push(rule.to_string());
        }
    }
    Ok(rules)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(ctx.trace);
    let rules: Vec<String> = eager_rules()?.into_iter().take(ctx.sizes.serve_rules).collect();
    let owned = workloads::service_requests(&workloads::ServiceConfig {
        requests: ctx.sizes.serve_requests,
        batch: 32,
        seed: ctx.seed,
        ..Default::default()
    });
    let mut mem = MemWatch::start()?;

    let dir = ctx.out.join(format!("serve-artifacts-{}", std::process::id()));
    let ns = Namespace::start(&dir, MatchMode::Contains, &rules, ctx.sizes.setup_reps)?;
    let requests: Vec<Vec<&[u8]>> =
        owned.iter().map(|r| r.iter().map(Vec::as_slice).collect()).collect();
    let traffic = Traffic::new(requests, &ns.loaded)?;
    for (request, expected) in traffic.requests.iter().zip(&traffic.expected) {
        for (h, ids) in request.iter().zip(expected) {
            verify(!contains(h, ATTACK_NEEDLE) || ids.contains(&0), || {
                "a planted /cgi-bin/ph attack did not fire rule 0".into()
            })?;
        }
    }
    outcome.notes.push(format!(
        "serve: {} rules cold-started from a {} KiB artifact; {} distinct requests of {} \
         haystacks over {} connections",
        rules.len(),
        ns.artifact_bytes / 1024,
        traffic.len(),
        traffic.requests.first().map_or(0, Vec::len),
        ctx.cores
    ));
    // Warm-up: connections, the mapped tables, the pool, and every request
    // through the server and through Algorithm 5 in-process.
    let warm =
        run_phase(&ns.server, &traffic, Load::Closed, 0.1, ctx.cores, &mut Tracer::new(false))?;
    verify(warm.failed() == 0, || "the server refused a warm-up request".into())?;
    InProcess::new(parallel(ctx)).burst(
        &ns.loaded,
        &traffic,
        traffic.len(),
        0.0,
        &mut Tracer::new(false),
    )?;

    let mut setup = SetupSampler::new(ns.register_s.clone());
    let e2e = layers::measure_loops(ctx, &mut outcome, |seconds, tracer, outcome| {
        measure(ctx, &ns, &traffic, &mut setup, &mut mem, seconds, tracer, outcome)
    })?;
    ns.stop();
    outcome.e2e =
        [Metric::new("setup_s", setup.samples), mem.metric()].into_iter().chain(e2e).collect();
    if ctx.trace {
        let requests: Vec<Vec<&[u8]>> =
            owned.iter().take(16).map(|r| r.iter().map(Vec::as_slice).collect()).collect();
        layers::probe_layers(ctx, &mut outcome, probe_subject(&rules, requests)?)?;
    }
    Ok(outcome)
}

fn parallel(ctx: &Ctx) -> Strategy {
    Strategy::Parallel { threads: ctx.cores, reduction: Reduction::Sequential }
}

/// In-process scans of the served requests through the artifact-loaded
/// regex under one strategy, resumed burst after burst.
struct InProcess {
    strategy: Strategy,
    name: &'static str,
    next: usize,
    speeds: Vec<f64>,
}

impl InProcess {
    fn new(strategy: Strategy) -> InProcess {
        let name = match strategy {
            Strategy::Sequential => "Regex::try_matches_with[sequential]",
            _ => "Regex::try_matches_with[parallel]",
        };
        InProcess { strategy, name, next: 0, speeds: Vec::new() }
    }

    /// Scans requests for `seconds` and at least `min_requests` of them,
    /// checking every verdict and recording one MB/s sample per request;
    /// returns how many it scanned.
    fn burst(
        &mut self,
        loaded: &Regex,
        traffic: &Traffic,
        min_requests: usize,
        seconds: f64,
        tracer: &mut Tracer,
    ) -> Result<usize, String> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut done = 0;
        while done < min_requests || Instant::now() < deadline {
            let i = self.next % traffic.len();
            let t = Instant::now();
            let got = tracer.span("matcher", self.name, self.next as u64, |_| {
                traffic.requests[i]
                    .iter()
                    .map(|h| {
                        loaded
                            .try_matches_with(h, self.strategy)
                            .map(|m| m.iter().map(|id| id as u32).collect::<Vec<u32>>())
                            .map_err(|e| e.to_string())
                    })
                    .collect::<Result<Vec<_>, String>>()
            })?;
            self.speeds.push(mb_s(traffic.bytes[i], secs(t)));
            verify(got == traffic.expected[i], || {
                format!("request {i}: {} verdicts differ", self.name)
            })?;
            self.next += 1;
            done += 1;
        }
        Ok(done)
    }
}

/// The serve loop: fixed-rate phases, a closed-loop capacity phase and
/// the rate ladder, each followed by a cold start of the namespace and a
/// short in-process burst of Algorithm 5 and the sequential baseline on
/// the same requests.
#[allow(clippy::too_many_arguments)]
fn measure(
    ctx: &Ctx,
    ns: &Namespace,
    traffic: &Traffic,
    setup: &mut SetupSampler,
    mem: &mut MemWatch,
    seconds: f64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let conns = ctx.cores;
    let server = &ns.server;
    let mut late = Vec::new();
    let mut depths = Vec::new();
    let mut sfa = InProcess::new(parallel(ctx));
    let mut seq = InProcess::new(Strategy::Sequential);
    // 15% of the budget goes to the in-process bursts, spread over the
    // (at most 18) phases: 2 fixed-rate, 10 closed-loop, 6 ladder steps.
    let burst_s = 0.15 * seconds / 18.0 / 2.0;
    let mut account = |p: &Phase, outcome: &mut Outcome, tracer: &mut Tracer| {
        outcome.attempted += p.sent.len() as u64;
        outcome.failed += p.failed();
        late.extend(p.sent.iter().map(|s| s.late * 1e3));
        depths.extend(p.depths.iter().map(|&d| d as f64));
        for path in [&mut sfa, &mut seq] {
            outcome.attempted += path.burst(&ns.loaded, traffic, 1, burst_s, tracer)? as u64;
        }
        // Last: the cold start's checksum pass evicts the caches.
        if setup.due() {
            setup.samples.push(ns.sample_cold_start()?);
        }
        Ok::<(), String>(())
    };

    let low = run_phase(server, traffic, Load::Open(RATE_LOW), 0.15 * seconds, conns, tracer)?;
    account(&low, outcome, tracer)?;
    let high = run_phase(server, traffic, Load::Open(RATE_HIGH), 0.4 * seconds, conns, tracer)?;
    account(&high, outcome, tracer)?;

    let mut capacity = Vec::new();
    for _ in 0..10 {
        let p = run_phase(server, traffic, Load::Closed, 0.015 * seconds, conns, tracer)?;
        account(&p, outcome, tracer)?;
        capacity.push(mb_s(p.bytes, p.elapsed));
    }

    // The ladder's rungs: the two fixed rates, then LADDER_STEP_RPS steps
    // above the higher one for as long as the budget lasts; max_rps is
    // the last rung before the first one that misses the limit.
    let budget = 0.15 * seconds;
    let step_s = (budget / 6.0).max(LADDER_MIN_STEP_S);
    let mut max_rps = 0.0;
    let mut passing = true;
    for (rate, phase) in [(RATE_LOW, &low), (RATE_HIGH, &high)] {
        passing &= phase.passes();
        if passing {
            max_rps = rate;
        }
    }
    let mut rate = RATE_HIGH;
    let mut spent = 0.0;
    while passing && spent + step_s <= budget + 1e-9 {
        rate += LADDER_STEP_RPS;
        let p = run_phase(server, traffic, Load::Open(rate), step_s, conns, tracer)?;
        account(&p, outcome, tracer)?;
        spent += step_s;
        passing = p.passes();
        if passing {
            max_rps = rate;
        }
    }
    if passing {
        outcome
            .notes
            .push(format!("serve: the ladder budget ran out at {rate} req/s, still passing"));
    }

    mem.mark()?;
    outcome.set_extra("bench.gen_late_ms_p99", stats::percentile(&late, 0.99), "ms");
    outcome.set_extra(
        "server.queue_depth_max",
        depths.iter().copied().fold(0.0, f64::max),
        "count",
    );
    outcome.set_extra(
        "server.queue_depth_mean",
        depths.iter().sum::<f64>() / depths.len().max(1) as f64,
        "count",
    );
    outcome.set_extra("server.retries", outcome.failed as f64, "count");
    let (high_ms, low_ms) = (high.latencies_ms(), low.latencies_ms());
    Ok(vec![
        Metric::new("scan_mb_s", capacity),
        Metric::new("sfa_scan_mb_s", sfa.speeds),
        Metric::new("seq_scan_mb_s", seq.speeds),
        Metric::new("p50_ms", high_ms.clone()),
        Metric::quantile("p99_ms_3krps", high_ms, 0.99),
        Metric::new("p50_ms_1krps", low_ms.clone()),
        Metric::quantile("p99_ms_1krps", low_ms, 0.99),
        Metric::one("max_rps", max_rps),
    ])
}

/// What the serve workload's traced run probes: the served namespace,
/// compiled the way the server's fresh-compile tier compiles it, and
/// scanned the way the server scans it — through its artifact.
fn probe_subject<'a>(
    rules: &'a [String],
    requests: Vec<Vec<&'a [u8]>>,
) -> Result<ProbeSubject<'a>, String> {
    let compile = move || {
        sfa_matcher::RegexSet::new(
            rules.iter().map(String::as_str),
            &Regex::builder().mode(MatchMode::Contains),
        )
        .map_err(|e| format!("compile: {e}"))
    };
    let compiled = compile()?.regex().clone();
    let artifact = compiled.to_artifact().map_err(|e| format!("encode: {e}"))?;
    let regex =
        Regex::from_artifact(std::sync::Arc::new(artifact)).map_err(|e| format!("load: {e}"))?;
    let unit: Vec<u8> = requests.iter().flatten().flat_map(|h| h.iter().copied()).collect();
    Ok(ProbeSubject {
        mode: MatchMode::Contains,
        automata: vec![rules.iter().map(String::as_str).collect()],
        dfa: Default::default(),
        sfa: Default::default(),
        produced: vec![produced(&regex)],
        compile: Box::new(move || compile().map(drop)),
        compile_name: "RegexSet::new",
        compile_includes_analysis: false,
        enforce_stage_sum: false,
        blocks: Vec::new(),
        unit: unit.into(),
        regex,
        eager: Some(compiled),
        server_patterns: rules.to_vec(),
        requests,
    })
}

/// The server probe every traced run makes: cold start of `patterns`
/// from their artifact, framing costs, the in-process batch scan, and
/// round trips over one connection — whose remainder after framing and
/// scanning is the server's own time (transport, admission, dispatch).
pub fn server_probe(
    ctx: &Ctx,
    mode: MatchMode,
    patterns: &[String],
    requests: Vec<Vec<&[u8]>>,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let dir = ctx.out.join(format!("probe-artifacts-{}", std::process::id()));
    let ns = tracer.span("server", "Server::bind_tcp+register", 0, |_| {
        Namespace::start(&dir, mode, patterns, ctx.sizes.setup_reps)
    })?;
    let traffic = Traffic::new(requests, &ns.loaded)?;
    let reps = ctx.sizes.probe_reps;

    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut batch = Vec::new();
    for (i, request) in traffic.requests.iter().enumerate() {
        let (t, frame) = time_median(reps, || {
            tracer.span("server", "PayloadWriter", i as u64, |_| {
                let mut w = PayloadWriter::new().bytes(TENANT.as_bytes()).u32(request.len() as u32);
                for h in request {
                    w = w.bytes(h);
                }
                w.frame(OP_MATCH)
            })
        });
        encode.push(t * 1e6);
        let mut reply = PayloadWriter::new().u32(request.len() as u32);
        for ids in &traffic.expected[i] {
            reply = reply.u32(ids.len() as u32);
            for &id in ids {
                reply = reply.u32(id);
            }
        }
        let reply = reply.finish();
        let (t, parsed) = time_median(reps, || {
            tracer.span("server", "PayloadReader", i as u64, |_| decode_both(&frame[5..], &reply))
        });
        verify(parsed == Ok(request.len()), || {
            format!("request {i}: framing does not round-trip")
        })?;
        decode.push(t * 1e6);
        let (t, got) = time_median(reps, || {
            tracer.span("matcher", "Regex::try_matches_batch", i as u64, |_| {
                ns.loaded.try_matches_batch(request)
            })
        });
        let got: Vec<Vec<u32>> = got
            .map_err(|e| e.to_string())?
            .iter()
            .map(|m| m.iter().map(|id| id as u32).collect())
            .collect();
        verify(got == traffic.expected[i], || format!("request {i}: batch verdicts differ"))?;
        batch.push(t * 1e3);
    }
    // Round trips for the budget, and until the p99 has enough beyond it.
    let budget = (0.1 * ctx.seconds).clamp(0.05, 1.0);
    let mut rt = Vec::new();
    while rt.len() < stats::samples_for(0.99) {
        let phase = run_phase(&ns.server, &traffic, Load::Closed, budget, 1, tracer)?;
        verify(phase.failed() == 0, || "the server refused a probe request".into())?;
        rt.extend(phase.latencies_ms());
    }
    let rt_p50 = stats::median(&rt);
    let (enc, dec, scan) = (stats::median(&encode), stats::median(&decode), stats::median(&batch));
    out.extend([
        Metric::new("server.register_ms", ns.register_s.iter().map(|s| s * 1e3).collect()),
        Metric::one("server.round_trip_ms_p50", rt_p50),
        Metric::quantile("server.round_trip_ms_p99", rt, 0.99),
        Metric::one("server.frame_encode_us", enc),
        Metric::one("server.frame_decode_us", dec),
        Metric::one("server.self_ms_p50", rt_p50 - (enc + dec) / 1e3 - scan),
        Metric::one("matcher.batch_scan_ms_p50", scan),
    ]);
    ns.stop();
    Ok(())
}

/// Parses a `MATCH` request payload the way the server does, then the
/// reply body the way the client does; returns the haystack count.
fn decode_both(request: &[u8], reply: &[u8]) -> Result<usize, String> {
    let err = |e: std::io::Error| e.to_string();
    let mut r = PayloadReader::new(request);
    r.string().map_err(err)?;
    let n = r.u32().map_err(err)? as usize;
    for _ in 0..n {
        r.bytes_range().map_err(err)?;
    }
    r.finish().map_err(err)?;
    let mut r = PayloadReader::new(reply);
    let m = r.u32().map_err(err)? as usize;
    for _ in 0..m {
        let k = r.u32().map_err(err)?;
        for _ in 0..k {
            r.u32().map_err(err)?;
        }
    }
    r.finish().map_err(err)?;
    if m == n {
        Ok(n)
    } else {
        Err(format!("{n} haystacks, {m} replies"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A virtual clock: sleeping jumps ahead (plus a fixed oversleep),
    /// and `send` advances it by the service time.
    struct FakeClock {
        t: Cell<f64>,
        oversleep: f64,
    }

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.t.get()
        }

        fn sleep_until(&self, t: f64) {
            if t > self.t.get() {
                self.t.set(t + self.oversleep);
            }
        }
    }

    fn drive(service: f64, oversleep: f64, rate: f64, duration: f64) -> Vec<Sent> {
        let clock = FakeClock { t: Cell::new(0.0), oversleep };
        open_loop(&clock, rate, duration, 0, 1, |_| {
            clock.t.set(clock.t.get() + service);
            Ok(true)
        })
        .unwrap()
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // 1 ms between requests, 3 ms per request: every request waits
        // for the ones before it, and that wait is latency.
        let sent = drive(0.003, 0.0, 1000.0, 0.005);
        let latency: Vec<f64> = sent.iter().map(|s| (s.latency * 1e6).round()).collect();
        assert_eq!(latency, vec![3000.0, 5000.0, 7000.0, 9000.0, 11000.0]);
        // The generator itself was never late: each request went out the
        // moment the previous reply arrived.
        assert!(sent.iter().all(|s| s.late.abs() < 1e-12));
    }

    #[test]
    fn open_loop_accounts_for_generator_lateness() {
        // A fast server but a generator that oversleeps by 0.2 ms: the
        // oversleep shows as lateness and is part of the latency.
        let sent = drive(0.0005, 0.0002, 1000.0, 0.004);
        assert_eq!(sent.len(), 4);
        for s in &sent[1..] {
            assert!((s.late - 0.0002).abs() < 1e-9, "{s:?}");
            assert!((s.latency - 0.0007).abs() < 1e-9, "{s:?}");
        }
    }

    #[test]
    fn open_loop_splits_the_schedule_across_connections() {
        let clock = FakeClock { t: Cell::new(0.0), oversleep: 0.0 };
        let mut seen = Vec::new();
        open_loop(&clock, 100.0, 0.1, 1, 3, |k| {
            seen.push(k);
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, vec![1, 4, 7]);
    }
}

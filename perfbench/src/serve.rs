//! `serve_mixed`: an in-process server with two workers, driven by two
//! closed-loop keep-alive clients sending a seeded mix of render,
//! simulate and query jobs, result-cache hits and `/metrics` scrapes.
//!
//! Responses are checked after each pass, off the clock, so checking
//! never competes with the server for the host's cores.

use crate::stats::{gmean, median, push_p50_tail, Derived, Metric, Report};
use crate::Args;
use cooprt_core::ShaderKind;
use cooprt_scenes::{Scene, SceneId};
use cooprt_serve::{Endpoint, Executor, HttpClient, JobRequest, ServeConfig, Server};
use cooprt_telemetry::{parse_json, validate_prometheus, JsonValue, Logger};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Server worker threads.
pub const WORKERS: usize = 2;
/// Closed-loop clients, one keep-alive connection each.
pub const CLIENTS: usize = 2;
/// Requests each client sends per pass.
pub const PASS_REQUESTS: usize = 96;
/// Chance, in percent, that a job request which may repeat a recent key
/// does. The CoopRT half of a pair always follows its baseline half, so
/// 40 here makes about one job request in four a hit.
pub const HIT_PERCENT: u64 = 40;
/// Every this many requests a client scrapes `/metrics`, alternating
/// JSON and Prometheus.
pub const SCRAPE_EVERY: u64 = 24;
/// Recent misses a hit may repeat (well inside the result cache).
pub const RECENT: usize = 16;
/// How many times a run binds and warms a server; `setup_s` is the
/// median. A set-up takes milliseconds, so it takes many to steady.
pub const SETUP_REPS: usize = 25;
/// Result-cache capacity: holds every recent miss of both clients.
const RESULT_CACHE: usize = 1024;
/// Requests per block of the latency tail: six passes, enough for a
/// p99. `latency_ms.p99` is the median of the blocks' p99s.
pub const TAIL_BLOCK: usize = 6 * CLIENTS * PASS_REQUESTS;

/// One kind of job in the mix: an endpoint, a scene and a shader.
#[derive(Clone, Copy, Debug)]
pub struct JobKind {
    /// Endpoint the job is posted to.
    pub endpoint: Endpoint,
    /// Scene name.
    pub scene: SceneId,
    /// Shader key as the request schema spells it.
    pub shader: &'static str,
}

/// Scenes of the render jobs: closed and open, small and memory-heavy
/// working sets.
pub const RENDER_SCENES: [SceneId; 4] =
    [SceneId::Wknd, SceneId::Crnvl, SceneId::Fox, SceneId::Spnza];
/// Scenes of the simulate jobs: the render scenes with the open,
/// divergent car in place of spnza. Path-traced spnza is the one job
/// kind several times slower than every other (about 7 ms against at
/// most 4 ms on a 2-vCPU host); posted to one endpoint only, it makes
/// about 2% of requests, so the p99 falls near the middle of its
/// latencies rather than in their upper quartile, where host noise
/// moves it most.
pub const SIMULATE_SCENES: [SceneId; 4] =
    [SceneId::Wknd, SceneId::Crnvl, SceneId::Fox, SceneId::Car];
/// Shaders of the render and simulate jobs.
pub const RENDER_SHADERS: [&str; 3] = ["pt", "ao", "sh"];
/// Query jobs: each query scene with every query shader it answers.
pub const QUERY_KINDS: [(SceneId, &str); 7] = [
    (SceneId::Quni, "knn"),
    (SceneId::Quni, "rad"),
    (SceneId::Qclu, "knn"),
    (SceneId::Qclu, "rad"),
    (SceneId::Qsrf, "knn"),
    (SceneId::Qsrf, "rad"),
    (SceneId::Qamr, "cont"),
];
/// Job kinds: render and simulate on each of their scenes with every
/// shader, then the query kinds. The mix draws every kind equally often.
pub const KIND_COUNT: usize = 2 * RENDER_SCENES.len() * RENDER_SHADERS.len() + QUERY_KINDS.len();

/// Job kind `i`, for `i < KIND_COUNT`.
pub fn kind(i: usize) -> JobKind {
    let renders = RENDER_SCENES.len() * RENDER_SHADERS.len();
    if i < 2 * renders {
        let r = i % renders;
        let (endpoint, scenes) = if i < renders {
            (Endpoint::Render, RENDER_SCENES)
        } else {
            (Endpoint::Simulate, SIMULATE_SCENES)
        };
        JobKind {
            endpoint,
            scene: scenes[r / RENDER_SHADERS.len()],
            shader: RENDER_SHADERS[r % RENDER_SHADERS.len()],
        }
    } else {
        let (scene, shader) = QUERY_KINDS[i - 2 * renders];
        JobKind {
            endpoint: Endpoint::Query,
            scene,
            shader,
        }
    }
}

/// Scene detail of every job: the request schema's default.
pub const DETAIL: u32 = 1;
/// Frame sizes of the mix, in pixels (queries, for a query job): a
/// narrow band around the schema's default 16 x 12 frame.
pub const PIXELS: (usize, usize) = (128, 192);
/// SM counts of the `small` config preset: the schema's default and
/// loadgen's.
pub const SMS: [usize; 2] = [1, 2];
/// The warm-up shape, outside the pixel band.
const WARM_SHAPE: (usize, usize) = (5, 5);

/// Every frame shape `w x h` whose pixel count lies in [`PIXELS`], by
/// width then height.
pub fn shapes() -> impl Iterator<Item = (usize, usize)> {
    (1..=PIXELS.1).flat_map(|w| (PIXELS.0.div_ceil(w)..=PIXELS.1 / w).map(move |h| (w, h)))
}

/// Distinct job pairs the mix can name: kind x shape x SM count.
/// Reorder, predict and `include_image` stay at the schema's defaults
/// (off, off, no image), as loadgen sends them.
pub fn pair_space() -> u64 {
    (KIND_COUNT * shapes().count() * SMS.len()) as u64
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// SplitMix64: the mix's deterministic generator.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One job request of the mix.
#[derive(Clone, Debug)]
pub struct Job {
    /// Kind index, see [`kind`].
    pub kind: usize,
    /// `baseline` or `cooprt`.
    pub policy: &'static str,
    /// Pair id: the two policies of one job share it.
    pub pair: u64,
    /// Query count (frame pixels).
    pub pixels: usize,
    /// The JSON body.
    pub body: String,
}

/// The path `endpoint` is served at.
pub fn path(endpoint: Endpoint) -> &'static str {
    match endpoint {
        Endpoint::Render => "/v1/render",
        Endpoint::Simulate => "/v1/simulate",
        Endpoint::Query => "/v1/query",
    }
}

impl Job {
    /// Builds the job of pair slot `slot` under `policy`.
    fn of_slot(slot: u64, pair: u64, policy: &'static str) -> Job {
        let kinds = KIND_COUNT as u64;
        let k = (slot % kinds) as usize;
        let rest = slot / kinds;
        let sms = SMS[(rest % SMS.len() as u64) as usize];
        let (w, h) = shapes()
            .nth((rest / SMS.len() as u64) as usize)
            .expect("slot inside the pair space");
        Job {
            kind: k,
            policy,
            pair,
            pixels: w * h,
            body: job_body(&kind(k), w, h, policy, sms),
        }
    }
}

/// A request body; fields it leaves out take the schema's defaults.
fn job_body(k: &JobKind, w: usize, h: usize, policy: &str, sms: usize) -> String {
    format!(
        r#"{{"scene": "{}", "detail": {DETAIL}, "width": {w}, "height": {h}, "spp": 1, "shader": "{}", "policy": "{policy}", "config": "small", "sms": {sms}}}"#,
        k.scene.name(),
        k.shader
    )
}

/// What a client sends next.
#[derive(Clone, Debug)]
pub enum Req {
    /// A job whose key no earlier request named.
    Miss(Job),
    /// A repeat of the recent miss at this index of the client's window.
    Hit(usize),
    /// `GET /metrics`, in Prometheus form when `true`.
    Scrape(bool),
}

/// One client's seeded request stream.
///
/// Intended misses walk a bijection of the pair space: pair `i` of
/// client `c` is slot `(a * (CLIENTS * i + c) + b) mod space` with `a`
/// coprime to the space, so no two misses of either client share a
/// canonical key. A run stops before the space is exhausted (see
/// [`Mix::remaining`]).
#[derive(Debug)]
pub struct Mix {
    client: usize,
    space: u64,
    rng: u64,
    a: u64,
    b: u64,
    next_pair: u64,
    pending: Option<Job>,
    step: u64,
    /// Recent misses with their response bodies, oldest first.
    pub recent: VecDeque<(Job, Arc<Vec<u8>>)>,
}

impl Mix {
    /// Client `client`'s stream under `seed`.
    pub fn new(seed: u64, client: usize) -> Self {
        let space = pair_space();
        let mut s = seed ^ 0x5eed_0000_0000_0000;
        let a = loop {
            let a = splitmix(&mut s) % space;
            if gcd(a, space) == 1 {
                break a;
            }
        };
        let b = splitmix(&mut s) % space;
        Mix {
            client,
            space,
            rng: splitmix(&mut s) ^ client as u64,
            a,
            b,
            next_pair: 0,
            pending: None,
            step: 0,
            recent: VecDeque::new(),
        }
    }

    /// Job pairs this client can still send before it would repeat a
    /// key.
    pub fn remaining(&self) -> u64 {
        let own = (self.space - self.client as u64).div_ceil(CLIENTS as u64);
        own - self.next_pair
    }

    /// The next request.
    ///
    /// # Panics
    ///
    /// Panics when [`Mix::remaining`] is 0 and a new miss is due.
    pub fn next_req(&mut self) -> Req {
        self.step += 1;
        if self.step.is_multiple_of(SCRAPE_EVERY) {
            return Req::Scrape((self.step / SCRAPE_EVERY).is_multiple_of(2));
        }
        if self.pending.is_none()
            && !self.recent.is_empty()
            && splitmix(&mut self.rng) % 100 < HIT_PERCENT
        {
            let i = (splitmix(&mut self.rng) % self.recent.len() as u64) as usize;
            return Req::Hit(i);
        }
        if let Some(job) = self.pending.take() {
            return Req::Miss(job);
        }
        assert!(self.remaining() > 0, "request mix exhausted its key space");
        let j = CLIENTS as u64 * self.next_pair + self.client as u64;
        self.next_pair += 1;
        let slot = (self.a as u128 * j as u128 + self.b as u128) % self.space as u128;
        let slot = slot as u64;
        self.pending = Some(Job::of_slot(slot, j, "cooprt"));
        Req::Miss(Job::of_slot(slot, j, "baseline"))
    }

    /// Remembers a miss's body for later hits.
    pub fn remember(&mut self, job: Job, body: Arc<Vec<u8>>) {
        self.recent.push_back((job, body));
        if self.recent.len() > RECENT {
            self.recent.pop_front();
        }
    }
}

/// One completed request, kept for the off-clock checks.
#[derive(Debug)]
pub struct Sample {
    /// The job, or `None` for a scrape.
    pub job: Option<Job>,
    /// True for an intended hit.
    pub intended_hit: bool,
    /// True for a Prometheus scrape.
    pub prometheus: bool,
    /// Client-measured latency, seconds.
    pub secs: f64,
    /// HTTP status (0 on a transport error).
    pub status: u16,
    /// The `X-Cache` header.
    pub cache: Option<String>,
    /// The `X-Request-Id` header.
    pub request_id: Option<u64>,
    /// The body.
    pub body: Arc<Vec<u8>>,
    /// For an intended hit: the body of the miss it repeats.
    pub expected: Option<Arc<Vec<u8>>>,
}

/// Sends `count` requests of `mix` over one connection.
pub fn drive(addr: &str, mix: &mut Mix, count: usize) -> Vec<Sample> {
    let mut client = HttpClient::connect(addr).expect("connect to the in-process server");
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let req = mix.next_req();
        let (job, expected, prometheus) = match &req {
            Req::Miss(job) => (Some(job.clone()), None, false),
            Req::Hit(i) => {
                let (job, body) = &mix.recent[*i];
                (Some(job.clone()), Some(Arc::clone(body)), false)
            }
            Req::Scrape(prom) => (None, None, *prom),
        };
        let t = Instant::now();
        let resp = match &job {
            Some(job) => client.post(path(kind(job.kind).endpoint), &job.body),
            None if prometheus => client.get_accept("/metrics", "text/plain"),
            None => client.get("/metrics"),
        };
        let secs = t.elapsed().as_secs_f64();
        let (status, cache, request_id, body) = match resp {
            Ok(r) => (
                r.status,
                r.header("x-cache").map(str::to_string),
                r.header("x-request-id").and_then(|v| v.parse().ok()),
                Arc::new(r.body),
            ),
            Err(_) => {
                // The connection is unusable; reconnect for the rest.
                client = HttpClient::connect(addr).expect("reconnect");
                (0, None, None, Arc::new(Vec::new()))
            }
        };
        if let (Req::Miss(job), 200..=299) = (&req, status) {
            mix.remember(job.clone(), Arc::clone(&body));
        }
        samples.push(Sample {
            job,
            intended_hit: matches!(req, Req::Hit(_)),
            prometheus,
            secs,
            status,
            cache,
            request_id,
            body,
            expected,
        });
    }
    samples
}

/// Checking state that persists across passes.
pub struct Verifier {
    /// Oracle answers of each query kind, `oracle[kind][query]`; empty
    /// for the other kinds.
    oracle: Vec<Vec<Vec<u32>>>,
    /// Per pair: (baseline cycles, CoopRT cycles, image hashes).
    pairs: HashMap<u64, PairHalves>,
    /// Pair speedups of completed pairs, with the pass they completed in.
    pub speedups: Vec<(usize, f64)>,
}

#[derive(Default)]
struct PairHalves {
    base: Option<(u64, String)>,
    coop: Option<(u64, String)>,
}

/// What a checked job response carried.
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    /// Simulated cycles.
    pub cycles: u64,
    /// Rays dispatched.
    pub rays: u64,
}

impl Verifier {
    /// Builds the query scenes and their brute-force oracles.
    pub fn new() -> Self {
        let oracle = (0..KIND_COUNT)
            .map(|i| {
                let k = kind(i);
                match k.endpoint {
                    Endpoint::Query => {
                        let scene: Scene = k.scene.build(DETAIL);
                        let shader = query_shader(k.shader);
                        cooprt_query::oracle_answers(&scene, shader, PIXELS.1, 0)
                    }
                    _ => Vec::new(),
                }
            })
            .collect();
        Verifier {
            oracle,
            pairs: HashMap::new(),
            speedups: Vec::new(),
        }
    }

    /// Checks one response, returning the work a miss carried.
    pub fn check(&mut self, s: &Sample, pass: usize, report: &mut Report) -> Option<Work> {
        report.check((200..300).contains(&s.status), || {
            format!(
                "status {} for {:?}",
                s.status,
                s.job.as_ref().map(|j| &j.body)
            )
        });
        if !(200..300).contains(&s.status) {
            return None;
        }
        let text = String::from_utf8_lossy(&s.body);
        let Some(job) = &s.job else {
            let ok = if s.prometheus {
                validate_prometheus(&text).is_ok()
            } else {
                parse_json(&text).is_ok()
            };
            report.check(ok, || {
                format!("invalid /metrics body (prometheus: {})", s.prometheus)
            });
            return None;
        };
        if s.intended_hit {
            let expected = s.expected.as_ref().expect("a hit carries its miss body");
            report.check(**expected == *s.body, || {
                format!("hit bytes differ from the miss: {}", job.body)
            });
            return None;
        }
        report.check(s.cache.as_deref() == Some("miss"), || {
            format!("intended miss served as {:?}: {}", s.cache, job.body)
        });
        let Ok(doc) = parse_json(&text) else {
            report.check(false, || format!("unparsable body for {}", job.body));
            return None;
        };
        let num = |f: &str| doc.get(f).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
        let work = Work {
            cycles: num("cycles"),
            rays: num("rays"),
        };
        let witness = if kind(job.kind).endpoint == Endpoint::Query {
            let got = answers(&doc);
            let want = &self.oracle[job.kind][..job.pixels];
            report.check(got.as_deref() == Some(want), || {
                format!("query answers differ from the oracle: {}", job.body)
            });
            String::new()
        } else {
            doc.get("image_hash")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string()
        };
        let halves = self.pairs.entry(job.pair).or_default();
        let half = Some((work.cycles, witness));
        if job.policy == "baseline" {
            halves.base = half;
        } else {
            halves.coop = half;
        }
        if let (Some((bc, bw)), Some((cc, cw))) = (&halves.base, &halves.coop) {
            report.check(bw == cw, || {
                format!("baseline and CoopRT images differ: {}", job.body)
            });
            self.speedups.push((pass, *bc as f64 / (*cc).max(1) as f64));
            self.pairs.remove(&job.pair);
        }
        Some(work)
    }
}

/// The `answers` array of a query body.
fn answers(doc: &JsonValue) -> Option<Vec<Vec<u32>>> {
    let JsonValue::Array(rows) = doc.get("answers")? else {
        return None;
    };
    rows.iter()
        .map(|row| match row {
            JsonValue::Array(ids) => ids.iter().map(|v| v.as_f64().map(|f| f as u32)).collect(),
            _ => None,
        })
        .collect()
}

/// The query shader a request spells `key`.
fn query_shader(key: &str) -> ShaderKind {
    match key {
        "knn" => ShaderKind::Knn,
        "rad" => ShaderKind::Radius,
        _ => ShaderKind::Contain,
    }
}

/// A running in-process server.
pub struct Running {
    /// Bound address.
    pub addr: String,
    handle: cooprt_serve::ShutdownHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Binds a server and warms its scene cache with one job per scene,
    /// in a shape the mix never uses.
    pub fn start(spans: bool) -> Running {
        let server = Server::bind(&ServeConfig {
            workers: WORKERS,
            queue_capacity: 64,
            scene_cache_capacity: KIND_COUNT,
            result_cache_capacity: RESULT_CACHE,
            request_spans: spans,
            logger: Logger::disabled(),
            ..ServeConfig::default()
        })
        .expect("bind an ephemeral port");
        let addr = server.local_addr().expect("local address").to_string();
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        let mut client = HttpClient::connect(&addr).expect("connect");
        let (w, h) = WARM_SHAPE;
        let mut warm = Vec::new();
        for k in (0..KIND_COUNT).map(kind) {
            if warm.contains(&k.scene) {
                continue;
            }
            warm.push(k.scene);
            let body = job_body(&k, w, h, "cooprt", 1);
            let resp = client
                .post(path(k.endpoint), &body)
                .expect("warm-up request");
            assert_eq!(resp.status, 200, "warm-up failed: {}", resp.text());
        }
        Running {
            addr,
            handle,
            thread,
        }
    }

    /// `GET /metrics` as JSON.
    pub fn metrics(&self) -> JsonValue {
        let mut client = HttpClient::connect(&self.addr).expect("connect");
        let text = client.get("/metrics").expect("scrape").text();
        parse_json(&text).expect("metrics JSON parses")
    }

    /// Drains the server and joins its thread.
    pub fn stop(self) {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread")
            .expect("server ran cleanly");
    }
}

/// Runs one pass: every client sends `count` requests concurrently.
/// Returns the pass's wall time and the samples, client by client.
pub fn pass(addr: &str, mixes: &mut [Mix], count: usize) -> (f64, Vec<Vec<Sample>>) {
    let t = Instant::now();
    let samples = std::thread::scope(|s| {
        let handles: Vec<_> = mixes
            .iter_mut()
            .map(|mix| s.spawn(move || drive(addr, mix, count)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (t.elapsed().as_secs_f64(), samples)
}

/// `serve_mixed`.
pub fn serve_mixed(args: &Args, report: &mut Report) {
    if args.print_pins {
        return;
    }
    let mut verifier = Verifier::new();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..reps {
        if let Some(old) = server.take() {
            Running::stop(old);
        }
        let t = Instant::now();
        server = Some(Running::start(args.trace));
        setup.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let mut mixes: Vec<Mix> = (0..CLIENTS).map(|c| Mix::new(args.seed, c)).collect();
    let start = Instant::now();
    let mut pass_secs = Vec::new();
    let mut latencies_ms = Vec::new();
    // Per policy: rays and client seconds of render/simulate misses.
    let mut rays = [(0u64, 0.0f64); 2];
    let (mut cycles, mut miss_secs) = (0u64, 0.0f64);
    // A pass starts at most one pair per two requests of a client; the
    // run ends early rather than repeat a key.
    let room = |mixes: &[Mix]| mixes.iter().all(|m| m.remaining() >= PASS_REQUESTS as u64);
    let mut exhausted = false;
    while pass_secs.len() < 2 || start.elapsed() < args.seconds {
        if !room(&mixes) {
            exhausted = true;
            break;
        }
        let p = pass_secs.len();
        let (secs, samples) = pass(&server.addr, &mut mixes, PASS_REQUESTS);
        pass_secs.push(secs);
        for s in samples.iter().flatten() {
            latencies_ms.push(s.secs * 1e3);
            let Some(work) = verifier.check(s, p, report) else {
                continue;
            };
            let job = s.job.as_ref().expect("work comes from jobs");
            cycles += work.cycles;
            miss_secs += s.secs;
            if kind(job.kind).endpoint != Endpoint::Query {
                let i = usize::from(job.policy == "cooprt");
                rays[i].0 += work.rays;
                rays[i].1 += s.secs;
            }
        }
    }
    server.stop();
    if args.trace {
        report.push(
            Metric::plain("traced.wall_s", median(&pass_secs), "s").note(
                "median pass with request span trails on; compare with wall_s of the untraced run",
            ),
        );
        return;
    }
    let wall = median(&pass_secs);
    report.push(Metric::plain("setup_s", median(&setup), "s").note(format!(
        "median of {} binds + scene-cache warm-ups",
        setup.len()
    )));
    report.push(Metric::plain("wall_s", wall, "s").note(format!(
        "median of {} passes of {CLIENTS} x {PASS_REQUESTS} requests{}",
        pass_secs.len(),
        if exhausted {
            "; stopped before the time budget: the key space is spent"
        } else {
            ""
        }
    )));
    report.push(
        Metric::plain("rays_per_s.baseline", rays[0].0 as f64 / rays[0].1, "1/s")
            .note("render/simulate misses: rays / client seconds"),
    );
    report.push(
        Metric::plain("rays_per_s.cooprt", rays[1].0 as f64 / rays[1].1, "1/s")
            .note("render/simulate misses: rays / client seconds"),
    );
    report.push(
        Metric::plain("sim_cycles_per_s", cycles as f64 / miss_secs, "1/s")
            .note("all misses: simulated cycles / client seconds"),
    );
    let first: Vec<f64> = verifier
        .speedups
        .iter()
        .filter(|(p, _)| *p == 0)
        .map(|(_, s)| *s)
        .collect();
    report.push(
        Metric::ratio_of(
            "cooprt_speedup",
            gmean(&first),
            "x",
            &format!(
                "simulated; gmean over the {} job pairs of the first pass of baseline cycles / CoopRT cycles",
                first.len()
            ),
        )
        .note(format!(
            "paper PT gmean {}x, context only",
            crate::sim::PAPER_PT_GMEAN
        )),
    );
    report.push(
        Metric::plain("req_per_s", (CLIENTS * PASS_REQUESTS) as f64 / wall, "1/s")
            .note("requests of a median pass / its wall time"),
    );
    push_p50_tail(
        report,
        "latency_ms",
        "ms",
        &latencies_ms,
        "request",
        Some(TAIL_BLOCK),
    );
}

/// The serve layers of the ledger: span trails, socket-free execution,
/// per-endpoint latencies and the server's own counters.
pub fn ledger(seed: u64, report: &mut Report) {
    // Enough passes for over 1000 job samples, so stage tails are p99.
    const PASSES: usize = 8;
    let mut verifier = Verifier::new();
    let server = Running::start(true);
    let mut mixes: Vec<Mix> = (0..CLIENTS).map(|c| Mix::new(seed, c)).collect();
    let mut stages: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut unattributed = Vec::new();
    let mut by_endpoint: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut scrapes = Vec::new();
    let mut jobs: Vec<(Endpoint, JobRequest)> = Vec::new();
    let mut spans_client = HttpClient::connect(&server.addr).expect("connect");
    for p in 0..PASSES {
        let (_, samples) = pass(&server.addr, &mut mixes, PASS_REQUESTS);
        // Kept in client order: the socket-free replay below then sees
        // every hit after the miss it repeats.
        for s in samples.iter().flatten() {
            let work = verifier.check(s, p, report);
            let Some(job) = &s.job else {
                scrapes.push(s.secs * 1e6);
                continue;
            };
            let endpoint = kind(job.kind).endpoint;
            let doc = parse_json(&job.body).expect("own body parses");
            jobs.push((
                endpoint,
                JobRequest::from_json(&doc).expect("own body validates"),
            ));
            if work.is_some() {
                by_endpoint
                    .entry(endpoint.label())
                    .or_default()
                    .push(s.secs * 1e3);
            }
            let Some(id) = s.request_id else { continue };
            let resp = spans_client
                .get(&format!("/v1/spans/{id}"))
                .expect("span trail");
            report.check(resp.status == 200, || {
                format!("span trail of request {id}: {}", resp.status)
            });
            let Ok(trail) = parse_json(&resp.text()) else {
                continue;
            };
            let mut sum = 0.0;
            if let Some(JsonValue::Array(events)) = trail.get("traceEvents") {
                for e in events {
                    if e.get("ph").and_then(JsonValue::as_str) != Some("X") {
                        continue;
                    }
                    let name = e.get("name").and_then(JsonValue::as_str).unwrap_or("");
                    let dur = e.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0);
                    sum += dur;
                    if let Some(stage) = STAGES.iter().find(|s| **s == name) {
                        stages.entry(stage).or_default().push(dur);
                    }
                }
            }
            unattributed.push(s.secs * 1e6 - sum);
        }
    }
    let metrics = server.metrics();
    server.stop();

    for stage in STAGES {
        let v = stages.get(stage).cloned().unwrap_or_default();
        push_p50_tail(report, &format!("serve.{stage}_us"), "us", &v, "span", None);
    }
    let una = median(&unattributed);
    report.push(
        Metric::derived_time(
            "serve.unattributed_us.p50",
            Derived {
                value: una,
                negative: una < 0.0,
            },
            "us",
            "client latency - sum of the request's spans, median",
        )
        .note(format!("n={}", unattributed.len())),
    );

    // The same job sequence through a fresh executor, no sockets.
    let exec = Executor::new(KIND_COUNT, RESULT_CACHE);
    for k in (0..KIND_COUNT).map(kind) {
        let _ = exec.scene_cache().get_or_build(k.scene, DETAIL);
    }
    let mut exec_us = Vec::with_capacity(jobs.len());
    for (i, (endpoint, req)) in jobs.iter().enumerate() {
        let t = Instant::now();
        let out = exec.execute(*endpoint, req, i as u64);
        exec_us.push(t.elapsed().as_secs_f64() * 1e6);
        report.check(out.is_ok(), || format!("execute failed: {out:?}"));
    }
    report.push(
        Metric::plain("serve.execute_us.p50", median(&exec_us), "us").note(format!(
            "Executor::execute over the same {} jobs",
            exec_us.len()
        )),
    );
    for (endpoint, name) in [
        ("render", "serve.render_ms.p50"),
        ("simulate", "serve.simulate_ms.p50"),
        ("query", "serve.query_ms.p50"),
    ] {
        let v = by_endpoint.get(endpoint).cloned().unwrap_or_default();
        report.push(
            Metric::plain(name, median(&v), "ms")
                .note(format!("client latency of misses, n={}", v.len())),
        );
    }
    report.push(
        Metric::plain("serve.metrics_scrape_us.p50", median(&scrapes), "us")
            .note(format!("n={}", scrapes.len())),
    );
    let count = |section: &str, field: &str| -> f64 {
        metrics
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    for (cache, name) in [
        ("result_cache", "serve.result_cache.hit_rate"),
        ("scene_cache", "serve.scene_cache.hit_rate"),
    ] {
        let hits = count(cache, "hits");
        let lookups = hits + count(cache, "misses");
        report.push(Metric::ratio(
            name,
            hits,
            lookups,
            "ratio",
            &format!("{cache} hits / lookups"),
        ));
    }
    report.push(Metric::plain(
        "serve.rejected",
        count("jobs", "rejected_full") + count("jobs", "rejected_draining"),
        "count",
    ));
    report.push(Metric::plain(
        "serve.responses_5xx",
        count("http", "responses_5xx"),
        "count",
    ));
}

/// The span names of a job's trail, in pipeline order.
pub const STAGES: [&str; 6] = [
    "parse",
    "queue_wait",
    "result_cache",
    "scene",
    "engine_run",
    "serialize",
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn intended_misses_have_distinct_canonical_keys() {
        for seed in [0, 1, 7, 12345] {
            let mut keys = HashSet::new();
            let mut mixes: Vec<Mix> = (0..CLIENTS).map(|c| Mix::new(seed, c)).collect();
            let mut misses = 0;
            for _ in 0..4000 {
                for mix in &mut mixes {
                    if let Req::Miss(job) = mix.next_req() {
                        let doc = parse_json(&job.body).unwrap();
                        let req = JobRequest::from_json(&doc).unwrap();
                        let key = Executor::cache_key(kind(job.kind).endpoint, &req);
                        assert!(keys.insert(key), "seed {seed}: repeated key {}", job.body);
                        misses += 1;
                        mix.remember(job, Arc::new(Vec::new()));
                    }
                }
            }
            assert!(misses > 5000, "{misses}");
        }
    }

    #[test]
    fn the_mix_has_hits_and_scrapes_in_proportion() {
        let mut mix = Mix::new(3, 0);
        let (mut hits, mut scrapes, mut misses) = (0, 0, 0);
        for _ in 0..2400 {
            match mix.next_req() {
                Req::Miss(job) => {
                    misses += 1;
                    mix.remember(job, Arc::new(Vec::new()));
                }
                Req::Hit(_) => hits += 1,
                Req::Scrape(_) => scrapes += 1,
            }
        }
        assert_eq!(scrapes, 100);
        let share = hits as f64 / (hits + misses) as f64;
        assert!((0.15..0.3).contains(&share), "hit share {share}");
    }

    #[test]
    fn warm_up_shape_is_outside_the_mix() {
        assert!(shapes().all(|s| s != WARM_SHAPE));
        assert!(shapes().all(|(w, h)| (PIXELS.0..=PIXELS.1).contains(&(w * h))));
        let count = (1..=PIXELS.1)
            .flat_map(|w| (1..=PIXELS.1).map(move |h| w * h))
            .filter(|p| (PIXELS.0..=PIXELS.1).contains(p))
            .count();
        assert_eq!(shapes().count(), count);
    }

    #[test]
    fn a_client_stops_before_its_key_space_is_spent() {
        let mut mix = Mix::new(5, 1);
        let own = mix.remaining();
        assert_eq!(own, pair_space() / CLIENTS as u64);
        let mut pairs = 0;
        while pairs < 100 {
            if let Req::Miss(job) = mix.next_req() {
                pairs += u64::from(job.policy == "baseline");
                mix.remember(job, Arc::new(Vec::new()));
            }
        }
        assert_eq!(mix.remaining(), own - 100);
    }
}

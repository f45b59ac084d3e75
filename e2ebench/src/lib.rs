//! End-to-end benchmark of the OASIS flows over loopback TCP.
//!
//! Three workloads, each from one process with two closed-loop
//! generator threads and one client connection per thread. Every
//! server runs in-process behind `WireServer::serve_in_background`.
//! An untraced run reports what a user of the service sees; a traced
//! run (`--trace 1`) times every layer from outside, through decorators
//! at its public seams, and in-process twins of the core. See
//! `README.md` beside this crate for the metrics and how to run it.

#![forbid(unsafe_code)]

pub mod federated;
pub mod gen;
pub mod revocation;
pub mod session;
pub mod stats;
pub mod trace;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use oasis_core::{CertEvent, Credential, OasisService, PrincipalId};
use oasis_crypto::SecretKey;
use oasis_events::EventBus;
use oasis_wire::frame::{read_frame, write_frame};
use oasis_wire::proto::{Request, Response};
use oasis_wire::{WireClient, WireTimeouts};

use crate::gen::{Class, Gen, Tally, CLASSES, NCLASSES};
use crate::stats::{median, p_us, page_faults, peak_rss_mb, percentile, Rng};
use crate::trace::Tracer;

/// Generator threads (and client connections) per workload.
pub const THREADS: usize = 2;
/// Live credentials shared between the writer and the reader.
pub const POOL: usize = 16;
/// In-process twin iterations timed in a traced run.
const TWIN_ITERATIONS: usize = 2_000;

/// A workload: which servers run and what the two generators send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 1/2: login, prerequisite chain, gated reads, logout.
    Session,
    /// Fig 3: cross-domain reads validated by TCP callback.
    Federated,
    /// Fig 5: quorum-journalled login/revoke beside dependent reads.
    Revocation,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Session, Workload::Federated, Workload::Revocation];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Session => "session",
            Workload::Federated => "federated",
            Workload::Revocation => "revocation",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (split between the untraced and the traced
    /// phase in a traced run).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Swap in a validator that ignores revocation (`federated` only):
    /// the stale-acceptance check must then fail the run.
    pub ignore_revocation: bool,
    /// Worlds set up per untraced run, each measured for an equal share
    /// of `seconds`; `setup_s` is the median of their set-up times.
    pub setups: usize,
    /// Warm-up script iterations per thread, part of set-up.
    pub warmup: u64,
    /// Where the run record and spans are written (`None`: nowhere).
    pub out_dir: Option<PathBuf>,
}

impl Options {
    /// Defaults for `workload` and `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self {
            workload,
            seed,
            seconds: 10.0,
            trace: false,
            ignore_revocation: false,
            setups: 5,
            warmup: 200,
            out_dir: None,
        }
    }
}

/// Counters read from the services and replicas around a phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Bus deliveries on the bus revocations travel on.
    pub bus_delivered: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests dropped past their deadline.
    pub expired: u64,
    /// Sum over servers and lanes of the smoothed admission queue wait.
    pub admission_wait_ms: f64,
    /// Quorum commits.
    pub commits: u64,
    /// Elections started, over all replicas, since the cluster started.
    pub elections: u64,
    /// Appends that missed quorum.
    pub no_quorum: u64,
}

impl Counters {
    /// What happened between `before` and `self`: differences of the
    /// counts, and `self`'s admission wait and elections-since-start.
    fn since(&self, before: &Counters) -> Counters {
        Counters {
            bus_delivered: self.bus_delivered - before.bus_delivered,
            shed: self.shed - before.shed,
            expired: self.expired - before.expired,
            admission_wait_ms: self.admission_wait_ms,
            commits: self.commits - before.commits,
            elections: self.elections,
            no_quorum: self.no_quorum - before.no_quorum,
        }
    }

    /// Adds the phase counters of another world.
    fn add(&mut self, other: &Counters) {
        self.bus_delivered += other.bus_delivered;
        self.shed += other.shed;
        self.expired += other.expired;
        self.admission_wait_ms = self.admission_wait_ms.max(other.admission_wait_ms);
        self.commits += other.commits;
        self.elections += other.elections;
        self.no_quorum += other.no_quorum;
    }

    /// Bus and admission counters of `services`.
    pub fn of_services(services: &[&Arc<OasisService>], bus: &EventBus<CertEvent>) -> Self {
        let mut c = Counters {
            bus_delivered: bus.stats().delivered,
            ..Counters::default()
        };
        for stats in services.iter().filter_map(|s| s.overload_stats()) {
            c.shed += stats.total_shed();
            c.expired += stats.total_expired();
            c.admission_wait_ms += stats
                .lanes
                .iter()
                .map(|l| l.ewma_queue_wait_ms)
                .sum::<f64>();
        }
        c
    }
}

/// In-process timings (ns) of the core on a twin of the workload's
/// world, on the same kind of inputs.
#[derive(Debug, Default)]
pub struct CoreTimings {
    /// `activate_role` calls.
    pub decide_issue: Vec<u64>,
    /// `invoke` calls.
    pub decide_check: Vec<u64>,
    /// `validate_own` calls on the credentials the reads present.
    pub validate: Vec<u64>,
    /// `Credential::verify` on the same credentials.
    pub verify: Vec<u64>,
}

/// A workload's servers and scripts.
pub trait World: Send + Sync {
    /// Connects generator `thread`.
    fn connect(&self, thread: usize) -> WireClient;
    /// Pre-issues the credential pools.
    fn prepare(&self, gens: &mut [Gen]);
    /// One iteration of generator `thread`'s script.
    fn step(&self, thread: usize, gen: &mut Gen);
    /// Current counters.
    fn counters(&self) -> Counters;
    /// Quiets a world that is no longer driven (servers cannot stop).
    fn retire(&self);
    /// Times the core in-process on a twin world.
    fn twin(&self, seed: u64, iterations: usize) -> CoreTimings;
}

/// Socket deadlines for every benchmark connection.
pub fn timeouts() -> WireTimeouts {
    WireTimeouts::all(Duration::from_secs(10))
}

/// Nanoseconds since `started`.
pub fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

/// Times one `Credential::verify`.
pub fn verify_ns(cred: &Credential, key: &SecretKey, presenter: &PrincipalId) -> u64 {
    let started = Instant::now();
    let ok = std::hint::black_box(cred.verify(key, presenter));
    let ns = elapsed_ns(started);
    assert!(ok, "twin credential verifies");
    ns
}

fn build(opts: &Options, tracer: Option<&Arc<Tracer>>) -> Box<dyn World> {
    match opts.workload {
        Workload::Session => Box::new(session::Session::build(tracer)),
        Workload::Federated => {
            Box::new(federated::Federated::build(tracer, opts.ignore_revocation))
        }
        Workload::Revocation => Box::new(revocation::Revocation::build(tracer)),
    }
}

enum Until {
    Iterations(u64),
    Deadline(Instant),
}

/// Runs every generator's script on its own thread until `until`.
fn drive(world: &dyn World, gens: &mut [Gen], until: Until) {
    std::thread::scope(|scope| {
        for (thread, gen) in gens.iter_mut().enumerate() {
            let until = &until;
            scope.spawn(move || {
                let mut n = 0;
                loop {
                    let done = match until {
                        Until::Iterations(k) => n >= *k,
                        Until::Deadline(at) => Instant::now() >= *at,
                    };
                    if done {
                        break;
                    }
                    world.step(thread, gen);
                    n += 1;
                }
            });
        }
    });
}

struct Ready {
    world: Box<dyn World>,
    gens: Vec<Gen>,
}

/// Builds the world, connects, pre-issues and warms up.
fn set_up(opts: &Options, tracer: Option<&Arc<Tracer>>) -> Ready {
    let world = build(opts, tracer);
    let mut gens: Vec<Gen> = (0..THREADS)
        .map(|i| Gen::new(world.connect(i), Rng::new(opts.seed, i as u64), tracer, i))
        .collect();
    world.prepare(&mut gens);
    drive(&*world, &mut gens, Until::Iterations(opts.warmup));
    Ready { world, gens }
}

/// A measured phase is cut into windows of this many seconds.
/// End-to-end latencies and throughput are the median over windows of
/// each window's figure, so a burst of outside noise moves one window,
/// not the result. Two seconds hold at least ten revokes beyond the p99
/// on the slowest workload.
const WINDOW_SECONDS: f64 = 2.0;

/// One measured phase, merged over the generators.
struct Phase {
    lat: [Vec<(u64, u64)>; NCLASSES],
    sent: [u64; NCLASSES],
    writer_ops: u64,
    iterations: Vec<u64>,
    tally: Tally,
    setup_violations: u64,
    seconds: f64,
    /// Counters over the phase (see [`Counters::since`]).
    counters: Counters,
}

impl Phase {
    fn windows_n(&self) -> u64 {
        ((self.seconds / WINDOW_SECONDS).round() as u64).max(1)
    }

    fn window_of(&self, offset_ns: u64) -> usize {
        let n = self.windows_n();
        let span = (self.seconds * 1e9) as u64 / n;
        (offset_ns / span.max(1)).min(n - 1) as usize
    }

    /// Round trips (ns) of `class`, per window.
    fn windows(&self, class: Class) -> Vec<Vec<u64>> {
        let mut windows = vec![Vec::new(); self.windows_n() as usize];
        for &(offset, rtt) in &self.lat[class as usize] {
            windows[self.window_of(offset)].push(rtt);
        }
        windows
    }

    /// Median over windows of the windows' `p`-th percentile, in µs.
    fn windowed_us(&self, class: Class, p: f64) -> f64 {
        let mut per_window: Vec<f64> = self
            .windows(class)
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| p_us(w, p))
            .collect();
        median(&mut per_window)
    }

    /// Every round trip (ns) of `class`.
    fn all(&self, class: Class) -> Vec<u64> {
        self.lat[class as usize]
            .iter()
            .map(|&(_, rtt)| rtt)
            .collect()
    }

    /// Median over windows of answered requests per second.
    fn rps(&self) -> f64 {
        let mut counts = vec![0u64; self.windows_n() as usize];
        for &(offset, _) in self.lat.iter().flatten() {
            counts[self.window_of(offset)] += 1;
        }
        let window_s = self.seconds / counts.len() as f64;
        let mut rates: Vec<f64> = counts.iter().map(|&n| n as f64 / window_s).collect();
        median(&mut rates)
    }

    fn correct(&self) -> bool {
        self.tally.stale == 0 && self.tally.wrong == 0 && self.setup_violations == 0
    }

    /// Appends the phase measured on another world, after this one in
    /// time, so each keeps its own windows.
    fn absorb(&mut self, other: Phase) {
        let shift = (self.seconds * 1e9) as u64;
        for (mine, theirs) in self.lat.iter_mut().zip(other.lat) {
            mine.extend(
                theirs
                    .into_iter()
                    .map(|(offset, rtt)| (offset + shift, rtt)),
            );
        }
        for (mine, theirs) in self.sent.iter_mut().zip(other.sent) {
            *mine += theirs;
        }
        for (mine, theirs) in self.iterations.iter_mut().zip(other.iterations) {
            *mine += theirs;
        }
        self.writer_ops += other.writer_ops;
        self.tally.add(&other.tally);
        self.setup_violations += other.setup_violations;
        self.seconds += other.seconds;
        self.counters.add(&other.counters);
    }
}

fn measure(ready: &mut Ready, seconds: f64) -> Phase {
    let before = ready.world.counters();
    let started = Instant::now();
    for gen in &mut ready.gens {
        gen.start_measuring(started);
    }
    drive(
        &*ready.world,
        &mut ready.gens,
        Until::Deadline(started + Duration::from_secs_f64(seconds)),
    );
    let after = ready.world.counters();
    let mut phase = Phase {
        lat: Default::default(),
        sent: [0; NCLASSES],
        writer_ops: ready.gens[0].sent[Class::Issue as usize]
            + ready.gens[0].sent[Class::Revoke as usize],
        iterations: ready.gens.iter().map(|g| g.iterations).collect(),
        tally: Tally::default(),
        setup_violations: 0,
        seconds,
        counters: after.since(&before),
    };
    for gen in &mut ready.gens {
        for (class, samples) in gen.lat.iter_mut().enumerate() {
            phase.lat[class].append(samples);
            phase.sent[class] += gen.sent[class];
        }
        phase.tally.add(&gen.tally);
        phase.setup_violations += gen.setup_violations;
    }
    phase
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// No stale acceptance and no wrong answer.
    pub correct: bool,
    /// Requests sent in the measured phase(s).
    pub attempted: u64,
    /// Requests that did not get the answer they had to get.
    pub failed: u64,
    /// Outcome detail of the measured phase(s).
    pub tally: Tally,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Counts that repeat exactly for a fixed seed and run length,
    /// and the layer counters beside them, as `name -> value`.
    pub counts: Vec<(String, u64)>,
}

impl Report {
    /// The count `name`.
    pub fn count(&self, name: &str) -> Option<u64> {
        self.counts.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn phase_counts(phase: &Phase) -> Vec<(String, u64)> {
    let mut counts: Vec<(String, u64)> = CLASSES
        .iter()
        .zip(phase.sent)
        .map(|(class, n)| (format!("requests.{class}"), n))
        .collect();
    for (i, n) in phase.iterations.iter().enumerate() {
        counts.push((format!("iterations.thread{i}"), *n));
    }
    let t = &phase.tally;
    for (name, n) in [
        ("outcome.shed", t.shed),
        ("outcome.expired", t.expired),
        ("outcome.not_leader", t.not_leader),
        ("outcome.transport", t.transport),
        ("outcome.wrong", t.wrong),
        ("outcome.stale", t.stale),
        ("outcome.race_granted", t.race_granted),
        ("outcome.race_denied", t.race_denied),
        ("outcome.setup_violations", phase.setup_violations),
        ("bus.deliveries", phase.counters.bus_delivered),
        ("store.commits", phase.counters.commits),
        ("store.elections_total", phase.counters.elections),
    ] {
        counts.push((name.to_string(), n));
    }
    for (name, n) in page_faults() {
        counts.push((name.to_string(), n));
    }
    counts
}

/// Runs one benchmark invocation.
pub fn run(opts: &Options) -> Report {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

/// Sets up `opts.setups` worlds one after another and measures an
/// equal share of the run on each, so effects fixed per world (thread
/// placement, hash seeds) average out instead of deciding a run.
fn run_untraced(opts: &Options) -> Report {
    let worlds = opts.setups.max(1);
    let mut setup_s = Vec::new();
    let mut phase: Option<Phase> = None;
    for _ in 0..worlds {
        let started = Instant::now();
        let mut ready = set_up(opts, None);
        setup_s.push(started.elapsed().as_secs_f64());
        let measured = measure(&mut ready, opts.seconds / worlds as f64);
        ready.world.retire();
        match phase.as_mut() {
            Some(phase) => phase.absorb(measured),
            None => phase = Some(measured),
        }
    }
    let phase = phase.expect("at least one world");
    let lat = |class: Class, p: f64| phase.windowed_us(class, p);
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&mut setup_s.clone()),
            unit: "s",
        },
        Metric {
            name: "issue_p50_us",
            value: lat(Class::Issue, 50.0),
            unit: "us",
        },
        Metric {
            name: "issue_p99_us",
            value: lat(Class::Issue, 99.0),
            unit: "us",
        },
        Metric {
            name: "check_p50_us",
            value: lat(Class::Check, 50.0),
            unit: "us",
        },
        Metric {
            name: "check_p99_us",
            value: lat(Class::Check, 99.0),
            unit: "us",
        },
        Metric {
            name: "revoke_p50_us",
            value: lat(Class::Revoke, 50.0),
            unit: "us",
        },
        Metric {
            name: "revoke_p99_us",
            value: lat(Class::Revoke, 99.0),
            unit: "us",
        },
        Metric {
            name: "throughput_rps",
            value: phase.rps(),
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MiB",
        },
    ];
    let mut counts = phase_counts(&phase);
    for (class, samples) in CLASSES.iter().zip(&phase.lat) {
        counts.push((format!("samples.{class}"), samples.len() as u64));
    }
    Report {
        correct: phase.correct(),
        attempted: phase.tally.attempted,
        failed: phase.tally.failed(),
        tally: phase.tally,
        metrics,
        counts,
    }
}

/// Encode and decode time (ns) of one request/response pair, and
/// their frame sizes.
fn codec(request: &Request, response: &Response) -> (f64, f64, usize, usize) {
    const BATCH: u32 = 200;
    let mut req_buf = Vec::new();
    let mut resp_buf = Vec::new();
    write_frame(&mut req_buf, request).expect("encode request");
    write_frame(&mut resp_buf, response).expect("encode response");
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut scratch = Vec::with_capacity(req_buf.len() + resp_buf.len());
    for _ in 0..25 {
        let started = Instant::now();
        for _ in 0..BATCH {
            scratch.clear();
            write_frame(&mut scratch, std::hint::black_box(request)).expect("encode");
            write_frame(&mut scratch, std::hint::black_box(response)).expect("encode");
        }
        enc.push(elapsed_ns(started) as f64 / f64::from(BATCH));
        let started = Instant::now();
        for _ in 0..BATCH {
            let r: Option<Request> =
                read_frame(&mut std::hint::black_box(&req_buf[..])).expect("decode");
            let s: Option<Response> =
                read_frame(&mut std::hint::black_box(&resp_buf[..])).expect("decode");
            std::hint::black_box((r, s));
        }
        dec.push(elapsed_ns(started) as f64 / f64::from(BATCH));
    }
    (
        median(&mut enc),
        median(&mut dec),
        req_buf.len(),
        resp_buf.len(),
    )
}

fn p50_us(mut v: Vec<u64>) -> f64 {
    p_us(&mut v, 50.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn run_traced(opts: &Options) -> Report {
    let half = opts.seconds / 2.0;
    let mut plain = set_up(opts, None);
    let untraced = measure(&mut plain, half);
    plain.world.retire();

    let tracer = Tracer::new(THREADS);
    let mut ready = set_up(opts, Some(&tracer));
    tracer.clear();
    let phase = measure(&mut ready, half);
    let twin = ready.world.twin(opts.seed, TWIN_ITERATIONS);
    let sample = ready.gens.iter().find_map(|g| g.sample().cloned());
    ready.world.retire();

    let (encode_ns, decode_ns, req_bytes, resp_bytes) = match &sample {
        Some((request, rmc)) => codec(
            request,
            &Response::Activated {
                rmc: Box::new(rmc.clone()),
            },
        ),
        None => (0.0, 0.0, 0, 0),
    };
    let counts = &tracer.counts;
    let callbacks = counts.callbacks.load(Ordering::Relaxed);
    let appends = counts.appends.load(Ordering::Relaxed);
    let append_bytes = counts.append_bytes.load(Ordering::Relaxed);
    let replicate = counts.peer_replicate.load(Ordering::Relaxed);

    // Journal time per issue request: appends attributed to issues.
    let spans = tracer.spans();
    let issues: HashMap<u64, ()> = spans
        .iter()
        .filter(|s| s.name == "client.issue")
        .map(|s| (s.req, ()))
        .collect();
    let issue_append_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "store.append" && issues.contains_key(&s.req))
        .map(|s| s.dur())
        .sum();
    let issue_rtt = p50_us(phase.all(Class::Issue));
    let decide_issue = p50_us(twin.decide_issue.clone());
    let journal_per_issue = ratio(issue_append_ns, issues.len() as u64) / 1_000.0;
    let wire_self = (issue_rtt - decide_issue - journal_per_issue).max(0.0);

    let mut decide: Vec<u64> = twin
        .decide_issue
        .iter()
        .chain(&twin.decide_check)
        .copied()
        .collect();
    let mut callback = tracer.durations("wire.callback");
    let mut append = tracer.durations("store.append");
    let reads = phase.sent[Class::Check as usize] + phase.sent[Class::Probe as usize];
    let overhead = 100.0 * (1.0 - phase.rps() / untraced.rps());
    let fail_ratio = ratio(phase.tally.failed(), phase.tally.attempted);
    let c = &phase.counters;
    let metrics = vec![
        Metric {
            name: "wire.ping_us",
            value: p50_us(phase.all(Class::Ping)),
            unit: "us",
        },
        Metric {
            name: "wire.inbound_us",
            value: p50_us(tracer.durations("wire.inbound")),
            unit: "us",
        },
        Metric {
            name: "wire.self_us",
            value: wire_self,
            unit: "us",
        },
        Metric {
            name: "wire.encode_ns",
            value: encode_ns,
            unit: "ns",
        },
        Metric {
            name: "wire.decode_ns",
            value: decode_ns,
            unit: "ns",
        },
        Metric {
            name: "wire.req_bytes",
            value: req_bytes as f64,
            unit: "bytes",
        },
        Metric {
            name: "wire.resp_bytes",
            value: resp_bytes as f64,
            unit: "bytes",
        },
        Metric {
            name: "wire.callback_us",
            value: p_us(&mut callback, 50.0),
            unit: "us",
        },
        Metric {
            name: "wire.callback_p99_us",
            value: p_us(&mut callback, 99.0),
            unit: "us",
        },
        Metric {
            name: "wire.callbacks_per_check",
            value: ratio(callbacks, reads),
            unit: "count",
        },
        Metric {
            name: "wire.peer_call_us",
            value: p50_us(tracer.durations("peer.replicate")),
            unit: "us",
        },
        Metric {
            name: "wire.peer_msgs_per_append",
            value: ratio(replicate, appends),
            unit: "count",
        },
        Metric {
            name: "core.decide_us",
            value: p_us(&mut decide, 50.0),
            unit: "us",
        },
        Metric {
            name: "core.validate_us",
            value: p50_us(twin.validate.clone()),
            unit: "us",
        },
        Metric {
            name: "core.admission_wait_ms",
            value: c.admission_wait_ms,
            unit: "ms",
        },
        Metric {
            name: "core.shed",
            value: c.shed as f64,
            unit: "count",
        },
        Metric {
            name: "core.expired",
            value: c.expired as f64,
            unit: "count",
        },
        Metric {
            name: "core.journal_appends_per_op",
            value: ratio(appends, phase.writer_ops),
            unit: "count",
        },
        Metric {
            name: "core.journal_bytes_per_op",
            value: ratio(append_bytes, phase.writer_ops),
            unit: "bytes",
        },
        Metric {
            name: "store.append_us",
            value: p_us(&mut append, 50.0),
            unit: "us",
        },
        Metric {
            name: "store.append_p99_us",
            value: p_us(&mut append, 99.0),
            unit: "us",
        },
        Metric {
            name: "store.commits",
            value: c.commits as f64,
            unit: "count",
        },
        Metric {
            name: "store.elections",
            value: c.elections as f64,
            unit: "count",
        },
        Metric {
            name: "store.no_quorum",
            value: c.no_quorum as f64,
            unit: "count",
        },
        Metric {
            name: "events.cascade_us",
            value: p50_us(trace::cascades(&spans)),
            unit: "us",
        },
        Metric {
            name: "events.deliveries_per_revoke",
            value: ratio(c.bus_delivered, phase.sent[Class::Revoke as usize]),
            unit: "count",
        },
        Metric {
            name: "crypto.verify_ns",
            value: percentile(&mut twin.verify.clone(), 50.0) as f64,
            unit: "ns",
        },
        Metric {
            name: "fail_ratio",
            value: fail_ratio,
            unit: "ratio",
        },
        Metric {
            name: "trace.overhead_pct",
            value: overhead,
            unit: "%",
        },
    ];

    let mut out = phase_counts(&phase);
    for (name, n) in [
        ("wire.callbacks", callbacks),
        ("store.journal_appends", appends),
        ("store.journal_bytes", append_bytes),
        ("wire.peer_replicate_msgs", replicate),
        (
            "wire.peer_heartbeat_msgs",
            counts.peer_heartbeat.load(Ordering::Relaxed),
        ),
        (
            "wire.peer_other_msgs",
            counts.peer_other.load(Ordering::Relaxed),
        ),
        ("trace.spans", spans.len() as u64),
        (
            "trace.spans_dropped",
            counts.spans_dropped.load(Ordering::Relaxed),
        ),
    ] {
        out.push((name.to_string(), n));
    }
    if let Some(dir) = &opts.out_dir {
        write_spans(dir, opts, &tracer);
    }
    let mut tally = phase.tally;
    tally.add(&untraced.tally);
    Report {
        correct: phase.correct() && untraced.correct(),
        attempted: tally.attempted,
        failed: tally.failed(),
        tally,
        metrics,
        counts: out,
    }
}

fn write_spans(dir: &Path, opts: &Options, tracer: &Tracer) {
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_jsonl(&mut file)?;
        std::io::Write::flush(&mut file)
    });
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Provenance of a run: a fingerprint of the sources it was built
/// from (and the git commit when the tree is a checkout), the core
/// count, and the run's parameters.
pub fn provenance(opts: &Options) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for dir in ["crates", "e2ebench/src"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        for byte in file
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(file).unwrap_or_default())
        {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    let commit = git_head(&root).unwrap_or_else(|| "none".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "\"sources\": \"{hash:016x}\", \"git\": \"{commit}\", \"nproc\": {nproc}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": {THREADS}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    )
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

//! The load generator: one closed-loop caller per thread, each with
//! one connection, timing every round trip and checking every answer.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use oasis_core::cert::Rmc;
use oasis_core::{Credential, Crr, PrincipalId, Value};
use oasis_wire::proto::{Request, Response};
use oasis_wire::{WireClient, WireError};

use crate::stats::Rng;
use crate::trace::{Slot, Span, Tracer};

/// Request classes, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `Activate` round trip.
    Issue = 0,
    /// `Invoke` round trip expected to be granted (a read).
    Check = 1,
    /// `Revoke` round trip.
    Revoke = 2,
    /// `Invoke`/`Activate` presenting a credential whose revocation has
    /// already returned: must be denied.
    Probe = 3,
    /// `Ping` round trip (traced runs only).
    Ping = 4,
    /// `Activate` at a relying service, presenting another service's
    /// credential (`revocation` only).
    Dependent = 5,
}

/// Number of request classes.
pub const NCLASSES: usize = 6;

/// Class names, indexed by `Class as usize`.
pub const CLASSES: [&str; NCLASSES] = ["issue", "check", "revoke", "probe", "ping", "dependent"];

impl Class {
    fn span_name(self) -> &'static str {
        [
            "client.issue",
            "client.check",
            "client.revoke",
            "client.probe",
            "client.ping",
            "client.dependent",
        ][self as usize]
    }
}

/// What the answer to a request must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Must be granted.
    Grant,
    /// Must be denied.
    Deny,
    /// Sent while a revocation of its credential was in flight: either
    /// answer is correct.
    Either,
}

impl Expect {
    /// The expectation for a request about `entry`, given the entry's
    /// state read before the send (`before`) and after the reply
    /// (`after`): a revocation that returned before the send forbids a
    /// grant; one not yet sent when the reply arrived forbids a denial.
    pub fn from_states(before: u8, after: u8) -> Self {
        if before == REVOKED {
            Expect::Deny
        } else if after == LIVE {
            Expect::Grant
        } else {
            Expect::Either
        }
    }
}

/// Outcome counts for one generator.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Shed by admission control (`Overloaded`).
    pub shed: u64,
    /// Dropped past their deadline.
    pub expired: u64,
    /// Refused with `NotLeader`.
    pub not_leader: u64,
    /// Transport errors and unexpected replies.
    pub transport: u64,
    /// Denied although they had to be granted.
    pub wrong: u64,
    /// Granted although their credential's revocation had returned.
    pub stale: u64,
    /// Race-window answers that were grants.
    pub race_granted: u64,
    /// Race-window answers that were denials.
    pub race_denied: u64,
}

impl Tally {
    /// Every request that did not get the answer it had to get.
    pub fn failed(&self) -> u64 {
        self.shed + self.expired + self.not_leader + self.transport + self.wrong + self.stale
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.shed += other.shed;
        self.expired += other.expired;
        self.not_leader += other.not_leader;
        self.transport += other.transport;
        self.wrong += other.wrong;
        self.stale += other.stale;
        self.race_granted += other.race_granted;
        self.race_denied += other.race_denied;
    }
}

/// Request ids: the `now` field of every request, unique per process.
static NEXT_REQ: AtomicU64 = AtomicU64::new(1);

/// One generator thread's connection and measurements.
pub struct Gen {
    /// The connection.
    pub client: WireClient,
    /// Round-trip samples per class, answered requests only, as
    /// `(completion time since the phase started, round trip)` in ns.
    pub lat: [Vec<(u64, u64)>; NCLASSES],
    /// Requests sent per class.
    pub sent: [u64; NCLASSES],
    /// Outcomes.
    pub tally: Tally,
    /// Stale or wrong answers seen before measurement started.
    pub setup_violations: u64,
    /// Completed script iterations.
    pub iterations: u64,
    /// Seeded input stream.
    pub rng: Rng,
    trace: Option<(Arc<Tracer>, Arc<Slot>)>,
    sample: Option<(Request, Rmc)>,
    phase_start: Instant,
}

impl Gen {
    /// A generator over `client`, drawing inputs from `rng`, tracing
    /// into `tracer` as thread `index`.
    pub fn new(client: WireClient, rng: Rng, tracer: Option<&Arc<Tracer>>, index: usize) -> Self {
        Self {
            client,
            lat: Default::default(),
            sent: [0; NCLASSES],
            tally: Tally::default(),
            setup_violations: 0,
            iterations: 0,
            rng,
            trace: tracer.map(|t| (Arc::clone(t), t.slot(index))),
            sample: None,
            phase_start: Instant::now(),
        }
    }

    /// Whether this run is traced.
    pub fn traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Starts the measured phase at `at`: forgets warm-up samples and
    /// counts, keeping any correctness violation seen so far.
    pub fn start_measuring(&mut self, at: Instant) {
        self.phase_start = at;
        self.setup_violations += self.tally.stale + self.tally.wrong;
        self.lat = Default::default();
        self.sent = [0; NCLASSES];
        self.tally = Tally::default();
        self.iterations = 0;
    }

    /// Sends one request of `class` through `call`, which receives the
    /// request id to put in the `now` field. Times the round trip and
    /// counts transport-level failures; the caller judges the answer.
    pub fn send<T>(
        &mut self,
        class: Class,
        call: impl FnOnce(&mut WireClient, u64) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let req = NEXT_REQ.fetch_add(1, Ordering::Relaxed);
        let traced = self.trace.as_ref().map(|(tracer, slot)| {
            let span = tracer.new_span_id();
            (span, tracer.begin(slot, req, span))
        });
        let started = Instant::now();
        let result = call(&mut self.client, req);
        let done = Instant::now();
        let elapsed = done.duration_since(started).as_nanos() as u64;
        let offset = done.saturating_duration_since(self.phase_start).as_nanos() as u64;
        self.sent[class as usize] += 1;
        self.tally.attempted += 1;
        match &result {
            Ok(_) | Err(WireError::Remote(_)) => self.lat[class as usize].push((offset, elapsed)),
            Err(WireError::Overloaded { .. }) => self.tally.shed += 1,
            Err(WireError::DeadlineExceeded) => self.tally.expired += 1,
            Err(WireError::NotLeader { .. }) => self.tally.not_leader += 1,
            Err(_) => self.tally.transport += 1,
        }
        if let (Some((tracer, _)), Some((id, start_ns))) = (&self.trace, traced) {
            tracer.record(Span {
                id,
                parent: 0,
                req,
                name: class.span_name(),
                start_ns,
                end_ns: start_ns + elapsed,
            });
        }
        result
    }

    /// Judges an answer: `Ok` is a grant, a remote error a denial, and
    /// any other error was already counted as a failure. Returns the
    /// granted value.
    pub fn judge<T>(&mut self, result: Result<T, WireError>, expect: Expect) -> Option<T> {
        let granted = match &result {
            Ok(_) => true,
            Err(WireError::Remote(_)) => false,
            Err(_) => return None,
        };
        match (expect, granted) {
            (Expect::Grant, false) => self.tally.wrong += 1,
            (Expect::Deny, true) => self.tally.stale += 1,
            (Expect::Either, true) => self.tally.race_granted += 1,
            (Expect::Either, false) => self.tally.race_denied += 1,
            _ => {}
        }
        result.ok()
    }

    /// A `Ping` round trip (interleaved in traced runs).
    pub fn ping(&mut self) {
        let result = self.send(Class::Ping, |c, _| c.ping());
        self.judge(result, Expect::Grant);
    }

    /// An `Activate` round trip. The first one of a traced run is kept
    /// as the run's sample message for the frame-codec timing.
    pub fn activate(
        &mut self,
        class: Class,
        principal: &PrincipalId,
        role: &str,
        args: Vec<Value>,
        credentials: Vec<Credential>,
    ) -> Result<Rmc, WireError> {
        let keep = self.traced() && self.sample.is_none();
        let mut kept = None;
        let result = self.send(class, |c, now| {
            let request = Request::Activate {
                principal: principal.clone(),
                role: role.to_string(),
                args,
                credentials,
                now,
            };
            let reply = match c.call(&request)? {
                Response::Activated { rmc } => Ok(*rmc),
                other => Err(WireError::UnexpectedResponse(format!("{other:?}"))),
            };
            if let (true, Ok(rmc)) = (keep, &reply) {
                kept = Some((request, rmc.clone()));
            }
            reply
        });
        if kept.is_some() {
            self.sample = kept;
        }
        result
    }

    /// An `Invoke` round trip.
    pub fn invoke(
        &mut self,
        class: Class,
        principal: &PrincipalId,
        method: &str,
        args: Vec<Value>,
        credentials: Vec<Credential>,
    ) -> Result<Vec<Crr>, WireError> {
        self.send(class, |c, now| {
            c.invoke(principal, method, args, credentials, now)
        })
    }

    /// A `Revoke` round trip that must find the certificate active.
    /// Returns whether the certificate is now known revoked.
    pub fn revoke(&mut self, cert: u64, reason: &str) -> bool {
        let result = self.send(Class::Revoke, |c, now| c.revoke(cert, reason, now));
        match self.judge(result, Expect::Grant) {
            Some(true) => true,
            Some(false) => {
                self.tally.wrong += 1;
                true
            }
            None => false,
        }
    }

    /// The kept `Activate` request and the credential it returned.
    pub fn sample(&self) -> Option<&(Request, Rmc)> {
        self.sample.as_ref()
    }
}

/// Entry states.
pub const LIVE: u8 = 0;
/// Revocation sent, reply not yet received.
pub const REVOKING: u8 = 1;
/// Revocation returned.
pub const REVOKED: u8 = 2;

/// A credential shared between the churning writer and the reader.
#[derive(Debug)]
pub struct Entry {
    /// Holder.
    pub principal: PrincipalId,
    /// The patient it concerns (empty where none).
    pub patient: String,
    /// The credential.
    pub rmc: Rmc,
    /// [`LIVE`], [`REVOKING`] or [`REVOKED`].
    pub state: AtomicU8,
    /// A credential issued elsewhere on the strength of this one.
    pub dependent: Mutex<Option<Rmc>>,
}

impl Entry {
    /// A live entry.
    pub fn new(principal: PrincipalId, patient: String, rmc: Rmc) -> Arc<Self> {
        Arc::new(Self {
            principal,
            patient,
            rmc,
            state: AtomicU8::new(LIVE),
            dependent: Mutex::new(None),
        })
    }

    /// The current state.
    pub fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }
}

/// Live credentials the reader presents, and recently revoked ones it
/// presents as probes.
#[derive(Debug)]
pub struct Pool {
    live: Vec<Mutex<Arc<Entry>>>,
    revoked: Mutex<VecDeque<Arc<Entry>>>,
}

/// Revoked entries kept for probes.
const REVOKED_KEEP: usize = 64;

impl Pool {
    /// A pool over `entries` live credentials.
    pub fn new(entries: Vec<Arc<Entry>>) -> Self {
        Self {
            live: entries.into_iter().map(Mutex::new).collect(),
            revoked: Mutex::new(VecDeque::new()),
        }
    }

    /// A random live entry.
    pub fn pick(&self, rng: &mut Rng) -> Arc<Entry> {
        let slot = &self.live[rng.below(self.live.len())];
        Arc::clone(&slot.lock().expect("pool poisoned"))
    }

    /// Puts `entry` in slot `i`, returning the entry it replaces.
    pub fn replace(&self, i: usize, entry: Arc<Entry>) -> Arc<Entry> {
        std::mem::replace(&mut *self.live[i].lock().expect("pool poisoned"), entry)
    }

    /// Records a revoked entry for probes.
    pub fn retire(&self, entry: Arc<Entry>) {
        let mut revoked = self.revoked.lock().expect("pool poisoned");
        if revoked.len() == REVOKED_KEEP {
            revoked.pop_front();
        }
        revoked.push_back(entry);
    }

    /// A random revoked entry, if any.
    pub fn pick_revoked(&self, rng: &mut Rng) -> Option<Arc<Entry>> {
        let revoked = self.revoked.lock().expect("pool poisoned");
        if revoked.is_empty() {
            return None;
        }
        Some(Arc::clone(&revoked[rng.below(revoked.len())]))
    }
}

/// One churn step of the writer: issue a fresh credential through
/// `issue`, swap it into a random slot, and revoke the credential it
/// displaced. The displaced entry then serves as a probe.
pub fn churn(gen: &mut Gen, pool: &Pool, issue: impl FnOnce(&mut Gen) -> Option<Arc<Entry>>) {
    let Some(fresh) = issue(gen) else {
        return;
    };
    let slot = gen.rng.below(pool.live.len());
    let old = pool.replace(slot, fresh);
    old.state.store(REVOKING, Ordering::SeqCst);
    let cert = old.rmc.crr.cert_id.0;
    if gen.revoke(cert, "churn") {
        old.state.store(REVOKED, Ordering::SeqCst);
        pool.retire(old);
    }
}

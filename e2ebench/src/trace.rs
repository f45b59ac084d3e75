//! The traced run's instruments: in-memory spans, and decorators that
//! time each layer from outside through its public seam —
//! [`ContextFactory`], [`CredentialValidator`], [`StorageBackend`],
//! [`ReplicationTransport`] and a bus `subscribe_fn`.
//!
//! A span carries the id of the client request that caused it. The
//! client's `now` field is the request id, so the context factory can
//! match a server-side call to its client send. Layers that never see
//! `now` (validator, journal, peer link, bus) are attributed to the
//! request in flight on the generator that drives them (its [`Slot`]).

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use oasis_core::{CertEvent, Credential, CredentialValidator, OasisError, PrincipalId};
use oasis_events::{DeliveredEvent, EventBus};
use oasis_store::{PeerReply, PeerRequest, ReplicationTransport, StorageBackend, StoreError};
use oasis_wire::{ContextFactory, WireTransport};

/// Spans kept per traced run; later spans are counted, not stored.
const MAX_SPANS: usize = 2_000_000;

/// One request in this many has its spans written out (all are kept in
/// memory for the per-layer figures).
pub const SPAN_SAMPLE: u64 = 8;

/// The request a generator thread has in flight.
#[derive(Debug, Default)]
pub struct Slot {
    req: AtomicU64,
    span: AtomicU64,
    sent_ns: AtomicU64,
}

impl Slot {
    fn current(&self) -> (u64, u64) {
        (
            self.req.load(Ordering::SeqCst),
            self.span.load(Ordering::SeqCst),
        )
    }
}

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique span id (> 0).
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// The client request id (the request's `now` field; 0 if none).
    pub req: u64,
    /// Layer boundary, e.g. `client.issue` or `store.append`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Counters recorded at the same boundaries as the spans.
#[derive(Debug, Default)]
pub struct LayerCounts {
    /// Validation callbacks that crossed TCP.
    pub callbacks: AtomicU64,
    /// Journal appends through the replicated region.
    pub appends: AtomicU64,
    /// Bytes in those appends.
    pub append_bytes: AtomicU64,
    /// Peer `Replicate` frames carrying log entries.
    pub peer_replicate: AtomicU64,
    /// Peer `Replicate` frames without entries (heartbeats).
    pub peer_heartbeat: AtomicU64,
    /// Every other peer frame (votes, repair, sync).
    pub peer_other: AtomicU64,
    /// Spans not stored because the buffer was full.
    pub spans_dropped: AtomicU64,
}

/// Span store and counters for one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_span: AtomicU64,
    spans: Mutex<Vec<Span>>,
    slots: Vec<Arc<Slot>>,
    /// Counters.
    pub counts: LayerCounts,
}

thread_local! {
    /// `(request, span)` of the journal append running on this thread,
    /// parent of the peer calls it makes.
    static APPEND_SPAN: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

impl Tracer {
    /// A tracer for `threads` generator threads.
    pub fn new(threads: usize) -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            slots: (0..threads).map(|_| Arc::new(Slot::default())).collect(),
            counts: LayerCounts::default(),
        })
    }

    /// The in-flight slot of generator thread `i`.
    pub fn slot(&self, i: usize) -> Arc<Slot> {
        Arc::clone(&self.slots[i])
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id.
    pub fn new_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Marks `req` (span `span`) as sent by the thread owning `slot`.
    pub fn begin(&self, slot: &Slot, req: u64, span: u64) -> u64 {
        let now = self.now_ns();
        slot.sent_ns.store(now, Ordering::SeqCst);
        slot.span.store(span, Ordering::SeqCst);
        slot.req.store(req, Ordering::SeqCst);
        now
    }

    /// Stores a span.
    pub fn record(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span store poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.counts.spans_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn child(&self, parent: (u64, u64), name: &'static str, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.new_span_id();
        self.record(Span {
            id,
            parent: parent.1,
            req: parent.0,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Forgets the spans and counts recorded so far (the warm-up).
    pub fn clear(&self) {
        self.spans.lock().expect("span store poisoned").clear();
        let c = &self.counts;
        for counter in [
            &c.callbacks,
            &c.appends,
            &c.append_bytes,
            &c.peer_replicate,
            &c.peer_heartbeat,
            &c.peer_other,
            &c.spans_dropped,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// A copy of every stored span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Durations (ns) of the stored spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let spans = self.spans.lock().expect("span store poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    fn on_context(&self, now: u64) {
        let at = self.now_ns();
        for slot in &self.slots {
            let (req, span) = slot.current();
            if req == now {
                let sent = slot.sent_ns.load(Ordering::SeqCst);
                self.child((req, span), "wire.inbound", sent, at);
            }
        }
    }

    /// Writes the spans of every [`SPAN_SAMPLE`]-th request as one JSON
    /// line each, with its self time: its duration minus the part of it
    /// that its children cover.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let spans: Vec<Span> = self
            .spans()
            .into_iter()
            .filter(|s| s.req % SPAN_SAMPLE == 0)
            .collect();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        for s in &spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns,
                s.dur().saturating_sub(covered)
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Wraps a [`ContextFactory`]: the server calls it once per activation
/// or invocation, right before the core decides. The span from the
/// client's send to this call is the inbound wire path.
pub fn traced_context(tracer: Arc<Tracer>, inner: ContextFactory) -> ContextFactory {
    Arc::new(move |now| {
        tracer.on_context(now);
        inner(now)
    })
}

/// Times every call into a [`CredentialValidator`] (the validation
/// callback crossing TCP to the issuer).
pub struct TimedValidator {
    /// The validator that does the work.
    pub inner: Arc<dyn CredentialValidator>,
    /// Where spans go.
    pub tracer: Arc<Tracer>,
    /// The generator whose requests reach this validator.
    pub caller: Arc<Slot>,
}

impl CredentialValidator for TimedValidator {
    fn validate(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        let start = self.tracer.now_ns();
        let result = self.inner.validate(credential, presenter, now);
        let end = self.tracer.now_ns();
        self.tracer.counts.callbacks.fetch_add(1, Ordering::Relaxed);
        self.tracer
            .child(self.caller.current(), "wire.callback", start, end);
        result
    }
}

/// Times appends to the replicated journal region.
pub struct TimedBackend {
    /// The replicated region.
    pub inner: Arc<dyn StorageBackend>,
    /// Where spans go.
    pub tracer: Arc<Tracer>,
    /// The generator whose requests write this journal.
    pub caller: Arc<Slot>,
}

impl StorageBackend for TimedBackend {
    fn read(&self) -> Result<Vec<u8>, StoreError> {
        self.inner.read()
    }

    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let parent = self.caller.current();
        let id = self.tracer.new_span_id();
        let start = self.tracer.now_ns();
        let outer = APPEND_SPAN.with(|c| c.replace((parent.0, id)));
        let result = self.inner.append(bytes);
        APPEND_SPAN.with(|c| c.set(outer));
        let end = self.tracer.now_ns();
        self.tracer.record(Span {
            id,
            parent: parent.1,
            req: parent.0,
            name: "store.append",
            start_ns: start,
            end_ns: end,
        });
        let counts = &self.tracer.counts;
        counts.appends.fetch_add(1, Ordering::Relaxed);
        counts
            .append_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        result
    }

    fn replace(&self, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.replace(bytes)
    }
}

/// Subscribes a probe on `bus` that marks every revocation delivery as
/// a point span of the request in flight on `caller`. Delivery order
/// across subscribers is unspecified, so the fan-out's end is taken
/// afterwards as the last delivery or journal append of the request.
pub fn subscribe_deliveries(tracer: &Arc<Tracer>, bus: &EventBus<CertEvent>, caller: Arc<Slot>) {
    let tracer = Arc::clone(tracer);
    bus.subscribe_fn("cred.revoked.#", move |_: &DeliveredEvent<CertEvent>| {
        let at = tracer.now_ns();
        tracer.child(caller.current(), "events.delivery", at, at);
    })
    .expect("static pattern is valid");
}

/// What [`cascades`] gathers about one request.
#[derive(Default)]
struct Fanout {
    revoke: bool,
    /// `(start, end)` of the request's first journal append.
    first_append: Option<(u64, u64)>,
    /// End of its last journal append or bus delivery.
    last_end: u64,
}

/// Fan-out time (ns) of every revoke that journalled: from the end of
/// its first journal append (the revocation record) to the last bus
/// delivery or journal append of the same request.
pub fn cascades(spans: &[Span]) -> Vec<u64> {
    let mut by_req: HashMap<u64, Fanout> = HashMap::new();
    for s in spans {
        let req = by_req.entry(s.req).or_default();
        match s.name {
            "client.revoke" => req.revoke = true,
            "store.append" => {
                if req.first_append.is_none_or(|(start, _)| s.start_ns < start) {
                    req.first_append = Some((s.start_ns, s.end_ns));
                }
                req.last_end = req.last_end.max(s.end_ns);
            }
            "events.delivery" => req.last_end = req.last_end.max(s.end_ns),
            _ => {}
        }
    }
    by_req
        .values()
        .filter(|req| req.revoke)
        .filter_map(|req| {
            let (_, appended) = req.first_append?;
            Some(req.last_end.saturating_sub(appended))
        })
        .collect()
}

/// The replica nodes' [`ReplicationTransport`]: TCP peer links through
/// [`WireTransport`], timed when traced. The directory is installed
/// after every server has bound its port, and [`PeerLink::cut`] drops
/// the links so a retired cluster stops talking.
pub struct PeerLink {
    inner: RwLock<Option<WireTransport>>,
    tracer: Option<Arc<Tracer>>,
}

impl PeerLink {
    /// An unconnected link.
    pub fn new(tracer: Option<Arc<Tracer>>) -> Self {
        Self {
            inner: RwLock::new(None),
            tracer,
        }
    }

    /// Connects the link to its peers.
    pub fn install(&self, transport: WireTransport) {
        *self.inner.write().expect("poisoned") = Some(transport);
    }

    /// Drops the peer connections; every later call fails.
    pub fn cut(&self) {
        self.inner.write().expect("poisoned").take();
    }
}

impl ReplicationTransport for PeerLink {
    fn call(&self, peer: &str, req: &PeerRequest) -> Result<PeerReply, StoreError> {
        let guard = self.inner.read().expect("poisoned");
        let Some(transport) = guard.as_ref() else {
            return Err(StoreError::Io("link cut".into()));
        };
        let Some(tracer) = &self.tracer else {
            return transport.call(peer, req);
        };
        let start = tracer.now_ns();
        let result = transport.call(peer, req);
        let end = tracer.now_ns();
        let (name, counter) = match req {
            PeerRequest::Replicate { entries, .. } if entries.is_empty() => {
                ("peer.heartbeat", &tracer.counts.peer_heartbeat)
            }
            PeerRequest::Replicate { .. } => ("peer.replicate", &tracer.counts.peer_replicate),
            _ => ("peer.other", &tracer.counts.peer_other),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        tracer.child(APPEND_SPAN.with(Cell::get), name, start, end);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut c = vec![(10, 20), (15, 30), (40, 50), (95, 120)];
        assert_eq!(covered_ns(&mut c, 0, 100), 20 + 10 + 5);
    }
}

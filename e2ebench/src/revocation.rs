//! `revocation` (Fig 5, writes beside reads): `login` journals to a
//! three-node replicated CIV, each node a server with a replica over
//! TCP peer links. A relying `records` service shares the leader's bus
//! and its roles depend on `logged_in`. The writer churns login and
//! revoke at the leader; each revoke is a quorum append plus a fan-out
//! that collapses dependents. The reader activates and checks dependent
//! roles at `records`, and probes with collapsed ones.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use oasis_core::cert::Rmc;
use oasis_core::{
    Atom, Credential, EnvContext, LocalRegistry, OasisService, PrincipalId, RoleName,
    ServiceConfig, ServiceJournal, Term, Value, ValueType,
};
use oasis_crypto::{IssuerSecret, SecretKey};
use oasis_events::EventBus;
use oasis_facts::FactStore;
use oasis_store::{ReplicaConfig, ReplicaNode, StorageBackend};
use oasis_wire::{ContextFactory, WireClient, WireServer, WireTransport};

use crate::gen::{churn, Class, Entry, Expect, Gen, Pool};
use crate::session::{doctor, DOCTORS};
use crate::stats::Rng;
use crate::trace::{subscribe_deliveries, traced_context, PeerLink, TimedBackend, Tracer};
use crate::{elapsed_ns, timeouts, verify_ns, CoreTimings, Counters, World, POOL};

/// Replica nodes in the CIV.
pub const NODES: usize = 3;

/// The issuing service on one replica. Every replica holds the same
/// issuing key, so a promoted node would honour outstanding
/// certificates.
fn login(journal: Option<ServiceJournal>) -> Arc<OasisService> {
    let facts = Arc::new(FactStore::new());
    facts.define("password_ok", 1).expect("fresh relation");
    for d in 0..DOCTORS {
        facts
            .insert("password_ok", vec![Value::id(doctor(d))])
            .expect("defined");
    }
    let mut config = ServiceConfig::new("login")
        .with_secret(IssuerSecret::from_key(SecretKey::from_bytes([9; 32])));
    if let Some(journal) = journal {
        config = config.with_journal(journal);
    }
    let svc = OasisService::new(config, facts);
    svc.define_role("logged_in", &[("u", ValueType::Id)], true)
        .expect("role");
    svc.add_activation_rule(
        "logged_in",
        vec![Term::var("U")],
        vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
        vec![0],
    )
    .expect("rule");
    svc
}

/// The relying service on `bus`: `clinician(U)` retains `login`'s
/// `logged_in(U)`, and `read_chart(U)` needs `clinician(U)`.
fn records(bus: EventBus<oasis_core::CertEvent>, issuer: &Arc<OasisService>) -> Arc<OasisService> {
    let svc = OasisService::new(
        ServiceConfig::new("records").with_bus(bus),
        Arc::new(FactStore::new()),
    );
    let registry = LocalRegistry::new();
    registry.register(issuer);
    svc.set_validator(Arc::new(registry));
    svc.define_role("clinician", &[("u", ValueType::Id)], false)
        .expect("role");
    svc.add_activation_rule(
        "clinician",
        vec![Term::var("U")],
        vec![Atom::prereq_at("login", "logged_in", vec![Term::var("U")])],
        vec![0],
    )
    .expect("rule");
    svc.add_invocation_rule(
        "read_chart",
        vec![Term::var("U")],
        vec![Atom::prereq("clinician", vec![Term::var("U")])],
    );
    svc
}

/// The CIV cluster, the relying service and the credential pool.
pub struct Revocation {
    nodes: Vec<Arc<ReplicaNode>>,
    links: Vec<Arc<PeerLink>>,
    leader: usize,
    logins: Vec<Arc<OasisService>>,
    records: Arc<OasisService>,
    addrs: Vec<SocketAddr>,
    records_addr: SocketAddr,
    pool: OnceLock<Pool>,
    /// Logins the reader has not yet given a dependent.
    fresh: Mutex<VecDeque<Arc<Entry>>>,
}

impl Revocation {
    /// Builds the cluster, waits for its first leader and serves
    /// `records` beside it.
    pub fn build(tracer: Option<&Arc<Tracer>>) -> Self {
        let ids: Vec<String> = (0..NODES).map(|i| format!("civ{i}")).collect();
        let mut nodes = Vec::new();
        let mut links = Vec::new();
        let mut logins = Vec::new();
        let mut addrs = Vec::new();
        for id in &ids {
            let peers = ids.iter().filter(|p| *p != id).cloned().collect();
            let link = Arc::new(PeerLink::new(tracer.cloned()));
            let node = Arc::new(ReplicaNode::new(
                ReplicaConfig::new(id.clone(), peers, id.clone()),
                Arc::clone(&link) as _,
            ));
            let mut journal: Arc<dyn StorageBackend> = Arc::new(node.replicated("journal"));
            if let Some(tracer) = tracer {
                journal = Arc::new(TimedBackend {
                    inner: journal,
                    tracer: Arc::clone(tracer),
                    caller: tracer.slot(0),
                });
            }
            let snapshot: Arc<dyn StorageBackend> = Arc::new(node.replicated("snapshot"));
            let store = ServiceJournal::open(journal, snapshot).expect("replicated journal opens");
            let service = login(Some(store));
            let addr =
                WireServer::bind_with_context(Arc::clone(&service), "127.0.0.1:0", context(tracer))
                    .expect("bind loopback")
                    .with_replica(Arc::clone(&node))
                    .serve_in_background()
                    .expect("serve");
            nodes.push(node);
            links.push(link);
            logins.push(service);
            addrs.push(addr);
        }
        for (i, link) in links.iter().enumerate() {
            let directory = ids
                .iter()
                .zip(&addrs)
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, (id, addr))| (id.clone(), *addr));
            link.install(WireTransport::new(directory));
        }
        let leader = await_leader(&nodes);
        let records = records(logins[leader].bus().clone(), &logins[leader]);
        let records_addr =
            WireServer::bind_with_context(Arc::clone(&records), "127.0.0.1:0", context(tracer))
                .expect("bind loopback")
                .serve_in_background()
                .expect("serve");
        if let Some(tracer) = tracer {
            subscribe_deliveries(tracer, logins[leader].bus(), tracer.slot(0));
        }
        Self {
            nodes,
            links,
            leader,
            logins,
            records,
            addrs,
            records_addr,
            pool: OnceLock::new(),
            fresh: Mutex::new(VecDeque::new()),
        }
    }

    fn pool(&self) -> &Pool {
        self.pool.get().expect("pool prepared")
    }

    /// Logs a user in and queues the login for its dependent.
    fn login(&self, gen: &mut Gen) -> Option<Arc<Entry>> {
        let entry = issue(gen)?;
        self.fresh
            .lock()
            .expect("poisoned")
            .push_back(Arc::clone(&entry));
        Some(entry)
    }

    /// Activates `clinician` at `records` on `entry`'s login and keeps
    /// it as the entry's dependent.
    fn depend(&self, gen: &mut Gen, entry: &Entry) {
        let before = entry.state();
        let rmc = activate_clinician(gen, Class::Dependent, entry);
        let rmc = gen.judge(rmc, Expect::from_states(before, entry.state()));
        *entry.dependent.lock().expect("poisoned") = rmc;
    }
}

fn context(tracer: Option<&Arc<Tracer>>) -> ContextFactory {
    let context: ContextFactory = Arc::new(EnvContext::new);
    match tracer {
        Some(tracer) => traced_context(Arc::clone(tracer), context),
        None => context,
    }
}

/// Waits until exactly one node leads; returns its index.
fn await_leader(nodes: &[Arc<ReplicaNode>]) -> usize {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let leaders: Vec<usize> = (0..nodes.len()).filter(|&i| nodes[i].is_leader()).collect();
        if let [one] = leaders.as_slice() {
            return *one;
        }
        assert!(Instant::now() < deadline, "no CIV leader within 20 s");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Logs a random user in at the leader.
fn issue(gen: &mut Gen) -> Option<Arc<Entry>> {
    let d = gen.rng.below(DOCTORS);
    let user = PrincipalId::new(doctor(d));
    let rmc = gen.activate(
        Class::Issue,
        &user,
        "logged_in",
        vec![Value::id(doctor(d))],
        vec![],
    );
    let rmc = gen.judge(rmc, Expect::Grant)?;
    Some(Entry::new(user, String::new(), rmc))
}

fn read_chart(
    gen: &mut Gen,
    class: Class,
    user: &PrincipalId,
    cred: Credential,
) -> Result<Vec<oasis_core::Crr>, oasis_wire::WireError> {
    gen.invoke(
        class,
        user,
        "read_chart",
        vec![Value::id(user.as_str())],
        vec![cred],
    )
}

fn activate_clinician(
    gen: &mut Gen,
    class: Class,
    entry: &Entry,
) -> Result<Rmc, oasis_wire::WireError> {
    gen.activate(
        class,
        &entry.principal,
        "clinician",
        vec![Value::id(entry.principal.as_str())],
        vec![Credential::Rmc(entry.rmc.clone())],
    )
}

impl World for Revocation {
    fn connect(&self, thread: usize) -> WireClient {
        let addr = [self.addrs[self.leader], self.records_addr][thread];
        WireClient::connect_with(addr, timeouts()).expect("connect")
    }

    fn prepare(&self, gens: &mut [Gen]) {
        let entries: Vec<Arc<Entry>> = (0..POOL)
            .map(|_| issue(&mut gens[0]).expect("pre-issue logged_in"))
            .collect();
        for entry in &entries {
            self.depend(&mut gens[1], entry);
        }
        let pool = self.pool.get_or_init(|| Pool::new(entries));
        for _ in 0..POOL {
            churn(&mut gens[0], pool, |gen| self.login(gen));
        }
    }

    fn step(&self, thread: usize, gen: &mut Gen) {
        let pool = self.pool();
        if thread == 0 {
            if gen.traced() {
                gen.ping();
            }
            churn(gen, pool, |gen| self.login(gen));
            gen.iterations += 1;
            return;
        }
        // Every login gets one dependent, as soon as the reader sees it,
        // so each revocation collapses about one certificate at records.
        let fresh: Vec<Arc<Entry>> = self.fresh.lock().expect("poisoned").drain(..).collect();
        for entry in &fresh {
            self.depend(gen, entry);
        }
        for _ in 0..3 {
            let entry = pool.pick(&mut gen.rng);
            let before = entry.state();
            let dependent = entry.dependent.lock().expect("poisoned").clone();
            // A login whose dependent activation raced its revocation
            // has none; the read then presents the login alone, which
            // the rule refuses.
            let (cred, expect) = match dependent {
                Some(rmc) => (Credential::Rmc(rmc), None),
                None => (Credential::Rmc(entry.rmc.clone()), Some(Expect::Deny)),
            };
            let read = read_chart(gen, Class::Check, &entry.principal, cred);
            let expect = expect.unwrap_or_else(|| Expect::from_states(before, entry.state()));
            gen.judge(read, expect);
        }
        if let Some(revoked) = pool.pick_revoked(&mut gen.rng) {
            let dependent = revoked.dependent.lock().expect("poisoned").clone();
            let probe = match dependent {
                Some(rmc) => {
                    read_chart(gen, Class::Probe, &revoked.principal, Credential::Rmc(rmc))
                }
                None => activate_clinician(gen, Class::Probe, &revoked).map(|_| Vec::new()),
            };
            gen.judge(probe, Expect::Deny);
        }
        gen.iterations += 1;
    }

    fn counters(&self) -> Counters {
        let leader = &self.logins[self.leader];
        let mut c = Counters::of_services(&[leader, &self.records], leader.bus());
        for node in &self.nodes {
            let s = node.stats();
            c.commits += s.committed;
            c.elections += s.elections_started;
            c.no_quorum += s.no_quorum;
        }
        c
    }

    fn retire(&self) {
        for link in &self.links {
            link.cut();
        }
    }

    fn twin(&self, seed: u64, iterations: usize) -> CoreTimings {
        let issuer = login(None);
        let relying = records(issuer.bus().clone(), &issuer);
        let key = issuer.secret().current();
        let mut rng = Rng::new(seed, 0);
        let mut t = CoreTimings::default();
        for i in 0..iterations as u64 {
            let ctx = EnvContext::new(i);
            let d = rng.below(DOCTORS);
            let user = PrincipalId::new(doctor(d));
            let args = [Value::id(doctor(d))];
            let started = Instant::now();
            let rmc = issuer
                .activate_role(&user, &RoleName::new("logged_in"), &args, &[], &ctx)
                .expect("twin login");
            t.decide_issue.push(elapsed_ns(started));
            let cred = Credential::Rmc(rmc);
            let started = Instant::now();
            issuer.validate_own(&cred, &user, i).expect("twin validate");
            t.validate.push(elapsed_ns(started));
            t.verify.push(verify_ns(&cred, &key, &user));
            let started = Instant::now();
            let clinician = relying
                .activate_role(
                    &user,
                    &RoleName::new("clinician"),
                    &args,
                    std::slice::from_ref(&cred),
                    &ctx,
                )
                .expect("twin clinician");
            t.decide_issue.push(elapsed_ns(started));
            let presented = [Credential::Rmc(clinician)];
            for _ in 0..3 {
                let started = Instant::now();
                relying
                    .invoke(&user, "read_chart", &args, &presented, &ctx)
                    .expect("twin read_chart");
                t.decide_check.push(elapsed_ns(started));
            }
            issuer.revoke_certificate(cred.crr().cert_id, "churn", i);
        }
        t
    }
}

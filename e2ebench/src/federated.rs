//! `federated` (Fig 3): `hospital.records` and `national.ehr` each
//! behind their own server. National validates every presented
//! certificate by a callback over TCP to the hospital and keeps no
//! validation cache. One generator churns `treating_doctor` issue and
//! revoke at the hospital; the other calls `request_ehr` at national
//! with the current credentials, and with revoked ones as probes.

use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use oasis_core::{
    Atom, Credential, CredentialValidator, EnvContext, LocalRegistry, OasisError, OasisService,
    PrincipalId, RoleName, ServiceConfig, Term, Value, ValueType,
};
use oasis_crypto::SecretKey;
use oasis_facts::FactStore;
use oasis_wire::{ContextFactory, RemoteValidator, WireClient, WireServer};

use crate::gen::{churn, Class, Entry, Expect, Gen, Pool};
use crate::session::{doctor, patient, DOCTORS, PER_DOCTOR};
use crate::stats::Rng;
use crate::trace::{traced_context, TimedValidator, Tracer};
use crate::{elapsed_ns, timeouts, verify_ns, CoreTimings, Counters, World, POOL};

const ISSUER: &str = "hospital.records";

/// The hospital side: `treating_doctor(D, P)` on a registration fact.
fn records() -> Arc<OasisService> {
    let facts = Arc::new(FactStore::new());
    facts.define("registered", 2).expect("fresh relation");
    for d in 0..DOCTORS {
        for j in 0..PER_DOCTOR {
            facts
                .insert(
                    "registered",
                    vec![Value::id(doctor(d)), Value::id(patient(d, j))],
                )
                .expect("defined");
        }
    }
    let svc = OasisService::new(ServiceConfig::new(ISSUER), facts);
    svc.define_role(
        "treating_doctor",
        &[("d", ValueType::Id), ("p", ValueType::Id)],
        true,
    )
    .expect("role");
    svc.add_activation_rule(
        "treating_doctor",
        vec![Term::var("D"), Term::var("P")],
        vec![Atom::env_fact(
            "registered",
            vec![Term::var("D"), Term::var("P")],
        )],
        vec![0],
    )
    .expect("rule");
    svc
}

/// The national side: `request_ehr(P)` needs the hospital's
/// `treating_doctor(_, P)`.
fn ehr() -> Arc<OasisService> {
    let svc = OasisService::new(
        ServiceConfig::new("national.ehr"),
        Arc::new(FactStore::new()),
    );
    svc.add_invocation_rule(
        "request_ehr",
        vec![Term::var("P")],
        vec![Atom::prereq_at(
            ISSUER,
            "treating_doctor",
            vec![Term::Wildcard, Term::var("P")],
        )],
    );
    svc
}

/// A validator that checks the issuer's signature but not whether the
/// certificate was revoked. It exists only to show that the benchmark's
/// stale-acceptance check fires.
pub struct IgnoresRevocation {
    key: SecretKey,
}

impl CredentialValidator for IgnoresRevocation {
    fn validate(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        _now: u64,
    ) -> Result<(), OasisError> {
        if credential.verify(&self.key, presenter) {
            Ok(())
        } else {
            Err(OasisError::InvalidCredential {
                crr: credential.crr().clone(),
                reason: "bad signature".into(),
            })
        }
    }
}

/// The two networked domains and the shared credential pool.
pub struct Federated {
    hospital: Arc<OasisService>,
    national: Arc<OasisService>,
    hospital_addr: SocketAddr,
    national_addr: SocketAddr,
    pool: OnceLock<Pool>,
}

fn serve(service: &Arc<OasisService>, tracer: Option<&Arc<Tracer>>) -> SocketAddr {
    let mut context: ContextFactory = Arc::new(EnvContext::new);
    if let Some(tracer) = tracer {
        context = traced_context(Arc::clone(tracer), context);
    }
    WireServer::bind_with_context(Arc::clone(service), "127.0.0.1:0", context)
        .expect("bind loopback")
        .serve_in_background()
        .expect("serve")
}

impl Federated {
    /// Builds and serves both domains. With `ignore_revocation`,
    /// national validates with [`IgnoresRevocation`] instead of the
    /// callback.
    pub fn build(tracer: Option<&Arc<Tracer>>, ignore_revocation: bool) -> Self {
        let hospital = records();
        let national = ehr();
        let hospital_addr = serve(&hospital, tracer);
        let national_addr = serve(&national, tracer);
        let validator: Arc<dyn CredentialValidator> = if ignore_revocation {
            Arc::new(IgnoresRevocation {
                key: hospital.secret().current(),
            })
        } else {
            let remote = RemoteValidator::new().with_timeouts(timeouts());
            remote.add_issuer(ISSUER, hospital_addr);
            Arc::new(remote)
        };
        national.set_validator(match tracer {
            Some(tracer) => Arc::new(TimedValidator {
                inner: validator,
                tracer: Arc::clone(tracer),
                caller: tracer.slot(1),
            }),
            None => validator,
        });
        Self {
            hospital,
            national,
            hospital_addr,
            national_addr,
            pool: OnceLock::new(),
        }
    }

    fn pool(&self) -> &Pool {
        self.pool.get().expect("pool prepared")
    }
}

/// Issues `treating_doctor` for a random registered pair.
fn issue(gen: &mut Gen) -> Option<Arc<Entry>> {
    let d = gen.rng.below(DOCTORS);
    let p = patient(d, gen.rng.below(PER_DOCTOR));
    let dr = PrincipalId::new(doctor(d));
    let args = vec![Value::id(doctor(d)), Value::id(p.clone())];
    let rmc = gen.activate(Class::Issue, &dr, "treating_doctor", args, vec![]);
    let rmc = gen.judge(rmc, Expect::Grant)?;
    Some(Entry::new(dr, p, rmc))
}

impl World for Federated {
    fn connect(&self, thread: usize) -> WireClient {
        let addr = [self.hospital_addr, self.national_addr][thread];
        WireClient::connect_with(addr, timeouts()).expect("connect")
    }

    fn prepare(&self, gens: &mut [Gen]) {
        let writer = &mut gens[0];
        let entries = (0..POOL)
            .map(|_| issue(writer).expect("pre-issue treating_doctor"))
            .collect();
        let pool = self.pool.get_or_init(|| Pool::new(entries));
        for _ in 0..POOL {
            churn(writer, pool, issue);
        }
    }

    fn step(&self, thread: usize, gen: &mut Gen) {
        let pool = self.pool();
        if thread == 0 {
            if gen.traced() {
                gen.ping();
            }
            churn(gen, pool, issue);
        } else {
            for _ in 0..3 {
                let entry = pool.pick(&mut gen.rng);
                let before = entry.state();
                let read = request_ehr(gen, Class::Check, &entry);
                gen.judge(read, Expect::from_states(before, entry.state()));
            }
            if let Some(entry) = pool.pick_revoked(&mut gen.rng) {
                let read = request_ehr(gen, Class::Probe, &entry);
                gen.judge(read, Expect::Deny);
            }
        }
        gen.iterations += 1;
    }

    fn counters(&self) -> Counters {
        Counters::of_services(&[&self.hospital, &self.national], self.hospital.bus())
    }

    fn retire(&self) {
        // Drops national's callback connection to the hospital.
        self.national.set_validator(Arc::new(LocalRegistry::new()));
    }

    fn twin(&self, seed: u64, iterations: usize) -> CoreTimings {
        let svc = records();
        let national = ehr();
        let registry = LocalRegistry::new();
        registry.register(&svc);
        national.set_validator(Arc::new(registry));
        let key = svc.secret().current();
        let mut rng = Rng::new(seed, 0);
        let mut t = CoreTimings::default();
        for i in 0..iterations as u64 {
            let d = rng.below(DOCTORS);
            let p = patient(d, rng.below(PER_DOCTOR));
            let dr = PrincipalId::new(doctor(d));
            let args = [Value::id(doctor(d)), Value::id(p.clone())];
            let started = Instant::now();
            let rmc = svc
                .activate_role(
                    &dr,
                    &RoleName::new("treating_doctor"),
                    &args,
                    &[],
                    &EnvContext::new(i),
                )
                .expect("twin issue");
            t.decide_issue.push(elapsed_ns(started));
            let cred = Credential::Rmc(rmc);
            let presented = [cred.clone()];
            for _ in 0..3 {
                let started = Instant::now();
                national
                    .invoke(
                        &dr,
                        "request_ehr",
                        &[Value::id(p.clone())],
                        &presented,
                        &EnvContext::new(i),
                    )
                    .expect("twin request_ehr");
                t.decide_check.push(elapsed_ns(started));
                let started = Instant::now();
                svc.validate_own(&cred, &dr, i).expect("twin validate");
                t.validate.push(elapsed_ns(started));
                t.verify.push(verify_ns(&cred, &key, &dr));
            }
            svc.revoke_certificate(cred.crr().cert_id, "churn", i);
        }
        t
    }
}

fn request_ehr(
    gen: &mut Gen,
    class: Class,
    entry: &Entry,
) -> Result<Vec<oasis_core::Crr>, oasis_wire::WireError> {
    gen.invoke(
        class,
        &entry.principal,
        "request_ehr",
        vec![Value::id(entry.patient.clone())],
        vec![Credential::Rmc(entry.rmc.clone())],
    )
}

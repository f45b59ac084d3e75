//! `session` (Fig 1/2): one hospital service. A session is a login by
//! environmental fact, a three-deep prerequisite chain where each step
//! presents the previous certificate, four gated reads, and a logout
//! that collapses the chain in-process. No callback, journal or quorum
//! runs here.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use oasis_core::{
    Atom, Credential, EnvContext, OasisService, PrincipalId, RoleName, ServiceConfig, Term, Value,
    ValueType,
};
use oasis_facts::FactStore;
use oasis_wire::{ContextFactory, WireClient, WireServer};

use crate::gen::{Class, Expect, Gen};
use crate::stats::Rng;
use crate::trace::{traced_context, Tracer};
use crate::{elapsed_ns, timeouts, verify_ns, CoreTimings, Counters, World};

/// Doctors able to log in.
pub const DOCTORS: usize = 64;
/// Patients.
pub const PATIENTS: usize = 256;
/// Patients assigned to each doctor.
pub const PER_DOCTOR: usize = 8;

/// The chain after login: role, and whether it names the patient.
const CHAIN: [(&str, bool); 3] = [
    ("doctor", false),
    ("on_duty", false),
    ("treating_doctor", true),
];

/// Doctor `d`'s id.
pub fn doctor(d: usize) -> String {
    format!("dr-{d}")
}

/// The `j`-th patient assigned to doctor `d`.
pub fn patient(d: usize, j: usize) -> String {
    format!("p-{}", (d * PER_DOCTOR + j * 37) % PATIENTS)
}

/// The hospital: `logged_in` by password fact, then `doctor`,
/// `on_duty` and `treating_doctor`, each requiring the previous role
/// as a retained prerequisite, and `read_record` gated on
/// `treating_doctor`.
pub fn hospital() -> Arc<OasisService> {
    let facts = Arc::new(FactStore::new());
    for (relation, arity) in [
        ("password_ok", 1),
        ("licensed", 1),
        ("on_shift", 1),
        ("assigned", 2),
    ] {
        facts.define(relation, arity).expect("fresh relation");
    }
    for d in 0..DOCTORS {
        let dr = Value::id(doctor(d));
        for relation in ["password_ok", "licensed", "on_shift"] {
            facts.insert(relation, vec![dr.clone()]).expect("defined");
        }
        for j in 0..PER_DOCTOR {
            facts
                .insert("assigned", vec![dr.clone(), Value::id(patient(d, j))])
                .expect("defined");
        }
    }
    let svc = OasisService::new(ServiceConfig::new("hospital"), facts);
    let u = || Term::var("U");
    svc.define_role("logged_in", &[("u", ValueType::Id)], true)
        .expect("role");
    svc.add_activation_rule(
        "logged_in",
        vec![u()],
        vec![Atom::env_fact("password_ok", vec![u()])],
        vec![0],
    )
    .expect("rule");
    let mut previous = "logged_in";
    for (role, fact) in [("doctor", "licensed"), ("on_duty", "on_shift")] {
        svc.define_role(role, &[("u", ValueType::Id)], false)
            .expect("role");
        svc.add_activation_rule(
            role,
            vec![u()],
            vec![
                Atom::prereq(previous, vec![u()]),
                Atom::env_fact(fact, vec![u()]),
            ],
            vec![0],
        )
        .expect("rule");
        previous = role;
    }
    svc.define_role(
        "treating_doctor",
        &[("u", ValueType::Id), ("p", ValueType::Id)],
        false,
    )
    .expect("role");
    svc.add_activation_rule(
        "treating_doctor",
        vec![u(), Term::var("P")],
        vec![
            Atom::prereq("on_duty", vec![u()]),
            Atom::env_fact("assigned", vec![u(), Term::var("P")]),
        ],
        vec![0, 1],
    )
    .expect("rule");
    svc.add_invocation_rule(
        "read_record",
        vec![Term::var("P")],
        vec![Atom::prereq(
            "treating_doctor",
            vec![Term::Wildcard, Term::var("P")],
        )],
    );
    svc
}

/// The networked hospital.
pub struct Session {
    service: Arc<OasisService>,
    addr: SocketAddr,
}

impl Session {
    /// Builds the hospital and serves it on a loopback port.
    pub fn build(tracer: Option<&Arc<Tracer>>) -> Self {
        let service = hospital();
        let mut context: ContextFactory = Arc::new(EnvContext::new);
        if let Some(tracer) = tracer {
            context = traced_context(Arc::clone(tracer), context);
        }
        let addr = WireServer::bind_with_context(Arc::clone(&service), "127.0.0.1:0", context)
            .expect("bind loopback")
            .serve_in_background()
            .expect("serve");
        Self { service, addr }
    }
}

impl World for Session {
    fn connect(&self, _thread: usize) -> WireClient {
        WireClient::connect_with(self.addr, timeouts()).expect("connect to hospital")
    }

    fn prepare(&self, _gens: &mut [Gen]) {}

    fn step(&self, _thread: usize, gen: &mut Gen) {
        if gen.traced() {
            gen.ping();
        }
        let d = gen.rng.below(DOCTORS);
        let p = patient(d, gen.rng.below(PER_DOCTOR));
        let dr = PrincipalId::new(doctor(d));
        let login = gen.activate(
            Class::Issue,
            &dr,
            "logged_in",
            vec![Value::id(doctor(d))],
            vec![],
        );
        let Some(login) = gen.judge(login, Expect::Grant) else {
            return;
        };
        let mut held = login.clone();
        for (role, with_patient) in CHAIN {
            let mut args = vec![Value::id(doctor(d))];
            if with_patient {
                args.push(Value::id(p.clone()));
            }
            let presented = vec![Credential::Rmc(held.clone())];
            let next = gen.activate(Class::Issue, &dr, role, args, presented);
            let Some(next) = gen.judge(next, Expect::Grant) else {
                return;
            };
            held = next;
        }
        let treating = vec![Credential::Rmc(held)];
        for _ in 0..4 {
            let read = gen.invoke(
                Class::Check,
                &dr,
                "read_record",
                vec![Value::id(p.clone())],
                treating.clone(),
            );
            gen.judge(read, Expect::Grant);
        }
        if !gen.revoke(login.crr.cert_id.0, "logout") {
            return;
        }
        let after = gen.invoke(
            Class::Probe,
            &dr,
            "read_record",
            vec![Value::id(p)],
            treating,
        );
        gen.judge(after, Expect::Deny);
        gen.iterations += 1;
    }

    fn counters(&self) -> Counters {
        Counters::of_services(&[&self.service], self.service.bus())
    }

    fn retire(&self) {}

    fn twin(&self, seed: u64, iterations: usize) -> CoreTimings {
        let svc = hospital();
        let key = svc.secret().current();
        let mut rng = Rng::new(seed, 0);
        let mut t = CoreTimings::default();
        for i in 0..iterations as u64 {
            let ctx = EnvContext::new(i);
            let d = rng.below(DOCTORS);
            let p = patient(d, rng.below(PER_DOCTOR));
            let dr = PrincipalId::new(doctor(d));
            let started = Instant::now();
            let login = svc
                .activate_role(
                    &dr,
                    &RoleName::new("logged_in"),
                    &[Value::id(doctor(d))],
                    &[],
                    &ctx,
                )
                .expect("twin login");
            t.decide_issue.push(elapsed_ns(started));
            let mut held = login.clone();
            for (role, with_patient) in CHAIN {
                let mut args = vec![Value::id(doctor(d))];
                if with_patient {
                    args.push(Value::id(p.clone()));
                }
                let presented = [Credential::Rmc(held.clone())];
                let started = Instant::now();
                held = svc
                    .activate_role(&dr, &RoleName::new(role), &args, &presented, &ctx)
                    .expect("twin chain");
                t.decide_issue.push(elapsed_ns(started));
            }
            let treating = [Credential::Rmc(held)];
            for _ in 0..4 {
                let started = Instant::now();
                svc.invoke(&dr, "read_record", &[Value::id(p.clone())], &treating, &ctx)
                    .expect("twin read");
                t.decide_check.push(elapsed_ns(started));
                let started = Instant::now();
                svc.validate_own(&treating[0], &dr, i)
                    .expect("twin validate");
                t.validate.push(elapsed_ns(started));
                t.verify.push(verify_ns(&treating[0], &key, &dr));
            }
            svc.revoke_certificate(login.crr.cert_id, "logout", i);
        }
        t
    }
}

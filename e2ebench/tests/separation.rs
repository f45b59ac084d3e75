//! The benchmark's own checks: each workload exercises the layers it is
//! meant to and leaves the others idle, its exact counts hold their
//! identities, and the stale-acceptance check fires when revocation is
//! ignored.

use oasis_e2ebench::{run, Options, Report, Workload};

fn brief(workload: Workload, seed: u64, trace: bool) -> Report {
    let mut opts = Options::new(workload, seed);
    opts.seconds = 0.6;
    opts.trace = trace;
    opts.setups = 1;
    opts.warmup = 20;
    run(&opts)
}

fn count(report: &Report, name: &str) -> u64 {
    report
        .count(name)
        .unwrap_or_else(|| panic!("count {name} reported"))
}

#[test]
fn idle_layers_stay_idle_and_counts_hold() {
    for seed in [3, 17] {
        for workload in Workload::ALL {
            let r = brief(workload, seed, true);
            let what = format!("{} seed {seed}", workload.name());
            assert!(r.correct, "{what}: {:?}", r.tally);
            assert_eq!(r.failed, 0, "{what}: {:?}", r.tally);
            let callbacks = count(&r, "wire.callbacks");
            let appends = count(&r, "store.journal_appends");
            let elections = count(&r, "store.elections_total");
            let issue = count(&r, "requests.issue");
            let check = count(&r, "requests.check");
            let revoke = count(&r, "requests.revoke");
            let probe = count(&r, "requests.probe");
            let deliveries = count(&r, "bus.deliveries");
            assert!(revoke > 0 && check > 0 && probe > 0, "{what}: ran");
            match workload {
                Workload::Session => {
                    assert_eq!(callbacks, 0, "{what}: no callbacks");
                    assert_eq!(appends, 0, "{what}: no journal");
                    assert_eq!(elections, 0, "{what}: no replicas");
                    let sessions =
                        count(&r, "iterations.thread0") + count(&r, "iterations.thread1");
                    assert_eq!(revoke, sessions, "{what}: one logout per session");
                    assert_eq!(
                        (issue, check, probe),
                        (4 * sessions, 4 * sessions, sessions)
                    );
                    // Logout plus the three collapsed chain roles.
                    assert_eq!(deliveries, 4 * revoke, "{what}: deliveries per logout");
                }
                Workload::Federated => {
                    assert_eq!(callbacks, check + probe, "{what}: one callback per read");
                    assert_eq!(appends, 0, "{what}: no journal");
                    assert_eq!(elections, 0, "{what}: no replicas");
                    assert_eq!(issue, revoke, "{what}: churn issues one per revoke");
                    assert_eq!(deliveries, revoke, "{what}: one delivery per revoke");
                }
                Workload::Revocation => {
                    assert_eq!(callbacks, 0, "{what}: no callbacks");
                    assert!(appends > revoke, "{what}: journal appends");
                    assert_eq!(elections, 1, "{what}: a single election");
                    assert_eq!(issue, revoke, "{what}: churn issues one per revoke");
                    assert_eq!(
                        count(&r, "wire.peer_replicate_msgs"),
                        2 * appends,
                        "{what}: each append replicates to both followers"
                    );
                    assert_eq!(
                        count(&r, "store.commits"),
                        appends,
                        "{what}: every append commits"
                    );
                }
            }
        }
    }
}

#[test]
fn stale_acceptance_fails_the_run_when_revocation_is_ignored() {
    let mut opts = Options::new(Workload::Federated, 5);
    opts.seconds = 0.5;
    opts.setups = 1;
    opts.warmup = 20;
    opts.ignore_revocation = true;
    let ignoring = run(&opts);
    assert!(
        !ignoring.correct,
        "a revocation-blind validator must fail the run"
    );
    assert!(ignoring.tally.stale > 0, "{:?}", ignoring.tally);

    opts.ignore_revocation = false;
    let honest = run(&opts);
    assert!(honest.correct, "{:?}", honest.tally);
    assert_eq!(honest.tally.stale, 0);
}

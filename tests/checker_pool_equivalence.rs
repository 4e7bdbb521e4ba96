//! Equivalence of the checker backends: the sharded background
//! `CheckerPool` (diff-shipped submissions, per-node shard affinity,
//! shared worker pool) must produce exactly the same predicted violations
//! and installed filters as the synchronous inline backend — on RandTree
//! and on Paxos, at 2 and 4 shards.
//!
//! This is the bar the sharded refactor has to clear: sharding and diff
//! shipping are transport changes, not semantic ones.
//!
//! The CI determinism matrix drives this through an env loop:
//! `CB_EQ_WORKERS` (comma list, default `1,4`) selects the shared
//! `WorkerPool` sizes the sharded leg runs on, and `CB_EQ_SEED` (default `1213`)
//! varies the second-submission state drift each scenario exercises the
//! diff-shipping path with.

use std::collections::BTreeSet;
use std::time::Duration;

use crystalball_suite::core::{CheckerMode, Controller, ControllerConfig, Mode};
use crystalball_suite::mc::{SearchConfig, WorkerPool};
use crystalball_suite::model::{
    apply_event, Event, ExploreOptions, GlobalState, NodeId, Protocol, SimDuration, SimTime,
};
use crystalball_suite::protocols::paxos::{self, PaxosBugs};
use crystalball_suite::protocols::randtree::{self, RandTreeBugs};

use cb_bench::scenarios::{paxos_near_violation, randtree_fig2};

/// Everything the two backends must agree on after a submission sequence:
/// the predicted violations and the final installed filter set.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    violations: BTreeSet<(u32, String, String, usize)>,
    filters: BTreeSet<(u32, String)>,
    predictions: u64,
    filters_installed: u64,
}

fn outcome_of<P: Protocol>(ctl: &Controller<P>) -> Outcome {
    Outcome {
        violations: ctl
            .reports
            .iter()
            .map(|r| {
                (
                    r.node.0,
                    r.violation.property.to_string(),
                    r.scenario.clone(),
                    r.depth,
                )
            })
            .collect(),
        filters: ctl
            .active_filters()
            .into_iter()
            .map(|(owner, f)| (owner.0, f.to_string()))
            .collect(),
        predictions: ctl.stats.predictions,
        filters_installed: ctl.stats.filters_installed,
    }
}

/// Runs the same per-node round submissions against one backend and
/// returns the comparable outcome. Rounds are submitted for every node of
/// the snapshot (so ≥2 shards actually split the work), then a mutated
/// state is submitted again per node to exercise the diff-shipping path
/// with real patches.
fn drive<P, F>(
    proto: &P,
    props: crystalball_suite::model::PropertySet<P>,
    search: &SearchConfig,
    start: &GlobalState<P>,
    mutate: &F,
    checker: CheckerMode,
    pool_threads: usize,
) -> Outcome
where
    P: Protocol,
    F: Fn(&mut GlobalState<P>),
{
    let mut ctl = Controller::with_runtime(
        proto.clone(),
        props,
        ControllerConfig {
            mode: Mode::ExecutionSteering,
            checker,
            mc_latency: SimDuration::from_millis(500),
            search: search.clone(),
            ..ControllerConfig::default()
        },
        WorkerPool::new(pool_threads),
        None,
    );
    let nodes: Vec<NodeId> = start.nodes.keys().copied().collect();
    for (i, &node) in nodes.iter().enumerate() {
        ctl.run_round(SimTime(i as u64), node, start);
    }
    let mut changed = start.clone();
    mutate(&mut changed);
    for (i, &node) in nodes.iter().enumerate() {
        ctl.run_round(SimTime(100 + i as u64), node, &changed);
    }
    // Background/sharded backends finish asynchronously; synchronous is a
    // no-op here.
    ctl.drain_predictions(SimTime(1_000), Duration::from_secs(300));
    assert_eq!(ctl.pending_predictions(), 0, "all rounds drained");
    let wire = ctl.checker_wire_stats();
    if let Some(wire) = wire {
        // Two identical-then-patched submissions per node: diff shipping
        // must beat full-clone submission bytes.
        assert!(
            wire.shipped_bytes < wire.raw_bytes,
            "diff-shipped {} >= full-clone {}",
            wire.shipped_bytes,
            wire.raw_bytes
        );
        assert_eq!(wire.states as usize, 2 * nodes.len());
    }
    outcome_of(&ctl)
}

fn assert_backends_agree<P, F>(
    proto: P,
    props: fn() -> crystalball_suite::model::PropertySet<P>,
    search: SearchConfig,
    start: GlobalState<P>,
    mutate: F,
) -> Outcome
where
    P: Protocol,
    F: Fn(&mut GlobalState<P>),
{
    let sync = drive(
        &proto,
        props(),
        &search,
        &start,
        &mutate,
        CheckerMode::Synchronous,
        1,
    );
    assert!(
        sync.predictions > 0,
        "scenario must actually predict something: {sync:?}"
    );
    for shards in [2usize, 4] {
        let sharded = drive(
            &proto,
            props(),
            &search,
            &start,
            &mutate,
            CheckerMode::Sharded { shards },
            1,
        );
        assert_eq!(
            sync, sharded,
            "sharded pool ({shards} shards) diverged from the synchronous backend"
        );
    }
    // Multiple shard threads each opening replay scopes, all multiplexed
    // on one shared WorkerPool, must still reproduce the synchronous
    // outcome bit for bit at every pool size of the matrix.
    for workers in cb_bench::matrix::workers() {
        let sharded_pooled = drive(
            &proto,
            props(),
            &search,
            &start,
            &mutate,
            CheckerMode::Sharded { shards: 2 },
            workers,
        );
        assert_eq!(
            sync, sharded_pooled,
            "sharded pool on {workers} pool threads diverged from the \
             synchronous backend"
        );
    }
    sync
}

#[test]
fn sharded_pool_matches_synchronous_on_randtree() {
    let (proto, gs) = randtree_fig2(RandTreeBugs::only("R1"));
    let search = SearchConfig {
        max_states: Some(30_000),
        max_depth: Some(7),
        explore: ExploreOptions::default(),
        ..SearchConfig::default()
    };
    // The seed picks which member's recovery timer became schedulable —
    // a small, realistic state drift that differs per matrix leg.
    let drifted = [NodeId(9), NodeId(13), NodeId(21)][cb_bench::matrix::seed() as usize % 3];
    let sync = assert_backends_agree(proto, randtree::properties::all, search, gs, move |gs| {
        let s = &mut gs.slot_mut(drifted).unwrap().state;
        s.recovery_scheduled = false;
    });
    assert!(
        !sync.filters.is_empty(),
        "steering installs filters in the Fig. 2 scenario"
    );
}

#[test]
fn sharded_pool_matches_synchronous_on_paxos() {
    let (proto, gs) = paxos_near_violation(PaxosBugs::only("P1"));
    let search = SearchConfig {
        max_states: Some(30_000),
        max_depth: Some(7),
        explore: ExploreOptions::minimal(),
        ..SearchConfig::default()
    };
    let mutator_proto = proto.clone();
    // The seed decides how many more round-2 messages the later snapshot
    // has seen delivered, so each matrix leg drifts differently.
    let extra_deliveries = 1 + cb_bench::matrix::seed() as usize % 2;
    let sync = assert_backends_agree(proto, paxos::properties::all, search, gs, move |gs| {
        for _ in 0..extra_deliveries {
            if !gs.inflight.is_empty() {
                apply_event(&mutator_proto, gs, &Event::Deliver { index: 0 });
            }
        }
    });
    assert!(
        sync.violations
            .iter()
            .any(|(_, prop, _, _)| prop == "AtMostOneChosen"),
        "the Fig. 14 double choice was predicted: {sync:?}"
    );
}

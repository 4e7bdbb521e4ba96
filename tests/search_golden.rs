//! Golden fingerprints of the search engine across protocols: exhaustive
//! search (Fig. 5) and consequence prediction (Fig. 8) must keep
//! producing the *identical* violation set, canonical shallowest
//! counterexample paths, visit accounting and stop reason that were
//! recorded for these scenarios. The constants were recorded when a
//! level-synchronous parallel engine still ran next to the FIFO loop and
//! reproduced every one of them bit for bit at 1, 2 and 4 workers, so
//! they are an engine-independent oracle, not a snapshot of one loop.
//!
//! The CI determinism matrix drives the seeded scenario through
//! `CB_EQ_SEED` (default `1213`), which picks the churned live state it
//! starts from; goldens exist for the default and the CI seeds.

use cb_bench::scenarios;
use crystalball_suite::mc::{
    find_consequences, find_errors, SearchConfig, SearchOutcome, StopReason,
};
use crystalball_suite::model::{stable_hash, GlobalState, PropertySet, Protocol};
use crystalball_suite::protocols::paxos::{self, PaxosBugs};
use crystalball_suite::protocols::randtree::{self, RandTreeBugs};

/// Everything content-level a search produces: a digest of every
/// violation's full rendered path, their depths, the visit accounting,
/// the `localExplored` prune count, and why the search stopped.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// `stable_hash` of the rendered counterexample scenarios, in order.
    paths: u64,
    depths: Vec<usize>,
    visited: usize,
    enqueued: usize,
    prunes: usize,
    stopped: StopReason,
}

/// A search outcome in [`Golden`]'s shape.
fn fingerprint<P: Protocol>(out: &SearchOutcome<P>) -> Golden {
    let scenarios: Vec<String> = out.violations.iter().map(|v| v.scenario()).collect();
    Golden {
        paths: stable_hash(&scenarios),
        depths: out.violations.iter().map(|v| v.depth).collect(),
        visited: out.stats.states_visited,
        enqueued: out.stats.states_enqueued,
        prunes: out.stats.local_prunes,
        stopped: out.stopped,
    }
}

fn assert_golden<P: Protocol>(
    proto: &P,
    props: &PropertySet<P>,
    gs: &GlobalState<P>,
    config: SearchConfig,
    what: &str,
    bfs: Golden,
    cp: Golden,
) {
    let got_bfs = fingerprint(&find_errors(proto, props, gs, config.clone()));
    assert_eq!(
        got_bfs, bfs,
        "{what}: exhaustive search diverged from its golden"
    );
    let got_cp = fingerprint(&find_consequences(proto, props, gs, config));
    assert_eq!(
        got_cp, cp,
        "{what}: consequence prediction diverged from its golden"
    );
}

/// The visit accounting of a search that found nothing.
fn clean(visited: usize, enqueued: usize, prunes: usize, stopped: StopReason) -> Golden {
    Golden {
        paths: 0xa8c7_f832_281a_39c5, // stable_hash of an empty scenario list
        depths: Vec::new(),
        visited,
        enqueued,
        prunes,
        stopped,
    }
}

/// RandTree from the Fig. 2 live state, buggy: a violation exists within
/// the depth budget, so this checks the canonical shallowest paths.
#[test]
fn randtree_buggy_violation_paths_match() {
    let (proto, gs) = scenarios::randtree_fig2(RandTreeBugs::only("R1"));
    let props = randtree::properties::all();
    let config = SearchConfig {
        max_depth: Some(5),
        max_states: Some(60_000),
        max_violations: 3,
        ..SearchConfig::default()
    };
    let seq = find_consequences(&proto, &props, &gs, config.clone());
    assert!(!seq.is_clean(), "the R1 bug is predictable from Fig. 2");
    assert_golden(
        &proto,
        &props,
        &gs,
        config,
        "randtree/R1",
        Golden {
            paths: 0x7081_ab62_edb7_329c,
            depths: vec![4, 4, 5],
            visited: 7860,
            enqueued: 24091,
            prunes: 0,
            stopped: StopReason::ViolationLimit,
        },
        Golden {
            paths: 0xacc2_21cc_d9d2_df8a,
            depths: vec![4, 5, 5],
            visited: 420,
            enqueued: 527,
            prunes: 911,
            stopped: StopReason::ViolationLimit,
        },
    );
}

/// RandTree, fixed protocol: no violations — checks that clean exhaustion
/// (visit counts, enqueue counts, stop reason) also holds.
#[test]
fn randtree_clean_exhaustion_matches() {
    let (proto, gs) = scenarios::randtree_fig2(RandTreeBugs::none());
    let props = randtree::properties::all();
    let config = SearchConfig {
        max_depth: Some(4),
        max_states: Some(200_000),
        ..SearchConfig::default()
    };
    assert_golden(
        &proto,
        &props,
        &gs,
        config,
        "randtree/fixed",
        clean(4160, 4160, 0, StopReason::DepthLimit),
        clean(244, 244, 367, StopReason::DepthLimit),
    );
}

/// Paxos from the round-1 live state (value chosen on {A,B} while C was
/// partitioned) with the P2 bug armed — the Fig. 14 prediction scenario.
#[test]
fn paxos_buggy_violation_paths_match() {
    let (proto, gs) = scenarios::paxos_round1(PaxosBugs::only("P2"));
    let props = paxos::properties::all();
    let config = SearchConfig {
        max_depth: Some(5),
        max_states: Some(25_000),
        ..SearchConfig::default()
    };
    assert_golden(
        &proto,
        &props,
        &gs,
        config,
        "paxos/P2",
        clean(25_000, 28_253, 0, StopReason::StateLimit),
        clean(3026, 3026, 2010, StopReason::DepthLimit),
    );
}

/// A Paxos state whose counterexample crosses *commuting deliveries* —
/// two in-flight messages whose delivery order reaches the same state
/// hash through differently-ordered in-flight bags. The reported path is
/// the one reached first in BFS order; a search that kept whichever
/// clone it saw last would report a different path (and enumerate
/// everything downstream differently).
#[test]
fn paxos_commuting_deliveries_keep_canonical_paths() {
    let (proto, gs) = scenarios::paxos_near_violation(PaxosBugs::only("P1"));
    let props = paxos::properties::all();
    let config = SearchConfig {
        max_depth: Some(7),
        max_states: Some(30_000),
        explore: cb_model::ExploreOptions::minimal(),
        ..SearchConfig::default()
    };
    let seq = find_consequences(&proto, &props, &gs, config.clone());
    assert!(!seq.is_clean(), "the double choice is in reach");
    assert_golden(
        &proto,
        &props,
        &gs,
        config,
        "paxos/commuting",
        Golden {
            paths: 0x4ee2_b985_6866_fa84,
            depths: vec![6],
            visited: 4852,
            enqueued: 21259,
            prunes: 0,
            stopped: StopReason::ViolationLimit,
        },
        Golden {
            paths: 0x4ee2_b985_6866_fa84,
            depths: vec![6],
            visited: 2042,
            enqueued: 7872,
            prunes: 5766,
            stopped: StopReason::ViolationLimit,
        },
    );
}

/// The seeded determinism-matrix leg: a RandTree neighborhood that lived
/// through `CB_EQ_SEED`-driven churn under the real simulator — joins,
/// resets, in-flight traffic at capture time. The as-shipped bugs have
/// already fired by capture time at every recorded seed, so the golden
/// is the start-state violation the search reports at depth 0.
#[test]
fn randtree_churned_matrix_matches() {
    let seed = cb_bench::matrix::seed();
    let paths = match seed {
        1213 | 7 => 0x404c_3aed_d12f_3a7d,
        1212 => 0x889b_d9db_7a8f_7905,
        9002 => 0x4406_e19b_36e1_9b37,
        other => panic!("no golden recorded for CB_EQ_SEED={other}"),
    };
    let at_start = || Golden {
        paths,
        depths: vec![0],
        visited: 1,
        enqueued: 1,
        prunes: 0,
        stopped: StopReason::Exhausted,
    };
    let (proto, gs) = scenarios::randtree_churned(seed, RandTreeBugs::as_shipped());
    let props = randtree::properties::all();
    let config = SearchConfig {
        max_depth: Some(6),
        max_states: Some(30_000),
        max_violations: 3,
        ..SearchConfig::default()
    };
    assert_golden(
        &proto,
        &props,
        &gs,
        config,
        &format!("randtree/churn-{seed}"),
        at_start(),
        at_start(),
    );
}

/// Paxos, fixed: consensus holds everywhere the budget reaches.
#[test]
fn paxos_clean_exhaustion_matches() {
    let (proto, gs) = scenarios::paxos_round1(PaxosBugs::none());
    let props = paxos::properties::all();
    let config = SearchConfig {
        max_depth: Some(5),
        max_states: Some(100_000),
        ..SearchConfig::default()
    };
    assert_golden(
        &proto,
        &props,
        &gs,
        config,
        "paxos/fixed",
        clean(28_253, 28_253, 0, StopReason::DepthLimit),
        clean(3026, 3026, 2010, StopReason::DepthLimit),
    );
}

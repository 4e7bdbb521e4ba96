//! Canonical live states used by the bench harnesses — the "system that has
//! been running for a significant amount of time" (§1.3) each prediction
//! experiment starts from.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use cb_model::{apply_event, Event, GlobalState, NodeId, Protocol};
use cb_protocols::bullet::{self, Bullet, BulletBugs};
use cb_protocols::chord::{self, Chord, ChordBugs};
use cb_protocols::paxos::{self, Paxos, PaxosBugs};
use cb_protocols::randtree::{self, RandTree, RandTreeBugs};

/// Delivers every in-flight message (order is deterministic).
pub fn settle<P: Protocol>(proto: &P, gs: &mut GlobalState<P>) {
    let mut n = 0;
    while !gs.inflight.is_empty() {
        apply_event(proto, gs, &Event::Deliver { index: 0 });
        n += 1;
        assert!(n < 10_000, "did not settle");
    }
}

fn join_rt(proto: &RandTree, gs: &mut GlobalState<RandTree>, n: u32, t: u32) {
    apply_event(
        proto,
        gs,
        &Event::Action {
            node: NodeId(n),
            action: randtree::Action::Join { target: NodeId(t) },
        },
    );
    settle(proto, gs);
}

/// The Fig. 2 live state: root n1 with a free slot and child n9; n13 under
/// n9. Reached through real joins plus the departure of a former root
/// child.
pub fn randtree_fig2(bugs: RandTreeBugs) -> (RandTree, GlobalState<RandTree>) {
    let proto = RandTree::new(2, vec![NodeId(1)], bugs);
    let mut gs = GlobalState::init(&proto, [NodeId(1), NodeId(9), NodeId(13), NodeId(21)]);
    for n in [1u32, 9, 21, 13] {
        join_rt(&proto, &mut gs, n, 1);
    }
    apply_event(
        &proto,
        &mut gs,
        &Event::Reset {
            node: NodeId(21),
            notify: true,
        },
    );
    settle(&proto, &mut gs);
    (proto, gs)
}

/// An 8-node RandTree that has lived through seeded churn under the real
/// simulator: joins, resets, rejoins, with in-flight traffic at the
/// moment of capture. Different seeds yield genuinely different live
/// states (topology, in-flight bags, timer phases) — the determinism
/// matrix re-checks the search's golden fingerprints and the checker
/// backends' equivalence from several of them rather than from one
/// hand-built state.
pub fn randtree_churned(seed: u64, bugs: RandTreeBugs) -> (RandTree, GlobalState<RandTree>) {
    use cb_model::SimDuration;
    let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
    let proto = RandTree::new(2, vec![NodeId(0)], bugs);
    let mut sim = cb_runtime::Simulation::new(
        proto.clone(),
        &nodes,
        randtree::properties::all(),
        cb_runtime::NoHook,
        cb_runtime::SimConfig {
            seed,
            track_violations: false,
            ..cb_runtime::SimConfig::default()
        },
    );
    sim.load_scenario(cb_runtime::Scenario::churn(
        &nodes,
        |_| randtree::Action::Join { target: NodeId(0) },
        SimDuration::from_secs(20),
        SimDuration::from_secs(90),
        seed,
    ));
    sim.run_for(SimDuration::from_secs(100));
    (proto, sim.gs.clone())
}

/// A RandTree of `n` nodes built by real joins (for scaling experiments).
pub fn randtree_of(n: u32, bugs: RandTreeBugs) -> (RandTree, GlobalState<RandTree>) {
    let proto = RandTree::new(2, vec![NodeId(0)], bugs);
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
    let mut gs = GlobalState::init(&proto, ids);
    for i in 0..n {
        join_rt(&proto, &mut gs, i, 0);
    }
    (proto, gs)
}

/// The Fig. 9 live state (root n61 of {n65, n69}; n9 under n69).
pub fn randtree_fig9(bugs: RandTreeBugs) -> (RandTree, GlobalState<RandTree>) {
    let proto = RandTree::new(2, vec![NodeId(61)], bugs);
    let mut gs = GlobalState::init(&proto, [NodeId(9), NodeId(61), NodeId(65), NodeId(69)]);
    {
        let s = &mut gs.slot_mut(NodeId(61)).unwrap().state;
        s.status = randtree::Status::Joined;
        s.root = Some(NodeId(61));
        s.children = BTreeSet::from([NodeId(65), NodeId(69)]);
        s.recovery_scheduled = true;
    }
    for (n, sib) in [(65u32, 69u32), (69, 65)] {
        let s = &mut gs.slot_mut(NodeId(n)).unwrap().state;
        s.status = randtree::Status::Joined;
        s.root = Some(NodeId(61));
        s.parent = Some(NodeId(61));
        s.siblings = BTreeSet::from([NodeId(sib)]);
        s.recovery_scheduled = true;
    }
    gs.slot_mut(NodeId(69)).unwrap().state.children = BTreeSet::from([NodeId(9)]);
    {
        let s = &mut gs.slot_mut(NodeId(9)).unwrap().state;
        s.status = randtree::Status::Joined;
        s.root = Some(NodeId(61));
        s.parent = Some(NodeId(69));
        s.recovery_scheduled = true;
    }
    (proto, gs)
}

/// A stabilized Chord ring of the given node ids.
pub fn chord_ring(ids: &[u32], bugs: ChordBugs) -> (Chord, GlobalState<Chord>) {
    let boot = NodeId(ids[0]);
    let proto = Chord::new(vec![boot], bugs);
    let mut gs = GlobalState::init(&proto, ids.iter().map(|&i| NodeId(i)));
    for &i in ids {
        apply_event(
            &proto,
            &mut gs,
            &Event::Action {
                node: NodeId(i),
                action: chord::Action::Join { target: boot },
            },
        );
        settle(&proto, &mut gs);
    }
    for _ in 0..4 {
        for &i in ids {
            apply_event(
                &proto,
                &mut gs,
                &Event::Action {
                    node: NodeId(i),
                    action: chord::Action::Stabilize,
                },
            );
            settle(&proto, &mut gs);
        }
    }
    (proto, gs)
}

/// Paxos live state: round 1 chose a value on {A, B} while C was
/// partitioned (the state Fig. 14's prediction runs from).
pub fn paxos_round1(bugs: PaxosBugs) -> (Paxos, GlobalState<Paxos>) {
    let members: Vec<NodeId> = (0..3).map(NodeId).collect();
    let proto = Paxos::new(members.clone(), bugs);
    let mut gs = GlobalState::init(&proto, members);
    apply_event(
        &proto,
        &mut gs,
        &Event::Action {
            node: NodeId(0),
            action: paxos::Action::Propose,
        },
    );
    loop {
        if let Some(i) = gs
            .inflight
            .iter()
            .position(|m| m.src == NodeId(2) || m.dst == NodeId(2))
        {
            apply_event(&proto, &mut gs, &Event::Drop { index: i });
            continue;
        }
        if gs.inflight.is_empty() {
            break;
        }
        apply_event(&proto, &mut gs, &Event::Deliver { index: 0 });
    }
    (proto, gs)
}

/// The Fig. 13/14 live state a few steps before the double choice: round
/// 1 chose a value on {A, B} while C was partitioned (see
/// [`paxos_round1`]); now B proposes round 2 while A is partitioned, two
/// messages delivered. Consequence prediction sees `AtMostOneChosen`
/// break within a small budget from here, and the counterexample crosses
/// a *commuting* delivery pair — the case that stresses canonical-path
/// tie-breaking (the first BFS-order path must win).
pub fn paxos_near_violation(bugs: PaxosBugs) -> (Paxos, GlobalState<Paxos>) {
    let (proto, mut gs) = paxos_round1(bugs);
    apply_event(
        &proto,
        &mut gs,
        &Event::Action {
            node: NodeId(1),
            action: paxos::Action::Propose,
        },
    );
    let mut delivered = 0;
    loop {
        if let Some(i) = gs
            .inflight
            .iter()
            .position(|m| m.src == NodeId(0) || m.dst == NodeId(0))
        {
            apply_event(&proto, &mut gs, &Event::Drop { index: i });
            continue;
        }
        if delivered >= 2 || gs.inflight.is_empty() {
            break;
        }
        apply_event(&proto, &mut gs, &Event::Deliver { index: 0 });
        delivered += 1;
    }
    (proto, gs)
}

/// A three-node Bullet' line mesh with small blocks (model-checking scale).
pub fn bullet_line(bugs: BulletBugs) -> (Bullet, GlobalState<Bullet>) {
    let mut senders_of = BTreeMap::new();
    senders_of.insert(NodeId(1), vec![NodeId(0)]);
    senders_of.insert(NodeId(2), vec![NodeId(1)]);
    let proto = Bullet {
        source: NodeId(0),
        num_blocks: 6,
        block_size: 1024,
        senders_of,
        diff_window: 1,
        max_diff_blocks: 2,
        request_pipeline: 2,
        diff_period: cb_model::SimDuration::from_millis(500),
        request_period: cb_model::SimDuration::from_millis(250),
        bugs,
    };
    let gs = GlobalState::init(&proto, [NodeId(0), NodeId(1), NodeId(2)]);
    (proto, gs)
}

/// Bullet' live state for B3: n2 has outstanding requests while a second
/// sender is about to re-announce one of them.
pub fn bullet_b3_live() -> (Bullet, GlobalState<Bullet>) {
    let mut senders_of = BTreeMap::new();
    senders_of.insert(NodeId(1), vec![NodeId(0)]);
    senders_of.insert(NodeId(2), vec![NodeId(0), NodeId(1)]);
    let proto = Bullet {
        source: NodeId(0),
        num_blocks: 4,
        block_size: 1024,
        senders_of,
        diff_window: 2,
        max_diff_blocks: 2,
        request_pipeline: 2,
        diff_period: cb_model::SimDuration::from_millis(500),
        request_period: cb_model::SimDuration::from_millis(250),
        bugs: BulletBugs::only("B3"),
    };
    let mut gs = GlobalState::init(&proto, [NodeId(0), NodeId(1), NodeId(2)]);
    apply_event(
        &proto,
        &mut gs,
        &Event::Action {
            node: NodeId(0),
            action: bullet::Action::SendDiff { peer: NodeId(2) },
        },
    );
    let diff_idx = gs
        .inflight
        .iter()
        .position(|m| matches!(&m.payload, cb_model::Payload::Msg(bullet::Msg::Diff { .. })))
        .unwrap();
    apply_event(&proto, &mut gs, &Event::Deliver { index: diff_idx });
    {
        let s1 = &mut gs.slot_mut(NodeId(1)).unwrap().state;
        s1.file_map.insert(0);
        s1.shadow.entry(NodeId(2)).or_default().insert(0);
    }
    (proto, gs)
}

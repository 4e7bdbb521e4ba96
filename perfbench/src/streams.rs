//! Input generation: per-node streams of neighbourhood states recorded
//! from the simulator. Only `cb-runtime`, `cb-protocols` and `cb-fleet`
//! run here, and only at set-up; the measured program receives the
//! recorded states and nothing else.

use std::collections::HashSet;

use cb_model::{GlobalState, NodeId, Protocol, SimDuration, SimTime};
use cb_protocols::paxos::{self, Paxos, PaxosBugs};
use cb_protocols::randtree::{self, RandTree, RandTreeBugs};
use cb_runtime::{NoHook, Scenario, SimConfig, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One simulated node's submissions, in order.
pub struct Stream<P: Protocol> {
    /// The submitting node; its own slot is inside every state.
    pub node: NodeId,
    pub states: Vec<GlobalState<P>>,
}

/// Captures the neighbourhood snapshots the simulator's checkpoint
/// managers gather — the same input the in-process controller receives —
/// for the recorded nodes, dropping consecutive duplicates.
struct Recorder<P: Protocol> {
    streams: Vec<Stream<P>>,
    last: Vec<Option<u64>>,
}

impl<P: Protocol> cb_runtime::Hook<P> for Recorder<P> {
    fn on_snapshot(&mut self, _now: SimTime, node: NodeId, snapshot: &cb_snapshot::Snapshot) {
        let Some(ix) = self.streams.iter().position(|s| s.node == node) else {
            return;
        };
        let gs = crystalball::Controller::<P>::snapshot_to_state(snapshot);
        let h = gs.state_hash();
        if gs.node_count() > 0 && self.last[ix] != Some(h) {
            self.last[ix] = Some(h);
            self.streams[ix].states.push(gs);
        }
    }
}

/// Runs `scenario` under the simulator with checkpointing and periodic
/// gathers on, until `horizon`.
#[allow(clippy::too_many_arguments)]
fn record_gathers<P: Protocol>(
    proto: &P,
    ids: &[NodeId],
    props: cb_model::PropertySet<P>,
    scenario: Scenario<P>,
    seed: u64,
    nodes: &[NodeId],
    checkpoint: SimDuration,
    gather: SimDuration,
    horizon: SimTime,
) -> Vec<Stream<P>> {
    let recorder = Recorder {
        streams: nodes
            .iter()
            .map(|&node| Stream {
                node,
                states: Vec::new(),
            })
            .collect(),
        last: vec![None; nodes.len()],
    };
    let mut sim = Simulation::new(
        proto.clone(),
        ids,
        props,
        recorder,
        SimConfig {
            seed,
            track_violations: false,
            snapshots: Some(cb_runtime::SnapshotRuntime {
                checkpoint_interval: checkpoint,
                gather_interval: gather,
                ..cb_runtime::SnapshotRuntime::default()
            }),
            ..SimConfig::default()
        },
    );
    sim.load_scenario(scenario);
    sim.run_until(horizon);
    std::mem::take(&mut sim.hook.streams)
}

/// Simulated length of one `checker_randtree` recording episode.
pub const RANDTREE_EPISODE_SECS: u64 = 150;

/// The `checker_randtree` inputs: an 8-node RandTree with R1 armed under
/// seeded churn (one reset every ~4 s), checkpointing every 1 s and
/// gathering every 1.5 s; the gathered snapshots of `nodes` (one even and
/// one odd id, so the checker's node-mod-shards routing puts them on
/// different shards).
///
/// A stream is a sequence of `episodes` episodes, each a fresh simulation
/// of [`RANDTREE_EPISODE_SECS`] with its own seed drawn from `seed`. A
/// single long simulation would drift (incarnations and connection tables
/// only grow), so a run's rate would depend on how far into the stream it
/// got; and a fixed episode count keeps the recording cost the same for
/// every seed.
pub fn randtree_streams(
    seed: u64,
    nodes: &[NodeId],
    episodes: usize,
) -> (RandTree, Vec<Stream<RandTree>>) {
    let ids: Vec<NodeId> = (0..8).map(NodeId).collect();
    let proto = RandTree::new(2, vec![NodeId(0)], RandTreeBugs::only("R1"));
    let horizon = SimTime::ZERO + SimDuration::from_secs(RANDTREE_EPISODE_SECS);
    let mut streams: Vec<Stream<RandTree>> = nodes
        .iter()
        .map(|&node| Stream {
            node,
            states: Vec::new(),
        })
        .collect();
    for episode in 0..episodes as u64 {
        let episode_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ episode;
        let scenario = Scenario::churn(
            &ids,
            |_| randtree::Action::Join { target: NodeId(0) },
            SimDuration::from_secs(4),
            horizon - SimTime::ZERO,
            episode_seed,
        );
        let recorded = record_gathers(
            &proto,
            &ids,
            randtree::properties::all(),
            scenario,
            episode_seed,
            nodes,
            SimDuration::from_millis(1_000),
            SimDuration::from_millis(1_500),
            horizon,
        );
        for (stream, rec) in streams.iter_mut().zip(recorded) {
            stream.states.extend(rec.states);
        }
    }
    (proto, streams)
}

/// Independent simulations pooled into the `checker_paxos` inputs.
pub const PAXOS_SIMS: u64 = 4;

/// The `checker_paxos` inputs: a bug-free 3-member Paxos group driven by
/// `rounds` repetitions of the Fig. 13 proposal schedule in each of
/// [`PAXOS_SIMS`] simulations (seeds drawn from `seed`), the group's state
/// sampled every 50 ms of simulated time. (Paxos gathers stall behind the
/// schedule's partitions, so the group is sampled directly rather than
/// through its gathers.) Every distinct state is kept once, the pool is
/// shuffled with the seed, and the states are dealt round-robin to the
/// submitting nodes — so the streams share no state and no round can be
/// answered from the prediction cache.
///
/// The shuffle matters: the group's state grows with every proposal
/// round (the learner map keeps every round it heard of), so searching
/// later states costs more. Shuffled, every prefix of a stream holds the
/// same mix of early and late states and the round rate stays level
/// through a run instead of decaying. Pooling several simulations makes
/// that mix, and the stream length, depend less on one seed's timing.
pub fn paxos_streams(seed: u64, nodes: &[NodeId], rounds: usize) -> (Paxos, Vec<Stream<Paxos>>) {
    let members: Vec<NodeId> = (0..3).map(NodeId).collect();
    let proto = Paxos::new(members.clone(), PaxosBugs::none());
    let mut seen: HashSet<u64> = HashSet::new();
    let mut states = Vec::new();
    for sim_ix in 0..PAXOS_SIMS {
        let sim_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ sim_ix;
        let mut sim = Simulation::new(
            proto.clone(),
            &members,
            paxos::properties::all(),
            NoHook,
            SimConfig {
                seed: sim_seed,
                track_violations: false,
                ..SimConfig::default()
            },
        );
        sim.load_scenario(cb_fleet::members::paxos_fig13_workload(
            rounds,
            SimDuration::from_secs(2),
            sim_seed,
        ));
        let mut t = SimTime::ZERO;
        while sim.next_event_at().is_some() {
            t += SimDuration::from_millis(50);
            sim.run_until(t);
            if seen.insert(sim.gs.state_hash()) {
                states.push(sim.gs.clone());
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..states.len()).rev() {
        states.swap(i, rng.gen_range(0..=i));
    }
    let mut streams: Vec<Stream<Paxos>> = nodes
        .iter()
        .map(|&node| Stream {
            node,
            states: Vec::new(),
        })
        .collect();
    for (ix, gs) in states.into_iter().enumerate() {
        streams[ix % nodes.len()].states.push(gs);
    }
    (proto, streams)
}

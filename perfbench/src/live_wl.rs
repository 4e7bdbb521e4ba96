//! `live_randtree`: a whole `LiveDeployment` of RandTree nodes with R1
//! armed and steering on, re-creating the Fig. 2 preconditions the way
//! the live deployment test does — a childless root child is killed for
//! good, then childless nodes are killed and restarted on a fixed
//! schedule. Gathers run on the nodes' own timers (open loop); the cost
//! shows as CPU.

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use cb_live::{
    live_checker_config, randtree_deployment_on, wait_until, CheckerProcessStats, LiveConfig,
    LiveDeployment, LiveNodeConfig, LiveStats, NodeReport, SubmitBody,
};
use cb_model::{FrameKind, GlobalState, NodeId};
use cb_protocols::randtree::{self, Action as RtAction, RandTree, RandTreeBugs, Status};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::selftime;
use crate::util::{self, Metric};
use crate::{Args, Outcome};

/// RandTree nodes in the deployment.
const NODES: usize = 32;
/// Set-ups per run; the median is reported as `setup_s`.
const SETUPS: usize = 3;
/// One childless node is killed and restarted this often.
const CHURN_EVERY: Duration = Duration::from_millis(1_000);
/// How long a churned node stays down.
const DOWN_FOR: Duration = Duration::from_millis(80);
const BUDGET: usize = 8_000;
const DEPTH: usize = 6;

fn reactor_threads() -> usize {
    util::nproc().clamp(1, 4)
}

fn shards() -> usize {
    util::nproc().clamp(1, 2)
}

pub fn params_json() -> String {
    format!(
        "{{\"nodes\": {NODES}, \"reactor_threads\": {}, \"shards\": {}, \"budget\": {BUDGET}, \
         \"depth\": {DEPTH}, \"churn_every_ms\": {}, \"gather_ms\": 120, \"checkpoint_ms\": 80}}",
        reactor_threads(),
        shards(),
        CHURN_EVERY.as_millis()
    )
}

fn config(seed: u64) -> LiveConfig {
    let mut checker = live_checker_config(BUDGET, DEPTH, shards());
    checker.prediction_cache = true;
    LiveConfig {
        seed,
        node: LiveNodeConfig {
            checkpoint_interval: Duration::from_millis(80),
            gather_interval: Duration::from_millis(120),
            gather_timeout: Duration::from_millis(350),
            time_scale: 0.02,
            ..LiveNodeConfig::default()
        },
        checker,
        ..LiveConfig::default()
    }
}

fn probe_children(dep: &LiveDeployment<RandTree>, n: NodeId) -> Option<usize> {
    let _s = cb_obs::span("live.probe", "bench");
    dep.probe(n, Duration::from_secs(2))
        .map(|r| r.slot.state.children.len())
}

/// Boot, join, and the Fig. 2 preconditions (root capacity opened by
/// killing a childless root child for good). Returns the deployment and
/// the sacrificed node.
fn setup(seed: u64) -> Result<(LiveDeployment<RandTree>, NodeId), String> {
    let mut dep = randtree_deployment_on(
        NODES,
        RandTreeBugs::only("R1"),
        config(seed),
        reactor_threads(),
    )
    .map_err(|e| format!("boot: {e}"))?;
    let joined = wait_until(&dep, Duration::from_secs(60), |d| {
        d.node_ids()
            .iter()
            .all(|&n| match d.probe(n, Duration::from_secs(2)) {
                Some(r) if r.slot.state.status == Status::Joined => true,
                Some(_) => {
                    d.inject(n, RtAction::Join { target: NodeId(0) });
                    false
                }
                None => false,
            })
    });
    if !joined {
        return Err("not every node joined within 60 s".into());
    }
    let root = dep
        .probe(NodeId(0), Duration::from_secs(5))
        .ok_or("root did not answer a probe")?;
    let children: Vec<NodeId> = root.slot.state.children.iter().copied().collect();
    let sacrifice = children
        .iter()
        .copied()
        .find(|&c| probe_children(&dep, c) == Some(0))
        .or_else(|| children.first().copied())
        .ok_or("root has no children")?;
    dep.kill(sacrifice);
    Ok((dep, sacrifice))
}

/// One probe of every up node.
fn probe_all(dep: &LiveDeployment<RandTree>) -> BTreeMap<NodeId, NodeReport<RandTree>> {
    dep.node_ids()
        .iter()
        .filter(|&&n| dep.is_up(n))
        .filter_map(|&n| {
            let _s = cb_obs::span("live.probe", "bench");
            dep.probe(n, Duration::from_secs(2)).map(|r| (n, r))
        })
        .collect()
}

/// Every probed node's neighbourhood, assembled the way a gather
/// assembles checkpoints: the node's slot plus the slots of its RandTree
/// peer list (root, parent, children, siblings).
fn neighbourhoods(
    reports: &BTreeMap<NodeId, NodeReport<RandTree>>,
) -> Vec<(NodeId, GlobalState<RandTree>)> {
    reports
        .iter()
        .map(|(&n, r)| {
            let mut ids: Vec<NodeId> = r.slot.state.peers().into_iter().collect();
            ids.push(n);
            let gs = GlobalState::from_slots(
                ids.into_iter()
                    .filter_map(|p| reports.get(&p).map(|q| (p, q.slot.clone()))),
            );
            (n, gs)
        })
        .collect()
}

/// Per-node install-latency baselines: (incarnation, installs, total µs).
type LatencyMarks = BTreeMap<NodeId, (u32, u64, u64)>;

/// Appends, for every node that received installs since its last mark,
/// the mean submit→install latency of those installs (ms, node clock),
/// and moves the marks forward. A restarted node starts from zero.
fn latency_samples(
    reports: &BTreeMap<NodeId, NodeReport<RandTree>>,
    marks: &mut LatencyMarks,
    out: Option<&mut Vec<f64>>,
) {
    let mut out = out;
    for (&n, r) in reports {
        let l = r.stats.install_latency;
        let inc = r.slot.incarnation;
        let (count0, total0) = match marks.get(&n) {
            Some(&(i, c, t)) if i == inc && c <= l.count => (c, t),
            _ => (0, 0),
        };
        if l.count > count0 {
            if let Some(out) = out.as_deref_mut() {
                out.push((l.total_us - total0) as f64 / (l.count - count0) as f64 / 1e3);
            }
        }
        marks.insert(n, (inc, l.count, l.total_us));
    }
}

struct Leg {
    setup_s: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    before: CheckerProcessStats,
    after: CheckerProcessStats,
    stats: LiveStats,
    /// Per-node neighbourhood streams probed during a traced window.
    recorded: BTreeMap<NodeId, Vec<GlobalState<RandTree>>>,
    /// Per-node, per-second mean submit→install latencies (ms).
    latencies_ms: Vec<f64>,
}

fn leg(seed: u64, setups: usize, window: Duration, record: bool) -> Result<Leg, String> {
    let mut setup_s = Vec::new();
    let mut booted = None;
    for _ in 0..setups {
        // Dropping a deployment kills its nodes and joins its threads.
        drop(booted.take());
        let t0 = Instant::now();
        let b = setup(seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        booted = Some(b);
    }
    let (mut dep, sacrifice) = booted.ok_or("no set-up ran")?;
    let probe_checker = |d: &LiveDeployment<RandTree>| {
        let _s = cb_obs::span("live.probe", "bench");
        d.probe_checker(Duration::from_secs(5))
    };
    let before = probe_checker(&dep).ok_or("checker did not answer a probe")?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c69_7665);
    let mut recorded: BTreeMap<NodeId, Vec<GlobalState<RandTree>>> = BTreeMap::new();
    let mut marks = LatencyMarks::new();
    let mut latencies_ms = Vec::new();
    latency_samples(&probe_all(&dep), &mut marks, None);
    let cpu0 = util::cpu_seconds();
    let t0 = Instant::now();
    let end = t0 + window;
    let mut next = t0 + CHURN_EVERY;
    while next < end {
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
        next += CHURN_EVERY;
        // Churn one childless node other than the root and the
        // sacrificed root child, chosen by the seeded generator.
        let mut candidates: Vec<NodeId> = dep
            .node_ids()
            .iter()
            .copied()
            .filter(|&n| n != NodeId(0) && n != sacrifice)
            .collect();
        for i in (1..candidates.len()).rev() {
            candidates.swap(i, rng.gen_range(0..=i));
        }
        if let Some(victim) = candidates
            .into_iter()
            .filter(|&n| dep.is_up(n))
            .take(8)
            .find(|&n| probe_children(&dep, n) == Some(0))
        {
            dep.kill(victim);
            std::thread::sleep(DOWN_FOR);
            dep.restart(victim).map_err(|e| format!("restart: {e}"))?;
        }
        let reports = probe_all(&dep);
        latency_samples(&reports, &mut marks, Some(&mut latencies_ms));
        if record {
            for (n, gs) in neighbourhoods(&reports) {
                let stream = recorded.entry(n).or_default();
                if stream.last().map(|s| s.state_hash()) != Some(gs.state_hash()) {
                    stream.push(gs);
                }
            }
        }
    }
    std::thread::sleep(end.saturating_duration_since(Instant::now()));
    let after = probe_checker(&dep).ok_or("checker did not answer a probe")?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = util::cpu_seconds() - cpu0;
    let report = dep.shutdown();
    Ok(Leg {
        setup_s,
        wall_s,
        cpu_s,
        before,
        after,
        stats: report.stats,
        recorded,
        latencies_ms,
    })
}

fn e2e_metrics(l: &Leg) -> Vec<Metric> {
    let rounds = l.after.rounds_completed - l.before.rounds_completed;
    let n = l.latencies_ms.len() as u64;
    vec![
        Metric::new(
            "setup_s",
            "s",
            util::median(&l.setup_s),
            l.setup_s.len() as u64,
        ),
        Metric::new("rounds_per_s", "1/s", rounds as f64 / l.wall_s, rounds),
        Metric::new(
            "round_p50_ms",
            "ms",
            util::quantile(&l.latencies_ms, 0.50),
            n,
        ),
        Metric::new(
            "round_p95_ms",
            "ms",
            util::quantile(&l.latencies_ms, 0.95),
            n,
        ),
        Metric::new(
            "cpu_ms_per_round",
            "ms",
            l.cpu_s * 1e3 / rounds.max(1) as f64,
            rounds,
        ),
        Metric::new("cpu_cores", "cores", l.cpu_s / l.wall_s, 1),
    ]
}

fn value(ms: &[Metric], name: &str) -> f64 {
    ms.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
}

pub fn run(args: &Args) -> Outcome {
    let window = Duration::from_secs(args.seconds);
    let legs = if args.trace {
        leg(args.seed, 1, window / 2, false).and_then(|a| {
            cb_obs::enable();
            cb_obs::metrics::enable();
            leg(args.seed, 1, window / 2, true).map(|b| (b, Some(a)))
        })
    } else {
        leg(args.seed, SETUPS, window, false).map(|a| (a, None))
    };
    let (main, untraced) = match legs {
        Ok(l) => l,
        Err(e) => return Outcome::failed(vec![e]),
    };
    let mut fails = Vec::new();
    let t = main.stats.totals();
    let checker = &main.stats.checker;
    let predictions = main.after.predictions - main.before.predictions;
    let installs = main.after.installs_sent - main.before.installs_sent;
    if predictions == 0 || installs == 0 {
        fails.push(format!(
            "steering path not timed in the window: {predictions} predictions, {installs} installs"
        ));
    }
    if checker.submits_rejected > 0 {
        fails.push(format!("{} submissions rejected", checker.submits_rejected));
    }
    if main.stats.restarts == 0 {
        fails.push("no churn happened".into());
    }
    println!(
        "window: {} rounds, {predictions} predictions, {installs} installs, {} restarts; \
         life: {} gathers, {} gather timeouts, {} submits",
        main.after.rounds_completed - main.before.rounds_completed,
        main.stats.restarts,
        t.snapshots_completed,
        t.gather_timeouts,
        t.submits_sent
    );
    let e2e = e2e_metrics(&main);
    let mut per_layer = Vec::new();
    if let Some(untraced) = untraced.as_ref() {
        // Standalone numbers on the neighbourhoods probed in the window.
        let (mut enc_us, mut dec_us) = (Vec::new(), Vec::new());
        let (mut shipped, mut raw, mut states) = (0u64, 0u64, 0u64);
        let mut frames = Vec::new();
        let mut seen = HashSet::new();
        let mut sample = Vec::new();
        for (&node, stream) in &main.recorded {
            let c = crate::layers::delta_codec(stream);
            enc_us.push(c.encode_us);
            dec_us.push(c.decode_us);
            shipped += c.shipped_bytes;
            raw += c.raw_bytes;
            states += c.states;
            let mut enc = cb_snapshot::DeltaEncoder::new();
            for gs in stream {
                let body = SubmitBody {
                    node,
                    at_us: 0,
                    speculative: false,
                    round: 0,
                    delta: enc.encode_state(gs),
                };
                frames.push(cb_live::wire::frame_of(
                    node,
                    NodeId::DUMMY,
                    0,
                    FrameKind::Submit,
                    &body,
                ));
                if sample.len() < 40 && seen.insert(gs.state_hash()) {
                    sample.push(gs);
                }
            }
        }
        let search = crate::layers::search(
            &RandTree::new(2, vec![NodeId(0)], RandTreeBugs::only("R1")),
            &randtree::properties::all(),
            &config(args.seed).checker.search,
            &sample,
        );
        let frame_mb_s = crate::layers::frame_mb_s(&frames);
        // Drained after the standalone numbers, so their spans are in it.
        let trace = cb_obs::drain();
        let totals = selftime::self_times(&trace);
        selftime::print_table(&totals, main.wall_s);
        let scrape = cb_obs::metrics::snapshot();
        let polls = scrape.counter("cb_reactor_polls_total").unwrap_or(0);
        let busy = scrape.counter("cb_reactor_poll_busy_total").unwrap_or(0);
        let node_poll = totals.get("reactor.node_poll").copied().unwrap_or_default();
        let rounds = checker.rounds_completed;
        let wall = main.stats.wall_seconds.max(1e-9);
        let frames_per_s = (t.frames_sent + t.frames_received) as f64 / wall;
        let cpu_cores = value(&e2e, "cpu_cores");
        let install_ms = t.install_latency.avg_us() as f64 / 1e3;
        let round_ms = checker.round_latency.avg_us() as f64 / 1e3;
        let base = e2e_metrics(untraced);
        let base_install_ms = untraced.stats.totals().install_latency.avg_us() as f64 / 1e3;
        per_layer = crate::per_layer_metrics(&crate::Layers {
            encode_us: util::mean(&enc_us),
            decode_us: util::mean(&dec_us),
            delta_bytes: shipped as f64 / states.max(1) as f64,
            delta_ratio: shipped as f64 / raw.max(1) as f64,
            gathers_per_s: t.snapshots_completed as f64 / wall,
            gather_timeouts: t.gather_timeouts as f64,
            wire_bytes_per_gather: t.snapshot_wire_bytes as f64
                / t.snapshots_completed.max(1) as f64,
            frame_mb_s,
            states_per_s: search.states_per_s,
            states_per_round: search.states_per_round,
            explored_bytes_per_state: search.bytes_per_state,
            predict_ms: selftime::self_ms_per(&totals, "checker.predict", rounds),
            replay_ms: selftime::self_ms_per(&totals, "checker.replay", rounds),
            safety_ms: selftime::self_ms_per(&totals, "checker.safety", rounds),
            cache_hit_rate: checker.cache.hit_rate(),
            predict_frac: checker.predictions as f64 / rounds.max(1) as f64,
            installs: installs as f64,
            checker_round_ms: round_ms,
            wire_ms: install_ms - round_ms,
            frames_per_s,
            cpu_us_per_frame: cpu_cores * 1e6 / frames_per_s.max(1e-9),
            poll_us: node_poll.total_us as f64 / node_poll.count.max(1) as f64,
            poll_busy_frac: busy as f64 / polls.max(1) as f64,
            install_mean_ms: install_ms,
            backpressure_drops: t.frames_dropped_backpressure as f64,
            submits_rejected: checker.submits_rejected as f64,
            overhead_throughput: value(&e2e, "rounds_per_s")
                / value(&base, "rounds_per_s").max(1e-12),
            overhead_latency: install_ms / base_install_ms.max(1e-12),
            overhead_cpu: cpu_cores / value(&base, "cpu_cores").max(1e-12),
        });
    }
    Outcome {
        fails,
        attempted: t.snapshots_completed + t.gather_timeouts + checker.submits_received,
        failed: t.gather_timeouts + checker.submits_rejected,
        e2e,
        per_layer,
        extra: format!(
            "\"window_rounds\": {}, \"window_predictions\": {predictions}, \
             \"window_installs\": {installs}, \"restarts\": {}, \"gathers\": {}, \
             \"gather_timeouts\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"install_mean_ms\": {}, \"checker_round_mean_ms\": {}",
            main.after.rounds_completed - main.before.rounds_completed,
            main.stats.restarts,
            t.snapshots_completed,
            t.gather_timeouts,
            checker.cache.hits,
            checker.cache.misses,
            t.install_latency.avg_us() as f64 / 1e3,
            checker.round_latency.avg_us() as f64 / 1e3
        ),
    }
}

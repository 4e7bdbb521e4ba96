//! `checker_randtree` and `checker_paxos`: the checker process driven
//! over loopback TCP by two simulated nodes, closed loop.

use std::time::{Duration, Instant};

use cb_live::{live_checker_config, spawn_checker, CheckerHandle};
use cb_model::{NodeId, PropertySet, Protocol};
use crystalball::ControllerConfig;

use crate::closed_loop::{self, Conns};
use crate::selftime;
use crate::streams::{self, Stream};
use crate::util::{self, Metric};
use crate::{Args, Outcome};

/// Set-ups per run; the median is reported as `setup_s`.
pub const SETUPS: usize = 3;

/// One checker workload's fixed parameters (printed in every result).
pub struct Spec {
    pub budget: usize,
    pub depth: usize,
    pub shards: usize,
    pub minimal_explore: bool,
    /// Submitting node ids (one even, one odd: different shards).
    pub nodes: [NodeId; 2],
    /// Input recording size per set-up: simulated episodes (RandTree) or
    /// Fig. 13 proposal rounds (Paxos).
    pub recording: usize,
    /// Submissions per node in each deterministic prefix pass.
    pub prefix_rounds: u64,
    /// States per node searched for the standalone `mc` numbers.
    pub search_sample: usize,
    /// Whether the workload must predict and install (steering timed).
    pub must_steer: bool,
}

pub const RANDTREE: Spec = Spec {
    budget: 8_000,
    depth: 6,
    shards: 2,
    minimal_explore: false,
    nodes: [NodeId(0), NodeId(1)],
    recording: 300,
    prefix_rounds: 120,
    search_sample: 40,
    must_steer: true,
};

pub const PAXOS: Spec = Spec {
    budget: 1_500,
    depth: 40,
    shards: 2,
    minimal_explore: true,
    nodes: [NodeId(0), NodeId(1)],
    recording: 80,
    prefix_rounds: 6,
    search_sample: 6,
    must_steer: false,
};

impl Spec {
    pub fn config(&self) -> ControllerConfig {
        let mut c = live_checker_config(self.budget, self.depth, self.shards);
        if self.minimal_explore {
            c.search.explore = cb_model::ExploreOptions::minimal();
        }
        // Pinned rather than read from the environment: the workload is
        // defined with memoization on.
        c.prediction_cache = true;
        c
    }

    pub fn params_json(&self) -> String {
        format!(
            "{{\"budget\": {}, \"depth\": {}, \"shards\": {}, \"explore\": \"{}\", \"nodes\": 2, \
             \"recording\": {}, \"prefix_rounds\": {}, \"search_sample\": {}}}",
            self.budget,
            self.depth,
            self.shards,
            if self.minimal_explore {
                "minimal"
            } else {
                "default"
            },
            self.recording,
            self.prefix_rounds,
            self.search_sample
        )
    }
}

fn boot<P: Protocol>(
    proto: &P,
    props: &PropertySet<P>,
    config: &ControllerConfig,
    streams: &[Stream<P>],
) -> (CheckerHandle, Conns) {
    let checker = spawn_checker(
        proto.clone(),
        props.clone(),
        config.clone(),
        Duration::from_secs(10),
    )
    .expect("spawn checker process");
    let conns = closed_loop::connect(checker.addr, streams).expect("connect to checker");
    (checker, conns)
}

/// Replays a fixed prefix of every stream on a fresh checker and returns
/// (cache hits, non-empty installs, predictions) — counts that depend
/// only on the inputs.
fn prefix_pass<P: Protocol>(
    spec: &Spec,
    proto: &P,
    props: &PropertySet<P>,
    streams: &[Stream<P>],
) -> (u64, u64, u64, u64) {
    let (checker, mut conns) = boot(proto, props, &spec.config(), streams);
    let out = closed_loop::run(
        proto,
        streams,
        &mut conns,
        Duration::from_secs(600),
        Some(spec.prefix_rounds),
        false,
    );
    let stats = checker
        .probe(Duration::from_secs(10))
        .expect("probe checker");
    conns.close();
    checker.shutdown();
    (
        stats.cache.hits,
        out.nonempty_installs,
        stats.predictions,
        out.unanswered + out.order_errors + out.decode_errors,
    )
}

/// One measured leg: set-up (`setups` times), the closed loop for
/// `window`, and the checks on what came back.
struct Leg<P: Protocol> {
    proto: P,
    streams: Vec<Stream<P>>,
    setup_s: Vec<f64>,
    lo: closed_loop::LoopOutcome,
    stats: cb_live::CheckerProcessStats,
    rejected: u64,
    round_ms: f64,
    visited_total: u64,
}

fn leg<P: Protocol>(
    spec: &Spec,
    seed: u64,
    props: &PropertySet<P>,
    record: &impl Fn(u64, &[NodeId], usize) -> (P, Vec<Stream<P>>),
    setups: usize,
    window: Duration,
    keep_frames: bool,
) -> (Leg<P>, Vec<String>) {
    let mut fails = Vec::new();
    let config = spec.config();
    let mut setup_s = Vec::new();
    let mut booted: Option<(P, Vec<Stream<P>>, CheckerHandle, Conns)> = None;
    for _ in 0..setups {
        if let Some((_, _, checker, conns)) = booted.take() {
            conns.close();
            checker.shutdown();
        }
        let t0 = Instant::now();
        let (proto, streams) = record(seed, &spec.nodes, spec.recording);
        let (checker, conns) = boot(&proto, props, &config, &streams);
        setup_s.push(t0.elapsed().as_secs_f64());
        booted = Some((proto, streams, checker, conns));
    }
    let (proto, streams, checker, mut conns) = booted.expect("at least one set-up");
    for s in &streams {
        assert!(!s.states.is_empty(), "node {} recorded no states", s.node.0);
    }
    let visited = || {
        cb_obs::metrics::snapshot()
            .counter("cb_mc_states_visited_total")
            .unwrap_or(0)
    };
    let visited_before = visited();
    let lo = closed_loop::run(&proto, &streams, &mut conns, window, None, keep_frames);
    let stats = {
        let _s = cb_obs::span("live.probe", "bench");
        checker.probe(Duration::from_secs(10))
    }
    .expect("probe checker");
    let visited_total = visited() - visited_before;
    conns.close();
    let final_stats = checker.shutdown();

    if lo.order_errors > 0 {
        fails.push(format!(
            "{} pushes out of order or unsolicited",
            lo.order_errors
        ));
    }
    if lo.unanswered > 0 {
        fails.push(format!("{} submissions never answered", lo.unanswered));
    }
    if lo.decode_errors > 0 {
        fails.push(format!(
            "{} install bodies did not decode",
            lo.decode_errors
        ));
    }
    if final_stats.submits_rejected > 0 {
        fails.push(format!(
            "{} submissions rejected",
            final_stats.submits_rejected
        ));
    }
    if spec.must_steer && (stats.predictions == 0 || lo.nonempty_installs == 0) {
        fails.push(format!(
            "steering path not timed: {} predictions, {} non-empty installs",
            stats.predictions, lo.nonempty_installs
        ));
    }
    if lo.wraps > 0 {
        // A node that ran out of recorded states starts its stream again;
        // from then on states recur, so hits are expected.
        println!(
            "note: streams wrapped {} times; record longer streams for a checker this fast",
            lo.wraps
        );
    } else if !spec.must_steer && stats.cache.hits > 0 {
        fails.push(format!(
            "{} cache hits on a workload with no recurring state",
            stats.cache.hits
        ));
    }
    let leg = Leg {
        proto,
        streams,
        setup_s,
        stats,
        rejected: final_stats.submits_rejected,
        round_ms: final_stats.round_latency.avg_us() as f64 / 1e3,
        lo,
        visited_total,
    };
    (leg, fails)
}

/// The end-to-end metrics of one leg.
fn e2e_metrics<P: Protocol>(leg: &Leg<P>) -> Vec<Metric> {
    let lo = &leg.lo;
    let lat_ms: Vec<f64> = lo.latencies_us.iter().map(|us| us / 1e3).collect();
    let n = lat_ms.len() as u64;
    let beyond_p95 = n - (n as f64 * 0.95).ceil() as u64;
    println!("round latency samples {n}, beyond p95 {beyond_p95}");
    if beyond_p95 < 10 {
        println!("note: fewer than 10 samples beyond p95");
    }
    let per_bin: Vec<u64> = lo.bins.clone();
    println!("rounds by second: {per_bin:?}");
    vec![
        Metric::new(
            "setup_s",
            "s",
            util::median(&leg.setup_s),
            leg.setup_s.len() as u64,
        ),
        Metric::new(
            "rounds_per_s",
            "1/s",
            lo.rounds as f64 / lo.wall_s,
            lo.rounds,
        ),
        Metric::new("round_p50_ms", "ms", util::quantile(&lat_ms, 0.50), n),
        Metric::new("round_p95_ms", "ms", util::quantile(&lat_ms, 0.95), n),
        Metric::new(
            "cpu_ms_per_round",
            "ms",
            lo.cpu_s * 1e3 / lo.rounds.max(1) as f64,
            lo.rounds,
        ),
        Metric::new("cpu_cores", "cores", lo.cpu_s / lo.wall_s, 1),
    ]
}

pub fn run<P: Protocol>(
    spec: &Spec,
    args: &Args,
    props_fn: fn() -> PropertySet<P>,
    record: impl Fn(u64, &[NodeId], usize) -> (P, Vec<Stream<P>>),
) -> Outcome {
    let config = spec.config();
    let props = props_fn();
    let mut fails: Vec<String> = Vec::new();
    let window = Duration::from_secs(args.seconds);
    let (main, untraced) = if args.trace {
        // Two half-window legs: untraced, then traced. The per-layer
        // numbers come from the traced leg; their ratio is the tracing
        // overhead.
        let half = window / 2;
        let (a, f) = leg(spec, args.seed, &props, &record, 1, half, false);
        fails.extend(f);
        cb_obs::enable();
        cb_obs::metrics::enable();
        let (b, f) = leg(spec, args.seed, &props, &record, 1, half, true);
        fails.extend(f);
        (b, Some(a))
    } else {
        let (a, f) = leg(spec, args.seed, &props, &record, SETUPS, window, false);
        fails.extend(f);
        (a, None)
    };
    let proto = &main.proto;
    let streams = &main.streams;
    // Standalone layer numbers, inside the traced run so their own spans
    // land in the trace.
    let standalone = args.trace.then(|| {
        let (mut enc_us, mut dec_us) = (Vec::new(), Vec::new());
        let (mut shipped, mut raw, mut states) = (0u64, 0u64, 0u64);
        for s in streams {
            let c = crate::layers::delta_codec(&s.states[..s.states.len().min(2_000)]);
            enc_us.push(c.encode_us);
            dec_us.push(c.decode_us);
            shipped += c.shipped_bytes;
            raw += c.raw_bytes;
            states += c.states;
        }
        let sample: Vec<_> = streams
            .iter()
            .flat_map(|s| s.states.iter().take(spec.search_sample))
            .collect();
        let search = crate::layers::search(proto, &props, &config.search, &sample);
        let frame_mb_s = crate::layers::frame_mb_s(&main.lo.frames_sent);
        let codec = (
            util::mean(&enc_us),
            util::mean(&dec_us),
            shipped as f64 / states.max(1) as f64,
            shipped as f64 / raw.max(1) as f64,
        );
        (codec, search, frame_mb_s, cb_obs::drain())
    });

    // Rounds visit exactly the budget: a standalone search of the first
    // state, and (traced run, where the registry counts) every round.
    let check = crate::layers::search(proto, &props, &config.search, &[&streams[0].states[0]]);
    if !spec.must_steer && check.visited.iter().any(|&v| v != spec.budget) {
        fails.push(format!(
            "rounds must visit exactly the budget of {}: {:?}",
            spec.budget, check.visited
        ));
    }
    if args.trace
        && !spec.must_steer
        && main.visited_total != spec.budget as u64 * main.stats.rounds_completed
    {
        fails.push(format!(
            "{} states visited over {} rounds, budget {}",
            main.visited_total, main.stats.rounds_completed, spec.budget
        ));
    }
    // Cache-hit counts of a fixed prefix must repeat exactly.
    let p1 = prefix_pass(spec, proto, &props, streams);
    let p2 = prefix_pass(spec, proto, &props, streams);
    if p1 != p2 {
        fails.push(format!(
            "prefix pass not repeatable: (hits, installs, predictions, errors) {p1:?} vs {p2:?}"
        ));
    }
    if p1.3 > 0 {
        fails.push(format!("prefix pass had {} protocol errors", p1.3));
    }
    println!(
        "prefix pass ({} submissions per node): cache_hits {} installs {} predictions {}",
        spec.prefix_rounds, p1.0, p1.1, p1.2
    );

    let e2e = e2e_metrics(&main);
    let mut per_layer = Vec::new();
    if let (Some((codec, search, frame_mb_s, trace)), Some(untraced)) =
        (standalone, untraced.as_ref())
    {
        let totals = selftime::self_times(&trace);
        selftime::print_table(&totals, main.lo.wall_s);
        let lo = &main.lo;
        let rounds = main.stats.rounds_completed;
        let lat_ms: Vec<f64> = lo.latencies_us.iter().map(|us| us / 1e3).collect();
        let client_mean_ms = util::mean(&lat_ms);
        let base = e2e_metrics(untraced);
        let ratio = |name: &str| {
            let v = |ms: &[Metric]| ms.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
            v(&e2e) / v(&base).max(1e-12)
        };
        per_layer = crate::per_layer_metrics(&crate::Layers {
            encode_us: codec.0,
            decode_us: codec.1,
            delta_bytes: codec.2,
            delta_ratio: codec.3,
            gathers_per_s: 0.0,
            gather_timeouts: 0.0,
            wire_bytes_per_gather: 0.0,
            frame_mb_s,
            states_per_s: search.states_per_s,
            states_per_round: search.states_per_round,
            explored_bytes_per_state: search.bytes_per_state,
            predict_ms: selftime::self_ms_per(&totals, "checker.predict", rounds),
            replay_ms: selftime::self_ms_per(&totals, "checker.replay", rounds),
            safety_ms: selftime::self_ms_per(&totals, "checker.safety", rounds),
            cache_hit_rate: main.stats.cache.hit_rate(),
            predict_frac: main.stats.predictions as f64 / rounds.max(1) as f64,
            installs: p1.1 as f64,
            checker_round_ms: main.round_ms,
            wire_ms: client_mean_ms - main.round_ms,
            frames_per_s: lo.frames as f64 / lo.wall_s,
            cpu_us_per_frame: lo.cpu_s * 1e6 / lo.frames.max(1) as f64,
            poll_us: 0.0,
            poll_busy_frac: 0.0,
            install_mean_ms: client_mean_ms,
            backpressure_drops: 0.0,
            submits_rejected: main.rejected as f64,
            overhead_throughput: ratio("rounds_per_s"),
            overhead_latency: ratio("round_p50_ms"),
            overhead_cpu: ratio("cpu_ms_per_round"),
        });
    }
    let lo = &main.lo;
    Outcome {
        fails,
        attempted: lo.attempted,
        failed: lo.unanswered + main.rejected,
        e2e,
        per_layer,
        extra: format!(
            "\"rounds_completed\": {}, \"predictions\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}, \"prefix_cache_hits\": {}, \"prefix_installs\": {}, \
             \"prefix_predictions\": {}, \"stream_states\": [{}], \"stream_wraps\": {}",
            main.stats.rounds_completed,
            main.stats.predictions,
            main.stats.cache.hits,
            main.stats.cache.misses,
            p1.0,
            p1.1,
            p1.2,
            streams
                .iter()
                .map(|s| s.states.len().to_string())
                .collect::<Vec<_>>()
                .join(", "),
            lo.wraps
        ),
    }
}

pub fn randtree(args: &Args) -> Outcome {
    run(
        &RANDTREE,
        args,
        cb_protocols::randtree::properties::all,
        streams::randtree_streams,
    )
}

pub fn paxos(args: &Args) -> Outcome {
    run(
        &PAXOS,
        args,
        cb_protocols::paxos::properties::all,
        streams::paxos_streams,
    )
}

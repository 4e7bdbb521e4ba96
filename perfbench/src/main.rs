//! The repository benchmark: end-to-end and per-layer numbers for the
//! CrystalBall checker loop, measured from outside the program through
//! public APIs only. See `README.md` beside this package.
//!
//! ```text
//! cb-perfbench --workload <checker_randtree|checker_paxos|live_randtree|all>
//!              --seed <n> --seconds <s> --trace <0|1> [--holdout]
//! cb-perfbench compare <result-a.txt> <result-b.txt>
//! ```
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. The line before it
//! is a `{"meta": ...}` object with the run's parameters.

mod checker_wl;
mod closed_loop;
mod compare;
mod layers;
mod live_wl;
mod selftime;
mod streams;
mod util;

use std::process::ExitCode;

use util::Metric;

pub const WORKLOADS: [&str; 3] = ["checker_randtree", "checker_paxos", "live_randtree"];

/// Seeds at or above this offset are reserved for `--holdout` runs: a
/// claim made while a change was written is re-checked on seeds nobody
/// tuned against.
pub const HOLDOUT_OFFSET: u64 = 1 << 40;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What one workload run produced.
pub struct Outcome {
    /// Output checks that failed (empty = correct).
    pub fails: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Extra `"key": value` pairs for the metadata line.
    pub extra: String,
}

/// Every per-layer number, in one place so each workload reports the
/// same set. A field a workload does not exercise is 0 (see README).
pub struct Layers {
    pub encode_us: f64,
    pub decode_us: f64,
    pub delta_bytes: f64,
    pub delta_ratio: f64,
    pub gathers_per_s: f64,
    pub gather_timeouts: f64,
    pub wire_bytes_per_gather: f64,
    pub frame_mb_s: f64,
    pub states_per_s: f64,
    pub states_per_round: f64,
    pub explored_bytes_per_state: f64,
    pub predict_ms: f64,
    pub replay_ms: f64,
    pub safety_ms: f64,
    pub cache_hit_rate: f64,
    pub predict_frac: f64,
    pub installs: f64,
    pub checker_round_ms: f64,
    pub wire_ms: f64,
    pub frames_per_s: f64,
    pub cpu_us_per_frame: f64,
    pub poll_us: f64,
    pub poll_busy_frac: f64,
    pub install_mean_ms: f64,
    pub backpressure_drops: f64,
    pub submits_rejected: f64,
    pub overhead_throughput: f64,
    pub overhead_latency: f64,
    pub overhead_cpu: f64,
}

pub fn per_layer_metrics(l: &Layers) -> Vec<Metric> {
    let m = |name: &str, unit: &'static str, v: f64| Metric::new(name, unit, v, 1);
    vec![
        m("snapshot.encode_us", "us", l.encode_us),
        m("snapshot.decode_us", "us", l.decode_us),
        m("snapshot.delta_bytes", "bytes", l.delta_bytes),
        m("snapshot.delta_ratio", "ratio", l.delta_ratio),
        m("snapshot.gathers_per_s", "1/s", l.gathers_per_s),
        m("snapshot.gather_timeouts", "count", l.gather_timeouts),
        m(
            "snapshot.wire_bytes_per_gather",
            "bytes",
            l.wire_bytes_per_gather,
        ),
        m("model.frame_mb_s", "MB/s", l.frame_mb_s),
        m("mc.states_per_s", "1/s", l.states_per_s),
        m("mc.states_per_round", "count", l.states_per_round),
        m(
            "mc.explored_bytes_per_state",
            "bytes",
            l.explored_bytes_per_state,
        ),
        m("mc.predict_ms", "ms", l.predict_ms),
        m("mc.replay_ms", "ms", l.replay_ms),
        m("mc.safety_ms", "ms", l.safety_ms),
        m("core.cache_hit_rate", "ratio", l.cache_hit_rate),
        m("core.predict_frac", "ratio", l.predict_frac),
        m("core.installs", "count", l.installs),
        m("live.checker_round_ms", "ms", l.checker_round_ms),
        m("live.wire_ms", "ms", l.wire_ms),
        m("live.frames_per_s", "1/s", l.frames_per_s),
        m("live.cpu_us_per_frame", "us", l.cpu_us_per_frame),
        m("live.poll_us", "us", l.poll_us),
        m("live.poll_busy_frac", "ratio", l.poll_busy_frac),
        m("live.install_mean_ms", "ms", l.install_mean_ms),
        m("live.backpressure_drops", "count", l.backpressure_drops),
        m("live.submits_rejected", "count", l.submits_rejected),
        m(
            "obs.trace_overhead.throughput",
            "ratio",
            l.overhead_throughput,
        ),
        m("obs.trace_overhead.latency", "ratio", l.overhead_latency),
        m("obs.trace_overhead.cpu", "ratio", l.overhead_cpu),
    ]
}

impl Outcome {
    pub fn failed(fails: Vec<String>) -> Self {
        Outcome {
            fails,
            attempted: 1,
            failed: 1,
            e2e: Vec::new(),
            per_layer: Vec::new(),
            extra: String::new(),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cb-perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
         [--holdout]\n       cb-perfbench compare <result-a> <result-b>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Option<(Args, bool)> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut holdout = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = it.next()?.clone(),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = it.next()?.parse().ok().filter(|&s| s > 0)?,
            "--trace" => {
                args.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--holdout" => holdout = true,
            _ => return None,
        }
    }
    if args.seed >= HOLDOUT_OFFSET {
        return None;
    }
    Some((args, holdout))
}

fn params_json(workload: &str) -> String {
    match workload {
        "checker_randtree" => checker_wl::RANDTREE.params_json(),
        "checker_paxos" => checker_wl::PAXOS.params_json(),
        _ => live_wl::params_json(),
    }
}

/// The source revision, when the benchmark runs inside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn run_one(args: &Args, holdout: bool, effective_seed: u64) -> ExitCode {
    let run_args = Args {
        workload: args.workload.clone(),
        seed: effective_seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = match args.workload.as_str() {
        "checker_randtree" => checker_wl::randtree(&run_args),
        "checker_paxos" => checker_wl::paxos(&run_args),
        "live_randtree" => live_wl::run(&run_args),
        _ => return usage(),
    };
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.e2e
    };
    util::print_table(
        &format!(
            "{} seed {} ({})",
            args.workload,
            args.seed,
            if args.trace {
                "traced, per-layer"
            } else {
                "end-to-end"
            }
        ),
        metrics,
    );
    // Reported, not gated: on checker_paxos it spreads about 25% between
    // seeds, with whichever large searches the allocator kept memory for.
    let rss = util::peak_rss_mb();
    println!(
        "{:<34} {:>16.4} {:<8} (reported, not gated)",
        "peak_rss_mb", rss, "MB"
    );
    for f in &outcome.fails {
        println!("CHECK FAILED: {f}");
    }
    let correct = outcome.fails.is_empty();
    let mut extra = outcome.extra.clone();
    if !extra.is_empty() {
        extra.insert_str(0, ", ");
    }
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"holdout\": {holdout}, \
         \"effective_seed\": {effective_seed}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"git_rev\": \"{}\", \"params\": {}, \"peak_rss_mb\": {}{extra}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::nproc(),
        git_rev(),
        params_json(&args.workload),
        util::json_num(rss),
    );
    println!(
        "{}",
        util::result_line(correct, outcome.attempted.max(1), outcome.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own (so each
/// `peak_rss_mb` belongs to one workload), and prints their tables.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".to_string(), w.to_string()]);
        let out = std::process::Command::new(&exe).args(&child_args).output();
        match out {
            Ok(o) => {
                let text = String::from_utf8_lossy(&o.stdout);
                print!("{text}");
                ok &= o.status.success();
            }
            Err(e) => {
                eprintln!("{w}: {e}");
                ok = false;
            }
        }
    }
    println!(
        "== all workloads: {}",
        if ok { "correct" } else { "CHECKS FAILED" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let Some((args, holdout)) = parse(&argv) else {
        return usage();
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let effective = if holdout {
        args.seed + HOLDOUT_OFFSET
    } else {
        args.seed
    };
    run_one(&args, holdout, effective)
}

//! Process-level measurements, statistics and the result line.

use std::fmt::Write as _;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times
/// (`USER_HZ`, 100 on every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Field 2 (comm) may hold spaces; everything after its closing
    // parenthesis is space-separated, starting at field 3.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |ix: usize| fields.get(ix).and_then(|v| v.parse::<f64>().ok());
    // utime and stime are fields 14 and 15: indices 11 and 12 here.
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Online processors, as the result metadata reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// One named metric of a result.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a single measurement).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: u64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        }
    }
}

/// Formats a float as JSON with every digit Rust's shortest round-trip
/// representation carries (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (ix, m) in metrics.iter().enumerate() {
        if ix > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Prints the human-readable metric table (one metric per line).
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("== {title}");
    println!(
        "{:<34} {:>16} {:<8} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        println!(
            "{:<34} {:>16.4} {:<8} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

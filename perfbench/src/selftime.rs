//! Per-span self time from a drained `cb-obs` trace, and the per-layer
//! table the traced run prints.

use std::collections::BTreeMap;

use cb_obs::{EventKind, Trace};

/// Totals for one span name.
#[derive(Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

/// The layer a span belongs to: the crate that does the work.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "checker.round" | "checker.spec_round" => "core",
        "checker.replay" | "checker.predict" | "checker.safety" => "mc",
        n if n.starts_with("mc.") => "mc",
        n if n.starts_with("snapshot.") => "snapshot",
        n if n.starts_with("model.") => "model",
        n if n.starts_with("fleet.") => "fleet",
        _ => "live",
    }
}

/// Self time of a span = its duration minus the time its directly nested
/// spans (same thread, contained in its interval) cover.
pub fn self_times(trace: &Trace) -> BTreeMap<&'static str, SpanTotals> {
    let mut by_thread: BTreeMap<u64, Vec<(u64, u64, &'static str)>> = BTreeMap::new();
    for e in &trace.events {
        if let EventKind::Span { dur_us } = e.kind {
            by_thread
                .entry(e.tid)
                .or_default()
                .push((e.ts_us, e.ts_us + dur_us, e.name));
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for spans in by_thread.values_mut() {
        // Parents first: earlier start, then longer span.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut child_us = vec![0u64; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        for ix in 0..spans.len() {
            let (start, end, _) = spans[ix];
            while stack.last().is_some_and(|&top| spans[top].1 <= start) {
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                if end <= spans[top].1 {
                    child_us[top] += end - start;
                }
            }
            stack.push(ix);
        }
        for (ix, &(start, end, name)) in spans.iter().enumerate() {
            let t = out.entry(name).or_default();
            t.count += 1;
            t.total_us += end - start;
            t.self_us += (end - start).saturating_sub(child_us[ix]);
        }
    }
    out
}

/// Self time of `name` in ms per `rounds` (0 when the span never ran).
pub fn self_ms_per(totals: &BTreeMap<&'static str, SpanTotals>, name: &str, rounds: u64) -> f64 {
    totals
        .get(name)
        .map(|t| t.self_us as f64 / 1e3 / rounds.max(1) as f64)
        .unwrap_or(0.0)
}

/// Prints the per-layer table: one row per span, grouped by layer.
pub fn print_table(totals: &BTreeMap<&'static str, SpanTotals>, wall_s: f64) {
    let mut rows: Vec<(&str, &str, SpanTotals)> = totals
        .iter()
        .map(|(name, t)| (layer_of(name), *name, *t))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(b.0).then(b.2.self_us.cmp(&a.2.self_us)));
    println!("== traced run: self time by layer (wall {wall_s:.3} s)");
    println!(
        "{:<9} {:<26} {:>9} {:>12} {:>12} {:>10} {:>8}",
        "layer", "span", "count", "total_ms", "self_ms", "self_us/op", "busy_%"
    );
    for (layer, name, t) in rows {
        println!(
            "{:<9} {:<26} {:>9} {:>12.3} {:>12.3} {:>10.2} {:>8.2}",
            layer,
            name,
            t.count,
            t.total_us as f64 / 1e3,
            t.self_us as f64 / 1e3,
            t.self_us as f64 / t.count.max(1) as f64,
            100.0 * t.self_us as f64 / 1e6 / wall_s.max(1e-9),
        );
    }
}

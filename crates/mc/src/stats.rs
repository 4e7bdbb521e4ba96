//! Search statistics and memory accounting.
//!
//! Besides the usual visited/enqueued counters, the accounting here backs
//! two figures of the paper's evaluation: Fig. 15 (memory consumed by the
//! search as a function of depth — "less than 1MB [at depth 7–8] and can
//! thus easily fit in the L2 cache") and Fig. 16 (memory per visited state,
//! converging to ≈150 bytes).

use std::time::Duration;

/// Counters and memory estimates collected during one search run.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// States dequeued and expanded (the paper's "visited states").
    pub states_visited: usize,
    /// States pushed onto the frontier (deduplicated).
    pub states_enqueued: usize,
    /// Successor states discarded because their hash was already seen.
    pub duplicates_hit: usize,
    /// Node-expansions skipped by consequence prediction's `localExplored`
    /// test (0 for exhaustive search); the pruning-factor ablation reads
    /// this.
    pub local_prunes: usize,
    /// Events suppressed by installed [`crate::EventFilter`]s.
    pub filtered_events: usize,
    /// Deepest level fully or partially expanded.
    pub max_depth: usize,
    /// Visited states per depth level (index = depth).
    pub per_depth: Vec<usize>,
    /// Wall-clock time spent searching.
    pub elapsed: Duration,
    /// Bytes of the search tree: parent-pointer arena entries plus the
    /// explored/localExplored hash entries (what Fig. 15 plots).
    pub tree_bytes: usize,
    /// Peak bytes held by frontier states (full clones awaiting expansion).
    pub peak_frontier_bytes: usize,
    /// Number of property violations discovered.
    pub violations_found: usize,
}

impl SearchStats {
    /// Bytes per visited state (Fig. 16's metric); 0 when nothing was
    /// visited.
    pub fn bytes_per_state(&self) -> usize {
        self.tree_bytes
            .checked_div(self.states_visited)
            .unwrap_or(0)
    }

    /// Visited states per second of wall time.
    pub fn states_per_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.states_visited as f64 / s
        }
    }

    /// Renders the run's counters as a compact JSON object via the shared
    /// [`cb_obs::json::Writer`] (durations in seconds, derived metrics
    /// included).
    pub fn to_json(&self) -> String {
        use cb_obs::json::{self, Style, Writer};
        let per_depth: Vec<String> = self.per_depth.iter().map(|n| n.to_string()).collect();
        let mut w = Writer::object(Style::Compact);
        w.field_usize("states_visited", self.states_visited)
            .field_usize("states_enqueued", self.states_enqueued)
            .field_usize("duplicates_hit", self.duplicates_hit)
            .field_usize("local_prunes", self.local_prunes)
            .field_usize("filtered_events", self.filtered_events)
            .field_usize("max_depth", self.max_depth)
            .field_raw("per_depth", &json::array(&per_depth))
            .field_f64("elapsed_s", self.elapsed.as_secs_f64(), 6)
            .field_usize("tree_bytes", self.tree_bytes)
            .field_usize("peak_frontier_bytes", self.peak_frontier_bytes)
            .field_usize("violations_found", self.violations_found)
            .field_usize("bytes_per_state", self.bytes_per_state())
            .field_f64("states_per_sec", self.states_per_sec(), 1);
        w.finish()
    }

    /// Records a visit at `depth`, growing the per-depth table as needed.
    pub(crate) fn record_visit(&mut self, depth: usize) {
        self.states_visited += 1;
        if depth >= self.per_depth.len() {
            self.per_depth.resize(depth + 1, 0);
        }
        self.per_depth[depth] += 1;
        self.max_depth = self.max_depth.max(depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_depth_tracking() {
        let mut s = SearchStats::default();
        s.record_visit(0);
        s.record_visit(2);
        s.record_visit(2);
        assert_eq!(s.per_depth, vec![1, 0, 2]);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.states_visited, 3);
    }

    #[test]
    fn derived_metrics() {
        let mut s = SearchStats::default();
        assert_eq!(s.bytes_per_state(), 0);
        assert_eq!(s.states_per_sec(), 0.0);
        s.states_visited = 10;
        s.tree_bytes = 1500;
        s.elapsed = Duration::from_millis(500);
        assert_eq!(s.bytes_per_state(), 150);
        assert!((s.states_per_sec() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn json_parses_and_carries_derived_metrics() {
        let mut s = SearchStats::default();
        s.record_visit(0);
        s.record_visit(2);
        s.tree_bytes = 300;
        s.elapsed = Duration::from_millis(100);
        let json = s.to_json();
        assert!(json.contains("\"per_depth\":[1,0,1]"), "{json}");
        assert!(json.contains("\"bytes_per_state\":150"), "{json}");
        let v = cb_obs::json::parse(&json).expect("SearchStats JSON parses");
        assert_eq!(v.get("states_visited").and_then(|v| v.as_u64()), Some(2));
    }
}

//! Env-driven knobs for the CI determinism matrix.
//!
//! The checker-pool, prediction-cache, fleet and search-golden suites
//! read these; keeping the parsing (and the defaults the matrix legs rely
//! on) in one place stops the test binaries from drifting apart.

/// Shared `WorkerPool` thread counts under test (a fleet's
/// `pool_threads`): `CB_EQ_WORKERS=2` or `CB_EQ_WORKERS=1,2,4` (default
/// `1,4`).
pub fn workers() -> Vec<usize> {
    match std::env::var("CB_EQ_WORKERS") {
        Ok(v) => v
            .split(',')
            .map(|w| w.trim().parse().expect("CB_EQ_WORKERS: usize list"))
            .collect(),
        Err(_) => vec![1, 4],
    }
}

/// Seed driving the scenario/state-drift variation: `CB_EQ_SEED=9002`
/// (default `1213`). CI legs span residues mod 3 and parities, since the
/// drift mutations key off them.
pub fn seed() -> u64 {
    match std::env::var("CB_EQ_SEED") {
        Ok(v) => v.trim().parse().expect("CB_EQ_SEED: u64"),
        Err(_) => 1213,
    }
}

#[cfg(test)]
mod tests {
    // Reading real env vars in tests races other tests' processes, so
    // only the unset-default path is asserted here.
    #[test]
    fn defaults_without_env() {
        if std::env::var("CB_EQ_WORKERS").is_err() {
            assert_eq!(super::workers(), vec![1, 4]);
        }
        if std::env::var("CB_EQ_SEED").is_err() {
            assert_eq!(super::seed(), 1213);
        }
    }
}

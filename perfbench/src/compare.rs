//! `compare`: reads two saved outputs of the benchmark and prints each
//! metric side by side — but only when both runs measured the same
//! thing. Results whose workload, parameters, run length, trace mode or
//! processor count differ are refused, as are results from different
//! seeds whose deterministic counts would then differ for a reason other
//! than the code.

use std::process::ExitCode;

use cb_obs::json::{self, Value};

/// Fields of the metadata line that must match for a comparison.
const MUST_MATCH: [&str; 5] = ["workload", "params", "seconds", "trace", "nproc"];

struct Saved {
    meta: Value,
    result: Value,
}

fn load(path: &str) -> Result<Saved, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let meta_line = text
        .lines()
        .rev()
        .find(|l| l.starts_with("{\"meta\""))
        .ok_or_else(|| format!("{path}: no metadata line"))?;
    let result_line = text
        .lines()
        .rev()
        .find(|l| l.starts_with("{\"correct\""))
        .ok_or_else(|| format!("{path}: no result line"))?;
    let meta = json::parse(meta_line)?
        .get("meta")
        .cloned()
        .ok_or_else(|| format!("{path}: malformed metadata"))?;
    Ok(Saved {
        meta,
        result: json::parse(result_line)?,
    })
}

fn render(v: Option<&Value>) -> String {
    match v {
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Num(n)) => format!("{n}"),
        Some(Value::Bool(b)) => format!("{b}"),
        Some(Value::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| format!("{k}={}", render(Some(v))))
            .collect::<Vec<_>>()
            .join(","),
        Some(other) => format!("{other:?}"),
        None => "-".into(),
    }
}

pub fn main(argv: &[String]) -> ExitCode {
    let [a, b] = argv else {
        eprintln!("usage: cb-perfbench compare <result-a> <result-b>");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut refused = false;
    for key in MUST_MATCH {
        let (va, vb) = (render(a.meta.get(key)), render(b.meta.get(key)));
        if va != vb {
            eprintln!("refused: {key} differs ({va} vs {vb})");
            refused = true;
        }
    }
    if refused {
        return ExitCode::FAILURE;
    }
    let same_seed = render(a.meta.get("effective_seed")) == render(b.meta.get("effective_seed"));
    if same_seed {
        // Same inputs: the deterministic counts must agree exactly.
        for key in [
            "prefix_cache_hits",
            "prefix_installs",
            "prefix_predictions",
            "stream_states",
        ] {
            let (va, vb) = (render(a.meta.get(key)), render(b.meta.get(key)));
            if va != vb {
                eprintln!("deterministic count {key} differs on the same seed: {va} vs {vb}");
                refused = true;
            }
        }
    }
    println!("{:<34} {:>14} {:>14} {:>9}", "metric", "a", "b", "b/a");
    let metrics = |s: &Saved| match s.result.get("metrics") {
        Some(Value::Obj(f)) => f.clone(),
        _ => Vec::new(),
    };
    let mb = metrics(&b);
    for (name, va) in metrics(&a) {
        let x = va.get("value").and_then(Value::as_f64).unwrap_or(0.0);
        let y = mb
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.get("value").and_then(Value::as_f64));
        match y {
            Some(y) => println!(
                "{name:<34} {x:>14.4} {y:>14.4} {:>9.3}",
                if x != 0.0 { y / x } else { 0.0 }
            ),
            None => println!("{name:<34} {x:>14.4} {:>14} {:>9}", "-", "-"),
        }
    }
    if refused {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

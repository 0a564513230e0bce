//! `--check`: every workload on small inputs in seconds, the naive
//! matcher as an oracle for prepared matching, and the metric contract
//! of `BENCHMARK.json` (every named metric printed, finite, with its
//! unit) in both trace modes.

use crate::{all_workloads, layers, run_workload, WORKLOADS};
use dmsa_cli::json::{self, Json, Value};
use dmsa_core::matcher::Matcher;
use dmsa_core::{MatchMethod, NaiveMatcher, PreparedStore};
use dmsa_scenario::ScenarioConfig;

/// Seconds each workload measures under `--check`.
const CHECK_SECONDS: f64 = 1.0;

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
fn section(doc: &Json, key: &str) -> Result<Vec<(String, String)>, String> {
    let arr = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
    arr.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let unit = m.get("unit").and_then(Json::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("{key} entry without name and unit {}", m.at())),
            }
        })
        .collect()
}

/// The result line must carry exactly `expected`, each a finite number
/// with its unit, plus sane counts.
fn check_line(line: &str, expected: &[(String, String)]) -> Result<(), String> {
    let doc = json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let Value::Obj(fields) = &doc.value else {
        return Err("result line is not an object".into());
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys {keys:?}"));
    }
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err("correct is not true".into());
    }
    let attempted = doc.get("attempted").and_then(Json::as_u64).unwrap_or(0);
    if attempted < 1 || doc.get("failed").and_then(Json::as_u64) != Some(0) {
        return Err("attempted < 1 or failed != 0".into());
    }
    let Some(Value::Obj(metrics)) = doc.get("metrics").map(|m| &m.value) else {
        return Err("metrics is not an object".into());
    };
    if metrics.len() != expected.len() {
        return Err(format!(
            "{} metrics printed, {} named",
            metrics.len(),
            expected.len()
        ));
    }
    for (name, unit) in expected {
        let m = doc
            .get("metrics")
            .and_then(|m| m.get(name))
            .ok_or_else(|| format!("metric {name} not printed"))?;
        let value = m.get("value").and_then(Json::as_f64);
        if !value.is_some_and(f64::is_finite) {
            return Err(format!("metric {name} is not a finite number"));
        }
        if m.get("unit").and_then(Json::as_str) != Some(unit.as_str()) {
            return Err(format!("metric {name} lacks unit {unit}"));
        }
    }
    Ok(())
}

/// Prepared matching equals the naive oracle on a small campaign.
fn naive_oracle() -> Result<(), String> {
    for seed in [1, 2] {
        let config = ScenarioConfig {
            seed,
            ..ScenarioConfig::paper_8day(0.002)
        };
        let c = dmsa_scenario::run(&config);
        let prepared = PreparedStore::build(&c.store);
        for m in MatchMethod::ALL {
            let naive = NaiveMatcher.match_jobs(&c.store, c.window, m);
            if prepared.par_match_window(c.window, m) != naive {
                return Err(format!(
                    "prepared {} differs from the naive matcher (seed {seed})",
                    m.label()
                ));
            }
        }
    }
    Ok(())
}

pub fn run_check_mode() -> Result<(), String> {
    let src = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let doc = json::parse(&src).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let e2e = section(&doc, "end_to_end")?;
    let per_layer = section(&doc, "per_layer")?;
    let code_layer: Vec<(String, String)> = layers::per_layer_names()
        .into_iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    if per_layer != code_layer {
        return Err("BENCHMARK.json per_layer differs from the list the benchmark prints".into());
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    if workloads != WORKLOADS {
        return Err(format!("BENCHMARK.json workloads {workloads:?}"));
    }

    naive_oracle()?;
    eprintln!("check: prepared matching equals the naive oracle");
    for w in all_workloads() {
        for (trace, expected) in [(false, &e2e), (true, &per_layer)] {
            let (_, line) = run_workload(w, 1, CHECK_SECONDS, trace, true)?;
            check_line(&line, expected)
                .map_err(|e| format!("{w} --trace {}: {e}", u8::from(trace)))?;
            eprintln!("check: {w} --trace {} ok", u8::from(trace));
        }
    }
    println!("check mode: all workloads correct, every named metric printed with its unit");
    Ok(())
}

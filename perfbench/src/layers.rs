//! Timed calls into each layer of dmsa, and the per-layer metric list.
//!
//! Every workload reaches the analysis layers (scenario, export codec,
//! prepared index, matchers, report renderers) through the functions
//! here: the pipeline in its measured pass, the serve workloads while
//! computing reference replies, the sweep while checking one cell. Each
//! call runs under a span named after its layer, so the traced run of
//! any workload yields the same per-layer time metrics.

use crate::stats::median;
use crate::{Ctx, Metric, Report};
use dmsa_analysis::render::{render_report_string, ReportInputs, REPORT_NAMES};
use dmsa_cli::atomic::write_atomic;
use dmsa_cli::export::{CampaignExport, LoadedExport};
use dmsa_core::{MatchMethod, MatchSet, PreparedStore, ScoredMatcher};
use dmsa_scenario::{Campaign, ScenarioConfig};
use std::collections::BTreeMap;
use std::path::Path;

/// Threshold of the `scored` method when none is given (the CLI's).
pub const SCORED_DEFAULT: f64 = 0.75;

const MATCH_SPANS: [&str; 3] = ["match.exact", "match.rm1", "match.rm2"];
const REPORT_SPANS: [&str; 5] = [
    "report.summary",
    "report.matrix",
    "report.temporal",
    "report.redundancy",
    "report.exclusion",
];

/// Spans whose median duration is a per-layer time metric `<span>_s`.
const TIMED_SPANS: [&str; 13] = [
    "scenario.run",
    "export.write",
    "export.load",
    "prepared.build",
    "match.exact",
    "match.rm1",
    "match.rm2",
    "match.scored",
    "report.summary",
    "report.matrix",
    "report.temporal",
    "report.redundancy",
    "report.exclusion",
];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Measured in every workload's traced run; missing is a bug.
    Measured,
    /// A count or ratio of a layer some workloads do not run (0 there).
    CountOrZero,
}

/// The per-layer metrics, in output order; `BENCHMARK.json` lists the
/// same names and units.
const PER_LAYER: [(&str, &str, Kind); 41] = {
    use Kind::*;
    [
        ("scenario.run_s", "s", Measured),
        ("scenario.events", "count", Measured),
        ("scenario.events_per_s", "1/s", Measured),
        ("export.write_s", "s", Measured),
        ("export.bytes", "bytes", Measured),
        ("export.write_mb_per_s", "MB/s", Measured),
        ("export.load_s", "s", Measured),
        ("export.load_mb_per_s", "MB/s", Measured),
        ("export.quarantined", "count", Measured),
        ("prepared.build_s", "s", Measured),
        ("match.exact_s", "s", Measured),
        ("match.rm1_s", "s", Measured),
        ("match.rm2_s", "s", Measured),
        ("match.scored_s", "s", Measured),
        ("match.jobs_per_s", "1/s", Measured),
        ("match.exact_jobs", "count", Measured),
        ("match.rm1_jobs", "count", Measured),
        ("match.rm2_jobs", "count", Measured),
        ("report.summary_s", "s", Measured),
        ("report.matrix_s", "s", Measured),
        ("report.temporal_s", "s", Measured),
        ("report.redundancy_s", "s", Measured),
        ("report.exclusion_s", "s", Measured),
        ("serve.served", "count", CountOrZero),
        ("serve.shed", "count", CountOrZero),
        ("serve.deadline_exceeded", "count", CountOrZero),
        ("serve.bad_requests", "count", CountOrZero),
        ("serve.panics", "count", CountOrZero),
        ("serve.slow_client_drops", "count", CountOrZero),
        ("serve.backlog_max", "count", CountOrZero),
        ("serve.reloads", "count", CountOrZero),
        ("sweep.cells", "count", CountOrZero),
        ("sweep.warm_cells", "count", CountOrZero),
        ("sweep.retries", "count", CountOrZero),
        ("sweep.quarantined", "count", CountOrZero),
        ("sweep.parallel_eff", "ratio", CountOrZero),
        ("trace.untraced_ms", "ms", Measured),
        ("trace.traced_ms", "ms", Measured),
        ("trace.overhead_ms", "ms", Measured),
        ("trace.self_sum_ms", "ms", Measured),
        ("trace.spans", "count", Measured),
    ]
};

/// Names and units of the per-layer metrics (for the check mode).
pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
}

/// Order the per-layer metrics as listed, filling absent counts of
/// layers this workload does not run with 0. An absent measured metric
/// is a harness bug, not a zero.
pub fn complete(have: &[Metric]) -> Result<Vec<Metric>, String> {
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit, kind) in &PER_LAYER {
        match have.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit => out.push(m.clone()),
            Some(m) => return Err(format!("{name} has unit {} not {unit}", m.unit)),
            None if kind == Kind::CountOrZero => out.push(Metric {
                name: name.to_string(),
                value: 0.0,
                unit,
            }),
            None => return Err(format!("traced run measured no {name}")),
        }
    }
    Ok(out)
}

/// Counts returned by layer calls, one sample per call.
#[derive(Default)]
pub struct Counts {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Counts {
    pub fn add(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }
    pub fn median(&self, key: &str) -> Option<f64> {
        self.samples.get(key).map(|v| median(v))
    }
}

/// Simulate one campaign.
pub fn simulate(ctx: &Ctx, parent: u64, counts: &mut Counts, config: &ScenarioConfig) -> Campaign {
    let campaign = {
        let _s = ctx.tracer.span("scenario.run", parent);
        dmsa_scenario::run(config)
    };
    counts.add("scenario.events", campaign.events_processed as f64);
    campaign
}

/// Encode a campaign and write it to `path` the way `dmsa simulate
/// --out` does (atomic replace with fsync). Returns the bytes written.
pub fn write_export(
    ctx: &Ctx,
    parent: u64,
    counts: &mut Counts,
    campaign: &Campaign,
    path: &Path,
) -> Result<String, String> {
    let json = {
        let _s = ctx.tracer.span("export.write", parent);
        let json = CampaignExport::from_campaign(campaign).to_json();
        write_atomic(path, json.as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        json
    };
    counts.add("export.bytes", json.len() as f64);
    Ok(json)
}

/// Read an export file back through the lenient (quarantining) loader.
pub fn load_export(
    ctx: &Ctx,
    parent: u64,
    counts: &mut Counts,
    path: &Path,
) -> Result<LoadedExport, String> {
    let loaded = {
        let _s = ctx.tracer.span("export.load", parent);
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        CampaignExport::from_json_lenient(&src)?
    };
    counts.add("export.quarantined", loaded.quarantine.total() as f64);
    Ok(loaded)
}

/// What the analysis layers produced for one export.
pub struct Analysis {
    /// Exact, RM1, RM2 (in [`MatchMethod::ALL`] order).
    pub sets: Vec<MatchSet>,
    pub scored: MatchSet,
    /// `(report name, text)` for every report, rendered without matches.
    pub reports: Vec<(&'static str, String)>,
}

/// Build the prepared index, match with every method, and render every
/// report, as an analyst does after loading an export.
pub fn analyze(
    ctx: &Ctx,
    parent: u64,
    counts: &mut Counts,
    export: &CampaignExport,
) -> Result<Analysis, String> {
    let sets = {
        let prepared = {
            let _s = ctx.tracer.span("prepared.build", parent);
            PreparedStore::build(&export.store)
        };
        counts.add(
            "match.window_jobs",
            prepared.window_universe(export.window).len() as f64,
        );
        MatchMethod::ALL
            .iter()
            .zip(MATCH_SPANS)
            .map(|(&m, span)| {
                let _s = ctx.tracer.span(span, parent);
                prepared.par_match_window(export.window, m)
            })
            .collect::<Vec<_>>()
    };
    for (set, key) in sets
        .iter()
        .zip(["match.exact_jobs", "match.rm1_jobs", "match.rm2_jobs"])
    {
        counts.add(key, set.n_matched_jobs() as f64);
    }
    let scored = {
        let _s = ctx.tracer.span("match.scored", parent);
        ScoredMatcher::default().match_jobs_scored(&export.store, export.window, SCORED_DEFAULT)
    };
    let inputs = report_inputs(export);
    let mut reports = Vec::with_capacity(REPORT_NAMES.len());
    for (&name, span) in REPORT_NAMES.iter().zip(REPORT_SPANS) {
        let text = {
            let _s = ctx.tracer.span(span, parent);
            render_report_string(&inputs, name, None, None)
        }
        .map_err(|e| format!("report {name}: {e}"))?;
        reports.push((name, text));
    }
    Ok(Analysis {
        sets,
        scored,
        reports,
    })
}

pub fn report_inputs(export: &CampaignExport) -> ReportInputs<'_> {
    ReportInputs {
        store: &export.store,
        window: export.window,
        path_stats: export.path_stats,
        health: export.health.as_ref(),
    }
}

/// Exact ⊆ RM1 ⊆ RM2: for every pair of methods where one subsumes the
/// other, the looser set contains the stricter one job by job.
pub fn check_subsumption(sets: &[MatchSet]) -> Result<(), String> {
    for a in sets {
        for b in sets {
            if a.method.subsumes(b.method) && !a.contains(b) {
                return Err(format!(
                    "{} does not contain {} although it subsumes it",
                    a.method.label(),
                    b.method.label()
                ));
            }
        }
    }
    Ok(())
}

/// Per-layer time metrics from the traced spans (median duration of
/// each layer's calls), plus rates and counts from the layer calls.
pub fn emit(ctx: &Ctx, counts: &Counts, report: &mut Report) {
    let spans = ctx.tracer.spans();
    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &spans {
        times.entry(s.name).or_default().push(s.dur_s());
    }
    let t = |name: &str| times.get(name).map(|v| median(v));
    for name in TIMED_SPANS {
        if let Some(v) = t(name) {
            report.layer(&format!("{name}_s"), v, "s");
        }
    }
    let rate = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    };
    for (key, unit) in [
        ("scenario.events", "count"),
        ("export.bytes", "bytes"),
        ("export.quarantined", "count"),
        ("match.exact_jobs", "count"),
        ("match.rm1_jobs", "count"),
        ("match.rm2_jobs", "count"),
    ] {
        if let Some(v) = counts.median(key) {
            report.layer(key, v, unit);
        }
    }
    let mb = counts.median("export.bytes").map(|b| b / 1e6);
    let rates = [
        (
            "scenario.events_per_s",
            rate(counts.median("scenario.events"), t("scenario.run")),
            "1/s",
        ),
        ("export.write_mb_per_s", rate(mb, t("export.write")), "MB/s"),
        ("export.load_mb_per_s", rate(mb, t("export.load")), "MB/s"),
        (
            "match.jobs_per_s",
            rate(
                counts.median("match.window_jobs"),
                MATCH_SPANS
                    .iter()
                    .map(|s| t(s))
                    .sum::<Option<f64>>()
                    .map(|s| s / 3.0),
            ),
            "1/s",
        ),
    ];
    for (name, v, unit) in rates {
        if let Some(v) = v {
            report.layer(name, v, unit);
        }
    }
}

/// Self time per layer under the spans named in `roots` (one root span
/// per measured operation), as a table whose shares sum to the traced
/// operation time; also the traced-minus-untraced overhead metrics.
pub fn trace_summary(
    ctx: &Ctx,
    roots: &[&str],
    untraced_ms: f64,
    traced_ms: f64,
    report: &mut Report,
) {
    let spans = ctx.tracer.spans();
    // Keep only the trees under root spans.
    let mut keep: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.parent == 0 && roots.contains(&s.name))
        .map(|s| s.id)
        .collect();
    let n_roots = keep.len().max(1) as f64;
    loop {
        let before = keep.len();
        for s in &spans {
            if keep.contains(&s.parent) {
                keep.insert(s.id);
            }
        }
        if keep.len() == before {
            break;
        }
    }
    let tree: Vec<_> = spans.into_iter().filter(|s| keep.contains(&s.id)).collect();
    let layer = crate::trace::layer_times(&tree);
    let self_sum: f64 = layer.values().map(|l| l.self_s).sum();
    let root_total: f64 = roots
        .iter()
        .filter_map(|r| layer.get(r))
        .map(|l| l.total_s)
        .sum();
    let mut s = format!(
        "traced {}: {} op(s); self time per op by layer (shares of the traced op):\n",
        roots.join("|"),
        n_roots
    );
    for (name, l) in &layer {
        s.push_str(&format!(
            "  {:<22} calls {:>6}  self {:>12.6} s/op  share {:>6.2}%\n",
            name,
            l.calls,
            l.self_s / n_roots,
            100.0 * l.self_s / self_sum.max(f64::MIN_POSITIVE)
        ));
    }
    s.push_str(&format!(
        "  sum of self times {:.6} s = traced root time {:.6} s\n  untraced op {untraced_ms:.3} ms + overhead {:.3} ms = traced op {traced_ms:.3} ms\n",
        self_sum,
        root_total,
        traced_ms - untraced_ms
    ));
    report.trace_table = s;
    report.layer("trace.untraced_ms", untraced_ms, "ms");
    report.layer("trace.traced_ms", traced_ms, "ms");
    report.layer("trace.overhead_ms", traced_ms - untraced_ms, "ms");
    report.layer("trace.self_sum_ms", 1e3 * self_sum / n_roots, "ms");
}

//! # dmsa-bench
//!
//! The benchmark/repro harness. Two consumers:
//!
//! * the **`repro` binary** (`cargo run -p dmsa-bench --bin repro`), which
//!   regenerates every table and figure of the paper's evaluation section
//!   and prints them in the paper's layout — see `EXPERIMENTS.md` for the
//!   paper-vs-measured record;
//! * the **criterion benches** (`cargo bench -p dmsa-bench`), one target
//!   per table/figure plus ablations (matcher engines, corruption sweep).
//!
//! [`ReproContext`] bundles the pieces every experiment needs: one 8-day
//! campaign, the three match sets, and the per-job overlap records.

use dmsa_analysis::overlap::{all_overlaps, JobTransferOverlap};
use dmsa_core::{MatchMethod, MatchSet, PreparedStore};
use dmsa_scenario::{Campaign, ScenarioConfig};

/// Everything the §5 experiments share.
pub struct ReproContext {
    /// The 8-day campaign.
    pub campaign: Campaign,
    /// Exact (Algorithm 1) match set.
    pub exact: MatchSet,
    /// RM1 match set.
    pub rm1: MatchSet,
    /// RM2 match set.
    pub rm2: MatchSet,
    /// Per-job overlaps for the exact set (most figures use these).
    pub overlaps_exact: Vec<JobTransferOverlap>,
    /// Per-job overlaps for the RM2 set (Fig 12 needs relaxed matches).
    pub overlaps_rm2: Vec<JobTransferOverlap>,
}

impl ReproContext {
    /// Run the 8-day campaign at `scale` and match with all strategies.
    pub fn build(scale: f64, seed: u64) -> Self {
        let config = ScenarioConfig {
            seed,
            ..ScenarioConfig::paper_8day(scale)
        };
        Self::from_config(&config)
    }

    /// Same, from an explicit config.
    pub fn from_config(config: &ScenarioConfig) -> Self {
        let campaign = dmsa_scenario::run(config);
        // One prepared index serves all three methods (it used to be
        // rebuilt per strategy).
        let prepared = PreparedStore::build(&campaign.store);
        let m = |method| prepared.par_match_window(campaign.window, method);
        let exact = m(MatchMethod::Exact);
        let rm1 = m(MatchMethod::Rm1);
        let rm2 = m(MatchMethod::Rm2);
        drop(prepared);
        let overlaps_exact = all_overlaps(&campaign.store, &exact);
        let overlaps_rm2 = all_overlaps(&campaign.store, &rm2);
        ReproContext {
            campaign,
            exact,
            rm1,
            rm2,
            overlaps_exact,
            overlaps_rm2,
        }
    }

    /// The match set for a method.
    pub fn set(&self, method: MatchMethod) -> &MatchSet {
        match method {
            MatchMethod::Exact => &self.exact,
            MatchMethod::Rm1 => &self.rm1,
            MatchMethod::Rm2 => &self.rm2,
        }
    }
}

/// `num / den` with the denominator clamped away from zero. Every
/// throughput and speedup ratio in the tracked baselines goes through
/// this one helper: the JSON writers are hand-rolled, and a naked
/// division by a sub-resolution wall clock would put `inf`/`NaN` in a
/// tracked file — which is not even valid JSON.
pub fn safe_ratio(num: f64, den: f64) -> f64 {
    num / den.max(1e-9)
}

/// Render an optional byte count for a tracked-JSON writer: `null` when
/// the measurement is unavailable, never a fake `0`.
pub fn json_opt_u64(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

/// Human-readable formatting used by the repro binary's tables.
pub mod fmt {
    /// Format bytes with a binary-decimal mix matching the paper (PB/TB/GB).
    pub fn bytes(b: u64) -> String {
        let b = b as f64;
        const UNITS: [(&str, f64); 5] = [
            ("PB", 1e15),
            ("TB", 1e12),
            ("GB", 1e9),
            ("MB", 1e6),
            ("KB", 1e3),
        ];
        for (name, scale) in UNITS {
            // Roll over to the larger unit as soon as the *rounded* value
            // would reach it: 999_995 B is "1.00 MB", not "1000.00 KB".
            if b >= scale * 0.999995 {
                return format!("{:.2} {name}", b / scale);
            }
        }
        format!("{b:.0} B")
    }

    /// Percentage with two decimals.
    pub fn pct(num: usize, den: usize) -> String {
        if den == 0 {
            "n/a".to_string()
        } else {
            format!("{:.2}%", 100.0 * num as f64 / den as f64)
        }
    }
}

/// Peak resident memory, shared by the tracked-baseline binaries.
pub mod rss {
    /// Peak resident set size of this process in bytes.
    ///
    /// Reads `VmHWM` from `/proc/self/status` (Linux). On platforms
    /// without procfs this returns `None` and reports record the value
    /// as JSON `null` — the throughput numbers are the portable part of
    /// the baseline, the memory figure is best-effort, and an honest
    /// absence beats a fake `0` that cross-run comparisons would read
    /// as "memory regressed to nothing".
    pub fn peak_rss_bytes() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
}

/// The tracked simulation-throughput baseline (`BENCH_sim.json`).
///
/// The `bench_sim` binary runs the two paper campaigns at fixed scales
/// and records wall time, delivered-event throughput, store population,
/// and peak RSS. With heap comparison enabled it re-runs each preset on
/// the reference `BinaryHeap` event queue and verifies the exported
/// store is identical before reporting the speedup.
pub mod sim_report {
    use dmsa_scenario::{Campaign, DrainOpts, ScenarioConfig};
    use dmsa_simcore::QueueBackend;
    use std::time::Instant;

    /// Reference-queue comparison leg of one preset.
    #[derive(Clone, Debug)]
    pub struct HeapLeg {
        /// Wall seconds on the `BinaryHeap` backend.
        pub wall_s: f64,
        /// Events per second on the `BinaryHeap` backend.
        pub events_per_s: f64,
        /// Calendar-queue speedup (`events_per_s / heap events_per_s`).
        pub speedup: f64,
        /// The two backends exported identical stores (must be true).
        pub exports_identical: bool,
    }

    /// One preset measurement.
    #[derive(Clone, Debug)]
    pub struct PresetResult {
        /// Preset label (`paper_8day`, `paper_92day`).
        pub name: &'static str,
        /// Campaign scale factor.
        pub scale: f64,
        /// Master seed.
        pub seed: u64,
        /// Events the queue delivered.
        pub events: u64,
        /// Exported store population.
        pub jobs: usize,
        /// Exported store population.
        pub transfers: usize,
        /// Wall seconds on the calendar queue (campaign + export).
        pub wall_s: f64,
        /// Delivered events per wall second.
        pub events_per_s: f64,
        /// Reference-queue leg, when comparison was requested.
        pub heap: Option<HeapLeg>,
    }

    /// The whole baseline.
    #[derive(Clone, Debug)]
    pub struct SimReport {
        /// Per-preset measurements.
        pub presets: Vec<PresetResult>,
        /// Peak RSS after all runs (`None` when the platform cannot
        /// measure it; written as JSON `null`, and cross-run comparisons
        /// skip the memory column rather than diff against a fake 0).
        pub peak_rss_bytes: Option<u64>,
    }

    fn timed_run(config: &ScenarioConfig, backend: QueueBackend) -> (Campaign, f64) {
        let start = Instant::now();
        let opts = DrainOpts {
            backend,
            ..DrainOpts::default()
        };
        let campaign = dmsa_scenario::drain(config, opts).expect("an unwatched drain cannot fail");
        (campaign, start.elapsed().as_secs_f64())
    }

    /// Run one preset; `compare_heap` re-runs it on the reference queue.
    pub fn measure_preset(
        name: &'static str,
        config: &ScenarioConfig,
        scale: f64,
        compare_heap: bool,
    ) -> PresetResult {
        let (campaign, wall_s) = timed_run(config, QueueBackend::Calendar);
        let events = campaign.events_processed;
        let events_per_s = crate::safe_ratio(events as f64, wall_s);
        let heap = compare_heap.then(|| {
            let (hc, heap_wall) = timed_run(config, QueueBackend::BinaryHeap);
            let heap_eps = crate::safe_ratio(hc.events_processed as f64, heap_wall);
            HeapLeg {
                wall_s: heap_wall,
                events_per_s: heap_eps,
                speedup: crate::safe_ratio(events_per_s, heap_eps),
                exports_identical: hc.events_processed == events && hc.store == campaign.store,
            }
        });
        PresetResult {
            name,
            scale,
            seed: config.seed,
            events,
            jobs: campaign.store.jobs.len(),
            transfers: campaign.store.transfers.len(),
            wall_s,
            events_per_s,
            heap,
        }
    }

    impl SimReport {
        /// Serialize as stable, hand-rolled JSON (same discipline as
        /// `BENCH_matching.json`: flat keys, fixed order, clean diffs).
        pub fn to_json(&self) -> String {
            let mut out = String::from("{\n  \"presets\": [\n");
            for (i, p) in self.presets.iter().enumerate() {
                let sep = if i + 1 == self.presets.len() { "" } else { "," };
                out.push_str(&format!(
                    "    {{\"name\": \"{}\", \"scale\": {}, \"seed\": {}, \
                     \"events\": {}, \"jobs\": {}, \"transfers\": {}, \
                     \"wall_s\": {:.3}, \"events_per_s\": {:.1}",
                    p.name,
                    p.scale,
                    p.seed,
                    p.events,
                    p.jobs,
                    p.transfers,
                    p.wall_s,
                    p.events_per_s
                ));
                if let Some(h) = &p.heap {
                    out.push_str(&format!(
                        ", \"heap_wall_s\": {:.3}, \"heap_events_per_s\": {:.1}, \
                         \"speedup\": {:.2}, \"exports_identical\": {}",
                        h.wall_s, h.events_per_s, h.speedup, h.exports_identical
                    ));
                }
                out.push_str(&format!("}}{sep}\n"));
            }
            out.push_str(&format!(
                "  ],\n  \"peak_rss_bytes\": {}\n}}\n",
                crate::json_opt_u64(self.peak_rss_bytes)
            ));
            out
        }
    }
}

/// The tracked matching-benchmark baseline (`BENCH_matching.json`).
///
/// The `bench_matching` binary measures prepared-index build time and
/// per-engine matching throughput on one campaign and emits this report.
/// The JSON is written by hand (flat, stable key order) so the file diffs
/// cleanly between baseline updates.
pub mod report {
    use dmsa_core::matcher::Matcher;
    use dmsa_core::{IndexedMatcher, MatchMethod, NaiveMatcher, ParallelMatcher, PreparedStore};
    use dmsa_scenario::Campaign;
    use std::time::Instant;

    /// One engine × method measurement.
    #[derive(Clone, Debug)]
    pub struct EngineTiming {
        /// Engine label (`naive`, `indexed`, `parallel`, `prepared`).
        pub engine: &'static str,
        /// Method label (`Exact`, `RM1`, `RM2`).
        pub method: &'static str,
        /// Wall-clock milliseconds for one full matching pass.
        pub millis: f64,
        /// Universe jobs matched per second.
        pub jobs_per_s: f64,
        /// Jobs with a non-empty match (equal across engines).
        pub matched_jobs: usize,
    }

    /// The whole baseline.
    #[derive(Clone, Debug)]
    pub struct MatchingReport {
        /// Campaign scale factor.
        pub scale: f64,
        /// Store population.
        pub jobs: usize,
        /// Store population.
        pub transfers: usize,
        /// Size of the matching universe (user jobs in the window).
        pub universe: usize,
        /// One-off `PreparedStore::build` wall time (milliseconds).
        pub build_ms: f64,
        /// Shared-index pass over all three methods, build included once
        /// (milliseconds) — the number the tentpole optimizes.
        pub shared_all_methods_ms: f64,
        /// Peak RSS when the measurement finished (`None` when the
        /// platform cannot measure it; written as JSON `null`).
        pub peak_rss_bytes: Option<u64>,
        /// Per-engine timings.
        pub engines: Vec<EngineTiming>,
    }

    /// Measure every engine on `campaign`. `include_naive` guards the
    /// quadratic reference engine, which is only tolerable on small
    /// stores.
    pub fn measure(campaign: &Campaign, scale: f64, include_naive: bool) -> MatchingReport {
        let store = &campaign.store;
        let window = campaign.window;
        let universe = store.user_jobs_in(window).count();
        let time = |f: &mut dyn FnMut() -> usize| -> (f64, usize) {
            let start = Instant::now();
            let matched = f();
            (start.elapsed().as_secs_f64() * 1e3, matched)
        };

        let (build_ms, _) = time(&mut || PreparedStore::build(store).task_pool(0).len());

        let (shared_all_methods_ms, _) = time(&mut || {
            let prepared = PreparedStore::build(store);
            MatchMethod::ALL
                .iter()
                .map(|&m| prepared.par_match_window(window, m).n_matched_jobs())
                .sum()
        });

        let mut engines = Vec::new();
        let prepared = PreparedStore::build(store);
        for method in MatchMethod::ALL {
            let label = method.label();
            let mut row = |engine: &'static str, f: &mut dyn FnMut() -> usize| {
                let (millis, matched_jobs) = time(f);
                engines.push(EngineTiming {
                    engine,
                    method: label,
                    millis,
                    jobs_per_s: crate::safe_ratio(universe as f64, millis / 1e3),
                    matched_jobs,
                });
            };
            if include_naive {
                row("naive", &mut || {
                    NaiveMatcher
                        .match_jobs(store, window, method)
                        .n_matched_jobs()
                });
            }
            row("indexed", &mut || {
                IndexedMatcher
                    .match_jobs(store, window, method)
                    .n_matched_jobs()
            });
            row("parallel", &mut || {
                ParallelMatcher
                    .match_jobs(store, window, method)
                    .n_matched_jobs()
            });
            // The prepared engine amortizes its build: time the reuse path.
            row("prepared", &mut || {
                prepared.par_match_window(window, method).n_matched_jobs()
            });
        }

        MatchingReport {
            scale,
            jobs: store.jobs.len(),
            transfers: store.transfers.len(),
            universe,
            build_ms,
            shared_all_methods_ms,
            peak_rss_bytes: crate::rss::peak_rss_bytes(),
            engines,
        }
    }

    impl MatchingReport {
        /// Serialize as stable, hand-rolled JSON.
        pub fn to_json(&self) -> String {
            let mut out = String::from("{\n");
            out.push_str(&format!("  \"scale\": {},\n", self.scale));
            out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
            out.push_str(&format!("  \"transfers\": {},\n", self.transfers));
            out.push_str(&format!("  \"universe\": {},\n", self.universe));
            out.push_str(&format!("  \"build_ms\": {:.3},\n", self.build_ms));
            out.push_str(&format!(
                "  \"shared_all_methods_ms\": {:.3},\n",
                self.shared_all_methods_ms
            ));
            out.push_str(&format!(
                "  \"peak_rss_bytes\": {},\n",
                crate::json_opt_u64(self.peak_rss_bytes)
            ));
            out.push_str("  \"engines\": [\n");
            for (i, e) in self.engines.iter().enumerate() {
                let sep = if i + 1 == self.engines.len() { "" } else { "," };
                out.push_str(&format!(
                    "    {{\"engine\": \"{}\", \"method\": \"{}\", \"millis\": {:.3}, \
                     \"jobs_per_s\": {:.1}, \"matched_jobs\": {}}}{sep}\n",
                    e.engine, e.method, e.millis, e.jobs_per_s, e.matched_jobs
                ));
            }
            out.push_str("  ]\n}\n");
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt::bytes(0), "0 B");
        assert_eq!(fmt::bytes(1_500), "1.50 KB");
        assert_eq!(fmt::bytes(2_000_000_000), "2.00 GB");
        assert_eq!(fmt::bytes(957_980_000_000_000_000), "957.98 PB");
    }

    #[test]
    fn fmt_bytes_rounds_up_at_unit_boundaries() {
        // Values whose two-decimal rounding reaches the next unit must
        // print in that unit, never as "1000.00 <smaller unit>".
        assert_eq!(fmt::bytes(999_995), "1.00 MB");
        assert_eq!(fmt::bytes(999_994), "999.99 KB");
        assert_eq!(fmt::bytes(999_995_000_000), "1.00 TB");
        assert_eq!(fmt::bytes(999_999_999_999), "1.00 TB");
        for b in [999_994, 999_995, 1_000_000, 999_999_999_999u64] {
            assert!(
                !fmt::bytes(b).starts_with("1000."),
                "{b} printed as {}",
                fmt::bytes(b)
            );
        }
    }

    #[test]
    fn fmt_pct() {
        assert_eq!(fmt::pct(1, 52), "1.92%");
        assert_eq!(fmt::pct(0, 0), "n/a");
    }

    #[test]
    fn context_builds_and_is_monotone() {
        let ctx = ReproContext::from_config(&ScenarioConfig::small());
        assert!(ctx.rm1.contains(&ctx.exact));
        assert!(ctx.rm2.contains(&ctx.rm1));
        assert_eq!(ctx.overlaps_exact.len(), ctx.exact.n_matched_jobs());
    }

    #[test]
    fn matching_report_measures_all_engines_consistently() {
        let campaign = dmsa_scenario::run(&ScenarioConfig::small());
        let r = report::measure(&campaign, 1.0, true);
        assert_eq!(r.jobs, campaign.store.jobs.len());
        assert_eq!(r.engines.len(), 12, "4 engines x 3 methods");
        assert!(r.build_ms >= 0.0 && r.shared_all_methods_ms >= 0.0);
        // Every engine must agree on the matched-job counts per method.
        for method in ["Exact", "RM1", "RM2"] {
            let counts: Vec<usize> = r
                .engines
                .iter()
                .filter(|e| e.method == method)
                .map(|e| e.matched_jobs)
                .collect();
            assert!(!counts.is_empty());
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "engines disagree under {method}: {counts:?}"
            );
        }
    }

    #[test]
    fn safe_ratio_is_always_finite() {
        assert!(safe_ratio(1e9, 0.0).is_finite());
        assert!(safe_ratio(0.0, 0.0).is_finite());
        assert_eq!(safe_ratio(10.0, 2.0), 5.0);
    }

    #[test]
    fn unmeasurable_rss_is_null_not_zero() {
        assert_eq!(json_opt_u64(None), "null");
        assert_eq!(json_opt_u64(Some(123)), "123");
        let r = sim_report::SimReport {
            presets: vec![],
            peak_rss_bytes: None,
        };
        assert!(r.to_json().contains("\"peak_rss_bytes\": null"));
        let campaign = dmsa_scenario::run(&ScenarioConfig::small());
        let mut m = report::measure(&campaign, 1.0, false);
        m.peak_rss_bytes = None;
        assert!(m.to_json().contains("\"peak_rss_bytes\": null"));
        assert!(!m.to_json().contains("\"peak_rss_bytes\": 0"));
    }

    #[test]
    fn zero_wall_clock_still_emits_valid_json() {
        // A sub-resolution wall clock exercises every clamped ratio; the
        // hand-rolled writer must never see inf/NaN.
        let leg = sim_report::HeapLeg {
            wall_s: 0.0,
            events_per_s: safe_ratio(1e6, 0.0),
            speedup: safe_ratio(safe_ratio(1e6, 0.0), safe_ratio(1e6, 0.0)),
            exports_identical: true,
        };
        let r = sim_report::SimReport {
            presets: vec![sim_report::PresetResult {
                name: "degenerate",
                scale: 0.0,
                seed: 1,
                events: 1_000_000,
                jobs: 0,
                transfers: 0,
                wall_s: 0.0,
                events_per_s: safe_ratio(1e6, 0.0),
                heap: Some(leg),
            }],
            peak_rss_bytes: None,
        };
        let json = r.to_json();
        for bad in ["inf", "NaN", "nan"] {
            assert!(!json.contains(bad), "{bad} leaked into {json}");
        }
        assert!(json.contains("\"speedup\": 1.00"));
    }

    #[test]
    fn matching_report_json_shape() {
        let campaign = dmsa_scenario::run(&ScenarioConfig::small());
        let r = report::measure(&campaign, 0.5, false);
        let json = r.to_json();
        for key in [
            "\"scale\"",
            "\"jobs\"",
            "\"transfers\"",
            "\"universe\"",
            "\"build_ms\"",
            "\"shared_all_methods_ms\"",
            "\"peak_rss_bytes\"",
            "\"engines\"",
            "\"jobs_per_s\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("\"naive\""), "naive must be opt-in");
        assert!(json.contains("\"prepared\""));
        // Balanced braces/brackets (cheap well-formedness check that does
        // not require a JSON parser).
        let count = |c: char| json.chars().filter(|&x| x == c).count();
        assert_eq!(count('{'), count('}'));
        assert_eq!(count('['), count(']'));
        assert!(json.ends_with("}\n"));
    }
}

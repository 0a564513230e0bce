//! Scored (probabilistic) matching — an extension beyond the paper.
//!
//! The paper's three strategies are *binary*: a candidate either passes
//! every filter or is discarded. §4.3 concedes that "any advanced
//! algorithm trying to capture these cases would still be approximate";
//! this module builds that approximate algorithm and — because the
//! simulator has ground truth — measures exactly what the approximation
//! buys.
//!
//! Each candidate (job, transfer) pair receives a score in `[0, 1]`
//! composed of independent evidence terms:
//!
//! * **time proximity** — a stage-in should start after the job's creation
//!   and end near its start; an upload should hug the job's end;
//! * **site consistency** — exact endpoint match scores 1, an
//!   unknown/invalid endpoint scores a neutral prior, a *conflicting*
//!   valid endpoint scores 0;
//! * **byte-sum consistency** — how close the per-direction candidate sum
//!   lands to the job's recorded totals (tolerant of the accounting skew
//!   RM1 throws away entirely).
//!
//! Thresholding the score yields a tunable precision/recall trade-off:
//! `threshold → 1` approaches exact matching, low thresholds approach
//! RM2-with-extra-recall. [`ScoredMatcher::match_jobs_scored`] returns the
//! scores so callers (and the `ablations` bench) can sweep the curve.

use crate::matcher::Matcher;
use crate::matchset::{MatchSet, MatchedJob};
use crate::method::MatchMethod;
use crate::prepared::PreparedStore;
use dmsa_metastore::{JobRecord, MetaStore, TransferRecord};
use dmsa_simcore::interval::Interval;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Weights and shape parameters of the score.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScoreParams {
    /// Weight of the time-proximity term.
    pub w_time: f64,
    /// Weight of the site-consistency term.
    pub w_site: f64,
    /// Weight of the byte-sum term.
    pub w_bytes: f64,
    /// Neutral prior for unknown/invalid endpoints.
    pub unknown_site_prior: f64,
    /// Time-decay constant (seconds) for out-of-window slack.
    pub time_decay_secs: f64,
    /// Relative byte-sum error at which the bytes term halves.
    pub bytes_half_error: f64,
}

impl Default for ScoreParams {
    fn default() -> Self {
        ScoreParams {
            w_time: 0.35,
            w_site: 0.40,
            w_bytes: 0.25,
            unknown_site_prior: 0.6,
            time_decay_secs: 6.0 * 3_600.0,
            bytes_half_error: 0.02,
        }
    }
}

/// One scored candidate pair.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ScoredPair {
    /// Index into `store.jobs`.
    pub job_idx: u32,
    /// Index into `store.transfers`.
    pub transfer_idx: u32,
    /// Composite score in `[0, 1]`.
    pub score: f64,
}

/// The scored matcher.
#[derive(Clone, Debug, Default)]
pub struct ScoredMatcher {
    params: ScoreParams,
}

impl ScoredMatcher {
    /// The balanced threshold used when none is given (`scored` without
    /// `:T` on the command line and in `dmsa serve`).
    pub const DEFAULT_THRESHOLD: f64 = 0.75;

    /// Matcher with explicit parameters.
    pub fn new(params: ScoreParams) -> Self {
        ScoredMatcher { params }
    }

    /// Parameters in effect.
    pub fn params(&self) -> &ScoreParams {
        &self.params
    }

    /// Time-proximity evidence for one candidate.
    fn time_score(&self, job: &JobRecord, t: &TransferRecord) -> f64 {
        // Hard floor of Algorithm 1: transfers starting after the job
        // ended can never belong to it.
        if t.starttime >= job.endtime {
            return 0.0;
        }
        // Slack: how far outside [creation, end] the transfer reaches.
        let before = (job.creationtime - t.starttime).clamp_non_negative();
        let slack_secs = before.as_secs_f64();
        (-slack_secs / self.params.time_decay_secs).exp()
    }

    /// Site-consistency evidence.
    fn site_score(&self, job: &JobRecord, t: &TransferRecord, store: &MetaStore) -> f64 {
        let endpoint = if t.is_download {
            t.destination_site
        } else {
            t.source_site
        };
        if endpoint == job.computingsite {
            1.0
        } else if !store.is_valid_site(endpoint) {
            self.params.unknown_site_prior
        } else {
            0.0
        }
    }

    /// Byte-sum evidence for a whole direction group.
    fn bytes_score(&self, group_sum: u64, expected: u64) -> f64 {
        if expected == 0 {
            return if group_sum == 0 { 1.0 } else { 0.5 };
        }
        let rel_err = (group_sum as f64 - expected as f64).abs() / expected as f64;
        // Smooth decay: exact sum scores 1, `bytes_half_error` scores 0.5.
        1.0 / (1.0 + rel_err / self.params.bytes_half_error)
    }

    /// Score every candidate of every user job in `window`.
    ///
    /// Builds a throwaway [`PreparedStore`]; use
    /// [`ScoredMatcher::score_all_prepared`] to reuse one across calls.
    pub fn score_all(&self, store: &MetaStore, window: Interval) -> Vec<ScoredPair> {
        self.score_all_prepared(&PreparedStore::build(store), window)
    }

    /// Score every candidate of every user job in `window`, over a shared
    /// prepared index.
    ///
    /// Candidates whose start time falls at or after the job's end are
    /// pre-filtered by the index's range scan; those pairs carry a time
    /// score of exactly 0 and were discarded here anyway, so the scores
    /// (and sums) are unchanged.
    pub fn score_all_prepared(
        &self,
        prepared: &PreparedStore<'_>,
        window: Interval,
    ) -> Vec<ScoredPair> {
        let store = prepared.store;
        let universe = prepared.window_universe(window);
        universe
            .par_iter()
            .flat_map_iter(|&job_idx| {
                let job = &store.jobs[job_idx as usize];
                let candidates = prepared.candidates(job_idx);
                // Per-direction sums over plausibly matching candidates
                // (time + non-conflicting site), for the bytes term.
                let mut dl_sum = 0u64;
                let mut ul_sum = 0u64;
                let plausible: Vec<(u32, f64, f64)> = candidates
                    .iter()
                    .map(|&ti| {
                        let t = &store.transfers[ti as usize];
                        let ts = self.time_score(job, t);
                        let ss = self.site_score(job, t, store);
                        if ts > 0.0 && ss > 0.0 {
                            if t.is_download {
                                dl_sum += t.file_size;
                            } else {
                                ul_sum += t.file_size;
                            }
                        }
                        (ti, ts, ss)
                    })
                    .collect();
                let dl_bytes = self.bytes_score(dl_sum, job.ninputfilebytes);
                let ul_bytes = self.bytes_score(ul_sum, job.noutputfilebytes);
                let p = self.params.clone();
                plausible
                    .into_iter()
                    .filter(|&(_, ts, ss)| ts > 0.0 && ss > 0.0)
                    .map(move |(ti, ts, ss)| {
                        let is_download = store.transfers[ti as usize].is_download;
                        let bs = if is_download { dl_bytes } else { ul_bytes };
                        ScoredPair {
                            job_idx,
                            transfer_idx: ti,
                            score: p.w_time * ts + p.w_site * ss + p.w_bytes * bs,
                        }
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Threshold the scores into a [`MatchSet`] (reported under the RM2
    /// label, since scored matching is a strict generalization of it).
    ///
    /// Builds a throwaway [`PreparedStore`]; use
    /// [`ScoredMatcher::match_prepared_scored`] to reuse one across calls.
    pub fn match_jobs_scored(
        &self,
        store: &MetaStore,
        window: Interval,
        threshold: f64,
    ) -> MatchSet {
        self.match_prepared_scored(&PreparedStore::build(store), window, threshold)
    }

    /// Threshold the scores into a [`MatchSet`], over a shared prepared
    /// index. Equal to [`ScoredMatcher::match_jobs_scored`] on the
    /// index's store.
    pub fn match_prepared_scored(
        &self,
        prepared: &PreparedStore<'_>,
        window: Interval,
        threshold: f64,
    ) -> MatchSet {
        let mut pairs = self.score_all_prepared(prepared, window);
        pairs.retain(|p| p.score >= threshold);
        pairs.sort_by(|a, b| {
            a.job_idx
                .cmp(&b.job_idx)
                .then(a.transfer_idx.cmp(&b.transfer_idx))
        });
        let mut jobs: Vec<MatchedJob> = Vec::new();
        for p in pairs {
            match jobs.last_mut() {
                Some(last) if last.job_idx == p.job_idx => last.transfers.push(p.transfer_idx),
                _ => jobs.push(MatchedJob {
                    job_idx: p.job_idx,
                    transfers: vec![p.transfer_idx],
                }),
            }
        }
        MatchSet {
            method: MatchMethod::Rm2,
            jobs,
        }
    }
}

impl Matcher for ScoredMatcher {
    /// `Matcher` impl at the balanced [`ScoredMatcher::DEFAULT_THRESHOLD`].
    fn match_jobs(&self, store: &MetaStore, window: Interval, _method: MatchMethod) -> MatchSet {
        self.match_jobs_scored(store, window, Self::DEFAULT_THRESHOLD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::testutil::StoreBuilder;
    use crate::matcher::NaiveMatcher;

    #[test]
    fn perfect_candidates_score_near_one() {
        let mut b = StoreBuilder::new();
        let site = b.site("SITE-A");
        b.job_with_file(1, 10, site, 1_000, 0, 100, 200);
        b.download(1, 10, site, site, 1_000, 10, 50);
        let pairs = ScoredMatcher::default().score_all(&b.store, b.window());
        assert_eq!(pairs.len(), 1);
        assert!(pairs[0].score > 0.95, "score {}", pairs[0].score);
    }

    #[test]
    fn conflicting_site_scores_zero_and_is_dropped() {
        let mut b = StoreBuilder::new();
        let site = b.site("SITE-A");
        let other = b.site("SITE-B");
        b.job_with_file(1, 10, site, 1_000, 0, 100, 200);
        b.download(1, 10, other, other, 1_000, 10, 50);
        let pairs = ScoredMatcher::default().score_all(&b.store, b.window());
        assert!(pairs.is_empty());
    }

    #[test]
    fn unknown_site_scores_between_exact_and_conflict() {
        let mut b = StoreBuilder::new();
        let site = b.site("SITE-A");
        let unknown = dmsa_metastore::SymbolTable::UNKNOWN;
        b.job_with_file(1, 10, site, 1_000, 0, 100, 200);
        b.download(1, 10, site, unknown, 1_000, 10, 50);
        let pairs = ScoredMatcher::default().score_all(&b.store, b.window());
        assert_eq!(pairs.len(), 1);
        assert!(pairs[0].score > 0.5 && pairs[0].score < 0.95);
    }

    #[test]
    fn byte_skew_lowers_score_smoothly() {
        let score_with_skew = |skew: u64| {
            let mut b = StoreBuilder::new();
            let site = b.site("SITE-A");
            b.job_with_file(1, 10, site, 1_000, 0, 100, 200);
            b.store.jobs[0].ninputfilebytes = 1_000 + skew;
            b.download(1, 10, site, site, 1_000, 10, 50);
            ScoredMatcher::default().score_all(&b.store, b.window())[0].score
        };
        let s0 = score_with_skew(0);
        let s1 = score_with_skew(100);
        let s2 = score_with_skew(5_000);
        assert!(s0 > s1 && s1 > s2, "{s0} > {s1} > {s2} expected");
        assert!(s2 > 0.5, "even a bad sum keeps time+site evidence");
    }

    #[test]
    fn high_threshold_approaches_exact_matching() {
        let mut b = StoreBuilder::new();
        let site = b.site("SITE-A");
        // Clean job.
        b.job_with_file(1, 10, site, 1_000, 0, 100, 200);
        b.download(1, 10, site, site, 1_000, 10, 50);
        // Byte-skewed job (RM1 territory).
        b.job_with_file(2, 20, site, 2_000, 0, 100, 200);
        b.store.jobs[1].ninputfilebytes = 9_999;
        b.download(2, 20, site, site, 2_000, 10, 50);
        let w = b.window();
        let exact = NaiveMatcher.match_jobs(&b.store, w, MatchMethod::Exact);
        let strict = ScoredMatcher::default().match_jobs_scored(&b.store, w, 0.99);
        let loose = ScoredMatcher::default().match_jobs_scored(&b.store, w, 0.5);
        assert_eq!(strict.n_matched_jobs(), exact.n_matched_jobs());
        assert_eq!(loose.n_matched_jobs(), 2);
    }

    #[test]
    fn threshold_sweep_is_monotone() {
        let mut b = StoreBuilder::new();
        let site = b.site("SITE-A");
        let unknown = dmsa_metastore::SymbolTable::UNKNOWN;
        for i in 0..20u64 {
            b.job_with_file(i, 100 + i, site, 1_000 + i, 0, 100, 200);
            let dst = if i % 3 == 0 { unknown } else { site };
            b.download(i, 100 + i, site, dst, 1_000 + i, 10, 50);
            if i % 4 == 0 {
                b.store.jobs[i as usize].ninputfilebytes += 17;
            }
        }
        let w = b.window();
        let m = ScoredMatcher::default();
        let mut last = usize::MAX;
        for t in [0.2, 0.5, 0.8, 0.95, 1.01] {
            let n = m.match_jobs_scored(&b.store, w, t).n_matched_transfers();
            assert!(n <= last, "threshold {t} grew the match set");
            last = n;
        }
        assert_eq!(last, 0, "threshold above 1 matches nothing");
    }

    #[test]
    fn prepared_scored_matching_equals_the_building_path() {
        let mut b = StoreBuilder::new();
        let site = b.site("SITE-A");
        let unknown = dmsa_metastore::SymbolTable::UNKNOWN;
        for i in 0..30u64 {
            b.job_with_file(i, 100 + i, site, 1_000 + i, 0, 100, 200);
            let dst = if i % 3 == 0 { unknown } else { site };
            b.download(i, 100 + i, site, dst, 1_000 + i, 10, 50);
            if i % 4 == 0 {
                b.store.jobs[i as usize].ninputfilebytes += 40;
            }
        }
        let w = b.window();
        let m = ScoredMatcher::default();
        let prepared = PreparedStore::build(&b.store);
        for t in [0.6, 0.75, 0.9] {
            let built = m.match_jobs_scored(&b.store, w, t);
            assert!(built.n_matched_jobs() > 0, "threshold {t} matched nothing");
            assert_eq!(
                m.match_prepared_scored(&prepared, w, t),
                built,
                "threshold {t}"
            );
        }
    }

    #[test]
    fn late_transfers_never_match_any_threshold() {
        let mut b = StoreBuilder::new();
        let site = b.site("SITE-A");
        b.job_with_file(1, 10, site, 1_000, 0, 100, 200);
        b.download(1, 10, site, site, 1_000, 500, 600); // after job end
        let pairs = ScoredMatcher::default().score_all(&b.store, b.window());
        assert!(pairs.is_empty());
    }
}

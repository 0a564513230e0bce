//! JEDI tasks.

use crate::types::{IoMode, TaskId, TaskKind, TaskStatus};
use dmsa_rucio_sim::DatasetId;
use dmsa_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// A JEDI task: the unit users submit. Fans out into jobs that share its
/// `jeditaskid` and input dataset.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JediTask {
    /// `jeditaskid`.
    pub id: TaskId,
    /// User analysis or production.
    pub kind: TaskKind,
    /// Submitting user index (drives the DID scope of outputs).
    pub user: u32,
    /// Input dataset (already registered in the Rucio catalog).
    pub input_dataset: DatasetId,
    /// Number of jobs the task fans out into.
    pub n_jobs: u32,
    /// How the task's jobs read input.
    pub io_mode: IoMode,
    /// Submission instant.
    pub created: SimTime,
    /// Intrinsic quality: a "doomed" task (bad configuration, broken
    /// payload) fails most of its jobs regardless of infrastructure. This
    /// produces the paper's Fig 9 four-way (job, task) status split.
    pub doomed: bool,
}

/// Mutable task progress tracked by the scenario driver.
#[derive(Clone, Debug, Default)]
pub struct TaskProgress {
    /// Jobs finished successfully.
    pub n_finished: u32,
    /// Jobs failed.
    pub n_failed: u32,
}

impl TaskProgress {
    /// Record one job outcome.
    pub fn record(&mut self, success: bool) {
        if success {
            self.n_finished = self.n_finished.saturating_add(1);
        } else {
            self.n_failed = self.n_failed.saturating_add(1);
        }
    }

    /// All jobs accounted for?
    pub fn is_complete(&self, task: &JediTask) -> bool {
        self.n_finished + self.n_failed >= task.n_jobs
    }

    /// Final task status: failed if more than half its jobs failed, or if
    /// the task was doomed from the start.
    pub fn final_status(&self, task: &JediTask) -> TaskStatus {
        // Widened, so counts restored from a damaged checkpoint cannot
        // overflow.
        let failed = u64::from(self.n_failed);
        let total = (u64::from(self.n_finished) + failed).max(1);
        if task.doomed || failed * 2 > total {
            TaskStatus::Failed
        } else {
            TaskStatus::Done
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(n_jobs: u32, doomed: bool) -> JediTask {
        JediTask {
            id: TaskId(1),
            kind: TaskKind::UserAnalysis,
            user: 0,
            input_dataset: DatasetId(0),
            n_jobs,
            io_mode: IoMode::StageIn,
            created: SimTime::EPOCH,
            doomed,
        }
    }

    #[test]
    fn progress_counts_and_completion() {
        let t = task(3, false);
        let mut p = TaskProgress::default();
        p.record(true);
        p.record(false);
        assert!(!p.is_complete(&t));
        p.record(true);
        assert!(p.is_complete(&t));
        assert_eq!(p.n_finished, 2);
        assert_eq!(p.n_failed, 1);
    }

    #[test]
    fn healthy_task_with_minor_failures_is_done() {
        let t = task(4, false);
        let mut p = TaskProgress::default();
        for ok in [true, true, true, false] {
            p.record(ok);
        }
        assert_eq!(p.final_status(&t), TaskStatus::Done);
    }

    #[test]
    fn majority_failure_fails_task() {
        let t = task(4, false);
        let mut p = TaskProgress::default();
        for ok in [false, false, false, true] {
            p.record(ok);
        }
        assert_eq!(p.final_status(&t), TaskStatus::Failed);
    }

    #[test]
    fn doomed_task_fails_even_if_jobs_succeed() {
        let t = task(2, true);
        let mut p = TaskProgress::default();
        p.record(true);
        p.record(true);
        assert_eq!(p.final_status(&t), TaskStatus::Failed);
    }
}

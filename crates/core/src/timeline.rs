//! Per-job lifecycle timelines.
//!
//! The pipeline of Fig. 5 moves a job through up to six stages; the engine
//! stamps each transition so a run can be audited job by job — which
//! upload blocked which, where a deadline was lost, how long a result sat
//! in the download queue. Timelines are the raw material for the
//! completion-delay and OO analyses and for the stage-ordering invariants
//! in the test suite.
//!
//! A closed run keeps one row per admitted job until it drains, so the
//! store is part of the engine's per-job spine and keeps only what it
//! cannot derive (`TimelineStore`): a 32-byte `TimelineRow` per job,
//! the three transfer stamps in a side table for the jobs ever placed
//! External, and one admission instant per batch. The public
//! [`JobTimeline`] (80 bytes: six 8-byte [`Stamp`]s rather than
//! `Option<SimTime>`s) is rebuilt on each read by the [`Timelines`] view.

use std::fmt;

use cloudburst_sched::Placement;
use cloudburst_sim::SimTime;
use cloudburst_workload::Job;
use serde::{Deserialize, Error, Serialize, Value};

/// A stage stamp: an optional [`SimTime`] packed into 8 bytes, with
/// `u64::MAX` µs meaning "not entered". No stamped instant reaches the
/// sentinel ([`SimTime::MAX`] is the schedulers' "never", not an event
/// time); [`Stamp::some`] debug-asserts it and deserialization rejects it.
///
/// It serializes exactly as the `Option<SimTime>` it stands for: `null`,
/// or the instant's integer microseconds.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Stamp(u64);

impl Stamp {
    /// The stage was never entered.
    pub const NONE: Stamp = Stamp(u64::MAX);

    /// The stage was entered at `t`.
    #[inline]
    pub fn some(t: SimTime) -> Stamp {
        debug_assert!(t < SimTime::MAX, "stage stamp at the u64::MAX µs sentinel");
        Stamp(t.as_micros())
    }

    /// When the stage was entered, if it was.
    #[inline]
    pub fn get(self) -> Option<SimTime> {
        (self.0 != u64::MAX).then_some(SimTime::from_micros(self.0))
    }
}

impl fmt::Debug for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

impl Serialize for Stamp {
    fn to_value(&self) -> Value {
        self.get().to_value()
    }
}

impl Deserialize for Stamp {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match Option::<SimTime>::from_value(v)? {
            None => Ok(Stamp::NONE),
            Some(t) if t < SimTime::MAX => Ok(Stamp(t.as_micros())),
            Some(_) => Err(Error::custom("stage stamp at the \"not entered\" sentinel")),
        }
    }
}

/// Stage timestamps for one job. [`Stamp::NONE`] stages were never entered
/// (local jobs never transfer; a pulled-back job loses its upload stamps).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobTimeline {
    /// 0-based job id.
    pub id: u64,
    /// Arrival at the central job queue.
    pub arrival: SimTime,
    /// When the controller placed it.
    pub scheduled: SimTime,
    /// Final placement (after any rescheduling).
    pub placement: Placement,
    /// Upload transfer start (bursted jobs).
    pub upload_started: Stamp,
    /// Upload transfer completion.
    pub upload_done: Stamp,
    /// Execution start on a machine.
    pub exec_started: Stamp,
    /// Execution completion.
    pub exec_done: Stamp,
    /// Result download completion (bursted jobs).
    pub download_done: Stamp,
    /// Arrival in the result queue.
    pub completed: Stamp,
}

impl JobTimeline {
    /// Creates a fresh timeline at scheduling time.
    pub fn new(id: u64, arrival: SimTime, scheduled: SimTime, placement: Placement) -> Self {
        JobTimeline {
            id,
            arrival,
            scheduled,
            placement,
            upload_started: Stamp::NONE,
            upload_done: Stamp::NONE,
            exec_started: Stamp::NONE,
            exec_done: Stamp::NONE,
            download_done: Stamp::NONE,
            completed: Stamp::NONE,
        }
    }

    /// Seconds from arrival to result (`None` while incomplete).
    pub fn turnaround_secs(&self) -> Option<f64> {
        self.completed.get().map(|c| (c - self.arrival).as_secs_f64())
    }

    /// Seconds spent waiting in queues (turnaround minus transfer and
    /// execution spans).
    pub fn queueing_secs(&self) -> Option<f64> {
        let total = self.turnaround_secs()?;
        let exec = match (self.exec_started.get(), self.exec_done.get()) {
            (Some(s), Some(e)) => (e - s).as_secs_f64(),
            _ => 0.0,
        };
        let upload = match (self.upload_started.get(), self.upload_done.get()) {
            (Some(s), Some(e)) => (e - s).as_secs_f64(),
            _ => 0.0,
        };
        let download = match (self.exec_done.get(), self.download_done.get()) {
            // Download queueing is folded in here; the pure transfer span
            // is not separately stamped.
            (Some(s), Some(e)) => (e - s).as_secs_f64(),
            _ => 0.0,
        };
        Some((total - exec - upload - download).max(0.0))
    }

    /// Checks internal stage ordering; returns the violated pair if any.
    pub fn check_ordering(&self) -> Result<(), (&'static str, &'static str)> {
        let mut last: (&'static str, SimTime) = ("arrival", self.arrival);
        let stages: [(&'static str, Option<SimTime>); 7] = [
            ("scheduled", Some(self.scheduled)),
            ("upload_started", self.upload_started.get()),
            ("upload_done", self.upload_done.get()),
            ("exec_started", self.exec_started.get()),
            ("exec_done", self.exec_done.get()),
            ("download_done", self.download_done.get()),
            ("completed", self.completed.get()),
        ];
        for (name, at) in stages {
            if let Some(t) = at {
                if t < last.1 {
                    return Err((last.0, name));
                }
                last = (name, t);
            }
        }
        Ok(())
    }
}

/// A stage stamped after admission.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Stage {
    UploadStarted,
    UploadDone,
    ExecStarted,
    ExecDone,
    DownloadDone,
    Completed,
}

impl JobTimeline {
    /// The stamp `stage` writes (the engine's test-build dense shadow
    /// stamps through it).
    #[cfg(test)]
    pub(crate) fn stage_mut(&mut self, stage: Stage) -> &mut Stamp {
        match stage {
            Stage::UploadStarted => &mut self.upload_started,
            Stage::UploadDone => &mut self.upload_done,
            Stage::ExecStarted => &mut self.exec_started,
            Stage::ExecDone => &mut self.exec_done,
            Stage::DownloadDone => &mut self.download_done,
            Stage::Completed => &mut self.completed,
        }
    }
}

/// A job's index into [`TimelineStore::transfers`]: none yet.
pub(crate) const NO_TRANSFER: u32 = u32::MAX;

/// One job's row in a closed run's store: the stamps every job takes, its
/// current placement and its transfer-table entry ([`NO_TRANSFER`] until
/// it is first placed External). 32 bytes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TimelineRow {
    exec_started: Stamp,
    exec_done: Stamp,
    completed: Stamp,
    pub(crate) transfer: u32,
    pub(crate) placement: Placement,
}

impl TimelineRow {
    /// A row at admission: placed, nothing stamped, no transfer entry.
    pub(crate) fn new(placement: Placement) -> TimelineRow {
        TimelineRow {
            exec_started: Stamp::NONE,
            exec_done: Stamp::NONE,
            completed: Stamp::NONE,
            transfer: NO_TRANSFER,
            placement,
        }
    }
}

/// The stamps only a job that was placed External can take. 24 bytes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TransferStamps {
    upload_started: Stamp,
    upload_done: Stamp,
    download_done: Stamp,
}

impl TransferStamps {
    /// No transfer stage entered.
    pub(crate) const NONE: TransferStamps = TransferStamps {
        upload_started: Stamp::NONE,
        upload_done: Stamp::NONE,
        download_done: Stamp::NONE,
    };
}

/// A closed run's timelines, stored by what the engine does not already
/// hold. A [`JobTimeline`]'s `id` is its row index, its `arrival` is the
/// job's, and its `scheduled` is its batch's admission instant, so none
/// is stored; transfer stamps exist only for the jobs ever placed
/// External (a minority at paper scale). Serving keeps an empty store.
///
/// The engine writes the growing columns (rows at admission, transfer
/// entries at the first External placement, one batch pair per batch)
/// with its other per-job columns; stamps go through [`Self::stamp`].
#[derive(Debug, Default)]
pub(crate) struct TimelineStore {
    /// One row per admitted job, indexed by job id.
    pub(crate) rows: Vec<TimelineRow>,
    /// The transfer table, in order of first External placement.
    pub(crate) transfers: Vec<TransferStamps>,
    /// `(first job id, admission instant)` per admitted batch, ascending
    /// in id; a batch that admitted nothing shares its first id with the
    /// next one, which owns the rows.
    pub(crate) batches: Vec<(u64, SimTime)>,
}

impl TimelineStore {
    /// Stamps `stage` of job `id` at `at`. Transfer stages need the job's
    /// transfer entry, which its External placement opened.
    pub(crate) fn stamp(&mut self, id: usize, stage: Stage, at: SimTime) {
        let row = &mut self.rows[id];
        let at = Stamp::some(at);
        match stage {
            Stage::ExecStarted => row.exec_started = at,
            Stage::ExecDone => row.exec_done = at,
            Stage::Completed => row.completed = at,
            Stage::UploadStarted | Stage::UploadDone | Stage::DownloadDone => {
                debug_assert_ne!(row.transfer, NO_TRANSFER, "job {id} has no transfer entry");
                let t = &mut self.transfers[row.transfer as usize];
                match stage {
                    Stage::UploadStarted => t.upload_started = at,
                    Stage::UploadDone => t.upload_done = at,
                    _ => t.download_done = at,
                }
            }
        }
    }

    /// When job `id`'s result entered the result queue, if it has.
    pub(crate) fn completed(&self, id: usize) -> Option<SimTime> {
        self.rows[id].completed.get()
    }

    /// Every job's completion instant, in id order.
    pub(crate) fn completions(&self) -> impl ExactSizeIterator<Item = Option<SimTime>> + '_ {
        self.rows.iter().map(|r| r.completed.get())
    }

    /// The read view; `jobs` is the engine's job column, which holds each
    /// row's arrival.
    pub(crate) fn view<'a>(&'a self, jobs: &'a [Job]) -> Timelines<'a> {
        debug_assert!(jobs.len() >= self.rows.len(), "a timeline row without its job");
        Timelines { store: self, jobs }
    }
}

/// A closed run's per-job timelines in id order, rebuilt from the store
/// row by row: reading allocates nothing, and [`Timelines::to_vec`] or
/// serialization gives exactly the dense `Vec<JobTimeline>` the run
/// stamped. Empty in serving.
#[derive(Clone, Copy)]
pub struct Timelines<'a> {
    store: &'a TimelineStore,
    jobs: &'a [Job],
}

impl<'a> Timelines<'a> {
    /// Admitted jobs.
    pub fn len(&self) -> usize {
        self.store.rows.len()
    }

    /// No job was admitted (always so in serving).
    pub fn is_empty(&self) -> bool {
        self.store.rows.is_empty()
    }

    /// Job `id`'s timeline, if it was admitted.
    pub fn get(&self, id: usize) -> Option<JobTimeline> {
        (id < self.len()).then(|| self.at(id))
    }

    /// Every timeline, in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = JobTimeline> + 'a {
        let view = *self;
        (0..self.len()).map(move |id| view.at(id))
    }

    /// Row `id` rebuilt: `id` must be in range.
    fn at(&self, id: usize) -> JobTimeline {
        let row = &self.store.rows[id];
        let batches = &self.store.batches;
        let batch = batches.partition_point(|&(first, _)| first <= id as u64);
        let transfers = &self.store.transfers;
        let transfer = transfers.get(row.transfer as usize).unwrap_or(&TransferStamps::NONE);
        JobTimeline {
            id: id as u64,
            arrival: self.jobs[id].arrival,
            scheduled: batches[batch - 1].1,
            placement: row.placement,
            upload_started: transfer.upload_started,
            upload_done: transfer.upload_done,
            exec_started: row.exec_started,
            exec_done: row.exec_done,
            download_done: transfer.download_done,
            completed: row.completed,
        }
    }
}

impl fmt::Debug for Timelines<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Serializes exactly as the `Vec<JobTimeline>` it stands for.
impl Serialize for Timelines<'_> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|t| t.to_value()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn at(s: u64) -> Stamp {
        Stamp::some(t(s))
    }

    fn bursted() -> JobTimeline {
        JobTimeline {
            upload_started: at(10),
            upload_done: at(110),
            exec_started: at(110),
            exec_done: at(400),
            download_done: at(450),
            completed: at(450),
            ..JobTimeline::new(3, t(0), t(5), Placement::External)
        }
    }

    #[test]
    fn ordering_accepts_valid_timeline() {
        assert_eq!(bursted().check_ordering(), Ok(()));
        let local = JobTimeline {
            exec_started: at(20),
            exec_done: at(120),
            completed: at(120),
            ..JobTimeline::new(1, t(0), t(5), Placement::Internal)
        };
        assert_eq!(local.check_ordering(), Ok(()));
    }

    #[test]
    fn ordering_detects_violations() {
        let mut bad = bursted();
        bad.exec_started = at(50); // before upload_done at 110
        assert_eq!(bad.check_ordering(), Err(("upload_done", "exec_started")));
    }

    #[test]
    fn turnaround_and_queueing() {
        let tl = bursted();
        assert_eq!(tl.turnaround_secs(), Some(450.0));
        // exec 290 s + upload 100 s + post-exec 50 s → 10 s of queueing.
        assert_eq!(tl.queueing_secs(), Some(10.0));
        let unfinished = JobTimeline::new(0, t(0), t(1), Placement::Internal);
        assert_eq!(unfinished.turnaround_secs(), None);
        assert_eq!(unfinished.queueing_secs(), None);
    }

    /// The store row is part of the engine's per-job spine (one per
    /// admitted job, ~205k in a closed-op run): a regrown row shows up
    /// here first. The transfer entry is per bursted job; the public
    /// `JobTimeline` it rebuilds keeps its 80 bytes.
    #[test]
    fn a_timeline_row_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Stamp>(), 8);
        assert_eq!(std::mem::size_of::<TimelineRow>(), 32);
        assert_eq!(std::mem::size_of::<TransferStamps>(), 24);
        assert_eq!(std::mem::size_of::<JobTimeline>(), 80);
    }

    /// A stamp serializes exactly as the `Option<SimTime>` it replaced
    /// (`null` or integer micros) and reads both back.
    #[test]
    fn stamp_encodes_as_optional_sim_time() {
        let last = SimTime::from_micros(u64::MAX - 1);
        for case in [None, Some(SimTime::ZERO), Some(t(450)), Some(last)] {
            let stamp = case.map_or(Stamp::NONE, Stamp::some);
            assert_eq!(stamp.get(), case);
            assert_eq!(stamp.to_value(), case.to_value());
            assert_eq!(Stamp::from_value(&case.to_value()), Ok(stamp));
            assert_eq!(format!("{stamp:?}"), format!("{case:?}"));
        }
        assert_eq!(Stamp::NONE.to_value(), Value::Null);
        let sentinel = Some(SimTime::MAX).to_value();
        assert!(Stamp::from_value(&sentinel).is_err(), "the sentinel is not an instant");
        assert!(Stamp::from_value(&Value::Bool(true)).is_err());
    }
}

//! The job record flowing through queues, schedulers and clouds.

use std::fmt;

use serde::{Deserialize, Error, Serialize, Value};

use cloudburst_sim::SimTime;

use crate::document::DocumentFeatures;

/// Queue-order job identifier.
///
/// Ids are assigned in FCFS queue order (after any chunk insertion, see
/// Algorithm 2), so the Out-of-Order metric of Sec. II-B can compare
/// completion order against id order directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl JobId {
    /// Raw index.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// A chunk's parent: an optional [`JobId`] packed into 4 bytes, with
/// `u32::MAX` meaning "no parent". It packs next to [`Job::batch`], which
/// keeps a [`Job`] at 88 bytes instead of the 104 an `Option<JobId>`
/// costs. A closed run's ids already fit a `u32` (the engine's
/// outstanding set indexes by one). A serving stream's provisional ids
/// count every generated job, so a chunking stream reaches the bound
/// after 2^32 − 1 arrivals, about 16 virtual years at ~0.7M jobs a day.
/// [`ParentId::some`] asserts the bound and deserialization rejects an id
/// at the sentinel.
///
/// It serializes exactly as the `Option<JobId>` it stands for: `null`, or
/// the parent's integer id.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ParentId(u32);

impl ParentId {
    /// Not a chunk.
    pub const NONE: ParentId = ParentId(u32::MAX);

    /// A chunk split from job `id`.
    #[inline]
    pub fn some(id: JobId) -> ParentId {
        assert!(id.0 < u64::from(u32::MAX), "job id {} does not fit a chunk's u32 parent id", id.0);
        ParentId(id.0 as u32)
    }

    /// The id of the job this chunk was split from, if it is a chunk.
    #[inline]
    pub fn get(self) -> Option<JobId> {
        (self.0 != u32::MAX).then_some(JobId(u64::from(self.0)))
    }
}

impl fmt::Debug for ParentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

impl Serialize for ParentId {
    fn to_value(&self) -> Value {
        self.get().to_value()
    }
}

impl Deserialize for ParentId {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match Option::<JobId>::from_value(v)? {
            None => Ok(ParentId::NONE),
            Some(id) if id.0 < u64::from(u32::MAX) => Ok(ParentId(id.0 as u32)),
            Some(id) => Err(Error::custom(format!("parent id {} does not fit a u32", id.0))),
        }
    }
}

/// A unit of work. Ground-truth fields (`true_service_secs`,
/// `output_bytes`) are *hidden* from schedulers — they must work from QRSM
/// and bandwidth estimates; the simulation engine uses the truth.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Job {
    /// FCFS queue-order id (unique within a run).
    pub id: JobId,
    /// Index of the batch this job arrived in.
    pub batch: u32,
    /// Arrival instant at the internal cloud's job queue.
    pub arrival: SimTime,
    /// Observable document features (scheduler-visible).
    pub features: DocumentFeatures,
    /// Ground truth: service time on a standard (speed 1.0) machine, seconds.
    pub true_service_secs: f64,
    /// Ground truth: result size in bytes (download leg of a bursted job).
    pub output_bytes: u64,
    /// If this job is a chunk produced by `pdfchunk`, the id of the original
    /// job it was split from ([`ParentId::NONE`] otherwise).
    pub parent: ParentId,
}

impl Job {
    /// Input size in bytes (upload leg of a bursted job).
    pub fn input_bytes(&self) -> u64 {
        self.features.size_bytes
    }

    /// Input size in MB.
    pub fn size_mb(&self) -> f64 {
        self.features.size_mb()
    }

    /// True iff this job is a chunk of a split parent.
    pub fn is_chunk(&self) -> bool {
        self.parent != ParentId::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{JobType, BYTES_PER_MB};

    fn job(id: u64, size_mb: u64) -> Job {
        Job {
            id: JobId(id),
            batch: 0,
            arrival: SimTime::ZERO,
            features: DocumentFeatures {
                size_bytes: size_mb * BYTES_PER_MB,
                pages: 10,
                images: 5,
                resolution_dpi: 600,
                color_fraction: 0.5,
                coverage: 0.5,
                text_ratio: 0.5,
                job_type: JobType::Book,
            },
            true_service_secs: 100.0,
            output_bytes: size_mb * BYTES_PER_MB / 2,
            parent: ParentId::NONE,
        }
    }

    #[test]
    fn id_ordering_follows_queue_order() {
        assert!(JobId(3) < JobId(10));
        assert_eq!(JobId(7).index(), 7);
        assert_eq!(format!("{}", JobId(4)), "j4");
    }

    #[test]
    fn accessors() {
        let j = job(1, 50);
        assert_eq!(j.input_bytes(), 50 * BYTES_PER_MB);
        assert!((j.size_mb() - 50.0).abs() < 1e-12);
        assert!(!j.is_chunk());
        let c = Job { parent: ParentId::some(JobId(1)), ..j.clone() };
        assert!(c.is_chunk());
        assert_eq!(c.parent.get(), Some(JobId(1)));
    }

    /// One row per admitted job is held for a whole closed run, so the
    /// row's width is part of the run's peak heap.
    #[test]
    fn a_job_row_is_88_bytes() {
        assert_eq!(std::mem::size_of::<Job>(), 88);
        assert_eq!(std::mem::size_of::<ParentId>(), 4);
    }

    #[test]
    fn parent_id_serializes_as_the_option_it_packs() {
        let none = serde_json::to_string(&ParentId::NONE).unwrap();
        let three = serde_json::to_string(&ParentId::some(JobId(3))).unwrap();
        assert_eq!((none.as_str(), three.as_str()), ("null", "3"));
        assert_eq!(serde_json::from_str::<ParentId>("null").unwrap(), ParentId::NONE);
        assert_eq!(serde_json::from_str::<ParentId>("3").unwrap().get(), Some(JobId(3)));
        let last = u64::from(u32::MAX) - 1;
        assert_eq!(
            serde_json::from_str::<ParentId>(&last.to_string()).unwrap().get(),
            Some(JobId(last))
        );
        let err = serde_json::from_str::<ParentId>(&u32::MAX.to_string());
        assert!(err.is_err(), "the sentinel id is rejected, not read as no parent");
    }

    #[test]
    #[should_panic(expected = "does not fit a chunk's u32 parent id")]
    fn parent_id_rejects_an_id_at_the_sentinel() {
        let _ = ParentId::some(JobId(u64::from(u32::MAX)));
    }
}

//! `pdfchunk` — job splitting for the Order-Preserving scheduler.
//!
//! Algorithm 2 (lines 3–10) reduces job-size variance by splitting a large
//! job into smaller chunks when the sliding-window size deviation
//! `σ(i..i+x)` exceeds a threshold. Chunks are inserted back into the queue
//! at the parent's position, so they inherit its chronological priority; the
//! Out-of-Order accounting treats the parent as complete when its last chunk
//! completes.
//!
//! Documents are embarrassingly parallel (Sec. III-B), so a chunk's service
//! time is the parent's pro-rata share plus a fixed per-chunk overhead
//! (spool + merge cost — chunking is not free, which is why the policy only
//! fires on high variance).

use serde::{Deserialize, Serialize};

use crate::document::DocumentFeatures;
use crate::job::{Job, ParentId};
use crate::stats;

/// Tunables for Algorithm 2's chunking step.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChunkPolicy {
    /// Sliding window width `x` over which σ is computed (line 4).
    pub window: usize,
    /// Threshold `th` on the window size-stddev, in MB (line 5).
    pub sigma_threshold_mb: f64,
    /// Target chunk size in MB; a job is split into
    /// `ceil(size / target)` chunks.
    pub target_chunk_mb: f64,
    /// Never produce chunks smaller than this (MB); guards against
    /// pathological over-splitting.
    pub min_chunk_mb: f64,
    /// Fixed per-chunk service overhead in seconds (split + merge cost).
    pub per_chunk_overhead_secs: f64,
    /// Non-uniform chunking (Sec. VII future work): the effective target
    /// chunk size at queue-position fraction `p ∈ [0, 1]` is
    /// `target · (1 + γ·p)`. With `γ > 0`, head-of-queue jobs split finer
    /// (their output is needed first — small chunks keep the order intact)
    /// while tail jobs split coarser (they have slack anyway, so why pay
    /// the per-chunk overhead). `γ = 0` (default) is the paper's uniform
    /// chunking.
    pub position_gamma: f64,
}

impl Default for ChunkPolicy {
    fn default() -> Self {
        ChunkPolicy {
            window: 5,
            sigma_threshold_mb: 60.0,
            target_chunk_mb: 80.0,
            min_chunk_mb: 10.0,
            per_chunk_overhead_secs: 8.0,
            position_gamma: 0.0,
        }
    }
}

impl ChunkPolicy {
    /// Effective target chunk size (MB) for a job at queue-position
    /// fraction `p ∈ [0, 1]` (0 = head).
    pub fn target_at(&self, pos_frac: f64) -> f64 {
        let p = pos_frac.clamp(0.0, 1.0);
        (self.target_chunk_mb * (1.0 + self.position_gamma * p)).max(self.min_chunk_mb)
    }

    /// Number of chunks this policy splits a job of `size_mb` into (≥ 1),
    /// for a job at queue-position fraction `pos_frac`.
    pub fn n_chunks_at(&self, size_mb: f64, pos_frac: f64) -> usize {
        let n = (size_mb / self.target_at(pos_frac)).ceil() as usize;
        n.max(1)
    }

    /// Whether the window deviation triggers chunking for the job at the
    /// window head (Algorithm 2 line 5), i.e. `σ > th` *and* splitting would
    /// actually produce more than one chunk, at queue-position fraction
    /// `pos_frac`: the splice oracle's predicate.
    #[cfg(test)]
    pub fn should_chunk_at(&self, window_sigma_mb: f64, size_mb: f64, pos_frac: f64) -> bool {
        window_sigma_mb > self.sigma_threshold_mb && self.n_chunks_at(size_mb, pos_frac) > 1
    }
}

/// Splits `job` into chunks per `policy`. Returns the chunk jobs in order;
/// if the job is too small to split, returns a single-element vector with a
/// clone of the job (no overhead added).
///
/// Invariants (property-tested):
/// * chunk input sizes sum exactly to the parent's input size;
/// * chunk output sizes sum exactly to the parent's output size;
/// * every chunk records `parent == Some(job.id)` (when actually split);
/// * total chunk service time = parent service time + n × overhead (up to
///   float rounding).
pub fn chunk_job(job: &Job, policy: &ChunkPolicy) -> Vec<Job> {
    chunk_job_at(job, policy, 0.0)
}

/// As [`chunk_job`], for a job at queue-position fraction `pos_frac` —
/// the non-uniform chunking extension (larger `pos_frac` ⇒ coarser chunks
/// when the policy's `position_gamma` is positive).
pub fn chunk_job_at(job: &Job, policy: &ChunkPolicy, pos_frac: f64) -> Vec<Job> {
    let n = policy.n_chunks_at(job.size_mb(), pos_frac);
    if n <= 1 {
        return vec![job.clone()];
    }
    let split = Split::new(job.clone(), n);
    (0..n).map(|k| split.chunk(k, policy.per_chunk_overhead_secs)).collect()
}

/// One parent's split into `n ≥ 2` chunks: the per-chunk quotients and
/// remainders of its input bytes, output bytes, pages and images, taken
/// once per parent and read by every chunk.
///
/// A chunk's service time is its pro-rata share of the parent's plus the
/// fixed split/merge overhead. It is a placeholder: the engine is the
/// authority on ground truth and re-samples every admitted chunk's time
/// from the truth law on the chunk's own features.
#[derive(Clone, Debug)]
struct Split {
    parent: Job,
    n: usize,
    in_base: u64,
    in_rem: u64,
    out_base: u64,
    out_rem: u64,
    pages_base: u32,
    pages_rem: u32,
    images_base: u32,
    images_rem: u32,
}

impl Split {
    fn new(parent: Job, n: usize) -> Split {
        let (n64, n32) = (n as u64, n as u32);
        Split {
            n,
            in_base: parent.features.size_bytes / n64,
            in_rem: parent.features.size_bytes % n64,
            out_base: parent.output_bytes / n64,
            out_rem: parent.output_bytes % n64,
            pages_base: parent.features.pages / n32,
            pages_rem: parent.features.pages % n32,
            images_base: parent.features.images / n32,
            images_rem: parent.features.images % n32,
            parent,
        }
    }

    /// Chunk `k < n`: the first remainder-many chunks take one unit more.
    fn chunk(&self, k: usize, per_chunk_overhead_secs: f64) -> Job {
        let (k64, k32) = (k as u64, k as u32);
        let job = &self.parent;
        let in_bytes = self.in_base + u64::from(k64 < self.in_rem);
        let out_bytes = self.out_base + u64::from(k64 < self.out_rem);
        let pages = self.pages_base + u32::from(k32 < self.pages_rem);
        let images = self.images_base + u32::from(k32 < self.images_rem);
        let share = in_bytes as f64 / job.features.size_bytes as f64;
        Job {
            id: job.id, // provisional; the engine re-indexes on insert
            batch: job.batch,
            arrival: job.arrival,
            features: DocumentFeatures { size_bytes: in_bytes, pages, images, ..job.features },
            true_service_secs: job.true_service_secs * share + per_chunk_overhead_secs,
            output_bytes: out_bytes,
            parent: ParentId::some(job.id),
        }
    }
}

/// Applies Algorithm 2 lines 3–10 to a whole batch: walks the job list with
/// the sliding σ-window and replaces each triggering job with its chunks.
/// Returns the expanded list (provisional ids preserved; callers re-index).
/// [`ChunkStream`] collected, allocated once at its exact length.
pub fn chunk_batch(jobs: Vec<Job>, policy: &ChunkPolicy) -> Vec<Job> {
    let stream = ChunkStream::new(jobs, Some(policy));
    // `collect` would round a short batch's first allocation up to four.
    let mut out = Vec::with_capacity(stream.len());
    out.extend(stream);
    out
}

/// Algorithm 2 lines 3–10 over a batch, one job at a time: yields each
/// original job, or in its place its chunks, in queue order. Without a
/// policy every job passes through whole.
///
/// Position-aware: the job that is the `k`-th original of an `n`-job batch
/// chunks at queue-position fraction `k / n` (see
/// [`ChunkPolicy::position_gamma`]) — measured against the *original*
/// batch, so inserted chunks never shift a later job's position.
///
/// Linear. The paper's loop splices chunks into the list and then skips
/// past them, so every index at or after the cursor is a not-yet-visited
/// original: the window `σ(i..i+x)` over the growing list is always `σ`
/// over the next `x` originals. So a counting pre-pass over the originals'
/// sizes (`chunk_counts`, run once in [`ChunkStream::new`]) decides every
/// job's chunk count, and the stream then emits each job or its chunks —
/// the same σ values and the same jobs as the splice loop (kept as the
/// `#[cfg(test)]` oracle). The counts make the length exact
/// ([`ExactSizeIterator`]), and the stream holds only the batch and one
/// count per original: a consumer that admits each job as it is yielded
/// never holds the expanded batch.
#[derive(Debug)]
pub struct ChunkStream {
    jobs: std::vec::IntoIter<Job>,
    /// Each original's chunk count, in order; empty without a policy.
    counts: std::vec::IntoIter<usize>,
    /// The parent being split and the index of its next chunk.
    split: Option<(Split, usize)>,
    per_chunk_overhead_secs: f64,
    /// Jobs still to yield.
    remaining: usize,
}

impl ChunkStream {
    /// Streams `jobs` through `policy`'s chunk pass, or unchanged when
    /// `policy` is `None`.
    pub fn new(jobs: Vec<Job>, policy: Option<&ChunkPolicy>) -> ChunkStream {
        let (counts, remaining, per_chunk_overhead_secs) = match policy {
            Some(p) => {
                let counts: Vec<usize> = chunk_counts(&jobs, p).collect();
                let len = counts.iter().sum();
                (counts, len, p.per_chunk_overhead_secs)
            }
            None => (Vec::new(), jobs.len(), 0.0),
        };
        ChunkStream {
            jobs: jobs.into_iter(),
            counts: counts.into_iter(),
            split: None,
            per_chunk_overhead_secs,
            remaining,
        }
    }
}

impl Iterator for ChunkStream {
    type Item = Job;

    // Inlined across the crate boundary: the workspace builds without LTO,
    // and admission calls this once per job.
    #[inline]
    fn next(&mut self) -> Option<Job> {
        if let Some((split, k)) = &mut self.split {
            let chunk = split.chunk(*k, self.per_chunk_overhead_secs);
            *k += 1;
            if *k == split.n {
                self.split = None;
            }
            self.remaining -= 1;
            return Some(chunk);
        }
        let job = self.jobs.next()?;
        self.remaining -= 1;
        match self.counts.next() {
            Some(n) if n > 1 => {
                let split = Split::new(job, n);
                let chunk = split.chunk(0, self.per_chunk_overhead_secs);
                self.split = Some((split, 1));
                Some(chunk)
            }
            _ => Some(job),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ChunkStream {}

/// The length [`chunk_batch`] expands `jobs` to, without building it.
pub fn chunked_len(jobs: &[Job], policy: &ChunkPolicy) -> usize {
    chunk_counts(jobs, policy).sum()
}

/// Each original's chunk count under `policy` (1 = kept whole), in order:
/// [`ChunkStream`]'s pre-pass. `should_chunk_at` needs more than one
/// chunk, so the window σ is taken only for a job that would split.
fn chunk_counts<'a>(jobs: &'a [Job], policy: &'a ChunkPolicy) -> impl Iterator<Item = usize> + 'a {
    let denom = jobs.len().max(1) as f64;
    let sizes: Vec<f64> = jobs.iter().map(Job::size_mb).collect();
    (0..jobs.len()).map(move |k| {
        let pos_frac = k as f64 / denom;
        let n = policy.n_chunks_at(sizes[k], pos_frac);
        if n > 1 && stats::window_stddev(&sizes, k, policy.window) > policy.sigma_threshold_mb {
            n
        } else {
            1
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{JobType, BYTES_PER_MB};
    use crate::job::JobId;
    use cloudburst_sim::SimTime;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn job(id: u64, size_mb: u64) -> Job {
        Job {
            id: JobId(id),
            batch: 0,
            arrival: SimTime::ZERO,
            features: DocumentFeatures {
                size_bytes: size_mb * BYTES_PER_MB,
                pages: 97,
                images: 31,
                resolution_dpi: 600,
                color_fraction: 0.5,
                coverage: 0.5,
                text_ratio: 0.5,
                job_type: JobType::Marketing,
            },
            true_service_secs: 600.0,
            output_bytes: size_mb * BYTES_PER_MB / 2 + 7,
            parent: ParentId::NONE,
        }
    }

    #[test]
    fn small_jobs_pass_through() {
        let j = job(0, 40);
        let out = chunk_job(&j, &ChunkPolicy::default());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].parent, ParentId::NONE);
        assert_eq!(out[0].true_service_secs, j.true_service_secs);
    }

    #[test]
    fn split_conserves_sizes() {
        let j = job(3, 295);
        let chunks = chunk_job(&j, &ChunkPolicy::default());
        assert_eq!(chunks.len(), 4, "ceil(295/80) = 4");
        assert_eq!(chunks.iter().map(|c| c.features.size_bytes).sum::<u64>(), j.features.size_bytes);
        assert_eq!(chunks.iter().map(|c| c.output_bytes).sum::<u64>(), j.output_bytes);
        assert_eq!(chunks.iter().map(|c| c.features.pages).sum::<u32>(), j.features.pages);
        assert_eq!(chunks.iter().map(|c| c.features.images).sum::<u32>(), j.features.images);
        for c in &chunks {
            assert_eq!(c.parent.get(), Some(JobId(3)));
            assert_eq!(c.arrival, j.arrival);
            assert_eq!(c.batch, j.batch);
        }
    }

    /// A chunk's JSON is what it was while `parent` was an
    /// `Option<JobId>`: traces written before the 4-byte `ParentId` read
    /// back, and new ones read the same.
    #[test]
    fn a_chunk_serializes_as_before_the_packed_parent() {
        let j = Job { batch: 2, arrival: SimTime::from_secs(5), ..job(3, 295) };
        let chunk = &chunk_job(&j, &ChunkPolicy::default())[1];
        let text = serde_json::to_string(chunk).unwrap();
        assert_eq!(
            text,
            r#"{"id":3,"batch":2,"arrival":5000000,"features":{"size_bytes":73750000,"pages":24,"images":8,"resolution_dpi":600,"color_fraction":0.5,"coverage":0.5,"text_ratio":0.5,"job_type":"Marketing"},"true_service_secs":158.0,"output_bytes":36875002,"parent":3}"#
        );
        assert!(serde_json::to_string(&j).unwrap().ends_with(r#""parent":null}"#));
        let back: Job = serde_json::from_str(&text).unwrap();
        assert_eq!(format!("{back:?}"), format!("{chunk:?}"));
    }

    #[test]
    fn split_service_time_is_pro_rata_plus_overhead() {
        let policy = ChunkPolicy::default();
        let j = job(0, 240);
        let chunks = chunk_job(&j, &policy);
        let total: f64 = chunks.iter().map(|c| c.true_service_secs).sum();
        let expected = j.true_service_secs + chunks.len() as f64 * policy.per_chunk_overhead_secs;
        assert!((total - expected).abs() < 1e-9, "total={total} expected={expected}");
    }

    #[test]
    fn should_chunk_requires_both_conditions() {
        let p = ChunkPolicy::default();
        assert!(p.should_chunk_at(100.0, 200.0, 0.0));
        assert!(!p.should_chunk_at(10.0, 200.0, 0.0), "low variance: no chunking");
        assert!(!p.should_chunk_at(100.0, 20.0, 0.0), "small job: nothing to split");
    }

    #[test]
    fn chunk_batch_expands_only_under_high_variance() {
        let p = ChunkPolicy::default();
        // Homogeneous batch: low σ, nothing chunks.
        let homo: Vec<Job> = (0..6).map(|i| job(i, 100)).collect();
        assert_eq!(chunk_batch(homo, &p).len(), 6);
        // Mixed batch: 290 MB next to 5 MB jobs triggers chunking.
        let mixed = vec![job(0, 5), job(1, 290), job(2, 8), job(3, 290), job(4, 5)];
        let out = chunk_batch(mixed.clone(), &p);
        assert!(out.len() > mixed.len(), "large jobs should have been split");
        assert_eq!(
            out.iter().map(|c| c.features.size_bytes).sum::<u64>(),
            mixed.iter().map(|c| c.features.size_bytes).sum::<u64>()
        );
    }

    #[test]
    fn chunk_batch_preserves_order() {
        let p = ChunkPolicy::default();
        let mixed = vec![job(0, 5), job(1, 290), job(2, 8)];
        let out = chunk_batch(mixed, &p);
        // Prefix before the split job, then its chunks, then the suffix.
        assert_eq!(out[0].id, JobId(0));
        assert!(out[1..out.len() - 1].iter().all(|c| c.parent.get() == Some(JobId(1))));
        assert_eq!(out.last().unwrap().id, JobId(2));
    }

    #[test]
    fn position_gamma_coarsens_tail_chunks() {
        let p = ChunkPolicy { position_gamma: 2.0, ..ChunkPolicy::default() };
        // Head: target 80 MB → 290 MB splits into 4.
        assert_eq!(p.n_chunks_at(290.0, 0.0), 4);
        // Tail: target 80·(1+2) = 240 MB → 2 chunks.
        assert_eq!(p.n_chunks_at(290.0, 1.0), 2);
        // γ = 0 keeps chunking uniform.
        let u = ChunkPolicy::default();
        assert_eq!(u.n_chunks_at(290.0, 0.0), u.n_chunks_at(290.0, 1.0));
        // Position fraction is clamped.
        assert_eq!(p.n_chunks_at(290.0, 7.0), p.n_chunks_at(290.0, 1.0));
    }

    #[test]
    fn chunk_job_at_respects_position() {
        let p = ChunkPolicy { position_gamma: 2.0, ..ChunkPolicy::default() };
        let j = job(0, 290);
        let head = chunk_job_at(&j, &p, 0.0);
        let tail = chunk_job_at(&j, &p, 1.0);
        assert!(head.len() > tail.len(), "{} vs {}", head.len(), tail.len());
        assert_eq!(
            tail.iter().map(|c| c.features.size_bytes).sum::<u64>(),
            j.features.size_bytes
        );
    }

    #[test]
    fn n_chunks_monotone_in_size() {
        let p = ChunkPolicy::default();
        assert_eq!(p.n_chunks_at(10.0, 0.0), 1);
        assert_eq!(p.n_chunks_at(80.0, 0.0), 1);
        assert_eq!(p.n_chunks_at(81.0, 0.0), 2);
        assert_eq!(p.n_chunks_at(300.0, 0.0), 4);
    }

    /// The paper's loop as first written: rebuild the size list of the
    /// whole growing queue every step, splice chunks in at the cursor and
    /// skip past them. Quadratic in the batch; [`chunk_batch`] must match
    /// it job for job.
    fn splice_oracle(jobs: Vec<Job>, policy: &ChunkPolicy) -> Vec<Job> {
        let denom = jobs.len().max(1) as f64;
        let mut list = jobs;
        let mut originals_seen = 0usize;
        let mut i = 0;
        while i < list.len() {
            let pos_frac = originals_seen as f64 / denom;
            let sizes: Vec<f64> = list.iter().map(|j| j.size_mb()).collect();
            let sigma = stats::window_stddev(&sizes, i, policy.window);
            if policy.should_chunk_at(sigma, list[i].size_mb(), pos_frac) {
                let chunks = chunk_job_at(&list[i], policy, pos_frac);
                let added = chunks.len();
                list.splice(i..=i, chunks);
                i += added;
            } else {
                i += 1;
            }
            originals_seen += 1;
        }
        list
    }

    /// Drains `stream`, checking at every step that `len()` counts the
    /// jobs still to come.
    fn drain_exact(mut stream: ChunkStream) -> Vec<Job> {
        let mut out = Vec::new();
        loop {
            let left = stream.len();
            let Some(job) = stream.next() else {
                assert_eq!(left, 0, "len() promised {left} more jobs");
                return out;
            };
            out.push(job);
            assert_eq!(stream.len(), left - 1, "len() did not count the yield");
        }
    }

    /// Asserts two job lists equal in every field (f64s by their `Debug`
    /// round-trip text, which is exact).
    fn assert_same_jobs(got: &[Job], want: &[Job]) {
        assert_eq!(got.len(), want.len(), "lengths differ");
        for (k, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "job {k} differs");
        }
    }

    /// Runs both passes and asserts identical output, an output allocated
    /// at exactly its length, and a stream whose `len()` is exact at every
    /// step — with the policy, and without one, where it passes the batch
    /// through unchanged.
    fn assert_linear_matches_oracle(jobs: Vec<Job>, policy: &ChunkPolicy) -> usize {
        let counted = chunked_len(&jobs, policy);
        let lin = chunk_batch(jobs.clone(), policy);
        assert_eq!(counted, lin.len(), "chunked_len counts what chunk_batch builds");
        assert_eq!(lin.capacity(), lin.len(), "the output is allocated at its exact length");
        assert_same_jobs(&lin, &splice_oracle(jobs.clone(), policy));
        assert_same_jobs(&drain_exact(ChunkStream::new(jobs.clone(), Some(policy))), &lin);
        assert_same_jobs(&drain_exact(ChunkStream::new(jobs.clone(), None)), &jobs);
        lin.len()
    }

    /// A random batch of `n` jobs drawn from `bucket`.
    fn random_batch(seed: u64, n: usize, bucket: crate::SizeBucket) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth = crate::GroundTruth::default();
        (0..n as u64)
            .map(|id| {
                let bytes = bucket.sample_bytes(&mut rng);
                let features = DocumentFeatures::sample_any_type(&mut rng, bytes);
                Job {
                    id: JobId(id),
                    batch: 0,
                    arrival: SimTime::ZERO,
                    true_service_secs: truth.sample_secs(&mut rng, &features),
                    output_bytes: truth.sample_output_bytes(&mut rng, &features),
                    features,
                    parent: ParentId::NONE,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The linear pass equals the splice oracle over every size
        /// bucket, window widths 0, 1, 5 and wider than the batch, uniform
        /// and position-aware chunking, and varied thresholds/targets.
        #[test]
        fn linear_chunk_pass_matches_splice_oracle(
            seed in any::<u64>(),
            (n, bucket_ix, window_ix) in (0usize..60, 0usize..3, 0usize..4),
            (th, target, gamma, uniform) in (0.0f64..150.0, 20.0f64..200.0, 0.0f64..3.0, any::<bool>()),
        ) {
            let policy = ChunkPolicy {
                window: [0, 1, 5, n + 1 + seed as usize % 8][window_ix],
                sigma_threshold_mb: th,
                target_chunk_mb: target,
                position_gamma: if uniform { 0.0 } else { gamma },
                ..ChunkPolicy::default()
            };
            let jobs = random_batch(seed, n, crate::SizeBucket::ALL[bucket_ix]);
            let out = assert_linear_matches_oracle(jobs, &policy);
            prop_assert!(out >= n);
        }
    }

    #[test]
    fn linear_chunk_pass_matches_oracle_on_a_megascale_batch() {
        use cloudburst_sim::RngFactory;
        // One megascale-sized batch (≈ 12k docs; `megascale` itself would
        // split this total into two batches).
        let cfg = crate::ArrivalConfig {
            n_batches: 1,
            jobs_per_batch: 12_000.0,
            ..crate::ArrivalConfig::default()
        };
        let jobs = crate::BatchArrivals::new(cfg)
            .generate_flat(&RngFactory::new(17), &crate::GroundTruth::default());
        assert!(jobs.len() >= 10_000, "megascale batch has {} docs", jobs.len());
        let n = jobs.len();
        let policy = ChunkPolicy { position_gamma: 1.0, ..ChunkPolicy::default() };
        let out = assert_linear_matches_oracle(jobs, &policy);
        assert!(out > n, "a 1–300 MB batch must chunk somewhere");
    }
}

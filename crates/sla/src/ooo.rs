//! The Out-of-Order (OO) metric (Sec. II-B, Eq. 3–6).
//!
//! At each sampling time `s_t`, find the highest job rank `m_t` such that
//! the results ordered by job id can be consumed by the next production
//! stage with at most `t_l` missing predecessors:
//!
//! ```text
//! C_t  = { x | t_c(x) ≤ s_t }                                   (Eq. 3)
//! J_it = { x ∈ C_t | x.id ≤ i }                                 (Eq. 4)
//! m_t  = max i  s.t.  j_i ∈ C_t ∧ i − t_l ≤ |J_it|              (Eq. 5)
//! o_t  = Σ_{x ∈ J_{m_t,t}} x.size                               (Eq. 6)
//! ```
//!
//! `o_t` is the amount of ordered data ready for the printer at `s_t`.
//! Ranks are 1-based in the paper; this module takes 0-based ids and
//! converts internally.
//!
//! # Streaming evaluation
//!
//! The series is computed in a single pass over the completions in time
//! order — `O(completions + total_jobs + samples)` for the whole run, with
//! no per-sample rescan. Write `gap(i)` for the number of *incomplete* ids
//! `≤ i`; Eq. 5's qualification `(i+1) − t_l ≤ prefix(i)` is exactly
//! `gap(i) ≤ t_l`. Since `gap` is non-decreasing in `i`, the qualifying ids
//! always form a prefix `[0, frontier)`, and since completions only accrue,
//! both the frontier and `m_t` are monotone in time. The loop therefore
//! maintains:
//!
//! * `frontier` — one past the highest id with `gap ≤ t_l`; never retreats,
//!   each id is stepped over exactly once per run (frontier resume);
//! * `missing` — incomplete ids below the frontier (`= gap(frontier−1)`,
//!   invariant `missing ≤ t_l`);
//! * `m_t` — the highest *complete* id below the frontier (every id in
//!   `(m_t, frontier)` is incomplete, which is what makes `o_t` a running
//!   sum);
//! * `o_t` — bytes of complete ids `≤ m_t`, accumulated as the frontier
//!   steps over complete ids and when a straggler below the frontier
//!   arrives (`missing` drops, its bytes join `o_t`, `m_t` max-updates).
use cloudburst_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A completed job as seen by the OO metric: 0-based queue rank, completion
/// instant, and output size (the "operational rate of the subsequent
/// production stages … depends on the size of the job output").
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompletionRecord {
    /// 0-based queue-order id.
    pub id: u64,
    /// Completion instant.
    pub at: SimTime,
    /// Output bytes delivered by the job.
    pub bytes: u64,
}

/// Sampling configuration for the OO series.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct OoConfig {
    /// Tolerance limit `t_l`: how many predecessors may be missing. 0 means
    /// strict in-order consumption.
    pub tolerance: u64,
    /// Sampling interval (the paper uses 2 minutes in Fig. 9).
    pub sample_interval: SimDuration,
}

impl Default for OoConfig {
    fn default() -> Self {
        OoConfig { tolerance: 0, sample_interval: SimDuration::from_mins(2) }
    }
}

/// One sample of the OO series.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OoSample {
    /// Sampling instant `s_t`.
    pub at: SimTime,
    /// `m_t` as a 0-based id (`None` if no rank qualifies yet).
    pub m_t: Option<u64>,
    /// Ordered bytes available, `o_t`.
    pub o_t: u64,
    /// Total completed jobs at `s_t` (|C_t|) — diagnostic.
    pub completed: usize,
}

/// Computes the OO series over `[sample_interval, horizon]`.
///
/// `total_jobs` bounds the rank space (ids must be `< total_jobs`;
/// validated in debug builds, out-of-range ids abort either way via the
/// bounds check). Completions may be passed in any order. Jobs absent from
/// `completions` are treated as never finishing within the horizon.
///
/// Completions are grouped by the sample that first sees them in one
/// counting pass, not sorted. With unique ids, the order in which one
/// sample ingests its completions changes none of the streaming state:
/// each ingestion is a commutative update below a frontier that moves
/// only between samples. A duplicate id makes the order matter (the
/// later record's bytes win), so that case keeps the full stable
/// `(at, id)` sort.
pub fn oo_series(
    completions: &[CompletionRecord],
    total_jobs: usize,
    horizon: SimTime,
    cfg: OoConfig,
) -> Vec<OoSample> {
    assert!(!cfg.sample_interval.is_zero(), "sampling interval must be positive");
    // Sample k (0-based) is taken at (k + 1) · interval while that is
    // within the horizon. A completion at `at` is first seen by sample
    // ⌈at / interval⌉ − 1 (sample 0 for `at` = 0), and by none when that
    // index is past the last sample.
    let interval_us = cfg.sample_interval.as_micros();
    let n_samples = (horizon.as_micros() / interval_us) as usize;
    let sample_of =
        |c: &CompletionRecord| (c.at.as_micros().saturating_sub(1) / interval_us) as usize;

    // Counting pass: each sample's `completed` field counts its bucket,
    // and `complete` marks the ids seen, to find a duplicate.
    let mut samples =
        vec![OoSample { at: SimTime::ZERO, m_t: None, o_t: 0, completed: 0 }; n_samples];
    let mut complete = vec![false; total_jobs];
    let mut duplicate = false;
    for c in completions {
        let k = sample_of(c);
        if k < n_samples {
            debug_assert!((c.id as usize) < total_jobs, "id {} out of range {total_jobs}", c.id);
            duplicate |= std::mem::replace(&mut complete[c.id as usize], true);
            samples[k].completed += 1;
        }
    }
    complete.fill(false);
    // Counts become bucket starts, then (one increment per record) bucket
    // ends: sample k ingests `by_time[end(k − 1)..end(k)]`.
    let mut start = 0usize;
    for s in samples.iter_mut() {
        let n = s.completed;
        s.completed = start;
        start += n;
    }
    let mut by_time = vec![0usize; if duplicate { completions.len() } else { start }];
    for (i, c) in completions.iter().enumerate() {
        let k = sample_of(c);
        if k < n_samples {
            if !duplicate {
                by_time[samples[k].completed] = i;
            }
            samples[k].completed += 1;
        }
    }
    if duplicate {
        for (i, slot) in by_time.iter_mut().enumerate() {
            *slot = i;
        }
        by_time.sort_by_key(|&i| (completions[i].at, completions[i].id));
    }

    let mut bytes = vec![0u64; total_jobs];
    let mut next = 0usize; // next completion (by time) to ingest
    let mut completed = 0usize; // |C_t|
    // Streaming frontier state (see the module docs for the invariants).
    let mut frontier = 0usize;
    let mut missing = 0u64;
    let mut m_t: Option<u64> = None;
    let mut o_t = 0u64;
    let mut t = SimTime::ZERO;
    for sample in samples.iter_mut() {
        t += cfg.sample_interval;
        while next < sample.completed {
            let c = &completions[by_time[next]];
            next += 1;
            let i = c.id as usize;
            if complete[i] {
                // Duplicate record: keep the latest bytes value, adjusting
                // o_t if this id is already counted (complete below the
                // frontier implies id ≤ m_t).
                if i < frontier {
                    o_t = o_t - bytes[i] + c.bytes;
                }
                bytes[i] = c.bytes;
                continue;
            }
            complete[i] = true;
            bytes[i] = c.bytes;
            completed += 1;
            if i < frontier {
                // A straggler below the frontier: one fewer gap, and its
                // bytes become orderable immediately.
                missing -= 1;
                o_t += c.bytes;
                m_t = Some(m_t.map_or(c.id, |m| m.max(c.id)));
            }
        }
        // Advance the frontier while the gap budget holds. Each id is
        // crossed exactly once over the whole run.
        while frontier < total_jobs {
            if complete[frontier] {
                m_t = Some(frontier as u64);
                o_t += bytes[frontier];
            } else if missing < cfg.tolerance {
                missing += 1;
            } else {
                break;
            }
            frontier += 1;
        }
        *sample = OoSample { at: t, m_t, o_t, completed };
    }
    samples
}

/// The streaming pass as it was before the counting pass: a full stable
/// `(at, id)` sort of the completions, then sample-by-sample ingestion.
/// Retained verbatim as the oracle for [`oo_series`]'s bucketed order.
#[cfg(test)]
fn oo_series_sorted(
    completions: &[CompletionRecord],
    total_jobs: usize,
    horizon: SimTime,
    cfg: OoConfig,
) -> Vec<OoSample> {
    assert!(!cfg.sample_interval.is_zero(), "sampling interval must be positive");
    let mut by_time: Vec<&CompletionRecord> = completions.iter().collect();
    by_time.sort_by_key(|c| (c.at, c.id));

    let mut complete = vec![false; total_jobs];
    let mut bytes = vec![0u64; total_jobs];
    let mut samples = Vec::new();
    let mut next = 0usize; // next completion (by time) to ingest
    let mut completed = 0usize; // |C_t|
    // Streaming frontier state (see the module docs for the invariants).
    let mut frontier = 0usize;
    let mut missing = 0u64;
    let mut m_t: Option<u64> = None;
    let mut o_t = 0u64;
    let mut t = SimTime::ZERO + cfg.sample_interval;
    while t <= horizon {
        while next < by_time.len() && by_time[next].at <= t {
            let c = by_time[next];
            next += 1;
            let i = c.id as usize;
            debug_assert!(i < total_jobs, "id {} out of range {total_jobs}", c.id);
            if complete[i] {
                // Duplicate record: keep the latest bytes value, adjusting
                // o_t if this id is already counted (complete below the
                // frontier implies id ≤ m_t).
                if i < frontier {
                    o_t = o_t - bytes[i] + c.bytes;
                }
                bytes[i] = c.bytes;
                continue;
            }
            complete[i] = true;
            bytes[i] = c.bytes;
            completed += 1;
            if i < frontier {
                // A straggler below the frontier: one fewer gap, and its
                // bytes become orderable immediately.
                missing -= 1;
                o_t += c.bytes;
                m_t = Some(m_t.map_or(c.id, |m| m.max(c.id)));
            }
        }
        // Advance the frontier while the gap budget holds. Each id is
        // crossed exactly once over the whole run.
        while frontier < total_jobs {
            if complete[frontier] {
                m_t = Some(frontier as u64);
                o_t += bytes[frontier];
            } else if missing < cfg.tolerance {
                missing += 1;
            } else {
                break;
            }
            frontier += 1;
        }
        samples.push(OoSample { at: t, m_t, o_t, completed });
        t += cfg.sample_interval;
    }
    samples
}

/// The original per-sample rescan implementation, retained verbatim as the
/// equivalence oracle for the streaming path (total work O(samples × jobs)).
#[cfg(test)]
fn oo_series_rescan(
    completions: &[CompletionRecord],
    total_jobs: usize,
    horizon: SimTime,
    cfg: OoConfig,
) -> Vec<OoSample> {
    assert!(!cfg.sample_interval.is_zero(), "sampling interval must be positive");
    for c in completions {
        assert!((c.id as usize) < total_jobs, "id {} out of range {total_jobs}", c.id);
    }
    let mut by_time: Vec<&CompletionRecord> = completions.iter().collect();
    by_time.sort_by_key(|c| (c.at, c.id));

    let mut complete = vec![false; total_jobs];
    let mut bytes = vec![0u64; total_jobs];
    let mut samples = Vec::new();
    let mut next = 0usize;
    let mut m_t: Option<u64> = None;
    let mut t = SimTime::ZERO + cfg.sample_interval;
    while t <= horizon {
        while next < by_time.len() && by_time[next].at <= t {
            let c = by_time[next];
            complete[c.id as usize] = true;
            bytes[c.id as usize] = c.bytes;
            next += 1;
        }
        let mut best: Option<u64> = None;
        let mut prefix = 0u64;
        for i in 0..total_jobs as u64 {
            if complete[i as usize] {
                prefix += 1;
                // Eq. 5 with 1-based rank r = i + 1: r − t_l ≤ |J_it|.
                if (i + 1).saturating_sub(cfg.tolerance) <= prefix {
                    best = Some(i);
                }
            }
        }
        m_t = best.or(m_t);
        let o_t = match m_t {
            None => 0,
            Some(m) => (0..=m).filter(|&i| complete[i as usize]).map(|i| bytes[i as usize]).sum(),
        };
        samples.push(OoSample { at: t, m_t, o_t, completed: prefix as usize });
        t += cfg.sample_interval;
    }
    samples
}

/// Convenience: the final ordered-data availability (last `o_t`), or 0 for
/// an empty series.
pub fn final_ordered_bytes(series: &[OoSample]) -> u64 {
    series.last().map_or(0, |s| s.o_t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(id: u64, secs: u64, bytes: u64) -> CompletionRecord {
        CompletionRecord { id, at: SimTime::from_secs(secs), bytes }
    }

    fn cfg(tol: u64, interval_secs: u64) -> OoConfig {
        OoConfig { tolerance: tol, sample_interval: SimDuration::from_secs(interval_secs) }
    }

    #[test]
    fn strict_order_in_order_completion() {
        // Jobs 0,1,2 complete in order at 10, 20, 30 s.
        let comps = vec![rec(0, 10, 100), rec(1, 20, 200), rec(2, 30, 300)];
        let s = oo_series(&comps, 3, SimTime::from_secs(40), cfg(0, 10));
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].m_t, Some(0));
        assert_eq!(s[0].o_t, 100);
        assert_eq!(s[1].m_t, Some(1));
        assert_eq!(s[1].o_t, 300);
        assert_eq!(s[2].m_t, Some(2));
        assert_eq!(s[2].o_t, 600);
        assert_eq!(s[3].o_t, 600);
    }

    #[test]
    fn strict_order_blocks_on_missing_head() {
        // Job 1 and 2 complete early; job 0 only at 35 s.
        let comps = vec![rec(0, 35, 100), rec(1, 5, 200), rec(2, 6, 300)];
        let s = oo_series(&comps, 3, SimTime::from_secs(40), cfg(0, 10));
        assert_eq!(s[0].m_t, None, "nothing consumable while j0 missing");
        assert_eq!(s[0].o_t, 0);
        assert_eq!(s[0].completed, 2);
        // After 35 s, everything unlocks at once.
        assert_eq!(s[3].m_t, Some(2));
        assert_eq!(s[3].o_t, 600);
    }

    #[test]
    fn tolerance_unlocks_gapped_prefixes() {
        // Job 0 never completes; 1 and 2 do.
        let comps = vec![rec(1, 5, 200), rec(2, 6, 300)];
        let strict = oo_series(&comps, 3, SimTime::from_secs(20), cfg(0, 10));
        assert_eq!(strict[1].m_t, None);
        let tol1 = oo_series(&comps, 3, SimTime::from_secs(20), cfg(1, 10));
        // Rank 3 (id 2): 3 − 1 = 2 ≤ |{1,2}| = 2 → qualifies.
        assert_eq!(tol1[1].m_t, Some(2));
        assert_eq!(tol1[1].o_t, 500, "missing job 0 contributes no bytes");
    }

    #[test]
    fn o_t_monotone_in_tolerance_and_time() {
        let comps = vec![
            rec(0, 50, 100),
            rec(1, 10, 200),
            rec(2, 15, 300),
            rec(3, 70, 400),
            rec(4, 20, 500),
        ];
        let horizon = SimTime::from_secs(100);
        let mut last_final = 0;
        for tol in 0..4 {
            let s = oo_series(&comps, 5, horizon, cfg(tol, 10));
            // time-monotonicity
            for w in s.windows(2) {
                assert!(w[1].o_t >= w[0].o_t, "o_t must not regress in time");
            }
            let f = final_ordered_bytes(&s);
            assert!(f >= last_final, "o_t must not shrink with tolerance");
            last_final = f;
        }
    }

    #[test]
    fn m_t_persists_once_reached() {
        // Eq. 5's qualification is monotone: once a rank qualifies it stays.
        let comps = vec![rec(0, 10, 1), rec(1, 12, 1)];
        let s = oo_series(&comps, 4, SimTime::from_secs(60), cfg(0, 10));
        assert!(s.iter().skip(1).all(|x| x.m_t == Some(1)));
    }

    #[test]
    fn empty_completions() {
        let s = oo_series(&[], 5, SimTime::from_secs(30), cfg(2, 10));
        assert!(s.iter().all(|x| x.m_t.is_none() && x.o_t == 0));
        assert_eq!(final_ordered_bytes(&s), 0);
        assert_eq!(final_ordered_bytes(&[]), 0);
    }

    #[test]
    fn paper_sampling_default_is_two_minutes() {
        let c = OoConfig::default();
        assert_eq!(c.sample_interval, SimDuration::from_mins(2));
        assert_eq!(c.tolerance, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn id_out_of_range_panics() {
        oo_series(&[rec(7, 1, 1)], 3, SimTime::from_secs(10), cfg(0, 5));
    }

    #[test]
    fn streaming_matches_rescan_on_fixed_cases() {
        let cases: Vec<(Vec<CompletionRecord>, usize, u64, OoConfig)> = vec![
            (vec![rec(0, 10, 100), rec(1, 20, 200), rec(2, 30, 300)], 3, 40, cfg(0, 10)),
            (vec![rec(0, 35, 100), rec(1, 5, 200), rec(2, 6, 300)], 3, 40, cfg(0, 10)),
            (vec![rec(1, 5, 200), rec(2, 6, 300)], 3, 20, cfg(1, 10)),
            (vec![rec(3, 4, 7), rec(0, 9, 2)], 6, 50, cfg(2, 7)),
            (vec![], 5, 30, cfg(2, 10)),
        ];
        for (comps, n, hz, c) in cases {
            let horizon = SimTime::from_secs(hz);
            assert_eq!(
                oo_series(&comps, n, horizon, c),
                oo_series_rescan(&comps, n, horizon, c),
            );
        }
    }

    /// `oo_series` against both oracles, the pre-bucketing sorted pass
    /// and the per-sample rescan.
    fn assert_matches_oracles(comps: &[CompletionRecord], n: usize, horizon: SimTime, c: OoConfig) {
        let got = oo_series(comps, n, horizon, c);
        assert_eq!(got, oo_series_sorted(comps, n, horizon, c), "sorted oracle: {comps:?}");
        assert_eq!(got, oo_series_rescan(comps, n, horizon, c), "rescan oracle: {comps:?}");
    }

    #[test]
    fn bucketed_pass_matches_sorted_and_rescan_oracles_on_edge_cases() {
        let us = |id: u64, micros: u64, bytes: u64| CompletionRecord {
            id,
            at: SimTime::from_micros(micros),
            bytes,
        };
        let s = 1_000_000;
        let cases: Vec<(Vec<CompletionRecord>, usize, u64, OoConfig)> = vec![
            // Records at t = 0, alone and with a later one.
            (vec![us(0, 0, 5)], 1, 10 * s, cfg(0, 10)),
            (vec![us(1, 0, 5), us(0, 3 * s, 7)], 2, 10 * s, cfg(0, 5)),
            // Exactly on sample instants, and one microsecond either side.
            (
                vec![
                    us(2, 10 * s, 1),
                    us(0, 10 * s - 1, 2),
                    us(1, 10 * s + 1, 3),
                    us(3, 20 * s, 4),
                ],
                4,
                30 * s,
                cfg(0, 10),
            ),
            (vec![us(0, 30 * s, 9), us(1, 30 * s, 8)], 2, 30 * s, cfg(1, 10)),
            // Past the horizon: never ingested, even on the next instant.
            (vec![us(0, 31 * s, 9), us(1, 40 * s, 8), us(2, 5 * s, 1)], 3, 30 * s, cfg(0, 10)),
            // Duplicate ids: at different instants, at one instant, and one
            // copy past the horizon.
            (vec![us(1, 12 * s, 4), us(0, 2 * s, 1), us(1, 3 * s, 9)], 2, 20 * s, cfg(0, 10)),
            (vec![us(1, 8 * s, 4), us(0, 2 * s, 1), us(1, 3 * s, 9)], 2, 20 * s, cfg(0, 10)),
            (vec![us(0, 5 * s, 1), us(0, 5 * s, 2), us(0, 5 * s, 3)], 1, 10 * s, cfg(0, 10)),
            (vec![us(0, 5 * s, 1), us(1, 6 * s, 2), us(0, 50 * s, 3)], 2, 20 * s, cfg(0, 10)),
            // Empty input, with and without samples.
            (vec![], 3, 30 * s, cfg(0, 10)),
            (vec![], 1, 5 * s, cfg(0, 10)),
            // A single bucket: every record lands in the one sample.
            (vec![us(2, 10 * s, 3), us(0, 0, 1), us(1, 7 * s, 2)], 3, 10 * s, cfg(0, 10)),
            (vec![us(2, 10 * s, 3), us(0, 0, 1), us(1, 7 * s, 2)], 3, 19 * s, cfg(0, 10)),
            // A horizon before the first sample: no series at all.
            (vec![us(0, 1, 1)], 1, 9 * s, cfg(0, 10)),
        ];
        for (comps, n, horizon_us, c) in cases {
            assert_matches_oracles(&comps, n, SimTime::from_micros(horizon_us), c);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The counting pass is identical to the sorted pass it replaced
        /// (and to the rescan) on unique ids in arbitrary input order and
        /// on inputs with duplicates: records at 0, on sample instants,
        /// one microsecond off them and past the horizon.
        #[test]
        fn bucketed_pass_is_identical_to_sorted_pass(
            total_jobs in 1usize..40,
            tolerance in 0u64..4,
            interval_s in 1u64..60,
            horizon_s in 0u64..400,
            unique in any::<bool>(),
            raw in proptest::collection::vec((0u64..40, 0u64..500, 0u8..4, 0u64..10_000), 0..60),
        ) {
            let interval_us = interval_s * 1_000_000;
            let mut seen = vec![false; total_jobs];
            let comps: Vec<CompletionRecord> = raw
                .into_iter()
                .filter_map(|(id, secs, snap, bytes)| {
                    let id = id % total_jobs as u64;
                    if unique && std::mem::replace(&mut seen[id as usize], true) {
                        return None;
                    }
                    let on = (secs / interval_s) * interval_us;
                    let micros = match snap {
                        0 => 0,
                        1 => on,
                        2 => on + 1,
                        _ => secs * 1_000_000 + secs % 7,
                    };
                    Some(CompletionRecord { id, at: SimTime::from_micros(micros), bytes })
                })
                .collect();
            let c = cfg(tolerance, interval_s);
            let horizon = SimTime::from_secs(horizon_s);
            let got = oo_series(&comps, total_jobs, horizon, c);
            prop_assert_eq!(&got, &oo_series_sorted(&comps, total_jobs, horizon, c));
            prop_assert_eq!(&got, &oo_series_rescan(&comps, total_jobs, horizon, c));
        }

        /// The streaming series is PartialEq-identical to the retained
        /// rescan reference on arbitrary completion sets (including
        /// duplicate ids, stragglers, and completions past the horizon).
        #[test]
        fn streaming_is_identical_to_rescan(
            total_jobs in 1usize..40,
            tolerance in 0u64..6,
            interval in 1u64..90,
            horizon in 1u64..600,
            raw in proptest::collection::vec((0u64..40, 0u64..700, 0u64..10_000), 0..60),
        ) {
            let comps: Vec<CompletionRecord> = raw
                .into_iter()
                .map(|(id, secs, bytes)| rec(id % total_jobs as u64, secs, bytes))
                .collect();
            let c = cfg(tolerance, interval);
            let horizon = SimTime::from_secs(horizon);
            prop_assert_eq!(
                oo_series(&comps, total_jobs, horizon, c),
                oo_series_rescan(&comps, total_jobs, horizon, c)
            );
        }
    }
}

//! Property-based tests over the core data structures and invariants,
//! crossing crate boundaries (workload → sla/net/qrsm).

use proptest::prelude::*;

use cloudburst_repro::net::{BandwidthModel, Link, TransferId};
use cloudburst_repro::qrsm::{design::QuadraticDesign, fit, Matrix};
use cloudburst_repro::sim::{Sim, SimDuration, SimTime};
use cloudburst_repro::sla::{oo_series, CompletionRecord, OoConfig};
use cloudburst_repro::workload::chunk::{chunk_job, ChunkPolicy};
use cloudburst_repro::workload::{DocumentFeatures, Job, JobId, JobType, ParentId};

fn job_of(size_bytes: u64, output_bytes: u64, service: f64) -> Job {
    Job {
        id: JobId(0),
        batch: 0,
        arrival: SimTime::ZERO,
        features: DocumentFeatures {
            size_bytes,
            pages: 50,
            images: 20,
            resolution_dpi: 600,
            color_fraction: 0.5,
            coverage: 0.5,
            text_ratio: 0.5,
            job_type: JobType::Marketing,
        },
        true_service_secs: service,
        output_bytes,
        parent: ParentId::NONE,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The event queue fires strictly in (time, insertion) order no matter
    /// the scheduling order.
    #[test]
    fn sim_fires_in_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        for &t in &times {
            sim.schedule_at(SimTime::from_micros(t), move |w: &mut Vec<u64>, sim| {
                w.push(sim.now().as_micros());
            });
        }
        let mut seen = Vec::new();
        sim.run(&mut seen);
        prop_assert_eq!(seen.len(), times.len());
        for w in seen.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(seen, sorted);
    }

    /// Chunking conserves input/output bytes and page/image counts exactly,
    /// for any job size and policy target.
    #[test]
    fn chunking_conserves_everything(
        size_mb in 1u64..300,
        out_frac in 0.1f64..0.9,
        target in 20.0f64..150.0,
    ) {
        let size = size_mb * 1_000_000;
        let output = (size as f64 * out_frac) as u64;
        let job = job_of(size, output, 600.0);
        let policy = ChunkPolicy { target_chunk_mb: target, ..ChunkPolicy::default() };
        let chunks = chunk_job(&job, &policy);
        prop_assert!(!chunks.is_empty());
        prop_assert_eq!(chunks.iter().map(|c| c.features.size_bytes).sum::<u64>(), size);
        prop_assert_eq!(chunks.iter().map(|c| c.output_bytes).sum::<u64>(), output);
        prop_assert_eq!(chunks.iter().map(|c| c.features.pages).sum::<u32>(), job.features.pages);
        if chunks.len() > 1 {
            prop_assert!(chunks.iter().all(|c| c.parent.get() == Some(job.id)));
            // No chunk exceeds the target by more than the rounding slack.
            for c in &chunks {
                prop_assert!(c.size_mb() <= target + 1.0);
            }
        }
    }

    /// The fluid link conserves bytes and completes transfers in a finite
    /// number of wakes for any mix of sizes and thread counts.
    #[test]
    fn link_conserves_bytes(
        sizes in prop::collection::vec(1_000u64..10_000_000, 1..12),
        threads in prop::collection::vec(1u32..8, 12),
        seed in 0u64..1000,
    ) {
        let mut link = Link::new(BandwidthModel::high_variation(seed), 1.5, SimDuration::from_secs(30));
        for (i, &s) in sizes.iter().enumerate() {
            link.start(SimTime::ZERO, TransferId(i as u64), s, threads[i]);
        }
        let mut n = 0;
        let mut guard = 0;
        let mut last = SimTime::ZERO;
        let mut done = Vec::new();
        while let Some(w) = link.next_wake() {
            done.clear();
            link.advance_into(w, &mut done);
            for c in &done {
                prop_assert!(c.at >= last);
                last = c.at;
            }
            n += done.len();
            guard += 1;
            prop_assert!(guard < 100_000, "link failed to converge");
        }
        prop_assert_eq!(n, sizes.len());
        prop_assert_eq!(link.bytes_delivered(), sizes.iter().sum::<u64>());
        prop_assert_eq!(link.in_flight(), 0);
    }

    /// The OO metric is monotone in time and in tolerance for arbitrary
    /// completion patterns, and never counts more bytes than completed.
    #[test]
    fn oo_metric_monotonicity(
        completions in prop::collection::vec((0u64..40, 1u64..5_000, 1u64..1_000_000), 1..40),
    ) {
        // Dedup ids (each job completes once).
        let mut seen = std::collections::BTreeSet::new();
        let recs: Vec<CompletionRecord> = completions
            .iter()
            .filter(|(id, _, _)| seen.insert(*id))
            .map(|&(id, secs, bytes)| CompletionRecord {
                id,
                at: SimTime::from_secs(secs),
                bytes,
            })
            .collect();
        let total: u64 = recs.iter().map(|r| r.bytes).sum();
        let horizon = SimTime::from_secs(6_000);
        let mut prev_final = 0u64;
        for tol in 0..6 {
            let cfg = OoConfig { tolerance: tol, sample_interval: SimDuration::from_secs(60) };
            let series = oo_series(&recs, 40, horizon, cfg);
            for w in series.windows(2) {
                prop_assert!(w[1].o_t >= w[0].o_t, "time monotonicity violated");
            }
            let f = series.last().map_or(0, |s| s.o_t);
            prop_assert!(f >= prev_final, "tolerance monotonicity violated");
            prop_assert!(f <= total, "counted more bytes than completed");
            prev_final = f;
        }
    }

    /// OLS on noise-free quadratic data recovers predictions exactly
    /// (to numerical precision), for random coefficient vectors.
    #[test]
    fn qrsm_recovers_random_quadratics(
        coeffs in prop::collection::vec(-5.0f64..5.0, 6),
        probe in prop::collection::vec(-3.0f64..3.0, 2),
    ) {
        let d = QuadraticDesign::new(2);
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 7) as f64 - 3.0, ((i * 3) % 11) as f64 * 0.5 - 2.0])
            .collect();
        let m: Matrix = d.design_matrix(&xs);
        let ys: Vec<f64> = xs.iter().map(|x| d.eval(&coeffs, x)).collect();
        let beta = fit::fit(&m, &ys, cloudburst_repro::qrsm::Method::Ols).unwrap();
        let pred = d.eval(&beta, &probe);
        let truth = d.eval(&coeffs, &probe);
        prop_assert!((pred - truth).abs() < 1e-6 * (1.0 + truth.abs()),
            "pred={pred} truth={truth}");
    }

    /// Completion-delay series: sum of positive deltas minus the in-order
    /// baseline equals the last completion time (telescoping identity).
    #[test]
    fn delay_series_telescopes(times in prop::collection::vec(1u64..100_000, 1..100)) {
        use cloudburst_repro::sla::metrics::completion_delay_series;
        let ts: Vec<SimTime> = times.iter().map(|&s| SimTime::from_secs(s)).collect();
        let deltas = completion_delay_series(&ts, SimTime::ZERO);
        // max over prefix = sum of positive deltas (running max increments).
        let pos_sum: f64 = deltas.iter().filter(|d| **d > 0.0).sum();
        let max_t = times.iter().max().copied().unwrap() as f64;
        prop_assert!((pos_sum - max_t).abs() < 1e-6, "pos_sum={pos_sum} max={max_t}");
    }
}

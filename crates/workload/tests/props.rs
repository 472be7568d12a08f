//! Property tests for workload generation: bucket ranges, arrival
//! determinism, chunk conservation, and sampler sanity.

use proptest::prelude::*;

use cloudburst_sim::RngFactory;
use cloudburst_workload::chunk::{chunk_batch, ChunkPolicy};
use cloudburst_workload::{
    ArrivalConfig, BatchArrivals, DocumentFeatures, GroundTruth, SizeBucket,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every bucket produces sizes in [1, 300] MB and plausible feature
    /// vectors, for any seed.
    #[test]
    fn buckets_stay_in_domain(seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for bucket in SizeBucket::ALL {
            for _ in 0..50 {
                let bytes = bucket.sample_bytes(&mut rng);
                prop_assert!((1_000_000..=300_000_000).contains(&bytes));
                let f = DocumentFeatures::sample_any_type(&mut rng, bytes);
                prop_assert!(f.pages >= 1);
                prop_assert!((0.0..=1.0).contains(&f.color_fraction));
                prop_assert!((0.0..=1.0).contains(&f.coverage));
                prop_assert!(GroundTruth::default().mean_secs(&f) > 0.0);
            }
        }
    }

    /// Arrival generation is a pure function of (seed, config): ids are
    /// dense, batches are on schedule, and regeneration is identical.
    #[test]
    fn arrivals_are_deterministic(seed in any::<u64>(), n_batches in 1u32..10) {
        let cfg = ArrivalConfig { n_batches, ..ArrivalConfig::default() };
        let gen = BatchArrivals::new(cfg);
        let truth = GroundTruth::default();
        let a = gen.generate(&RngFactory::new(seed), &truth);
        let b = gen.generate(&RngFactory::new(seed), &truth);
        prop_assert_eq!(a.len(), n_batches as usize);
        let mut next_id = 0u64;
        for (ba, bb) in a.iter().zip(&b) {
            prop_assert_eq!(ba.jobs.len(), bb.jobs.len());
            for (ja, jb) in ba.jobs.iter().zip(&bb.jobs) {
                prop_assert_eq!(ja.id.0, next_id);
                next_id += 1;
                prop_assert_eq!(ja.features.size_bytes, jb.features.size_bytes);
                prop_assert_eq!(ja.true_service_secs, jb.true_service_secs);
                prop_assert!(ja.true_service_secs > 0.0);
                prop_assert!(ja.output_bytes >= 1);
            }
        }
    }

    /// Batch chunking conserves total bytes and only ever grows the list.
    #[test]
    fn chunk_batch_conserves(seed in any::<u64>(), th in 10.0f64..200.0, target in 30.0f64..150.0) {
        let gen = BatchArrivals::new(ArrivalConfig {
            n_batches: 1,
            bucket: SizeBucket::LargeBiased,
            ..ArrivalConfig::default()
        });
        let jobs = gen.generate_flat(&RngFactory::new(seed), &GroundTruth::default());
        let policy = ChunkPolicy {
            sigma_threshold_mb: th,
            target_chunk_mb: target,
            ..ChunkPolicy::default()
        };
        let out = chunk_batch(jobs.clone(), &policy);
        prop_assert!(out.len() >= jobs.len());
        prop_assert_eq!(
            out.iter().map(|j| j.features.size_bytes).sum::<u64>(),
            jobs.iter().map(|j| j.features.size_bytes).sum::<u64>()
        );
        prop_assert_eq!(
            out.iter().map(|j| j.output_bytes).sum::<u64>(),
            jobs.iter().map(|j| j.output_bytes).sum::<u64>()
        );
        // Chunks point at real parents from the original list.
        for j in &out {
            if let Some(p) = j.parent {
                prop_assert!(jobs.iter().any(|orig| orig.id == p));
            }
        }
    }

    /// The seasonal profile never produces a non-positive rate and repeats
    /// with its cycle length.
    #[test]
    fn seasonal_rates_positive_and_cyclic(cycle in 1usize..20, peak in 1.0f64..6.0) {
        let cfg = ArrivalConfig::default().with_seasonal_cycle(cycle, peak);
        for b in 0..3 * cycle as u32 {
            let r = cfg.rate_for_batch(b);
            prop_assert!(r > 0.0);
            prop_assert!((cfg.rate_for_batch(b + cycle as u32) - r).abs() < 1e-12);
        }
    }

    /// Ground-truth sampling is multiplicative: scaling class factors
    /// scales times.
    #[test]
    fn class_factors_scale_truth(factor in 0.5f64..3.0, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let f = DocumentFeatures::sample_any_type(&mut rng, 50_000_000);
        let base = GroundTruth::noiseless();
        let mut scaled = base.clone();
        scaled.class_factors = [factor; 6];
        prop_assert!(
            (scaled.mean_secs(&f) / base.mean_secs(&f) - factor).abs() < 1e-9
        );
    }
}

//! Property tests for the schedulers: completeness, order preservation,
//! slack-safety under the scheduler's own estimates, and baseline safety —
//! for randomized workloads and load states.

use proptest::prelude::*;

use cloudburst_qrsm::{Method, QrsModel};
use cloudburst_sched::api::Planner;
use cloudburst_sched::{
    BurstScheduler, EstimateProvider, FreeTimeIndex, GreedyScheduler, IcOnlyScheduler,
    LoadModelBuf, OrderPreservingScheduler, OutstandingSet, Placement, SibsScheduler,
};
use cloudburst_sim::{RngFactory, SimTime};
use cloudburst_workload::arrival::training_corpus;
use cloudburst_workload::{ArrivalConfig, BatchArrivals, GroundTruth, Job, SizeBucket};

fn provider() -> EstimateProvider {
    let rngs = RngFactory::new(424242);
    let truth = GroundTruth::noiseless();
    let corpus = training_corpus(&mut rngs.stream("train"), &truth, 300);
    let xs: Vec<Vec<f64>> = corpus.iter().map(|(f, _)| f.regressors()).collect();
    let ys: Vec<f64> = corpus.iter().map(|(_, t)| *t).collect();
    EstimateProvider::new(QrsModel::fit(&xs, &ys, Method::Ols).expect("fit"))
        .with_bandwidth_prior(250_000.0)
}

fn batch_for(seed: u64, n: f64, bucket: SizeBucket) -> Vec<Job> {
    let gen = BatchArrivals::new(ArrivalConfig {
        n_batches: 1,
        jobs_per_batch: n,
        bucket,
        ..ArrivalConfig::default()
    });
    gen.generate_flat(&RngFactory::new(seed), &GroundTruth::default())
}

fn load_for(now_secs: u64, ic_backlog: f64, n_ic: usize, n_ec: usize) -> LoadModelBuf {
    let mut load = LoadModelBuf::idle(SimTime::from_secs(now_secs), n_ic, n_ec);
    load.ic_free_secs = vec![ic_backlog; n_ic];
    if ic_backlog > 0.0 {
        load.outstanding_est_completions =
            vec![SimTime::from_secs(now_secs) + cloudburst_sim::SimDuration::from_secs_f64(ic_backlog)];
    }
    load
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every scheduler returns every input job's bytes exactly once (chunk
    /// expansion conserves input size), preserving relative order of
    /// surviving originals.
    #[test]
    fn schedulers_conserve_the_batch(
        seed in any::<u64>(),
        backlog in 0.0f64..6_000.0,
        bucket_idx in 0usize..3,
    ) {
        let est = provider();
        let bucket = SizeBucket::ALL[bucket_idx];
        let batch = batch_for(seed, 8.0, bucket);
        let total: u64 = batch.iter().map(|j| j.input_bytes()).sum();
        let in_ids: Vec<_> = batch.iter().map(|j| j.id).collect();
        let load = load_for(0, backlog, 8, 2);

        let mut scheds: Vec<Box<dyn BurstScheduler>> = vec![
            Box::new(IcOnlyScheduler::new()),
            Box::new(GreedyScheduler::new()),
            Box::new(OrderPreservingScheduler::default()),
            Box::new(SibsScheduler::default()),
        ];
        for s in &mut scheds {
            let out = s.schedule_batch(batch.clone(), &load.as_model(), &est);
            let got: u64 = out.jobs.iter().map(|s| s.job.input_bytes()).sum();
            prop_assert_eq!(got, total, "{} lost bytes", s.name());
            // Each job carries exactly the estimate the QRSM gives it.
            for sj in &out.jobs {
                let want = est.exec_secs(&sj.job).to_bits();
                prop_assert_eq!(sj.est_secs.to_bits(), want, "{}", s.name());
            }
            // Original (unchunked) jobs appear in input order.
            let originals: Vec<_> =
                out.jobs.iter().filter(|s| !s.job.is_chunk()).map(|s| s.job.id).collect();
            let expected: Vec<_> = in_ids
                .iter()
                .copied()
                .filter(|id| originals.contains(id))
                .collect();
            prop_assert_eq!(originals, expected, "{} reordered the batch", s.name());
        }
    }

    /// Every scheduler hands on the completion its own plan committed:
    /// replaying the schedule through a fresh planner over the same
    /// snapshot gives each job's `est_ct` bit for bit — chunked batches,
    /// a queued upload backlog and off-zero decision instants included.
    #[test]
    fn every_carried_completion_equals_a_fresh_plan(
        seed in any::<u64>(),
        (now, backlog, upload_mb) in (0u64..90_000, 0.0f64..6_000.0, 0u64..400),
        bucket_idx in 0usize..3,
    ) {
        let est = provider();
        let batch = batch_for(seed, 12.0, SizeBucket::ALL[bucket_idx]);
        let mut load = load_for(now, backlog, 4, 2);
        load.upload_backlog_bytes = upload_mb * 1_000_000;
        let mut scheds: Vec<Box<dyn BurstScheduler>> = vec![
            Box::new(IcOnlyScheduler::new()),
            Box::new(GreedyScheduler::new()),
            Box::new(OrderPreservingScheduler::default()),
            Box::new(SibsScheduler::default()),
        ];
        for s in &mut scheds {
            let out = s.schedule_batch(batch.clone(), &load.as_model(), &est);
            let mut replay = Planner::new(&load.as_model(), &est);
            for (k, sj) in out.jobs.iter().enumerate() {
                let want = replay.commit(&sj.job, sj.est_secs, sj.placement);
                prop_assert_eq!(sj.est_ct, want, "{} job {}", s.name(), k);
            }
        }
    }

    /// IC-only never bursts; Greedy never places a job somewhere its own
    /// estimate says is strictly slower at decision time.
    #[test]
    fn greedy_is_locally_optimal(seed in any::<u64>(), backlog in 0.0f64..8_000.0) {
        let est = provider();
        let batch = batch_for(seed, 6.0, SizeBucket::Uniform);
        let load = load_for(0, backlog, 4, 2);
        let out = GreedyScheduler::new().schedule_batch(batch, &load.as_model(), &est);
        // Replay the planner; at each step the chosen side's finish time
        // must be ≤ the other side's.
        let mut planner = Planner::new(&load.as_model(), &est);
        for s in &out.jobs {
            let e = est.exec_secs(&s.job);
            let t_ic = planner.ft_ic(e);
            let t_ec = planner.ft_ec(&s.job, e);
            match s.placement {
                Placement::Internal => prop_assert!(t_ic <= t_ec),
                Placement::External => prop_assert!(t_ec < t_ic),
            }
            planner.commit(&s.job, e, s.placement);
        }
    }

    /// Op only bursts jobs whose round trip fits their slack under its own
    /// estimates (Eq. 2), whatever the workload and backlog.
    #[test]
    fn op_respects_eq2(seed in any::<u64>(), backlog in 0.0f64..8_000.0) {
        let est = provider();
        let batch = batch_for(seed, 8.0, SizeBucket::LargeBiased);
        let load = load_for(0, backlog, 4, 2);
        let out = OrderPreservingScheduler::default()
            .schedule_batch(batch, &load.as_model(), &est);
        let mut planner = Planner::new(&load.as_model(), &est);
        for s in &out.jobs {
            let e = est.exec_secs(&s.job);
            if s.placement == Placement::External {
                let slack = planner.slack().expect("burst requires predecessors");
                prop_assert!(planner.ft_ec(&s.job, e) <= slack, "Eq. 2 violated");
            }
            planner.commit(&s.job, e, s.placement);
        }
    }

    /// The tournament-tree free-time index replays an FCFS drain exactly
    /// like the linear `min_by` rescan it replaced: same machine choices,
    /// bitwise-identical free-time arrays.
    #[test]
    fn freetime_index_matches_linear_rescan(
        initial in proptest::collection::vec(0.0f64..10_000.0, 1..40),
        costs in proptest::collection::vec(0.0f64..500.0, 0..200),
        dupe_every in 1usize..6,
    ) {
        // Inject exact duplicates so the tie-break path is exercised.
        let mut free: Vec<f64> = initial;
        for i in (0..free.len()).step_by(dupe_every) {
            free[i] = free[0];
        }
        let mut ix = FreeTimeIndex::new();
        ix.reset_from(&free);
        for cost in costs {
            let (want_idx, _) = free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
                .expect("machines exist");
            free[want_idx] += cost;
            let got_idx = ix.fcfs_commit(cost);
            prop_assert_eq!(got_idx, want_idx);
            prop_assert_eq!(ix.values(), &free[..]);
        }
    }

    /// The incremental outstanding-completions pool holds exactly the same
    /// multiset as a from-scratch rebuild of the engine's Option table,
    /// under arbitrary admit/complete interleavings.
    #[test]
    fn outstanding_set_matches_table_rebuild(
        ops in proptest::collection::vec((any::<u32>(), 1u64..100_000), 1..300),
    ) {
        let mut table: Vec<Option<SimTime>> = Vec::new();
        let mut set = OutstandingSet::new();
        for (pick, est_secs) in ops {
            let est = SimTime::from_secs(est_secs);
            table.push(Some(est));
            set.insert((table.len() - 1) as u64, est);
            // Complete a pseudo-random (possibly already-done) job.
            let victim = pick as usize % table.len();
            if pick % 3 != 0 {
                table[victim] = None;
                set.remove(victim as u64);
            }
            let mut want: Vec<SimTime> = table.iter().flatten().copied().collect();
            let mut got: Vec<SimTime> = set.values().to_vec();
            want.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, want);
            // The slack anchor — the one consumer — agrees too.
            prop_assert_eq!(
                set.values().iter().copied().max(),
                table.iter().flatten().copied().max()
            );
        }
    }

    /// SIBS placements equal Op placements for identical inputs; its bounds
    /// (when present) are ordered.
    #[test]
    fn sibs_wraps_op_faithfully(seed in any::<u64>(), backlog in 0.0f64..8_000.0) {
        let est = provider();
        let batch = batch_for(seed, 8.0, SizeBucket::Uniform);
        let load = load_for(0, backlog, 4, 2);
        let a = SibsScheduler::default().schedule_batch(batch.clone(), &load.as_model(), &est);
        let b = OrderPreservingScheduler::default()
            .schedule_batch(batch, &load.as_model(), &est);
        let pa: Vec<Placement> = a.jobs.iter().map(|s| s.placement).collect();
        let pb: Vec<Placement> = b.jobs.iter().map(|s| s.placement).collect();
        prop_assert_eq!(pa, pb);
        if let Some(bounds) = a.sibs {
            prop_assert!(bounds.s_bound <= bounds.m_bound);
        }
    }
}

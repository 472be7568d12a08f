//! Property tests for the network substrate: link conservation under
//! latency and jitter, estimator convergence, SIBS bound invariants.

use proptest::prelude::*;

use cloudburst_net::queues::{SibsCandidate, SibsQueues};
use cloudburst_net::link::Completion;
use cloudburst_net::{
    sibs_bounds, BandwidthEstimator, BandwidthModel, CapacityFault, Link, SizeClass, TransferId,
};
use cloudburst_sim::{SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bytes are conserved and completions stay chronological for any mix
    /// of sizes, threads, stagger, latency and bandwidth jitter.
    #[test]
    fn link_conservation_under_everything(
        sizes in prop::collection::vec(1_000u64..5_000_000, 1..10),
        threads in prop::collection::vec(1u32..6, 10),
        starts in prop::collection::vec(0u64..500, 10),
        latency in 0u64..30,
        seed in 0u64..500,
    ) {
        let mut link = Link::new(
            BandwidthModel::high_variation(seed),
            1.5,
            SimDuration::from_secs(30),
        )
        .with_latency(SimDuration::from_secs(latency));
        // Stagger starts (sorted so the advance-before-start contract holds).
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        order.sort_by_key(|&i| starts[i]);
        let mut done = Vec::new();
        for &i in &order {
            let at = SimTime::from_secs(starts[i]);
            link.advance_into(at, &mut done);
            link.start(at, TransferId(i as u64), sizes[i], threads[i]);
        }
        let mut guard = 0;
        while let Some(w) = link.next_wake() {
            link.advance_into(w, &mut done);
            guard += 1;
            prop_assert!(guard < 200_000, "no convergence");
        }
        prop_assert_eq!(done.len(), sizes.len());
        prop_assert_eq!(link.bytes_delivered(), sizes.iter().sum::<u64>());
        for w in done.windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
        // With latency, nothing completes before its start + latency.
        for c in &done {
            prop_assert!(c.at >= c.started + SimDuration::from_secs(latency));
        }
    }

    /// The EWMA estimator converges to a constant signal regardless of α
    /// and the initial prior, and stays within the observed range.
    #[test]
    fn estimator_converges_and_stays_in_range(
        alpha in 0.05f64..1.0,
        rate in 1_000.0f64..1e7,
        prior in 1.0f64..1e8,
    ) {
        let mut e = BandwidthEstimator::new(1, alpha).with_prior(prior);
        for i in 0..200u64 {
            e.observe(SimTime::from_secs(i), rate);
        }
        let p = e.predict(SimTime::from_secs(999));
        prop_assert!((p / rate - 1.0).abs() < 0.05, "p={p} rate={rate}");
        prop_assert!(p >= rate.min(prior) * 0.999 && p <= rate.max(prior) * 1.001);
    }

    /// SIBS bounds are always ordered (s ≤ m) and classify the candidate
    /// sizes into non-decreasing classes.
    #[test]
    fn sibs_bounds_are_ordered(
        sizes in prop::collection::vec(1_000u64..300_000_000, 1..64),
        q in prop::collection::vec(0u64..1_000_000_000, 3),
    ) {
        let cands: Vec<SibsCandidate> = sizes
            .iter()
            .map(|&s| SibsCandidate { size: s, t_up: 1.0, e_ec: 1.0, t_down: 1.0, e_ic: 10.0 })
            .collect();
        // Huge iload so every candidate qualifies.
        if let Some(b) = sibs_bounds(&cands, 1e12, 8, (q[0], q[1], q[2])) {
            prop_assert!(b.s_bound <= b.m_bound);
            let mut last = SizeClass::Small;
            let mut sorted = sizes.clone();
            sorted.sort_unstable();
            for s in sorted {
                let c = b.classify(s);
                prop_assert!(c >= last, "classes must be monotone in size");
                last = c;
            }
        } else {
            prop_assert!(false, "every candidate qualifies; bounds must exist");
        }
    }

    /// The ride-up queue policy never serves a job of a *higher* class
    /// through a lower-class slot, and conserves items.
    #[test]
    fn queues_conserve_and_respect_classes(
        items in prop::collection::vec((0usize..3, 1u64..1000), 0..60),
        pops in prop::collection::vec(0usize..3, 0..80),
    ) {
        let cls = [SizeClass::Small, SizeClass::Medium, SizeClass::Large];
        let mut q: SibsQueues<usize> = SibsQueues::new();
        for (i, &(c, b)) in items.iter().enumerate() {
            q.push(cls[c], i, b);
        }
        let mut served = 0;
        for &slot in &pops {
            if let Some((item, _)) = q.pop_for(cls[slot]) {
                let item_class = items[item].0;
                prop_assert!(item_class <= slot, "class {item_class} via slot {slot}");
                served += 1;
            }
        }
        prop_assert_eq!(served + q.len(), items.len());
        let (s, m, l) = q.queued_bytes();
        let remaining_bytes: u64 = s + m + l;
        prop_assert!(remaining_bytes <= items.iter().map(|(_, b)| *b).sum::<u64>());
    }
}

/// One step of a random link workload (see
/// `asking_next_wake_changes_nothing`).
#[derive(Clone, Copy, Debug)]
enum Step {
    Start { bytes: u64, threads: u32 },
    Abort(u64),
    Advance(u64),
    Wake,
}

/// Decodes one drawn `(kind, bytes, threads, span)` tuple: kinds 0–2
/// start (kind 2 a copy of the first transfer, so ETAs tie), 3 aborts, 4–5 advance by the span in µs, 6–9 advance to
/// the next wake.
fn step((kind, bytes, threads, span): (u8, u64, u32, u64)) -> Step {
    match kind {
        0 | 1 => Step::Start { bytes, threads },
        // The first transfer's twin: equal ETAs when started together.
        2 => Step::Start { bytes: 2_000_000, threads: 2 },
        3 => Step::Abort(span % 64),
        4 | 5 => Step::Advance(span),
        _ => Step::Wake,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `next_wake` is a pure query: a link asked it after every step and
    /// before every advance (so each advance may start from the piece it
    /// kept, and starts and aborts must drop a stale one) delivers the
    /// same completions `(id, at, bytes)` and keeps the same remaining
    /// bytes as a twin that is never asked, over random starts, aborts,
    /// advances, capacity faults installed after a kept piece, latency
    /// and jittered capacity. The twin advances to the asked link's
    /// wakes, so both see the same instants.
    #[test]
    fn asking_next_wake_changes_nothing(
        steps in prop::collection::vec((0u8..10, 1_000u64..40_000_000, 1u32..6, 0u64..90_000_000), 1..80),
        seed in 0u64..400,
        latency in 0u64..20,
        faulty in any::<bool>(),
    ) {
        let mut asked = Link::new(BandwidthModel::high_variation(seed), 1.5, SimDuration::from_secs(30))
            .with_latency(SimDuration::from_secs(latency));
        let mut never = asked.clone();
        asked.start(SimTime::ZERO, TransferId(0), 2_000_000, 2);
        never.start(SimTime::ZERO, TransferId(0), 2_000_000, 2);
        let first_wake = asked.next_wake();
        if faulty {
            let faults = vec![
                CapacityFault { from: SimTime::from_secs(5), until: SimTime::from_secs(95), factor: 0.0 },
                CapacityFault { from: SimTime::ZERO, until: SimTime::from_secs(400), factor: 0.3 },
            ];
            asked.set_faults(faults.clone());
            never.set_faults(faults);
            // The blackout's edge at 5 s now ends the first piece.
            let cut = first_wake.map(|w| w.min(SimTime::from_secs(5)));
            prop_assert_eq!(asked.next_wake(), cut, "a kept piece survived set_faults");
        }
        let key = |c: &Completion| (c.id, c.at, c.bytes);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut now = SimTime::ZERO;
        let mut next_id = 1;
        let mut wakes = 0;
        for &drawn in &steps {
            match step(drawn) {
                Step::Start { bytes, threads } => {
                    asked.start(now, TransferId(next_id), bytes, threads);
                    never.start(now, TransferId(next_id), bytes, threads);
                    next_id += 1;
                }
                Step::Abort(k) => {
                    let id = TransferId(k % next_id);
                    prop_assert_eq!(asked.abort(now, id), never.abort(now, id));
                }
                Step::Advance(us) => {
                    now += SimDuration::from_micros(us);
                    asked.next_wake();
                    asked.advance_into(now, &mut got);
                    never.advance_into(now, &mut want);
                }
                Step::Wake => {
                    if let Some(w) = asked.next_wake() {
                        now = w;
                        asked.advance_into(now, &mut got);
                        never.advance_into(now, &mut want);
                    }
                }
            }
            prop_assert_eq!(got.iter().map(key).collect::<Vec<_>>(), want.iter().map(key).collect::<Vec<_>>());
            prop_assert_eq!(asked.remaining_bytes(), never.remaining_bytes());
            // The engine re-arms its wake after every event, so a piece is
            // kept across the starts and aborts of the next event.
            asked.next_wake();
        }
        while let Some(w) = asked.next_wake() {
            asked.advance_into(w, &mut got);
            never.advance_into(w, &mut want);
            wakes += 1;
            prop_assert!(wakes < 200_000, "no convergence");
        }
        prop_assert_eq!(never.in_flight(), 0);
        prop_assert_eq!(got.iter().map(key).collect::<Vec<_>>(), want.iter().map(key).collect::<Vec<_>>());
        prop_assert_eq!(asked.remaining_bytes(), never.remaining_bytes());
        prop_assert_eq!(asked.bytes_delivered(), never.bytes_delivered());
    }
}

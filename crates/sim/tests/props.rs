//! Property tests for the DES kernel: ordering, cancellation, run_until
//! semantics and RNG stream independence under arbitrary inputs.

use std::collections::BTreeSet;

use proptest::prelude::*;

use cloudburst_sim::{EventId, RngFactory, Sim, SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Events fire exactly once, in (time, insertion) order.
    #[test]
    fn total_order_with_stable_ties(times in prop::collection::vec(0u64..1_000, 1..300)) {
        let mut sim: Sim<Vec<(u64, usize)>> = Sim::new();
        for (idx, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_micros(t), move |w: &mut Vec<(u64, usize)>, sim| {
                w.push((sim.now().as_micros(), idx));
            });
        }
        let mut seen = Vec::new();
        sim.run(&mut seen);
        prop_assert_eq!(seen.len(), times.len());
        for w in seen.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Cancelling an arbitrary subset prevents exactly that subset.
    #[test]
    fn cancellation_is_exact(
        times in prop::collection::vec(0u64..1_000, 1..120),
        cancel_mask in prop::collection::vec(any::<bool>(), 120),
    ) {
        let mut sim: Sim<Vec<usize>> = Sim::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                sim.schedule_at(SimTime::from_micros(t), move |w: &mut Vec<usize>, _| w.push(i))
            })
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i] {
                prop_assert!(sim.cancel(*id));
            } else {
                expect.push(i);
            }
        }
        let mut seen = Vec::new();
        sim.run(&mut seen);
        seen.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(seen, expect);
    }

    /// run_until(t) fires exactly the events at or before t and leaves the
    /// clock at t; a subsequent run() finishes the rest.
    #[test]
    fn run_until_partitions_cleanly(
        times in prop::collection::vec(1u64..1_000, 1..100),
        cut in 1u64..1_000,
    ) {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        for &t in &times {
            sim.schedule_at(SimTime::from_micros(t), move |w: &mut Vec<u64>, _| w.push(t));
        }
        let mut seen = Vec::new();
        sim.run_until(&mut seen, SimTime::from_micros(cut));
        prop_assert!(seen.iter().all(|&t| t <= cut));
        prop_assert_eq!(sim.now(), SimTime::from_micros(cut));
        let before = seen.len();
        sim.run(&mut seen);
        prop_assert!(seen[before..].iter().all(|&t| t > cut));
        prop_assert_eq!(seen.len(), times.len());
    }

    /// Interleaved schedule/cancel/step with slab slot reuse: a cancelled
    /// event never fires, nothing fires twice, a spent id cannot cancel the
    /// slot's next occupant, and no `EventId` is ever issued twice (the
    /// generation half of the id keeps reused slots distinguishable).
    #[test]
    fn slot_reuse_never_confuses_ids(
        ops in prop::collection::vec((0u8..4, 0u64..40, 0usize..1 << 20), 1..400),
    ) {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut live: Vec<(EventId, u64)> = Vec::new();
        let mut spent: Vec<EventId> = Vec::new();
        let mut cancelled: Vec<u64> = Vec::new();
        let mut issued: BTreeSet<EventId> = BTreeSet::new();
        let mut token = 0u64;
        let mut log: Vec<u64> = Vec::new();
        for (op, delay, pick) in ops {
            match op {
                // Biased 2:1 toward scheduling so slots churn through reuse.
                0 | 1 => {
                    let tk = token;
                    token += 1;
                    let id = sim
                        .schedule_in(SimDuration::from_micros(delay), move |w: &mut Vec<u64>, _| {
                            w.push(tk)
                        });
                    prop_assert!(issued.insert(id), "EventId issued twice: {:?}", id);
                    live.push((id, tk));
                }
                2 => {
                    if !live.is_empty() {
                        let (id, tk) = live.swap_remove(pick % live.len());
                        prop_assert!(sim.cancel(id));
                        prop_assert!(!sim.cancel(id), "double-cancel succeeded");
                        cancelled.push(tk);
                        spent.push(id);
                    }
                }
                _ => {
                    let before = log.len();
                    if sim.step(&mut log) {
                        let tk = log[before];
                        if let Some(i) = live.iter().position(|&(_, t)| t == tk) {
                            spent.push(live.swap_remove(i).0);
                        }
                    }
                }
            }
            // A fired or cancelled id must stay inert even after its slot
            // has been handed to a newer event.
            if let Some(&stale) = spent.last() {
                prop_assert!(!sim.cancel(stale), "stale id cancelled a live event");
            }
        }
        sim.run(&mut log);
        let fired: BTreeSet<u64> = log.iter().copied().collect();
        prop_assert_eq!(fired.len(), log.len(), "an event fired twice");
        for tk in &cancelled {
            prop_assert!(!fired.contains(tk), "cancelled event fired");
        }
        prop_assert_eq!(log.len() + cancelled.len(), token as usize);
    }

    /// RNG streams: same label reproduces, different labels decorrelate.
    #[test]
    fn rng_streams_reproduce(seed in any::<u64>(), label in "[a-z]{1,12}") {
        use rand::Rng;
        let f = RngFactory::new(seed);
        let a: Vec<u64> = {
            let mut r = f.stream(&label);
            (0..4).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = f.stream(&label);
            (0..4).map(|_| r.gen()).collect()
        };
        prop_assert_eq!(&a, &b);
        let c: u64 = f.stream(&format!("{label}/x")).gen();
        prop_assert_ne!(a[0], c);
    }
}

//! Property tests for the SLA layer: OO metric bounds, metric identities,
//! and ticket/guarantee consistency.

use proptest::prelude::*;

use cloudburst_sim::{SimDuration, SimTime};
use cloudburst_sla::ticket::{check_guarantee, guaranteeable_target, TicketOutcome};
use cloudburst_sla::{metrics, oo_series, ticket_report, CompletionRecord, OoConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// With tolerance ≥ total jobs, everything completed is always ordered:
    /// o_t equals the byte-sum of completions so far.
    #[test]
    fn infinite_tolerance_counts_everything(
        recs in prop::collection::vec((0u64..30, 1u64..2_000, 1u64..1_000), 1..30),
    ) {
        let mut seen = std::collections::BTreeSet::new();
        let recs: Vec<CompletionRecord> = recs
            .iter()
            .filter(|(id, _, _)| seen.insert(*id))
            .map(|&(id, s, b)| CompletionRecord { id, at: SimTime::from_secs(s), bytes: b })
            .collect();
        let cfg = OoConfig { tolerance: 30, sample_interval: SimDuration::from_secs(50) };
        let series = oo_series(&recs, 30, SimTime::from_secs(2_500), cfg);
        for sample in &series {
            let expect: u64 =
                recs.iter().filter(|r| r.at <= sample.at).map(|r| r.bytes).sum();
            prop_assert_eq!(sample.o_t, expect, "at {:?}", sample.at);
        }
    }

    /// Strict order (tolerance 0): o_t is exactly the byte-sum of the
    /// longest completed prefix.
    #[test]
    fn strict_order_counts_the_prefix(
        times in prop::collection::vec(1u64..2_000, 1..25),
        bytes in prop::collection::vec(1u64..1_000, 25),
    ) {
        let recs: Vec<CompletionRecord> = times
            .iter()
            .enumerate()
            .map(|(i, &s)| CompletionRecord {
                id: i as u64,
                at: SimTime::from_secs(s),
                bytes: bytes[i],
            })
            .collect();
        let n = recs.len();
        let cfg = OoConfig { tolerance: 0, sample_interval: SimDuration::from_secs(100) };
        let series = oo_series(&recs, n, SimTime::from_secs(2_500), cfg);
        for sample in &series {
            let mut expect = 0u64;
            for r in &recs {
                if r.at <= sample.at {
                    expect += r.bytes;
                } else {
                    break; // prefix broken
                }
            }
            prop_assert_eq!(sample.o_t, expect);
        }
    }

    /// Makespan/delay identities: makespan equals the max delay prefix sum
    /// and is invariant under permutation of the completion order.
    #[test]
    fn makespan_is_permutation_invariant(times in prop::collection::vec(1u64..50_000, 1..60)) {
        let ts: Vec<SimTime> = times.iter().map(|&s| SimTime::from_secs(s)).collect();
        let m = metrics::makespan(&ts, SimTime::ZERO);
        let mut rev = ts.clone();
        rev.reverse();
        prop_assert_eq!(m, metrics::makespan(&rev, SimTime::ZERO));
        prop_assert_eq!(m, *times.iter().max().unwrap() as f64);
        // Speedup identity: speedup(s, m) * m = s.
        let sp = metrics::speedup(12_345.0, m);
        prop_assert!((sp * m - 12_345.0).abs() < 1e-6);
    }

    /// Ticket attainment equals the guarantee check at target 0 lateness.
    #[test]
    fn attainment_matches_guarantee(
        promised in prop::collection::vec(1u64..10_000, 1..40),
        completed in prop::collection::vec(1u64..10_000, 40),
    ) {
        let outcomes: Vec<TicketOutcome> = promised
            .iter()
            .enumerate()
            .map(|(i, &p)| TicketOutcome {
                id: i as u64,
                issued: SimTime::ZERO,
                promised: SimTime::from_secs(p),
                completed: SimTime::from_secs(completed[i]),
            })
            .collect();
        let rep = ticket_report(&outcomes);
        let lateness: Vec<f64> = outcomes.iter().map(|o| o.lateness_secs()).collect();
        let g = check_guarantee(&lateness, 0.0, 0.5);
        prop_assert!((rep.attainment - g.achieved).abs() < 1e-12);
        // The guaranteeable target at confidence c is honored at c.
        let q = guaranteeable_target(&lateness, 0.9);
        prop_assert!(check_guarantee(&lateness, q, 0.9).satisfied);
    }
}

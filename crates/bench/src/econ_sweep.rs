//! `cloudburst econ-sweep` — the price-regime × scheduler net-cost grid.
//!
//! Runs every bursting scheduler under each built-in price/penalty regime
//! and renders one aggregate table ranking them by mean net dollars. The
//! table is a pure function of (base config, seed list): every dollar
//! figure is integer [`Money`] end-to-end and the only floats printed are
//! makespans at fixed precision, so reruns are byte-identical — the same
//! determinism contract the run reports themselves carry.

use cloudburst_chaos::CrashLaw;
use cloudburst_core::{ExperimentConfig, SchedulerKind};
use cloudburst_econ::{
    AdmissionPolicy, BrokerPolicy, EconConfig, Money, PenaltySchedule, PriceModel,
};
use cloudburst_sla::RunReport;

use crate::runner::run_replications;

/// The schedulers the sweep ranks (the bursting trio; IC-only never
/// spends a dollar, which makes its "ranking" vacuous).
pub const SWEEP_SCHEDULERS: [SchedulerKind; 3] =
    [SchedulerKind::Greedy, SchedulerKind::OrderPreserving, SchedulerKind::Sibs];

/// The built-in price/penalty regimes, in presentation order.
///
/// All three share one lateness penalty (60 ¢ per hour late, uncapped) so
/// the compute-billing discipline is the only axis that moves between
/// regimes: metered on-demand, whole-hour rental, and a revocable spot
/// market whose price trace doubles mid-day.
pub fn price_regimes() -> Vec<(&'static str, EconConfig)> {
    let penalty = PenaltySchedule::PerHourLate { usd_per_hour: Money::from_cents(60) };
    let regime = |primary_price| EconConfig {
        primary_price: Some(primary_price),
        penalty,
        admission: AdmissionPolicy::AdmitAll,
        broker: BrokerPolicy::CostAware,
    };
    vec![
        (
            "on-demand",
            regime(PriceModel::OnDemand {
                usd_per_machine_hour: Money::from_cents(240),
                usd_per_gb_transfer: Money::from_cents(9),
            }),
        ),
        (
            "hourly-rental",
            regime(PriceModel::HourlyRental {
                usd_per_machine_hour: Money::from_cents(180),
                usd_per_gb_transfer: Money::from_cents(9),
            }),
        ),
        (
            "spot-revocable",
            regime(PriceModel::Spot {
                base_usd_per_machine_hour: Money::from_cents(120),
                usd_per_gb_transfer: Money::from_cents(9),
                multipliers: vec![(0.0, 700), (14_400.0, 1_500), (28_800.0, 1_000)],
                period_secs: 43_200.0,
                revocation: Some(CrashLaw {
                    mean_uptime_secs: 7_200.0,
                    mean_downtime_secs: 300.0,
                    max_faults_per_machine: 1,
                }),
            }),
        ),
    ]
}

/// One aggregated cell of the grid: a scheduler's mean economics over the
/// seed list under one regime.
struct SweepRow {
    scheduler: &'static str,
    net: Money,
    compute: Money,
    transfer: Money,
    penalty: Money,
    late: u64,
    revocations: u64,
    makespan_secs: f64,
}

/// Integer mean of a dollar total over `n` seeds (micro-dollar floor —
/// deterministic, unlike a float mean).
fn mean_money(total: Money, n: usize) -> Money {
    Money::from_micros(total.micros() / n as i64)
}

fn aggregate(scheduler: SchedulerKind, reports: &[RunReport]) -> SweepRow {
    let mut row = SweepRow {
        scheduler: scheduler.label(),
        net: Money::ZERO,
        compute: Money::ZERO,
        transfer: Money::ZERO,
        penalty: Money::ZERO,
        late: 0,
        revocations: 0,
        makespan_secs: 0.0,
    };
    for r in reports {
        if let Some(m) = &r.econ {
            row.net += m.net_cost();
            row.compute += m.compute;
            row.transfer += m.transfer;
            row.penalty += m.penalty;
            row.late += m.late_completions + m.commitment_violations;
            row.revocations += m.spot_revocations;
        }
        row.makespan_secs += r.makespan_secs;
    }
    let n = reports.len().max(1);
    row.net = mean_money(row.net, n);
    row.compute = mean_money(row.compute, n);
    row.transfer = mean_money(row.transfer, n);
    row.penalty = mean_money(row.penalty, n);
    row.makespan_secs /= n as f64;
    row
}

/// Runs the full regime × scheduler grid over `seeds` and renders the
/// aggregate table. Byte-identical across reruns of the same inputs.
pub fn econ_sweep_table(base: &ExperimentConfig, seeds: &[u64]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "econ-sweep: {} regimes x {} schedulers, {} seed(s) {:?}, bucket {:?}\n",
        price_regimes().len(),
        SWEEP_SCHEDULERS.len(),
        seeds.len(),
        seeds,
        base.arrivals.bucket,
    ));
    out.push_str(
        "regime          rank  scheduler   net$/run      compute$      transfer$     penalty$      late  revoked  makespan\n",
    );
    for (name, econ) in price_regimes() {
        let mut rows: Vec<SweepRow> = SWEEP_SCHEDULERS
            .iter()
            .map(|&scheduler| {
                let mut cfg = base.clone();
                cfg.scheduler = scheduler;
                cfg.econ = Some(econ.clone());
                aggregate(scheduler, &run_replications(&cfg, seeds))
            })
            .collect();
        rows.sort_by(|a, b| (a.net, a.scheduler).cmp(&(b.net, b.scheduler)));
        for (rank, row) in rows.iter().enumerate() {
            out.push_str(&format!(
                "{:<15} {:>4}  {:<10} {:>13} {:>13} {:>13} {:>13} {:>5} {:>8}  {:>7.0}s\n",
                name,
                rank + 1,
                row.scheduler,
                row.net.to_string(),
                row.compute.to_string(),
                row.transfer.to_string(),
                row.penalty.to_string(),
                row.late,
                row.revocations,
                row.makespan_secs,
            ));
        }
        let ranking: Vec<&str> = rows.iter().map(|r| r.scheduler).collect();
        out.push_str(&format!("{name} ranking (cheapest first): {}\n", ranking.join(" < ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_workload::{ArrivalConfig, SizeBucket};

    fn tiny_base() -> ExperimentConfig {
        ExperimentConfig {
            arrivals: ArrivalConfig {
                n_batches: 2,
                jobs_per_batch: 8.0,
                bucket: SizeBucket::SmallBiased,
                ..ArrivalConfig::default()
            },
            n_ic: 1,
            training_docs: 150,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn sweep_table_is_byte_identical_and_covers_the_grid() {
        let base = tiny_base();
        let table = econ_sweep_table(&base, &[41]);
        assert_eq!(table, econ_sweep_table(&base, &[41]), "rerun changed the table");
        for (name, _) in price_regimes() {
            assert!(table.contains(name), "regime {name} missing from table:\n{table}");
        }
        for scheduler in SWEEP_SCHEDULERS {
            assert!(table.contains(scheduler.label()), "{} missing:\n{table}", scheduler.label());
        }
        // Every regime prices compute and this workload bursts under all
        // three schedulers, so no grid cell should come out free.
        let names: Vec<&str> = price_regimes().iter().map(|(n, _)| *n).collect();
        for line in table.lines().filter(|l| names.iter().any(|n| l.starts_with(n))) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.get(1).is_some_and(|f| f.parse::<u32>().is_ok()) {
                assert_ne!(fields[3], "$0.000000", "free net cost in row: {line}");
                assert_ne!(fields[4], "$0.000000", "free compute in row: {line}");
            }
        }
    }

    #[test]
    fn regimes_cover_at_least_two_billing_disciplines() {
        let regimes = price_regimes();
        assert!(regimes.len() >= 2);
        let spot = regimes.iter().any(|(_, e)| {
            matches!(e.primary_price, Some(PriceModel::Spot { .. }))
        });
        let metered = regimes.iter().any(|(_, e)| {
            matches!(e.primary_price, Some(PriceModel::OnDemand { .. }))
        });
        assert!(spot && metered, "regime set lost its billing diversity");
    }
}

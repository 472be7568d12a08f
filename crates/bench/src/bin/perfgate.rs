//! `perfgate` — one rule table over a fresh probe line and the perf record.
//!
//! ```text
//! perfgate <fresh.json> <BENCH.json>
//! ```
//!
//! `fresh.json` is the one JSON line `perfsmoke` or `perfscale` wrote.
//! `BENCH.json` is the append-only perf record: one
//! `{"pr":N,"record":{…}}` line per recorded probe run, in PR order, each
//! record carried verbatim as it was measured.
//!
//! Every row of [`RULES`] is checked once:
//!
//! * **floors** — every throughput key (`*_per_sec`) the fresh line
//!   shares with the records must reach the largest recorded value ÷ 5.
//!   The 5× headroom makes the floor a regression tripwire (a return to a
//!   linear or allocating path shows up as 10–100×), not a flake on a
//!   busy host. A retired probe hands its recorded values to a named
//!   successor key (`FloorFor`), so retiring it loosens nothing.
//! * **fresh-line rules** — invariants of the run itself, read from the
//!   fresh line only (a baseline measured on other hardware would add
//!   noise, not teeth): the decisions/s-vs-depth curve stays flat, the
//!   serving live-bytes curves end within 1.5× of where they started, open
//!   serving holds ≥ 0.9× its closed-batch twin and a dormant econ
//!   section ≥ 0.95× the econ-free run. A rule whose keys the line does
//!   not carry is not armed.
//!
//! Exits non-zero if any check fails, or if the fresh line shares no
//! floor key with the records (a silently toothless gate is itself a
//! failure).

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde_json::{Map, Value};
use Kind::{AtLeast, Floor, FloorFor, LastOverFirst, MaxOverMin};

/// What a [`Rule`] bounds.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// A fresh key ≥ the largest recorded value of that key ÷ bound.
    Floor,
    /// Recorded values of the matched keys also floor the named fresh key
    /// (÷ bound): how a retired probe's record passes to its successor.
    FloorFor(&'static str),
    /// max ÷ min over the matched fresh keys ≤ bound (two keys or more).
    MaxOverMin,
    /// last ÷ first over the matched fresh keys, in key order, ≤ bound.
    LastOverFirst,
    /// The fresh key ≥ bound.
    AtLeast,
}

/// One row of the gate: a key or a one-`*` key pattern, a kind and a bound.
#[derive(Clone, Copy, Debug)]
struct Rule {
    keys: &'static str,
    kind: Kind,
    bound: f64,
}

const fn row(keys: &'static str, kind: Kind, bound: f64) -> Rule {
    Rule { keys, kind, bound }
}

const RULES: &[Rule] = &[
    row("*_per_sec", Floor, 5.0),
    // The threads curve timed the intra-run shard map, which is gone. Its
    // runs were the OP megascale run (seed 73, primary scale) that
    // `e2e_op_jobs_per_sec` still times, so that key inherits their floor.
    row(
        "threads_curve_w*_jobs_per_sec",
        FloorFor("e2e_op_jobs_per_sec"),
        5.0,
    ),
    // A decision loop that regressed to O(queue) spreads 10–40× across
    // the probed depths long before any absolute floor trips.
    row("decision_curve_*_decisions_per_sec", MaxOverMin, 3.0),
    // A serving loop that re-grew whole-run state shows up as a monotone
    // live-bytes ramp, typically 10×+ across the stream (key order is
    // time order for both curves).
    row("serve_mem_curve_*_live_bytes", LastOverFirst, 1.5),
    row("serve_scale_live_bytes_*_window", LastOverFirst, 1.5),
    row("serve_sustained_over_closed", AtLeast, 0.9),
    // A dormant econ section runs the identical code path, so the ratio
    // reads ~1.0 and 0.95 is noise margin, not headroom.
    row("econ_dormant_over_clean", AtLeast, 0.95),
];

/// `key` matches `pattern` exactly, or around the pattern's one `*`.
fn matches(pattern: &str, key: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == key,
        Some((head, tail)) => {
            key.len() >= head.len() + tail.len() && key.starts_with(head) && key.ends_with(tail)
        }
    }
}

/// The folded floor table: for every fresh key a floor row reaches, the
/// largest recorded value feeding it ÷ that row's bound.
fn floors(records: &[Map], rules: &[Rule]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for rule in rules {
        let successor = match rule.kind {
            Floor => None,
            FloorFor(key) => Some(key),
            _ => continue,
        };
        for record in records {
            for (key, value) in record.iter().filter(|(k, _)| matches(rule.keys, k)) {
                let Some(v) = value.as_f64() else { continue };
                let target = successor.unwrap_or(key);
                let floor = out.entry(target.to_string()).or_insert(f64::MIN);
                *floor = f64::max(*floor, v / rule.bound);
            }
        }
    }
    out
}

/// The statistic a fresh-line rule bounds, or `None` when `line` does not
/// carry the keys that arm it.
fn statistic(rule: &Rule, line: &Map) -> Option<f64> {
    let mut vals: Vec<(&String, f64)> = line
        .iter()
        .filter(|(k, _)| matches(rule.keys, k))
        .filter_map(|(k, v)| v.as_f64().map(|f| (k, f)))
        .collect();
    vals.sort_by(|a, b| a.0.cmp(b.0));
    let first = vals.first()?.1;
    let last = vals.last()?.1;
    match rule.kind {
        MaxOverMin | LastOverFirst if vals.len() < 2 => None,
        MaxOverMin => {
            let max = vals.iter().map(|v| v.1).fold(f64::MIN, f64::max);
            let min = vals.iter().map(|v| v.1).fold(f64::MAX, f64::min);
            assert!(min > 0.0, "perfgate: {} values must be positive", rule.keys);
            Some(max / min)
        }
        LastOverFirst => {
            assert!(
                first > 0.0,
                "perfgate: {} values must be positive",
                rule.keys
            );
            Some(last / first)
        }
        AtLeast => Some(first),
        Floor | FloorFor(_) => None,
    }
}

/// One evaluated check.
#[derive(Debug)]
struct Check {
    kind: Kind,
    what: String,
    value: f64,
    bound: f64,
}

impl Check {
    fn ok(&self) -> bool {
        match self.kind {
            Floor | FloorFor(_) | AtLeast => self.value >= self.bound,
            MaxOverMin | LastOverFirst => self.value <= self.bound,
        }
    }
}

impl std::fmt::Display for Check {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = if self.ok() { "ok  " } else { "FAIL" };
        let (what, value, bound) = (&self.what, self.value, self.bound);
        match self.kind {
            Floor | FloorFor(_) => {
                write!(
                    f,
                    "{verdict} {what}: fresh {value:.3e} vs floor {bound:.3e}"
                )
            }
            MaxOverMin => write!(f, "{verdict} {what}: max/min {value:.3} (bound {bound})"),
            LastOverFirst => {
                write!(f, "{verdict} {what}: last/first {value:.3} (bound {bound})")
            }
            AtLeast => write!(f, "{verdict} {what}: {value:.3} (need >= {bound})"),
        }
    }
}

/// Every floor the fresh line shares with the records, then every armed
/// fresh-line rule, each once.
fn checks(fresh: &Map, records: &[Map], rules: &[Rule]) -> Vec<Check> {
    let mut out: Vec<Check> = floors(records, rules)
        .into_iter()
        .filter_map(|(key, floor)| {
            let value = fresh.get(&key)?.as_f64()?;
            Some(Check {
                kind: Floor,
                what: key,
                value,
                bound: floor,
            })
        })
        .collect();
    for rule in rules {
        if let Some(value) = statistic(rule, fresh) {
            out.push(Check {
                kind: rule.kind,
                what: rule.keys.to_string(),
                value,
                bound: rule.bound,
            });
        }
    }
    out
}

fn object(value: Value, what: &str) -> Map {
    match value {
        Value::Object(m) => m,
        _ => panic!("perfgate: {what} is not a JSON object"),
    }
}

/// The records of a `BENCH.json` text, in file order.
fn records(text: &str) -> Vec<Map> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let what = format!("record line {}", i + 1);
            let value = serde_json::from_str_value(line)
                .unwrap_or_else(|e| panic!("perfgate: {what}: {e:?}"));
            let mut row = object(value, &what);
            object(row.remove("record").unwrap_or(Value::Null), &what)
        })
        .collect()
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("perfgate: cannot read {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [fresh_path, bench_path] = args.as_slice() else {
        eprintln!("usage: perfgate <fresh.json> <BENCH.json>");
        return ExitCode::FAILURE;
    };
    let fresh = serde_json::from_str_value(read(fresh_path).trim())
        .unwrap_or_else(|e| panic!("perfgate: {fresh_path}: {e:?}"));
    let fresh = object(fresh, fresh_path);
    let records = records(&read(bench_path));

    let checks = checks(&fresh, &records, RULES);
    for c in &checks {
        println!("{c}");
    }
    let floors = checks.iter().filter(|c| c.kind == Floor).count();
    let failed = checks.iter().filter(|c| !c.ok()).count();
    println!(
        "perfgate: {} checks ({floors} floors), {failed} failed",
        checks.len()
    );
    if floors == 0 {
        eprintln!("perfgate: no *_per_sec key of {fresh_path} has a floor in {bench_path}");
        return ExitCode::FAILURE;
    }
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = include_str!("../../../../BENCH.json");

    fn line(pairs: &[(&str, f64)]) -> Map {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), serde_json::json!(v)))
            .collect()
    }

    /// The bounds a record was held to when it was checked in: the same
    /// rules, but a recorded depth curve must be flat within 2×.
    fn record_rules() -> Vec<Rule> {
        RULES
            .iter()
            .map(|r| match r.kind {
                MaxOverMin => Rule { bound: 2.0, ..*r },
                _ => *r,
            })
            .collect()
    }

    #[test]
    fn records_are_in_pr_order() {
        let prs: Vec<u64> = BENCH
            .lines()
            .map(|l| {
                let Ok(Value::Object(row)) = serde_json::from_str_value(l) else {
                    panic!("not an object: {l}")
                };
                row["pr"].as_u64().expect("pr number")
            })
            .collect();
        assert_eq!(prs, [2, 4, 5, 6, 7, 9, 10]);
    }

    #[test]
    fn every_record_holds_the_record_rules() {
        let rules = record_rules();
        let mut armed = 0;
        for (i, record) in records(BENCH).iter().enumerate() {
            // No records to fold: only the fresh-line rules are checked.
            for check in checks(record, &[], &rules) {
                assert!(check.ok(), "record {}: {check}", i + 1);
                armed += 1;
            }
        }
        // Two depth curves, three memory curves, two open/closed ratios
        // and one dormant-econ ratio: the test is not vacuous.
        assert_eq!(armed, 8);
    }

    #[test]
    fn folded_floors_are_the_max_over_records() {
        let records = records(BENCH);
        let folded = floors(&records, RULES);
        let max_of = |pattern: &str| {
            records
                .iter()
                .flat_map(|r| r.iter())
                .filter(|(k, _)| matches(pattern, k))
                .filter_map(|(_, v)| v.as_f64())
                .fold(f64::MIN, f64::max)
        };
        for (key, floor) in &folded {
            let want = if key == "e2e_op_jobs_per_sec" {
                max_of(key).max(max_of("threads_curve_w*_jobs_per_sec")) / 5.0
            } else {
                max_of(key) / 5.0
            };
            assert_eq!(*floor, want, "{key}");
        }
        // The tightest retired threads-curve floor, 73,715 jobs/s ÷ 5.
        assert!((folded["e2e_op_jobs_per_sec"] - 14_743.0).abs() < 0.1);
        assert!(folded["e2e_op_jobs_per_sec"] > max_of("e2e_op_jobs_per_sec") / 5.0);
        assert_eq!(folded.len(), 21);
    }

    #[test]
    fn each_kind_passes_at_its_bound_and_fails_just_past_it() {
        let past = |x: f64, up: bool| {
            if up {
                x * (1.0 + 1e-9)
            } else {
                x * (1.0 - 1e-9)
            }
        };
        let verdicts = |fresh: &Map, records: &[Map]| -> Vec<bool> {
            checks(fresh, records, RULES)
                .iter()
                .map(Check::ok)
                .collect()
        };
        let rec = [line(&[
            ("x_per_sec", 10.0),
            ("threads_curve_w4_jobs_per_sec", 20.0),
        ])];

        // Floors: the record max ÷ 5, and the successor's inherited floor.
        assert_eq!(verdicts(&line(&[("x_per_sec", 2.0)]), &rec), [true]);
        assert_eq!(
            verdicts(&line(&[("x_per_sec", past(2.0, false))]), &rec),
            [false]
        );
        let op = "e2e_op_jobs_per_sec";
        assert_eq!(verdicts(&line(&[(op, 4.0)]), &rec), [true]);
        assert_eq!(verdicts(&line(&[(op, past(4.0, false))]), &rec), [false]);

        // Fresh-line rules, each alongside one passing floor.
        let with_floor = |pairs: &[(&str, f64)]| {
            let mut l = line(pairs);
            l.insert("x_per_sec".into(), serde_json::json!(2.0));
            verdicts(&l, &rec)
        };
        let curve = |hi: f64| {
            with_floor(&[
                ("decision_curve_d1_decisions_per_sec", hi),
                ("decision_curve_d2_decisions_per_sec", 1.0),
            ])
        };
        assert_eq!(curve(3.0), [true, true]);
        assert_eq!(curve(past(3.0, true)), [true, false]);
        let mem = |last: f64| {
            with_floor(&[
                ("serve_mem_curve_w03_live_bytes", 1.0),
                ("serve_mem_curve_w11_live_bytes", last),
            ])
        };
        assert_eq!(mem(1.5), [true, true]);
        assert_eq!(mem(past(1.5, true)), [true, false]);
        let scale = |last: f64| {
            with_floor(&[
                ("serve_scale_live_bytes_first_window", 1.0),
                ("serve_scale_live_bytes_last_window", last),
            ])
        };
        assert_eq!(scale(1.5), [true, true]);
        assert_eq!(scale(past(1.5, true)), [true, false]);
        for (key, bound) in [
            ("serve_sustained_over_closed", 0.9),
            ("econ_dormant_over_clean", 0.95),
        ] {
            assert_eq!(with_floor(&[(key, bound)]), [true, true]);
            assert_eq!(with_floor(&[(key, past(bound, false))]), [true, false]);
        }

        // One key arms no curve rule, and an unshared key has no floor.
        assert_eq!(
            with_floor(&[("decision_curve_d1_decisions_per_sec", 99.0)]),
            [true]
        );
        assert!(verdicts(&line(&[("y_per_sec", 0.0)]), &rec).is_empty());
    }

    #[test]
    fn patterns_match_around_one_star() {
        assert!(matches("*_per_sec", "a_per_sec"));
        assert!(!matches("*_per_sec", "a_per_secs"));
        assert!(matches(
            "serve_scale_live_bytes_*_window",
            "serve_scale_live_bytes_first_window"
        ));
        assert!(!matches("a_*_a", "a_a"));
        assert!(matches(
            "econ_dormant_over_clean",
            "econ_dormant_over_clean"
        ));
    }
}

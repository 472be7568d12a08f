//! Idle-triggered rescheduling (Sec. IV-D).
//!
//! Estimation errors leave resources idle: an overestimated IC drain bursts
//! too much (EC backlog while IC idles), an underestimate strands work in
//! the IC while the pipe idles. The paper sketches two mitigations, which
//! we implement as decision helpers the engine invokes on idle events:
//!
//! * **Pull-back** — "when a resource in IC becomes free it picks up a job
//!   from the head of the EC queue such that the remaining time for it to
//!   complete is greater than the time it would take to re-execute the same
//!   in the internal cloud."
//! * **Push-out** — "when the EC upload queue is idle and IC has jobs
//!   waiting to execute, then we scan the IC wait queue from the last and
//!   check if there is any job that satisfies the slack criteria."

use cloudburst_sim::{SimDuration, SimTime};

/// The Eq. 1 slack deadline a queued job inherits from the work ahead of
/// it: `now + ahead_max` when there is a cushion, `None` for the head of
/// an idle pool (no work ahead — pushing it out can only delay it). One
/// shared `#[inline]` helper so the engine's production push-out path and
/// its `#[cfg(test)]` rescan oracle cannot drift apart.
#[inline]
pub fn eq1_slack(now: SimTime, ahead_max_secs: f64) -> Option<SimTime> {
    if ahead_max_secs > 0.0 {
        Some(now + SimDuration::from_secs_f64(ahead_max_secs))
    } else {
        None
    }
}

/// One not-yet-finished EC-assigned job, as the pull-back check sees it.
#[derive(Clone, Copy, Debug)]
pub struct PullBackCandidate {
    /// Estimated seconds until this job's result would be available from
    /// the EC (upload remainder + queue + exec + download).
    pub est_remaining_ec_secs: f64,
    /// Estimated seconds to re-execute it locally on the freed machine.
    pub est_ic_reexec_secs: f64,
    /// True if the job's input is still uploading (not yet running
    /// remotely) — only these can be pulled back without wasting EC work.
    pub not_yet_running: bool,
}

/// Picks the job to pull back when an IC machine frees: the first (closest
/// to the EC queue head) candidate whose remaining EC time exceeds a local
/// re-execution and which has not started running remotely. Returns its
/// index.
pub fn pull_back_candidate(candidates: &[PullBackCandidate]) -> Option<usize> {
    candidates
        .iter()
        .position(|c| c.not_yet_running && c.est_remaining_ec_secs > c.est_ic_reexec_secs)
}

/// Picks the job to push out when the upload pipe idles: scanning the IC
/// wait queue **from the tail**, the first job satisfying the slack
/// criterion (Eq. 2) at time `now`. Returns its index in the wait queue.
///
/// `slacks[i]` is job `i`'s Eq. 1 slack anchor ([`eq1_slack`]; `None` for
/// the queue head). Its estimated EC round trip is
/// `round_trip_secs(i, up_secs(i))`: the caller adds the remaining legs to
/// the upload leg it is handed, and every leg is non-negative, so the
/// round trip is never below `up_secs(i)`. The upload leg alone is thus an
/// exact floor: when `now + up` already misses the slack, the full round
/// trip misses it too, and `round_trip_secs` — the execution and download
/// estimates — is never evaluated for that job. The pick is the one the
/// scan over every full round trip makes, and the scan stops at it.
pub fn push_out_candidate(
    now: SimTime,
    slacks: &[Option<SimTime>],
    mut up_secs: impl FnMut(usize) -> f64,
    mut round_trip_secs: impl FnMut(usize, f64) -> f64,
) -> Option<usize> {
    slacks.iter().enumerate().rev().find_map(|(i, slack)| {
        let slack = (*slack)?;
        let up = up_secs(i);
        if now + SimDuration::from_secs_f64(up) > slack {
            return None;
        }
        let eta = now + SimDuration::from_secs_f64(round_trip_secs(i, up));
        (eta <= slack).then_some(i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pull_back_prefers_head_and_requires_gain() {
        let cands = [
            PullBackCandidate {
                est_remaining_ec_secs: 100.0,
                est_ic_reexec_secs: 200.0,
                not_yet_running: true,
            },
            PullBackCandidate {
                est_remaining_ec_secs: 500.0,
                est_ic_reexec_secs: 200.0,
                not_yet_running: true,
            },
        ];
        // Head job is faster left in the EC; second gains from pulling back.
        assert_eq!(pull_back_candidate(&cands), Some(1));
    }

    #[test]
    fn pull_back_skips_running_jobs() {
        let cands = [PullBackCandidate {
            est_remaining_ec_secs: 900.0,
            est_ic_reexec_secs: 100.0,
            not_yet_running: false,
        }];
        assert_eq!(pull_back_candidate(&cands), None);
        assert_eq!(pull_back_candidate(&[]), None);
    }

    /// Full round trips for [`push_out_candidate`]: job `i`'s round trip
    /// is `up + rest[i]`, and the upload leg is `up[i]`.
    fn pick(now: SimTime, slacks: &[Option<SimTime>], up: &[f64], rest: &[f64]) -> Option<usize> {
        push_out_candidate(now, slacks, |i| up[i], |i, u| u + rest[i])
    }

    #[test]
    fn push_out_scans_from_tail() {
        let t = |s| Some(SimTime::from_secs(s));
        let slacks = [None, t(1_000), t(2_000)];
        // Both 1 and 2 qualify at now = 0; the tail scan returns 2.
        assert_eq!(pick(SimTime::ZERO, &slacks, &[40.0; 3], &[60.0; 3]), Some(2));
    }

    #[test]
    fn push_out_respects_slack_deadline() {
        let t = |s| Some(SimTime::from_secs(s));
        let up = [40.0, 40.0];
        let rest = [60.0, 60.0];
        assert_eq!(pick(SimTime::ZERO, &[t(50), t(90)], &up, &rest), None);
        // Later slack qualifies once the round trip fits.
        assert_eq!(pick(SimTime::ZERO, &[t(150)], &up, &rest), Some(0));
        assert_eq!(pick(SimTime::from_secs(60), &[t(150)], &up, &rest), None, "too late now");
    }

    #[test]
    fn head_job_never_pushes_out() {
        assert_eq!(pick(SimTime::ZERO, &[None], &[0.5], &[0.5]), None);
    }

    #[test]
    fn a_failed_upload_floor_skips_the_round_trip_and_the_scan_stops_at_the_pick() {
        let t = |s| Some(SimTime::from_secs(s));
        // From the tail: job 3's upload alone misses its slack, job 2's
        // floor fits but its round trip does not, job 1 fits.
        let slacks = [t(10_000), t(500), t(150), t(100)];
        let up = [10.0, 20.0, 100.0, 101.0];
        let mut asked = Vec::new();
        let got = push_out_candidate(
            SimTime::ZERO,
            &slacks,
            |i| up[i],
            |i, u| {
                asked.push(i);
                u + 100.0
            },
        );
        assert_eq!(got, Some(1));
        assert_eq!(asked, vec![2, 1], "no round trip for job 3, none past the pick");
    }
}

//! A single simulated machine (printer controller / cloud instance).

use cloudburst_sim::{SimDuration, SimTime};

/// Machine identifier, unique within its cloud.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MachineId(pub usize);

/// One execution slot. `speed` scales service times: a job that takes `s`
/// seconds on a standard machine takes `s / speed` here.
#[derive(Clone, Debug)]
pub struct Machine {
    id: MachineId,
    speed: f64,
    /// When the current job finishes, if busy.
    busy_until: Option<SimTime>,
    /// Cumulative busy time (for the utilization metric, Eq. 8).
    busy_total: SimDuration,
    /// Start of the current job, if busy.
    started: Option<SimTime>,
    /// Jobs completed on this machine.
    completed: u64,
}

impl Machine {
    /// Creates an idle machine.
    pub fn new(id: MachineId, speed: f64) -> Machine {
        assert!(speed > 0.0, "machine speed must be positive");
        Machine { id, speed, busy_until: None, busy_total: SimDuration::ZERO, started: None, completed: 0 }
    }

    /// True iff a job is running.
    pub fn is_busy(&self) -> bool {
        self.busy_until.is_some()
    }

    /// Completion time of the running job, if any.
    pub fn busy_until(&self) -> Option<SimTime> {
        self.busy_until
    }

    /// Starts a job with `standard_secs` of work at `now`; returns the
    /// completion time. Panics if already busy.
    pub fn start(&mut self, now: SimTime, standard_secs: f64) -> SimTime {
        assert!(!self.is_busy(), "machine {:?} already busy", self.id);
        assert!(standard_secs >= 0.0);
        let finish = now + SimDuration::from_secs_f64(standard_secs / self.speed);
        self.busy_until = Some(finish);
        self.started = Some(now);
        finish
    }

    /// Marks the running job finished at its completion time. Panics if the
    /// machine is idle. Returns the job's busy span.
    pub fn finish(&mut self) -> SimDuration {
        let until = self.busy_until.take().expect("finish on idle machine");
        let started = self.started.take().expect("busy machine has a start time");
        let span = until - started;
        self.busy_total += span;
        self.completed += 1;
        span
    }

    /// Aborts the running job at `now` (machine crash): busy time up to
    /// `now` still counts, but the job is *not* completed — the caller owns
    /// re-dispatching it. Returns the aborted span. Panics if idle.
    pub fn abort(&mut self, now: SimTime) -> SimDuration {
        let until = self.busy_until.take().expect("abort on idle machine");
        let started = self.started.take().expect("busy machine has a start time");
        let span = now.min(until) - started;
        self.busy_total += span;
        span
    }

    /// Cumulative busy time, including the in-progress job up to `now`.
    pub fn busy_time(&self, now: SimTime) -> SimDuration {
        match (self.started, self.busy_until) {
            (Some(s), Some(u)) => self.busy_total + (now.min(u) - s),
            _ => self.busy_total,
        }
    }

    /// Utilization over `[0, now]` (Eq. 8): busy time / elapsed time.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        self.busy_time(now).as_secs_f64() / now.as_secs_f64()
    }

    /// Jobs completed on this machine.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_finish_cycle() {
        let mut m = Machine::new(MachineId(0), 1.0);
        assert!(!m.is_busy());
        let finish = m.start(SimTime::from_secs(10), 100.0);
        assert_eq!(finish, SimTime::from_secs(110));
        assert!(m.is_busy());
        assert_eq!(m.busy_until(), Some(finish));
        let span = m.finish();
        assert_eq!(span, SimDuration::from_secs(100));
        assert!(!m.is_busy());
        assert_eq!(m.completed(), 1);
    }

    #[test]
    fn speed_scales_service_time() {
        let mut fast = Machine::new(MachineId(1), 2.0);
        assert_eq!(fast.start(SimTime::ZERO, 100.0), SimTime::from_secs(50));
        let mut slow = Machine::new(MachineId(2), 0.5);
        assert_eq!(slow.start(SimTime::ZERO, 100.0), SimTime::from_secs(200));
    }

    #[test]
    fn busy_time_counts_partial_progress() {
        let mut m = Machine::new(MachineId(0), 1.0);
        m.start(SimTime::ZERO, 100.0);
        assert_eq!(m.busy_time(SimTime::from_secs(40)), SimDuration::from_secs(40));
        // Clamped at the completion time even if queried later.
        assert_eq!(m.busy_time(SimTime::from_secs(400)), SimDuration::from_secs(100));
        m.finish();
        assert_eq!(m.busy_time(SimTime::from_secs(400)), SimDuration::from_secs(100));
    }

    #[test]
    fn utilization_is_fractional() {
        let mut m = Machine::new(MachineId(0), 1.0);
        m.start(SimTime::ZERO, 50.0);
        m.finish();
        assert!((m.utilization(SimTime::from_secs(100)) - 0.5).abs() < 1e-12);
        assert_eq!(Machine::new(MachineId(1), 1.0).utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn abort_accrues_partial_busy_without_completion() {
        let mut m = Machine::new(MachineId(0), 2.0);
        m.start(SimTime::ZERO, 100.0); // would finish at t=50
        let span = m.abort(SimTime::from_secs(30));
        assert_eq!(span, SimDuration::from_secs(30));
        assert!(!m.is_busy());
        assert_eq!(m.completed(), 0, "aborted job is not a completion");
        assert_eq!(m.busy_time(SimTime::from_secs(100)), SimDuration::from_secs(30));
        // Machine is reusable after an abort.
        assert_eq!(m.start(SimTime::from_secs(60), 100.0), SimTime::from_secs(110));
    }

    #[test]
    #[should_panic(expected = "abort on idle machine")]
    fn abort_idle_panics() {
        Machine::new(MachineId(0), 1.0).abort(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_start_panics() {
        let mut m = Machine::new(MachineId(0), 1.0);
        m.start(SimTime::ZERO, 10.0);
        m.start(SimTime::ZERO, 10.0);
    }

    #[test]
    #[should_panic(expected = "idle machine")]
    fn finish_idle_panics() {
        Machine::new(MachineId(0), 1.0).finish();
    }
}

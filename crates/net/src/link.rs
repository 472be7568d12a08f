//! Fluid-flow simulation of one direction of the inter-cloud pipe.
//!
//! Concurrent transfers share the instantaneous capacity `B(t)` by
//! processor sharing weighted by their parallel-thread counts, attenuated
//! by the concave saturation law
//!
//! ```text
//! rate(transfer i) = B(t) · w_i / (W + κ)      W = Σ w_j (active threads)
//! ```
//!
//! so a lone transfer with `k` threads gets `B·k/(k+κ)` — more threads push
//! the pipe closer to saturation with diminishing returns, exactly the
//! behaviour the paper's thread tuner exploits (Fig. 4(b)).
//!
//! The link is a passive component: the owning engine calls
//! [`Link::advance_into`] to integrate progress up to the current instant and
//! [`Link::next_wake`] to learn when the next interesting thing happens (a
//! completion under the current rate, or a rate-revaluation slot boundary).
//! Capacity is held constant within a revaluation slot, which makes
//! completion times within a slot exact and the whole simulation
//! deterministic.
//!
//! `next_wake` and the `advance_into` that follows it compute the same
//! first piece: the boundary, the per-thread rate and the earliest ETA at
//! the link's clock. `next_wake` keeps that piece, and `advance_into`
//! takes it as its own first piece while the clock and the transfer set
//! are unchanged, so a wake that completes nothing scans the in-flight set
//! once, not twice.

use std::cell::Cell;

use cloudburst_sim::{SimDuration, SimTime};

use crate::profile::BandwidthModel;

/// Identifier of a transfer on a link (assigned by the caller).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TransferId(pub u64);

/// Default thread-saturation constant κ: 4 threads reach ≈ 73 % of the raw
/// capacity, 16 threads ≈ 91 % — matching the shape of Fig. 4(b).
pub const DEFAULT_KAPPA: f64 = 1.5;

#[derive(Clone, Debug)]
struct Active {
    id: TransferId,
    remaining: f64, // bytes
    threads: u32,
    started: SimTime,
    /// Bytes begin to flow only after the last-hop/setup latency.
    flows_from: SimTime,
    total: u64,
}

/// A capacity-fault window injected by the chaos layer: while
/// `from <= t < until` the link's instantaneous capacity is multiplied by
/// `factor` (0 = blackout). Overlapping windows multiply.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CapacityFault {
    /// Window start.
    pub from: SimTime,
    /// Window end.
    pub until: SimTime,
    /// Capacity multiplier inside the window, in `[0, 1]`.
    pub factor: f64,
}

/// The link state a shard exchanges at an epoch barrier: everything the
/// engine's decision layer is allowed to read about one pipe direction,
/// frozen at the barrier instant. Plain `Copy` data — no borrows into the
/// link — so boundary snapshots can cross shard workers freely while the
/// link itself stays owned by its site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipeBoundary {
    /// Bytes still to be moved by in-flight transfers (as of the snapshot).
    pub remaining_bytes: u64,
    /// Number of in-flight transfers.
    pub in_flight: usize,
    /// Total threads currently contending on the link.
    pub active_threads: u32,
}

/// A completed transfer, reported by [`Link::advance_into`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    /// Which transfer finished.
    pub id: TransferId,
    /// When it finished (exact within the rate slot).
    pub at: SimTime,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// When it started.
    pub started: SimTime,
}

impl Completion {
    /// Observed end-to-end rate in bytes/sec — the measurement fed to the
    /// bandwidth estimator.
    pub fn observed_rate_bps(&self) -> f64 {
        let secs = (self.at - self.started).as_secs_f64();
        if secs <= 0.0 {
            self.bytes as f64
        } else {
            self.bytes as f64 / secs
        }
    }
}

/// The first integration piece from the link's clock: the next boundary
/// (slot multiple, flow start or fault edge, uncapped), the per-thread
/// rate over it and the earliest `(index, eta)` among the flowing
/// transfers (the first index on ties). A piece capped at `to` ends at
/// `boundary.min(to)` and completes `earliest` only if its ETA falls
/// inside.
#[derive(Clone, Copy, Debug)]
struct Piece {
    clock: SimTime,
    boundary: SimTime,
    rate_per_thread: f64,
    earliest: Option<(usize, SimTime)>,
}

/// One direction of the inter-cloud pipe.
#[derive(Clone, Debug)]
pub struct Link {
    model: BandwidthModel,
    kappa: f64,
    slot: SimDuration,
    /// Last-hop/connection-setup latency before a transfer's bytes flow
    /// (Sec. III-A-2 lists last-hop latency among the variation factors).
    latency: SimDuration,
    active: Vec<Active>,
    clock: SimTime,
    bytes_done: u64,
    busy: SimDuration,
    /// Chaos-injected capacity faults, sorted by start. Empty (the default
    /// and the fault-free fast path) leaves behaviour bit-identical.
    faults: Vec<CapacityFault>,
    /// The first piece the last [`Link::next_wake`] computed. It is valid
    /// only while the clock and the transfer set are unchanged, so every
    /// mutator drops it: `start`, `abort` and `set_faults` clear it and
    /// `advance_into` consumes it.
    next_piece: Cell<Option<Piece>>,
}

impl Link {
    /// Creates a link with the given ground-truth capacity model, saturation
    /// constant κ and rate-revaluation slot.
    pub fn new(model: BandwidthModel, kappa: f64, slot: SimDuration) -> Link {
        assert!(kappa >= 0.0);
        assert!(!slot.is_zero(), "rate slot must be positive");
        Link {
            model,
            kappa,
            slot,
            latency: SimDuration::ZERO,
            active: Vec::new(),
            clock: SimTime::ZERO,
            bytes_done: 0,
            busy: SimDuration::ZERO,
            faults: Vec::new(),
            next_piece: Cell::new(None),
        }
    }

    /// Sets the last-hop/setup latency each transfer pays before its bytes
    /// flow. Penalizes small transfers (and probes) disproportionately.
    pub fn with_latency(mut self, latency: SimDuration) -> Link {
        self.latency = latency;
        self
    }

    /// Installs the chaos-injected capacity-fault schedule. Windows whose
    /// `factor` is 0 black the link out entirely; overlapping windows
    /// multiply. Must be called before the first `advance` (windows are
    /// part of the run's ground truth, not a mid-run control).
    pub fn set_faults(&mut self, mut faults: Vec<CapacityFault>) {
        assert!(self.clock == SimTime::ZERO, "install faults before advancing");
        faults.retain(|f| f.until > f.from);
        self.faults = faults;
        self.next_piece.set(None);
    }

    /// Capacity multiplier in effect at `t`: the product of every fault
    /// window containing `t`. 1.0 on the fault-free fast path.
    fn fault_factor(&self, t: SimTime) -> f64 {
        if self.faults.is_empty() {
            return 1.0;
        }
        let mut f = 1.0;
        for w in &self.faults {
            if w.from <= t && t < w.until {
                f *= w.factor.clamp(0.0, 1.0);
            }
        }
        f
    }

    /// Number of in-flight transfers.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Total bytes delivered since construction.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_done
    }

    /// Cumulative time the link spent with at least one active transfer.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Bytes still to be moved by the in-flight transfers (as of the last
    /// `advance`).
    pub fn remaining_bytes(&self) -> u64 {
        self.active.iter().map(|t| t.remaining.ceil() as u64).sum()
    }

    /// Total threads currently contending on the link.
    pub fn active_threads(&self) -> u32 {
        self.active.iter().map(|t| t.threads).sum()
    }

    /// Internal clock (last `advance` target).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The epoch-barrier snapshot of this pipe direction: the decision
    /// layer reads links only through this (one coherent freeze instead of
    /// piecemeal accessor calls interleaved with mutation).
    pub fn boundary(&self) -> PipeBoundary {
        let (remaining_bytes, active_threads) = self
            .active
            .iter()
            .fold((0u64, 0u32), |(b, th), t| {
                (b + t.remaining.ceil() as u64, th + t.threads)
            });
        PipeBoundary {
            remaining_bytes,
            in_flight: self.active.len(),
            active_threads,
        }
    }

    /// Starts a transfer of `bytes` with `threads` parallel streams. The
    /// caller must have advanced the link to `now` first. Panics on zero
    /// threads; a duplicate id is the caller's bug, checked in debug builds
    /// (the engine draws transfer ids from its monotonic `fresh_tid`
    /// counter, so they are unique by construction).
    pub fn start(&mut self, now: SimTime, id: TransferId, bytes: u64, threads: u32) {
        assert!(threads >= 1, "transfers need at least one thread");
        assert!(now >= self.clock, "link must be advanced before start");
        debug_assert!(
            self.active.iter().all(|t| t.id != id),
            "duplicate transfer id {id:?}"
        );
        self.next_piece.set(None);
        self.advance_internal(now);
        self.active.push(Active {
            id,
            remaining: bytes.max(1) as f64,
            threads,
            started: now,
            flows_from: now + self.latency,
            total: bytes.max(1),
        });
    }

    /// Aborts an in-flight transfer (used by rescheduling extensions).
    /// Returns the remaining bytes if the transfer existed.
    pub fn abort(&mut self, now: SimTime, id: TransferId) -> Option<u64> {
        self.next_piece.set(None);
        self.advance_internal(now);
        let idx = self.active.iter().position(|t| t.id == id)?;
        let t = self.active.swap_remove(idx);
        Some(t.remaining.ceil() as u64)
    }

    /// Integrates all transfers forward to `to`, returning completions in
    /// chronological order. Test-only convenience wrapper over
    /// [`Link::advance_into`]: every production caller uses the
    /// buffer-reusing form (a fresh `Vec` per wake is exactly the per-event
    /// allocation the hot path forbids), so the allocating wrapper is
    /// compiled out of non-test builds and listed under
    /// `disallowed-methods` in `clippy.toml`.
    #[cfg(test)]
    pub fn advance(&mut self, to: SimTime) -> Vec<Completion> {
        let mut done = Vec::new();
        self.advance_into(to, &mut done);
        done
    }

    /// Integrates all transfers forward to `to`, appending completions to
    /// `done` in chronological order. The buffer is caller-owned so a
    /// driver loop can reuse one allocation across every wake.
    pub fn advance_into(&mut self, to: SimTime, done: &mut Vec<Completion>) {
        // Work in pieces: each piece ends at the next slot boundary, the
        // next completion under the current rate, or `to`. The first piece
        // is the one `next_wake` kept, if it is still current.
        let mut kept = self.next_piece.take();
        debug_assert!(kept.is_none_or(|p| p.clock == self.clock), "stale kept piece");
        while self.clock < to {
            if self.active.is_empty() {
                self.clock = to;
                break;
            }
            let piece = kept.take().unwrap_or_else(|| self.first_piece());
            let piece_end = piece.boundary.min(to);
            // Earliest completion within this piece under constant rate?
            // Latent transfers (still inside their setup latency) cannot
            // complete — the boundary computation stops pieces at every
            // flow-start instant, so a piece never straddles one.
            let first = piece.earliest.filter(|&(_, eta)| eta <= piece_end);
            let advance_to = first.map_or(piece_end, |(_, eta)| eta);
            self.integrate(advance_to, piece.rate_per_thread);
            if let Some((i, eta)) = first {
                let tr = self.active.remove(i);
                self.bytes_done += tr.total;
                done.push(Completion { id: tr.id, at: eta, bytes: tr.total, started: tr.started });
            }
        }
        // Collect any transfers that numerically hit zero at the boundary.
        let clock = self.clock;
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].remaining <= 0.5 {
                let tr = self.active.remove(i);
                self.bytes_done += tr.total;
                done.push(Completion { id: tr.id, at: clock, bytes: tr.total, started: tr.started });
            } else {
                i += 1;
            }
        }
    }

    /// When should the engine next call [`Link::advance_into`]? Returns the
    /// earliest of the next completion (under the current instantaneous
    /// rate) and the next rate-revaluation boundary; `None` when idle.
    /// The piece behind the answer is kept for the next `advance_into`.
    pub fn next_wake(&self) -> Option<SimTime> {
        if self.active.is_empty() {
            return None;
        }
        let piece = match self.next_piece.get() {
            Some(p) => {
                debug_assert!(p.clock == self.clock, "stale kept piece");
                p
            }
            None => {
                let p = self.first_piece();
                self.next_piece.set(Some(p));
                p
            }
        };
        Some(piece.earliest.map_or(piece.boundary, |(_, eta)| eta.min(piece.boundary)))
    }

    /// The first integration piece from the current clock: one pass for
    /// the boundary, one for the rate and one for the earliest ETA.
    fn first_piece(&self) -> Piece {
        let boundary = self.next_boundary(SimTime::MAX);
        let rate_per_thread = self.rate_per_thread();
        let mut earliest: Option<(usize, SimTime)> = None;
        for (i, tr) in self.active.iter().enumerate() {
            if tr.flows_from > self.clock {
                continue; // its flow-start is already a boundary
            }
            let r = rate_per_thread * tr.threads as f64;
            if r <= 0.0 {
                continue;
            }
            let eta = self.clock + SimDuration::from_secs_f64(tr.remaining / r);
            if earliest.is_none_or(|(_, t)| eta < t) {
                earliest = Some((i, eta));
            }
        }
        Piece { clock: self.clock, boundary, rate_per_thread, earliest }
    }

    /// Instantaneous per-thread share of the capacity at the internal
    /// clock. Latent transfers consume no bandwidth yet.
    fn rate_per_thread(&self) -> f64 {
        let w: f64 = self
            .active
            .iter()
            .filter(|t| t.flows_from <= self.clock)
            .map(|t| t.threads as f64)
            .sum();
        if w == 0.0 {
            return 0.0;
        }
        self.model.rate_bps(self.clock) * self.fault_factor(self.clock) / (w + self.kappa)
    }

    /// Effective aggregate throughput at time `t` if `threads` total threads
    /// are active — the saturation law exposed for estimation and tuning.
    pub fn effective_rate(model_rate_bps: f64, threads: u32, kappa: f64) -> f64 {
        let k = threads as f64;
        model_rate_bps * k / (k + kappa)
    }

    /// Next integration boundary: the next slot multiple or the next
    /// flow-start instant, whichever comes first (capped at `to`).
    fn next_boundary(&self, to: SimTime) -> SimTime {
        let slot_us = self.slot.as_micros();
        let next = (self.clock.as_micros() / slot_us + 1) * slot_us;
        let mut b = SimTime::from_micros(next).min(to);
        for tr in &self.active {
            if tr.flows_from > self.clock {
                b = b.min(tr.flows_from);
            }
        }
        // Fault-window edges are rate discontinuities too: a piece must
        // never straddle one, so the constant-rate ETA stays exact.
        for w in &self.faults {
            if w.from > self.clock {
                b = b.min(w.from);
            }
            if w.until > self.clock {
                b = b.min(w.until);
            }
        }
        b
    }

    fn integrate(&mut self, to: SimTime, rate_per_thread: f64) {
        let dt = (to - self.clock).as_secs_f64();
        if dt > 0.0 {
            if !self.active.is_empty() {
                self.busy += to - self.clock;
            }
            let clock = self.clock;
            for tr in &mut self.active {
                if tr.flows_from > clock {
                    continue; // setup latency: no bytes yet
                }
                tr.remaining = (tr.remaining - rate_per_thread * tr.threads as f64 * dt).max(0.0);
            }
        }
        self.clock = to;
    }

    fn advance_internal(&mut self, to: SimTime) {
        // Starts may only happen at engine event times, which are never past
        // a pending completion; integrating piecewise (re-evaluating the
        // rate at each slot boundary) is exact.
        if self.active.is_empty() {
            self.clock = self.clock.max(to);
            return;
        }
        while self.clock < to {
            let boundary = self.next_boundary(to);
            let rate = self.rate_per_thread();
            self.integrate(boundary, rate);
        }
    }
}

/// The link as it ran before `next_wake` kept its first piece, kept as
/// the oracle the memoized path must match bit for bit: every piece of
/// `advance_into` recomputes its boundary (capped at `to`), its rate and
/// its earliest in-piece ETA, and `next_wake` keeps nothing.
#[cfg(test)]
impl Link {
    pub(crate) fn advance_into_uncached(&mut self, to: SimTime, done: &mut Vec<Completion>) {
        self.next_piece.set(None);
        while self.clock < to {
            if self.active.is_empty() {
                self.clock = to;
                break;
            }
            let piece_end = self.next_boundary(to);
            let rate_per_thread = self.rate_per_thread();
            let mut first: Option<(usize, SimTime)> = None;
            for (i, tr) in self.active.iter().enumerate() {
                if tr.flows_from > self.clock {
                    continue;
                }
                let r = rate_per_thread * tr.threads as f64;
                if r <= 0.0 {
                    continue;
                }
                let eta = self.clock + SimDuration::from_secs_f64(tr.remaining / r);
                if eta <= piece_end && first.is_none_or(|(_, t)| eta < t) {
                    first = Some((i, eta));
                }
            }
            let advance_to = first.map_or(piece_end, |(_, eta)| eta);
            self.integrate(advance_to, rate_per_thread);
            if let Some((i, eta)) = first {
                let tr = self.active.remove(i);
                self.bytes_done += tr.total;
                done.push(Completion { id: tr.id, at: eta, bytes: tr.total, started: tr.started });
            }
        }
        let clock = self.clock;
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].remaining <= 0.5 {
                let tr = self.active.remove(i);
                self.bytes_done += tr.total;
                done.push(Completion { id: tr.id, at: clock, bytes: tr.total, started: tr.started });
            } else {
                i += 1;
            }
        }
    }

    pub(crate) fn next_wake_uncached(&self) -> Option<SimTime> {
        if self.active.is_empty() {
            return None;
        }
        let boundary = self.next_boundary(SimTime::MAX);
        let rate_per_thread = self.rate_per_thread();
        let mut wake = boundary;
        for tr in &self.active {
            if tr.flows_from > self.clock {
                continue;
            }
            let r = rate_per_thread * tr.threads as f64;
            if r > 0.0 {
                let eta = self.clock + SimDuration::from_secs_f64(tr.remaining / r);
                wake = wake.min(eta);
            }
        }
        Some(wake)
    }
}

#[cfg(test)]
// Unit tests are the sanctioned consumer of the allocating `advance`
// wrapper (it only exists under cfg(test)).
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn constant_link(bps: f64) -> Link {
        Link::new(BandwidthModel::Constant(bps), 0.0, SimDuration::from_secs(3600))
    }

    #[test]
    fn single_transfer_takes_bytes_over_rate() {
        let mut l = constant_link(1000.0);
        l.start(SimTime::ZERO, TransferId(1), 10_000, 1);
        let wake = l.next_wake().unwrap();
        assert_eq!(wake, SimTime::from_secs(10));
        let done = l.advance(wake);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, TransferId(1));
        assert_eq!(done[0].at, SimTime::from_secs(10));
        assert_eq!(l.in_flight(), 0);
        assert_eq!(l.bytes_delivered(), 10_000);
        assert!((done[0].observed_rate_bps() - 1000.0).abs() < 1.0);
    }

    #[test]
    fn two_transfers_share_capacity() {
        let mut l = constant_link(1000.0);
        l.start(SimTime::ZERO, TransferId(1), 10_000, 1);
        l.start(SimTime::ZERO, TransferId(2), 10_000, 1);
        // Each gets 500 B/s → both complete at t = 20 s.
        let done = l.advance(SimTime::from_secs(25));
        assert_eq!(done.len(), 2);
        for c in &done {
            assert_eq!(c.at, SimTime::from_secs(20));
        }
    }

    #[test]
    fn short_transfer_frees_capacity_for_long_one() {
        let mut l = constant_link(1000.0);
        l.start(SimTime::ZERO, TransferId(1), 5_000, 1);
        l.start(SimTime::ZERO, TransferId(2), 20_000, 1);
        // Shared until t=10 (each at 500 B/s, short one done: 5000/500=10).
        // Long one then has 15000 left at 1000 B/s → done at t=25.
        let done = l.advance(SimTime::from_secs(30));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].id, TransferId(1));
        assert_eq!(done[0].at, SimTime::from_secs(10));
        assert_eq!(done[1].id, TransferId(2));
        assert_eq!(done[1].at, SimTime::from_secs(25));
    }

    #[test]
    fn thread_weighting_shares_proportionally() {
        // κ=0: transfer with 3 threads gets 3/4 of capacity.
        let mut l = constant_link(1000.0);
        l.start(SimTime::ZERO, TransferId(1), 7_500, 3);
        l.start(SimTime::ZERO, TransferId(2), 2_500, 1);
        let done = l.advance(SimTime::from_secs(11));
        assert_eq!(done.len(), 2, "both rates are 750/250 B/s → done at t=10");
        for c in &done {
            assert_eq!(c.at, SimTime::from_secs(10));
        }
    }

    #[test]
    fn saturation_law_discounts_single_thread() {
        // κ=1.5: one thread alone gets 1/(1+1.5) = 40 % of capacity.
        let mut l = Link::new(BandwidthModel::Constant(1000.0), 1.5, SimDuration::from_secs(3600));
        l.start(SimTime::ZERO, TransferId(1), 4_000, 1);
        let wake = l.next_wake().unwrap();
        assert_eq!(wake, SimTime::from_secs(10));
        // With 4 threads: 4/5.5 ≈ 72.7 % — faster.
        let mut l2 = Link::new(BandwidthModel::Constant(1000.0), 1.5, SimDuration::from_secs(3600));
        l2.start(SimTime::ZERO, TransferId(1), 4_000, 4);
        assert!(l2.next_wake().unwrap() < wake);
        assert!(
            (Link::effective_rate(1000.0, 4, 1.5) - 1000.0 * 4.0 / 5.5).abs() < 1e-9
        );
    }

    #[test]
    fn time_varying_rate_is_integrated_per_slot() {
        // Hour 0: 1000 B/s; hour 1+: 500 B/s. 4.5 MB transfer: 3.6 MB done in
        // hour 0, the rest (0.9 MB) takes 1800 s → completes at t = 5400 s.
        let mut rates = vec![500.0; 24];
        rates[0] = 1000.0;
        let model = BandwidthModel::Hourly { rates };
        let mut l = Link::new(model, 0.0, SimDuration::from_secs(60));
        l.start(SimTime::ZERO, TransferId(1), 4_500_000, 1);
        let mut done = Vec::new();
        let mut guard = 0;
        while done.is_empty() {
            let wake = l.next_wake().expect("transfer still active");
            done = l.advance(wake);
            guard += 1;
            assert!(guard < 500, "should converge");
        }
        assert_eq!(done[0].at, SimTime::from_secs(5400));
    }

    #[test]
    fn abort_removes_and_reports_remaining() {
        let mut l = constant_link(1000.0);
        l.start(SimTime::ZERO, TransferId(1), 10_000, 1);
        let rem = l.abort(SimTime::from_secs(4), TransferId(1)).unwrap();
        assert_eq!(rem, 6_000);
        assert_eq!(l.in_flight(), 0);
        assert_eq!(l.next_wake(), None);
        assert_eq!(l.abort(SimTime::from_secs(5), TransferId(1)), None);
    }

    #[test]
    fn busy_time_accumulates_only_when_active() {
        let mut l = constant_link(1000.0);
        l.advance(SimTime::from_secs(50));
        assert_eq!(l.busy_time(), SimDuration::ZERO);
        l.start(SimTime::from_secs(50), TransferId(1), 10_000, 1);
        l.advance(SimTime::from_secs(70));
        assert_eq!(l.busy_time(), SimDuration::from_secs(10), "busy only until completion");
    }

    #[test]
    fn conservation_of_bytes() {
        let mut l = Link::new(
            BandwidthModel::high_variation(3),
            1.5,
            SimDuration::from_secs(30),
        );
        let sizes = [1_000_000u64, 5_000_000, 2_500_000, 800_000];
        for (i, &s) in sizes.iter().enumerate() {
            l.start(SimTime::ZERO, TransferId(i as u64), s, 2);
        }
        let mut completions = Vec::new();
        while let Some(w) = l.next_wake() {
            completions.extend(l.advance(w));
        }
        assert_eq!(completions.len(), sizes.len());
        assert_eq!(l.bytes_delivered(), sizes.iter().sum::<u64>());
        // Completions are chronological.
        for pair in completions.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }

    #[test]
    fn latency_delays_flow_start() {
        let mut l = Link::new(BandwidthModel::Constant(1000.0), 0.0, SimDuration::from_secs(3600))
            .with_latency(SimDuration::from_secs(5));
        l.start(SimTime::ZERO, TransferId(1), 10_000, 1);
        // 5 s of setup + 10 s of transfer.
        let mut done = Vec::new();
        while let Some(w) = l.next_wake() {
            done.extend(l.advance(w));
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at, SimTime::from_secs(15));
        assert_eq!(l.latency, SimDuration::from_secs(5));
    }

    #[test]
    fn latent_transfers_do_not_consume_bandwidth() {
        let mut l = Link::new(BandwidthModel::Constant(1000.0), 0.0, SimDuration::from_secs(3600))
            .with_latency(SimDuration::from_secs(10));
        l.start(SimTime::ZERO, TransferId(1), 10_000, 1);
        // A second transfer started at t=5 is latent until t=15; the first
        // flows alone from t=10 to t=15 at full rate.
        l.advance(SimTime::from_secs(5));
        l.start(SimTime::from_secs(5), TransferId(2), 10_000, 1);
        let mut done = Vec::new();
        while let Some(w) = l.next_wake() {
            done.extend(l.advance(w));
        }
        // t1: flows 10→15 alone (5000 B), then shares 500 B/s → 10 more s →
        // completes at t=25. t2: flows from 15, shares until 25 (5000 B),
        // then alone (5000 B at 1000 B/s) → completes at t=30.
        assert_eq!(done[0].id, TransferId(1));
        assert_eq!(done[0].at, SimTime::from_secs(25));
        assert_eq!(done[1].id, TransferId(2));
        assert_eq!(done[1].at, SimTime::from_secs(30));
    }

    #[test]
    fn latency_hurts_small_transfers_relatively_more() {
        let run = |bytes: u64| {
            let mut l =
                Link::new(BandwidthModel::Constant(1000.0), 0.0, SimDuration::from_secs(3600))
                    .with_latency(SimDuration::from_secs(4));
            l.start(SimTime::ZERO, TransferId(1), bytes, 1);
            let mut at = SimTime::ZERO;
            while let Some(w) = l.next_wake() {
                for c in l.advance(w) {
                    at = c.at;
                }
            }
            at.as_secs_f64() / (bytes as f64 / 1000.0) // slowdown factor
        };
        assert!(run(1_000) > run(100_000), "small transfers pay proportionally more");
    }

    #[test]
    fn blackout_window_freezes_progress() {
        let mut l = constant_link(1000.0);
        l.set_faults(vec![CapacityFault {
            from: SimTime::from_secs(5),
            until: SimTime::from_secs(25),
            factor: 0.0,
        }]);
        l.start(SimTime::ZERO, TransferId(1), 10_000, 1);
        // 5 s at 1000 B/s, 20 s dark, then 5 s to finish → t = 30.
        let mut done = Vec::new();
        let mut guard = 0;
        while done.is_empty() {
            let w = l.next_wake().expect("still active");
            done = l.advance(w);
            guard += 1;
            assert!(guard < 100, "must converge");
        }
        assert_eq!(done[0].at, SimTime::from_secs(30));
    }

    #[test]
    fn degradation_window_scales_rate() {
        let mut l = constant_link(1000.0);
        l.set_faults(vec![CapacityFault {
            from: SimTime::ZERO,
            until: SimTime::from_secs(100),
            factor: 0.25,
        }]);
        l.start(SimTime::ZERO, TransferId(1), 10_000, 1);
        // 250 B/s inside the window → 40 s.
        let mut done = Vec::new();
        while let Some(w) = l.next_wake() {
            done.extend(l.advance(w));
        }
        assert_eq!(done[0].at, SimTime::from_secs(40));
    }

    #[test]
    fn overlapping_windows_multiply_and_empty_faults_change_nothing() {
        let mut faulty = constant_link(1000.0);
        faulty.set_faults(vec![
            CapacityFault { from: SimTime::ZERO, until: SimTime::from_secs(1000), factor: 0.5 },
            CapacityFault { from: SimTime::ZERO, until: SimTime::from_secs(1000), factor: 0.5 },
        ]);
        faulty.start(SimTime::ZERO, TransferId(1), 10_000, 1);
        // 0.5 · 0.5 = 0.25 → 250 B/s → 40 s.
        assert_eq!(faulty.next_wake().unwrap(), SimTime::from_secs(40));

        let mut plain = constant_link(1000.0);
        let mut with_empty = constant_link(1000.0);
        with_empty.set_faults(Vec::new());
        plain.start(SimTime::ZERO, TransferId(1), 10_000, 1);
        with_empty.start(SimTime::ZERO, TransferId(1), 10_000, 1);
        assert_eq!(plain.next_wake(), with_empty.next_wake());
        assert_eq!(plain.advance(SimTime::from_secs(10)), with_empty.advance(SimTime::from_secs(10)));
    }

    #[test]
    fn abort_during_blackout_reports_frozen_remaining() {
        let mut l = constant_link(1000.0);
        l.set_faults(vec![CapacityFault {
            from: SimTime::from_secs(2),
            until: SimTime::from_secs(1000),
            factor: 0.0,
        }]);
        l.start(SimTime::ZERO, TransferId(1), 10_000, 1);
        // 2 s of flow then darkness: remaining frozen at 8000 bytes.
        let rem = l.abort(SimTime::from_secs(50), TransferId(1)).unwrap();
        assert_eq!(rem, 8_000);
    }

    /// One step of a random link workload: start a transfer, abort one,
    /// advance by a span, or advance to the link's own next wake.
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The memoized first piece is bitwise the per-piece recomputation
        /// it replaced: a link asked `next_wake` before every advance (and
        /// again after every start and abort, as the engine's re-arm does)
        /// against the uncached oracle, over starts, aborts, faults
        /// installed after a kept piece, latency and jittered capacity.
        #[test]
        fn kept_piece_matches_uncached_oracle(
            steps in proptest::collection::vec((0u8..10, 1_000u64..40_000_000, 1u32..6, 0u64..90_000_000), 1..80),
            seed in 0u64..400,
            latency in 0u64..20,
            faulty in proptest::prelude::any::<bool>(),
        ) {
            use proptest::prelude::*;
            let mut fast = Link::new(BandwidthModel::high_variation(seed), 1.5, SimDuration::from_secs(30))
                .with_latency(SimDuration::from_secs(latency));
            let mut slow = fast.clone();
            fast.start(SimTime::ZERO, TransferId(0), 2_000_000, 2);
            slow.start(SimTime::ZERO, TransferId(0), 2_000_000, 2);
            prop_assert_eq!(fast.next_wake(), slow.next_wake_uncached());
            if faulty {
                // Installed after `next_wake` kept a piece: it must not
                // survive the new fault edges.
                let faults = vec![
                    CapacityFault { from: SimTime::from_secs(5), until: SimTime::from_secs(95), factor: 0.0 },
                    CapacityFault { from: SimTime::ZERO, until: SimTime::from_secs(400), factor: 0.3 },
                ];
                fast.set_faults(faults.clone());
                slow.set_faults(faults);
            }
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut now = SimTime::ZERO;
            let mut next_id = 1;
            for &drawn in &steps {
                match step(drawn) {
                    Step::Start { bytes, threads } => {
                        fast.start(now, TransferId(next_id), bytes, threads);
                        slow.start(now, TransferId(next_id), bytes, threads);
                        next_id += 1;
                    }
                    Step::Abort(k) => {
                        let id = TransferId(k % next_id);
                        prop_assert_eq!(fast.abort(now, id), slow.abort(now, id));
                    }
                    Step::Advance(us) => {
                        now += SimDuration::from_micros(us);
                        fast.next_wake();
                        fast.advance_into(now, &mut got);
                        slow.advance_into_uncached(now, &mut want);
                    }
                    Step::Wake => {
                        let w = fast.next_wake();
                        prop_assert_eq!(w, slow.next_wake_uncached());
                        if let Some(w) = w {
                            now = w;
                            fast.advance_into(now, &mut got);
                            slow.advance_into_uncached(now, &mut want);
                        }
                    }
                }
                prop_assert_eq!(fast.next_wake(), slow.next_wake_uncached());
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(fast.remaining_bytes(), slow.remaining_bytes());
                prop_assert_eq!(fast.boundary(), slow.boundary());
                prop_assert_eq!(fast.busy_time(), slow.busy_time());
            }
            while let Some(w) = fast.next_wake() {
                prop_assert_eq!(Some(w), slow.next_wake_uncached());
                fast.advance_into(w, &mut got);
                slow.advance_into_uncached(w, &mut want);
            }
            prop_assert_eq!(slow.next_wake_uncached(), None);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(fast.bytes_delivered(), slow.bytes_delivered());
        }
    }

    // The duplicate-id check is a `debug_assert!`: release builds skip it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "duplicate transfer id")]
    fn duplicate_id_panics() {
        let mut l = constant_link(1000.0);
        l.start(SimTime::ZERO, TransferId(1), 100, 1);
        l.start(SimTime::ZERO, TransferId(1), 100, 1);
    }
}

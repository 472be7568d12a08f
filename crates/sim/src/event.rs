//! The event queue and simulation driver.
//!
//! Events are `FnOnce(&mut W, &mut Sim<W>)` closures ordered by
//! `(time, sequence)`. The monotone sequence number gives simultaneous events
//! a stable first-scheduled-first-fired order, which is essential for
//! reproducibility: two runs with the same seed execute the exact same event
//! interleaving.
//!
//! # Hot-path layout
//!
//! The heap holds only `Copy` `(time, seq, slot)` triples; the closure and
//! liveness state live in a generational slab indexed by `slot`. An
//! [`EventId`] carries both the slot index and the event's globally unique
//! sequence number, so a lookup is one bounds-checked array access plus a
//! `seq` comparison — no hashing anywhere.
//!
//! Cancellation drops the closure immediately and vacates the slot (the slot
//! goes on a free list for reuse); the heap entry becomes a stale triple
//! that is discarded when it reaches the head. Both [`Sim::cancel`] and the
//! driver eagerly pop stale triples off the head, so the head of the heap is
//! always a live event and [`Sim::peek_next`] is a read-only `&self` peek.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// The id stays valid (and inert) after the event fires or is cancelled:
/// the slab slot is generational, so a reused slot cannot be confused with
/// the event that previously occupied it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Sim<W>)>;

/// Sentinel for "no free slot" in the slab free list.
const NIL: u32 = u32::MAX;

enum Slot<W> {
    Vacant { next_free: u32 },
    Occupied { seq: u64, f: EventFn<W> },
}

/// Capacity floor (entries) below which the kernel never bothers shrinking:
/// a heap or slab this small is noise next to the world state.
const SHRINK_FLOOR: usize = 1024;

/// Fired-event mask between shrink checks: every 4096th event pays one
/// comparison pair; an actual shrink additionally costs O(len) and only
/// triggers in a trough (live ≪ capacity), so sustained load amortizes it
/// to nothing.
const SHRINK_CHECK_MASK: u64 = 0xFFF;

/// What the heap orders: a `Copy` triple, closure stored out-of-line in the
/// slab so sift-up/down moves 24 bytes and never touches an allocator.
#[derive(Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    // Reversed so the std max-heap pops the earliest (time, seq) first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A discrete-event simulator over a world state `W`.
///
/// The world is passed by `&mut` into every event, alongside the simulator
/// itself so events can schedule follow-up events. See the crate docs for an
/// example.
pub struct Sim<W> {
    now: SimTime,
    queue: BinaryHeap<HeapEntry>,
    seq: u64,
    /// Generational slab: slot `i` of a live event holds its closure and
    /// seq; vacated slots chain into a free list for reuse.
    slots: Vec<Slot<W>>,
    free_head: u32,
    live: usize,
    fired: u64,
    shrinks: u64,
}

impl<W> std::fmt::Debug for Sim<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.live)
            .field("fired", &self.fired)
            .finish_non_exhaustive()
    }
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Sim<W> {
    /// Creates an empty simulator at `t = 0`.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
            fired: 0,
            shrinks: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (scheduled, not cancelled) events.
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Number of slab slots ever allocated — the high-water mark of
    /// simultaneously pending events, not the total scheduled (diagnostics).
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Trough-triggered capacity release. After a burst, the heap and slab
    /// retain their high-water allocations forever unless shrunk; this
    /// releases them once occupancy falls below a quarter of capacity,
    /// keeping 2× the live set as headroom so a rebound does not thrash.
    ///
    /// Deterministic: triggered from [`Sim::step`] on a fired-event counter,
    /// and every condition is a pure function of simulation state. Slot ids
    /// handed out after a slab shrink differ from the never-shrunk run, but
    /// firing order is `(time, seq)` — slot numbering never reaches the
    /// simulation's observable behavior.
    fn maybe_shrink(&mut self) {
        if self.queue.capacity() > SHRINK_FLOOR && self.queue.len() * 4 < self.queue.capacity() {
            self.queue.shrink_to((self.queue.len() * 2).max(SHRINK_FLOOR));
            self.shrinks += 1;
        }
        if self.slots.len() > SHRINK_FLOOR && self.live * 4 < self.slots.len() {
            // Only trailing vacant slots can be released (occupied slots are
            // pinned by pending EventIds); stop at 2× live for headroom.
            let floor = (self.live * 2).max(SHRINK_FLOOR);
            let mut keep = self.slots.len();
            while keep > floor && matches!(self.slots[keep - 1], Slot::Vacant { .. }) {
                keep -= 1;
            }
            if keep < self.slots.len() {
                self.slots.truncate(keep);
                self.slots.shrink_to(keep * 2);
                // The free list may chain through truncated slots: rebuild it
                // over the survivors, low slots first, so reuse order stays a
                // pure function of slab contents.
                self.free_head = NIL;
                for (i, s) in self.slots.iter_mut().enumerate().rev() {
                    if let Slot::Vacant { next_free } = s {
                        *next_free = self.free_head;
                        self.free_head = i as u32;
                    }
                }
                self.shrinks += 1;
            }
        }
    }

    /// Schedules `f` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to fire
    /// at the current time instead (it will run before the driver advances
    /// the clock), and in debug builds this panics to surface the bug.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Sim<W>) + 'static,
    ) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at:?} now={:?}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let f: EventFn<W> = Box::new(f);
        let slot = if self.free_head != NIL {
            let slot = self.free_head;
            let reused = std::mem::replace(&mut self.slots[slot as usize], Slot::Occupied { seq, f });
            match reused {
                Slot::Vacant { next_free } => self.free_head = next_free,
                Slot::Occupied { .. } => unreachable!("free list pointed at an occupied slot"),
            }
            slot
        } else {
            assert!(self.slots.len() < NIL as usize, "event slab exhausted");
            self.slots.push(Slot::Occupied { seq, f });
            (self.slots.len() - 1) as u32
        };
        self.live += 1;
        self.queue.push(HeapEntry { at, seq, slot });
        EventId { seq, slot }
    }

    /// Schedules `f` to fire after `delay`.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut W, &mut Sim<W>) + 'static,
    ) -> EventId {
        let at = self.now + delay;
        self.schedule_at(at, f)
    }

    /// Schedules `f` to fire at the current instant, after all events already
    /// scheduled for this instant.
    pub fn schedule_now(&mut self, f: impl FnOnce(&mut W, &mut Sim<W>) + 'static) -> EventId {
        self.schedule_at(self.now, f)
    }

    /// `true` if `id` refers to a still-pending event.
    fn is_live(&self, seq: u64, slot: u32) -> bool {
        matches!(
            self.slots.get(slot as usize),
            Some(Slot::Occupied { seq: s, .. }) if *s == seq
        )
    }

    /// Takes the closure out of `slot`, vacating it onto the free list.
    /// Caller must have checked liveness.
    fn vacate(&mut self, slot: u32) -> EventFn<W> {
        let vacant = Slot::Vacant { next_free: self.free_head };
        match std::mem::replace(&mut self.slots[slot as usize], vacant) {
            Slot::Occupied { f, .. } => {
                self.free_head = slot;
                self.live -= 1;
                f
            }
            Slot::Vacant { .. } => unreachable!("vacated a vacant slot"),
        }
    }

    /// Pops stale (cancelled) triples off the heap head so the head — and
    /// therefore [`Sim::peek_next`] — always reflects a live event.
    fn compact_head(&mut self) {
        while let Some(e) = self.queue.peek() {
            if self.is_live(e.seq, e.slot) {
                break;
            }
            self.queue.pop();
        }
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending (it will now never fire), `false` if it already fired or
    /// was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.is_live(id.seq, id.slot) {
            return false;
        }
        // Drop the closure now; its heap triple is discarded when it
        // surfaces at the head.
        drop(self.vacate(id.slot));
        self.compact_head();
        true
    }

    /// Pops and fires the next live event. Returns `false` when the queue is
    /// exhausted.
    // conform::hot_root
    pub fn step(&mut self, world: &mut W) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        // compact_head keeps the head live; a stale pop means the invariant
        // broke somewhere.
        debug_assert!(self.is_live(ev.seq, ev.slot), "stale event at compacted head");
        let f = self.vacate(ev.slot);
        self.compact_head();
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        self.fired += 1;
        if self.fired & SHRINK_CHECK_MASK == 0 {
            self.maybe_shrink();
        }
        f(world, self);
        true
    }

    /// Runs until no events remain.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Runs events up to and including time `until`; the clock ends at
    /// `until` (or at the last event if the queue drains first — in that case
    /// the clock is advanced to `until`). Events scheduled after `until`
    /// remain pending.
    pub fn run_until(&mut self, world: &mut W, until: SimTime) {
        loop {
            match self.peek_next() {
                Some(at) if at <= until => {
                    let fired = self.step(world);
                    if !fired {
                        break;
                    }
                }
                _ => break,
            }
        }
        if self.now < until {
            self.now = until;
        }
    }

    /// Time of the next live event, if any. Read-only: cancelled events are
    /// compacted off the head eagerly, never here.
    pub fn peek_next(&self) -> Option<SimTime> {
        self.queue.peek().map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        sim.schedule_at(SimTime::from_secs(3), |w: &mut Vec<u32>, _| w.push(3));
        sim.schedule_at(SimTime::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_at(SimTime::from_secs(2), |w: &mut Vec<u32>, _| w.push(2));
        let mut w = Vec::new();
        sim.run(&mut w);
        assert_eq!(w, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            sim.schedule_at(t, move |w: &mut Vec<u32>, _| w.push(i));
        }
        let mut w = Vec::new();
        sim.run(&mut w);
        assert_eq!(w, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        sim.schedule_in(SimDuration::from_secs(1), |_, sim| {
            sim.schedule_in(SimDuration::from_secs(1), |w: &mut Vec<u64>, sim| {
                w.push(sim.now().as_micros());
            });
        });
        let mut w = Vec::new();
        sim.run(&mut w);
        assert_eq!(w, vec![2_000_000]);
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let id = sim.schedule_at(SimTime::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_at(SimTime::from_secs(2), |w: &mut Vec<u32>, _| w.push(2));
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel reports false");
        let mut w = Vec::new();
        sim.run(&mut w);
        assert_eq!(w, vec![2]);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut sim: Sim<()> = Sim::new();
        assert!(!sim.cancel(EventId { seq: 42, slot: 7 }));
    }

    #[test]
    fn cancel_after_fire_is_false_and_leaks_nothing() {
        let mut sim: Sim<u32> = Sim::new();
        let id = sim.schedule_at(SimTime::from_secs(1), |w: &mut u32, _| *w += 1);
        let mut w = 0;
        sim.run(&mut w);
        assert_eq!(w, 1);
        assert!(!sim.cancel(id), "already-fired event cannot be cancelled");
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn stale_id_cannot_cancel_slot_reuser() {
        // a fires (or is cancelled), its slot is reused by b; a's old id
        // must not cancel b.
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let a = sim.schedule_at(SimTime::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        assert!(sim.cancel(a));
        let b = sim.schedule_at(SimTime::from_secs(2), |w: &mut Vec<u32>, _| w.push(2));
        assert_eq!(a.slot, b.slot, "test premise: slot is reused");
        assert!(!sim.cancel(a), "stale id must not hit the reused slot");
        let mut w = Vec::new();
        sim.run(&mut w);
        assert_eq!(w, vec![2]);
    }

    #[test]
    fn slots_are_reused_not_grown() {
        let mut sim: Sim<u64> = Sim::new();
        // Self-rescheduling chain: never more than one pending event.
        fn tick(w: &mut u64, sim: &mut Sim<u64>) {
            *w += 1;
            if *w < 1000 {
                sim.schedule_in(SimDuration::from_secs(1), tick);
            }
        }
        sim.schedule_now(tick);
        let mut w = 0u64;
        sim.run(&mut w);
        assert_eq!(w, 1000);
        assert_eq!(sim.slot_capacity(), 1, "chain must reuse a single slot");
    }

    #[test]
    fn run_until_is_not_fooled_by_cancelled_head() {
        // Regression: a cancelled event at the head of the queue with
        // at <= until must not cause a live event beyond `until` to fire.
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let dead = sim.schedule_at(SimTime::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_at(SimTime::from_secs(5), |w: &mut Vec<u32>, _| w.push(5));
        sim.cancel(dead);
        let mut w = Vec::new();
        sim.run_until(&mut w, SimTime::from_secs(3));
        assert!(w.is_empty(), "nothing live at or before t=3: {w:?}");
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        sim.schedule_at(SimTime::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_at(SimTime::from_secs(5), |w: &mut Vec<u32>, _| w.push(5));
        let mut w = Vec::new();
        sim.run_until(&mut w, SimTime::from_secs(3));
        assert_eq!(w, vec![1]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert_eq!(sim.pending(), 1);
        sim.run(&mut w);
        assert_eq!(w, vec![1, 5]);
    }

    #[test]
    fn peek_next_skips_cancelled() {
        let mut sim: Sim<()> = Sim::new();
        let a = sim.schedule_at(SimTime::from_secs(1), |_, _| {});
        sim.schedule_at(SimTime::from_secs(2), |_, _| {});
        sim.cancel(a);
        assert_eq!(sim.peek_next(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn peek_next_live_after_interleaved_cancels() {
        // Cancel mid-heap entries, then fire past them: the head must stay
        // live at every observation point.
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let ids: Vec<EventId> = (1..=10)
            .map(|s| sim.schedule_at(SimTime::from_secs(s), move |w: &mut Vec<u32>, _| w.push(s as u32)))
            .collect();
        for &id in &ids[2..8] {
            sim.cancel(id);
        }
        let mut w = Vec::new();
        assert_eq!(sim.peek_next(), Some(SimTime::from_secs(1)));
        assert!(sim.step(&mut w));
        assert_eq!(sim.peek_next(), Some(SimTime::from_secs(2)));
        assert!(sim.step(&mut w));
        // Events 3..=8 are cancelled; head must already point at 9.
        assert_eq!(sim.peek_next(), Some(SimTime::from_secs(9)));
        sim.run(&mut w);
        assert_eq!(w, vec![1, 2, 9, 10]);
    }

    #[test]
    fn pending_counts_live_events() {
        let mut sim: Sim<()> = Sim::new();
        let a = sim.schedule_at(SimTime::from_secs(1), |_, _| {});
        sim.schedule_at(SimTime::from_secs(2), |_, _| {});
        assert_eq!(sim.pending(), 2);
        sim.cancel(a);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn burst_then_trough_releases_capacity() {
        // Schedule a large burst at one instant, drain it, then tick long
        // enough past the burst for the shrink check to fire: both the heap
        // and the slab must fall back toward the (tiny) live set.
        let mut sim: Sim<u64> = Sim::new();
        let burst = 40_000u64;
        for i in 0..burst {
            sim.schedule_at(SimTime::from_secs(1), move |w: &mut u64, _| *w += i & 1);
        }
        let mut w = 0u64;
        sim.run(&mut w);
        assert!(sim.slots.len() >= burst as usize);

        // Self-rescheduling chain: one live event, many fired events.
        fn tick(w: &mut u64, sim: &mut Sim<u64>) {
            *w += 1;
            if *w < 2 * 0x1000 + 2 {
                sim.schedule_in(SimDuration::from_secs(1), tick);
            }
        }
        let mut w = 0u64;
        sim.schedule_now(tick);
        sim.run(&mut w);
        assert!(sim.shrinks > 0, "trough must trigger a shrink");
        assert!(sim.slots.len() <= SHRINK_FLOOR, "slab must shrink to the floor: {}", sim.slots.len());
        assert!(
            sim.queue.capacity() <= SHRINK_FLOOR,
            "heap must shrink to the floor: {}",
            sim.queue.capacity()
        );
    }

    #[test]
    fn stale_id_is_inert_after_slab_shrink() {
        // An EventId whose slot was truncated by a shrink must report
        // not-live instead of indexing out of bounds.
        let mut sim: Sim<u64> = Sim::new();
        let ids: Vec<EventId> = (0..40_000)
            .map(|_| sim.schedule_at(SimTime::from_secs(1), |w: &mut u64, _| *w += 1))
            .collect();
        let mut w = 0u64;
        sim.run(&mut w);
        fn tick(w: &mut u64, sim: &mut Sim<u64>) {
            *w += 1;
            if *w < 2 * 0x1000 + 2 {
                sim.schedule_in(SimDuration::from_secs(1), tick);
            }
        }
        let mut w = 0u64;
        sim.schedule_now(tick);
        sim.run(&mut w);
        assert!(sim.slots.len() < ids.len(), "premise: slab shrank");
        for id in ids {
            assert!(!sim.cancel(id), "fired-then-truncated id must stay inert");
        }
    }

    #[test]
    fn shrink_preserves_pending_events_and_order() {
        // Live events scheduled far apart survive interleaved shrinks and
        // still fire in (time, seq) order.
        let mut sim: Sim<Vec<u64>> = Sim::new();
        for i in 0..40_000u64 {
            sim.schedule_at(SimTime::from_secs(1), move |w: &mut Vec<u64>, _| {
                if i == 0 {
                    w.push(0);
                }
            });
        }
        // Survivors beyond the churn below.
        sim.schedule_at(SimTime::from_secs(100_000), |w: &mut Vec<u64>, _| w.push(1));
        sim.schedule_at(SimTime::from_secs(100_001), |w: &mut Vec<u64>, _| w.push(2));
        // The handler signature is fixed by `Sim<Vec<u64>>`, slice or not.
        #[allow(clippy::ptr_arg)]
        fn tick(_w: &mut Vec<u64>, sim: &mut Sim<Vec<u64>>) {
            if sim.now() < SimTime::from_secs(99_000) {
                sim.schedule_in(SimDuration::from_secs(1), tick);
            }
        }
        sim.schedule_at(SimTime::from_secs(2), tick);
        let mut w = Vec::new();
        sim.run(&mut w);
        assert_eq!(w, vec![0, 1, 2]);
        assert!(sim.shrinks > 0);
    }

    #[test]
    fn schedule_now_runs_after_current_instant_events() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        sim.schedule_at(SimTime::ZERO, |w: &mut Vec<u32>, sim| {
            w.push(1);
            sim.schedule_now(|w: &mut Vec<u32>, _| w.push(3));
        });
        sim.schedule_at(SimTime::ZERO, |w: &mut Vec<u32>, _| w.push(2));
        let mut w = Vec::new();
        sim.run(&mut w);
        assert_eq!(w, vec![1, 2, 3]);
    }
}

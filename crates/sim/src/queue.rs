//! Pending-event queue.
//!
//! [`EventQueue`] is a binary min-heap on `(time, sequence)`. The
//! monotone sequence number delivers simultaneous events in FIFO
//! schedule order; stability matters for determinism.
//!
//! The simulation only ever holds a few hundred events at once (one
//! `Tick` per submission tick plus the in-flight `Propose`), so a heap
//! is as fast as anything cleverer; the repository's top-level
//! ARCHITECTURE.md records the measurement.
//!
//! # Monotone-insertion invariant
//!
//! `EventQueue::schedule` requires `at >=` the delivery time of the last
//! event popped (the *watermark*). The simulation engine upholds this by
//! construction — [`crate::Scheduler::at`] clamps to the current clock —
//! and the queue enforces it: a `debug_assert!` trips on violations in
//! debug builds, and release builds clamp the instant up to the
//! watermark, mirroring the engine's "the clock never runs backwards"
//! rule.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) pair on top.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A time-ordered queue of pending events.
///
/// Simultaneous events are delivered in the order they were scheduled
/// (FIFO). Insertions must respect the monotone-insertion invariant
/// documented at the [module level](self): never schedule below the
/// last popped time.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Delivery time of the last popped event; the floor for inserts.
    watermark: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Schedules `event` for delivery at `at`.
    ///
    /// `at` must be ≥ the delivery time of the last popped event (see
    /// the module-level invariant). Debug builds assert; release builds
    /// clamp up to the watermark, so a violating event is delivered at
    /// the earliest still-representable instant rather than lost.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.watermark,
            "EventQueue::schedule below watermark: {at:?} < {:?}",
            self.watermark
        );
        let at = at.max(self.watermark);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, with its delivery time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { at, event, .. } = self.heap.pop()?;
        self.watermark = at;
        Some((at, event))
    }

    /// The delivery time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(5), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        let (t, ()) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(2));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, 1u8);
        q.schedule(SimTime::ZERO, 2u8);
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // Ticks spanning the full `u64` microsecond range, up to the
        // maximum representable instant.
        let mut q = EventQueue::new();
        let ticks = [
            0u64,
            1,
            63,
            64,
            65,
            4095,
            4096,
            1 << 30,
            (1 << 30) + 1,
            1 << 45,
            1 << 62,
            u64::MAX - 1,
            u64::MAX,
        ];
        for (i, &t) in ticks.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut sorted: Vec<(u64, usize)> =
            ticks.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        sorted.sort();
        let popped: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.0, e))
            .collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        // Re-scheduling after pops exercises inserts near the watermark
        // (the engine's steady-state pattern).
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 0u32);
        q.schedule(SimTime(1_000_000), 1);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.0, e), (10, 0));
        // Insert between the watermark and the far event.
        q.schedule(SimTime(500), 2);
        q.schedule(SimTime(10), 3); // exactly at the watermark
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.0, e)).collect();
        assert_eq!(order, vec![(10, 3), (500, 2), (1_000_000, 1)]);
    }

    #[test]
    fn same_tick_fifo_across_interleaved_pops() {
        // Events at one far tick scheduled before AND after unrelated
        // pops must still pop in schedule order.
        let mut q = EventQueue::new();
        let far = 1u64 << 20;
        q.schedule(SimTime(far), 0u32);
        q.schedule(SimTime(5), 100);
        q.schedule(SimTime(far), 1);
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 100);
        q.schedule(SimTime(far), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "below watermark"))]
    fn schedule_below_watermark_asserts_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        q.pop();
        q.schedule(SimTime(50), ());
        // Release builds clamp instead of panicking.
        assert_eq!(q.peek_time(), Some(SimTime(100)));
    }
}

//! The simulation executor.
//!
//! A [`World`] owns the mutable simulation state and handles events; the
//! [`Simulation`] drives the clock forward, delivering events in time
//! order. Handlers schedule follow-up events through a [`Scheduler`]
//! handle, which keeps borrowing simple (the world never holds the queue).

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Mutable simulation state plus its event handler.
pub trait World {
    /// The event type this world reacts to.
    type Event;

    /// Handles one event delivered at `now`, scheduling any follow-up
    /// events through `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Handle used by event handlers to schedule future events.
pub struct Scheduler<E> {
    now: SimTime,
    pending: Vec<(SimTime, E)>,
}

impl<E> Scheduler<E> {
    fn new(now: SimTime) -> Self {
        Scheduler {
            now,
            pending: Vec::new(),
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.pending.push((self.now + delay, event));
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// Events scheduled in the past are delivered "now" instead; the
    /// simulation clock never runs backwards.
    pub fn at(&mut self, at: SimTime, event: E) {
        self.pending.push((at.max(self.now), event));
    }
}

/// The event-driven simulation executor.
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    delivered: u64,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation around an initial world state.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            delivered: 0,
        }
    }

    /// Schedules an initial event before the run starts (or between runs).
    pub fn schedule(&mut self, at: SimTime, event: W::Event) {
        self.queue.schedule(at.max(self.now), event);
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for setup and inspection).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// The instant of the next queued event, if any.
    ///
    /// This is the pacing hook of live mode: a wall-clock driver peeks
    /// the next instant, sleeps until real time catches up, then
    /// delivers it with [`Simulation::step`].
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Delivers exactly the next queued event (advancing the clock to
    /// it), or returns `None` on an empty queue.
    ///
    /// A `step()` loop is observably identical to [`Simulation::run_until`]: same
    /// events, same order, same clock — only the caller controls when
    /// each delivery happens.
    pub fn step(&mut self) -> Option<SimTime> {
        let (at, event) = self.queue.pop()?;
        debug_assert!(at >= self.now, "time must be monotone");
        self.now = at;
        let mut sched = Scheduler::new(at);
        self.world.handle(at, event, &mut sched);
        for (t, e) in sched.pending {
            self.queue.schedule(t, e);
        }
        self.delivered += 1;
        Some(at)
    }

    /// Runs until the queue drains or the clock passes `deadline`.
    ///
    /// Events scheduled exactly at the deadline are delivered; later
    /// events remain queued. Returns the number of events delivered by
    /// this call.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut count = 0;
        while let Some(at) = self.queue.peek_time() {
            if at > deadline {
                break;
            }
            let (at, event) = self.queue.pop().expect("peeked entry must pop");
            debug_assert!(at >= self.now, "time must be monotone");
            self.now = at;
            let mut sched = Scheduler::new(at);
            self.world.handle(at, event, &mut sched);
            for (t, e) in sched.pending {
                self.queue.schedule(t, e);
            }
            count += 1;
        }
        self.now = self
            .now
            .max(deadline.min(self.queue.peek_time().unwrap_or(deadline)));
        self.delivered += count;
        count
    }

    /// Runs until the queue is completely drained.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy world: every `Tick(n)` event with `n > 0` schedules
    /// `Tick(n - 1)` one second later and records the time.
    struct Countdown {
        log: Vec<(SimTime, u32)>,
    }

    #[derive(Debug)]
    struct Tick(u32);

    impl World for Countdown {
        type Event = Tick;

        fn handle(&mut self, now: SimTime, event: Tick, sched: &mut Scheduler<Tick>) {
            self.log.push((now, event.0));
            if event.0 > 0 {
                sched.after(SimDuration::from_secs(1), Tick(event.0 - 1));
            }
        }
    }

    #[test]
    fn chains_of_events_advance_the_clock() {
        let mut sim = Simulation::new(Countdown { log: Vec::new() });
        sim.schedule(SimTime::ZERO, Tick(3));
        let delivered = sim.run_to_completion();
        assert_eq!(delivered, 4);
        let world = sim.into_world();
        assert_eq!(
            world.log,
            vec![
                (SimTime::from_secs(0), 3),
                (SimTime::from_secs(1), 2),
                (SimTime::from_secs(2), 1),
                (SimTime::from_secs(3), 0),
            ]
        );
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::new(Countdown { log: Vec::new() });
        sim.schedule(SimTime::ZERO, Tick(10));
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(sim.world().log.len(), 5); // t = 0..=4
        sim.run_to_completion();
        assert_eq!(sim.world().log.len(), 11);
    }

    #[test]
    fn stepping_is_identical_to_run_until() {
        let mut run = Simulation::new(Countdown { log: Vec::new() });
        run.schedule(SimTime::ZERO, Tick(5));
        run.run_to_completion();

        let mut stepped = Simulation::new(Countdown { log: Vec::new() });
        stepped.schedule(SimTime::ZERO, Tick(5));
        while let Some(next) = stepped.peek_time() {
            let delivered = stepped.step().unwrap();
            assert_eq!(delivered, next, "peek agrees with the delivered instant");
        }
        assert_eq!(stepped.world().log, run.world().log);
        assert_eq!(stepped.delivered(), run.delivered());
    }

    #[test]
    fn past_events_delivered_now() {
        struct Echo(Vec<SimTime>);
        impl World for Echo {
            type Event = bool;
            fn handle(&mut self, now: SimTime, first: bool, sched: &mut Scheduler<bool>) {
                self.0.push(now);
                if first {
                    // Attempt to schedule in the past; must clamp to now.
                    sched.at(SimTime::ZERO, false);
                }
            }
        }
        let mut sim = Simulation::new(Echo(Vec::new()));
        sim.schedule(SimTime::from_secs(5), true);
        sim.run_to_completion();
        assert_eq!(
            sim.world().0,
            vec![SimTime::from_secs(5), SimTime::from_secs(5)]
        );
    }
}

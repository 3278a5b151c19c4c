//! Timestamped event logging for the concurrent implementation.
//!
//! Philosopher threads emit [`TimedEvent`]s through an `mpsc` channel;
//! [`TrialLog`] collects and orders them, and offers the consistency
//! checks the tests use to validate the threaded implementation against
//! Figure 1's semantics (every critical entry is preceded by acquiring
//! both resources; every failed second check is followed by a re-flip;
//! at most one thread holds a given resource at any instant).

use std::time::Duration;

use crate::Side;

/// What a philosopher thread did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Line 1: chose a side.
    Flip(Side),
    /// Line 2 completed: acquired the first resource (by global index).
    FirstAcquired(usize),
    /// Line 3 succeeded: acquired the second resource and entered the
    /// critical region.
    CritEntered(usize),
    /// Line 3 failed: the second resource (by global index) was taken;
    /// the first was released (line 4).
    SecondFailed(usize),
    /// The thread observed the trial end and exited.
    Exited,
}

/// One logged event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Time since the trial start.
    pub at: Duration,
    /// The philosopher (ring index) that performed the event.
    pub thread: usize,
    /// What happened.
    pub kind: EventKind,
}

/// The ordered event log of one concurrent trial.
#[derive(Debug, Clone, Default)]
pub struct TrialLog {
    events: Vec<TimedEvent>,
}

impl TrialLog {
    /// Builds a log from unordered events (sorted by timestamp; ties keep
    /// the channel arrival order, which respects per-thread order).
    pub fn new(mut events: Vec<TimedEvent>) -> TrialLog {
        events.sort_by_key(|e| e.at);
        TrialLog { events }
    }

    /// The events in time order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Number of events logged.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one thread, in order.
    pub fn of_thread(&self, thread: usize) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter().filter(move |e| e.thread == thread)
    }

    /// Count of events matching a predicate.
    pub fn count(&self, mut pred: impl FnMut(&TimedEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// The first critical entry, if any.
    pub fn first_crit(&self) -> Option<&TimedEvent> {
        self.events
            .iter()
            .find(|e| matches!(e.kind, EventKind::CritEntered(_)))
    }

    /// Figure 1 consistency: on each thread, events follow the protocol
    /// order — `Flip` then `FirstAcquired` then (`CritEntered` |
    /// `SecondFailed`), with `SecondFailed` looping back to `Flip`.
    /// Returns the offending event on violation.
    pub fn check_thread_order(&self, n: usize) -> Result<(), TimedEvent> {
        #[derive(Clone, Copy, PartialEq)]
        enum Phase {
            NeedFlip,
            NeedFirst,
            NeedSecond,
            Done,
        }
        let mut phase = vec![Phase::NeedFlip; n];
        for e in &self.events {
            let p = &mut phase[e.thread];
            let ok = match e.kind {
                EventKind::Flip(_) => {
                    if *p == Phase::NeedFlip {
                        *p = Phase::NeedFirst;
                        true
                    } else {
                        false
                    }
                }
                EventKind::FirstAcquired(_) => {
                    if *p == Phase::NeedFirst {
                        *p = Phase::NeedSecond;
                        true
                    } else {
                        false
                    }
                }
                EventKind::CritEntered(_) => {
                    if *p == Phase::NeedSecond {
                        *p = Phase::Done;
                        true
                    } else {
                        false
                    }
                }
                EventKind::SecondFailed(_) => {
                    if *p == Phase::NeedSecond {
                        *p = Phase::NeedFlip;
                        true
                    } else {
                        false
                    }
                }
                // A thread may exit from any phase when the trial ends.
                EventKind::Exited => true,
            };
            if !ok {
                return Err(*e);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ms: u64, thread: usize, kind: EventKind) -> TimedEvent {
        TimedEvent {
            at: Duration::from_millis(ms),
            thread,
            kind,
        }
    }

    #[test]
    fn log_orders_by_time() {
        let log = TrialLog::new(vec![
            ev(5, 0, EventKind::FirstAcquired(0)),
            ev(1, 0, EventKind::Flip(Side::Right)),
        ]);
        assert_eq!(log.len(), 2);
        assert!(matches!(log.events()[0].kind, EventKind::Flip(_)));
    }

    #[test]
    fn protocol_order_accepts_valid_run() {
        let log = TrialLog::new(vec![
            ev(1, 0, EventKind::Flip(Side::Right)),
            ev(2, 0, EventKind::FirstAcquired(0)),
            ev(3, 0, EventKind::SecondFailed(2)),
            ev(4, 0, EventKind::Flip(Side::Left)),
            ev(5, 0, EventKind::FirstAcquired(2)),
            ev(6, 0, EventKind::CritEntered(0)),
            ev(7, 1, EventKind::Exited),
        ]);
        assert!(log.check_thread_order(2).is_ok());
        assert_eq!(log.first_crit().unwrap().thread, 0);
    }

    #[test]
    fn protocol_order_rejects_crit_without_first() {
        let log = TrialLog::new(vec![
            ev(1, 0, EventKind::Flip(Side::Right)),
            ev(2, 0, EventKind::CritEntered(0)),
        ]);
        let bad = log.check_thread_order(1).unwrap_err();
        assert!(matches!(bad.kind, EventKind::CritEntered(_)));
    }

    #[test]
    fn of_thread_filters() {
        let log = TrialLog::new(vec![
            ev(1, 0, EventKind::Flip(Side::Right)),
            ev(2, 1, EventKind::Flip(Side::Left)),
        ]);
        assert_eq!(log.of_thread(0).count(), 1);
        assert_eq!(log.count(|e| matches!(e.kind, EventKind::Flip(_))), 2);
    }
}

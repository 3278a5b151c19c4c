//! A real multi-threaded implementation of the Lehmann–Rabin algorithm.
//!
//! Each philosopher is an OS thread; each resource is a `std::sync`
//! mutex. Figure 1's atomic test-and-take (`if Res free then take`) maps
//! exactly to `Mutex::try_lock`, and the wait loop of line 2 maps to a spin
//! on `try_lock` with a yield. The OS scheduler plays the adversary; the
//! `Unit-Time` assumption corresponds to threads not being starved
//! indefinitely, which holds on any fair scheduler.
//!
//! This is experiment E13: the executable counterpart of the model — it
//! demonstrates that the verified algorithm actually runs, makes progress,
//! and never deadlocks, and measures wall-clock time-to-critical-section
//! distributions under real lock contention.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

use pa_prob::rng::SplitMix64;
use pa_prob::stats::OnlineStats;
use rand::RngExt;

use crate::events::{EventKind, TimedEvent, TrialLog};
use crate::{LrError, Side};

/// Results of a batch of concurrent trials.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// Number of trials run.
    pub trials: u64,
    /// Wall-clock seconds from trial start to the *first* process entering
    /// its critical region, over successful trials.
    pub time_to_crit: OnlineStats,
    /// Total critical-section entries observed (first per trial).
    pub crit_entries: u64,
    /// Trials that timed out before any process entered (should be zero —
    /// the algorithm guarantees progress with probability 1).
    pub timeouts: u64,
    /// Total flip operations performed across all trials (a measure of the
    /// retry work the randomized symmetry breaking needs).
    pub total_flips: u64,
}

/// Runs `trials` independent races of `n` philosopher threads, each trial
/// ending when the first philosopher enters its critical section (or at
/// `timeout`).
///
/// Determinism caveat: coin flips are seeded per `(seed, trial, thread)`,
/// but the interleaving is the OS scheduler's, so timing statistics vary
/// across runs — that is the point of the experiment.
///
/// # Errors
///
/// Returns [`LrError::BadRingSize`] for unsupported `n` and
/// [`LrError::Concurrency`] if a worker panics.
pub fn run_trials(
    n: usize,
    trials: u64,
    seed: u64,
    timeout: Duration,
) -> Result<ConcurrentReport, LrError> {
    if !(2..=16).contains(&n) {
        return Err(LrError::BadRingSize { n });
    }
    let mut report = ConcurrentReport {
        trials,
        time_to_crit: OnlineStats::new(),
        crit_entries: 0,
        timeouts: 0,
        total_flips: 0,
    };
    for trial in 0..trials {
        let (elapsed, flips) = run_one_trial(n, seed, trial, timeout)?;
        report.total_flips += flips;
        match elapsed {
            Some(d) => {
                report.time_to_crit.push(d.as_secs_f64());
                report.crit_entries += 1;
            }
            None => report.timeouts += 1,
        }
    }
    Ok(report)
}

fn run_one_trial(
    n: usize,
    seed: u64,
    trial: u64,
    timeout: Duration,
) -> Result<(Option<Duration>, u64), LrError> {
    let resources: Arc<Vec<Mutex<()>>> = Arc::new((0..n).map(|_| Mutex::new(())).collect());
    let done = Arc::new(AtomicBool::new(false));
    let flips = Arc::new(AtomicU64::new(0));
    let winner_at: Arc<Mutex<Option<Duration>>> = Arc::new(Mutex::new(None));
    let start = Instant::now();

    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let resources = Arc::clone(&resources);
        let done = Arc::clone(&done);
        let flips = Arc::clone(&flips);
        let winner_at = Arc::clone(&winner_at);
        handles.push(std::thread::spawn(move || {
            let mut rng = SplitMix64::for_trial(seed ^ (trial.wrapping_mul(0x9E37)), i as u64);
            let left = (i + n - 1) % n;
            let right = i;
            philosopher_loop(
                &resources, left, right, &done, &flips, &winner_at, start, timeout, &mut rng, None,
            );
        }));
    }
    for h in handles {
        h.join()
            .map_err(|_| LrError::Concurrency("philosopher thread panicked".into()))?;
    }
    let elapsed = *lock(&winner_at);
    Ok((elapsed, flips.load(Ordering::Relaxed)))
}

/// Blocks for `m`. A lock poisoned by a panicked philosopher is still
/// taken: the run reports the panic when it joins the thread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Figure 1's atomic test-and-take: the guard if `m` was free, `None` if
/// another philosopher holds it. A poisoned lock is taken as [`lock`]
/// takes it.
fn try_take<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Runs one trial with full event logging: every flip, acquisition,
/// failed second check, critical entry and thread exit is timestamped and
/// streamed through an `mpsc` channel. Returns the ordered log and the
/// time of the first critical entry (if any).
///
/// # Errors
///
/// Returns [`LrError::BadRingSize`] for unsupported `n` and
/// [`LrError::Concurrency`] if a worker panics.
pub fn run_logged_trial(
    n: usize,
    seed: u64,
    timeout: Duration,
) -> Result<(TrialLog, Option<Duration>), LrError> {
    if !(2..=16).contains(&n) {
        return Err(LrError::BadRingSize { n });
    }
    let resources: Arc<Vec<Mutex<()>>> = Arc::new((0..n).map(|_| Mutex::new(())).collect());
    let done = Arc::new(AtomicBool::new(false));
    let flips = Arc::new(AtomicU64::new(0));
    let winner_at: Arc<Mutex<Option<Duration>>> = Arc::new(Mutex::new(None));
    let (tx, rx) = mpsc::channel::<TimedEvent>();
    let start = Instant::now();

    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let resources = Arc::clone(&resources);
        let done = Arc::clone(&done);
        let flips = Arc::clone(&flips);
        let winner_at = Arc::clone(&winner_at);
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = SplitMix64::for_trial(seed, i as u64);
            let left = (i + n - 1) % n;
            let right = i;
            philosopher_loop(
                &resources,
                left,
                right,
                &done,
                &flips,
                &winner_at,
                start,
                timeout,
                &mut rng,
                Some((&tx, i)),
            );
        }));
    }
    drop(tx);
    for h in handles {
        h.join()
            .map_err(|_| LrError::Concurrency("philosopher thread panicked".into()))?;
    }
    let events: Vec<TimedEvent> = rx.try_iter().collect();
    let elapsed = *lock(&winner_at);
    Ok((TrialLog::new(events), elapsed))
}

#[allow(clippy::too_many_arguments)]
fn philosopher_loop(
    resources: &[Mutex<()>],
    left: usize,
    right: usize,
    done: &AtomicBool,
    flips: &AtomicU64,
    winner_at: &Mutex<Option<Duration>>,
    start: Instant,
    timeout: Duration,
    rng: &mut SplitMix64,
    log: Option<(&Sender<TimedEvent>, usize)>,
) {
    let emit = |kind: EventKind| {
        if let Some((tx, thread)) = log {
            // A closed channel only means the collector is gone; ignore.
            let _ = tx.send(TimedEvent {
                at: start.elapsed(),
                thread,
                kind,
            });
        }
    };
    while !done.load(Ordering::Acquire) {
        if start.elapsed() > timeout {
            done.store(true, Ordering::Release);
            emit(EventKind::Exited);
            return;
        }
        // Line 1: choose a side uniformly.
        flips.fetch_add(1, Ordering::Relaxed);
        let (first, second, side) = if rng.random_bool(0.5) {
            (left, right, Side::Left)
        } else {
            (right, left, Side::Right)
        };
        emit(EventKind::Flip(side));
        // Line 2: wait for the first resource (atomic test-and-take).
        let first_guard = loop {
            if done.load(Ordering::Acquire) || start.elapsed() > timeout {
                emit(EventKind::Exited);
                return;
            }
            match try_take(&resources[first]) {
                Some(g) => break g,
                None => std::thread::yield_now(),
            }
        };
        emit(EventKind::FirstAcquired(first));
        // Line 3: one-shot check of the second resource.
        match try_take(&resources[second]) {
            Some(second_guard) => {
                // Critical section: record the win (first writer only).
                let mut w = lock(winner_at);
                if w.is_none() {
                    *w = Some(start.elapsed());
                }
                drop(w);
                emit(EventKind::CritEntered(second));
                done.store(true, Ordering::Release);
                drop(second_guard);
                drop(first_guard);
                return;
            }
            None => {
                // Line 4: put down the first resource and retry.
                emit(EventKind::SecondFailed(second));
                drop(first_guard);
                std::thread::yield_now();
            }
        }
    }
    emit(EventKind::Exited);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_philosophers_make_progress() {
        let report = run_trials(3, 20, 42, Duration::from_secs(10)).unwrap();
        assert_eq!(report.timeouts, 0, "starvation observed");
        assert_eq!(report.crit_entries, 20);
        assert!(report.time_to_crit.mean() < 1.0, "suspiciously slow");
        assert!(report.total_flips >= 20, "each trial flips at least once");
    }

    #[test]
    fn two_philosophers_contend_on_shared_resources() {
        let report = run_trials(2, 10, 7, Duration::from_secs(10)).unwrap();
        assert_eq!(report.timeouts, 0);
        assert_eq!(report.crit_entries, 10);
    }

    #[test]
    fn larger_ring_still_progresses() {
        let report = run_trials(8, 5, 99, Duration::from_secs(10)).unwrap();
        assert_eq!(report.timeouts, 0);
        assert_eq!(report.crit_entries, 5);
    }

    #[test]
    fn logged_trial_respects_protocol_order() {
        let (log, winner) = run_logged_trial(3, 7, Duration::from_secs(10)).unwrap();
        assert!(winner.is_some(), "someone must eat");
        assert!(!log.is_empty());
        log.check_thread_order(3).expect("Figure 1 order violated");
        let crit = log.first_crit().expect("a crit event is logged");
        // The winner flipped before entering.
        assert!(log
            .of_thread(crit.thread)
            .any(|e| matches!(e.kind, EventKind::Flip(_)) && e.at <= crit.at));
    }

    #[test]
    fn logged_trial_counts_match_kinds() {
        let (log, _) = run_logged_trial(4, 99, Duration::from_secs(10)).unwrap();
        let crits = log.count(|e| matches!(e.kind, EventKind::CritEntered(_)));
        assert_eq!(crits, 1, "trial stops at the first meal");
        let flips = log.count(|e| matches!(e.kind, EventKind::Flip(_)));
        assert!(flips >= 1);
    }

    #[test]
    fn a_poisoned_resource_is_still_taken() {
        let m = Mutex::new(());
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = m.lock();
                    panic!("philosopher died holding the resource");
                })
                .join()
        });
        assert!(m.is_poisoned());
        assert!(try_take(&m).is_some(), "poisoned but free");
        let held = lock(&m);
        assert!(try_take(&m).is_none(), "held by another guard");
        drop(held);
    }

    #[test]
    fn bad_ring_size_is_rejected() {
        assert!(matches!(
            run_trials(1, 1, 0, Duration::from_secs(1)),
            Err(LrError::BadRingSize { n: 1 })
        ));
    }
}

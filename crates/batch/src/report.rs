//! Aggregated batch output: the canonical order-independent JSON, the
//! worker-invariance digest over it, and the full JSONL detail stream.
//!
//! Two serializations with two contracts:
//!
//! * [`BatchReport::canonical_json`] — **bitwise identical for every
//!   worker count.** Jobs sorted by key; carries measured values,
//!   statuses, per-job scoped counters (non-custom jobs, only when
//!   telemetry was enabled), and aggregate cache statistics. Excludes
//!   everything scheduling-dependent: wall-clock durations, timer
//!   metrics, the worker count itself, and which job triggered each cache
//!   build. [`BatchReport::digest`] is an FNV-1a 64 hash over it — the
//!   worker-invariance digest `pa-bench`'s `pinned_invariants` test pins.
//! * [`BatchReport::jsonl`] — one line per job with durations and the
//!   full telemetry snapshot; for humans and dashboards, not for diffing.

use serde::{json_escape, Serialize};

use crate::spec::{JobResult, JobStatus, JobValue};

/// Aggregate cache statistics of one batch run (all deterministic per
/// job set — see the concurrency notes on [`crate::cache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Model-map accesses served from an existing slot.
    pub model_hits: u64,
    /// Model builds (= distinct `(n, plan)` keys demanded).
    pub model_misses: u64,
    /// Config-map accesses served from an existing slot.
    pub config_hits: u64,
    /// Config explorations (= distinct ring sizes demanded).
    pub config_misses: u64,
    /// Distinct models resident at the end of the run.
    pub distinct_models: usize,
}

impl CacheStats {
    /// Model-cache hit rate in `[0, 1]` (0 when the cache was never hit).
    pub fn hit_rate(&self) -> f64 {
        let total = self.model_hits + self.model_misses;
        if total == 0 {
            0.0
        } else {
            self.model_hits as f64 / total as f64
        }
    }
}

/// Job tallies by terminal status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    /// Jobs that finished with a value.
    pub done: usize,
    /// Jobs that errored.
    pub failed: usize,
    /// Jobs that hit their timeout.
    pub timed_out: usize,
    /// Jobs cancelled with the batch.
    pub cancelled: usize,
    /// Finished jobs whose value reports a violated claim.
    pub violated: usize,
}

/// The aggregated result of [`crate::run_batch`].
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// All jobs, sorted by key.
    pub jobs: Vec<JobResult>,
    /// Worker threads the run used (report-only; not canonical).
    pub workers: usize,
    /// Wall-clock duration of the whole batch (report-only).
    pub wall_seconds: f64,
    /// Aggregate cache statistics.
    pub cache: CacheStats,
    /// The cache scope's telemetry (exploration/flattening of every
    /// build), for the JSONL stream.
    pub cache_snapshot: pa_telemetry::TelemetrySnapshot,
}

/// Formats a finite `f64` exactly as Rust's shortest-roundtrip `Display`
/// (deterministic across platforms for identical bit patterns).
fn fmt_f64(x: f64) -> String {
    debug_assert!(x.is_finite(), "non-finite value in batch report");
    format!("{x}")
}

fn value_json(value: &JobValue) -> String {
    match value {
        JobValue::Prob {
            measured,
            claimed,
            holds,
            worst_state,
            states_checked,
        } => {
            let worst = match worst_state {
                Some(s) => json_escape(s),
                None => "null".to_string(),
            };
            format!(
                "{{\"type\":\"prob\",\"measured\":{},\"claimed\":{},\"holds\":{holds},\
                 \"worst_state\":{worst},\"states_checked\":{states_checked}}}",
                fmt_f64(*measured),
                fmt_f64(*claimed),
            )
        }
        JobValue::Time {
            expected,
            bound,
            within,
        } => {
            let e = match expected {
                Some(x) => fmt_f64(*x),
                None => "null".to_string(),
            };
            format!(
                "{{\"type\":\"time\",\"expected\":{e},\"bound\":{},\"within\":{within}}}",
                fmt_f64(*bound)
            )
        }
        JobValue::Invariant {
            holds,
            states_checked,
        } => format!(
            "{{\"type\":\"invariant\",\"holds\":{holds},\"states_checked\":{states_checked}}}"
        ),
        JobValue::Lemma {
            name,
            min_prob,
            instances,
            holds,
        } => format!(
            "{{\"type\":\"lemma\",\"name\":{},\"min_prob\":{},\"instances\":{instances},\
             \"holds\":{holds}}}",
            json_escape(name),
            fmt_f64(*min_prob),
        ),
        JobValue::Estimate {
            point,
            lo,
            hi,
            claimed,
            trials,
            hits,
            refuted,
        } => format!(
            "{{\"type\":\"estimate\",\"point\":{},\"lo\":{},\"hi\":{},\"claimed\":{},\
             \"trials\":{trials},\"hits\":{hits},\"refuted\":{refuted}}}",
            fmt_f64(*point),
            fmt_f64(*lo),
            fmt_f64(*hi),
            fmt_f64(*claimed),
        ),
        JobValue::Tallies {
            holds,
            violated,
            info,
        } => format!(
            "{{\"type\":\"tallies\",\"holds\":{holds},\"violated\":{violated},\"info\":{info}}}"
        ),
    }
}

/// One job's canonical entry: key, status, value, and (for non-custom jobs
/// with telemetry enabled) its scoped counters — the deterministic subset
/// of the snapshot.
fn canonical_job_json(job: &JobResult) -> String {
    let mut fields = vec![
        format!("\"key\":{}", json_escape(&job.key)),
        format!("\"status\":\"{}\"", job.status.label()),
    ];
    match &job.status {
        JobStatus::Done(value) => fields.push(format!("\"value\":{}", value_json(value))),
        JobStatus::Failed(message) => {
            fields.push(format!("\"error\":{}", json_escape(message)));
        }
        JobStatus::TimedOut | JobStatus::Cancelled => {}
    }
    if !job.custom && job.snapshot.enabled {
        let counters: Vec<String> = job
            .snapshot
            .counters
            .iter()
            .map(|c| format!("{}:{}", json_escape(&c.name), c.value))
            .collect();
        fields.push(format!("\"counters\":{{{}}}", counters.join(",")));
    }
    format!("{{{}}}", fields.join(","))
}

impl BatchReport {
    /// Tallies jobs by terminal status.
    pub fn tally(&self) -> Tally {
        let mut tally = Tally::default();
        for job in &self.jobs {
            match &job.status {
                JobStatus::Done(value) => {
                    tally.done += 1;
                    if value.violated() {
                        tally.violated += 1;
                    }
                }
                JobStatus::Failed(_) => tally.failed += 1,
                JobStatus::TimedOut => tally.timed_out += 1,
                JobStatus::Cancelled => tally.cancelled += 1,
            }
        }
        tally
    }

    /// The canonical, worker-count-invariant JSON (see module docs).
    pub fn canonical_json(&self) -> String {
        let jobs: Vec<String> = self.jobs.iter().map(canonical_job_json).collect();
        let c = &self.cache;
        format!(
            "{{\"schema\":\"pa-batch/canonical/v1\",\"jobs\":[{}],\"cache\":{{\
             \"model_hits\":{},\"model_misses\":{},\"config_hits\":{},\"config_misses\":{},\
             \"distinct_models\":{}}}}}",
            jobs.join(","),
            c.model_hits,
            c.model_misses,
            c.config_hits,
            c.config_misses,
            c.distinct_models,
        )
    }

    /// FNV-1a 64 over [`canonical_json`](BatchReport::canonical_json), as
    /// 16 hex digits — the worker-invariance digest pinned by the bench
    /// baseline.
    pub fn digest(&self) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.canonical_json().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{hash:016x}")
    }

    /// The full JSONL stream: a header line (run-level stats, cache
    /// telemetry) followed by one line per job with durations and the
    /// complete scoped snapshot.
    pub fn jsonl(&self) -> String {
        let c = &self.cache;
        let mut lines = vec![format!(
            "{{\"schema\":\"pa-batch/jsonl/v1\",\"workers\":{},\"wall_seconds\":{},\
             \"digest\":\"{}\",\"cache\":{{\"model_hits\":{},\"model_misses\":{},\
             \"config_hits\":{},\"config_misses\":{},\"distinct_models\":{},\
             \"telemetry\":{}}}}}",
            self.workers,
            fmt_f64(self.wall_seconds),
            self.digest(),
            c.model_hits,
            c.model_misses,
            c.config_hits,
            c.config_misses,
            c.distinct_models,
            self.cache_snapshot.to_json(),
        )];
        for job in &self.jobs {
            let mut fields = vec![
                format!("\"key\":{}", json_escape(&job.key)),
                format!("\"n\":{}", job.n),
                format!("\"plan\":{}", json_escape(&job.plan_name)),
                format!("\"status\":\"{}\"", job.status.label()),
            ];
            match &job.status {
                JobStatus::Done(value) => fields.push(format!("\"value\":{}", value_json(value))),
                JobStatus::Failed(message) => {
                    fields.push(format!("\"error\":{}", json_escape(message)));
                }
                _ => {}
            }
            fields.push(format!("\"seconds\":{}", fmt_f64(job.seconds)));
            fields.push(format!("\"telemetry\":{}", job.snapshot.to_json()));
            lines.push(format!("{{{}}}", fields.join(",")));
        }
        lines.join("\n") + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_telemetry::TelemetrySnapshot;

    fn sample_report() -> BatchReport {
        let snapshot = {
            let scope = pa_telemetry::TelemetryScope::new("test");
            scope.snapshot()
        };
        BatchReport {
            jobs: vec![
                JobResult {
                    key: "arrow:0|n=3|plan=none|solver=jacobi|eps=1e-9".into(),
                    n: 3,
                    plan_name: "none".into(),
                    custom: false,
                    status: JobStatus::Done(JobValue::Prob {
                        measured: 0.5,
                        claimed: 0.5,
                        holds: true,
                        worst_state: Some("W0 W1 W2".into()),
                        states_checked: 7,
                    }),
                    seconds: 0.125,
                    snapshot: snapshot.clone(),
                },
                JobResult {
                    key: "custom:probe|n=3|plan=none|solver=jacobi|eps=1e-9".into(),
                    n: 3,
                    plan_name: "none".into(),
                    custom: true,
                    status: JobStatus::Failed("region X unknown".into()),
                    seconds: 0.25,
                    snapshot,
                },
            ],
            workers: 4,
            wall_seconds: 0.5,
            cache: CacheStats {
                model_hits: 3,
                model_misses: 1,
                config_hits: 0,
                config_misses: 1,
                distinct_models: 1,
            },
            cache_snapshot: TelemetrySnapshot {
                enabled: false,
                counters: vec![],
                gauges: vec![],
                timers: vec![],
                histograms: vec![],
                series: vec![],
            },
        }
    }

    #[test]
    fn canonical_json_excludes_timing_and_worker_count() {
        let report = sample_report();
        let json = report.canonical_json();
        assert!(json.contains("\"measured\":0.5"));
        assert!(json.contains("\"error\":\"region X unknown\""));
        assert!(!json.contains("seconds"), "no wall-clock in canonical");
        assert!(!json.contains("workers"), "no worker count in canonical");
        let mut other = report.clone();
        other.workers = 1;
        other.wall_seconds = 99.0;
        other.jobs[0].seconds = 42.0;
        assert_eq!(json, other.canonical_json());
        assert_eq!(report.digest(), other.digest());
    }

    #[test]
    fn digest_is_sensitive_to_values() {
        let report = sample_report();
        let mut other = report.clone();
        match &mut other.jobs[0].status {
            JobStatus::Done(JobValue::Prob { measured, .. }) => *measured = 0.25,
            _ => unreachable!(),
        }
        assert_ne!(report.digest(), other.digest());
        assert_eq!(report.digest().len(), 16);
    }

    #[test]
    fn tally_and_hit_rate() {
        let report = sample_report();
        let tally = report.tally();
        assert_eq!(tally.done, 1);
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.violated, 0);
        assert!((report.cache.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn jsonl_has_header_plus_one_line_per_job() {
        let report = sample_report();
        let jsonl = report.jsonl();
        let lines: Vec<&str> = jsonl.trim_end().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\":\"pa-batch/jsonl/v1\""));
        assert!(lines[0].contains("\"workers\":4"));
        assert!(lines[1].contains("\"seconds\":0.125"));
    }
}

//! The `pa-serve/wire/v1` protocol: one JSON object per line, one JSON
//! response line per request line.
//!
//! # Requests
//!
//! Every request is an object with an `"op"` field:
//!
//! * `{"op":"job", ...}` — stage one [`JobSpec`] into the connection's
//!   pending batch. Fields: `kind` (required, see below), `n` (required),
//!   `plan` (optional array of fault events), `plan_name` (required when
//!   `plan` is non-empty), `solver` (`"jacobi"` | `"scc"`), `eps`,
//!   `state_limit`.
//! * `{"op":"run", "workers":W?, "timeout_secs":T?}` — run the pending
//!   batch through the shared cache and clear it.
//! * `{"op":"stats"}` — service and cache lifetime statistics.
//! * `{"op":"ping"}` — liveness probe.
//! * `{"op":"drain"}` — finish in-flight work and shut the daemon down.
//!
//! # Job kinds
//!
//! `"kind"` mirrors [`JobKind`] minus closures: `{"arrow":I}`,
//! `"composed"`, `{"etime":{"from":SET,"to":SET,"bound":B}}`,
//! `"invariant"`, `{"lemma":I}`,
//! `{"reach":{"target":SET,"within":T,"claimed":P}}`,
//! `{"sampled":{"target":SET,"within":T,"claimed":P,"trajectories":K,"seed":S}}`,
//! and `{"custom":"name"}` — closures cannot cross the wire, so custom
//! jobs are resolved by name against the server's [`CustomRegistry`].
//! `SET` is a region-atom name or an array of them
//! ([`pa_core::SetExpr::union_of`]); an atom outside `T`, `C`, `RT`, `F`,
//! `G`, `P` rejects the line.
//!
//! # Fidelity
//!
//! [`spec_to_wire`] ∘ [`parse_request`] is the identity on every
//! encodable [`JobSpec`] (same key, same plan, same knobs — pinned by the
//! round-trip tests), which is what makes a socket-submitted batch digest
//! bitwise identical to a direct [`pa_batch::run_batch`] run.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use pa_batch::{CustomFn, JobKind, JobSpec, McSettings};
use pa_core::SetExpr;
use pa_faults::{FaultEvent, FaultKind, FaultPlan};
use pa_mdp::Solver;

use crate::json::Json;

/// Hard cap on one wire line, in bytes. Lines longer than this are
/// rejected with a structured error and skipped — the daemon never
/// buffers unbounded input.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A malformed request line: the per-line structured error the server
/// reports back (the line is skipped; the connection and any staged batch
/// survive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with the line.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> WireError {
        WireError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WireError {}

/// Named custom job bodies the server resolves `{"custom":"name"}`
/// requests against (closures cannot cross the wire).
#[derive(Default, Clone)]
pub struct CustomRegistry {
    map: HashMap<String, Arc<CustomFn>>,
}

impl CustomRegistry {
    /// An empty registry: every custom job is rejected by name.
    pub fn new() -> CustomRegistry {
        CustomRegistry::default()
    }

    /// Registers (or replaces) a named custom body.
    pub fn register(&mut self, name: impl Into<String>, run: Arc<CustomFn>) {
        self.map.insert(name.into(), run);
    }

    /// Looks a body up by name.
    pub fn get(&self, name: &str) -> Option<Arc<CustomFn>> {
        self.map.get(name).cloned()
    }

    /// The registered names, sorted (for error messages and stats).
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.map.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Number of registered bodies.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no bodies are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl std::fmt::Debug for CustomRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CustomRegistry")
            .field("names", &self.names())
            .finish()
    }
}

/// Knobs of one `{"op":"run"}` request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunOptions {
    /// Worker threads for this batch (`None` = the server default).
    pub workers: Option<usize>,
    /// Per-job cooperative timeout in seconds (`None` = server default).
    pub timeout_secs: Option<f64>,
}

/// One parsed request line.
pub enum Request {
    /// Stage a job into the pending batch.
    Job(Box<JobSpec>),
    /// Run the pending batch.
    Run(RunOptions),
    /// Report service and cache statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Graceful shutdown.
    Drain,
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Request::Job(spec) => write!(f, "Job({})", spec.key()),
            Request::Run(opts) => write!(f, "Run({opts:?})"),
            Request::Stats => write!(f, "Stats"),
            Request::Ping => write!(f, "Ping"),
            Request::Drain => write!(f, "Drain"),
        }
    }
}

/// Parses one wire line into a [`Request`].
///
/// # Errors
///
/// A [`WireError`] describing the first problem: oversized line,
/// malformed JSON, unknown op or kind, missing or ill-typed fields, an
/// invalid fault plan, or an unregistered custom name. Errors are
/// per-line — the caller reports them and keeps going.
pub fn parse_request(line: &str, registry: &CustomRegistry) -> Result<Request, WireError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(WireError::new(format!(
            "line exceeds {MAX_LINE_BYTES} bytes ({} read)",
            line.len()
        )));
    }
    let doc = Json::parse(line).map_err(|e| WireError::new(format!("malformed JSON: {e}")))?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new("missing string field \"op\""))?;
    match op {
        "job" => Ok(Request::Job(Box::new(spec_from_json(&doc, registry)?))),
        "run" => Ok(Request::Run(RunOptions {
            workers: match doc.get("workers") {
                None | Some(Json::Null) => None,
                Some(v) => Some(as_usize(v, "workers")?),
            },
            timeout_secs: match doc.get("timeout_secs") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_f64()
                        .filter(|t| t.is_finite() && *t > 0.0)
                        .ok_or_else(|| {
                            WireError::new("\"timeout_secs\" must be a positive number")
                        })?,
                ),
            },
        })),
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "drain" => Ok(Request::Drain),
        other => Err(WireError::new(format!(
            "unknown op {other:?} (expected job, run, stats, ping, or drain)"
        ))),
    }
}

fn as_usize(v: &Json, field: &str) -> Result<usize, WireError> {
    let x = v
        .as_f64()
        .ok_or_else(|| WireError::new(format!("\"{field}\" must be a number")))?;
    if x < 0.0 || x.fract() != 0.0 || x > (1u64 << 53) as f64 {
        return Err(WireError::new(format!(
            "\"{field}\" must be a non-negative integer (got {x})"
        )));
    }
    Ok(x as usize)
}

fn as_u64(v: &Json, field: &str) -> Result<u64, WireError> {
    Ok(as_usize(v, field)? as u64)
}

fn as_u32(v: &Json, field: &str) -> Result<u32, WireError> {
    u32::try_from(as_usize(v, field)?)
        .map_err(|_| WireError::new(format!("\"{field}\" exceeds u32")))
}

fn as_finite_f64(v: &Json, field: &str) -> Result<f64, WireError> {
    v.as_f64()
        .filter(|x| x.is_finite())
        .ok_or_else(|| WireError::new(format!("\"{field}\" must be a finite number")))
}

/// A region set: one atom name or an array of them, each a known region
/// atom ([`pa_faults::region_pred_under`]), so a misspelt atom is a bad
/// line rather than a queued job that fails in the batch.
fn set_expr(v: &Json, field: &str) -> Result<SetExpr, WireError> {
    let atom = |name: &str| {
        pa_faults::region_pred_under(name)
            .map(|_| name.to_string())
            .map_err(|_| {
                WireError::new(format!("unknown region atom {name:?} in field \"{field}\""))
            })
    };
    match v {
        Json::String(name) => Ok(SetExpr::named(atom(name)?)),
        Json::Array(items) => {
            let mut names = Vec::with_capacity(items.len());
            for item in items {
                let name = item
                    .as_str()
                    .ok_or_else(|| WireError::new(format!("\"{field}\" atoms must be strings")))?;
                names.push(atom(name)?);
            }
            if names.is_empty() {
                return Err(WireError::new(format!("\"{field}\" must not be empty")));
            }
            Ok(SetExpr::union_of(names))
        }
        _ => Err(WireError::new(format!(
            "\"{field}\" must be an atom name or an array of atom names"
        ))),
    }
}

fn req<'j>(doc: &'j Json, field: &str) -> Result<&'j Json, WireError> {
    doc.get(field)
        .ok_or_else(|| WireError::new(format!("missing field \"{field}\"")))
}

fn kind_from_json(v: &Json, registry: &CustomRegistry) -> Result<JobKind, WireError> {
    match v {
        Json::String(s) if s == "composed" => Ok(JobKind::ComposedArrow),
        Json::String(s) if s == "invariant" => Ok(JobKind::Invariant),
        Json::String(s) => Err(WireError::new(format!(
            "unknown job kind {s:?} (expected \"composed\", \"invariant\", or an object)"
        ))),
        Json::Object(fields) if fields.len() == 1 => {
            let (tag, body) = &fields[0];
            match tag.as_str() {
                "arrow" => Ok(JobKind::Arrow {
                    index: as_usize(body, "arrow")?,
                }),
                "lemma" => Ok(JobKind::Lemma {
                    index: as_usize(body, "lemma")?,
                }),
                "etime" => Ok(JobKind::ExpectedTime {
                    from: set_expr(req(body, "from")?, "from")?,
                    to: set_expr(req(body, "to")?, "to")?,
                    bound: as_finite_f64(req(body, "bound")?, "bound")?,
                }),
                "reach" => Ok(JobKind::Reach {
                    target: set_expr(req(body, "target")?, "target")?,
                    within: as_u32(req(body, "within")?, "within")?,
                    claimed: as_finite_f64(req(body, "claimed")?, "claimed")?,
                }),
                "sampled" => Ok(JobKind::Sampled {
                    target: set_expr(req(body, "target")?, "target")?,
                    within: as_u32(req(body, "within")?, "within")?,
                    claimed: as_finite_f64(req(body, "claimed")?, "claimed")?,
                    mc: McSettings {
                        trajectories: as_u64(req(body, "trajectories")?, "trajectories")?,
                        seed: as_u64(req(body, "seed")?, "seed")?,
                    },
                }),
                "custom" => {
                    let name = body
                        .as_str()
                        .ok_or_else(|| WireError::new("\"custom\" must be a name string"))?;
                    let run = registry.get(name).ok_or_else(|| {
                        WireError::new(format!(
                            "unknown custom job {name:?} (registered: {:?})",
                            registry.names()
                        ))
                    })?;
                    Ok(JobKind::Custom {
                        name: name.to_string(),
                        run,
                    })
                }
                other => Err(WireError::new(format!("unknown job kind {other:?}"))),
            }
        }
        _ => Err(WireError::new(
            "\"kind\" must be a string or a single-key object",
        )),
    }
}

fn fault_kind_from_json(v: &Json) -> Result<FaultKind, WireError> {
    match v {
        Json::String(s) if s == "crash-stop" => Ok(FaultKind::CrashStop),
        Json::String(s) if s == "drop-obligation" => Ok(FaultKind::DropObligation),
        Json::Object(fields) if fields.len() == 1 && fields[0].0 == "crash-restart" => {
            Ok(FaultKind::CrashRestart {
                downtime: as_u32(req(&fields[0].1, "downtime")?, "downtime")?,
            })
        }
        _ => Err(WireError::new(
            "fault \"kind\" must be \"crash-stop\", \"drop-obligation\", \
             or {\"crash-restart\":{\"downtime\":D}}",
        )),
    }
}

fn plan_from_json(v: &Json) -> Result<FaultPlan, WireError> {
    let items = v
        .as_array()
        .ok_or_else(|| WireError::new("\"plan\" must be an array of fault events"))?;
    let mut events = Vec::with_capacity(items.len());
    for item in items {
        events.push(FaultEvent {
            round: as_u32(req(item, "round")?, "round")?,
            process: as_usize(req(item, "process")?, "process")?,
            kind: fault_kind_from_json(req(item, "kind")?)?,
        });
    }
    FaultPlan::new(events).map_err(|e| WireError::new(format!("invalid fault plan: {e}")))
}

/// Builds the [`JobSpec`] of one `{"op":"job"}` line.
fn spec_from_json(doc: &Json, registry: &CustomRegistry) -> Result<JobSpec, WireError> {
    let kind = kind_from_json(req(doc, "kind")?, registry)?;
    let n = as_usize(req(doc, "n")?, "n")?;
    let mut spec = JobSpec::new(n, kind);
    match doc.get("plan") {
        None | Some(Json::Null) => {}
        Some(v) => {
            let plan = plan_from_json(v)?;
            if !plan.is_empty() {
                let name = doc.get("plan_name").and_then(Json::as_str).ok_or_else(|| {
                    WireError::new("\"plan_name\" is required with a non-empty plan")
                })?;
                spec = spec.with_plan(name, plan);
            }
        }
    }
    match doc.get("solver").and_then(Json::as_str) {
        None => {}
        Some("jacobi") => spec = spec.with_solver(Solver::Jacobi),
        Some("scc") => spec = spec.with_solver(Solver::SccOrdered),
        Some(other) => {
            return Err(WireError::new(format!(
                "unknown solver {other:?} (expected \"jacobi\" or \"scc\")"
            )))
        }
    }
    if let Some(v) = doc.get("eps") {
        spec = spec.with_epsilon(as_finite_f64(v, "eps")?);
    }
    if let Some(v) = doc.get("state_limit") {
        let limit = as_usize(v, "state_limit")?;
        if limit == 0 {
            return Err(WireError::new("\"state_limit\" must be positive"));
        }
        spec = spec.with_state_limit(limit);
    }
    Ok(spec)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn set_to_wire(set: &SetExpr) -> String {
    let atoms: Vec<String> = set.atoms().map(escape).collect();
    format!("[{}]", atoms.join(","))
}

fn kind_to_wire(kind: &JobKind) -> Result<String, WireError> {
    Ok(match kind {
        JobKind::Arrow { index } => format!("{{\"arrow\":{index}}}"),
        JobKind::ComposedArrow => "\"composed\"".to_string(),
        JobKind::ExpectedTime { from, to, bound } => format!(
            "{{\"etime\":{{\"from\":{},\"to\":{},\"bound\":{bound}}}}}",
            set_to_wire(from),
            set_to_wire(to),
        ),
        JobKind::Invariant => "\"invariant\"".to_string(),
        JobKind::Lemma { index } => format!("{{\"lemma\":{index}}}"),
        JobKind::Reach {
            target,
            within,
            claimed,
        } => format!(
            "{{\"reach\":{{\"target\":{},\"within\":{within},\"claimed\":{claimed}}}}}",
            set_to_wire(target),
        ),
        JobKind::Sampled {
            target,
            within,
            claimed,
            mc,
        } => format!(
            "{{\"sampled\":{{\"target\":{},\"within\":{within},\"claimed\":{claimed},\
             \"trajectories\":{},\"seed\":{}}}}}",
            set_to_wire(target),
            mc.trajectories,
            mc.seed,
        ),
        JobKind::Custom { name, .. } => format!("{{\"custom\":{}}}", escape(name)),
    })
}

fn fault_kind_to_wire(kind: &FaultKind) -> String {
    match kind {
        FaultKind::CrashStop => "\"crash-stop\"".to_string(),
        FaultKind::CrashRestart { downtime } => {
            format!("{{\"crash-restart\":{{\"downtime\":{downtime}}}}}")
        }
        FaultKind::DropObligation => "\"drop-obligation\"".to_string(),
    }
}

/// Encodes a [`JobSpec`] as one `{"op":"job"}` wire line (no trailing
/// newline). The inverse of [`parse_request`] on the job subset — see the
/// module docs on fidelity.
///
/// # Errors
///
/// Sampled jobs whose `trajectories` or `seed` exceed 2^53 cannot cross
/// the f64-typed wire losslessly and are rejected.
pub fn spec_to_wire(spec: &JobSpec) -> Result<String, WireError> {
    if let JobKind::Sampled { mc, .. } = &spec.kind {
        if mc.trajectories > (1 << 53) || mc.seed > (1 << 53) {
            return Err(WireError::new(
                "sampled trajectories/seed beyond 2^53 are not wire-representable",
            ));
        }
    }
    let events: Vec<String> = spec
        .plan
        .events()
        .iter()
        .map(|e| {
            format!(
                "{{\"round\":{},\"process\":{},\"kind\":{}}}",
                e.round,
                e.process,
                fault_kind_to_wire(&e.kind)
            )
        })
        .collect();
    let solver = match spec.solver {
        Solver::Jacobi => "jacobi",
        Solver::SccOrdered => "scc",
    };
    Ok(format!(
        "{{\"op\":\"job\",\"kind\":{},\"n\":{},\"plan\":[{}],\"plan_name\":{},\
         \"solver\":\"{solver}\",\"eps\":{:e},\"state_limit\":{}}}",
        kind_to_wire(&spec.kind)?,
        spec.n,
        events.join(","),
        escape(&spec.plan_name),
        spec.epsilon,
        spec.state_limit,
    ))
}

/// `{"ok":false,...}` — the structured per-line rejection. `reason` is a
/// stable machine-readable tag (`bad-line`, `backpressure`, `draining`,
/// `empty-batch`, `batch-error`, `admission`); `error` is for humans.
pub fn error_line(reason: &str, message: &str) -> String {
    format!(
        "{{\"ok\":false,\"reason\":{},\"error\":{}}}",
        escape(reason),
        escape(message)
    )
}

/// Escapes a string as a JSON literal (exposed for response builders).
pub fn json_string(s: &str) -> String {
    escape(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> CustomRegistry {
        let mut r = CustomRegistry::new();
        r.register(
            "probe",
            Arc::new(|_ctx: &pa_batch::JobCtx<'_>| {
                Ok(pa_batch::JobValue::Tallies {
                    holds: 1,
                    violated: 0,
                    info: 0,
                })
            }),
        );
        r
    }

    fn round_trip(spec: &JobSpec) -> JobSpec {
        let line = spec_to_wire(spec).unwrap();
        match parse_request(&line, &registry()).unwrap() {
            Request::Job(parsed) => *parsed,
            other => panic!("expected a job, got {other:?}"),
        }
    }

    #[test]
    fn every_kind_round_trips_with_identical_keys() {
        let specs = vec![
            JobSpec::new(3, JobKind::Arrow { index: 2 }),
            JobSpec::new(4, JobKind::ComposedArrow).with_solver(Solver::SccOrdered),
            JobSpec::new(3, JobKind::Invariant).with_epsilon(1e-7),
            JobSpec::new(3, JobKind::Lemma { index: 5 }).with_state_limit(123_456),
            JobSpec::new(
                3,
                JobKind::ExpectedTime {
                    from: SetExpr::named("RT"),
                    to: SetExpr::union_of(["C", "P"]),
                    bound: 60.25,
                },
            ),
            JobSpec::new(
                5,
                JobKind::Reach {
                    target: SetExpr::named("C"),
                    within: 24,
                    claimed: 0.125,
                },
            )
            .with_plan(
                "crash@2",
                FaultPlan::single(2, 0, FaultKind::CrashStop).unwrap(),
            ),
            JobSpec::new(
                7,
                JobKind::Sampled {
                    target: SetExpr::named("C"),
                    within: 24,
                    claimed: 0.125,
                    mc: McSettings {
                        trajectories: 20_000,
                        seed: 0xC0FFEE,
                    },
                },
            )
            .with_plan(
                "restart",
                FaultPlan::single(3, 1, FaultKind::CrashRestart { downtime: 2 }).unwrap(),
            ),
            JobSpec::new(
                3,
                JobKind::Custom {
                    name: "probe".into(),
                    run: registry().get("probe").unwrap(),
                },
            ),
        ];
        for spec in &specs {
            let back = round_trip(spec);
            assert_eq!(back.key(), spec.key());
            assert_eq!(back.plan, spec.plan);
            assert_eq!(back.state_limit, spec.state_limit);
            assert_eq!(back.epsilon.to_bits(), spec.epsilon.to_bits());
        }
    }

    #[test]
    fn ops_parse() {
        let r = registry();
        assert!(matches!(
            parse_request("{\"op\":\"ping\"}", &r).unwrap(),
            Request::Ping
        ));
        assert!(matches!(
            parse_request("{\"op\":\"stats\"}", &r).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_request("{\"op\":\"drain\"}", &r).unwrap(),
            Request::Drain
        ));
        match parse_request("{\"op\":\"run\",\"workers\":4,\"timeout_secs\":2.5}", &r).unwrap() {
            Request::Run(opts) => {
                assert_eq!(opts.workers, Some(4));
                assert_eq!(opts.timeout_secs, Some(2.5));
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_structured_errors() {
        let r = registry();
        let cases = [
            ("", "malformed JSON"),
            ("{\"op\":", "malformed JSON"),
            ("[1,2,3]", "missing string field \"op\""),
            ("{\"op\":\"frobnicate\"}", "unknown op"),
            ("{\"op\":\"job\",\"n\":3}", "missing field \"kind\""),
            (
                "{\"op\":\"job\",\"kind\":{\"arrow\":0}}",
                "missing field \"n\"",
            ),
            (
                "{\"op\":\"job\",\"kind\":{\"warp\":1},\"n\":3}",
                "unknown job kind",
            ),
            (
                "{\"op\":\"job\",\"kind\":{\"arrow\":-1},\"n\":3}",
                "non-negative integer",
            ),
            (
                "{\"op\":\"job\",\"kind\":{\"custom\":\"nope\"},\"n\":3}",
                "unknown custom job",
            ),
            (
                "{\"op\":\"job\",\"kind\":{\"etime\":{\"from\":\"NOPE\",\"to\":\"C\",\"bound\":63}},\"n\":3}",
                "unknown region atom \"NOPE\" in field \"from\"",
            ),
            (
                "{\"op\":\"job\",\"kind\":{\"reach\":{\"target\":[\"C\",\"X\"],\"within\":2,\"claimed\":0.5}},\"n\":3}",
                "unknown region atom \"X\" in field \"target\"",
            ),
            (
                "{\"op\":\"job\",\"kind\":{\"arrow\":0},\"n\":3,\"solver\":\"gauss\"}",
                "unknown solver",
            ),
            (
                "{\"op\":\"job\",\"kind\":{\"arrow\":0},\"n\":3,\
                 \"plan\":[{\"round\":0,\"process\":0,\"kind\":\"crash-stop\"}]}",
                "invalid fault plan",
            ),
            (
                "{\"op\":\"job\",\"kind\":{\"arrow\":0},\"n\":3,\
                 \"plan\":[{\"round\":2,\"process\":0,\"kind\":\"crash-stop\"}]}",
                "\"plan_name\" is required",
            ),
        ];
        for (line, needle) in cases {
            let err = parse_request(line, &r).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{line:?}: expected {needle:?} in {:?}",
                err.message
            );
        }
    }

    #[test]
    fn overlong_lines_are_rejected() {
        let r = registry();
        let long = format!(
            "{{\"op\":\"ping\",\"pad\":\"{}\"}}",
            "x".repeat(MAX_LINE_BYTES)
        );
        let err = parse_request(&long, &r).unwrap_err();
        assert!(err.message.contains("exceeds"));
    }

    #[test]
    fn error_lines_escape_their_payload() {
        let line = error_line("bad-line", "quote \" and\nnewline");
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("reason").unwrap().as_str(), Some("bad-line"));
        assert_eq!(
            doc.get("error").unwrap().as_str(),
            Some("quote \" and\nnewline")
        );
    }
}

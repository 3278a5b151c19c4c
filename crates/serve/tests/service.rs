//! The service's headline contracts, end to end over real unix sockets:
//! socket-submitted batches digest bitwise identically to direct
//! [`pa_batch::run_batch`] runs across worker counts and cache budgets
//! (including budgets that force evictions), warm-cache repeats change
//! nothing, reports persist as parseable JSONL, malformed input never
//! takes the daemon down, and admission control refuses over-cap
//! connections.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;

use pa_batch::{run_batch, BatchOptions, JobKind, JobSpec, McSettings};
use pa_core::SetExpr;
use pa_serve::json::Json;
use pa_serve::{spec_to_wire, CustomRegistry, ServeConfig, Server};

/// A mixed job set spanning two ring sizes (two distinct cached models,
/// so a tiny budget is forced to evict) and most job kinds.
fn specs() -> Vec<JobSpec> {
    let mut specs: Vec<JobSpec> = (0..3)
        .map(|index| JobSpec::new(3, JobKind::Arrow { index }))
        .collect();
    specs.push(JobSpec::new(4, JobKind::Arrow { index: 0 }));
    specs.push(JobSpec::new(3, JobKind::ComposedArrow));
    specs.push(JobSpec::new(3, JobKind::Invariant));
    specs.push(JobSpec::new(3, JobKind::Lemma { index: 0 }));
    specs.push(JobSpec::new(
        3,
        JobKind::Reach {
            target: SetExpr::named("C"),
            within: 13,
            claimed: 0.125,
        },
    ));
    specs.push(JobSpec::new(
        3,
        JobKind::Sampled {
            target: SetExpr::named("C"),
            within: 13,
            claimed: 0.125,
            mc: McSettings {
                trajectories: 500,
                seed: 42,
            },
        },
    ));
    specs
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pa-serve-test-{}-{tag}.sock", std::process::id()))
}

/// One line-protocol client over a unix socket.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(path: &PathBuf) -> Client {
        // The daemon thread may still be binding; retry briefly.
        for _ in 0..500 {
            if let Ok(stream) = UnixStream::connect(path) {
                let reader = BufReader::new(stream.try_clone().unwrap());
                return Client {
                    reader,
                    writer: stream,
                };
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        panic!("could not connect to {}", path.display());
    }

    fn send(&mut self, line: &str) -> Json {
        writeln!(self.writer, "{line}").unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        Json::parse(response.trim_end()).unwrap_or_else(|e| {
            panic!("unparseable response {response:?}: {e}");
        })
    }

    /// Stages every spec and runs the batch; returns the report digest.
    fn run_batch_over_wire(&mut self, specs: &[JobSpec], workers: usize) -> String {
        for spec in specs {
            let ack = self.send(&spec_to_wire(spec).unwrap());
            assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true), "{ack:?}");
        }
        let done = self.send(&format!("{{\"op\":\"run\",\"workers\":{workers}}}"));
        assert_eq!(
            done.get("ok").and_then(Json::as_bool),
            Some(true),
            "{done:?}"
        );
        done.get("digest").unwrap().as_str().unwrap().to_string()
    }

    fn drain(&mut self) {
        let bye = self.send("{\"op\":\"drain\"}");
        assert_eq!(bye.get("draining").and_then(Json::as_bool), Some(true));
    }
}

#[test]
fn socket_digests_match_direct_run_batch_across_workers_and_budgets() {
    let specs = specs();
    let direct = run_batch(&specs, &BatchOptions::with_workers(1)).unwrap();
    assert_eq!(direct.tally().failed, 0, "{}", direct.canonical_json());
    let expected = direct.digest();

    // Budget 1 byte: every displacement evicts, so the second model (and
    // the warm repeat) exercise tombstone rebuilds mid-stream.
    for (budget, workers) in [(None, 1), (None, 3), (Some(1), 1), (Some(1), 3)] {
        let config = ServeConfig {
            cache_budget: budget,
            ..ServeConfig::default()
        };
        let server = Arc::new(Server::new(config, CustomRegistry::new()).unwrap());
        let path = socket_path(&format!("digest-{workers}-{}", budget.is_some()));
        let daemon = {
            let server = Arc::clone(&server);
            let path = path.clone();
            std::thread::spawn(move || server.serve_unix(&path))
        };

        let mut client = Client::connect(&path);
        let cold = client.run_batch_over_wire(&specs, workers);
        let warm = client.run_batch_over_wire(&specs, workers);
        assert_eq!(
            cold, expected,
            "cold socket digest diverged (budget={budget:?}, workers={workers})"
        );
        assert_eq!(
            warm, expected,
            "warm socket digest diverged (budget={budget:?}, workers={workers})"
        );
        client.drain();
        daemon.join().unwrap().unwrap();

        if budget.is_some() {
            assert!(
                server.cache().evictions() > 0,
                "a 1-byte budget must evict (got {})",
                server.cache().evictions()
            );
            assert!(
                server.cache().rebuilds() > 0,
                "warm repeat rebuilds evicted models"
            );
        } else {
            assert_eq!(server.cache().evictions(), 0);
        }
        assert_eq!(server.batches_run(), 2);
        assert!(!path.exists(), "socket file removed on shutdown");
    }
}

#[test]
fn malformed_lines_never_take_the_daemon_down() {
    let server = Arc::new(Server::new(ServeConfig::default(), CustomRegistry::new()).unwrap());
    let path = socket_path("malformed");
    let daemon = {
        let server = Arc::clone(&server);
        let path = path.clone();
        std::thread::spawn(move || server.serve_unix(&path))
    };

    let mut client = Client::connect(&path);
    let garbage = [
        "not json at all",
        "{\"op\":",
        "[1,2,3]",
        "{\"op\":\"frobnicate\"}",
        "{\"op\":\"job\",\"n\":3}",
        "{\"op\":\"job\",\"kind\":{\"warp\":1},\"n\":3}",
        "{\"op\":\"job\",\"kind\":{\"custom\":\"nope\"},\"n\":3}",
        "{\"op\":\"job\",\"kind\":{\"arrow\":0},\"n\":3,\"solver\":\"gauss\"}",
        "{\"op\":\"run\",\"workers\":-2}",
    ];
    for line in garbage {
        let response = client.send(line);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "{line:?} -> {response:?}"
        );
        assert_eq!(
            response.get("reason").and_then(Json::as_str),
            Some("bad-line"),
            "{line:?} -> {response:?}"
        );
    }
    // An oversized line is skipped without desyncing the stream.
    let oversized = format!(
        "{{\"op\":\"ping\",\"pad\":\"{}\"}}",
        "x".repeat(pa_serve::MAX_LINE_BYTES)
    );
    let response = client.send(&oversized);
    assert_eq!(
        response.get("reason").and_then(Json::as_str),
        Some("bad-line")
    );

    // The daemon still does real work afterwards.
    let batch = vec![JobSpec::new(3, JobKind::Arrow { index: 0 })];
    let digest = client.run_batch_over_wire(&batch, 1);
    let direct = run_batch(&batch, &BatchOptions::with_workers(1)).unwrap();
    assert_eq!(digest, direct.digest());
    assert_eq!(server.lines_rejected(), garbage.len() as u64 + 1);
    client.drain();
    daemon.join().unwrap().unwrap();
}

#[test]
fn reports_persist_as_appendable_jsonl() {
    let report_path = std::env::temp_dir().join(format!(
        "pa-serve-test-{}-reports.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&report_path);
    let config = ServeConfig {
        report_path: Some(report_path.clone()),
        ..ServeConfig::default()
    };
    let server = Server::new(config, CustomRegistry::new()).unwrap();

    let batch = vec![
        JobSpec::new(3, JobKind::Arrow { index: 0 }),
        JobSpec::new(3, JobKind::Arrow { index: 1 }),
    ];
    let mut input = String::new();
    for spec in &batch {
        input.push_str(&spec_to_wire(spec).unwrap());
        input.push('\n');
    }
    input.push_str("{\"op\":\"run\"}\n");
    let input = input.repeat(2);
    let mut out = Vec::new();
    server
        .handle_stream(std::io::Cursor::new(input.into_bytes()), &mut out)
        .unwrap();
    let responses = String::from_utf8(out).unwrap();
    let run_digests: Vec<String> = responses
        .lines()
        .filter_map(|line| {
            let doc = Json::parse(line).unwrap();
            doc.get("digest").and_then(Json::as_str).map(str::to_string)
        })
        .collect();
    assert_eq!(run_digests.len(), 2);
    assert!(responses.contains("\"persisted\":true"));

    let persisted = std::fs::read_to_string(&report_path).unwrap();
    let lines: Vec<&str> = persisted.lines().collect();
    assert_eq!(lines.len(), 2, "one JSONL line per batch");
    let direct = run_batch(&batch, &BatchOptions::with_workers(1)).unwrap();
    for (line, digest) in lines.iter().zip(&run_digests) {
        let doc = Json::parse(line).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("pa-serve/report/v1")
        );
        assert_eq!(
            doc.get("digest").and_then(Json::as_str),
            Some(digest.as_str())
        );
        assert_eq!(
            doc.path(&["canonical", "schema"]).and_then(Json::as_str),
            Some("pa-batch/canonical/v1")
        );
        assert_eq!(
            digest,
            &direct.digest(),
            "persisted batch digests match direct"
        );
    }
    let _ = std::fs::remove_file(&report_path);
}

#[test]
fn admission_refuses_connections_over_the_cap() {
    let config = ServeConfig {
        max_connections: 1,
        ..ServeConfig::default()
    };
    let server = Arc::new(Server::new(config, CustomRegistry::new()).unwrap());
    let path = socket_path("admission");
    let daemon = {
        let server = Arc::clone(&server);
        let path = path.clone();
        std::thread::spawn(move || server.serve_unix(&path))
    };

    let mut first = Client::connect(&path);
    // A served response proves the accept loop admitted this connection.
    let pong = first.send("{\"op\":\"ping\"}");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    let second = UnixStream::connect(&path).unwrap();
    let mut refusal = String::new();
    BufReader::new(&second).read_line(&mut refusal).unwrap();
    let doc = Json::parse(refusal.trim_end()).unwrap();
    assert_eq!(doc.get("reason").and_then(Json::as_str), Some("admission"));
    drop(second);

    assert_eq!(server.connections_rejected(), 1);
    assert_eq!(server.connections_accepted(), 1);
    first.drain();
    daemon.join().unwrap().unwrap();
}

/// A job whose plan strikes at round 4200 — past the 12 round bits of
/// word 1 of a packed state — is answered over the wire, not failed.
#[test]
fn a_late_plan_job_is_answered() {
    let server = Arc::new(Server::new(ServeConfig::default(), CustomRegistry::new()).unwrap());
    let path = socket_path("late-plan");
    let daemon = {
        let server = Arc::clone(&server);
        let path = path.clone();
        std::thread::spawn(move || server.serve_unix(&path))
    };

    let mut client = Client::connect(&path);
    let ack = client.send(
        "{\"op\":\"job\",\"kind\":{\"arrow\":0},\"n\":2,\"plan_name\":\"crash-restart r4200 p0 d2\",\
         \"plan\":[{\"round\":4200,\"process\":0,\"kind\":{\"crash-restart\":{\"downtime\":2}}}]}",
    );
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true), "{ack:?}");
    let done = client.send("{\"op\":\"run\",\"workers\":1}");
    assert_eq!(
        done.get("ok").and_then(Json::as_bool),
        Some(true),
        "{done:?}"
    );
    assert_eq!(
        done.get("done").and_then(Json::as_f64),
        Some(1.0),
        "{done:?}"
    );
    assert_eq!(
        done.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{done:?}"
    );
    client.drain();
    daemon.join().unwrap().unwrap();
}

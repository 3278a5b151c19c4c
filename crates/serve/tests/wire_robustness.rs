//! Arbitrary input lines never hurt the service: each malformed line gets
//! exactly one structured `bad-line` error, and a small `n = 3` batch
//! submitted around them digests exactly like the same jobs run directly.

use std::sync::OnceLock;

use pa_batch::{run_batch, BatchOptions, JobKind, JobSpec};
use pa_serve::json::Json;
use pa_serve::{spec_to_wire, CustomRegistry, ServeConfig, Server, MAX_LINE_BYTES};
use proptest::prelude::*;

fn batch() -> Vec<JobSpec> {
    vec![
        JobSpec::new(3, JobKind::Arrow { index: 0 }),
        JobSpec::new(3, JobKind::Arrow { index: 3 }),
        JobSpec::new(3, JobKind::ComposedArrow),
    ]
}

/// The digest of [`batch`] run directly, computed once.
fn direct_digest() -> &'static str {
    static DIGEST: OnceLock<String> = OnceLock::new();
    DIGEST.get_or_init(|| {
        run_batch(&batch(), &BatchOptions::with_workers(1))
            .unwrap()
            .digest()
    })
}

/// Well-formed request lines; their strict prefixes and suffixes, and the
/// lines with a character appended, are never valid requests.
fn valid_lines() -> Vec<String> {
    let mut lines: Vec<String> = batch().iter().map(|s| spec_to_wire(s).unwrap()).collect();
    lines.extend(
        [
            "{\"op\":\"run\",\"workers\":1}",
            "{\"op\":\"ping\"}",
            "{\"op\":\"stats\"}",
            "{\"op\":\"drain\"}",
        ]
        .map(String::from),
    );
    lines
}

/// Well-formed JSON that is not a valid request.
const CORPUS: &[&str] = &[
    "[1,2,3]",
    "{\"op\":\"frobnicate\"}",
    "{\"op\":\"job\",\"n\":3}",
    "{\"op\":\"job\",\"kind\":{\"arrow\":0}}",
    "{\"op\":\"job\",\"kind\":{\"warp\":1},\"n\":3}",
    "{\"op\":\"job\",\"kind\":{\"arrow\":-1},\"n\":3}",
    "{\"op\":\"job\",\"kind\":{\"custom\":\"nope\"},\"n\":3}",
    "{\"op\":\"job\",\"kind\":{\"arrow\":0},\"n\":3,\"solver\":\"gauss\"}",
    "{\"op\":\"job\",\"kind\":{\"arrow\":0},\"n\":3,\
     \"plan\":[{\"round\":0,\"process\":0,\"kind\":\"crash-stop\"}]}",
    "{\"op\":\"job\",\"kind\":{\"arrow\":0},\"n\":3,\
     \"plan\":[{\"round\":2,\"process\":0,\"kind\":\"crash-stop\"}]}",
    "{\"op\":\"run\",\"workers\":\"four\"}",
    "{\"op\":\"job\",\"kind\":{\"etime\":{\"from\":\"NOPE\",\"to\":\"C\",\"bound\":63}},\"n\":3}",
];

/// One line (no newline, never blank) the server must reject.
fn bad_line() -> impl Strategy<Value = Vec<u8>> {
    let fragment = |line: &String, cut: u64| {
        let cut = 1 + (cut % (line.len() as u64 - 1)) as usize;
        let (head, tail) = line.as_bytes().split_at(cut);
        (head.to_vec(), tail.to_vec())
    };
    prop_oneof![
        // Arbitrary bytes led by printable ASCII that cannot open an
        // object, so the line is neither blank nor a request.
        (
            prop::sample::select((b'!'..=b'~').filter(|&b| b != b'{').collect()),
            prop::collection::vec(any::<u8>(), 0..48),
        )
            .prop_map(|(lead, rest)| {
                let mut line = vec![lead];
                line.extend(rest.into_iter().filter(|&b| b != b'\n'));
                line
            }),
        (prop::sample::select(valid_lines()), any::<u64>())
            .prop_map(move |(line, cut)| fragment(&line, cut).0),
        (prop::sample::select(valid_lines()), any::<u64>())
            .prop_map(move |(line, cut)| fragment(&line, cut).1),
        (
            prop::sample::select(valid_lines()),
            prop::sample::select(vec!['x', '}', ',', '0', '"']),
        )
            .prop_map(|(line, extra)| format!("{line}{extra}").into_bytes()),
        prop::sample::select(CORPUS.to_vec()).prop_map(|line| line.as_bytes().to_vec()),
        any::<u8>().prop_map(|fill| {
            let mut line = b"{\"op\":\"ping\",\"pad\":\"".to_vec();
            line.resize(MAX_LINE_BYTES + 1 + usize::from(fill), b'x');
            line
        }),
    ]
}

proptest! {
    #[test]
    fn malformed_lines_get_one_error_each_and_leave_the_batch_alone(
        bad in prop::collection::vec(bad_line(), 0..10),
        slots in prop::collection::vec(0usize..4, 10),
    ) {
        // Interleave the bad lines with the job lines; `true` marks a
        // bad line, so the expected response sequence is known.
        let jobs = batch();
        let mut input = Vec::new();
        let mut kinds = Vec::new();
        for (slot, spec) in jobs.iter().enumerate() {
            for (line, _) in bad.iter().zip(&slots).filter(|(_, s)| **s == slot) {
                input.extend_from_slice(line);
                input.push(b'\n');
                kinds.push(true);
            }
            input.extend_from_slice(spec_to_wire(spec).unwrap().as_bytes());
            input.push(b'\n');
            kinds.push(false);
        }
        for (line, _) in bad.iter().zip(&slots).filter(|(_, s)| **s == jobs.len()) {
            input.extend_from_slice(line);
            input.push(b'\n');
            kinds.push(true);
        }
        input.extend_from_slice(b"{\"op\":\"run\",\"workers\":2}\n");

        let server = Server::new(ServeConfig::default(), CustomRegistry::new()).unwrap();
        let mut output = Vec::new();
        let drained = server
            .handle_stream(std::io::Cursor::new(input), &mut output)
            .unwrap();
        prop_assert!(!drained);

        let output = String::from_utf8(output).unwrap();
        let responses: Vec<Json> = output.lines().map(|l| Json::parse(l).unwrap()).collect();
        prop_assert_eq!(responses.len(), kinds.len() + 1, "one response per line");
        for (response, is_bad) in responses.iter().zip(&kinds) {
            let ok = response.get("ok").and_then(Json::as_bool);
            if *is_bad {
                prop_assert_eq!(ok, Some(false), "{:?}", response);
                prop_assert_eq!(response.get("reason").and_then(Json::as_str), Some("bad-line"));
                prop_assert!(response.get("error").and_then(Json::as_str).is_some());
            } else {
                prop_assert_eq!(ok, Some(true), "{:?}", response);
            }
        }
        let run = responses.last().unwrap();
        prop_assert_eq!(run.get("digest").and_then(Json::as_str), Some(direct_digest()));
        prop_assert_eq!(server.lines_rejected(), bad.len() as u64);
        prop_assert_eq!(server.jobs_accepted(), jobs.len() as u64);
    }
}

//! Protocol round-trip properties: arbitrary client frames (submit with
//! priorities, status/result/watch/cancel) and checkpoint payloads
//! survive `rvz_bench::json` encode → decode
//! unchanged, and truncated or garbage frames yield clean errors — never
//! panics, never a stalled reactor.

use revizor::orchestrator::{CellProgress, GroupProgress, MatrixCheckpoint};
use revizor::diversity::PatternCoverage;
use revizor::EffectivenessStats;
use rvz_bench::json::{parse, Json};
use rvz_bench::report::{matrix_checkpoint_from_json, matrix_checkpoint_to_json};
use rvz_service::{Client, JobSpec, ServiceConfig, ServiceHandle};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// An arbitrary job id-ish string (including empty and non-ASCII).
fn job_string(bits: u64) -> String {
    const POOL: [&str; 6] = ["", "j1-2", "jdead-beef", "…uni≠code…", "j\u{10348}x", "-"];
    POOL[(bits % POOL.len() as u64) as usize].to_string()
}

/// Build an arbitrary-but-valid-shape JobSpec from raw bits.
fn spec_from(seed: u64, priority: i64, knobs: u64, cells: &[(u8, u64)]) -> JobSpec {
    let mut spec = JobSpec::new(seed).with_priority(priority);
    spec.budget = (knobs & 0xFFFF) as usize;
    spec.round_size = ((knobs >> 16) & 0xFF) as usize;
    spec.parallelism = ((knobs >> 24) & 0x7) as usize;
    spec.inputs_per_test_case = ((knobs >> 27) & 0x3F) as usize;
    spec.repetitions = ((knobs >> 33) & 0xF) as usize;
    spec.basic_blocks = ((knobs >> 37) & 0xF) as usize;
    spec.instructions = ((knobs >> 41) & 0x3F) as usize;
    spec.branch_then_load_bias = knobs & (1 << 47) != 0;
    spec.escalation = knobs & (1 << 48) != 0;
    const CONTRACTS: [&str; 5] = ["CT-SEQ", "CT-BPAS", "CT-COND", "ARCH-SEQ", "NOT-A-CONTRACT"];
    for (target, pick) in cells {
        // Codec round-trips do not require resolvable targets/contracts —
        // resolution happens later, at `to_matrix`.
        spec = spec.add_cell(*target, CONTRACTS[(pick % 5) as usize]);
    }
    spec
}

/// A synthetic checkpoint exercising the transfer codec's full shape
/// (violation-carrying cells are covered by the real-run round-trip tests
/// in `rvz_bench::report`).
fn checkpoint_from(scalars: [u64; 4], groups: &[(u8, u64)], cells: &[u64]) -> MatrixCheckpoint {
    MatrixCheckpoint {
        wave: (scalars[0] % 1000) as usize,
        seed: scalars[1],
        budget: (scalars[2] & 0xFFFF) as usize,
        round_size: (scalars[2] >> 16 & 0xFF) as usize,
        escalation: scalars[2] & (1 << 63) != 0,
        config_digest: scalars[3],
        cells: cells
            .iter()
            .map(|&c| {
                (c & 1 == 1).then(|| CellProgress {
                    violation: None,
                    test_cases: (c >> 1 & 0xFFFF) as usize,
                    filtered: (c >> 40 & 0xFF) as usize,
                    total_inputs: (c >> 17 & 0xFFFF) as usize,
                    effectiveness: EffectivenessStats {
                        total_inputs: (c >> 17 & 0xFFFF) as usize,
                        effective_inputs: (c >> 21 & 0xFFF) as usize,
                        classes: (c >> 48 & 0xFF) as usize,
                        singleton_classes: (c >> 52 & 0xFF) as usize,
                    },
                    detection_time: Duration::from_nanos(c >> 33),
                })
            })
            .collect(),
        groups: groups
            .iter()
            .map(|&(target_id, g)| GroupProgress {
                target_id,
                next_index: (g & 0xFFFF) as usize,
                test_cases: (g >> 16 & 0xFFFF) as usize,
                filtered: (g >> 24 & 0xFF) as usize,
                total_inputs: (g >> 32 & 0xFFFF) as usize,
                effectiveness: vec![EffectivenessStats {
                    total_inputs: (g >> 32 & 0xFFFF) as usize,
                    effective_inputs: (g >> 36 & 0xFFF) as usize,
                    classes: (g >> 8 & 0xFF) as usize,
                    singleton_classes: (g >> 12 & 0xFF) as usize,
                }],
                round: (g >> 48 & 0xFF) as usize,
                work: Duration::from_nanos(g.rotate_left(13)),
                escalations: (g >> 56 & 0xF) as usize,
                coverage_level: 1 + (g >> 60 & 0x3) as usize,
                round_improved: g & (1 << 63) != 0,
                coverage: PatternCoverage::new(),
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Submit specs — priorities (any i64), all knobs, arbitrary cell
    /// lists — survive render → parse → decode exactly, in both the UTF-8
    /// and the ASCII-escaped renderings.
    #[test]
    fn job_specs_round_trip(
        seed in any::<u64>(),
        priority in any::<i64>(),
        knobs in any::<u64>(),
        cells in proptest::collection::vec(any::<u64>(), 0..6),
    ) {
        let cells: Vec<(u8, u64)> = cells.iter().map(|&c| ((c >> 8) as u8, c)).collect();
        let spec = spec_from(seed, priority, knobs, &cells);
        let doc = spec.to_json();
        prop_assert_eq!(&JobSpec::from_json(&parse(&doc.render()).unwrap()).unwrap(), &spec);
        prop_assert_eq!(&JobSpec::from_json(&parse(&doc.render_ascii()).unwrap()).unwrap(), &spec);
        // Wrapped in a full submit frame, like the wire carries it.
        let frame = Json::obj().field("op", "submit").field("spec", doc.clone());
        let parsed = parse(&frame.render()).unwrap();
        prop_assert_eq!(parsed.get("op").and_then(Json::as_str), Some("submit"));
        prop_assert_eq!(&JobSpec::from_json(parsed.get("spec").unwrap()).unwrap(), &spec);
    }

    /// The query/cancel frames round-trip for arbitrary job ids (unicode
    /// included) through both renderings.
    #[test]
    fn query_frames_round_trip(bits in any::<u64>(), pick in 0usize..4) {
        let op = ["status", "result", "watch", "cancel"][pick];
        let frame = Json::obj().field("op", op).field("job", job_string(bits));
        prop_assert_eq!(&parse(&frame.render()).unwrap(), &frame);
        prop_assert_eq!(&parse(&frame.render_ascii()).unwrap(), &frame);
    }

    /// Checkpoint payloads round-trip exactly and their digests detect a
    /// mutation — for arbitrary scalar loads, group sets and cell maps.
    #[test]
    fn checkpoint_transfers_round_trip_and_validate(
        s0 in any::<u64>(), s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>(),
        groups in proptest::collection::vec(any::<u64>(), 0..4),
        cells in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let groups: Vec<(u8, u64)> = groups.iter().map(|&g| ((g >> 5) as u8, g)).collect();
        let mut cp = checkpoint_from([s0, s1, s2, s3], &groups, &cells);
        let digest = cp.digest();
        // The bare checkpoint codec round-trips exactly (the spool path).
        let bare = matrix_checkpoint_to_json(&cp).render();
        prop_assert_eq!(&matrix_checkpoint_from_json(&parse(&bare).unwrap()).unwrap(), &cp);
        // Sensitivity: a mutated payload no longer validates against the
        // original digest.
        cp.wave += 1;
        prop_assert!(cp.digest() != digest);
    }

    /// Every strict prefix of a rendered frame is a clean parse error —
    /// not a panic, not an accepted document.
    #[test]
    fn truncated_frames_error_cleanly(
        seed in any::<u64>(), knobs in any::<u64>(), cut in any::<u64>(),
    ) {
        let spec = spec_from(seed, -7, knobs, &[(5, 0), (1, 3)]);
        let frame = Json::obj().field("op", "submit").field("spec", spec.to_json()).render();
        let cut = (cut % frame.len() as u64) as usize;
        // Cut at a char boundary (frames are ASCII here, but stay safe).
        let mut cut = cut;
        while !frame.is_char_boundary(cut) {
            cut -= 1;
        }
        let err = parse(&frame[..cut]).expect_err("strict prefixes of an object are invalid");
        prop_assert!(!err.is_empty());
    }

    /// Arbitrary garbage never panics the parser; failures are described.
    #[test]
    fn garbage_never_panics_the_parser(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let garbage = String::from_utf8_lossy(&bytes).into_owned();
        if let Err(e) = parse(&garbage) {
            prop_assert!(!e.is_empty(), "errors must carry a message");
        }
    }
}

/// Live-reactor resilience: garbage, truncation-then-newline and unknown
/// ops come back as error responses on a connection that keeps working —
/// and the server keeps serving other clients (no reactor stall).
#[test]
fn garbage_frames_do_not_stall_the_reactor() {
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: Some("127.0.0.1:0".to_string()),
        worker_listen: None,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let addr = handle.local_addr().expect("TCP front-end attached");

    let stream = TcpStream::connect(addr).expect("raw client connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let write = |line: &str| {
        (&stream).write_all(line.as_bytes()).expect("write");
        (&stream).write_all(b"\n").expect("write newline");
    };
    let mut read_response = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("server responds");
        parse(line.trim_end()).expect("responses are valid JSON")
    };

    // Garbage bytes, a truncated frame, valid JSON of the wrong shape, an
    // unknown op: each yields {"ok": false} with a message.
    for bad in [
        "\u{7}notjson\u{3}",
        r#"{"op":"submit","spec":{"seed":3"#,
        r#"[1, 2, 3]"#,
        r#"{"op":"frobnicate"}"#,
        r#"{"op":"cancel"}"#,
    ] {
        write(bad);
        let response = read_response();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "bad frame must yield an error response: {bad}"
        );
        assert!(response.get("error").and_then(Json::as_str).is_some_and(|e| !e.is_empty()));
    }
    // The abused connection still works…
    write(r#"{"op":"ping"}"#);
    assert_eq!(read_response().get("pong").and_then(Json::as_bool), Some(true));
    // …and so does a fresh client doing real work through the reactor.
    let mut client = Client::connect(addr).expect("client connects");
    let job = client
        .submit(&JobSpec::new(3).with_budget(4).add_cell(1, "CT-SEQ"))
        .expect("submit still works");
    client.watch(&job, |_| {}).expect("job completes");
    handle.shutdown();
}

/// The coordinator's worker port drops peers that do not speak the
/// protocol instead of stalling on them.
#[test]
fn garbage_on_the_worker_port_drops_the_peer_not_the_coordinator() {
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: None,
        worker_listen: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("coordinator starts");
    let worker_addr = handle.worker_addr().expect("worker port bound");

    // A peer speaking garbage gets disconnected.
    let garbage_peer = TcpStream::connect(worker_addr).expect("peer connects");
    (&garbage_peer).write_all(b"\x01\x02 not a frame\n").expect("write");
    garbage_peer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut buf = [0u8; 16];
    let n = std::io::Read::read(&mut (&garbage_peer), &mut buf).expect("read EOF");
    assert_eq!(n, 0, "the coordinator must close a non-protocol peer");

    // A real worker on the same port still serves jobs afterwards.
    let mut config = rvz_service::WorkerConfig::new(worker_addr.to_string());
    config.name = "post-garbage".to_string();
    let worker = std::thread::spawn(move || {
        let _ = rvz_service::Worker::new(config).run();
    });
    let job = handle
        .submit(JobSpec::new(3).with_budget(4).add_cell(1, "CT-SEQ"))
        .expect("job accepted");
    handle.wait(&job).expect("job completes after the garbage peer");
    handle.shutdown();
    let _ = worker.join();
}

/// Checkpoint transfers are binary-only: a peer sending a well-formed JSON
/// `wave` (the data plane of an older build) is dropped, not acked.
#[test]
fn json_checkpoint_transfers_drop_the_peer() {
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: None,
        worker_listen: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("coordinator starts");
    let worker_addr = handle.worker_addr().expect("worker port bound");

    let cp = JobSpec::new(3).add_cell(1, "CT-SEQ").to_matrix().unwrap().initial_checkpoint();
    let wave = Json::obj()
        .field("op", "wave")
        .field("job", "j-old")
        .field("target", 1u64)
        .field("lease", 1u64)
        .field("wave", cp.wave)
        .field("digest", cp.digest())
        .field("checkpoint", matrix_checkpoint_to_json(&cp));
    let peer = TcpStream::connect(worker_addr).expect("peer connects");
    let frames = format!("{}\n{}\n", Json::obj().field("op", "register").render(), wave.render());
    (&peer).write_all(frames.as_bytes()).expect("write");
    peer.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    let mut replies = String::new();
    std::io::Read::read_to_string(&mut (&peer), &mut replies)
        .expect("the coordinator must close the peer");
    assert!(!replies.contains("\"ack\""), "a JSON transfer is never acked: {replies}");
    handle.shutdown();
}

//! The service binaries fail loudly on flags they do not document — in
//! particular the removed `--worker-addr`, `--checkpoint-every` and
//! `--wire-format` — with exit code 2, instead of silently ignoring them
//! (an ignored `--worker-addr` would quietly start a shard server where a
//! fleet coordinator was meant).

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run a binary to completion (killing it after 30 s, so a regression
/// that starts a server cannot hang the suite); returns its exit code
/// (`None` when killed) and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on child") {
            break Some(status);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    let _ = child.stderr.take().expect("stderr piped").read_to_string(&mut stderr);
    (status.and_then(|s| s.code()), stderr)
}

#[test]
fn removed_flags_exit_with_code_2() {
    let serve = env!("CARGO_BIN_EXE_revizor-serve");
    let worker = env!("CARGO_BIN_EXE_revizor-worker");
    for (bin, args) in [
        (serve, ["--addr=127.0.0.1:0", "--worker-addr=127.0.0.1:0"]),
        (serve, ["--addr=127.0.0.1:0", "--checkpoint-every=1"]),
        (worker, ["--coordinator=127.0.0.1:1", "--wire-format=json"]),
    ] {
        let (code, stderr) = run(bin, &args);
        assert_eq!(code, Some(2), "{bin} {args:?} must exit 2; stderr: {stderr}");
        let flag = args[1].split('=').next().unwrap();
        assert!(stderr.contains(flag), "the message names `{flag}`: {stderr}");
    }
}

#[test]
fn documented_flags_still_parse() {
    // Every flag here is documented, so the worker gets as far as dialing
    // the (closed) port and exits 1 — not the usage error.
    let worker = env!("CARGO_BIN_EXE_revizor-worker");
    let (code, stderr) =
        run(worker, &["--coordinator=127.0.0.1:1", "--name=cli-test", "--retry-secs=0"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    let (code, _) = run(env!("CARGO_BIN_EXE_revizor-serve"), &["--help"]);
    assert_eq!(code, Some(0));
}

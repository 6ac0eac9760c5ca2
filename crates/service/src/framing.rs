//! Shared non-blocking socket and line-framing primitives for the poll
//! reactors (the client front-end in [`crate::server`] and the
//! worker-port coordinator in [`crate::coordinator`]).
//!
//! Both reactors speak one JSON document per `\n`-terminated line over
//! non-blocking sockets; the subtle edge cases (orderly close on `Ok(0)`,
//! `WouldBlock` as "drained", hard errors as close, partial writes) live
//! here once, as do the options every accepted stream gets
//! ([`accepted`]) and the loop that drives both reactors
//! ([`run_reactor`]).
//!
//! The worker port additionally interleaves **binary frames**
//! ([`rvz_bench::binfmt`]) on the same socket: a JSON line always opens
//! with `{`, a binary frame with the `RVZB` magic, so [`next_frame`] can
//! pop whichever is buffered next.  Work-unit grants and checkpoint
//! transfers always travel as binary frames; control frames are JSON
//! lines.

use crate::core::ServiceCore;
use rvz_bench::binfmt;
use rvz_bench::json::Json;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Ready a freshly accepted stream for its reactor: non-blocking, and
/// `TCP_NODELAY`.  Every frame of both protocols is one small write
/// answered by the peer, so Nagle's algorithm would hold each one back
/// until the peer's delayed ACK.
pub(crate) fn accepted(stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)
}

/// Drive a poll reactor until the core stops.  `poll_once` makes one
/// non-blocking pass over the reactor's sockets and reports progress;
/// after progress it runs again at once, otherwise the reactor waits for
/// a core change ([`ServiceCore::wait_for_change`]) bounded by the next
/// step of [`idle_backoff`].
pub(crate) fn run_reactor(core: &ServiceCore, mut poll_once: impl FnMut() -> bool) {
    let (mut seen, mut idle_polls) = (0, 0);
    while !core.stopped() {
        if poll_once() {
            idle_polls = 0;
        } else {
            core.wait_for_change(&mut seen, idle_backoff(idle_polls));
            idle_polls = idle_polls.saturating_add(1);
        }
    }
}

/// How long a reactor waits for the core to change before it polls its
/// sockets again, after `idle_polls` consecutive polls without progress:
/// 50 µs right after progress, doubling with every idle poll, capped at
/// 2 ms.  Std has no readiness API, so socket input is only seen by
/// polling; the short first waits catch the next request of a client
/// that was just answered, and the cap keeps an idle reactor — whose
/// coordinator pass scans every job — from polling more often than once
/// per 2 ms.
pub(crate) fn idle_backoff(idle_polls: u32) -> Duration {
    const FIRST: Duration = Duration::from_micros(50);
    const CAP: Duration = Duration::from_millis(2);
    // 50 µs × 2^6 is past the cap already; the clamp keeps the shift small.
    (FIRST * (1u32 << idle_polls.min(6))).min(CAP)
}

/// Drain what is currently readable into `inbuf`, stopping once it holds
/// more than `cap` bytes (the rest stays in the socket until the caller
/// has consumed some).  Returns `(progress, closed)`: whether any bytes
/// arrived, and whether the connection ended (EOF or a hard error).
pub(crate) fn read_available(
    stream: &mut TcpStream,
    inbuf: &mut Vec<u8>,
    cap: usize,
) -> (bool, bool) {
    let mut progress = false;
    let mut buf = [0u8; 4096];
    while inbuf.len() <= cap {
        match stream.read(&mut buf) {
            Ok(0) => return (progress, true),
            Ok(n) => {
                inbuf.extend_from_slice(&buf[..n]);
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (progress, false),
            Err(_) => return (progress, true),
        }
    }
    (progress, false)
}

/// Pop every complete, non-blank line buffered in `inbuf` into `lines`
/// (without terminators, in order), draining them from `inbuf` at once.
/// `scanned` carries how far earlier calls already searched the buffered
/// partial line for its terminator: the search resumes there, so a line
/// dripped in over many reads is scanned once in total.
///
/// # Errors
/// When a line — terminated or not — is longer than `max_line` bytes.
/// The complete lines before it are still pushed to `lines`.
pub(crate) fn take_lines(
    inbuf: &mut Vec<u8>,
    scanned: &mut usize,
    max_line: usize,
    lines: &mut Vec<String>,
) -> Result<(), String> {
    let too_long = || Err(format!("request line longer than {max_line} bytes"));
    let mut start = 0;
    let result = loop {
        let from = start + *scanned;
        let Some(at) = inbuf[from..].iter().position(|&b| b == b'\n') else {
            *scanned = inbuf.len() - start;
            break if *scanned > max_line { too_long() } else { Ok(()) };
        };
        let end = from + at;
        if end - start > max_line {
            break too_long();
        }
        let line = String::from_utf8_lossy(&inbuf[start..end]);
        if !line.trim().is_empty() {
            lines.push(line.into_owned());
        }
        start = end + 1;
        *scanned = 0;
    };
    inbuf.drain(..start);
    result
}

/// One frame popped off a mixed-format connection.
pub(crate) enum WireFrame {
    /// A complete JSON line (without its terminator).
    Json(String),
    /// A complete binary frame (header + body), ready for
    /// [`binfmt::parse_frame`].
    Binary(Vec<u8>),
}

/// Pop the next complete frame — JSON line or binary frame — from a
/// mixed-format buffer.  `Ok(None)` means "incomplete, keep reading";
/// `Err` means the buffer head is corrupt (bad magic, unsupported
/// version, oversized length) and the caller should drop the connection
/// rather than wait forever.
pub(crate) fn next_frame(inbuf: &mut Vec<u8>) -> Result<Option<WireFrame>, String> {
    loop {
        // Skip inter-frame whitespace (blank lines between JSON frames).
        let skip = inbuf.iter().take_while(|b| b" \t\r\n".contains(b)).count();
        inbuf.drain(..skip);
        let Some(&first) = inbuf.first() else { return Ok(None) };
        if first == binfmt::MAGIC[0] {
            return match binfmt::frame_len(inbuf)? {
                None => Ok(None),
                Some(total) if inbuf.len() < total => Ok(None),
                Some(total) => Ok(Some(WireFrame::Binary(inbuf.drain(..total).collect()))),
            };
        }
        let Some(pos) = inbuf.iter().position(|&b| b == b'\n') else { return Ok(None) };
        let line: Vec<u8> = inbuf.drain(..=pos).collect();
        let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
        if !line.trim().is_empty() {
            return Ok(Some(WireFrame::Json(line)));
        }
    }
}

/// Append one complete binary frame to `outbuf` (no terminator — binary
/// frames are self-delimiting).
pub(crate) fn queue_binary(outbuf: &mut Vec<u8>, frame: &[u8]) {
    outbuf.extend_from_slice(frame);
}

/// The `op` discriminator of a protocol frame, if it carries one.
pub(crate) fn op(frame: &Json) -> Option<&str> {
    frame.get("op").and_then(Json::as_str)
}

/// Append one rendered frame (plus terminator) to `outbuf`.
pub(crate) fn queue_line(outbuf: &mut Vec<u8>, doc: &Json) {
    outbuf.extend_from_slice(doc.render().as_bytes());
    outbuf.push(b'\n');
}

/// Write as much of `outbuf` as the socket accepts.  Returns
/// `(progress, closed)` like [`read_available`].
pub(crate) fn flush(stream: &mut TcpStream, outbuf: &mut Vec<u8>) -> (bool, bool) {
    let mut progress = false;
    while !outbuf.is_empty() {
        match stream.write(outbuf) {
            Ok(0) => return (progress, true),
            Ok(n) => {
                outbuf.drain(..n);
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (progress, false),
            Err(_) => return (progress, true),
        }
    }
    (progress, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_lines_skips_blanks_and_preserves_order() {
        let mut buf = b"\n  \n{\"a\":1}\n{\"b\":2}\npartial".to_vec();
        let (mut scanned, mut lines) = (0, Vec::new());
        take_lines(&mut buf, &mut scanned, 64, &mut lines).unwrap();
        assert_eq!(lines, ["{\"a\":1}", "{\"b\":2}"]);
        assert_eq!(buf, b"partial", "incomplete line stays buffered");
        assert_eq!(scanned, buf.len());
    }

    #[test]
    fn take_lines_resumes_a_dripped_line_and_caps_its_length() {
        let (mut buf, mut scanned, mut lines) = (Vec::new(), 0, Vec::new());
        for chunk in [&b"{\"op\""[..], b":\"pi", b"ng\"}", b"\n{\"x"] {
            buf.extend_from_slice(chunk);
            take_lines(&mut buf, &mut scanned, 16, &mut lines).unwrap();
            assert_eq!(scanned, buf.len(), "the partial line is never searched twice");
        }
        assert_eq!(lines, ["{\"op\":\"ping\"}"]);
        assert_eq!((buf.as_slice(), scanned), (&b"{\"x"[..], 3));
        // A line at the cap passes; one byte more fails, terminated or not,
        // and the complete lines before it are still returned.
        let mut buf = b"0123456789abcdef\n0123456789abcdefg".to_vec();
        let (mut scanned, mut lines) = (0, Vec::new());
        assert!(take_lines(&mut buf, &mut scanned, 16, &mut lines).is_err());
        assert_eq!(lines, ["0123456789abcdef"]);
        let mut buf = b"0123456789abcdefg\n".to_vec();
        assert!(take_lines(&mut buf, &mut 0, 16, &mut Vec::new()).is_err());
    }

    #[test]
    fn idle_backoff_starts_short_never_shrinks_and_caps_at_2ms() {
        assert!(idle_backoff(0) < Duration::from_millis(1));
        let schedule: Vec<Duration> = (0..64).map(idle_backoff).collect();
        assert!(schedule.windows(2).all(|w| w[0] <= w[1]), "never decreases: {schedule:?}");
        assert_eq!(schedule.iter().max(), Some(&Duration::from_millis(2)));
        assert_eq!(idle_backoff(u32::MAX), Duration::from_millis(2));
    }

    #[test]
    fn next_frame_interleaves_json_lines_and_binary_frames() {
        let bin = binfmt::FrameBuilder::new(binfmt::KIND_GRANT)
            .str_section(binfmt::TAG_JOB, "j1")
            .build();
        let mut buf = b"{\"a\":1}\n\n".to_vec();
        buf.extend_from_slice(&bin);
        buf.extend_from_slice(b"{\"b\":2}\n");
        buf.extend_from_slice(&bin[..5]); // a partial binary frame stays buffered
        match next_frame(&mut buf).unwrap() {
            Some(WireFrame::Json(line)) => assert_eq!(line, "{\"a\":1}"),
            _ => panic!("expected a JSON line"),
        }
        match next_frame(&mut buf).unwrap() {
            Some(WireFrame::Binary(frame)) => assert_eq!(frame, bin),
            _ => panic!("expected a binary frame"),
        }
        match next_frame(&mut buf).unwrap() {
            Some(WireFrame::Json(line)) => assert_eq!(line, "{\"b\":2}"),
            _ => panic!("expected a JSON line"),
        }
        assert!(next_frame(&mut buf).unwrap().is_none(), "partial frame stays buffered");
        assert_eq!(buf, &bin[..5]);
        // Corrupt magic is an error (drop the connection), not a stall.
        let mut garbage = b"RVXXgarbage".to_vec();
        assert!(next_frame(&mut garbage).is_err());
    }

    #[test]
    fn queue_line_terminates_frames() {
        let mut out = Vec::new();
        queue_line(&mut out, &Json::obj().field("ok", true));
        queue_line(&mut out, &Json::obj().field("ok", false));
        assert_eq!(out, b"{\"ok\":true}\n{\"ok\":false}\n");
    }
}

//! Shared non-blocking line-framing primitives for the poll reactors
//! (the client front-end in [`crate::server`] and the worker-port
//! coordinator in [`crate::coordinator`]).
//!
//! Both reactors speak one JSON document per `\n`-terminated line over
//! non-blocking sockets; the subtle edge cases (orderly close on `Ok(0)`,
//! `WouldBlock` as "drained", hard errors as close, partial writes) live
//! here once.
//!
//! The worker port additionally interleaves **binary frames**
//! ([`rvz_bench::binfmt`]) on the same socket: a JSON line always opens
//! with `{`, a binary frame with the `RVZB` magic, so [`next_frame`] can
//! pop whichever is buffered next.  Work-unit grants and checkpoint
//! transfers always travel as binary frames; control frames are JSON
//! lines.

use rvz_bench::binfmt;
use rvz_bench::json::Json;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Drain everything currently readable into `inbuf`.  Returns
/// `(progress, closed)`: whether any bytes arrived, and whether the
/// connection ended (EOF or a hard error).
pub(crate) fn read_available(stream: &mut TcpStream, inbuf: &mut Vec<u8>) -> (bool, bool) {
    let mut progress = false;
    let mut buf = [0u8; 4096];
    loop {
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
}

/// Pop the next complete, non-blank line from `inbuf` (without its
/// terminator), if one is buffered.
pub(crate) fn next_line(inbuf: &mut Vec<u8>) -> Option<String> {
    while let Some(pos) = inbuf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = inbuf.drain(..=pos).collect();
        let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
        if !line.trim().is_empty() {
            return Some(line);
        }
    }
    None
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
    fn next_line_skips_blanks_and_preserves_order() {
        let mut buf = b"\n  \n{\"a\":1}\n{\"b\":2}\npartial".to_vec();
        assert_eq!(next_line(&mut buf).as_deref(), Some("{\"a\":1}"));
        assert_eq!(next_line(&mut buf).as_deref(), Some("{\"b\":2}"));
        assert_eq!(next_line(&mut buf), None, "incomplete line stays buffered");
        assert_eq!(buf, b"partial");
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

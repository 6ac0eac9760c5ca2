//! A small blocking client for the JSON-lines protocol, used by
//! `revizor-submit` and the integration tests.

use crate::job::JobSpec;
use rvz_bench::json::{parse, Json};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a backpressure-aware [`Client::try_submit`] did not queue a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The fleet's unit queue is at its watermark; the server asks the
    /// client to retry after the hint instead of queueing unbounded work.
    Backpressure {
        /// The server's suggested wait before retrying.
        retry_after: Duration,
    },
    /// Any other rejection: invalid spec, transport failure, protocol
    /// error.
    Rejected(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Backpressure { retry_after } => {
                write!(f, "server backpressured the submission; retry in {retry_after:.1?}")
            }
            SubmitError::Rejected(message) => f.write_str(message),
        }
    }
}

/// How a [`Client::watch`] ended without a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchError {
    /// The connection died mid-watch.  This is **not** a job failure: the
    /// server spools jobs durably, so the job resumes (with byte-identical
    /// verdicts) once a server restarts over the same spool — reconnect
    /// and `watch`/`result` the same job id again.
    ServerGone {
        /// The job that was being watched.
        job: String,
    },
    /// Any other failure: protocol errors, server-reported errors, or a
    /// failure before the watch subscription was established.
    Other(String),
}

impl fmt::Display for WatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WatchError::ServerGone { job } => write!(
                f,
                "server gone mid-watch; job {job} is spooled and resumes on the next \
                 server start — query it again with `result` or `watch`"
            ),
            WatchError::Other(message) => f.write_str(message),
        }
    }
}

/// A connected client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    token: Option<String>,
}

/// Why a response line could not be read (internal; callers fold this
/// into their own error types).
enum ReadError {
    /// The connection is dead (EOF or a transport error).
    Gone(String),
    /// The connection delivered a line that is not valid JSON.
    Malformed(String),
}

impl ReadError {
    fn message(self) -> String {
        match self {
            ReadError::Gone(m) | ReadError::Malformed(m) => m,
        }
    }
}

impl Client {
    /// Connect to a running `revizor-serve`.  The stream sets
    /// `TCP_NODELAY`: every request is one small write whose answer the
    /// client waits for.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader, token: None })
    }

    /// Builder: authenticate every request with `token` (required by
    /// servers running with `--token-file`; harmless on open servers).
    pub fn with_token(mut self, token: &str) -> Client {
        self.token = Some(token.to_string());
        self
    }

    /// A request skeleton for `op`, carrying the client token when set.
    fn op(&self, op: &str) -> Json {
        let request = Json::obj().field("op", op);
        match &self.token {
            Some(token) => request.field("token", token.as_str()),
            None => request,
        }
    }

    fn read_line(&mut self) -> Result<Json, ReadError> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| ReadError::Gone(e.to_string()))?;
        if n == 0 {
            return Err(ReadError::Gone("server closed the connection".to_string()));
        }
        if !line.ends_with('\n') {
            // EOF mid-line: the server died after a partial write — that
            // is a dead connection, not a malformed frame.
            return Err(ReadError::Gone("server closed the connection mid-line".to_string()));
        }
        parse(line.trim_end()).map_err(ReadError::Malformed)
    }

    /// Send one request line and read one response line, transport-level
    /// only: `ok: false` responses come back as `Ok` documents for the
    /// caller to interpret (used where the error shape carries structured
    /// fields, e.g. backpressure hints).
    fn request_raw(&mut self, request: &Json) -> Result<Json, String> {
        let mut line = request.render();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        self.read_line().map_err(ReadError::message)
    }

    /// Send one request line and read one response line.
    ///
    /// # Errors
    /// Returns transport errors or the server's `error` field.
    pub fn request(&mut self, request: &Json) -> Result<Json, String> {
        let response = self.request_raw(request)?;
        if response.get("ok").and_then(Json::as_bool) == Some(false) {
            let message = response
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown server error");
            return Err(message.to_string());
        }
        Ok(response)
    }

    /// Submit a job; returns its id.
    ///
    /// # Errors
    /// Propagates transport/validation errors.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<String, String> {
        let response = self.request(&self.op("submit").field("spec", spec.to_json()))?;
        response
            .get("job")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or("submit response carried no job id".to_string())
    }

    /// Submit a job, surfacing server backpressure as a typed variant:
    /// when the fleet's unit queue is at its watermark the server defers
    /// the submission with a retry-after hint instead of queueing it —
    /// wait that long and call again.
    ///
    /// # Errors
    /// [`SubmitError::Backpressure`] with the server's retry hint, or
    /// [`SubmitError::Rejected`] for anything else.
    pub fn try_submit(&mut self, spec: &JobSpec) -> Result<String, SubmitError> {
        let request = self.op("submit").field("spec", spec.to_json());
        let response = self.request_raw(&request).map_err(SubmitError::Rejected)?;
        if response.get("ok").and_then(Json::as_bool) == Some(false) {
            if let Some(retry_ms) = response.get("retry_after_ms").and_then(Json::as_u64) {
                return Err(SubmitError::Backpressure {
                    retry_after: Duration::from_millis(retry_ms),
                });
            }
            let message = response
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown server error");
            return Err(SubmitError::Rejected(message.to_string()));
        }
        response
            .get("job")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(SubmitError::Rejected("submit response carried no job id".to_string()))
    }

    /// Fetch a job's status summary.
    ///
    /// # Errors
    /// Propagates transport errors and unknown-job errors.
    pub fn status(&mut self, job: &str) -> Result<Json, String> {
        let response = self.request(&self.op("status").field("job", job))?;
        response.get("status").cloned().ok_or("status response carried no status".to_string())
    }

    /// Fetch a finished job's result payload (`None` while it runs).
    ///
    /// # Errors
    /// Propagates transport errors and unknown-job errors.
    pub fn result(&mut self, job: &str) -> Result<Option<Json>, String> {
        let response = self.request(&self.op("result").field("job", job))?;
        match response.get("done").and_then(Json::as_bool) {
            Some(true) => Ok(response.get("result").cloned()),
            _ => Ok(None),
        }
    }

    /// Request a job's cancellation.  Returns the server's `state`:
    /// `"cancelled"` (was queued, terminally cancelled) or `"cancelling"`
    /// (running; it stops at its next wave boundary and then publishes a
    /// `done` event with `"cancelled": true`).
    ///
    /// # Errors
    /// Propagates transport errors, unknown-job and already-finished
    /// errors.
    pub fn cancel(&mut self, job: &str) -> Result<String, String> {
        let response = self.request(&self.op("cancel").field("job", job))?;
        response
            .get("state")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or("cancel response carried no state".to_string())
    }

    /// Subscribe to a job's event stream and block until its `done` event;
    /// every streamed event (including `done`) is passed to `on_event`.
    /// Returns the result payload.
    ///
    /// # Errors
    /// [`WatchError::ServerGone`] when the connection dies mid-stream (the
    /// job itself survives in the server's spool); [`WatchError::Other`]
    /// for anything else.
    pub fn watch(
        &mut self,
        job: &str,
        mut on_event: impl FnMut(&Json),
    ) -> Result<Json, WatchError> {
        self.request(&self.op("watch").field("job", job))
            .map_err(WatchError::Other)?;
        loop {
            // Once the subscription is live, a dead connection means the
            // server went away — report it distinctly: the job is spooled
            // server-side, not lost.  A malformed frame on a *live*
            // connection is a protocol failure, not a gone server.
            let event = self.read_line().map_err(|e| match e {
                ReadError::Gone(_) => WatchError::ServerGone { job: job.to_string() },
                ReadError::Malformed(m) => WatchError::Other(format!("malformed event: {m}")),
            })?;
            on_event(&event);
            if event.get("event").and_then(Json::as_str) == Some("done") {
                return event
                    .get("result")
                    .cloned()
                    .ok_or(WatchError::Other("done event carried no result".to_string()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn client_streams_set_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = Client::connect(listener.local_addr().expect("addr")).expect("connect");
        assert!(client.writer.nodelay().expect("query TCP_NODELAY"));
    }
}

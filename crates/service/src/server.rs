//! The TCP front-end: a JSON-lines protocol over a non-blocking poll loop.
//!
//! The workspace is vendored/offline, so there is no async runtime; the
//! front-end is written in the *shape* of one instead — a single-threaded
//! reactor whose [`Server::poll_once`] makes one non-blocking pass over the
//! listener and every connection and reports whether it made progress.
//! Swapping in a real runtime later means driving `poll_once` from a task
//! (or replacing it with per-connection futures); no protocol or core
//! changes are needed.
//!
//! ## Latency
//!
//! [`Server::run`] never sleeps blind.  Between polls that find no work
//! it waits on the core's change condvar, so a submission, published
//! event, checkpoint or completion wakes the reactor at once and a
//! watcher's event goes out as soon as a shard publishes it.  Socket input
//! has no such signal (std has no `select`), so the wait is bounded by
//! an idle backoff: 50 µs right after progress, doubling on every idle
//! poll, capped at the 2 ms an idle reactor always polled at.  Every
//! accepted stream, like every [`Client`](crate::Client), sets
//! `TCP_NODELAY`: requests, responses and watch events are small writes
//! the peer waits on, which Nagle's algorithm would otherwise hold back
//! until the peer's delayed ACK.  The coordinator's worker port does the
//! same on both ends.
//!
//! ## Protocol
//!
//! One JSON object per line in both directions (`\n`-terminated).
//! Requests carry an `op` field:
//!
//! | request | response |
//! |---|---|
//! | `{"op":"ping"}` | `{"ok":true,"pong":true}` |
//! | `{"op":"submit","spec":{…}}` | `{"ok":true,"job":"…","shard":n}` |
//! | `{"op":"status","job":"…"}` | `{"ok":true,"status":{…}}` |
//! | `{"op":"list"}` | `{"ok":true,"jobs":[{…}]}` |
//! | `{"op":"result","job":"…"}` | `{"ok":true,"done":bool,"result":{…}\|null}` |
//! | `{"op":"watch","job":"…"}` | `{"ok":true,"watching":"…"}`, then streamed events |
//! | `{"op":"cancel","job":"…"}` | `{"ok":true,"job":"…","state":"cancelled"\|"cancelling"}` |
//!
//! **Auth**: when the server runs with a token file
//! ([`ServiceConfig::token_file`](crate::ServiceConfig::token_file)),
//! every request except `ping` must carry a `"token"` field naming a
//! known token; unauthenticated (or unknown-token) requests are rejected
//! with an `unauthorized: …` error.  Submitted jobs are stamped with the
//! token's *tenant*, `list` returns only the caller's (and tenantless)
//! jobs, and every job-addressed op (`status`, `result`, `watch`,
//! `cancel`) answers `unknown job` for jobs owned by other tenants —
//! existence is not leaked across tenants.  Without a token file the
//! protocol is exactly as before (tokens are ignored).
//!
//! Errors come back as `{"ok":false,"error":"…"}`.  A `watch` subscription
//! streams the job's event log from the beginning (`{"event":"round"\|"cell"}`
//! lines) and ends with the `{"event":"done","result":{…}}` line (for a
//! cancelled job that line additionally carries `"cancelled":true`).
//! `submit` specs may carry a `"priority"` field — among queued jobs,
//! higher priorities start first.  A `cancel` of a queued job is
//! immediate (`"cancelled"`); a running job stops cooperatively at its
//! next wave boundary (`"cancelling"`, then the `done` event).
//!
//! **Backpressure**: when the queued work-unit count is at or above
//! [`ServiceConfig::queue_watermark`](crate::ServiceConfig::queue_watermark),
//! `submit` defers instead of accepting unbounded work — the error
//! response additionally carries `"retry_after_ms"`, `"queued_units"` and
//! `"watermark"`, and the client should retry after the hint
//! ([`Client::try_submit`](crate::Client::try_submit) surfaces this as a
//! typed variant).
//!
//! **Line limit**: a request line may be at most [`MAX_REQUEST_LINE`]
//! bytes.  A connection that sends a longer one, terminated or not, gets
//! one `{"ok":false,"error":…}` answer and is closed; the reactor never
//! buffers more than about that much of any connection's input.

use crate::core::{ServiceCore, SubmitRejection};
use crate::framing;
use crate::job::JobSpec;
use rvz_bench::json::{parse, Json};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The longest request line the client port accepts, in bytes (1 MiB).
/// A `JobSpec` line is a few KiB even with hundreds of cells.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// One client connection of the reactor.
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// How much of the partial line at the head of `inbuf` has already
    /// been searched for its terminator.
    scanned: usize,
    outbuf: Vec<u8>,
    /// Active `watch` subscriptions: (job id, next event cursor).
    watches: Vec<(String, usize)>,
    closed: bool,
}

impl Conn {
    fn queue_line(&mut self, doc: &Json) {
        framing::queue_line(&mut self.outbuf, doc);
    }
}

/// The reactor state: listener + connections (see the module docs).
pub struct Server {
    core: Arc<ServiceCore>,
    listener: TcpListener,
    addr: SocketAddr,
    conns: Vec<Conn>,
}

impl Server {
    /// Bind the listener (non-blocking) on `listen`.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(core: Arc<ServiceCore>, listen: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Server { core, listener, addr, conns: Vec::new() })
    }

    /// The bound address (useful with an ephemeral `:0` port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// One non-blocking pass: accept, read, dispatch, stream watch events,
    /// flush.  Returns whether any I/O progress was made.  [`Server::run`]
    /// polls again at once after progress and otherwise waits for a core
    /// change or the next step of the idle backoff (see the module docs).
    pub fn poll_once(&mut self) -> bool {
        let mut progress = false;

        // Accept everything currently pending.
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if framing::accepted(&stream).is_ok() {
                        self.conns.push(Conn {
                            stream,
                            inbuf: Vec::new(),
                            scanned: 0,
                            outbuf: Vec::new(),
                            watches: Vec::new(),
                            closed: false,
                        });
                        progress = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        for conn in &mut self.conns {
            progress |= Self::service_conn(&self.core, conn);
        }
        self.conns.retain(|c| !c.closed);
        progress
    }

    /// Read, dispatch and write one connection; returns progress.
    fn service_conn(core: &Arc<ServiceCore>, conn: &mut Conn) -> bool {
        // Read what is available, up to one line past the limit.
        let (mut progress, closed) =
            framing::read_available(&mut conn.stream, &mut conn.inbuf, MAX_REQUEST_LINE);
        conn.closed |= closed;

        // Dispatch complete lines.
        let mut lines = Vec::new();
        let too_long =
            framing::take_lines(&mut conn.inbuf, &mut conn.scanned, MAX_REQUEST_LINE, &mut lines)
                .err();
        for line in lines {
            let response = dispatch(core, &line, &mut conn.watches);
            conn.queue_line(&response);
            progress = true;
        }
        if let Some(e) = too_long {
            // The error is the connection's last line: no watch events
            // follow it, and the flush below sends it before the close.
            conn.queue_line(&error(format!("{e}; closing the connection")));
            conn.watches.clear();
            conn.closed = true;
            progress = true;
        }

        // Stream watch events (log replay by cursor).
        let mut finished_watches = Vec::new();
        for (wi, (job, cursor)) in conn.watches.iter_mut().enumerate() {
            if let Some(events) = core.events_from(job, *cursor) {
                for event in &events {
                    framing::queue_line(&mut conn.outbuf, event);
                    if event.get("event").and_then(Json::as_str) == Some("done") {
                        finished_watches.push(wi);
                    }
                    progress = true;
                }
                *cursor += events.len();
            }
        }
        for wi in finished_watches.into_iter().rev() {
            conn.watches.remove(wi);
        }

        // Flush as much as the socket accepts.
        let (wrote, closed) = framing::flush(&mut conn.stream, &mut conn.outbuf);
        conn.closed |= closed;
        progress | wrote
    }

    /// Drive the reactor until the core stops (see the module docs).
    pub fn run(mut self) {
        let core = Arc::clone(&self.core);
        framing::run_reactor(&core, || self.poll_once());
    }
}

/// The caller's resolved identity: `Open` on servers without a token
/// file, `Tenant` after a successful token lookup.
enum Identity {
    /// No auth configured; every job is visible.
    Open,
    /// Authenticated as this tenant; sees own and tenantless jobs.
    Tenant(String),
}

impl Identity {
    /// Whether a job owned by `owner` is visible to this caller.
    fn sees(&self, owner: Option<&str>) -> bool {
        match (self, owner) {
            (Identity::Open, _) | (_, None) => true,
            (Identity::Tenant(tenant), Some(owner)) => tenant == owner,
        }
    }

    /// The tenant to stamp on submitted jobs.
    fn tenant(&self) -> Option<&str> {
        match self {
            Identity::Open => None,
            Identity::Tenant(tenant) => Some(tenant),
        }
    }
}

/// Resolve the request's identity against the core's token table.
/// `Err` carries the ready-to-send unauthorized response.
fn authenticate(core: &ServiceCore, request: &Json, op: &str) -> Result<Identity, Json> {
    let Some(tokens) = core.auth() else { return Ok(Identity::Open) };
    match request.get("token").and_then(Json::as_str) {
        Some(token) => match tokens.get(token) {
            Some(tenant) => Ok(Identity::Tenant(tenant.clone())),
            None => Err(error("unauthorized: unknown token".to_string())),
        },
        None if op == "ping" => Ok(Identity::Open),
        None => Err(error(format!(
            "unauthorized: `{op}` requires a `token` field on this server \
             (it runs with --token-file; pass --token to revizor-submit)"
        ))),
    }
}

/// Handle one request line; returns the response document (and may register
/// a watch subscription).
fn dispatch(core: &Arc<ServiceCore>, line: &str, watches: &mut Vec<(String, usize)>) -> Json {
    let request = match parse(line) {
        Ok(doc) => doc,
        Err(e) => return error(format!("malformed request: {e}")),
    };
    let op = match request.get("op").and_then(Json::as_str) {
        Some(op) => op,
        None => return error("request needs a string `op` field".to_string()),
    };
    let identity = match authenticate(core, &request, op) {
        Ok(identity) => identity,
        Err(response) => return response,
    };
    // A job-addressed op on another tenant's job answers exactly like a
    // nonexistent job, so job ids never leak across tenants.
    let visible = |job: &str| -> Result<(), Json> {
        match core.status(job) {
            Some(status) if identity.sees(status.tenant.as_deref()) => Ok(()),
            _ => Err(error(format!("unknown job `{job}`"))),
        }
    };
    match op {
        "ping" => Json::obj().field("ok", true).field("pong", true),
        "submit" => {
            let Some(spec) = request.get("spec") else {
                return error("submit needs a `spec` object".to_string());
            };
            let mut spec = match JobSpec::from_json(spec) {
                Ok(spec) => spec,
                Err(e) => return error(e),
            };
            // Ownership comes from the authenticated token, never from
            // the submitted document.
            spec.tenant = identity.tenant().map(str::to_string);
            match core.try_submit(spec) {
                Ok(job) => {
                    let shard = core.status(&job).map(|s| s.shard).unwrap_or(0);
                    Json::obj().field("ok", true).field("job", job).field("shard", shard)
                }
                Err(SubmitRejection::Invalid(e)) => error(e),
                Err(SubmitRejection::Backpressure(bp)) => {
                    let retry_ms = bp.retry_after.as_millis() as u64;
                    error(format!(
                        "backpressure: {} work units queued (watermark {}); retry in {retry_ms}ms",
                        bp.queued_units, bp.watermark
                    ))
                    .field("retry_after_ms", retry_ms)
                    .field("queued_units", bp.queued_units)
                    .field("watermark", bp.watermark)
                }
            }
        }
        "status" => match job_of(&request) {
            Err(e) => error(e),
            Ok(job) => match visible(job) {
                Err(response) => response,
                Ok(()) => match core.status(job) {
                    Some(status) => {
                        Json::obj().field("ok", true).field("status", status.to_json())
                    }
                    None => error(format!("unknown job `{job}`")),
                },
            },
        },
        "list" => Json::obj().field("ok", true).field(
            "jobs",
            Json::Arr(
                core.list()
                    .iter()
                    .filter(|s| identity.sees(s.tenant.as_deref()))
                    .map(|s| s.to_json())
                    .collect(),
            ),
        ),
        "result" => match job_of(&request) {
            Err(e) => error(e),
            Ok(job) => match visible(job) {
                Err(response) => response,
                Ok(()) => match core.result(job) {
                    None => error(format!("unknown job `{job}`")),
                    Some(None) => Json::obj()
                        .field("ok", true)
                        .field("done", false)
                        .field("result", Json::Null),
                    Some(Some(result)) => {
                        Json::obj().field("ok", true).field("done", true).field("result", result)
                    }
                },
            },
        },
        "watch" => match job_of(&request) {
            Err(e) => error(e),
            Ok(job) => {
                if let Err(response) = visible(job) {
                    return response;
                }
                watches.push((job.to_string(), 0));
                Json::obj().field("ok", true).field("watching", job)
            }
        },
        "cancel" => match job_of(&request) {
            Err(e) => error(e),
            Ok(job) => match visible(job) {
                Err(response) => response,
                // A queued job is already terminally cancelled; a running
                // one stops cooperatively at its next wave boundary.
                Ok(()) => match core.cancel(job) {
                    Ok(phase) => Json::obj().field("ok", true).field("job", job).field(
                        "state",
                        if phase == crate::spool::JobPhase::Cancelled {
                            "cancelled"
                        } else {
                            "cancelling"
                        },
                    ),
                    Err(e) => error(e),
                },
            },
        },
        op => error(format!("unknown op `{op}`")),
    }
}

fn job_of(request: &Json) -> Result<&str, String> {
    request
        .get("job")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a string `job` field".to_string())
}

fn error(message: String) -> Json {
    Json::obj().field("ok", false).field("error", message)
}

/// A running front-end: the reactor thread plus its bound address.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    /// Spawn the reactor on its own thread.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn spawn(core: Arc<ServiceCore>, listen: &str) -> io::Result<ServerHandle> {
        let server = Server::bind(core, listen)?;
        let addr = server.local_addr();
        let thread = std::thread::Builder::new()
            .name("rvz-service-reactor".to_string())
            .spawn(move || server.run())
            .map_err(io::Error::other)?;
        Ok(ServerHandle { addr, thread })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Join the reactor thread (call after [`ServiceCore::stop`]).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;

    #[test]
    fn accepted_client_streams_set_nodelay() {
        let core = ServiceCore::new(ServiceConfig::default()).expect("core");
        let mut server = Server::bind(core, "127.0.0.1:0").expect("bind");
        let _peer = TcpStream::connect(server.local_addr()).expect("connect");
        while server.conns.is_empty() {
            server.poll_once();
        }
        assert!(server.conns[0].stream.nodelay().expect("query TCP_NODELAY"));
    }
}

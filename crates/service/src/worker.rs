//! Fleet mode: the worker-host side of the worker protocol.
//!
//! A worker (`revizor-worker`) dials the coordinator's worker port,
//! registers, and then pulls **work units** — the same units the
//! in-process shards lease — one at a time: it sends `lease` (heartbeating
//! while it waits), receives a binary `grant` frame naming one target
//! group of a job plus a lease token and an optional sub-run checkpoint,
//! resolves the job's [`JobSpec`] into the unit's single-group
//! [`CampaignMatrix`], and steps the resulting
//! [`MatrixRun`](revizor::orchestrator::MatrixRun) wave by wave.  After
//! every wave it streams the sub-checkpoint (plus digest, lease token and
//! progress events) to the coordinator as a binary transfer frame and
//! blocks for the `ack` — so the coordinator's spool replica is never
//! more than one wave behind, and a worker that dies mid-unit loses at
//! most the wave it was computing.  When the unit's budget is exhausted
//! it ships the final checkpoint (`unit_done`) — the coordinator
//! reconstructs the cell reports from it — and leases again.  Control
//! frames (`register`, `lease`, `ack`, `cancel`, …) are JSON lines.
//!
//! An `ack` with `"revoked": true` (or a standalone `revoke` frame) means
//! the unit was stolen: the worker abandons it immediately and leases new
//! work.  Cancellation stays cooperative: a `cancel` frame is honored at
//! the next wave boundary, answered with a final `unit_cancelled` frame
//! carrying the stopping checkpoint.
//!
//! ## Fault injection (test-only)
//!
//! [`Worker::with_fault_hook`] installs a hook that fires at every wave
//! boundary with `(job id, wave index)` and decides a [`FaultAction`]:
//! continue, delay (models a slow host / delayed checkpoint ack), drop the
//! coordinator connection (models a network partition — the worker
//! reconnects and re-registers), or die (models a worker kill).  The chaos
//! harness (`tests/chaos.rs`) drives seeded schedules of these actions and
//! asserts the coordinator's final verdicts stay byte-identical through
//! all of them.  Production binaries never install a hook.
//!
//! [`CampaignMatrix`]: revizor::orchestrator::CampaignMatrix

use crate::core::{start_unit, EventCollector};
use crate::framing;
use crate::job::JobSpec;
use revizor::orchestrator::MatrixCheckpoint;
use rvz_bench::binfmt::{self, checkpoint_transfer_to_binary};
use rvz_bench::json::{parse, Json};
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// What the fault hook tells the worker loop to do at a wave boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: keep going.
    Continue,
    /// Sleep before proceeding (a slow host; since waves are ack-gated,
    /// this is also what a delayed checkpoint ack looks like end-to-end).
    Delay(Duration),
    /// Drop the coordinator connection mid-unit, then reconnect and
    /// re-register.  The coordinator releases the abandoned unit to the
    /// next idle worker at its last replicated checkpoint.
    DropConnection,
    /// Terminate the worker loop for good (a worker-host kill).
    Die,
}

/// The fault hook signature: `(job id, wave index about to run)`.
pub type FaultHook = Box<dyn FnMut(&str, usize) -> FaultAction + Send>;

/// Configuration of one worker host.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator worker-port address (`host:port`).
    pub coordinator: String,
    /// The name this worker registers under (shows up in job status).
    pub name: String,
    /// How long to keep retrying a failed connect (initial *and*
    /// reconnect) before giving up.  Lets workers start before the
    /// coordinator and survive coordinator restarts.
    pub retry_for: Duration,
}

impl WorkerConfig {
    /// A worker config with a process-unique default name.
    pub fn new(coordinator: impl Into<String>) -> WorkerConfig {
        WorkerConfig {
            coordinator: coordinator.into(),
            name: format!("worker-{}", std::process::id()),
            retry_for: Duration::from_secs(10),
        }
    }
}

/// How a unit ended, steering the outer connection loop.
enum Flow {
    /// Unit finished / abandoned cleanly: lease again on this connection.
    Continue,
    /// The connection is unusable (or a fault dropped it): reconnect.
    Reconnect,
    /// Shut down the worker loop.
    Exit,
}

/// One message read off the coordinator connection.
enum Msg {
    /// A JSON control frame (acks, revokes, cancels, shutdown).
    Json(Json),
    /// A parsed binary frame (a grant).
    Binary(binfmt::Frame),
}

/// A mixed-format (JSON lines + binary frames) connection to the
/// coordinator.
struct FrameConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameConn {
    /// Connect, retrying for up to `retry_for`.  The stream sets
    /// `TCP_NODELAY`: a wave transfer's tail and every control frame are
    /// small writes the coordinator answers.
    fn connect(addr: &str, retry_for: Duration) -> io::Result<FrameConn> {
        let deadline = Instant::now() + retry_for;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(FrameConn { stream, buf: Vec::new() });
                }
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Send one JSON frame.
    fn send(&mut self, doc: &Json) -> io::Result<()> {
        let mut line = doc.render();
        line.push('\n');
        self.stream.write_all(line.as_bytes())
    }

    /// Send one pre-encoded, self-delimiting binary frame.
    fn send_raw(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)
    }

    /// Pop the next complete message already buffered, if any.
    fn pop(&mut self) -> io::Result<Option<Msg>> {
        let popped =
            framing::next_frame(&mut self.buf).map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
        match popped {
            None => Ok(None),
            Some(framing::WireFrame::Json(line)) => parse(&line)
                .map(|doc| Some(Msg::Json(doc)))
                .map_err(|e| io::Error::new(ErrorKind::InvalidData, e)),
            Some(framing::WireFrame::Binary(bytes)) => binfmt::parse_frame(&bytes)
                .map(|frame| Some(Msg::Binary(frame)))
                .map_err(|e| io::Error::new(ErrorKind::InvalidData, e)),
        }
    }

    /// Read one message, blocking until a full frame arrives.
    fn read_frame(&mut self) -> io::Result<Msg> {
        loop {
            if let Some(msg) = self.pop()? {
                return Ok(msg);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Read one message, waiting at most `wait`; `Ok(None)` on timeout
    /// (used by the lease loop to interleave heartbeats while idle).
    fn read_frame_for(&mut self, wait: Duration) -> io::Result<Option<Msg>> {
        if let Some(msg) = self.pop()? {
            return Ok(Some(msg));
        }
        let deadline = Instant::now() + wait;
        self.stream.set_read_timeout(Some(wait))?;
        let result = loop {
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => break Err(io::Error::from(ErrorKind::UnexpectedEof)),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    match self.pop() {
                        Ok(None) => {}
                        Ok(Some(msg)) => break Ok(Some(msg)),
                        Err(e) => break Err(e),
                    }
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) => break Err(e),
            }
            if Instant::now() >= deadline {
                break Ok(None);
            }
        };
        self.stream.set_read_timeout(None)?;
        result
    }

    /// Read one message if one is already available, without blocking
    /// (used between waves to notice cancels and revokes promptly).
    fn try_read_frame(&mut self) -> io::Result<Option<Msg>> {
        if let Some(msg) = self.pop()? {
            return Ok(Some(msg));
        }
        // Nothing complete buffered: drain whatever the socket has.
        self.stream.set_nonblocking(true)?;
        let (_, closed) = framing::read_available(&mut self.stream, &mut self.buf, usize::MAX);
        self.stream.set_nonblocking(false)?;
        if closed {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        self.pop()
    }
}

/// One granted unit, as the coordinator's binary grant frame carries it.
struct Grant {
    /// The grant's routing fields (`job`, `target`, `lease`, `spec`).
    meta: Json,
    /// The grant frame itself.  Its checkpoint section is decoded inside
    /// [`Worker::run_unit`], so a decode failure reports `unit_failed`
    /// for the unit the meta names.
    frame: binfmt::Frame,
}

/// A worker host: connects to a coordinator and drives leased work units
/// (see the module docs).
pub struct Worker {
    config: WorkerConfig,
    hook: Option<FaultHook>,
}

impl Worker {
    /// A worker for the given configuration.
    pub fn new(config: WorkerConfig) -> Worker {
        Worker { config, hook: None }
    }

    /// Install a fault-injection hook (test-only; see the module docs).
    #[must_use]
    pub fn with_fault_hook(mut self, hook: FaultHook) -> Worker {
        self.hook = Some(hook);
        self
    }

    /// Run the worker loop: connect (with retries), register, and pull
    /// leased units until the coordinator shuts it down, the retry window
    /// closes with the coordinator unreachable, or a `Die` fault fires.
    ///
    /// # Errors
    /// Returns the final connect error once the retry window closes.
    pub fn run(mut self) -> io::Result<()> {
        'reconnect: loop {
            let mut conn = FrameConn::connect(&self.config.coordinator, self.config.retry_for)?;
            let register =
                Json::obj().field("op", "register").field("worker", self.config.name.as_str());
            if conn.send(&register).is_err() {
                continue;
            }
            loop {
                // Ask for work, then wait for the grant, heartbeating so
                // the coordinator knows this idle connection is alive.
                if conn.send(&Json::obj().field("op", "lease")).is_err() {
                    continue 'reconnect;
                }
                let grant = loop {
                    match conn.read_frame_for(Duration::from_millis(250)) {
                        Ok(Some(Msg::Json(frame))) => {
                            // `registered` acks and stragglers for units
                            // this worker no longer holds (stale acks,
                            // revokes, cancels) need no action.
                            if framing::op(&frame) == Some("shutdown") {
                                return Ok(());
                            }
                        }
                        Ok(Some(Msg::Binary(frame))) if frame.kind == binfmt::KIND_GRANT => {
                            match frame.json_section(binfmt::TAG_META, "grant meta") {
                                Ok(meta) => break Grant { meta, frame },
                                // A grant whose meta does not decode is a
                                // protocol bug; resync on a fresh
                                // connection.
                                Err(_) => continue 'reconnect,
                            }
                        }
                        // Other binary kinds are never coordinator→worker.
                        Ok(Some(Msg::Binary(_))) => {}
                        Ok(None) => {
                            if conn.send(&Json::obj().field("op", "heartbeat")).is_err() {
                                continue 'reconnect;
                            }
                        }
                        Err(_) => continue 'reconnect,
                    }
                };
                match self.run_unit(&mut conn, &grant) {
                    Flow::Continue => {}
                    Flow::Reconnect => continue 'reconnect,
                    Flow::Exit => return Ok(()),
                }
            }
        }
    }

    /// Drive one granted unit: step its single-group sub-run, replicate,
    /// ack-gate, honor cancels, revokes and injected faults.
    fn run_unit(&mut self, conn: &mut FrameConn, grant: &Grant) -> Flow {
        let meta = &grant.meta;
        let Some(job) = meta.get("job").and_then(Json::as_str).map(str::to_string) else {
            return Flow::Continue;
        };
        let Some(target) =
            meta.get("target").and_then(Json::as_u64).and_then(|t| u8::try_from(t).ok())
        else {
            return Flow::Continue;
        };
        let Some(lease) = meta.get("lease").and_then(Json::as_u64) else {
            return Flow::Continue;
        };
        let fail = |conn: &mut FrameConn, error: &str| {
            Self::report_bad_unit(conn, &job, target, lease, error)
        };
        let spec = match meta.get("spec") {
            None => return fail(conn, "grant carries no spec"),
            Some(s) => match JobSpec::from_json(s) {
                Ok(spec) => spec,
                Err(e) => return fail(conn, &e),
            },
        };
        let checkpoint = match grant.frame.section(binfmt::TAG_CHECKPOINT) {
            None => None,
            Some(_) => match grant.frame.checkpoint_section(binfmt::TAG_CHECKPOINT, "checkpoint") {
                Ok(cp) => Some(cp),
                Err(e) => return fail(conn, &e),
            },
        };
        let sub = match spec.unit_matrix(target) {
            Ok(sub) => sub,
            Err(e) => return fail(conn, &e),
        };
        let mut run = start_unit(&sub, &job, target, checkpoint.as_ref());

        let mut collector = EventCollector { job: job.clone(), events: Vec::new() };
        let mut cancelled = false;
        loop {
            match self.fault(&job, run.wave()) {
                FaultAction::Continue => {}
                FaultAction::Delay(d) => std::thread::sleep(d),
                FaultAction::DropConnection => return Flow::Reconnect,
                FaultAction::Die => return Flow::Exit,
            }
            // Notice cancels and revokes that arrived since the last ack.
            loop {
                match conn.try_read_frame() {
                    Ok(None) => break,
                    Ok(Some(Msg::Json(f))) => {
                        if Self::is_revoke(&f, &job, target) {
                            return Flow::Continue; // stolen: abandon now
                        }
                        Self::note_cancel(&f, &job, &mut cancelled);
                    }
                    // Binary frames mid-unit target some other lease.
                    Ok(Some(Msg::Binary(_))) => {}
                    Err(_) => return Flow::Reconnect,
                }
            }
            if cancelled {
                let stop = Self::transfer_frame(
                    &job,
                    &run.checkpoint(),
                    "unit_cancelled",
                    target,
                    lease,
                    None,
                );
                return match conn.send_raw(&stop) {
                    Ok(()) => Flow::Continue,
                    Err(_) => Flow::Reconnect,
                };
            }
            let more = run.step(&mut collector);
            if !more {
                break;
            }
            // Replicate the wave and block for the coordinator's ack (the
            // spool replica stays at most one wave behind).
            let wave = run.wave();
            let transfer = Self::transfer_frame(
                &job,
                &run.checkpoint(),
                "wave",
                target,
                lease,
                Some(std::mem::take(&mut collector.events)),
            );
            if conn.send_raw(&transfer).is_err() {
                return Flow::Reconnect;
            }
            loop {
                let reply = match conn.read_frame() {
                    Ok(Msg::Json(reply)) => reply,
                    // Binary frames are grants; none can target this unit.
                    Ok(Msg::Binary(_)) => continue,
                    Err(_) => return Flow::Reconnect,
                };
                match framing::op(&reply) {
                    Some("ack")
                        if reply.get("job").and_then(Json::as_str) == Some(job.as_str())
                            && reply.get("target").and_then(Json::as_u64)
                                == Some(u64::from(target))
                            && reply.get("wave").and_then(Json::as_u64)
                                == Some(wave as u64) =>
                    {
                        if reply.get("revoked").and_then(Json::as_bool) == Some(true) {
                            return Flow::Continue; // stolen: abandon now
                        }
                        break;
                    }
                    Some("shutdown") => return Flow::Exit,
                    _ => {
                        if Self::is_revoke(&reply, &job, target) {
                            return Flow::Continue;
                        }
                        Self::note_cancel(&reply, &job, &mut cancelled);
                    }
                }
            }
        }
        // Budget exhausted: the final checkpoint IS the unit's result —
        // the coordinator resumes it with zero steps to reconstruct the
        // exact cell reports, so no report is computed (or shipped) here.
        let done = Self::transfer_frame(
            &job,
            &run.checkpoint(),
            "unit_done",
            target,
            lease,
            Some(std::mem::take(&mut collector.events)),
        );
        match conn.send_raw(&done) {
            Ok(()) => Flow::Continue,
            Err(_) => Flow::Reconnect,
        }
    }

    /// Encode one checkpoint transfer (`wave` / `unit_done` /
    /// `unit_cancelled`) as a binary frame, ready to write.
    fn transfer_frame(
        job: &str,
        cp: &MatrixCheckpoint,
        op: &str,
        target: u8,
        lease: u64,
        events: Option<Vec<Json>>,
    ) -> Vec<u8> {
        let mut meta = Json::obj().field("op", op).field("target", target).field("lease", lease);
        if let Some(events) = events {
            meta = meta.field("events", Json::Arr(events));
        }
        checkpoint_transfer_to_binary(job, cp, &meta)
    }

    /// Is this frame a revoke for the unit this worker is driving?
    fn is_revoke(frame: &Json, job: &str, target: u8) -> bool {
        framing::op(frame) == Some("revoke")
            && frame.get("job").and_then(Json::as_str) == Some(job)
            && frame.get("target").and_then(Json::as_u64) == Some(u64::from(target))
    }

    /// Record a cancel frame for the current job.
    fn note_cancel(frame: &Json, job: &str, cancelled: &mut bool) {
        if framing::op(frame) == Some("cancel")
            && frame.get("job").and_then(Json::as_str) == Some(job)
        {
            *cancelled = true;
        }
    }

    /// Consult the fault hook (production workers always continue).
    fn fault(&mut self, job: &str, wave: usize) -> FaultAction {
        match &mut self.hook {
            Some(hook) => hook(job, wave),
            None => FaultAction::Continue,
        }
    }

    /// A unit this worker cannot run (undecodable spec or checkpoint —
    /// only a hand-edited spool can produce one): report it so the job
    /// fails visibly instead of bouncing between workers forever.
    fn report_bad_unit(
        conn: &mut FrameConn,
        job: &str,
        target: u8,
        lease: u64,
        error: &str,
    ) -> Flow {
        let failed = Json::obj()
            .field("op", "unit_failed")
            .field("job", job)
            .field("target", target)
            .field("lease", lease)
            .field("error", error);
        match conn.send(&failed) {
            Ok(()) => Flow::Continue,
            Err(_) => Flow::Reconnect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn coordinator_connections_set_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let conn = FrameConn::connect(&addr, Duration::ZERO).expect("connect");
        assert!(conn.stream.nodelay().expect("query TCP_NODELAY"));
    }
}

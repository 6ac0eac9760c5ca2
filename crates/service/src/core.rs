//! The service core: job table, unit queue and event fan-out.
//!
//! The core is transport-agnostic — the TCP front-end ([`crate::server`])
//! and the in-process [`ServiceHandle`](crate::ServiceHandle) both drive
//! this API.  Every job splits into relocatable work units, one per
//! target group of its matrix, queued on **one** global unit queue
//! (highest priority first, FIFO within a priority — never inverted by
//! placement).  Unit drivers lease units through one lease API —
//! in-process shard threads and remote fleet workers (through
//! [`crate::coordinator`]) alike — step each one
//! as an incremental [`MatrixRun`],
//! replicate a sub-checkpoint to the spool after every wave and publish
//! progress events to the job's event log.  Subscribers (watchers) replay
//! that log from any cursor, so late subscribers see the full history and
//! event delivery can never perturb verdicts.

use crate::job::JobSpec;
use crate::spool::{JobPhase, Spool, SpoolRecord, UnitPhase, UnitRecord};
use revizor::campaign::{CellEvent, ProgressObserver, RoundEvent};
use revizor::orchestrator::{CampaignMatrix, MatrixCheckpoint, MatrixReport, MatrixRun};
use rvz_bench::json::Json;
use rvz_bench::report::{matrix_cells_json, matrix_timing_json};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration of a service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of in-process shard threads.  Each is a unit driver on the
    /// fleet's lease API: all of them lease from **one** shared unit
    /// queue — highest priority first, FIFO within a priority — each
    /// driving one work unit (one target group of a job) at a time.
    /// Ignored in fleet mode ([`ServiceConfig::worker_listen`]).
    pub shards: usize,
    /// Spool directory for durable job state; `None` keeps everything in
    /// memory (jobs are lost when the process exits).
    pub spool: Option<PathBuf>,
    /// Keep at most this many terminal (done / cancelled) job records in
    /// the spool; `None` keeps all of them.  A long-lived server otherwise
    /// accretes one record per finished job forever (see
    /// [`crate::spool::Spool::with_retain`]).
    pub spool_retain: Option<usize>,
    /// TCP listen address for the JSON-lines front-end (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port); `None` runs in-process only.
    pub listen: Option<String>,
    /// Multi-host mode: TCP listen address for **worker hosts**
    /// (`revizor-worker`).  When set, the service runs as a *coordinator*:
    /// no local shard threads are spawned, and jobs are dispatched to
    /// connected workers instead (see [`crate::coordinator`]).
    pub worker_listen: Option<String>,
    /// Multi-host mode: how long a worker driving a work unit may go
    /// without sending any frame before the coordinator declares it
    /// silently partitioned — the connection is dropped and its units
    /// requeued from their last replicated sub-checkpoints.  Workers
    /// produce at least one frame per wave, so set this well above the
    /// longest expected wave; a spurious trip is *safe* (resume is
    /// byte-identical), it only wastes the stalled worker's wave.  Idle
    /// (leaseless) workers are exempt.
    pub worker_timeout: Duration,
    /// Fleet mode: how long a leased unit may go without an *accepted*
    /// checkpoint before an idle worker is allowed to steal it.  The
    /// original owner's lease is revoked and the unit resumes on the
    /// thief from the last replicated sub-checkpoint; the owner's
    /// now-stale frames are fenced by the lease token, so a slow host
    /// racing its own thief can never corrupt state (verdicts are
    /// byte-identical either way).
    pub steal_after: Duration,
    /// Backpressure watermark: [`ServiceCore::try_submit`] defers new jobs
    /// (with a retry-after hint) while the queued work-unit count is at or
    /// above this.  Leased units do not count — they are being worked.
    pub queue_watermark: usize,
    /// Indexed violation store directory (see [`rvz_store::Store`]): every
    /// finished job's violation cells are appended to it, deduplicated by
    /// minimized-gadget equivalence and queryable with `revizor-query`.
    /// `None` disables indexing.  Store writes happen *after* the result is
    /// computed and never touch it, so indexing can never perturb verdicts.
    pub store: Option<PathBuf>,
    /// Token-auth file for the client front-end: one `<token> <tenant>`
    /// pair per line (`#` comments and blank lines ignored).  When set,
    /// every client op except `ping` requires a valid token, submitted
    /// jobs are stamped with the token's tenant, and `list`/`status`
    /// (and every other job-addressed op) are scoped to that tenant.
    /// `None` runs the front-end open, exactly as before.
    pub token_file: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 2,
            spool: None,
            spool_retain: None,
            listen: None,
            worker_listen: None,
            worker_timeout: Duration::from_secs(120),
            steal_after: Duration::from_secs(30),
            queue_watermark: 1024,
            store: None,
            token_file: None,
        }
    }
}

/// One relocatable work unit: one target group of its job's matrix,
/// independently leasable, steppable and stealable.
struct UnitState {
    /// The Table 2 target id whose cell group this unit drives.
    target: u8,
    phase: UnitPhase,
    /// The unit driver currently holding the lease (a fleet worker host's
    /// registered name, or `shard-N` for an in-process shard).
    worker: Option<String>,
    /// Current lease token.  Minted fresh on every lease; every unit frame
    /// must quote it, so a stolen/released lease fences the old owner's
    /// in-flight frames (`0` = never leased).
    lease: u64,
    /// Last replicated sub-run checkpoint (the final one once `Done`);
    /// dropped once the job is terminal — the result then holds it all.
    checkpoint: Option<MatrixCheckpoint>,
    /// The wave of the last replicated checkpoint, kept for `status`
    /// after the checkpoint itself is dropped.
    wave: usize,
}

impl UnitState {
    fn new(target: u8, phase: UnitPhase, checkpoint: Option<MatrixCheckpoint>) -> UnitState {
        let wave = checkpoint.as_ref().map_or(0, |cp| cp.wave);
        UnitState { target, phase, worker: None, lease: 0, checkpoint, wave }
    }

    fn set_checkpoint(&mut self, checkpoint: MatrixCheckpoint) {
        self.wave = checkpoint.wave;
        self.checkpoint = Some(checkpoint);
    }
}

/// One job's in-memory state.
struct JobEntry {
    spec: JobSpec,
    shard: usize,
    phase: JobPhase,
    /// Append-only event log; watchers replay it by cursor.
    events: Vec<Json>,
    checkpoint: Option<MatrixCheckpoint>,
    /// The job's work units, one per target group, lazily materialized
    /// at the first lease (`None` while the job has never been leased).
    units: Option<Vec<UnitState>>,
    result: Option<Json>,
    /// A client asked for cancellation while the job was running; the
    /// unit drivers (shard threads or remote worker hosts) honor it at
    /// the next wave boundary.
    cancel_requested: bool,
    /// The unit driver that most recently leased part of the job
    /// (per-unit placement lives in `units`).
    worker: Option<String>,
    /// Bumped (under the core lock) every time a durable record of this
    /// job is built; persists are ordered by it so a stale record built
    /// just before a newer one can never overwrite it on disk.
    record_version: u64,
}

/// Everything behind the core's one lock.
struct CoreState {
    jobs: BTreeMap<String, JobEntry>,
    /// Submission order (the lease scan walks it; FIFO tie-break).
    order: Vec<String>,
    /// Bumped on every signalled state change (see
    /// [`ServiceCore::wait_for_change`]).
    changes: u64,
}

/// Per-unit placement of a job, for `status` responses.
#[derive(Debug, Clone)]
pub struct UnitStatus {
    /// The Table 2 target id whose cell group this unit drives.
    pub target: u8,
    /// Unit lifecycle phase.
    pub phase: UnitPhase,
    /// The unit driver currently holding the lease, if any (a worker
    /// host's name, or `shard-N` in-process).
    pub worker: Option<String>,
    /// Last replicated sub-run wave (0 before the first checkpoint).
    pub wave: usize,
}

/// A summary of one job, for `status` / `list` responses.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job identifier.
    pub job: String,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Informational placement label (job-id hash bucket; always 0 in
    /// fleet mode).  Scheduling is a single global priority queue —
    /// jobs are never pinned.
    pub shard: usize,
    /// Scheduling priority (higher drains first).
    pub priority: i64,
    /// The unit driver that most recently leased part of the job (a
    /// worker host's name, or `shard-N` in-process; see `units` for
    /// per-unit placement).
    pub worker: Option<String>,
    /// Number of matrix cells.
    pub cells: usize,
    /// Cells already finished (violation found; budget-exhausted cells
    /// close only when the whole job does).
    pub cells_finished: usize,
    /// Events published so far.
    pub events: usize,
    /// Per-unit placement, once the job's work units have materialized
    /// (at its first lease); empty before that.
    pub units: Vec<UnitStatus>,
    /// Owning tenant (token-auth mode; see [`crate::job::JobSpec::tenant`]).
    /// `None` for tenantless jobs, which every client may see.
    pub tenant: Option<String>,
}

impl JobStatus {
    /// The wire form of the summary.  The tenant field is emitted only
    /// when set, keeping open-mode responses in their pre-auth shape.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj()
            .field("job", self.job.as_str())
            .field("state", self.phase.label());
        if let Some(tenant) = &self.tenant {
            doc = doc.field("tenant", tenant.as_str());
        }
        let mut doc = doc
            .field("shard", self.shard)
            .field("priority", rvz_bench::report::i64_to_json(self.priority))
            .field("worker", self.worker.as_deref())
            .field("cells", self.cells)
            .field("cells_finished", self.cells_finished)
            .field("events", self.events);
        if !self.units.is_empty() {
            doc = doc.field(
                "units",
                Json::Arr(
                    self.units
                        .iter()
                        .map(|u| {
                            Json::obj()
                                .field("target", u.target)
                                .field("state", u.phase.label())
                                .field("worker", u.worker.as_deref())
                                .field("wave", u.wave)
                        })
                        .collect(),
                ),
            );
        }
        doc
    }
}

/// The backpressure hint attached to a deferred submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backpressure {
    /// Work units queued (not leased) across all live jobs at the time of
    /// the submission attempt.
    pub queued_units: usize,
    /// The configured watermark the count reached.
    pub watermark: usize,
    /// How long the client should wait before retrying.
    pub retry_after: Duration,
}

/// Why [`ServiceCore::try_submit`] did not accept a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitRejection {
    /// The spec does not resolve (unknown target/contract).
    Invalid(String),
    /// The fleet's queue is at the watermark: retry later.
    Backpressure(Backpressure),
}

/// A leased work unit, as handed to the coordinator for granting: the
/// unit's identity (job + target + lease token), the job spec the worker
/// resolves locally, and the sub-run checkpoint to resume from.
pub(crate) struct UnitGrant {
    pub(crate) job: String,
    pub(crate) target: u8,
    pub(crate) lease: u64,
    pub(crate) spec: JobSpec,
    pub(crate) checkpoint: Option<MatrixCheckpoint>,
}

/// How the core disposed of a unit-scoped worker frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnitDisposition {
    /// Stored/processed.
    Accepted,
    /// The quoted lease is no longer current (stolen, released, or the
    /// job went terminal): the sender must abandon the unit.
    Revoked,
    /// Valid lease but the frame is unacceptable (e.g. a wave replay);
    /// nothing was stored.
    Ignored,
}

/// The transport-agnostic service core (see the module docs).
pub struct ServiceCore {
    config: ServiceConfig,
    spool: Option<Spool>,
    /// Indexed violation store ([`ServiceConfig::store`]); written after a
    /// job's result is computed, off the verdict path.
    store: Option<rvz_store::Store>,
    /// Parsed [`ServiceConfig::token_file`]: token → tenant.  `None` runs
    /// the client front-end open (no auth).
    auth: Option<BTreeMap<String, String>>,
    state: Mutex<CoreState>,
    /// Notified on every state change: submissions (wakes workers), events
    /// and completions (wakes watchers, waiters and the reactors).
    changed: Condvar,
    stop: AtomicBool,
    counter: AtomicU64,
    /// Lease tokens (fleet mode), minted fresh per lease.  Process-global
    /// so a token can never repeat across jobs or steals — a stale frame
    /// quoting an old token is always detectably stale.
    lease_counter: AtomicU64,
    /// Global event sequence: every published event is stamped with a
    /// strictly increasing `seq`, so cross-job scheduling order (e.g.
    /// "the high-priority job started first") is observable from the logs.
    event_seq: AtomicU64,
    /// Per-job persist locks carrying the highest
    /// [`JobEntry::record_version`] written to the spool (see
    /// [`ServiceCore::persist`]).  Per job, not global: only same-job
    /// writes need ordering, and a single lock across file I/O would
    /// serialize every job's checkpoints behind each other.
    persisted: Mutex<BTreeMap<String, Arc<Mutex<u64>>>>,
}

impl ServiceCore {
    /// Create a core, loading (and re-queuing) any unfinished jobs from the
    /// spool.
    ///
    /// # Errors
    /// Propagates spool-directory creation failures.
    pub fn new(config: ServiceConfig) -> io::Result<Arc<ServiceCore>> {
        // In fleet mode jobs are dispatched to worker hosts, not
        // pinned to local shard threads: collapse to one nominal shard so
        // the wire-visible `shard` field is always 0 there.
        let mut config = config;
        if config.worker_listen.is_some() {
            config.shards = 1;
        }
        let spool = match &config.spool {
            Some(dir) => Some(Spool::open(dir)?.with_retain(config.spool_retain)),
            None => None,
        };
        let store = match &config.store {
            Some(dir) => Some(rvz_store::Store::open(dir)?),
            None => None,
        };
        let auth = match &config.token_file {
            Some(path) => Some(load_tokens(path)?),
            None => None,
        };
        let mut state = CoreState { jobs: BTreeMap::new(), order: Vec::new(), changes: 0 };
        let mut next_counter = 1u64;
        if let Some(spool) = &spool {
            let mut records = spool.load_all();
            // The directory scan is lexicographic, which is digest order,
            // not submission order (ids are `j<digest>-<counter hex>`, and
            // the unpadded hex counter itself misorders across widths).
            // Re-sort by the counter — it increases per submission — so
            // the restored `order` preserves the FIFO-within-priority
            // lease guarantee and the event `seq` re-stamp below really is
            // submission order.  Ids without a parseable counter sort
            // first, by name.
            records.sort_by_key(|r| (id_counter(&r.job), r.job.clone()));
            for record in records {
                let shard = shard_of(&record.job, config.shards);
                // Job ids end in `-<counter hex>`; keep allocating above the
                // highest loaded one so a restarted server can never reuse
                // (and overwrite) an existing job's id.
                if let Some(n) = id_counter(&record.job) {
                    next_counter = next_counter.max(n + 1);
                }
                let events = restored_events(&record);
                // Restored units come back leaseless (their owners died
                // with the server; the spool already demoted Leased to
                // Queued) with the lease counter reset — tokens only fence
                // frames within one server lifetime.
                let units = record.units.map(|units| {
                    units
                        .into_iter()
                        .map(|u| {
                            let mut unit = UnitState::new(u.target, u.phase, u.checkpoint);
                            // Terminal units keep no checkpoint, only the wave.
                            unit.wave = unit.wave.max(u.wave);
                            unit
                        })
                        .collect()
                });
                state.order.push(record.job.clone());
                state.jobs.insert(
                    record.job.clone(),
                    JobEntry {
                        spec: record.spec,
                        shard,
                        phase: record.phase,
                        events,
                        checkpoint: record.checkpoint,
                        units,
                        result: record.result,
                        cancel_requested: record.cancel_requested,
                        worker: None,
                        record_version: 0,
                    },
                );
            }
        }
        // Restored event logs are re-stamped from 0 in submission order.
        let mut seq = 0u64;
        for job in &state.order {
            if let Some(entry) = state.jobs.get_mut(job) {
                for event in &mut entry.events {
                    *event = std::mem::replace(event, Json::Null).field("seq", seq);
                    seq += 1;
                }
            }
        }
        let core = Arc::new(ServiceCore {
            config,
            spool,
            store,
            auth,
            state: Mutex::new(state),
            changed: Condvar::new(),
            stop: AtomicBool::new(false),
            counter: AtomicU64::new(next_counter),
            lease_counter: AtomicU64::new(1),
            event_seq: AtomicU64::new(seq),
            persisted: Mutex::new(BTreeMap::new()),
        });
        // A restored job whose cancel arrived just before the previous
        // server died comes back as Queued + cancel_requested; honor the
        // cancellation now instead of re-running (or stranding) the job.
        let pending_cancels: Vec<String> = {
            let state = core.state.lock().expect("core lock");
            state
                .jobs
                .iter()
                .filter(|(_, e)| e.phase == JobPhase::Queued && e.cancel_requested)
                .map(|(job, _)| job.clone())
                .collect()
        };
        for job in pending_cancels {
            core.finish_cancelled(&job);
        }
        // A job restored with every unit already Done died between its
        // last unit finishing and the result persisting; nothing will ever
        // lease it again, so reconstruct and complete it now.
        let pending_done: Vec<String> = {
            let state = core.state.lock().expect("core lock");
            state
                .jobs
                .iter()
                .filter(|(_, e)| {
                    !e.phase.terminal()
                        && e.units.as_ref().is_some_and(|units| {
                            !units.is_empty()
                                && units.iter().all(|u| u.phase == UnitPhase::Done)
                        })
                })
                .map(|(job, _)| job.clone())
                .collect()
        };
        for job in pending_done {
            core.finalize_units(&job);
        }
        Ok(core)
    }

    /// The instance configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Has [`ServiceCore::stop`] been requested?
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Ask workers (and the front-end) to stop.  Workers finish their
    /// current wave, persist a checkpoint and exit; unfinished jobs stay
    /// resumable in the spool.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.signal(&mut self.state.lock().expect("core lock"));
    }

    /// Record a state change and wake everything waiting on `changed`.
    /// Takes the locked state, so the bump and the wake-up are atomic with
    /// respect to a waiter's check.
    fn signal(&self, state: &mut CoreState) {
        state.changes += 1;
        self.changed.notify_all();
    }

    /// The reactors' idle wait: block until the core changes (a
    /// submission, event, checkpoint, completion, cancellation or stop) or
    /// `timeout` passes.  `seen` is the change count the caller observed at
    /// its previous wait and is updated here; a change since then returns
    /// at once, so one that lands while the caller polls its sockets is
    /// never slept through.
    pub(crate) fn wait_for_change(&self, seen: &mut u64, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("core lock");
        while state.changes == *seen {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            state = self.changed.wait_timeout(state, left).expect("core lock").0;
        }
        *seen = state.changes;
    }

    /// Submit a job.  The spec is validated (targets/contracts must
    /// resolve) and persisted before the job id is returned.  Never
    /// backpressured — admin/in-process submissions bypass the watermark;
    /// clients racing fleet capacity go through
    /// [`ServiceCore::try_submit`].
    ///
    /// # Errors
    /// Returns a message for invalid specs.
    pub fn submit(&self, spec: JobSpec) -> Result<String, String> {
        // Resolve eagerly so a bad spec fails at the submission boundary,
        // not inside a worker.
        spec.to_matrix()?;
        Ok(self.accept_submission(spec))
    }

    /// Submit a job, honoring the backpressure watermark: while the queued
    /// (not leased) work-unit count across live jobs is at or above
    /// [`ServiceConfig::queue_watermark`], the submission is deferred with
    /// a retry-after hint instead of queueing unbounded work.
    ///
    /// # Errors
    /// [`SubmitRejection::Invalid`] for bad specs,
    /// [`SubmitRejection::Backpressure`] for a full queue.
    pub fn try_submit(&self, spec: JobSpec) -> Result<String, SubmitRejection> {
        spec.to_matrix().map_err(SubmitRejection::Invalid)?;
        let queued_units = {
            let state = self.state.lock().expect("core lock");
            state
                .jobs
                .values()
                .filter(|e| !e.phase.terminal())
                .map(|e| match &e.units {
                    // Materialized: exactly the units still waiting.
                    Some(units) =>
                        units.iter().filter(|u| u.phase == UnitPhase::Queued).count(),
                    // Never leased: the job will split into one unit per
                    // target group.
                    None => e.spec.group_targets().len(),
                })
                .sum::<usize>()
        };
        let watermark = self.config.queue_watermark.max(1);
        if queued_units >= watermark {
            // The hint scales with the overshoot (capped at a minute):
            // deeper queues take longer to drain, and a fixed hint would
            // make every deferred client retry in lockstep.
            let overshoot = (queued_units - watermark + 1).min(240);
            return Err(SubmitRejection::Backpressure(Backpressure {
                queued_units,
                watermark,
                retry_after: Duration::from_millis(250 * overshoot as u64),
            }));
        }
        Ok(self.accept_submission(spec))
    }

    /// Queue a pre-validated spec: mint the id, persist, insert.
    fn accept_submission(&self, spec: JobSpec) -> String {
        let digest = fnv(spec.to_json().render().as_bytes());
        let job = loop {
            // The counter is process-unique and seeded above every id
            // loaded from the spool, so collisions are only possible with
            // hand-named spool files — skip over those too.
            let job = format!("j{digest:x}-{:x}", self.counter.fetch_add(1, Ordering::SeqCst));
            if !self.state.lock().expect("core lock").jobs.contains_key(&job) {
                break job;
            }
        };
        let shard = shard_of(&job, self.config.shards);
        let mut entry = JobEntry {
            spec,
            shard,
            phase: JobPhase::Queued,
            events: Vec::new(),
            checkpoint: None,
            units: None,
            result: None,
            cancel_requested: false,
            worker: None,
            record_version: 0,
        };
        let (record, version) = Self::record_of(&job, &mut entry);
        self.persist(&record, version);
        let mut state = self.state.lock().expect("core lock");
        state.order.push(job.clone());
        state.jobs.insert(job.clone(), entry);
        self.signal(&mut state);
        job
    }

    /// A summary of one job, if known.
    pub fn status(&self, job: &str) -> Option<JobStatus> {
        let state = self.state.lock().expect("core lock");
        state.jobs.get(job).map(|e| summarize(job, e))
    }

    /// Summaries of all jobs, in submission order.
    pub fn list(&self) -> Vec<JobStatus> {
        let state = self.state.lock().expect("core lock");
        state
            .order
            .iter()
            .filter_map(|job| state.jobs.get(job).map(|e| summarize(job, e)))
            .collect()
    }

    /// The result payload of a finished job.  `None` = unknown job,
    /// `Some(None)` = known but not finished.
    #[allow(clippy::option_option)]
    pub fn result(&self, job: &str) -> Option<Option<Json>> {
        let state = self.state.lock().expect("core lock");
        state.jobs.get(job).map(|e| e.result.clone())
    }

    /// Events `from..` of a job's log (empty when none are new).  `None`
    /// for unknown jobs.
    pub fn events_from(&self, job: &str, from: usize) -> Option<Vec<Json>> {
        let state = self.state.lock().expect("core lock");
        state.jobs.get(job).map(|e| e.events.get(from..).unwrap_or_default().to_vec())
    }

    /// Block until the job finishes (or the core stops); returns its result
    /// payload.
    ///
    /// # Errors
    /// Returns a message for unknown jobs or when the core stops first.
    pub fn wait(&self, job: &str) -> Result<Json, String> {
        let mut state = self.state.lock().expect("core lock");
        loop {
            match state.jobs.get(job) {
                None => return Err(format!("unknown job `{job}`")),
                Some(e) => {
                    if let Some(result) = &e.result {
                        return Ok(result.clone());
                    }
                }
            }
            if self.stopped() {
                return Err("service stopped before the job finished".to_string());
            }
            let (next, _) = self
                .changed
                .wait_timeout(state, Duration::from_millis(200))
                .expect("core lock");
            state = next;
        }
    }

    /// Build the durable record of a job, stamped with the next record
    /// version (callers persist it *outside* the core lock — checkpoint
    /// documents carry whole violation reports, and file I/O under the
    /// lock would stall every client-facing call).
    fn record_of(job: &str, entry: &mut JobEntry) -> (SpoolRecord, u64) {
        entry.record_version += 1;
        let record = SpoolRecord {
            job: job.to_string(),
            spec: entry.spec.clone(),
            phase: entry.phase,
            checkpoint: entry.checkpoint.clone(),
            units: entry.units.as_ref().map(|units| {
                units
                    .iter()
                    .map(|u| UnitRecord {
                        target: u.target,
                        phase: u.phase,
                        wave: u.wave,
                        checkpoint: u.checkpoint.clone(),
                    })
                    .collect()
            }),
            result: entry.result.clone(),
            cancel_requested: entry.cancel_requested,
        };
        (record, entry.record_version)
    }

    /// Write one record to the spool (core lock NOT held).  Writes are
    /// ordered by record version: two threads can build records for the
    /// same job back to back under the core lock and then race to the
    /// file, and without the ordering the stale one could win the rename
    /// and roll back durable state (e.g. a freshly persisted
    /// `cancel_requested` flag, which must survive a server kill).
    fn persist(&self, record: &SpoolRecord, version: u64) {
        if self.spool.is_none() {
            return;
        }
        // The map lock is held only to fetch the job's own lock; the file
        // write happens under the *per-job* lock, so unrelated jobs (and
        // submit() on the reactor thread) never wait on each other's I/O.
        let job_lock = {
            let mut persisted = self.persisted.lock().expect("persist map lock");
            Arc::clone(persisted.entry(record.job.clone()).or_default())
        };
        let mut last = job_lock.lock().expect("persist job lock");
        if version <= *last {
            return; // a newer record already reached the disk
        }
        *last = version;
        let spool = self.spool.as_ref().expect("checked above");
        if let Err(e) = spool.save(record) {
            eprintln!("spool: failed to persist job {}: {e}", record.job);
        }
    }

    /// Hand a running job back to the queue once none of its units is
    /// leased any more (their drivers released them — a worker host died,
    /// the server is stopping).  Each unit keeps its last replicated
    /// sub-checkpoint, so the next lease resumes it from there with
    /// byte-identical verdicts.  A job with a pending cancellation is
    /// cancelled terminally instead of requeued — re-dispatching it would
    /// run waves the client already cancelled.
    fn requeue_interrupted(&self, job: &str) {
        let record = {
            let mut state = self.state.lock().expect("core lock");
            let Some(entry) = state.jobs.get_mut(job) else { return };
            if entry.phase != JobPhase::Running {
                return;
            }
            if entry.cancel_requested {
                drop(state);
                self.finish_cancelled(job);
                return;
            }
            entry.phase = JobPhase::Queued;
            entry.worker = None;
            Self::record_of(job, entry)
        };
        let (record, version) = record;
        self.persist(&record, version);
        self.signal(&mut self.state.lock().expect("core lock"));
    }

    /// Lease the best queued work unit to the unit driver `worker` (a
    /// fleet worker host or an in-process shard): a queued unit of the
    /// highest-priority job that has one, FIFO within a priority — every
    /// idle driver takes the globally best unit from the **one** queue, so
    /// the priority guarantee is never inverted by placement.  A job's
    /// units are lazily split out of its whole-matrix checkpoint on first
    /// lease.  Mints a fresh lease token; every frame the driver sends for
    /// the unit must quote it.
    pub(crate) fn lease_unit(&self, worker: &str) -> Option<UnitGrant> {
        let (grant, record, cancelled, empty_job) = {
            let mut state = self.state.lock().expect("core lock");
            let mut cancelled: Vec<String> = Vec::new();
            // `order` is submission order; keeping only *strictly* higher
            // priorities picks the earliest submission within the winning
            // priority (FIFO tie-break).
            let mut best: Option<(&String, i64)> = None;
            for job in &state.order {
                let Some(e) = state.jobs.get(job) else { continue };
                if e.phase.terminal() {
                    continue;
                }
                if e.cancel_requested {
                    // A cancelled job must never lease out more units; one
                    // no driver holds a unit of (the cancel raced a
                    // requeue) is terminally cancelled right here.
                    if !has_leased_unit(e) {
                        cancelled.push(job.clone());
                    }
                    continue;
                }
                let has_queued = match &e.units {
                    Some(units) => units.iter().any(|u| u.phase == UnitPhase::Queued),
                    None => e.phase == JobPhase::Queued,
                };
                if has_queued && best.is_none_or(|(_, p)| e.spec.priority > p) {
                    best = Some((job, e.spec.priority));
                }
            }
            match best {
                None => (None, None, cancelled, None),
                Some((job, _)) => {
                    let job = job.clone();
                    let entry = state.jobs.get_mut(&job).expect("found above");
                    let units = entry.units.get_or_insert_with(|| {
                        materialize_units(&job, &entry.spec, entry.checkpoint.as_ref())
                    });
                    // A cell-less spec splits into zero units: nothing to
                    // lease, but the job must still complete (vacuously,
                    // below).
                    let empty = units.is_empty();
                    let grant =
                        units.iter_mut().find(|u| u.phase == UnitPhase::Queued).map(|unit| {
                            let lease = self.lease_counter.fetch_add(1, Ordering::SeqCst);
                            unit.phase = UnitPhase::Leased;
                            unit.worker = Some(worker.to_string());
                            unit.lease = lease;
                            UnitGrant {
                                job: job.clone(),
                                target: unit.target,
                                lease,
                                spec: entry.spec.clone(),
                                checkpoint: unit.checkpoint.clone(),
                            }
                        });
                    // Leased (or about to vacuously complete): either way
                    // the job left the queue.
                    entry.phase = JobPhase::Running;
                    if grant.is_some() {
                        entry.worker = Some(worker.to_string());
                    }
                    let record = Self::record_of(&job, entry);
                    (grant, Some(record), cancelled, empty.then_some(job))
                }
            }
        };
        for job in cancelled {
            self.finish_cancelled(&job);
        }
        if let Some(job) = empty_job {
            self.finalize_units(&job);
        }
        let (record, version) = record?;
        self.persist(&record, version);
        grant
    }

    /// Store a replicated sub-run checkpoint for a leased unit.  The
    /// quoted lease must be current ([`UnitDisposition::Revoked`]
    /// otherwise — the unit was stolen, released or its job went
    /// terminal); wave numbers must strictly increase per unit
    /// ([`UnitDisposition::Ignored`] for replays, nothing stored).
    pub(crate) fn save_unit_checkpoint(
        &self,
        job: &str,
        target: u8,
        lease: u64,
        checkpoint: MatrixCheckpoint,
    ) -> UnitDisposition {
        let record = {
            let mut state = self.state.lock().expect("core lock");
            let Some(entry) = state.jobs.get_mut(job) else {
                return UnitDisposition::Revoked;
            };
            if entry.phase.terminal() {
                return UnitDisposition::Revoked;
            }
            let Some(unit) = entry
                .units
                .as_mut()
                .and_then(|units| units.iter_mut().find(|u| u.target == target))
            else {
                return UnitDisposition::Revoked;
            };
            if unit.lease != lease || unit.phase != UnitPhase::Leased {
                return UnitDisposition::Revoked;
            }
            if unit.checkpoint.as_ref().is_some_and(|old| checkpoint.wave <= old.wave) {
                return UnitDisposition::Ignored;
            }
            unit.set_checkpoint(checkpoint);
            refresh_merged_checkpoint(job, entry);
            Self::record_of(job, entry)
        };
        let (record, version) = record;
        self.persist(&record, version);
        self.signal(&mut self.state.lock().expect("core lock"));
        UnitDisposition::Accepted
    }

    /// Finish a leased unit: store its final sub-checkpoint, publish the
    /// worker's trailing events, and — when this was the job's last open
    /// unit — reconstruct and publish the job result.  Any wave is
    /// accepted on a valid lease (a unit can finish without ever
    /// checkpointing mid-run).
    pub(crate) fn complete_unit(
        &self,
        job: &str,
        target: u8,
        lease: u64,
        checkpoint: MatrixCheckpoint,
        events: Vec<Json>,
    ) -> UnitDisposition {
        let (record, all_done) = {
            let mut state = self.state.lock().expect("core lock");
            let Some(entry) = state.jobs.get_mut(job) else {
                return UnitDisposition::Revoked;
            };
            if entry.phase.terminal() {
                return UnitDisposition::Revoked;
            }
            let Some(units) = entry.units.as_mut() else {
                return UnitDisposition::Revoked;
            };
            let Some(unit) = units.iter_mut().find(|u| u.target == target) else {
                return UnitDisposition::Revoked;
            };
            if unit.lease != lease || unit.phase != UnitPhase::Leased {
                return UnitDisposition::Revoked;
            }
            unit.phase = UnitPhase::Done;
            unit.worker = None;
            unit.set_checkpoint(checkpoint);
            let all_done = units.iter().all(|u| u.phase == UnitPhase::Done);
            refresh_merged_checkpoint(job, entry);
            (Self::record_of(job, entry), all_done)
        };
        // Trailing events precede the reconstruction's closing events.
        self.publish(job, events);
        let (record, version) = record;
        self.persist(&record, version);
        if all_done {
            self.finalize_units(job);
        }
        UnitDisposition::Accepted
    }

    /// A worker honored a cancellation for its leased unit: store where it
    /// stopped and release the lease.  When no other unit of the job is
    /// still leased, the job itself leaves `Running` (terminally cancelled
    /// when the cancel is still pending — the usual case — or requeued).
    pub(crate) fn cancel_unit(
        &self,
        job: &str,
        target: u8,
        lease: u64,
        checkpoint: Option<MatrixCheckpoint>,
    ) {
        let Some((record, none_leased)) = self.release_unit_inner(job, target, lease, checkpoint)
        else {
            return;
        };
        let (record, version) = record;
        self.persist(&record, version);
        if none_leased {
            self.requeue_interrupted(job);
        }
    }

    /// Revoke a unit's lease without new progress (its worker died or is
    /// being stolen from): the unit requeues at its last replicated
    /// sub-checkpoint.  The old owner's in-flight frames are fenced — they
    /// quote a lease that no longer matches a `Leased` unit.
    pub(crate) fn release_unit(&self, job: &str, target: u8, lease: u64) {
        let Some((record, none_leased)) = self.release_unit_inner(job, target, lease, None)
        else {
            return;
        };
        let (record, version) = record;
        self.persist(&record, version);
        if none_leased {
            self.requeue_interrupted(job);
        }
    }

    /// Release every `Leased` unit whose `(job, target, lease)` is not in
    /// `live` — the set of leases actually held by a connected worker.
    /// The core never re-leases a unit that is not `Queued`, so a lease
    /// with no owning connection would wedge its job forever, silently;
    /// this sweep makes that state self-healing no matter how it arose
    /// (a worker that abandoned a grant without a frame the coordinator
    /// kept, a peer speaking an older protocol, a future desync bug).
    /// Returns the released `(job, target)` pairs for logging.
    pub(crate) fn reconcile_leases(&self, live: &[(String, u8, u64)]) -> Vec<(String, u8)> {
        let orphaned: Vec<(String, u8, u64)> = {
            let state = self.state.lock().expect("core lock");
            state
                .jobs
                .iter()
                .filter(|(_, e)| !e.phase.terminal())
                .flat_map(|(job, e)| {
                    e.units.iter().flatten().filter(|u| u.phase == UnitPhase::Leased).filter_map(
                        move |u| {
                            let owned = live
                                .iter()
                                .any(|(j, t, l)| j == job && *t == u.target && *l == u.lease);
                            if owned {
                                None
                            } else {
                                Some((job.clone(), u.target, u.lease))
                            }
                        },
                    )
                })
                .collect()
        };
        let mut released = Vec::with_capacity(orphaned.len());
        for (job, target, lease) in orphaned {
            self.release_unit(&job, target, lease);
            released.push((job, target));
        }
        released
    }

    /// Shared lease-release body: unit back to `Queued` (optionally
    /// recording a final position), report whether the job now has no
    /// leased units left.  `None` when the lease is not current.
    fn release_unit_inner(
        &self,
        job: &str,
        target: u8,
        lease: u64,
        checkpoint: Option<MatrixCheckpoint>,
    ) -> Option<((SpoolRecord, u64), bool)> {
        let mut state = self.state.lock().expect("core lock");
        let entry = state.jobs.get_mut(job)?;
        if entry.phase.terminal() {
            return None;
        }
        let units = entry.units.as_mut()?;
        let unit = units.iter_mut().find(|u| u.target == target)?;
        if unit.lease != lease || unit.phase != UnitPhase::Leased {
            return None;
        }
        unit.phase = UnitPhase::Queued;
        unit.worker = None;
        if let Some(checkpoint) = checkpoint {
            unit.set_checkpoint(checkpoint);
        }
        let none_leased = units.iter().all(|u| u.phase != UnitPhase::Leased);
        refresh_merged_checkpoint(job, entry);
        Some((Self::record_of(job, entry), none_leased))
    }

    /// A worker could not run its leased unit at all (the spec no longer
    /// resolves on that host, or the granted checkpoint was rejected):
    /// fail the whole job.  Lease-fenced like every other unit frame, so a
    /// stale owner cannot fail a job its thief is completing.
    pub(crate) fn fail_unit(&self, job: &str, target: u8, lease: u64, error: &str) {
        let valid = {
            let state = self.state.lock().expect("core lock");
            state.jobs.get(job).is_some_and(|e| {
                !e.phase.terminal()
                    && e.units.as_ref().is_some_and(|units| {
                        units
                            .iter()
                            .any(|u| u.target == target && u.lease == lease && u.phase == UnitPhase::Leased)
                    })
            })
        };
        if valid {
            self.complete(job, Json::obj().field("job", job).field("error", error));
        }
    }

    /// All units of the job are `Done`: reconstruct the final
    /// [`MatrixReport`] from the per-unit final checkpoints — resuming
    /// each sub-run at its final checkpoint and closing it reproduces the
    /// exact per-cell reports an in-process run yields — publish the
    /// closing cell events, and complete the job.  No-op unless every unit
    /// really is `Done` (so a straggler can never finish a job early).
    fn finalize_units(&self, job: &str) {
        let snapshot = {
            let state = self.state.lock().expect("core lock");
            let Some(entry) = state.jobs.get(job) else { return };
            if entry.phase.terminal() {
                return;
            }
            let Some(units) = entry.units.as_ref() else { return };
            if !units.iter().all(|u| u.phase == UnitPhase::Done) {
                return;
            }
            (
                entry.spec.clone(),
                units.iter().map(|u| u.checkpoint.clone()).collect::<Vec<_>>(),
            )
        };
        let (spec, checkpoints) = snapshot;
        let mut collector = EventCollector { job: job.to_string(), events: Vec::new() };
        let outcome: Result<MatrixReport, String> = (|| {
            let matrix = spec.to_matrix()?;
            let subs = matrix.group_matrices();
            if subs.len() != checkpoints.len() {
                return Err(format!(
                    "{} finished units but the matrix splits into {} groups",
                    checkpoints.len(),
                    subs.len()
                ));
            }
            let mut reports = Vec::with_capacity(subs.len());
            for (sub, checkpoint) in subs.iter().zip(checkpoints) {
                let checkpoint =
                    checkpoint.ok_or("a unit finished without a final checkpoint")?;
                let run = sub
                    .resume(&checkpoint)
                    .map_err(|e| format!("final sub-checkpoint rejected: {e}"))?;
                reports.push(run.finish(&mut collector));
            }
            matrix.merge_reports(reports)
        })();
        match outcome {
            Ok(report) => {
                self.publish(job, std::mem::take(&mut collector.events));
                self.index_result(job, &report);
                self.complete(job, job_result_json(job, &spec, &report));
            }
            Err(e) => {
                // Only a hand-edited spool (or a codec bug) gets here.
                let error = format!("result reconstruction failed: {e}");
                self.complete(job, Json::obj().field("job", job).field("error", error.as_str()));
            }
        }
    }

    /// Ask for a job's cancellation.  Jobs no driver holds a unit of
    /// (queued, or between units) cancel immediately; running jobs cancel
    /// cooperatively at their units' next wave boundary (the returned
    /// phase is still `Running` until then).  Terminal jobs are rejected.
    ///
    /// # Errors
    /// Returns a message for unknown or already-finished jobs.
    pub fn cancel(&self, job: &str) -> Result<JobPhase, String> {
        // `Some(record)` = being driven (cooperative cancel; persist the
        // flag), `None` = no unit leased (cancel immediately).
        let cooperative: Option<(SpoolRecord, u64)> = {
            let mut state = self.state.lock().expect("core lock");
            let entry = state.jobs.get_mut(job).ok_or_else(|| format!("unknown job `{job}`"))?;
            match entry.phase {
                JobPhase::Done => return Err(format!("job `{job}` already finished")),
                JobPhase::Cancelled => return Ok(JobPhase::Cancelled),
                JobPhase::Queued | JobPhase::Running if !has_leased_unit(entry) => {
                    // Flag it under the SAME lock as the lease observation:
                    // if a lease slips in between this lock and the
                    // `finish_cancelled` below, it sees the flag and
                    // cancels instead of dispatching — without it, the job
                    // racing a lease would run to completion behind its
                    // own cancelled `done` event.
                    entry.cancel_requested = true;
                    None
                }
                JobPhase::Queued | JobPhase::Running => {
                    entry.cancel_requested = true;
                    // Persisted so the cancellation survives a server kill
                    // before the next wave boundary.
                    Some(Self::record_of(job, entry))
                }
            }
        };
        match cooperative {
            None => {
                self.finish_cancelled(job);
                Ok(JobPhase::Cancelled)
            }
            Some((record, version)) => {
                self.persist(&record, version);
                self.signal(&mut self.state.lock().expect("core lock"));
                Ok(JobPhase::Running)
            }
        }
    }

    /// Has a cancellation been requested for this (running) job?
    pub fn cancel_requested(&self, job: &str) -> bool {
        let state = self.state.lock().expect("core lock");
        state.jobs.get(job).is_some_and(|e| e.cancel_requested && !e.phase.terminal())
    }

    /// Terminally cancel a job: store the `cancelled` result payload and
    /// publish the terminating `done` event.  The merged checkpoint stays
    /// as the stopping point.  Reached once the last unit driver honored
    /// the cooperative cancel — or directly for jobs no driver holds.
    pub(crate) fn finish_cancelled(&self, job: &str) {
        let result = Json::obj().field("job", job).field("cancelled", true);
        let done = Json::obj()
            .field("event", "done")
            .field("job", job)
            .field("cancelled", true)
            .field("result", result.clone());
        let record = {
            let mut state = self.state.lock().expect("core lock");
            let Some(entry) = state.jobs.get_mut(job) else { return };
            if entry.phase.terminal() {
                return;
            }
            entry.phase = JobPhase::Cancelled;
            entry.cancel_requested = false;
            entry.worker = None;
            entry.result = Some(result);
            drop_unit_checkpoints(entry);
            let done = self.stamp(done);
            entry.events.push(done);
            Self::record_of(job, entry)
        };
        let (record, version) = record;
        self.persist(&record, version);
        self.signal(&mut self.state.lock().expect("core lock"));
    }

    /// Stamp an event with the next global sequence number.
    fn stamp(&self, event: Json) -> Json {
        event.field("seq", self.event_seq.fetch_add(1, Ordering::SeqCst))
    }

    /// Append events to a job's log (each stamped with the global `seq`).
    /// Terminal jobs accept no further events: their `done` line stays the
    /// last one watchers ever see, even if a straggling driver (one that
    /// raced a cancellation) is still producing.
    pub(crate) fn publish(&self, job: &str, events: Vec<Json>) {
        if events.is_empty() {
            return;
        }
        let mut state = self.state.lock().expect("core lock");
        if let Some(entry) = state.jobs.get_mut(job) {
            if entry.phase.terminal() {
                return;
            }
            for event in events {
                let event = self.stamp(event);
                entry.events.push(event);
            }
        }
        self.signal(&mut state);
    }

    /// Finish a job: store the result, drop the checkpoints, publish the
    /// `done` event.
    pub(crate) fn complete(&self, job: &str, result: Json) {
        let done = Json::obj()
            .field("event", "done")
            .field("job", job)
            .field("result", result.clone());
        let record = {
            let mut state = self.state.lock().expect("core lock");
            let Some(entry) = state.jobs.get_mut(job) else { return };
            if entry.phase.terminal() {
                // A result racing a cancellation: first terminal state wins.
                return;
            }
            entry.phase = JobPhase::Done;
            entry.result = Some(result);
            entry.checkpoint = None;
            entry.worker = None;
            drop_unit_checkpoints(entry);
            let done = self.stamp(done);
            entry.events.push(done);
            let record = Self::record_of(job, entry);
            // Wake watchers now, like `publish`: the `done` line is in the
            // log already, and the terminal record (which carries the
            // whole result) can take milliseconds to write.
            self.signal(&mut state);
            record
        };
        let (record, version) = record;
        self.persist(&record, version);
    }

    /// The body of one in-process shard thread: a unit driver on the same
    /// lease API the fleet's worker hosts use — lease a unit, drive it,
    /// repeat — until the core stops.
    pub(crate) fn run_shard(&self, shard: usize) {
        let name = format!("shard-{shard}");
        while !self.stopped() {
            match self.lease_unit(&name) {
                Some(grant) => self.drive_unit(grant),
                None => {
                    // Idle: wait for a submission or a released unit (or
                    // stop).
                    let state = self.state.lock().expect("core lock");
                    let _ = self
                        .changed
                        .wait_timeout(state, Duration::from_millis(100))
                        .expect("core lock");
                }
            }
        }
    }

    /// Drive one leased unit in-process: step its single-group sub-run,
    /// replicating a checkpoint after every wave, until the unit finishes
    /// (`complete_unit`), its job is cancelled (`cancel_unit`), the core
    /// stops (`release_unit` — the unit resumes from its last wave on the
    /// next server) or the lease is revoked (the job went terminal).
    fn drive_unit(&self, grant: UnitGrant) {
        let UnitGrant { job, target, lease, spec, checkpoint } = grant;
        let sub = match spec.unit_matrix(target) {
            Ok(sub) => sub,
            Err(e) => {
                // Validated at submit; only a hand-edited spool reaches here.
                self.fail_unit(&job, target, lease, &e);
                return;
            }
        };
        let mut run = start_unit(&sub, &job, target, checkpoint.as_ref());
        let mut collector = EventCollector { job: job.clone(), events: Vec::new() };
        loop {
            if self.stopped() {
                self.release_unit(&job, target, lease);
                return;
            }
            if self.cancel_requested(&job) {
                self.cancel_unit(&job, target, lease, Some(run.checkpoint()));
                return;
            }
            if !run.step(&mut collector) {
                break;
            }
            // Events first: a terminal job drops them anyway, and a
            // watcher sees the wave before its spool write.
            self.publish(&job, std::mem::take(&mut collector.events));
            if self.save_unit_checkpoint(&job, target, lease, run.checkpoint())
                == UnitDisposition::Revoked
            {
                return;
            }
        }
        self.complete_unit(&job, target, lease, run.checkpoint(), collector.events);
    }

    /// Append a finished job's violation cells to the indexed store (a
    /// no-op without [`ServiceConfig::store`]).  Indexing failures are
    /// logged, never propagated: the index is a derived view and must not
    /// affect job results.
    fn index_result(&self, job: &str, report: &MatrixReport) {
        let Some(store) = &self.store else { return };
        if let Err(e) = store.index_report(job, report) {
            eprintln!("store: failed to index job {job}: {e}");
        }
    }

    /// The parsed token table ([`ServiceConfig::token_file`]): token →
    /// tenant.  `None` means the client front-end runs open (no auth).
    pub fn auth(&self) -> Option<&BTreeMap<String, String>> {
        self.auth.as_ref()
    }
}

/// Parse a token file: one `<token> <tenant>` pair per line; blank lines
/// and `#` comments are ignored.
fn load_tokens(path: &std::path::Path) -> io::Result<BTreeMap<String, String>> {
    let text = std::fs::read_to_string(path)?;
    let mut tokens = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(token), Some(tenant), None) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}:{}: expected `<token> <tenant>`, got `{line}`",
                    path.display(),
                    i + 1
                ),
            ));
        };
        tokens.insert(token.to_string(), tenant.to_string());
    }
    Ok(tokens)
}

fn summarize(job: &str, e: &JobEntry) -> JobStatus {
    let cells = e.spec.cells.len();
    JobStatus {
        job: job.to_string(),
        phase: e.phase,
        shard: e.shard,
        priority: e.spec.priority,
        worker: e.worker.clone(),
        tenant: e.spec.tenant.clone(),
        cells,
        cells_finished: match e.phase {
            JobPhase::Done => cells,
            _ => e
                .events
                .iter()
                .filter(|ev| ev.get("event").and_then(Json::as_str) == Some("cell"))
                .count(),
        },
        events: e.events.len(),
        units: e
            .units
            .as_ref()
            .map(|units| {
                units
                    .iter()
                    .map(|u| UnitStatus {
                        target: u.target,
                        phase: u.phase,
                        worker: u.worker.clone(),
                        wave: u.wave,
                    })
                    .collect()
            })
            .unwrap_or_default(),
    }
}

/// Split a job into its work units, one per target group, each resuming
/// from its slice of the job's whole-matrix checkpoint (fresh units when
/// there is none, or when the stored checkpoint no longer matches the
/// spec — e.g. a hand-edited spool).
fn materialize_units(
    job: &str,
    spec: &JobSpec,
    checkpoint: Option<&MatrixCheckpoint>,
) -> Vec<UnitState> {
    let targets = spec.group_targets();
    let fresh = || vec![None; targets.len()];
    let parts: Vec<Option<MatrixCheckpoint>> = match (checkpoint, spec.to_matrix()) {
        (Some(checkpoint), Ok(matrix)) => match matrix.split_checkpoint(checkpoint) {
            Ok(parts) if parts.len() == targets.len() => parts.into_iter().map(Some).collect(),
            Ok(_) => fresh(),
            Err(e) => {
                eprintln!("job {job}: discarding stale checkpoint ({e}); starting units fresh");
                fresh()
            }
        },
        _ => fresh(),
    };
    targets
        .into_iter()
        .zip(parts)
        .map(|(target, checkpoint)| UnitState::new(target, UnitPhase::Queued, checkpoint))
        .collect()
}

/// Does a unit driver currently hold a lease on one of the job's units?
fn has_leased_unit(entry: &JobEntry) -> bool {
    entry.units.iter().flatten().any(|u| u.phase == UnitPhase::Leased)
}

/// A job went terminal: its per-unit checkpoints are dead weight (the
/// result — or, for a cancelled job, the merged stopping checkpoint —
/// holds everything that remains), so drop them from memory and from the
/// terminal spool snapshot.  Each unit keeps its phase and wave for
/// `status`.
fn drop_unit_checkpoints(entry: &mut JobEntry) {
    for unit in entry.units.iter_mut().flatten() {
        unit.checkpoint = None;
    }
}

/// Start a unit's sub-run, resuming from its granted checkpoint when there
/// is one (shared by the in-process shards and the fleet's worker hosts).
/// A checkpoint the sub-matrix rejects — only a hand-edited spool yields
/// one — restarts the unit from scratch, which is still byte-identical.
pub(crate) fn start_unit<'m>(
    sub: &'m CampaignMatrix,
    job: &str,
    target: u8,
    checkpoint: Option<&MatrixCheckpoint>,
) -> MatrixRun<'m> {
    match checkpoint.map(|cp| sub.resume(cp)) {
        None => sub.start(),
        Some(Ok(run)) => run,
        Some(Err(e)) => {
            eprintln!("{job} unit t{target}: stale checkpoint ({e}); restarting");
            sub.start()
        }
    }
}

/// Recompute a job's whole-matrix checkpoint as the merge of its per-unit
/// sub-checkpoints (units that never checkpointed contribute their initial
/// sub-checkpoint).  Keeps the job resumable as ONE record across server
/// restarts and shard/fleet mode changes.  Called under the core lock.
fn refresh_merged_checkpoint(job: &str, entry: &mut JobEntry) {
    let Some(units) = entry.units.as_ref() else { return };
    let Ok(matrix) = entry.spec.to_matrix() else { return };
    let subs = matrix.group_matrices();
    if subs.len() != units.len() {
        return;
    }
    let parts: Vec<MatrixCheckpoint> = units
        .iter()
        .zip(&subs)
        .map(|(u, sub)| u.checkpoint.clone().unwrap_or_else(|| sub.initial_checkpoint()))
        .collect();
    match matrix.merge_checkpoints(&parts) {
        Ok(merged) => entry.checkpoint = Some(merged),
        Err(e) => eprintln!("job {job}: sub-checkpoint merge failed ({e}); keeping the previous"),
    }
}

/// Reconstruct a restored job's event log from its spool record, so
/// watchers of a job that progressed (or finished) under a previous server
/// still see its history and — crucially — the terminating `done` event.
/// Cell events are synthesized from the checkpoint (pre-kill finds never
/// re-fire after a resume); `elapsed_ms` is lost with the old process.
fn restored_events(record: &SpoolRecord) -> Vec<Json> {
    let mut events = Vec::new();
    if let Some(checkpoint) = &record.checkpoint {
        for (progress, (target, contract)) in
            checkpoint.cells.iter().zip(&record.spec.cells)
        {
            let Some(progress) = progress else { continue };
            events.push(
                Json::obj()
                    .field("event", "cell")
                    .field("job", record.job.as_str())
                    .field("target", *target)
                    .field("contract", contract.as_str())
                    .field("found", progress.violation.is_some())
                    .field(
                        "vulnerability",
                        progress.violation.as_ref().map(|v| v.vulnerability.to_string()),
                    )
                    .field("test_cases", progress.test_cases)
                    .field("elapsed_ms", 0.0),
            );
        }
    }
    if let Some(result) = &record.result {
        let mut done = Json::obj().field("event", "done").field("job", record.job.as_str());
        if record.phase == JobPhase::Cancelled {
            done = done.field("cancelled", true);
        }
        events.push(done.field("result", result.clone()));
    }
    events
}

/// The result payload of a finished job: the job id and spec, the
/// deterministic per-cell section ([`matrix_cells_json`] — byte-identical
/// for any execution of the same spec, kill + resume included) and the
/// nondeterministic timing side channel.
pub fn job_result_json(job: &str, spec: &JobSpec, report: &MatrixReport) -> Json {
    Json::obj()
        .field("job", job)
        .field("spec", spec.to_json())
        .field("seed", report.seed)
        .field("measured_test_cases", report.test_cases)
        .field("generated_test_cases", report.generated)
        .field("statically_filtered", report.statically_filtered)
        .field("cells", matrix_cells_json(report))
        .field("timing", matrix_timing_json(report))
}

/// The deterministic section of a result payload: everything except the
/// per-run `job` id and `timing`.  Two results for the same spec compare
/// byte-equal on this rendering.
pub fn deterministic_result(result: &Json) -> Json {
    match result {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "job" && k != "timing")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Collects matrix progress events as wire-format JSON lines (shared by
/// the in-process shards and the remote worker loop).
pub(crate) struct EventCollector {
    pub(crate) job: String,
    pub(crate) events: Vec<Json>,
}

impl ProgressObserver for EventCollector {
    fn round_completed(&mut self, event: &RoundEvent) {
        self.events.push(
            Json::obj()
                .field("event", "round")
                .field("job", self.job.as_str())
                .field("target", event.target_id)
                .field("round", event.round)
                .field("test_cases", event.test_cases)
                .field("escalations", event.escalations),
        );
    }

    fn cell_finished(&mut self, event: &CellEvent) {
        self.events.push(
            Json::obj()
                .field("event", "cell")
                .field("job", self.job.as_str())
                .field("target", event.target_id)
                .field("contract", event.contract.name())
                .field("found", event.found)
                .field("vulnerability", event.vulnerability.map(|v| v.to_string()))
                .field("test_cases", event.test_cases)
                .field("elapsed_ms", event.elapsed.as_secs_f64() * 1000.0),
        );
    }
}

/// FNV-1a, used for shard assignment (stable across restarts).
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn shard_of(job: &str, shards: usize) -> usize {
    (fnv(job.as_bytes()) % shards.max(1) as u64) as usize
}

/// The submission counter baked into a server-minted job id
/// (`j<digest>-<counter hex>`); `None` for hand-named spool files.
fn id_counter(job: &str) -> Option<u64> {
    job.rsplit('-').next().and_then(|suffix| u64::from_str_radix(suffix, 16).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8] {
            for job in ["j1-1", "jabc-2", "jfff-3"] {
                let s = shard_of(job, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(job, shards));
            }
        }
    }

    #[test]
    fn deterministic_result_drops_job_and_timing() {
        let result = Json::obj()
            .field("job", "j1")
            .field("cells", Json::Arr(vec![]))
            .field("timing", Json::obj().field("duration_ms", 3.5));
        let det = deterministic_result(&result);
        assert!(det.get("job").is_none());
        assert!(det.get("timing").is_none());
        assert!(det.get("cells").is_some());
    }

    #[test]
    fn submit_rejects_invalid_specs() {
        let core = ServiceCore::new(ServiceConfig::default()).unwrap();
        let err = core.submit(JobSpec::new(1).add_cell(42, "CT-SEQ")).expect_err("rejects");
        assert!(err.contains("unknown target"), "{err}");
    }

    /// No shard threads run here (the core is constructed directly), so
    /// the queue can be leased by hand and its order observed.  Every job
    /// here is one target group, so each lease drains one job.
    #[test]
    fn lease_drains_higher_priority_first_then_fifo() {
        let config = ServiceConfig { shards: 1, ..ServiceConfig::default() };
        let core = ServiceCore::new(config).unwrap();
        let spec = |p: i64| JobSpec::new(1).with_priority(p).add_cell(1, "CT-SEQ");
        let low_first = core.submit(spec(0)).unwrap();
        let low_second = core.submit(spec(0)).unwrap();
        let high = core.submit(spec(5)).unwrap();
        let negative = core.submit(spec(-1)).unwrap();
        let drained: Vec<String> = std::iter::from_fn(|| core.lease_unit("shard-0"))
            .map(|grant| grant.job)
            .collect();
        assert_eq!(drained, vec![high, low_first, low_second, negative]);
        assert!(core.lease_unit("shard-0").is_none(), "queue fully drained");
    }

    /// Two finished jobs that hit the same gadget produce one deduplicated
    /// store entry with an occurrence count of 2 — the indexed-store
    /// contract end to end through the core's completion path.
    #[test]
    fn finished_jobs_index_their_violations_into_the_store() {
        let dir = std::env::temp_dir()
            .join(format!("rvz-core-test-{}-store-index", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig {
            shards: 1,
            store: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let core = ServiceCore::new(config).unwrap();
        let spec = || JobSpec::new(7).with_budget(60).add_cell(5, "CT-SEQ");
        for _ in 0..2 {
            let job = core.submit(spec()).unwrap();
            let grant = core.lease_unit("shard-0").unwrap();
            assert_eq!(grant.job, job);
            core.drive_unit(grant);
            assert_eq!(core.status(&job).unwrap().phase, JobPhase::Done);
        }
        let merged = rvz_store::Store::open(&dir).unwrap().merged().unwrap();
        assert_eq!(merged.len(), 1, "identical gadgets dedup into one entry");
        assert_eq!(merged[0].count, 2);
        assert_eq!(merged[0].jobs.len(), 2);
        assert_eq!(merged[0].entry.target, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A terminal job keeps no per-unit checkpoints — neither in memory
    /// nor in its terminal spool snapshot — while `status` still lists
    /// every unit with its phase and last wave.
    #[test]
    fn terminal_jobs_drop_their_unit_checkpoints() {
        let dir = std::env::temp_dir()
            .join(format!("rvz-core-test-{}-terminal-units", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config =
            ServiceConfig { shards: 1, spool: Some(dir.clone()), ..ServiceConfig::default() };
        let core = ServiceCore::new(config).unwrap();
        let unit_checkpoints = |job: &str| -> Vec<bool> {
            let state = core.state.lock().unwrap();
            state.jobs[job].units.iter().flatten().map(|u| u.checkpoint.is_some()).collect()
        };
        let spool_units = |job: &str| -> Vec<UnitRecord> {
            let records = Spool::open(&dir).unwrap().load_all();
            let record = records.into_iter().find(|r| r.job == job).expect("record kept");
            record.units.expect("unit records kept")
        };

        // Finished: both units ran to their final wave.
        let spec = JobSpec::new(7).with_budget(20).add_cell(1, "CT-SEQ").add_cell(5, "CT-SEQ");
        let done = core.submit(spec.clone()).unwrap();
        while let Some(grant) = core.lease_unit("shard-0") {
            core.drive_unit(grant);
        }
        assert_eq!(core.status(&done).unwrap().phase, JobPhase::Done);
        assert_eq!(unit_checkpoints(&done), vec![false, false]);
        assert!(spool_units(&done).iter().all(|u| u.checkpoint.is_none()));
        let status = core.status(&done).unwrap();
        assert_eq!(status.units.len(), 2);
        for unit in &status.units {
            let sub = spec.unit_matrix(unit.target).unwrap();
            let mut run = sub.start();
            while run.step(&mut revizor::campaign::NoopObserver) {}
            assert_eq!(unit.phase, UnitPhase::Done);
            assert_eq!(unit.wave, run.wave(), "unit t{} reports its last wave", unit.target);
        }

        // Cancelled mid-unit: the merged stopping checkpoint stays, the
        // per-unit ones go.
        let cancelled = core.submit(JobSpec::new(8).with_budget(200).add_cell(1, "CT-SEQ")).unwrap();
        let grant = core.lease_unit("shard-0").unwrap();
        let sub = grant.spec.unit_matrix(grant.target).unwrap();
        let mut run = sub.start();
        run.step(&mut revizor::campaign::NoopObserver);
        let checkpoint = run.checkpoint();
        assert_eq!(core.cancel(&cancelled).unwrap(), JobPhase::Running);
        core.cancel_unit(&cancelled, grant.target, grant.lease, Some(checkpoint));
        let status = core.status(&cancelled).unwrap();
        assert_eq!(status.phase, JobPhase::Cancelled);
        assert_eq!(status.units[0].wave, 1);
        assert_eq!(unit_checkpoints(&cancelled), vec![false]);
        assert!(spool_units(&cancelled).iter().all(|u| u.checkpoint.is_none()));
        let records = Spool::open(&dir).unwrap().load_all();
        let record = records.iter().find(|r| r.job == cancelled).unwrap();
        assert_eq!(record.checkpoint.as_ref().map(|cp| cp.groups[0].next_index), Some(10));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A finished job's units report their last wave after a restart, not
    /// 0: the terminal spool snapshot keeps each unit's wave even though
    /// it drops the unit checkpoints.
    #[test]
    fn terminal_unit_waves_survive_a_restart() {
        let dir = std::env::temp_dir()
            .join(format!("rvz-core-test-{}-restart-waves", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config =
            ServiceConfig { shards: 1, spool: Some(dir.clone()), ..ServiceConfig::default() };
        let spec = JobSpec::new(7).with_budget(20).add_cell(1, "CT-SEQ").add_cell(5, "CT-SEQ");
        let job = {
            let core = ServiceCore::new(config.clone()).unwrap();
            let job = core.submit(spec.clone()).unwrap();
            while let Some(grant) = core.lease_unit("shard-0") {
                core.drive_unit(grant);
            }
            assert_eq!(core.status(&job).unwrap().phase, JobPhase::Done);
            job
        };
        let restarted = ServiceCore::new(config).unwrap();
        let status = restarted.status(&job).unwrap();
        assert_eq!(status.phase, JobPhase::Done);
        assert_eq!(status.units.len(), 2);
        for unit in &status.units {
            let sub = spec.unit_matrix(unit.target).unwrap();
            let mut run = sub.start();
            while run.step(&mut revizor::campaign::NoopObserver) {}
            assert!(run.wave() > 0);
            assert_eq!(unit.wave, run.wave(), "unit t{} reports its last wave", unit.target);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_transitions_and_rejections() {
        let config = ServiceConfig { shards: 1, ..ServiceConfig::default() };
        let core = ServiceCore::new(config).unwrap();
        let job = core.submit(JobSpec::new(1).add_cell(1, "CT-SEQ")).unwrap();
        assert!(core.cancel("j-unknown").is_err());
        // Queued cancels immediately and terminally; cancel is idempotent.
        assert_eq!(core.cancel(&job).unwrap(), JobPhase::Cancelled);
        assert_eq!(core.cancel(&job).unwrap(), JobPhase::Cancelled);
        assert_eq!(core.status(&job).unwrap().phase, JobPhase::Cancelled);
        let result = core.result(&job).unwrap().expect("cancelled result payload");
        assert_eq!(result.get("cancelled").and_then(Json::as_bool), Some(true));
        // A cancelled job is never leased.
        assert!(core.lease_unit("shard-0").is_none());
        // The event log terminates with a cancelled `done` event.
        let events = core.events_from(&job, 0).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("event").and_then(Json::as_str), Some("done"));
        assert_eq!(events[0].get("cancelled").and_then(Json::as_bool), Some(true));
        // A running job cancels cooperatively: the lease holder observes
        // the request at its next wave boundary.
        let running = core.submit(JobSpec::new(2).add_cell(1, "CT-SEQ")).unwrap();
        let grant = core.lease_unit("shard-0").unwrap();
        assert_eq!(grant.job, running);
        assert_eq!(core.cancel(&running).unwrap(), JobPhase::Running);
        assert!(core.cancel_requested(&running));
        core.finish_cancelled(&running);
        assert!(!core.cancel_requested(&running), "terminal phase clears the request");
        assert_eq!(core.status(&running).unwrap().phase, JobPhase::Cancelled);
        // Completing after cancellation must not overwrite the terminal state.
        core.complete(&running, Json::obj().field("job", running.as_str()));
        assert_eq!(core.status(&running).unwrap().phase, JobPhase::Cancelled);
    }

    /// A running job no driver holds a unit of (one unit done, the next
    /// not leased yet) has nobody to honor a cooperative cancel: it must
    /// cancel at once instead of staying `Running` forever.
    #[test]
    fn cancel_between_units_is_immediate() {
        let config = ServiceConfig { shards: 1, ..ServiceConfig::default() };
        let core = ServiceCore::new(config).unwrap();
        let job = core
            .submit(JobSpec::new(7).with_budget(10).add_cell(1, "CT-SEQ").add_cell(5, "CT-SEQ"))
            .unwrap();
        core.drive_unit(core.lease_unit("shard-0").expect("first unit leases"));
        assert_eq!(core.status(&job).unwrap().phase, JobPhase::Running);
        assert_eq!(core.cancel(&job).unwrap(), JobPhase::Cancelled);
        assert_eq!(core.status(&job).unwrap().phase, JobPhase::Cancelled);
        assert!(core.lease_unit("shard-0").is_none(), "the second unit never leases");
    }

    #[test]
    fn pending_cancel_survives_requeue_and_lease_never_redispatches_it() {
        let config = ServiceConfig { shards: 1, ..ServiceConfig::default() };
        let core = ServiceCore::new(config).unwrap();
        // A cancel that lands while the job runs, whose driver then dies
        // (worker host lost): the release must cancel terminally, not hand
        // the job back to the queue.
        let job = core.submit(JobSpec::new(1).add_cell(1, "CT-SEQ")).unwrap();
        let grant = core.lease_unit("w1").expect("leased");
        assert_eq!(core.cancel(&job).unwrap(), JobPhase::Running);
        core.release_unit(&job, grant.target, grant.lease);
        assert_eq!(core.status(&job).unwrap().phase, JobPhase::Cancelled);
        assert!(core.result(&job).unwrap().is_some(), "terminal result published");

        // Defense in depth: even a Queued job carrying the flag (the
        // cancel raced a requeue) is cancelled at lease time, never
        // dispatched — and does not shadow other queued work.
        let stuck = core.submit(JobSpec::new(2).add_cell(1, "CT-SEQ")).unwrap();
        let next = core.submit(JobSpec::new(3).add_cell(1, "CT-SEQ")).unwrap();
        {
            let mut state = core.state.lock().unwrap();
            state.jobs.get_mut(&stuck).unwrap().cancel_requested = true;
        }
        let grant = core.lease_unit("shard-0").expect("other work still leasable");
        assert_eq!(grant.job, next);
        assert_eq!(core.status(&stuck).unwrap().phase, JobPhase::Cancelled);
    }

    #[test]
    fn restored_pending_cancel_is_cancelled_at_startup() {
        // A server killed between a cancel request and the next wave
        // boundary leaves Running + cancel_requested in the spool; the
        // next server must cancel the job, not resume it (nor strand it
        // queued forever when no worker connects).
        let dir = std::env::temp_dir()
            .join(format!("rvz-core-test-{}-restored-cancel", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spool = Spool::open(&dir).unwrap();
        spool
            .save(&SpoolRecord {
                job: "j-test-9".to_string(),
                spec: JobSpec::new(1).add_cell(1, "CT-SEQ"),
                phase: JobPhase::Running,
                checkpoint: None,
                units: None,
                result: None,
                cancel_requested: true,
            })
            .unwrap();
        let config = ServiceConfig {
            shards: 1,
            spool: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let core = ServiceCore::new(config).unwrap();
        assert_eq!(core.status("j-test-9").unwrap().phase, JobPhase::Cancelled);
        assert!(core.lease_unit("shard-0").is_none(), "never dispatched");
        // The cancelled phase is durable for the *next* restart too.
        let record = Spool::open(&dir).unwrap().load_all().remove(0);
        assert_eq!(record.phase, JobPhase::Cancelled);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restored_jobs_keep_submission_order_not_directory_order() {
        // Job ids are `j<digest>-<counter hex>`: the spool's lexicographic
        // directory scan orders by digest (and misorders unpadded hex
        // counters across widths), so restore must re-sort by counter to
        // keep the FIFO-within-priority guarantee across restarts.
        let dir = std::env::temp_dir()
            .join(format!("rvz-core-test-{}-restore-order", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spool = Spool::open(&dir).unwrap();
        // Submission order by counter: jzz-9 (9), jmm-a (10), jaa-10 (16)
        // — exactly inverse to the lexicographic file order.
        for job in ["jzz-9", "jmm-a", "jaa-10"] {
            spool
                .save(&SpoolRecord {
                    job: job.to_string(),
                    spec: JobSpec::new(1).add_cell(1, "CT-SEQ"),
                    phase: JobPhase::Queued,
                    checkpoint: None,
                    units: None,
                    result: None,
                    cancel_requested: false,
                })
                .unwrap();
        }
        let config = ServiceConfig {
            shards: 1,
            spool: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let core = ServiceCore::new(config).unwrap();
        let drained: Vec<String> = std::iter::from_fn(|| core.lease_unit("shard-0"))
            .map(|grant| grant.job)
            .collect();
        assert_eq!(drained, vec!["jzz-9", "jmm-a", "jaa-10"]);
        // And fresh ids keep allocating above the highest restored counter.
        let fresh = core.submit(JobSpec::new(2).add_cell(1, "CT-SEQ")).unwrap();
        assert!(u64::from_str_radix(fresh.rsplit('-').next().unwrap(), 16).unwrap() > 0x10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_host_mode_pins_every_job_to_shard_zero() {
        // The wire-visible `shard` field is documented as always 0 in
        // fleet mode; the config normalizes shards to 1 there.
        let core = ServiceCore::new(ServiceConfig {
            shards: 8,
            worker_listen: Some("127.0.0.1:0".to_string()),
            ..ServiceConfig::default()
        })
        .unwrap();
        for seed in 0..6u64 {
            let job = core.submit(JobSpec::new(seed).add_cell(1, "CT-SEQ")).unwrap();
            assert_eq!(core.status(&job).unwrap().shard, 0);
        }
    }

    #[test]
    fn published_events_carry_increasing_seq_stamps() {
        let config = ServiceConfig { shards: 1, ..ServiceConfig::default() };
        let core = ServiceCore::new(config).unwrap();
        let a = core.submit(JobSpec::new(1).add_cell(1, "CT-SEQ")).unwrap();
        let b = core.submit(JobSpec::new(2).add_cell(1, "CT-SEQ")).unwrap();
        core.publish(&a, vec![Json::obj().field("event", "round")]);
        core.publish(&b, vec![Json::obj().field("event", "round")]);
        core.publish(&a, vec![Json::obj().field("event", "round")]);
        let seq_of = |job: &str, i: usize| {
            core.events_from(job, 0).unwrap()[i].get("seq").and_then(Json::as_u64).unwrap()
        };
        assert_eq!(seq_of(&a, 0), 0);
        assert_eq!(seq_of(&b, 0), 1);
        assert_eq!(seq_of(&a, 1), 2);
    }

    /// The sub-checkpoint of the group unit `target` belongs to, at wave 0.
    fn sub_checkpoint(spec: &JobSpec, target: u8) -> MatrixCheckpoint {
        spec.unit_matrix(target).expect("target has a group").initial_checkpoint()
    }

    #[test]
    fn unit_leases_fence_stale_owners() {
        let core = ServiceCore::new(ServiceConfig {
            worker_listen: Some("127.0.0.1:0".to_string()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let job = core
            .submit(JobSpec::new(7).with_budget(10).add_cell(1, "CT-SEQ").add_cell(5, "CT-SEQ"))
            .unwrap();

        // The job's two target groups lease independently, nothing more.
        let g1 = core.lease_unit("w1").expect("first unit leases");
        let g2 = core.lease_unit("w2").expect("second unit leases");
        assert_eq!((g1.job.as_str(), g2.job.as_str()), (job.as_str(), job.as_str()));
        assert_ne!(g1.target, g2.target);
        assert!(core.lease_unit("w3").is_none(), "a two-group job has exactly two units");

        // A steal re-leases the unit under a fresh token...
        core.release_unit(&job, g1.target, g1.lease);
        let g3 = core.lease_unit("w3").expect("a released unit re-leases");
        assert_eq!(g3.target, g1.target);
        assert_ne!(g3.lease, g1.lease, "every lease mints a fresh fencing token");

        // ...and every frame the deposed owner still sends is revoked.
        let cp = sub_checkpoint(&g3.spec, g3.target);
        assert_eq!(
            core.save_unit_checkpoint(&job, g1.target, g1.lease, cp.clone()),
            UnitDisposition::Revoked
        );
        assert_eq!(
            core.complete_unit(&job, g1.target, g1.lease, cp.clone(), vec![]),
            UnitDisposition::Revoked
        );

        // The current owner's first checkpoint lands; replaying the same
        // wave is ignored (monotonic progress only), not revoked.
        assert_eq!(
            core.save_unit_checkpoint(&job, g3.target, g3.lease, cp.clone()),
            UnitDisposition::Accepted
        );
        assert_eq!(
            core.save_unit_checkpoint(&job, g3.target, g3.lease, cp),
            UnitDisposition::Ignored
        );
    }

    #[test]
    fn orphaned_leases_are_reconciled_back_to_the_queue() {
        let core = ServiceCore::new(ServiceConfig {
            worker_listen: Some("127.0.0.1:0".to_string()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let job = core
            .submit(JobSpec::new(7).with_budget(10).add_cell(1, "CT-SEQ").add_cell(5, "CT-SEQ"))
            .unwrap();
        let g1 = core.lease_unit("w1").expect("first unit leases");
        let g2 = core.lease_unit("w2").expect("second unit leases");

        // w1's connection vanished without the core ever learning: its
        // lease is live in the core but owned by nobody.  The sweep
        // requeues exactly that unit — w2's owned lease is untouched.
        let live = vec![(job.clone(), g2.target, g2.lease)];
        assert_eq!(core.reconcile_leases(&live), vec![(job.clone(), g1.target)]);

        // The orphaned unit is re-leasable under a fresh fencing token.
        let again = core.lease_unit("w3").expect("orphaned unit re-leases");
        assert_eq!(again.target, g1.target);
        assert_ne!(again.lease, g1.lease);

        // With every lease owned, the sweep is a no-op.
        let live =
            vec![(job.clone(), g2.target, g2.lease), (job.clone(), again.target, again.lease)];
        assert!(core.reconcile_leases(&live).is_empty());
    }

    #[test]
    fn backpressure_defers_submits_at_the_watermark() {
        let core = ServiceCore::new(ServiceConfig {
            worker_listen: Some("127.0.0.1:0".to_string()),
            queue_watermark: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let spec = |seed: u64| JobSpec::new(seed).add_cell(1, "CT-SEQ").add_cell(5, "CT-SEQ");
        assert!(matches!(
            core.try_submit(JobSpec::new(1).add_cell(42, "CT-SEQ")),
            Err(SubmitRejection::Invalid(_))
        ));

        // First job (two units) fills the queue to the watermark; the next
        // submission defers with a retry hint instead of queueing.
        core.try_submit(spec(1)).expect("an empty queue accepts");
        match core.try_submit(spec(2)) {
            Err(SubmitRejection::Backpressure(bp)) => {
                assert_eq!((bp.queued_units, bp.watermark), (2, 2));
                assert!(bp.retry_after >= Duration::from_millis(250));
            }
            other => panic!("expected backpressure, got {other:?}"),
        }

        // Leasing a unit drains the backlog below the watermark: submits
        // reopen without any explicit reset.
        core.lease_unit("w1").expect("unit leases");
        core.try_submit(spec(3)).expect("draining below the watermark reopens submits");
    }
}

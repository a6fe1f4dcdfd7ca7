//! Concurrent batch-serving engine pool.
//!
//! A [`ServingPool`] serves batched inference from a set of engines (any
//! [`InferenceBackend`]). Every worker runs **one loop** over a bank of
//! **tenant slots**:
//!
//! ```text
//!  clients ─submit()──▶ ring 0 ──▶ worker 0 ─ [slot]       (replica pool:
//!     │  any ring      ring 1 ──▶ worker 1 ─ [slot]         one slot per
//!     │                  ⋮   ▲ steal                         worker)
//!     ◀─Ticket::wait()── per-request publish cell ◀── batched completion
//!
//!  owner ─SwapQueue::post()─▶ swap inbox ─┐  (bank pool: one worker,
//!  request_recalibration() ───────────────┼─▶ control bits[w]  many slots)
//!  request_scrub() ───────────────────────┘   SWAP│RECALIBRATE│SCRUB
//!
//!  worker w: ┌▶ take control bits: service swaps, run forced checks
//!            │  park while every tenant is quarantined and another
//!            │    replica can take the jobs
//!            │  fill a batch (own ring first)
//!            │  dispatch each tenant's group on its engine, or — once
//!            │    quarantined — on its software twin
//!            └─ age every tenant: recalibrate, scrub, update health
//! ```
//!
//! A **tenant slot** owns one engine, its scratch, its [`Maintenance`]
//! (drift and scrub countdowns plus health) and, once a scrub quarantines
//! it, its exact software twin
//! ([`FebimEngine::software_fallback`]). A *replica* pool
//! ([`ServingPool::new`]) has one slot per worker, each a replica of the
//! shared model, with work stealing and failover between workers. Each
//! bank of the [`ModelRegistry`](crate::ModelRegistry) is a *bank* pool:
//! one worker hosting that bank's tenants, keyed by model id, which
//! dispatches each request to the tenant its model id names; a request for
//! a model the bank no longer hosts is answered
//! [`ServingError::ModelUnavailable`]. Every pool runs the same protocol;
//! a one-worker pool simply has no one to steal from or fail over to.
//! Maintenance follows the tenant. So does quarantine: a worker whose
//! tenants are all quarantined parks while another worker can take its
//! jobs (a replica pool with a serving replica left); otherwise its
//! quarantined tenants answer through their software twins — on a bank at
//! once, because its tenants live nowhere else.
//!
//! **Control.** Each worker has a control word of request bits. A
//! requester sets bits and wakes parked workers; the worker takes them
//! between batches, or as soon as it wakes. A bit stays set until taken, so
//! no request is lost — not even one posted before the worker starts — and
//! one kind of request never triggers another. Hot swaps travel typed on a
//! `SwapQueue`, which the bank constructor hands to the pool's owner.
//!
//! **Batching.** Each worker owns a bounded lock-free ring (sequence-
//! numbered slots, atomic head/tail). It pops a batch of up to
//! [`ServingConfig::max_batch`] requests, waiting at most
//! [`ServingConfig::max_wait_ticks`] queue polls for stragglers (ticks, not
//! wall-clock, so tests are deterministic), runs each tenant's share
//! through the grouped-read path ([`InferenceBackend::infer_batch_into`])
//! and answers every request with its prediction plus the batch's
//! amortized delay/energy telemetry. Completion is wake-free on the fast
//! path: one release-swap publishes each answer, and a client is unparked
//! only if it actually parked. The only blocking primitives are the idle
//! and quarantine parking lots and the backpressure waiters, all gated
//! behind counters so a busy pool never touches them.
//!
//! ## Backpressure and shutdown
//!
//! Admission is bounded by [`ServingConfig::queue_depth`] across all rings:
//! [`ServingPool::submit`] never blocks and returns
//! [`ServingError::QueueFull`] when the pool is at capacity, while
//! [`ServingPool::submit_blocking`] waits for a slot. Shutdown is
//! deterministic — every request that ever entered a ring is answered:
//!
//! * [`ServingPool::shutdown`] (and dropping the pool) closes the intake and
//!   **drains**: workers keep answering until every ring is empty.
//! * [`ServingPool::abort`] closes the intake and answers every request
//!   still queued with the typed [`ServingError::ShutDown`]; only batches a
//!   worker already holds finish normally.
//!
//! A [`Ticket`] can therefore never hang: its request is either answered,
//! rejected with a typed error, or its job is dropped unanswered (worker
//! death), which a drop guard converts into [`ServingError::ShutDown`]. Nor
//! can a producer: when the **last** worker exits — normally or by panic —
//! a guard closes the intake (waiting out any in-flight push) and rejects
//! everything still queued, so blocked [`ServingPool::submit_blocking`]
//! callers fail fast. Nor can a [`SwapTicket`], a [`Ticket`] on the same
//! publish cell: a worker closes its swap inbox on every exit path, so a
//! swap posted before, during or after shutdown resolves to its report or
//! to [`ServingError::ShutDown`].
//!
//! ## Statistics
//!
//! Each worker counts into one [`PoolStats`] and returns it when it exits.
//! The pool's statistics are the merge of those entries, which
//! [`PoolStats::workers`] lists by worker index. Maintenance is not counted
//! here: each tenant's [`Maintenance`] keeps its own [`MaintenanceReport`],
//! and a worker folds an evicted tenant's report into its entry at eviction
//! and the rest when it exits, so [`PoolStats::maintenance`] reconciles with
//! the tenants' [`Maintenance::report`]s.

use std::cell::UnsafeCell;
use std::error::Error;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use serde::Serialize;

use febim_circuit::{DelayBreakdown, InferenceEnergy};

use crate::backend::{BatchTelemetry, InferenceBackend, SoftwareBackend, SwapCost};
use crate::engine::{EvalScratch, FebimEngine, InferenceStep};
use crate::errors::CoreError;
use crate::maintenance::{Maintenance, MaintenancePolicy, MaintenanceReport, ReplicaHealth};

/// How many times one request may fail over to a surviving replica before
/// its inference error is answered to the client.
const FAILOVER_ATTEMPTS: u8 = 3;

/// Control bit: the worker's swap inbox holds requests.
const CONTROL_SWAP: u8 = 1;
/// Control bit: run one out-of-band drift check on every tenant.
const CONTROL_RECALIBRATE: u8 = 1 << 1;
/// Control bit: run one out-of-band fault scrub on every tenant.
const CONTROL_SCRUB: u8 = 1 << 2;

/// Largest [`ServingConfig::max_batch`] and [`ServingConfig::queue_depth`]
/// a pool accepts. A pool preallocates both, so a larger value could
/// exhaust memory or overflow the ring sizing.
const MAX_PREALLOCATED: usize = 1 << 16;

/// Knobs of the batch-coalescing serving pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ServingConfig {
    /// Largest number of requests a worker groups into one batched read.
    pub max_batch: usize,
    /// How many queue polls a worker spends waiting for stragglers before
    /// dispatching a partial batch. Ticks are queue polls (each yields the
    /// thread and re-sweeps the rings), not wall-clock time, so batching
    /// behaviour is deterministic under test. `0` dispatches whatever one
    /// poll finds.
    pub max_wait_ticks: u32,
    /// Total admission capacity across all rings (the backpressure limit).
    /// A registry splits it between its banks: each bank pool admits
    /// `queue_depth.div_ceil(banks)`.
    pub queue_depth: usize,
    /// Physical ticks each dispatched batch advances the clock of every
    /// tenant on the worker's bank (ageing the cells under the configured
    /// retention-drift model). `0` — the default — freezes physical time.
    pub ticks_per_batch: u64,
    /// Optional online recalibration: every tenant slot's [`Maintenance`]
    /// checks for drift between batches — never while a batch is in
    /// flight, so requests are answered through recalibration without a
    /// single drop or stall. [`ServingPool::request_recalibration`] forces
    /// a check out of band.
    pub recalibration: Option<MaintenancePolicy>,
    /// Optional online fault scrubbing: every tenant slot's [`Maintenance`]
    /// scrubs between batches, after any drift check, detecting struck
    /// cells and repairing them in place or via spare rows. A tenant whose
    /// defects cannot be repaired is **quarantined** and answers through its
    /// exact software twin — unless it is a replica with a serving replica
    /// left, in which case its worker stops taking work and the survivors
    /// steal its queued requests. [`ServingPool::request_scrub`] forces a check
    /// out of band.
    pub scrub: Option<MaintenancePolicy>,
}

impl ServingConfig {
    /// Default serving point: batches of up to 8, a few straggler polls, a
    /// queue deep enough to keep every replica busy.
    pub fn febim_default() -> Self {
        Self {
            max_batch: 8,
            max_wait_ticks: 4,
            queue_depth: 64,
            ticks_per_batch: 0,
            recalibration: None,
            scrub: None,
        }
    }

    /// Returns a copy with a different maximum batch size.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Returns a copy with a different straggler-poll budget.
    pub fn with_max_wait_ticks(mut self, ticks: u32) -> Self {
        self.max_wait_ticks = ticks;
        self
    }

    /// Returns a copy with a different queue capacity.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Returns a copy ageing each replica by `ticks` per dispatched batch.
    pub fn with_ticks_per_batch(mut self, ticks: u64) -> Self {
        self.ticks_per_batch = ticks;
        self
    }

    /// Returns a copy with online recalibration enabled under `policy`.
    pub fn with_recalibration(mut self, policy: MaintenancePolicy) -> Self {
        self.recalibration = Some(policy);
        self
    }

    /// Returns a copy with online fault scrubbing enabled under `policy`.
    pub fn with_scrub(mut self, policy: MaintenancePolicy) -> Self {
        self.scrub = Some(policy);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::InvalidConfig`], named after its field, for a
    /// batch size or queue depth of zero or above 65,536 (both are
    /// preallocated), or for an invalid maintenance policy.
    pub fn validate(&self) -> Result<(), ServingError> {
        for (name, value) in [
            ("max_batch", self.max_batch),
            ("queue_depth", self.queue_depth),
        ] {
            if value == 0 || value > MAX_PREALLOCATED {
                return Err(ServingError::InvalidConfig {
                    name,
                    reason: format!("must lie in 1..={MAX_PREALLOCATED}, got {value}"),
                });
            }
        }
        for (name, policy) in [("recalibration", self.recalibration), ("scrub", self.scrub)] {
            if let Some(policy) = policy {
                policy
                    .validate()
                    .map_err(|err| ServingError::InvalidConfig {
                        name,
                        reason: err.to_string(),
                    })?;
            }
        }
        Ok(())
    }
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self::febim_default()
    }
}

/// Typed errors of the serving pool.
#[derive(Debug, Clone, PartialEq)]
pub enum ServingError {
    /// A serving configuration value is invalid.
    InvalidConfig {
        /// Name of the offending parameter.
        name: &'static str,
        /// Explanation of the violated constraint.
        reason: String,
    },
    /// The pool was built without any engine replica.
    NoReplicas,
    /// Backpressure: the bounded request queue is at capacity.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The pool is shutting down (or shut down): the request was not — or
    /// will not be — served.
    ShutDown,
    /// The request reached a worker but inference failed.
    Inference(CoreError),
    /// A request names a model its bank does not host (in a registry: one
    /// evicted after the request was queued).
    ModelUnavailable {
        /// The model id the request named.
        model: u64,
    },
    /// Spawning a worker thread failed while building the pool; the
    /// already-spawned workers were shut down cleanly before this error
    /// surfaced.
    WorkerSpawn {
        /// The OS error that rejected the thread.
        reason: String,
    },
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::InvalidConfig { name, reason } => {
                write!(f, "invalid serving configuration `{name}`: {reason}")
            }
            ServingError::NoReplicas => write!(f, "serving pool needs at least one engine replica"),
            ServingError::QueueFull { capacity } => {
                write!(f, "request queue is full ({capacity} requests queued)")
            }
            ServingError::ShutDown => write!(f, "serving pool is shut down"),
            ServingError::Inference(err) => write!(f, "inference failed: {err}"),
            ServingError::ModelUnavailable { model } => {
                write!(f, "the bank does not host model {model}")
            }
            ServingError::WorkerSpawn { reason } => {
                write!(f, "failed to spawn a serving worker thread: {reason}")
            }
        }
    }
}

impl Error for ServingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServingError::Inference(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CoreError> for ServingError {
    fn from(err: CoreError) -> Self {
        ServingError::Inference(err)
    }
}

/// One served inference: the per-sample decision (bit-identical to a
/// sequential [`FebimEngine::infer_into`] call on the same backend) plus the
/// telemetry of the batch it rode in.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[must_use = "a served outcome carries the prediction and telemetry the request paid for"]
pub struct ServeOutcome {
    /// Predicted class.
    pub prediction: usize,
    /// Whether the winner was decided by deterministic tie-breaking.
    pub tie_broken: bool,
    /// Worst-case delay estimate of this single inference.
    pub delay: DelayBreakdown,
    /// Energy estimate of this single inference.
    pub energy: InferenceEnergy,
    /// Index of the worker (engine replica) that served the request.
    pub worker: usize,
    /// Amortized telemetry of the whole batch this request was grouped into.
    pub batch: BatchTelemetry,
}

type ServeResult = Result<ServeOutcome, ServingError>;

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

const HISTOGRAM_BUCKETS: usize = 256;
/// Nanosecond values below this limit get one exact bucket each.
const HISTOGRAM_LINEAR_LIMIT: u64 = 16;

/// Fixed-footprint log-linear latency histogram (nanosecond samples).
///
/// The first 16 buckets are exact (0–15 ns); above that each power of two
/// splits into 4 sub-buckets, so relative bucketing error stays below 25%
/// (~12.5% mean) across the full `u64` range in 256 counters. Recording is
/// two increments — cheap enough for the serving hot path — and worker
/// histograms merge bucket-wise into pool-level percentiles.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
        }
    }

    fn bucket_index(nanos: u64) -> usize {
        if nanos < HISTOGRAM_LINEAR_LIMIT {
            return nanos as usize;
        }
        let msb = 63 - u64::from(nanos.leading_zeros()); // >= 4 here
        let sub = ((nanos >> (msb - 2)) & 3) as usize;
        let index = HISTOGRAM_LINEAR_LIMIT as usize + (msb as usize - 4) * 4 + sub;
        index.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Midpoint (representative value) of one bucket, in nanoseconds.
    fn bucket_midpoint(index: usize) -> u64 {
        if index < HISTOGRAM_LINEAR_LIMIT as usize {
            return index as u64;
        }
        let offset = index - HISTOGRAM_LINEAR_LIMIT as usize;
        let group = offset / 4;
        let sub = (offset % 4) as u64;
        let base = 1u64 << (group + 4);
        let width = base / 4;
        base + sub * width + width / 2
    }

    /// Records one latency sample.
    pub fn record(&mut self, nanos: u64) {
        self.buckets[Self::bucket_index(nanos)] += 1;
        self.count += 1;
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
        self.count += other.count;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximate latency at `percentile` (0–100), in nanoseconds; `0` for
    /// an empty histogram.
    pub fn percentile_ns(&self, percentile: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let fraction = percentile.clamp(0.0, 100.0) / 100.0;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((fraction * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return Self::bucket_midpoint(index);
            }
        }
        Self::bucket_midpoint(HISTOGRAM_BUCKETS - 1)
    }

    /// Median latency, in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(50.0)
    }

    /// 95th-percentile latency, in nanoseconds.
    pub fn p95_ns(&self) -> u64 {
        self.percentile_ns(95.0)
    }

    /// 99th-percentile latency, in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(99.0)
    }
}

fn nanos_between(earlier: Instant, later: Instant) -> u64 {
    u64::try_from(later.saturating_duration_since(earlier).as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Ticket: spin-then-park publish cell
// ---------------------------------------------------------------------------

const TICKET_PENDING: u8 = 0;
const TICKET_WAITING: u8 = 1;
const TICKET_READY: u8 = 2;

/// How long [`Ticket::wait`] spins on the publish cell before parking.
const TICKET_SPIN_WAITS: u32 = 64;

/// One-shot answer cell a worker publishes into and (at most) one client
/// waits on, for a request (`T` = [`ServeOutcome`]) or a hot swap (`T` =
/// [`SwapReport`]). The state machine is `PENDING → {WAITING →} READY`: the
/// worker writes the answer and release-swaps to `READY` (one atomic op, no
/// lock); the waiter spins briefly and only registers itself + parks when
/// the answer is genuinely not there yet, so the batch-completion fast path
/// issues no wakes at all.
struct TicketCell<T> {
    state: AtomicU8,
    /// Parked waiter, registered *before* the `PENDING → WAITING` CAS so a
    /// completer that observes `WAITING` always finds the thread to unpark.
    waiter: Mutex<Option<std::thread::Thread>>,
    /// Written exactly once, before the `READY` publish; read exactly once,
    /// after observing `READY` (acquire) — never concurrently.
    result: UnsafeCell<Option<Result<T, ServingError>>>,
}

// SAFETY: `state` (an atomic) and `waiter` (a mutex) are thread-safe on
// their own. `result` is written once by the cell's one completer before
// the release-swap to `READY` and read once by the waiter after an acquire
// load of `READY`; the state machine makes the accesses mutually exclusive.
// No `&T` is ever shared: the answer moves from the completer's thread to
// the waiter's (or is dropped with the cell on either), hence `T: Send`.
unsafe impl<T: Send> Send for TicketCell<T> {}
unsafe impl<T: Send> Sync for TicketCell<T> {}

impl<T> TicketCell<T> {
    fn new() -> Self {
        Self {
            state: AtomicU8::new(TICKET_PENDING),
            waiter: Mutex::new(None),
            result: UnsafeCell::new(None),
        }
    }

    /// Publishes the answer: one release-swap, plus an unpark only if the
    /// client already parked.
    fn complete(&self, result: Result<T, ServingError>) {
        // SAFETY: sole writer — a cell has one completer, the `Job` or
        // `SwapRequest` holding it, which takes it out exactly once (to
        // answer, or in its drop guard) — and no reader until the swap
        // below publishes `READY`.
        unsafe {
            *self.result.get() = Some(result);
        }
        if self.state.swap(TICKET_READY, Ordering::AcqRel) == TICKET_WAITING {
            let thread = self
                .waiter
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(thread) = thread {
                thread.unpark();
            }
        }
    }

    fn take_result(&self) -> Result<T, ServingError> {
        // SAFETY: called only after an acquire load observed `READY`, which
        // happens-after the completer's write.
        unsafe { (*self.result.get()).take() }.unwrap_or(Err(ServingError::ShutDown))
    }
}

impl<T> fmt::Debug for TicketCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TicketCell")
            .field("state", &self.state.load(Ordering::Acquire))
            .finish()
    }
}

/// Handle to one submitted request, or — as a [`SwapTicket`] — to one
/// posted hot swap.
#[derive(Debug)]
#[must_use = "dropping a ticket discards the answer the pool will still compute"]
pub struct Ticket<T = ServeOutcome> {
    cell: Arc<TicketCell<T>>,
}

/// Handle of a posted hot swap; resolves when the bank's worker services
/// the swap between two of its batches, or to [`ServingError::ShutDown`]
/// when the worker exited first.
pub type SwapTicket = Ticket<SwapReport>;

impl<T> Ticket<T> {
    /// Blocks until the request (or swap) is answered. Never hangs: a pool
    /// that shuts down answers (or typed-rejects) every queued request and
    /// posted swap, and a lost worker surfaces as
    /// [`ServingError::ShutDown`].
    ///
    /// # Errors
    ///
    /// Returns the typed serving error of the request.
    pub fn wait(self) -> Result<T, ServingError> {
        let cell = &self.cell;
        for _ in 0..TICKET_SPIN_WAITS {
            if cell.state.load(Ordering::Acquire) == TICKET_READY {
                return cell.take_result();
            }
            std::hint::spin_loop();
        }
        // Slow path: register, then announce we are waiting. The CAS can
        // only fail because the answer landed in the meantime.
        *cell.waiter.lock().unwrap_or_else(PoisonError::into_inner) = Some(std::thread::current());
        if cell
            .state
            .compare_exchange(
                TICKET_PENDING,
                TICKET_WAITING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            while cell.state.load(Ordering::Acquire) != TICKET_READY {
                std::thread::park();
            }
        }
        cell.take_result()
    }

    /// Polls for the answer for at most `ticks` queue polls (each yields the
    /// thread — ticks, not wall-clock, matching the pool's deterministic
    /// batching clock). Returns the answer if it arrived, or the ticket
    /// itself on timeout so the caller can keep waiting later.
    ///
    /// Unlike [`Ticket::wait`] this never registers a parked waiter, so a
    /// timed-out ticket leaves no waiter state behind for a completer to
    /// trip over: the answer is still published exactly once and a later
    /// `wait`/`wait_timeout` call collects it.
    ///
    /// # Errors
    ///
    /// `Ok` carries the request's own result (which may itself be a typed
    /// serving error); `Err` returns the still-pending ticket.
    pub fn wait_timeout(self, ticks: u64) -> Result<Result<T, ServingError>, Self> {
        for _ in 0..=ticks {
            if self.cell.state.load(Ordering::Acquire) == TICKET_READY {
                return Ok(self.cell.take_result());
            }
            std::thread::yield_now();
        }
        Err(self)
    }
}

// ---------------------------------------------------------------------------
// Jobs and the lock-free rings
// ---------------------------------------------------------------------------

/// One queued request. Dropping a job whose ticket was never completed
/// (worker panic mid-batch, ring teardown) answers it with the typed
/// shutdown error, so a [`Ticket`] can never hang.
#[derive(Debug)]
struct Job {
    sample: Vec<f64>,
    ticket: Option<Arc<TicketCell<ServeOutcome>>>,
    submitted: Instant,
    /// Failed inference attempts so far (bounded by [`FAILOVER_ATTEMPTS`]).
    attempts: u8,
    /// Worker that last failed this job; it bounces the job to a surviving
    /// replica instead of retrying on the replica that already failed it.
    avoid: Option<usize>,
    /// Model id of a request to a bank's tenant (`None` on replica pools,
    /// where every worker serves the one shared model).
    model: Option<u64>,
}

impl Job {
    fn new(sample: Vec<f64>, ticket: Arc<TicketCell<ServeOutcome>>) -> Self {
        Self {
            sample,
            ticket: Some(ticket),
            submitted: Instant::now(),
            attempts: 0,
            avoid: None,
            model: None,
        }
    }

    fn complete(mut self, result: ServeResult) {
        if let Some(cell) = self.ticket.take() {
            cell.complete(result);
        }
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        if let Some(cell) = self.ticket.take() {
            cell.complete(Err(ServingError::ShutDown));
        }
    }
}

/// One slot of a ring: a sequence number encoding whose turn the slot is
/// (push or pop, and for which lap), and the job payload.
struct RingSlot {
    sequence: AtomicUsize,
    job: UnsafeCell<MaybeUninit<Job>>,
}

/// Bounded lock-free MPMC ring buffer (sequence-numbered slots, after
/// Vyukov): producers are the submitting client threads, consumers the
/// owning worker *and* any worker stealing from it. Capacity is a power of
/// two ≥ 2; push and pop are one CAS plus one release store each.
struct Ring {
    slots: Box<[RingSlot]>,
    mask: usize,
    /// Next position to push (claimed by CAS).
    enqueue: AtomicUsize,
    /// Next position to pop (claimed by CAS).
    dequeue: AtomicUsize,
}

// SAFETY: slot payloads are transferred between threads under the sequence
// protocol — a slot is written only after its claim CAS and read only after
// the writer's release store, so no two threads touch a payload at once.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    /// `capacity` must be a power of two ≥ 2 (the sequence protocol cannot
    /// distinguish full from empty on a 1-slot ring).
    fn new(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two() && capacity >= 2);
        let slots = (0..capacity)
            .map(|index| RingSlot {
                sequence: AtomicUsize::new(index),
                job: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots,
            mask: capacity - 1,
            enqueue: AtomicUsize::new(0),
            dequeue: AtomicUsize::new(0),
        }
    }

    /// Non-blocking push; returns the job when the ring is full.
    fn push(&self, job: Job) -> Result<(), Job> {
        let mut pos = self.enqueue.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let sequence = slot.sequence.load(Ordering::Acquire);
            let lag = sequence as isize - pos as isize;
            if lag == 0 {
                match self.enqueue.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed this slot for this push;
                        // no other thread touches it until the store below.
                        unsafe {
                            (*slot.job.get()).write(job);
                        }
                        slot.sequence.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if lag < 0 {
                return Err(job);
            } else {
                pos = self.enqueue.load(Ordering::Relaxed);
            }
        }
    }

    /// Non-blocking pop; `None` when the ring is empty.
    fn pop(&self) -> Option<Job> {
        let mut pos = self.dequeue.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let sequence = slot.sequence.load(Ordering::Acquire);
            let lag = sequence as isize - pos.wrapping_add(1) as isize;
            if lag == 0 {
                match self.dequeue.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed this slot; the producer's
                        // release store made the payload visible.
                        let job = unsafe { (*slot.job.get()).assume_init_read() };
                        slot.sequence.store(
                            pos.wrapping_add(self.mask).wrapping_add(1),
                            Ordering::Release,
                        );
                        return Some(job);
                    }
                    Err(current) => pos = current,
                }
            } else if lag < 0 {
                return None;
            } else {
                pos = self.dequeue.load(Ordering::Relaxed);
            }
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        // Any job still queued is answered with the typed shutdown error by
        // its own drop guard.
        while self.pop().is_some() {}
    }
}

impl fmt::Debug for Ring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.slots.len())
            .field("enqueue", &self.enqueue.load(Ordering::Relaxed))
            .field("dequeue", &self.dequeue.load(Ordering::Relaxed))
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Shared pool state
// ---------------------------------------------------------------------------

/// Everything the submitters, workers and shutdown paths share. All hot-path
/// coordination is atomics on this struct; the mutex/condvar pairs guard
/// only the *slow* paths (idle workers, blocked producers, parked
/// quarantined replicas) and are gated behind counters so nobody touches
/// them while the pool is busy. Aligned to a cache-line pair, so where the
/// allocator puts it cannot decide which hot counters share a line.
#[derive(Debug)]
#[repr(align(128))]
struct PoolShared {
    /// One bounded ring per worker.
    rings: Vec<Ring>,
    /// Total admitted-but-not-yet-popped requests (the backpressure bound).
    queued: AtomicUsize,
    /// Configured admission capacity ([`ServingConfig::queue_depth`]).
    capacity: usize,
    /// Round-robin cursor of the replica submitters.
    cursor: AtomicUsize,
    /// Intake closed (shutdown/abort/last-worker-out).
    closed: AtomicBool,
    /// Submitters inside `try_push`. `close` waits for this to reach zero so
    /// a racing push either lands before the post-close drain or is
    /// rejected — never stranded in a ring nobody will sweep.
    pushing: AtomicUsize,
    /// `true` (the default): drained requests are answered on shutdown;
    /// `false` (abort): drained requests get the typed shutdown error.
    answer_drained: AtomicBool,
    /// Workers parked on `idle_cv`. Submitters skip the wake syscall
    /// entirely while this is zero (the busy-pool fast path).
    sleepers: AtomicUsize,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Producers blocked in `push_blocking`. Workers skip the wake unless
    /// someone is actually waiting for space.
    blocked: AtomicUsize,
    space_lock: Mutex<()>,
    space_cv: Condvar,
    /// One control word of request bits per worker (`CONTROL_*`). A
    /// requester sets bits and wakes parked workers; the worker takes them
    /// between batches or on wake. A bit stays set until taken, so a
    /// request can never slip past its worker.
    control: Vec<AtomicU8>,
    /// Published per-worker health ([`ReplicaHealth::as_u8`] encoding):
    /// quarantined once every tenant on the worker's bank is. Written by the
    /// owning worker, read lock-free by submitters (placement skips
    /// quarantined rings) and failover retries.
    health: Vec<AtomicU8>,
    /// Workers still taking work (not quarantined). When this hits zero the
    /// parked quarantined workers are woken to serve through their tenants'
    /// software twins instead of letting requests strand.
    serving_workers: AtomicUsize,
    /// Quarantined workers parked while surviving replicas serve. A
    /// dedicated condvar keeps them out of `idle_cv`'s `notify_one` path, so
    /// a submitter wake can never land on a worker that must not serve.
    quarantine_lock: Mutex<()>,
    quarantine_cv: Condvar,
}

/// Wakes the threads parked on `cv` (one of them, or all): passes through
/// `lock`, releases it, then notifies. Every waiter on the pool's condvars
/// registers and rechecks its condition while holding the condvar's lock,
/// and its `wait` releases the lock and parks in one step. A waker that published
/// its state before taking the lock therefore either finds the waiter not
/// yet registered (its recheck will see the state) or waits until it is
/// parked (the notify reaches it). Notifying after the release keeps a
/// woken thread from running into a lock its waker still holds.
fn wake(lock: &Mutex<()>, cv: &Condvar, all: bool) {
    drop(lock.lock().unwrap_or_else(PoisonError::into_inner));
    if all {
        cv.notify_all();
    } else {
        cv.notify_one();
    }
}

impl PoolShared {
    fn new(workers: usize, capacity: usize) -> Self {
        let per_ring = capacity.div_ceil(workers).next_power_of_two().max(2);
        Self {
            rings: (0..workers).map(|_| Ring::new(per_ring)).collect(),
            queued: AtomicUsize::new(0),
            capacity,
            cursor: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            pushing: AtomicUsize::new(0),
            answer_drained: AtomicBool::new(true),
            sleepers: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            blocked: AtomicUsize::new(0),
            space_lock: Mutex::new(()),
            space_cv: Condvar::new(),
            control: (0..workers).map(|_| AtomicU8::new(0)).collect(),
            health: (0..workers)
                .map(|_| AtomicU8::new(ReplicaHealth::Healthy.as_u8()))
                .collect(),
            serving_workers: AtomicUsize::new(workers),
            quarantine_lock: Mutex::new(()),
            quarantine_cv: Condvar::new(),
        }
    }

    /// Lock-free read of one worker's published health.
    fn health_of(&self, worker: usize) -> ReplicaHealth {
        ReplicaHealth::from_u8(self.health[worker].load(Ordering::SeqCst))
    }

    /// Whether another worker can take `worker`'s jobs: only while another
    /// replica serves, so never on a one-worker bank.
    fn can_hand_off(&self, worker: usize) -> bool {
        (0..self.health.len()).any(|index| index != worker && self.health_of(index).is_serving())
    }

    /// Publishes a worker's health transition. Entering quarantine
    /// decrements the serving count, wakes one surviving worker to steal the
    /// quarantined ring's leftovers and — when the last serving worker just
    /// left — wakes the quarantine parking lot so fallback serving starts.
    fn publish_health(&self, worker: usize, health: ReplicaHealth) {
        let previous =
            ReplicaHealth::from_u8(self.health[worker].swap(health.as_u8(), Ordering::SeqCst));
        if previous.is_serving() && !health.is_serving() {
            let remaining = self.serving_workers.fetch_sub(1, Ordering::SeqCst) - 1;
            fence(Ordering::SeqCst);
            self.wake_worker();
            if remaining == 0 {
                self.wake_quarantined();
            }
        } else if !previous.is_serving() && health.is_serving() {
            self.serving_workers.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Parks a quarantined worker until close or until the last serving
    /// worker leaves (same register-recheck pattern as `idle_wait`).
    fn quarantine_wait(&self) {
        let guard = self
            .quarantine_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if self.closed.load(Ordering::SeqCst) || self.serving_workers.load(Ordering::SeqCst) == 0 {
            drop(guard);
            return;
        }
        drop(
            self.quarantine_cv
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    /// Wakes every parked quarantined worker.
    fn wake_quarantined(&self) {
        wake(&self.quarantine_lock, &self.quarantine_cv, true);
    }

    /// Sets `bits` on one worker's control word (every worker's for `None`)
    /// and wakes parked workers so an idle one takes them at once. Dekker
    /// with `idle_wait`: bits-then-sleepers here, sleepers-then-bits there.
    fn request(&self, worker: Option<usize>, bits: u8) {
        let targets = worker.map_or(0..self.control.len(), |worker| worker..worker + 1);
        for control in &self.control[targets] {
            control.fetch_or(bits, Ordering::SeqCst);
        }
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            wake(&self.idle_lock, &self.idle_cv, true);
        }
    }

    /// Takes `worker`'s pending request bits: one load when none is set.
    fn take_requests(&self, worker: usize) -> u8 {
        let control = &self.control[worker];
        if control.load(Ordering::SeqCst) == 0 {
            0
        } else {
            control.swap(0, Ordering::SeqCst)
        }
    }

    /// Non-blocking admission + placement. On failure the job is handed
    /// back untouched alongside the typed error.
    // The large Err is the point: rejected jobs come back by value so the
    // backpressure path never allocates.
    #[allow(clippy::result_large_err)]
    fn try_push(&self, job: Job) -> Result<(), (Job, ServingError)> {
        self.pushing.fetch_add(1, Ordering::SeqCst);
        let result = self.admit(job);
        self.pushing.fetch_sub(1, Ordering::SeqCst);
        result
    }

    #[allow(clippy::result_large_err)]
    fn admit(&self, job: Job) -> Result<(), (Job, ServingError)> {
        if self.closed.load(Ordering::SeqCst) {
            return Err((job, ServingError::ShutDown));
        }
        // Admission: the global count enforces `queue_depth` exactly, so
        // ring capacities (rounded up to powers of two) never leak extra
        // slots past the configured backpressure limit.
        if self.queued.fetch_add(1, Ordering::SeqCst) >= self.capacity {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            let full = ServingError::QueueFull {
                capacity: self.capacity,
            };
            return Err((job, full));
        }
        match self.place(job) {
            Ok(()) => {
                fence(Ordering::SeqCst);
                self.wake_worker();
                Ok(())
            }
            Err(rejected) => {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                Err(rejected)
            }
        }
    }

    /// Places an admitted job round-robin, overflowing into any ring with
    /// space. Admission guarantees a free slot (total ring capacity ≥
    /// `queue_depth`), so a scan misses only while a concurrent push/pop is
    /// mid-flight. The first sweep skips quarantined workers' rings while
    /// any worker serves; the second overflows onto them, since stealing
    /// still drains them.
    #[allow(clippy::result_large_err)]
    fn place(&self, job: Job) -> Result<(), (Job, ServingError)> {
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        let rings = self.rings.len();
        let mut job = job;
        loop {
            if self.closed.load(Ordering::SeqCst) {
                return Err((job, ServingError::ShutDown));
            }
            let skip_quarantined = self.serving_workers.load(Ordering::SeqCst) > 0;
            for skip in [skip_quarantined, false] {
                for offset in 0..rings {
                    let index = (start + offset) % rings;
                    if skip && !self.health_of(index).is_serving() {
                        continue;
                    }
                    match self.rings[index].push(job) {
                        Ok(()) => return Ok(()),
                        Err(returned) => job = returned,
                    }
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Blocking admission: waits for space instead of rejecting.
    fn push_blocking(&self, job: Job) -> Result<(), ServingError> {
        let mut job = job;
        loop {
            match self.try_push(job) {
                Ok(()) => return Ok(()),
                Err((returned, ServingError::QueueFull { .. })) => {
                    job = returned;
                    let guard = self
                        .space_lock
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    self.blocked.fetch_add(1, Ordering::SeqCst);
                    fence(Ordering::SeqCst);
                    // Recheck after registering: a worker that freed space
                    // (or a close) before seeing `blocked > 0` cannot be
                    // missed.
                    if !self.closed.load(Ordering::SeqCst)
                        && self.queued.load(Ordering::SeqCst) >= self.capacity
                    {
                        drop(
                            self.space_cv
                                .wait(guard)
                                .unwrap_or_else(PoisonError::into_inner),
                        );
                    } else {
                        drop(guard);
                    }
                    self.blocked.fetch_sub(1, Ordering::SeqCst);
                }
                Err((_, err)) => return Err(err),
            }
        }
    }

    /// Pops into `batch` (up to `max_batch` total): the worker's own ring
    /// first, then stealing round-robin from the others. Returns how many
    /// jobs this sweep added.
    fn pop_any(&self, worker: usize, batch: &mut Vec<Job>, max_batch: usize) -> usize {
        let before = batch.len();
        for offset in 0..self.rings.len() {
            let ring = &self.rings[(worker + offset) % self.rings.len()];
            while batch.len() < max_batch {
                match ring.pop() {
                    Some(job) => batch.push(job),
                    None => break,
                }
            }
            if batch.len() >= max_batch {
                break;
            }
        }
        let got = batch.len() - before;
        if got > 0 {
            self.queued.fetch_sub(got, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            self.signal_space();
        }
        got
    }

    /// Blocks one worker until work, close or a control request.
    /// Registers in `sleepers` first and rechecks under the lock (Dekker
    /// with the submitter's queued-then-sleepers order and the requester's
    /// bits-then-sleepers order), so neither a push nor a request can slip
    /// between the empty sweep and the wait. A waker that saw the
    /// registration passes through the lock before it notifies (see
    /// [`wake`]), so it cannot notify between this recheck and the wait.
    fn idle_wait(&self, worker: usize) {
        let guard = self
            .idle_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if self.closed.load(Ordering::SeqCst)
            || self.queued.load(Ordering::SeqCst) > 0
            || self.control[worker].load(Ordering::SeqCst) != 0
        {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            drop(guard);
            // Admitted work may still be mid-placement: give the producer
            // the core instead of spinning on an empty ring.
            std::thread::yield_now();
            return;
        }
        drop(
            self.idle_cv
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner),
        );
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes one idle worker, if any is actually parked: every worker can
    /// take every job. The caller published its job before the `sleepers`
    /// load (Dekker with `idle_wait`), and a parked worker registered and
    /// rechecked under `idle_lock`, so passing through that lock is enough:
    /// the notify that follows cannot fall between a worker's recheck and
    /// its wait. It is sent after the lock is released (see [`wake`]), so
    /// the woken worker does not block on a lock its waker still holds.
    fn wake_worker(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            wake(&self.idle_lock, &self.idle_cv, false);
        }
    }

    /// Wakes blocked producers, if any is actually parked.
    fn signal_space(&self) {
        if self.blocked.load(Ordering::SeqCst) > 0 {
            wake(&self.space_lock, &self.space_cv, true);
        }
    }

    /// Closes the intake: after this returns, no push is in flight and none
    /// can land, so a subsequent [`PoolShared::drain_remaining`] sees every
    /// admitted job. Wakes everyone.
    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        while self.pushing.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        wake(&self.idle_lock, &self.idle_cv, true);
        wake(&self.space_lock, &self.space_cv, true);
        self.wake_quarantined();
    }

    /// Removes and returns everything still queued (call after
    /// [`PoolShared::close`]).
    fn drain_remaining(&self) -> Vec<Job> {
        let mut drained = Vec::new();
        for ring in &self.rings {
            while let Some(job) = ring.pop() {
                drained.push(job);
            }
        }
        if !drained.is_empty() {
            self.queued.fetch_sub(drained.len(), Ordering::SeqCst);
            fence(Ordering::SeqCst);
            self.signal_space();
        }
        drained
    }

    /// Fills `batch` with the next dispatch: blocks (parking when idle) for
    /// the first request, then spends up to `max_wait_ticks` yield-polls
    /// topping the batch up to `max_batch`. Queued requests always win over
    /// control: [`FillOutcome::Control`] comes back only from an idle sweep.
    fn fill_batch(
        &self,
        worker: usize,
        batch: &mut Vec<Job>,
        max_batch: usize,
        max_wait_ticks: u32,
    ) -> FillOutcome {
        loop {
            if self.pop_any(worker, batch, max_batch) > 0 {
                break;
            }
            if self.closed.load(Ordering::SeqCst) {
                // Final sweep: `close` waited out in-flight pushes, so an
                // empty sweep after seeing `closed` means empty for good.
                if self.pop_any(worker, batch, max_batch) == 0 {
                    return FillOutcome::Closed;
                }
                break;
            }
            if self.control[worker].load(Ordering::SeqCst) != 0 {
                return FillOutcome::Control;
            }
            self.idle_wait(worker);
        }
        let mut ticks = 0u32;
        while batch.len() < max_batch
            && ticks < max_wait_ticks
            && !self.closed.load(Ordering::SeqCst)
        {
            ticks += 1;
            std::thread::yield_now();
            self.pop_any(worker, batch, max_batch);
        }
        FillOutcome::Batch
    }
}

/// What a worker's [`PoolShared::fill_batch`] sweep produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FillOutcome {
    /// At least one job was popped into the batch.
    Batch,
    /// The pool is closed and drained; the worker should exit.
    Closed,
    /// No work is queued but a control request is pending.
    Control,
}

// ---------------------------------------------------------------------------
// Reports and statistics
// ---------------------------------------------------------------------------

/// Serving statistics: one worker's, or a pool's merge of its workers'.
///
/// A worker's entry has an empty `workers` list, and its `crashed_workers`
/// and `quarantined_workers` are 0 or 1. A pool's (or a registry's) totals
/// are the merge of its worker entries, listed in `workers` by worker
/// index (a registry's by bank index).
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct PoolStats {
    /// Requests answered.
    pub requests: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Largest batch dispatched.
    pub largest_batch: usize,
    /// Mean requests per dispatched batch.
    pub mean_batch_size: f64,
    /// Requests rejected with the typed shutdown error during an abort
    /// (drained by [`ServingPool::abort`] itself or bounced by a worker
    /// mid-abort).
    pub shutdown_rejected: u64,
    /// Requests answered with a typed [`ServingError::Inference`] error
    /// (counted separately from the successful `requests`, so every request
    /// that entered the queue reconciles as answered, failed, or rejected).
    pub failed_requests: u64,
    /// Worker threads that died (panicked) instead of reporting. A crashed
    /// worker's entry counts nothing else: whatever it had counted died
    /// with it, and its queued work was answered with
    /// [`ServingError::ShutDown`].
    pub crashed_workers: u64,
    /// Σ amortized batch delays, in seconds.
    pub batched_delay_s: f64,
    /// Σ amortized batch energies, in joules.
    pub batched_energy_j: f64,
    /// Σ sequential-baseline delays of the same reads, in seconds.
    pub sequential_delay_s: f64,
    /// Σ sequential-baseline energies of the same reads, in joules.
    pub sequential_energy_j: f64,
    /// Submit → dispatch wait of every request served.
    pub queue_wait: LatencyHistogram,
    /// Submit → answer-published latency of every request served.
    pub end_to_end: LatencyHistogram,
    /// Merged maintenance reports of every tenant the workers hosted,
    /// evicted ones included: drift checks and recalibrations, scrubs and
    /// repairs, failed passes and health transitions (Healthy ⇄ Degraded,
    /// → Quarantined). Checks run between batches, never mid-batch.
    pub maintenance: MaintenanceReport,
    /// Requests failed over to a surviving replica after a per-sample
    /// inference error (bounded per request by the retry budget).
    pub failovers: u64,
    /// Requests answered through a quarantined tenant's exact software twin
    /// (also counted in `requests`).
    pub fallback_served: u64,
    /// Hot swaps (evict and/or install of tenant models) serviced between
    /// batches.
    pub swaps: u64,
    /// Σ erase + programming pulses those swaps applied to the fabric.
    pub swap_pulses: u64,
    /// Σ erase + programming energy those swaps spent, in joules.
    pub swap_energy_j: f64,
    /// Requests answered with [`ServingError::ModelUnavailable`] because
    /// the model was swapped out after the request was queued.
    pub unrouted: u64,
    /// Workers that ended the run quarantined.
    pub quarantined_workers: u64,
    /// Per-worker entries, indexed by worker; empty on a worker's own
    /// entry.
    pub workers: Vec<PoolStats>,
}

impl PoolStats {
    /// The merge of `workers`, which it lists.
    fn from_workers(workers: Vec<PoolStats>) -> Self {
        let mut stats = Self::default();
        for worker in &workers {
            stats.merge(worker);
        }
        stats.workers = workers;
        stats
    }

    /// Folds `other`'s counts into these totals and re-derives the mean
    /// batch size; `workers` is left alone.
    fn merge(&mut self, other: &Self) {
        self.requests += other.requests;
        self.batches += other.batches;
        self.largest_batch = self.largest_batch.max(other.largest_batch);
        self.shutdown_rejected += other.shutdown_rejected;
        self.failed_requests += other.failed_requests;
        self.crashed_workers += other.crashed_workers;
        self.batched_delay_s += other.batched_delay_s;
        self.batched_energy_j += other.batched_energy_j;
        self.sequential_delay_s += other.sequential_delay_s;
        self.sequential_energy_j += other.sequential_energy_j;
        self.queue_wait.merge(&other.queue_wait);
        self.end_to_end.merge(&other.end_to_end);
        self.maintenance.merge(&other.maintenance);
        self.failovers += other.failovers;
        self.fallback_served += other.fallback_served;
        self.swaps += other.swaps;
        self.swap_pulses += other.swap_pulses;
        self.swap_energy_j += other.swap_energy_j;
        self.unrouted += other.unrouted;
        self.quarantined_workers += other.quarantined_workers;
        if self.batches > 0 {
            self.mean_batch_size = self.requests as f64 / self.batches as f64;
        }
    }

    /// Amortized-over-sequential modeled delay ratio of the whole run (≤ 1
    /// when grouped reads amortized settling; 1.0 for an idle run).
    pub fn delay_ratio(&self) -> f64 {
        if self.sequential_delay_s > 0.0 {
            self.batched_delay_s / self.sequential_delay_s
        } else {
            1.0
        }
    }

    /// Amortized-over-sequential modeled energy ratio of the whole run.
    pub fn energy_ratio(&self) -> f64 {
        if self.sequential_energy_j > 0.0 {
            self.batched_energy_j / self.sequential_energy_j
        } else {
            1.0
        }
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// One worker thread's body, type-erased so the injectable spawner takes
/// the workers of any pool.
type WorkerBody = Box<dyn FnOnce() -> PoolStats + Send + 'static>;

/// Injectable thread spawner (name + body → handle or the OS error), so the
/// spawn-failure recovery path and start-up races are testable without
/// exhausting real threads.
type SpawnFn<'a> = &'a mut dyn FnMut(String, WorkerBody) -> std::io::Result<JoinHandle<PoolStats>>;

fn default_spawner(name: String, body: WorkerBody) -> std::io::Result<JoinHandle<PoolStats>> {
    std::thread::Builder::new().name(name).spawn(body)
}

/// The tenants one worker starts with: `(model id, engine)` pairs, the id
/// `None` for a replica of a replica pool's one shared model.
type Tenants<B> = Vec<(Option<u64>, FebimEngine<B>)>;

/// The one spawn path of every pool: validates the configuration, builds
/// each worker's bank and spawns one worker per bank through `spawner`,
/// returning the pool with the swap queue of its first worker (the only
/// worker of a bank pool). An OS spawn failure becomes the typed
/// [`ServingError::WorkerSpawn`] instead of a panic: the pool closes, the
/// already-spawned workers drain and join, and the unspawned bodies are
/// dropped — their captured guards keep the alive count honest so the
/// close-and-reject handoff still runs exactly once.
fn spawn_pool<B: InferenceBackend + Send + 'static>(
    banks: Vec<Tenants<B>>,
    config: ServingConfig,
    spawner: SpawnFn<'_>,
) -> Result<(ServingPool, SwapQueue<B>), ServingError> {
    config.validate()?;
    if banks.is_empty() {
        return Err(ServingError::NoReplicas);
    }
    let shared = Arc::new(PoolShared::new(banks.len(), config.queue_depth));
    let inboxes: Vec<Arc<Inbox<B>>> = (0..banks.len())
        .map(|_| Arc::new(Mutex::new(Some(Vec::new()))))
        .collect();
    let alive = Arc::new(AtomicUsize::new(banks.len()));
    let bodies: Vec<(String, WorkerBody)> = banks
        .into_iter()
        .enumerate()
        .map(|(worker, tenants)| {
            let inbox = Arc::clone(&inboxes[worker]);
            let shared = Arc::clone(&shared);
            let guard = WorkerGuard {
                shared: Arc::clone(&shared),
                alive: Arc::clone(&alive),
            };
            let body: WorkerBody = Box::new(move || {
                // Runs on every exit path, including panic unwind: the last
                // worker out closes and rejects the rings.
                let _guard = guard;
                // Built here, so each slot's scratch (written on every read)
                // lives in this thread's heap, away from the clients'.
                let bank = Bank {
                    slots: tenants
                        .into_iter()
                        .map(|(model, engine)| TenantSlot::new(model, engine, &config))
                        .collect(),
                    inbox,
                    published: ReplicaHealth::Healthy,
                };
                serve(worker, bank, &shared, config)
            });
            (format!("febim-serve-{worker}"), body)
        })
        .collect();
    let mut workers = Vec::with_capacity(bodies.len());
    let mut bodies = bodies.into_iter();
    while let Some((name, body)) = bodies.next() {
        match spawner(name, body) {
            Ok(handle) => workers.push(handle),
            Err(err) => {
                shared.close();
                drop(bodies);
                for worker in workers {
                    let _ = worker.join();
                }
                return Err(ServingError::WorkerSpawn {
                    reason: err.to_string(),
                });
            }
        }
    }
    let swaps = SwapQueue {
        shared: Arc::clone(&shared),
        inbox: Arc::clone(&inboxes[0]),
    };
    let pool = ServingPool {
        shared,
        workers,
        config,
    };
    Ok((pool, swaps))
}

/// A pool of engine workers serving batched inference requests.
///
/// The pool is backend-erased: any [`InferenceBackend`] builds one, and
/// pools over different backends share the one `ServingPool` type. See the
/// [module docs](self) for the architecture, the batching knobs and the
/// backpressure/shutdown semantics.
#[derive(Debug)]
pub struct ServingPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<PoolStats>>,
    config: ServingConfig,
}

impl ServingPool {
    /// Spawns one worker per engine replica. All replicas must serve the
    /// same compiled program (clone one engine, or build each replica from
    /// the same training data and configuration) — the pool does not check
    /// this, it is the caller's deployment contract.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::NoReplicas`] for an empty replica set and
    /// propagates configuration validation errors.
    pub fn new<B: InferenceBackend + Send + 'static>(
        engines: Vec<FebimEngine<B>>,
        config: ServingConfig,
    ) -> Result<Self, ServingError> {
        let banks = engines
            .into_iter()
            .map(|engine| vec![(None, engine)])
            .collect();
        spawn_pool(banks, config, &mut default_spawner).map(|(pool, _)| pool)
    }

    /// Spawns a *bank* pool: one worker hosting `tenants` (one engine per
    /// model id), and returns it with the typed [`SwapQueue`] its owner
    /// posts hot swaps through. Requests reach a tenant through
    /// [`ServingPool::submit_tenant_blocking`].
    ///
    /// # Errors
    ///
    /// The same validation/spawn errors as [`ServingPool::new`].
    pub(crate) fn new_bank<B: InferenceBackend + Send + 'static>(
        tenants: Vec<(u64, FebimEngine<B>)>,
        config: ServingConfig,
    ) -> Result<(Self, SwapQueue<B>), ServingError> {
        let tenants = tenants
            .into_iter()
            .map(|(model, engine)| (Some(model), engine))
            .collect();
        spawn_pool(vec![tenants], config, &mut default_spawner)
    }

    /// Builds a pool of `replicas` clones of one engine (they share the
    /// trained model and the quantized tables by `Arc`, so replication
    /// copies only the physical state).
    ///
    /// # Errors
    ///
    /// Same as [`ServingPool::new`] (`replicas == 0` maps to
    /// [`ServingError::NoReplicas`]).
    pub fn replicate<B: InferenceBackend + Clone + Send + 'static>(
        engine: &FebimEngine<B>,
        replicas: usize,
        config: ServingConfig,
    ) -> Result<Self, ServingError> {
        Self::new(vec![engine.clone(); replicas], config)
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Number of workers: one per engine replica, or one for a bank pool.
    pub fn replicas(&self) -> usize {
        self.workers.len()
    }

    /// Asks every worker to run one out-of-band drift check on each of its
    /// tenants at the next safe point — between batches when busy,
    /// immediately when idle (parked workers are woken). Never stalls
    /// traffic: a worker holding a batch finishes and answers it first, and
    /// queued requests always dispatch before an idle check runs. The check
    /// honours the configured [`ServingConfig::recalibration`] policy; on a
    /// pool built without one the request is a no-op.
    pub fn request_recalibration(&self) {
        self.shared.request(None, CONTROL_RECALIBRATE);
    }

    /// Asks every worker to run one out-of-band fault scrub on each of its
    /// tenants at the next safe point, with the same no-stall guarantees as
    /// [`ServingPool::request_recalibration`]. It runs no drift check. On a
    /// pool built without a [`ServingConfig::scrub`] policy the request is
    /// a no-op.
    pub fn request_scrub(&self) {
        self.shared.request(None, CONTROL_SCRUB);
    }

    /// Lock-free snapshot of every worker's published health, indexed by
    /// worker: quarantined once every tenant on its bank is. Health only
    /// changes when a scrub pass runs (between batches, or forced via
    /// [`ServingPool::request_scrub`]) or a swap replaces tenants.
    pub fn worker_health(&self) -> Vec<ReplicaHealth> {
        (0..self.shared.rings.len())
            .map(|worker| self.shared.health_of(worker))
            .collect()
    }

    /// Number of workers currently taking work (not quarantined). `0` on a
    /// replica pool means it is serving through the exact software fallback.
    pub fn serving_replicas(&self) -> usize {
        self.shared.serving_workers.load(Ordering::SeqCst)
    }

    /// Submits one request without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::QueueFull`] when the pool is at capacity
    /// (backpressure — retry later or use [`ServingPool::submit_blocking`]).
    pub fn submit(&self, sample: Vec<f64>) -> Result<Ticket, ServingError> {
        let cell = Arc::new(TicketCell::new());
        // A rejected job never entered a ring; dropping it answers the
        // unused cell, which nobody waits on.
        self.shared
            .try_push(Job::new(sample, Arc::clone(&cell)))
            .map_err(|(_, err)| err)?;
        Ok(Ticket { cell })
    }

    /// Submits one request, waiting for a queue slot when the pool is at
    /// capacity (blocking backpressure).
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::ShutDown`] when the pool closes while the
    /// request waits for a slot.
    pub fn submit_blocking(&self, sample: Vec<f64>) -> Result<Ticket, ServingError> {
        let cell = Arc::new(TicketCell::new());
        self.shared
            .push_blocking(Job::new(sample, Arc::clone(&cell)))?;
        Ok(Ticket { cell })
    }

    /// Convenience: submits every sample (blocking backpressure) and waits
    /// for all answers, returned in submission order.
    pub fn serve(&self, samples: &[Vec<f64>]) -> Vec<ServeResult> {
        wait_all(
            samples
                .iter()
                .map(|sample| self.submit_blocking(sample.clone()))
                .collect(),
        )
    }

    /// Submits one request for tenant `model` of a bank pool, waiting for a
    /// queue slot when the pool is at capacity (blocking backpressure). A
    /// request for a model the bank does not host when it is dispatched is
    /// answered [`ServingError::ModelUnavailable`].
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::ShutDown`] when the pool closes while the
    /// request waits for a slot.
    pub(crate) fn submit_tenant_blocking(
        &self,
        model: u64,
        sample: Vec<f64>,
    ) -> Result<Ticket, ServingError> {
        let cell = Arc::new(TicketCell::new());
        let mut job = Job::new(sample, Arc::clone(&cell));
        job.model = Some(model);
        self.shared.push_blocking(job)?;
        Ok(Ticket { cell })
    }

    /// Graceful shutdown: closes the intake, lets the workers answer every
    /// request still queued, joins them and returns the aggregated serving
    /// statistics. Dropping the pool performs the same drain, discarding the
    /// statistics.
    pub fn shutdown(mut self) -> PoolStats {
        self.finish()
    }

    /// Hard shutdown: closes the intake and answers every request still
    /// queued with the typed [`ServingError::ShutDown`] instead of serving
    /// it (the rejects are counted in [`PoolStats::shutdown_rejected`]).
    /// Batches a worker already popped are still answered normally.
    pub fn abort(mut self) -> PoolStats {
        self.shared.answer_drained.store(false, Ordering::SeqCst);
        self.shared.close();
        let mut rejected = 0u64;
        for job in self.shared.drain_remaining() {
            job.complete(Err(ServingError::ShutDown));
            rejected += 1;
        }
        let mut stats = self.finish();
        stats.shutdown_rejected += rejected;
        stats
    }

    /// Shuts every one-worker bank pool down gracefully and merges their
    /// workers' statistics, listed in bank order.
    pub(crate) fn shutdown_banks(banks: impl IntoIterator<Item = Self>) -> PoolStats {
        PoolStats::from_workers(
            banks
                .into_iter()
                .flat_map(|pool| pool.shutdown().workers)
                .collect(),
        )
    }

    /// Shared close-and-join tail of every shutdown path. A worker whose
    /// thread panicked is reported as a crashed zero-count entry in its
    /// place.
    fn finish(&mut self) -> PoolStats {
        self.shared.close();
        let workers = self
            .workers
            .drain(..)
            .map(|worker| {
                worker.join().unwrap_or_else(|_| PoolStats {
                    crashed_workers: 1,
                    ..PoolStats::default()
                })
            })
            .collect();
        PoolStats::from_workers(workers)
    }
}

impl Drop for ServingPool {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.finish();
        }
    }
}

/// Waits every submitted ticket, in submission order.
fn wait_all(tickets: Vec<Result<Ticket, ServingError>>) -> Vec<ServeResult> {
    tickets
        .into_iter()
        .map(|ticket| ticket.and_then(Ticket::wait))
        .collect()
}

/// Dropped by each worker thread on any exit path (normal return or panic
/// unwind). The last worker out closes the intake and rejects everything
/// still queued with the typed shutdown error: with no consumer left, a
/// blocked producer or an unanswered queued request must fail fast, never
/// wait forever. On a graceful shutdown the rings are already closed and
/// drained, so both actions are no-ops.
struct WorkerGuard {
    shared: Arc<PoolShared>,
    alive: Arc<AtomicUsize>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        if self.alive.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.close();
            for job in self.shared.drain_remaining() {
                job.complete(Err(ServingError::ShutDown));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tenant slots and the serving loop
// ---------------------------------------------------------------------------

/// One tenant a worker hosts: its engine and dedicated scratch (scratch
/// dimensions depend on the model's class/feature counts, so tenants cannot
/// share one), its maintenance schedule, and — once a scrub quarantines it —
/// its exact software twin, which answers its requests from then on.
struct TenantSlot<B: InferenceBackend> {
    /// Model id on a bank; `None` for a replica, which serves the pool's
    /// one model (replica jobs carry no id either).
    model: Option<u64>,
    engine: FebimEngine<B>,
    scratch: EvalScratch,
    maintenance: Maintenance,
    twin: Option<(FebimEngine<SoftwareBackend>, EvalScratch)>,
}

impl<B: InferenceBackend> TenantSlot<B> {
    fn new(model: Option<u64>, engine: FebimEngine<B>, config: &ServingConfig) -> Self {
        Self {
            model,
            scratch: engine.make_scratch(),
            engine,
            // The policies were validated when the pool spawned.
            maintenance: Maintenance::new(config.recalibration, config.scrub).unwrap_or_default(),
            twin: None,
        }
    }

    fn infer_batch(
        &mut self,
        samples: &[Vec<f64>],
        steps: &mut Vec<InferenceStep>,
    ) -> crate::errors::Result<BatchTelemetry> {
        match &mut self.twin {
            Some((twin, scratch)) => twin.infer_batch_into(samples, scratch, steps),
            None => self
                .engine
                .infer_batch_into(samples, &mut self.scratch, steps),
        }
    }

    fn infer(&mut self, sample: &[f64]) -> crate::errors::Result<InferenceStep> {
        match &mut self.twin {
            Some((twin, scratch)) => twin.infer_into(sample, scratch),
            None => self.engine.infer_into(sample, &mut self.scratch),
        }
    }

    /// Ages the tenant by one batch's `ticks` and runs whatever drift or
    /// fault check falls due; its [`Maintenance`] counts the work. A
    /// quarantined tenant's fabric is retired: it no longer ages or takes
    /// maintenance.
    fn age(&mut self, ticks: u64) {
        if self.twin.is_some() {
            return;
        }
        // A failed pass is counted in the tenant's report; the tenant keeps
        // serving on its current state.
        let _ = self.maintenance.tick(&mut self.engine, ticks);
        self.sync_health();
    }

    /// Runs the out-of-band checks the control `requests` ask for: a drift
    /// check for the recalibrate bit, a scrub for the scrub bit.
    fn check(&mut self, requests: u8) {
        if self.twin.is_some() {
            return;
        }
        if requests & CONTROL_RECALIBRATE != 0 {
            let _ = self.maintenance.recalibrate(&mut self.engine);
        }
        if requests & CONTROL_SCRUB != 0 {
            let _ = self.maintenance.scrub(&mut self.engine);
        }
        self.sync_health();
    }

    /// Builds the software twin on entering quarantine.
    fn sync_health(&mut self) {
        if self.maintenance.health() == ReplicaHealth::Quarantined {
            let twin = self.engine.software_fallback();
            let scratch = twin.make_scratch();
            self.twin = Some((twin, scratch));
        }
    }
}

/// One worker's tenants, its swap inbox and the health it last published.
struct Bank<B: InferenceBackend> {
    slots: Vec<TenantSlot<B>>,
    inbox: Arc<Inbox<B>>,
    published: ReplicaHealth,
}

impl<B: InferenceBackend> Bank<B> {
    /// Takes control `requests` between batches: services pending swaps,
    /// then runs the forced checks on every tenant.
    fn control(
        &mut self,
        worker: usize,
        requests: u8,
        shared: &PoolShared,
        config: &ServingConfig,
        stats: &mut PoolStats,
    ) {
        if requests & CONTROL_SWAP != 0 {
            self.service_swaps(config, stats);
        }
        for slot in &mut self.slots {
            slot.check(requests);
        }
        self.publish(worker, shared);
    }

    /// Ages every tenant after a dispatched batch.
    fn age(&mut self, worker: usize, ticks: u64, shared: &PoolShared) {
        for slot in &mut self.slots {
            slot.age(ticks);
        }
        self.publish(worker, shared);
    }

    /// Publishes the bank's health when it changed: quarantined once every
    /// tenant is, degraded while any tenant is not healthy.
    fn publish(&mut self, worker: usize, shared: &PoolShared) {
        let worst = self
            .slots
            .iter()
            .map(|slot| slot.maintenance.health())
            .max_by_key(|health| health.as_u8())
            .unwrap_or_default();
        let serving = self
            .slots
            .iter()
            .any(|slot| slot.maintenance.health().is_serving());
        let health = if worst.is_serving() || !serving {
            worst
        } else {
            ReplicaHealth::Degraded
        };
        if health != self.published {
            shared.publish_health(worker, health);
            self.published = health;
        }
    }

    /// Drains the swap inbox in posting order: evicts models (tearing their
    /// tile regions off the fabric, pricing the erase pulses and folding
    /// their maintenance reports into `stats`), installs the pre-built
    /// replacement engine and answers the swap ticket. Runs strictly between
    /// batches — every ticket of the previous batch is already answered when
    /// this is called.
    fn service_swaps(&mut self, config: &ServingConfig, stats: &mut PoolStats) {
        let requests = (self.inbox.lock().unwrap_or_else(PoisonError::into_inner))
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default();
        for mut request in requests {
            let mut erase = SwapCost::default();
            let evicted = std::mem::take(&mut request.evict);
            for model in &evicted {
                let Some(index) = self
                    .slots
                    .iter()
                    .position(|slot| slot.model == Some(*model))
                else {
                    continue;
                };
                // Tear the program off the fabric; the scoped erase
                // invalidates only this model's tiles, so survivors keep
                // their caches.
                let mut slot = self.slots.swap_remove(index);
                stats.maintenance.merge(slot.maintenance.report());
                if let Ok(Some(cost)) = slot.engine.decommission() {
                    erase.absorb(cost);
                }
            }
            let installed = request.install.take().map(|(model, engine)| {
                self.slots
                    .push(TenantSlot::new(Some(model), engine, config));
                model
            });
            let program = request.program;
            stats.swaps += 1;
            stats.swap_pulses += erase.pulses + program.pulses;
            stats.swap_energy_j += erase.energy_j + program.energy_j;
            if let Some(done) = request.done.take() {
                done.complete(Ok(SwapReport {
                    evicted,
                    installed,
                    erase,
                    program,
                }));
            }
        }
    }
}

impl<B: InferenceBackend> Drop for Bank<B> {
    /// Closes the inbox on every exit path, panic included: swaps still
    /// queued, and any posted later, are answered with the shutdown error
    /// by their drop guards.
    fn drop(&mut self) {
        *self.inbox.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Re-admits a job onto a surviving replica's ring after this replica
/// failed (or must not serve) it. Readmission bypasses the capacity check —
/// the request was already admitted once. One scan over the rings, serving
/// replicas first; hands the job back on failure so the caller can answer
/// it locally instead (never silently drops it).
fn requeue(shared: &PoolShared, worker: usize, job: Job) -> Option<Job> {
    if shared.closed.load(Ordering::SeqCst) {
        return Some(job);
    }
    shared.queued.fetch_add(1, Ordering::SeqCst);
    let rings = shared.rings.len();
    let mut job = job;
    for pass in 0..2 {
        for offset in 1..=rings {
            let index = (worker + offset) % rings;
            // First pass targets only surviving replicas; the second takes
            // any ring with space (stealing still drains it).
            if pass == 0 && (index == worker || !shared.health_of(index).is_serving()) {
                continue;
            }
            match shared.rings[index].push(job) {
                Ok(()) => {
                    fence(Ordering::SeqCst);
                    shared.wake_worker();
                    return None;
                }
                Err(returned) => job = returned,
            }
        }
    }
    shared.queued.fetch_sub(1, Ordering::SeqCst);
    Some(job)
}

/// Bounces batch jobs that already failed on this replica back to a
/// surviving one (routing, not a retry: attempts are not incremented).
/// A job that cannot be placed elsewhere stays in the batch and is served
/// here after all — an attempt beats a strand.
fn bounce_failed_over(worker: usize, shared: &PoolShared, batch: &mut Vec<Job>) {
    let mut index = 0;
    while index < batch.len() {
        if batch[index].avoid == Some(worker)
            && !shared.closed.load(Ordering::SeqCst)
            && shared.can_hand_off(worker)
        {
            // `swap_remove` moves the last element into `index`; leave the
            // cursor in place so that element is examined next.
            let job = batch.swap_remove(index);
            if let Some(mut job) = requeue(shared, worker, job) {
                job.avoid = None;
                batch.push(job);
            }
        } else {
            index += 1;
        }
    }
}

fn outcome(step: &InferenceStep, worker: usize, batch: BatchTelemetry) -> ServeOutcome {
    ServeOutcome {
        prediction: step.prediction,
        tie_broken: step.tie_broken,
        delay: step.delay,
        energy: step.energy,
        worker,
        batch,
    }
}

/// Runs one tenant's group of jobs end to end: records queue waits, takes
/// the samples out (the jobs keep their tickets armed, so a panic inside
/// inference still answers every request via the job drop guard), runs the
/// grouped-read path on the slot's engine — or its software twin once
/// quarantined, counting those answers as fallback serves — and publishes
/// every answer. On a grouped failure it falls back to per-sample inference
/// so one bad request cannot poison its batch mates; while another worker
/// can take the job, a per-sample inference error is retried there
/// (bounded by [`FAILOVER_ATTEMPTS`]) before its typed error is answered.
fn dispatch<B: InferenceBackend>(
    worker: usize,
    slot: &mut TenantSlot<B>,
    shared: &PoolShared,
    jobs: &mut Vec<Job>,
    samples: &mut Vec<Vec<f64>>,
    steps: &mut Vec<InferenceStep>,
    stats: &mut PoolStats,
) {
    let dispatched = Instant::now();
    let fallback = u64::from(slot.twin.is_some());
    samples.clear();
    for job in jobs.iter_mut() {
        stats
            .queue_wait
            .record(nanos_between(job.submitted, dispatched));
        samples.push(std::mem::take(&mut job.sample));
    }
    stats.batches += 1;
    stats.largest_batch = stats.largest_batch.max(jobs.len());
    match slot.infer_batch(samples, steps) {
        Ok(telemetry) => {
            stats.requests += jobs.len() as u64;
            stats.fallback_served += fallback * jobs.len() as u64;
            stats.batched_delay_s += telemetry.delay.total();
            stats.batched_energy_j += telemetry.energy.total();
            stats.sequential_delay_s += telemetry.sequential_delay;
            stats.sequential_energy_j += telemetry.sequential_energy;
            // Batched completion: publish the whole batch back to back
            // (one release-swap each); wakes only reach clients that
            // actually parked.
            let completed = Instant::now();
            for (job, step) in jobs.drain(..).zip(steps.iter()) {
                stats
                    .end_to_end
                    .record(nanos_between(job.submitted, completed));
                job.complete(Ok(outcome(step, worker, telemetry)));
            }
        }
        Err(_) => {
            // The batch failed as a group (e.g. one malformed sample).
            // Fall back to per-sample inference so one bad request
            // cannot poison its batch mates: each request gets its own
            // answer, its own typed error, or a failover retry.
            for (mut job, sample) in jobs.drain(..).zip(samples.iter()) {
                let answer = slot
                    .infer(sample)
                    .map(|step| {
                        stats.requests += 1;
                        stats.fallback_served += fallback;
                        stats.batched_delay_s += step.delay.total();
                        stats.batched_energy_j += step.energy.total();
                        stats.sequential_delay_s += step.delay.total();
                        stats.sequential_energy_j += step.energy.total();
                        let single = BatchTelemetry {
                            reads: 1,
                            delay: step.delay,
                            energy: step.energy,
                            sequential_delay: step.delay.total(),
                            sequential_energy: step.energy.total(),
                            amortized: false,
                        };
                        outcome(&step, worker, single)
                    })
                    .map_err(ServingError::Inference);
                if answer.is_err()
                    && job.attempts < FAILOVER_ATTEMPTS
                    && shared.can_hand_off(worker)
                {
                    // This replica failed the request; hand it to a
                    // surviving one instead of answering the error.
                    job.attempts += 1;
                    job.avoid = Some(worker);
                    job.sample = sample.clone();
                    match requeue(shared, worker, job) {
                        None => {
                            stats.failovers += 1;
                            continue;
                        }
                        // No room elsewhere: answer the error after all.
                        Some(returned) => job = returned,
                    }
                }
                if answer.is_err() {
                    stats.failed_requests += 1;
                }
                stats
                    .end_to_end
                    .record(nanos_between(job.submitted, Instant::now()));
                job.complete(answer);
            }
        }
    }
}

/// The one serving loop every worker runs over its bank of tenant slots:
/// take control requests (swaps, forced checks), park while every tenant is
/// quarantined and another replica can take the jobs, fill a batch (own
/// ring first; replica workers steal from the others), dispatch it one
/// tenant group at a time, then age every tenant — its maintenance checks
/// for drift and faults, so the fabric stays current and its defects get
/// repaired without ever stalling a request. Repeats until the pool closes
/// and the rings drain.
fn serve<B: InferenceBackend>(
    worker: usize,
    mut bank: Bank<B>,
    shared: &PoolShared,
    config: ServingConfig,
) -> PoolStats {
    let mut stats = PoolStats::default();
    let mut batch: Vec<Job> = Vec::with_capacity(config.max_batch);
    let mut group: Vec<Job> = Vec::with_capacity(config.max_batch);
    let mut samples: Vec<Vec<f64>> = Vec::with_capacity(config.max_batch);
    let mut steps: Vec<InferenceStep> = Vec::with_capacity(config.max_batch);
    loop {
        let requests = shared.take_requests(worker);
        if requests != 0 {
            bank.control(worker, requests, shared, &config, &mut stats);
        }
        if bank.published == ReplicaHealth::Quarantined && shared.can_hand_off(worker) {
            // Every tenant is quarantined and a serving replica steals this
            // worker's jobs: park (off `idle_cv`, whose wakes must reach
            // serving workers) until close or the last serving replica
            // leaves.
            if shared.closed.load(Ordering::SeqCst) {
                break;
            }
            shared.quarantine_wait();
            continue;
        }
        batch.clear();
        match shared.fill_batch(worker, &mut batch, config.max_batch, config.max_wait_ticks) {
            FillOutcome::Closed => break,
            FillOutcome::Control => continue,
            FillOutcome::Batch => {}
        }
        if !shared.answer_drained.load(Ordering::SeqCst) {
            // Abort in progress: reject instead of serving.
            stats.shutdown_rejected += batch.len() as u64;
            for job in batch.drain(..) {
                job.complete(Err(ServingError::ShutDown));
            }
            continue;
        }
        bounce_failed_over(worker, shared, &mut batch);
        let mut served = false;
        // Dispatch one tenant group at a time. Replica jobs carry no model
        // id and all belong to the worker's one slot, so their batch is one
        // group as is; a bank's jobs are partitioned by model, in arrival
        // order.
        while let Some(model) = batch.first().map(|job| job.model) {
            if model.is_none() {
                std::mem::swap(&mut batch, &mut group);
            } else {
                group.extend(batch.extract_if(.., |job| job.model == model));
            }
            match bank.slots.iter_mut().find(|slot| slot.model == model) {
                Some(slot) => {
                    dispatch(
                        worker,
                        slot,
                        shared,
                        &mut group,
                        &mut samples,
                        &mut steps,
                        &mut stats,
                    );
                    served = true;
                }
                None => {
                    // The model was swapped out between queueing and
                    // dispatch: answer the typed error, never strand.
                    let err = model.map_or(ServingError::NoReplicas, |model| {
                        ServingError::ModelUnavailable { model }
                    });
                    stats.unrouted += group.len() as u64;
                    for job in group.drain(..) {
                        job.complete(Err(err.clone()));
                    }
                }
            }
        }
        if served {
            // Between batches — every ticket is answered, none is held —
            // age the tenants and run any check that falls due. Queued
            // requests still win: the next iteration pops them before the
            // worker can idle.
            bank.age(worker, config.ticks_per_batch, shared);
        }
    }
    // The worker's entry: its serving counts, the maintenance of the
    // tenants it evicted (already folded in) and of those it still hosts.
    let mut entry = PoolStats {
        quarantined_workers: u64::from(bank.published == ReplicaHealth::Quarantined),
        ..PoolStats::default()
    };
    entry.merge(&stats);
    for slot in &bank.slots {
        entry.maintenance.merge(slot.maintenance.report());
    }
    entry
}

// ---------------------------------------------------------------------------
// Hot swaps
// ---------------------------------------------------------------------------

/// What one serviced hot swap did, returned through its [`SwapTicket`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SwapReport {
    /// Model ids evicted from the bank (their tile regions erased).
    pub evicted: Vec<u64>,
    /// Model id installed, if the swap carried one.
    pub installed: Option<u64>,
    /// Erase cost of tearing the evicted programs off the fabric.
    pub erase: SwapCost,
    /// Programming cost of the installed program (Preisach pulse pricing).
    pub program: SwapCost,
}

/// A hot-swap request in a worker's inbox: model ids to evict and
/// (optionally) a pre-built engine to install in their place. The request
/// holds its ticket's cell and takes it out exactly once, to answer it; the
/// drop guard answers it with the shutdown error if the request dies
/// unserviced (its worker exited first), so a [`SwapTicket`] can never
/// hang.
struct SwapRequest<B: InferenceBackend> {
    evict: Vec<u64>,
    install: Option<(u64, FebimEngine<B>)>,
    /// Programming cost of `install`, priced analytically before posting so
    /// the servicing worker charges it without re-deriving pulse trains.
    program: SwapCost,
    done: Option<Arc<TicketCell<SwapReport>>>,
}

impl<B: InferenceBackend> Drop for SwapRequest<B> {
    fn drop(&mut self) {
        if let Some(done) = self.done.take() {
            done.complete(Err(ServingError::ShutDown));
        }
    }
}

/// Hot swaps posted to one worker; `None` once the worker has exited.
type Inbox<B> = Mutex<Option<Vec<SwapRequest<B>>>>;

/// Typed hot-swap queue of a bank pool: its one worker's inbox.
/// [`ServingPool::new_bank`] hands it to the pool's owner — the model
/// registry — which posts every eviction and install through it.
pub(crate) struct SwapQueue<B: InferenceBackend> {
    shared: Arc<PoolShared>,
    inbox: Arc<Inbox<B>>,
}

impl<B: InferenceBackend> fmt::Debug for SwapQueue<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwapQueue").finish_non_exhaustive()
    }
}

impl<B: InferenceBackend> SwapQueue<B> {
    /// Posts a hot swap: evict the listed models (erasing their tile
    /// regions) and install the pre-built engine, all between the bank's
    /// batches. A swap sets only the swap bit, so it runs no maintenance
    /// check. Requests still queued for an evicted model when the worker
    /// services the swap are answered [`ServingError::ModelUnavailable`].
    /// The install's programming cost is priced analytically (Preisach
    /// pulse trains) before posting; the evictions' erase cost is measured
    /// on the fabric as the worker tears them down.
    pub(crate) fn post(
        &self,
        evict: Vec<u64>,
        install: Option<(u64, FebimEngine<B>)>,
    ) -> SwapTicket {
        let program = install
            .as_ref()
            .and_then(|(_, engine)| engine.program_cost())
            .unwrap_or_default();
        let cell = Arc::new(TicketCell::new());
        let request = SwapRequest {
            evict,
            install,
            program,
            done: Some(Arc::clone(&cell)),
        };
        // An exited worker's inbox is closed: the request is dropped,
        // answering its ticket with the shutdown error.
        if let Some(requests) = self
            .inbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_mut()
        {
            requests.push(request);
        }
        self.shared.request(Some(0), CONTROL_SWAP);
        Ticket { cell }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendInfo, CrossbarBackend};
    use crate::config::EngineConfig;
    use crate::engine::EvalScratch;
    use crate::errors::Result as CoreResult;
    use crate::registry::{ModelRegistry, RegistryConfig, RegistryError};
    use febim_crossbar::{
        FaultKind, FaultSchedule, RefreshOutcome, ScheduledFault, ScrubOutcome, TileShape,
    };
    use febim_data::rng::seeded_rng;
    use febim_data::split::stratified_split;
    use febim_data::synthetic::iris_like;
    use febim_data::Dataset;

    fn split_for(seed: u64) -> (Dataset, Dataset) {
        let dataset = iris_like(seed).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(seed)).unwrap();
        (split.train, split.test)
    }

    fn samples_of(test: &Dataset) -> Vec<Vec<f64>> {
        (0..test.n_samples())
            .map(|index| test.sample(index).unwrap().to_vec())
            .collect()
    }

    impl ServingPool {
        /// Submits every sample for tenant `model` and waits for all
        /// answers, in submission order.
        fn serve_model(&self, model: u64, samples: &[Vec<f64>]) -> Vec<ServeResult> {
            wait_all(
                samples
                    .iter()
                    .map(|sample| self.submit_tenant_blocking(model, sample.clone()))
                    .collect(),
            )
        }
    }

    #[test]
    fn config_validation_and_builders() {
        assert!(ServingConfig::febim_default().validate().is_ok());
        let config = ServingConfig::default()
            .with_max_batch(16)
            .with_max_wait_ticks(0)
            .with_queue_depth(128);
        assert_eq!(config.max_batch, 16);
        assert_eq!(config.max_wait_ticks, 0);
        assert_eq!(config.queue_depth, 128);
        assert!(matches!(
            ServingConfig::default().with_max_batch(0).validate(),
            Err(ServingError::InvalidConfig {
                name: "max_batch",
                ..
            })
        ));
        assert!(matches!(
            ServingConfig::default().with_queue_depth(0).validate(),
            Err(ServingError::InvalidConfig {
                name: "queue_depth",
                ..
            })
        ));
        // Both are preallocated: an unallocatable size is a typed error, not
        // a panic, an abort or a dead worker — for a pool and for a
        // registry's bank pools alike.
        let (train, _) = split_for(901);
        let engine = FebimEngine::fit(&train, EngineConfig::febim_default()).unwrap();
        for (config, field) in [
            (
                ServingConfig::default().with_max_batch(usize::MAX),
                "max_batch",
            ),
            (
                ServingConfig::default().with_queue_depth(usize::MAX),
                "queue_depth",
            ),
        ] {
            assert!(matches!(
                config.validate(),
                Err(ServingError::InvalidConfig { name, .. }) if name == field
            ));
            assert!(matches!(
                ServingPool::new(vec![engine.clone()], config),
                Err(ServingError::InvalidConfig { name, .. }) if name == field
            ));
            let registry = RegistryConfig::new(1, 4).with_serving(config);
            assert!(matches!(
                ModelRegistry::new(registry),
                Err(RegistryError::Serving(ServingError::InvalidConfig { name, .. }))
                    if name == field
            ));
        }
    }

    #[test]
    fn typed_errors_display_and_wrap() {
        assert!(ServingError::NoReplicas.to_string().contains("replica"));
        assert!(ServingError::QueueFull { capacity: 7 }
            .to_string()
            .contains('7'));
        assert!(ServingError::ShutDown.to_string().contains("shut down"));
        let err: ServingError = CoreError::NotProgrammed.into();
        assert!(err.to_string().contains("inference failed"));
        assert!(Error::source(&err).is_some());
        assert!(Error::source(&ServingError::ShutDown).is_none());
    }

    #[test]
    fn ring_is_fifo_and_reports_full_and_empty() {
        let ring = Ring::new(4);
        assert!(ring.pop().is_none());
        for index in 0..4 {
            let cell = Arc::new(TicketCell::new());
            assert!(ring.push(Job::new(vec![f64::from(index)], cell)).is_ok());
        }
        // Full: the fifth push hands the job back (whose drop guard then
        // answers its unused ticket).
        assert!(ring
            .push(Job::new(vec![4.0], Arc::new(TicketCell::new())))
            .is_err());
        // FIFO order, and slots recycle after pops.
        for index in 0..4 {
            let job = ring.pop().expect("queued job");
            assert_eq!(job.sample, vec![f64::from(index)]);
        }
        assert!(ring.pop().is_none());
        assert!(ring
            .push(Job::new(vec![9.0], Arc::new(TicketCell::new())))
            .is_ok());
        assert_eq!(ring.pop().expect("recycled slot").sample, vec![9.0]);
    }

    #[test]
    fn dropped_jobs_answer_their_tickets_with_shutdown() {
        let cell = Arc::new(TicketCell::new());
        let job = Job::new(vec![1.0], Arc::clone(&cell));
        drop(job);
        assert!(matches!(
            Ticket { cell }.wait(),
            Err(ServingError::ShutDown)
        ));
    }

    #[test]
    fn latency_histogram_buckets_merge_and_percentiles() {
        let mut histogram = LatencyHistogram::new();
        assert_eq!(histogram.count(), 0);
        assert_eq!(histogram.percentile_ns(50.0), 0);
        // Exact region: every value below 16 ns has its own bucket.
        for nanos in 0..16u64 {
            assert_eq!(LatencyHistogram::bucket_index(nanos), nanos as usize);
            assert_eq!(LatencyHistogram::bucket_midpoint(nanos as usize), nanos);
        }
        // Log-linear region: bucket index is monotone in the sample value.
        let mut last = 0;
        for shift in 4..63 {
            let index = LatencyHistogram::bucket_index(1u64 << shift);
            assert!(index > last, "shift {shift}");
            last = index;
        }
        assert!(LatencyHistogram::bucket_index(u64::MAX) < HISTOGRAM_BUCKETS);
        // Percentiles: 100 samples at ~100 ns, 5 at ~10_000 ns.
        for _ in 0..100 {
            histogram.record(100);
        }
        for _ in 0..5 {
            histogram.record(10_000);
        }
        let p50 = histogram.p50_ns();
        let p99 = histogram.p99_ns();
        assert!((75..=150).contains(&p50), "p50 = {p50}");
        assert!((7_500..=15_000).contains(&p99), "p99 = {p99}");
        assert!(histogram.p95_ns() >= p50);
        // Merge accumulates counts bucket-wise.
        let mut other = LatencyHistogram::new();
        other.record(100);
        other.merge(&histogram);
        assert_eq!(other.count(), histogram.count() + 1);
    }

    #[test]
    fn empty_pools_and_zero_replicas_rejected() {
        let (train, _) = split_for(900);
        let engine = FebimEngine::fit(&train, EngineConfig::febim_default()).unwrap();
        assert!(matches!(
            ServingPool::new::<CrossbarBackend>(Vec::new(), ServingConfig::default()),
            Err(ServingError::NoReplicas)
        ));
        assert!(matches!(
            ServingPool::replicate(&engine, 0, ServingConfig::default()),
            Err(ServingError::NoReplicas)
        ));
        assert!(matches!(
            ServingPool::replicate(&engine, 1, ServingConfig::default().with_max_batch(0)),
            Err(ServingError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn pool_answers_match_sequential_inference_bit_for_bit() {
        let (train, test) = split_for(901);
        let engine = FebimEngine::fit(&train, EngineConfig::febim_default()).unwrap();
        let mut scratch = engine.make_scratch();
        let samples = samples_of(&test);
        let sequential: Vec<InferenceStep> = samples
            .iter()
            .map(|sample| engine.infer_into(sample, &mut scratch).unwrap())
            .collect();
        let pool =
            ServingPool::replicate(&engine, 2, ServingConfig::default().with_max_batch(4)).unwrap();
        assert_eq!(pool.replicas(), 2);
        assert_eq!(pool.config().max_batch, 4);
        let answers = pool.serve(&samples);
        for (answer, step) in answers.iter().zip(&sequential) {
            let outcome = answer.as_ref().unwrap();
            assert_eq!(outcome.prediction, step.prediction);
            assert_eq!(outcome.tie_broken, step.tie_broken);
            assert_eq!(outcome.delay, step.delay);
            assert_eq!(outcome.energy, step.energy);
            assert!(outcome.worker < 2);
            assert!(outcome.batch.reads >= 1 && outcome.batch.reads <= 4);
            assert!(outcome.batch.amortized);
        }
        let stats = pool.shutdown();
        assert_eq!(stats.requests, samples.len() as u64);
        assert!(stats.batches >= 1);
        assert!(stats.largest_batch <= 4);
        assert!(stats.mean_batch_size >= 1.0);
        assert_eq!(stats.shutdown_rejected, 0);
        // Every served request was timed, worker histograms merge into the
        // pool-level ones, and the percentiles are ordered.
        assert_eq!(stats.queue_wait.count(), samples.len() as u64);
        assert_eq!(stats.end_to_end.count(), samples.len() as u64);
        assert!(stats.end_to_end.p50_ns() <= stats.end_to_end.p99_ns());
        // The grouped pricing never exceeds the sequential baseline.
        assert!(stats.batched_delay_s <= stats.sequential_delay_s);
        assert!(stats.batched_energy_j <= stats.sequential_energy_j);
        assert!(stats.delay_ratio() <= 1.0 && stats.delay_ratio() > 0.0);
        assert!(stats.energy_ratio() <= 1.0 && stats.energy_ratio() > 0.0);
        let json = serde::json::to_string(&stats);
        assert!(json.contains("\"mean_batch_size\""));
        assert!(json.contains("\"workers\""));
        assert!(json.contains("\"queue_wait\""));
    }

    #[test]
    fn tiled_pool_matches_the_monolithic_pool() {
        let (train, test) = split_for(902);
        let config = EngineConfig::febim_default();
        let monolithic = FebimEngine::fit(&train, config.clone()).unwrap();
        let tiled = FebimEngine::fit_tiled(&train, config, TileShape::new(2, 24).unwrap()).unwrap();
        let samples = samples_of(&test);
        let mono_pool = ServingPool::replicate(&monolithic, 2, ServingConfig::default()).unwrap();
        let tile_pool = ServingPool::replicate(&tiled, 2, ServingConfig::default()).unwrap();
        let mono_answers = mono_pool.serve(&samples);
        let tile_answers = tile_pool.serve(&samples);
        for (a, b) in mono_answers.iter().zip(&tile_answers) {
            assert_eq!(
                a.as_ref().unwrap().prediction,
                b.as_ref().unwrap().prediction
            );
        }
    }

    /// A pool of bit-plane-packed replicas serves the same answers as
    /// sequential packed inference: the shift-add read path composes with
    /// batched serving exactly like one-hot reads do.
    #[test]
    fn packed_pool_matches_sequential_packed_inference() {
        let (train, test) = split_for(906);
        let config = EngineConfig::febim_default()
            .with_encoding(febim_quant::Encoding::BitPlane { bits: 4 });
        let engine = FebimEngine::fit(&train, config).unwrap();
        let mut scratch = engine.make_scratch();
        let samples = samples_of(&test);
        let sequential: Vec<InferenceStep> = samples
            .iter()
            .map(|sample| engine.infer_into(sample, &mut scratch).unwrap())
            .collect();
        let pool =
            ServingPool::replicate(&engine, 2, ServingConfig::default().with_max_batch(4)).unwrap();
        let answers = pool.serve(&samples);
        for (answer, step) in answers.iter().zip(&sequential) {
            let outcome = answer.as_ref().unwrap();
            assert_eq!(outcome.prediction, step.prediction);
            assert_eq!(outcome.tie_broken, step.tie_broken);
            assert_eq!(outcome.delay, step.delay);
            assert_eq!(outcome.energy, step.energy);
        }
        let stats = pool.shutdown();
        assert_eq!(stats.requests, samples.len() as u64);
        assert!(stats.batched_delay_s <= stats.sequential_delay_s);
    }

    #[test]
    fn malformed_requests_get_their_own_typed_error() {
        let (train, test) = split_for(903);
        let engine = FebimEngine::fit(&train, EngineConfig::febim_default()).unwrap();
        let expected = engine.predict(test.sample(0).unwrap()).unwrap();
        let pool =
            ServingPool::replicate(&engine, 1, ServingConfig::default().with_max_batch(8)).unwrap();
        let mut samples = vec![test.sample(0).unwrap().to_vec(); 5];
        samples[2] = vec![1.0, 2.0]; // wrong feature count
        let answers = pool.serve(&samples);
        for (index, answer) in answers.iter().enumerate() {
            if index == 2 {
                assert!(matches!(
                    answer,
                    Err(ServingError::Inference(CoreError::DatasetMismatch { .. }))
                ));
            } else {
                assert_eq!(answer.as_ref().unwrap().prediction, expected);
            }
        }
        // The failed request is accounted separately, so the run reconciles:
        // 4 answered + 1 failed = 5 submitted.
        let stats = pool.shutdown();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.failed_requests, 1);
    }

    /// A backend whose reads block on a test-controlled gate, so tests can
    /// deterministically trap a worker mid-batch, fill the queue behind it
    /// and observe backpressure and shutdown semantics.
    #[derive(Debug)]
    struct Gate {
        state: Mutex<(bool, usize)>, // (open, reads entered)
        cv: Condvar,
    }

    impl Gate {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                state: Mutex::new((false, 0)),
                cv: Condvar::new(),
            })
        }

        fn open(&self) {
            self.state.lock().unwrap().0 = true;
            self.cv.notify_all();
        }

        fn wait_entered(&self, reads: usize) {
            let mut state = self.state.lock().unwrap();
            while state.1 < reads {
                state = self.cv.wait(state).unwrap();
            }
        }

        fn enter_and_wait(&self) {
            let mut state = self.state.lock().unwrap();
            state.1 += 1;
            self.cv.notify_all();
            while !state.0 {
                state = self.cv.wait(state).unwrap();
            }
        }
    }

    #[derive(Debug)]
    struct GatedBackend {
        inner: CrossbarBackend,
        gate: Arc<Gate>,
    }

    impl InferenceBackend for GatedBackend {
        fn info(&self) -> BackendInfo {
            self.inner.info()
        }

        fn make_scratch(&self) -> EvalScratch {
            self.inner.make_scratch()
        }

        fn infer_into(
            &self,
            sample: &[f64],
            scratch: &mut EvalScratch,
        ) -> CoreResult<InferenceStep> {
            self.gate.enter_and_wait();
            self.inner.infer_into(sample, scratch)
        }

        fn reprogram(&mut self) -> CoreResult<()> {
            self.inner.reprogram()
        }

        fn current_map_into(&self, out: &mut Vec<f64>) -> CoreResult<()> {
            self.inner.current_map_into(out)
        }
    }

    fn gated_pool(seed: u64, config: ServingConfig) -> (ServingPool, Arc<Gate>, Vec<f64>, usize) {
        let (train, test) = split_for(seed);
        let gate = Gate::new();
        let engine_gate = Arc::clone(&gate);
        let engine_config = EngineConfig::febim_default();
        let engine = FebimEngine::fit_with(&train, engine_config, move |quantized, config| {
            Ok(GatedBackend {
                inner: CrossbarBackend::new(quantized, config)?,
                gate: engine_gate,
            })
        })
        .unwrap();
        let sample = test.sample(0).unwrap().to_vec();
        // Reference prediction through a plain (ungated) engine trained on
        // the same data.
        let prediction = {
            let plain = FebimEngine::fit(&train, EngineConfig::febim_default()).unwrap();
            plain.predict(&sample).unwrap()
        };
        let pool = ServingPool::new(vec![engine], config).unwrap();
        (pool, gate, sample, prediction)
    }

    #[test]
    fn backpressure_surfaces_as_a_typed_queue_full_error() {
        let config = ServingConfig::default()
            .with_max_batch(1)
            .with_max_wait_ticks(0)
            .with_queue_depth(1);
        let (pool, gate, sample, prediction) = gated_pool(904, config);
        // First request: the worker pops it and blocks inside the read.
        let first = pool.submit(sample.clone()).unwrap();
        gate.wait_entered(1);
        // Second request fills the depth-1 queue; the third must bounce.
        let second = pool.submit(sample.clone()).unwrap();
        let third = pool.submit(sample.clone());
        assert!(matches!(
            third,
            Err(ServingError::QueueFull { capacity: 1 })
        ));
        gate.open();
        assert_eq!(first.wait().unwrap().prediction, prediction);
        assert_eq!(second.wait().unwrap().prediction, prediction);
        let stats = pool.shutdown();
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn dropping_the_pool_answers_every_queued_request() {
        let config = ServingConfig::default()
            .with_max_batch(1)
            .with_max_wait_ticks(0)
            .with_queue_depth(8);
        let (pool, gate, sample, prediction) = gated_pool(905, config);
        let trapped = pool.submit(sample.clone()).unwrap();
        gate.wait_entered(1);
        let queued: Vec<Ticket> = (0..4)
            .map(|_| pool.submit(sample.clone()).unwrap())
            .collect();
        // Drop the pool from another thread (it blocks draining); every
        // ticket must still resolve once the gate opens.
        let dropper = std::thread::spawn(move || drop(pool));
        gate.open();
        assert_eq!(trapped.wait().unwrap().prediction, prediction);
        for ticket in queued {
            assert_eq!(ticket.wait().unwrap().prediction, prediction);
        }
        dropper.join().unwrap();
    }

    #[test]
    fn abort_rejects_queued_requests_with_the_typed_shutdown_error() {
        let config = ServingConfig::default()
            .with_max_batch(1)
            .with_max_wait_ticks(0)
            .with_queue_depth(8);
        let (pool, gate, sample, prediction) = gated_pool(906, config);
        let trapped = pool.submit(sample.clone()).unwrap();
        gate.wait_entered(1);
        let queued: Vec<Ticket> = (0..3)
            .map(|_| pool.submit(sample.clone()).unwrap())
            .collect();
        // The worker is trapped inside the read, so `abort` deterministically
        // drains the queued requests before the worker can reach them.
        let aborter = std::thread::spawn(move || pool.abort());
        for ticket in queued {
            assert!(matches!(ticket.wait(), Err(ServingError::ShutDown)));
        }
        // The in-flight request still gets its answer, and every rejected
        // request is accounted for in the returned statistics.
        gate.open();
        assert_eq!(trapped.wait().unwrap().prediction, prediction);
        let stats = aborter.join().unwrap();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.shutdown_rejected, 3);
        assert_eq!(stats.crashed_workers, 0);
    }

    /// A backend whose reads panic, to prove a dying replica is surfaced in
    /// the statistics and can never hang a ticket.
    #[derive(Debug)]
    struct PanickingBackend {
        inner: CrossbarBackend,
    }

    impl InferenceBackend for PanickingBackend {
        fn info(&self) -> BackendInfo {
            self.inner.info()
        }

        fn make_scratch(&self) -> EvalScratch {
            self.inner.make_scratch()
        }

        fn infer_into(
            &self,
            _sample: &[f64],
            _scratch: &mut EvalScratch,
        ) -> CoreResult<InferenceStep> {
            panic!("injected worker crash");
        }

        fn reprogram(&mut self) -> CoreResult<()> {
            self.inner.reprogram()
        }

        fn current_map_into(&self, out: &mut Vec<f64>) -> CoreResult<()> {
            self.inner.current_map_into(out)
        }
    }

    #[test]
    fn crashed_workers_are_reported_and_tickets_never_hang() {
        let (train, test) = split_for(908);
        let engine = FebimEngine::fit_with(
            &train,
            EngineConfig::febim_default(),
            |quantized, config| {
                Ok(PanickingBackend {
                    inner: CrossbarBackend::new(quantized, config)?,
                })
            },
        )
        .unwrap();
        let pool = ServingPool::new(
            vec![engine],
            ServingConfig::default()
                .with_max_batch(1)
                .with_max_wait_ticks(0),
        )
        .unwrap();
        let sample = test.sample(0).unwrap().to_vec();
        let first = pool.submit(sample.clone()).unwrap();
        // The worker dies on the first request; its ticket must resolve to
        // the typed shutdown error (the job's drop guard answers it).
        assert!(matches!(first.wait(), Err(ServingError::ShutDown)));
        // The dying worker's guard closes the intake, so the pool fails
        // fast instead of queueing work nothing will pop: a submit racing
        // the guard is either rejected outright or its queued request is
        // drained with the typed error — it can never hang.
        match pool.submit_blocking(sample) {
            Err(ServingError::ShutDown) => {}
            Ok(ticket) => assert!(matches!(ticket.wait(), Err(ServingError::ShutDown))),
            Err(other) => panic!("unexpected error: {other}"),
        }
        let stats = pool.shutdown();
        assert_eq!(stats.crashed_workers, 1);
        assert_eq!(stats.workers.len(), 1);
        assert_eq!(stats.workers[0].crashed_workers, 1);
        assert_eq!(stats.requests, 0);
    }

    #[test]
    fn invalid_recalibration_policy_is_rejected() {
        let config = ServingConfig::default().with_recalibration(MaintenancePolicy::new(0, 1e-3));
        assert!(matches!(
            config.validate(),
            Err(ServingError::InvalidConfig {
                name: "recalibration",
                ..
            })
        ));
        ServingConfig::default()
            .with_ticks_per_batch(100)
            .with_recalibration(MaintenancePolicy::new(100, 1e-3))
            .validate()
            .unwrap();
    }

    /// Serving config for a pool whose replicas age fast enough that a
    /// drift check between batches finds work.
    fn drifting_serving(seed: u64) -> (FebimEngine<CrossbarBackend>, Vec<Vec<f64>>) {
        let (train, test) = split_for(seed);
        let config = EngineConfig::febim_default().with_non_idealities(
            febim_device::NonIdealityStack::ideal()
                .with_drift(febim_device::RetentionDrift::new(0.05, 100)),
        );
        let engine = FebimEngine::fit(&train, config).unwrap();
        (engine, samples_of(&test))
    }

    /// The tentpole serving guarantee: a pool whose replicas drift and
    /// recalibrate online answers every single ticket — zero drops, zero
    /// hangs — while the scheduler reprograms cells between batches.
    #[test]
    fn pool_recalibrates_between_batches_without_dropping_requests() {
        let (engine, samples) = drifting_serving(910);
        let config = ServingConfig::default()
            .with_max_batch(4)
            .with_ticks_per_batch(500)
            .with_recalibration(MaintenancePolicy::new(500, 1e-3));
        let pool = ServingPool::replicate(&engine, 2, config).unwrap();
        let mut answered = 0u64;
        for _ in 0..4 {
            for answer in pool.serve(&samples) {
                let _ = answer.unwrap();
                answered += 1;
            }
        }
        let stats = pool.shutdown();
        assert_eq!(stats.requests, answered);
        assert_eq!(stats.failed_requests, 0);
        assert_eq!(stats.shutdown_rejected, 0);
        assert_eq!(stats.crashed_workers, 0);
        assert!(
            stats.maintenance.recalibrations >= 1,
            "drifting replicas must have recalibrated at least once"
        );
        assert!(stats.maintenance.refresh.pulses_applied > 0);
        assert!(stats.maintenance.refresh.energy_joules > 0.0);
        assert_eq!(stats.maintenance.drift_failures, 0);
        // Per-worker telemetry reconciles with the pool totals.
        assert_eq!(
            stats
                .workers
                .iter()
                .map(|w| w.maintenance.recalibrations)
                .sum::<u64>(),
            stats.maintenance.recalibrations
        );
    }

    /// `request_recalibration` forces a check out of band even when the
    /// scheduled interval would never fire, and traffic flows through it.
    #[test]
    fn forced_recalibration_checks_out_of_band() {
        let (engine, samples) = drifting_serving(911);
        let config = ServingConfig::default()
            .with_ticks_per_batch(500)
            // An interval no run of this length ever reaches: only the
            // forced request can trigger the check.
            .with_recalibration(MaintenancePolicy::new(u64::MAX, 1e-3));
        let pool = ServingPool::replicate(&engine, 1, config).unwrap();
        for answer in pool.serve(&samples) {
            let _ = answer.unwrap();
        }
        pool.request_recalibration();
        // Traffic after the request keeps flowing; the single worker honours
        // the request between these batches.
        for answer in pool.serve(&samples) {
            let _ = answer.unwrap();
        }
        let stats = pool.shutdown();
        assert_eq!(stats.requests, 2 * samples.len() as u64);
        assert!(
            stats.maintenance.recalibrations >= 1,
            "the forced check must have recalibrated the aged replica"
        );
        assert_eq!(stats.maintenance.drift_failures, 0);
    }

    /// Recalibration requests reach parked workers (the idle wake path) and
    /// never wedge an idle pool.
    #[test]
    fn idle_pool_survives_recalibration_requests() {
        let (train, test) = split_for(912);
        let engine = FebimEngine::fit(&train, EngineConfig::febim_default()).unwrap();
        let config = ServingConfig::default().with_recalibration(MaintenancePolicy::new(100, 1e-3));
        let pool = ServingPool::replicate(&engine, 2, config).unwrap();
        // Let the workers reach the parked state, then poke them twice.
        std::thread::sleep(std::time::Duration::from_millis(10));
        pool.request_recalibration();
        pool.request_recalibration();
        let samples = samples_of(&test);
        for answer in pool.serve(&samples) {
            let _ = answer.unwrap();
        }
        let stats = pool.shutdown();
        assert_eq!(stats.requests, samples.len() as u64);
        // Ideal devices never drift, so the checks found nothing to do.
        assert_eq!(stats.maintenance.recalibrations, 0);
        assert_eq!(stats.maintenance.drift_failures, 0);
    }

    #[test]
    fn shutdown_collects_per_worker_reports() {
        let (train, test) = split_for(907);
        let engine = FebimEngine::fit(&train, EngineConfig::febim_default()).unwrap();
        let pool = ServingPool::replicate(&engine, 3, ServingConfig::default()).unwrap();
        let samples = samples_of(&test);
        let answers = pool.serve(&samples);
        assert!(answers.iter().all(Result::is_ok));
        let stats = pool.shutdown();
        assert_eq!(stats.workers.len(), 3);
        assert_eq!(
            stats.workers.iter().map(|w| w.requests).sum::<u64>(),
            samples.len() as u64
        );
        // A worker's entry lists no workers of its own, and the pool's
        // totals are exactly the merge of the entries.
        assert!(stats.workers.iter().all(|worker| worker.workers.is_empty()));
        assert_eq!(PoolStats::from_workers(stats.workers.clone()), stats);
    }

    #[test]
    fn invalid_scrub_policy_is_rejected() {
        let config = ServingConfig::default().with_scrub(MaintenancePolicy::new(0, 1e-3));
        assert!(matches!(
            config.validate(),
            Err(ServingError::InvalidConfig { name: "scrub", .. })
        ));
        ServingConfig::default()
            .with_scrub(MaintenancePolicy::new(100, 1e-3))
            .validate()
            .unwrap();
    }

    /// Both crossbar passes reject a tolerance of zero, so both policies
    /// must: a zero drift tolerance used to validate, then fail every
    /// drift check once a cell drifted.
    #[test]
    fn a_zero_tolerance_is_rejected_for_both_passes() {
        let zero = MaintenancePolicy::new(10, 0.0);
        assert!(Maintenance::new(Some(zero), None).is_err());
        assert!(Maintenance::new(None, Some(zero)).is_err());
        for (config, pass) in [
            (
                ServingConfig::default().with_recalibration(zero),
                "recalibration",
            ),
            (ServingConfig::default().with_scrub(zero), "scrub"),
        ] {
            assert!(matches!(
                config.validate(),
                Err(ServingError::InvalidConfig { name, .. }) if name == pass
            ));
        }
    }

    #[test]
    fn wait_timeout_returns_the_ticket_and_later_collects_the_answer() {
        let config = ServingConfig::default()
            .with_max_batch(1)
            .with_max_wait_ticks(0);
        let (pool, gate, sample, prediction) = gated_pool(915, config);
        let ticket = pool.submit(sample).unwrap();
        gate.wait_entered(1);
        // The worker is trapped inside the read: the poll must time out and
        // hand the still-pending ticket back.
        let mut ticket = match ticket.wait_timeout(4) {
            Err(ticket) => ticket,
            Ok(answer) => panic!("trapped request answered early: {answer:?}"),
        };
        gate.open();
        // The same ticket keeps working after a timeout; collect via the
        // timed path too (covering its success branch).
        let outcome = loop {
            match ticket.wait_timeout(1 << 16) {
                Ok(answer) => break answer.unwrap(),
                Err(returned) => ticket = returned,
            }
        };
        assert_eq!(outcome.prediction, prediction);
        let stats = pool.shutdown();
        assert_eq!(stats.requests, 1);
    }

    /// Satellite pin: a ticket that timed out is still answered exactly once
    /// on shutdown — no completion leak (the abort drain answers it) and no
    /// double answer (the one publish is consumed by the one wait).
    #[test]
    fn timed_out_ticket_is_answered_exactly_once_on_abort() {
        let config = ServingConfig::default()
            .with_max_batch(1)
            .with_max_wait_ticks(0)
            .with_queue_depth(8);
        let (pool, gate, sample, prediction) = gated_pool(916, config);
        let trapped = pool.submit(sample.clone()).unwrap();
        gate.wait_entered(1);
        let queued = pool.submit(sample).unwrap();
        let queued = match queued.wait_timeout(8) {
            Err(ticket) => ticket,
            Ok(answer) => panic!("queued request answered early: {answer:?}"),
        };
        // The worker is trapped, so `abort` deterministically drains the
        // queued request with the typed shutdown error.
        let aborter = std::thread::spawn(move || pool.abort());
        assert!(matches!(queued.wait(), Err(ServingError::ShutDown)));
        gate.open();
        assert_eq!(trapped.wait().unwrap().prediction, prediction);
        let stats = aborter.join().unwrap();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.shutdown_rejected, 1);
    }

    /// One worker answers 20,000 sequential round trips. Each request is
    /// submitted only after the previous answer, so the worker is often
    /// parked, or about to park, when the next one arrives, and the request
    /// is served only if the submitter's wake reaches it. Each answer is
    /// polled for a bounded number of ticks, so a lost wake fails the test
    /// instead of hanging it.
    #[test]
    fn ticket_round_trips_on_one_worker_never_lose_a_wake() {
        const ROUND_TRIPS: usize = 20_000;
        // Seconds of polls: far longer than a round trip, far shorter than
        // a hang.
        const POLLS: u64 = 10_000_000;
        let (train, test) = split_for(917);
        let engine = FebimEngine::fit(&train, EngineConfig::febim_default()).unwrap();
        let samples = samples_of(&test);
        let mut scratch = engine.make_scratch();
        let expected: Vec<usize> = samples
            .iter()
            .map(|sample| engine.infer_into(sample, &mut scratch).unwrap().prediction)
            .collect();
        let pool = ServingPool::new(vec![engine], ServingConfig::default()).unwrap();
        for round in 0..ROUND_TRIPS {
            let index = round % samples.len();
            let ticket = pool.submit_blocking(samples[index].clone()).unwrap();
            let Ok(answer) = ticket.wait_timeout(POLLS) else {
                panic!("round trip {round} was never answered");
            };
            assert_eq!(answer.unwrap().prediction, expected[index]);
        }
        assert_eq!(pool.shutdown().requests, ROUND_TRIPS as u64);
    }

    /// A crossbar engine whose replica already took a permanent hit: the
    /// scheduled fault struck before the pool spawned, so the first scrub
    /// deterministically finds the stuck cell.
    fn struck_engine(seed: u64) -> (FebimEngine<CrossbarBackend>, Vec<Vec<f64>>, Dataset) {
        let (train, test) = split_for(seed);
        let mut engine = FebimEngine::fit(&train, EngineConfig::febim_default()).unwrap();
        engine.set_fault_schedule(FaultSchedule::new(vec![ScheduledFault {
            at_tick: 1,
            row: 1,
            column: 3,
            kind: FaultKind::StuckErased,
            permanent: true,
        }]));
        engine.advance_time(10);
        assert_eq!(
            engine.pending_faults(),
            0,
            "the chaos event must have struck"
        );
        let samples = samples_of(&test);
        (engine, samples, train)
    }

    /// Forces scrub checks until the pool publishes the expected health.
    fn await_quarantine(pool: &ServingPool, worker: usize) {
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while pool.worker_health()[worker] != ReplicaHealth::Quarantined {
            assert!(
                Instant::now() < deadline,
                "scrub never quarantined worker {worker}"
            );
            pool.request_scrub();
            std::thread::yield_now();
        }
    }

    /// Tentpole: an unrepairable replica is quarantined out of the rotation
    /// and every subsequent request is served by the surviving replica.
    #[test]
    fn quarantined_replica_stops_serving_and_the_survivor_takes_over() {
        let (struck, samples, train) = struck_engine(917);
        let healthy = FebimEngine::fit(&train, EngineConfig::febim_default()).unwrap();
        let config = ServingConfig::default()
            .with_max_batch(4)
            .with_scrub(MaintenancePolicy::new(1_000_000, 1e-3));
        let pool = ServingPool::new(vec![struck, healthy], config).unwrap();
        await_quarantine(&pool, 0);
        assert_eq!(pool.serving_replicas(), 1);
        for answer in pool.serve(&samples) {
            let outcome = answer.unwrap();
            assert_eq!(outcome.worker, 1, "quarantined replica must not serve");
        }
        let stats = pool.shutdown();
        assert_eq!(stats.quarantined_workers, 1);
        assert_eq!(stats.workers[0].quarantined_workers, 1);
        assert_eq!(stats.workers[1].quarantined_workers, 0);
        assert!(stats.maintenance.transitions >= 1);
        assert!(stats.maintenance.faulty_scrubs >= 1);
        assert!(!stats.maintenance.repair.reports.is_empty());
        assert_eq!(stats.failed_requests, 0);
        assert_eq!(stats.fallback_served, 0);
    }

    /// Tentpole: with every physical replica quarantined the pool degrades
    /// gracefully — requests are answered through the exact software twin
    /// instead of erroring or hanging.
    #[test]
    fn fully_quarantined_pool_degrades_to_exact_software_fallback() {
        let (struck, samples, train) = struck_engine(918);
        let config = ServingConfig::default()
            .with_max_batch(4)
            .with_scrub(MaintenancePolicy::new(1_000_000, 1e-3));
        let pool = ServingPool::new(vec![struck], config).unwrap();
        await_quarantine(&pool, 0);
        assert_eq!(pool.serving_replicas(), 0);
        let software = FebimEngine::fit_software(&train, EngineConfig::febim_default()).unwrap();
        for (answer, sample) in pool.serve(&samples).into_iter().zip(&samples) {
            let outcome = answer.unwrap();
            assert_eq!(outcome.prediction, software.predict(sample).unwrap());
        }
        let stats = pool.shutdown();
        assert_eq!(stats.quarantined_workers, 1);
        assert_eq!(stats.fallback_served, samples.len() as u64);
        assert_eq!(stats.requests, samples.len() as u64);
        assert_eq!(stats.failed_requests, 0);
    }

    /// A backend for failover tests: optionally gated (like [`GatedBackend`])
    /// and optionally failing every read with a typed error.
    #[derive(Debug)]
    struct FailingBackend {
        inner: CrossbarBackend,
        fail: bool,
        gate: Option<Arc<Gate>>,
    }

    impl InferenceBackend for FailingBackend {
        fn info(&self) -> BackendInfo {
            self.inner.info()
        }

        fn make_scratch(&self) -> EvalScratch {
            self.inner.make_scratch()
        }

        fn infer_into(
            &self,
            sample: &[f64],
            scratch: &mut EvalScratch,
        ) -> CoreResult<InferenceStep> {
            if let Some(gate) = &self.gate {
                gate.enter_and_wait();
            }
            if self.fail {
                return Err(CoreError::NotProgrammed);
            }
            self.inner.infer_into(sample, scratch)
        }

        fn reprogram(&mut self) -> CoreResult<()> {
            self.inner.reprogram()
        }

        fn current_map_into(&self, out: &mut Vec<f64>) -> CoreResult<()> {
            self.inner.current_map_into(out)
        }
    }

    /// Satellite pin: a request that fails on one replica is retried on a
    /// surviving one instead of surfacing the error. Both workers are gated
    /// on their reads and the gate only opens once each holds one request,
    /// so exactly one request deterministically lands on the failing
    /// replica and must fail over.
    #[test]
    fn per_sample_failures_fail_over_to_the_surviving_replica() {
        let (train, test) = split_for(919);
        let gate = Gate::new();
        let build = |fail: bool, gate: Option<Arc<Gate>>| {
            FebimEngine::fit_with(
                &train,
                EngineConfig::febim_default(),
                move |quantized, config| {
                    Ok(FailingBackend {
                        inner: CrossbarBackend::new(quantized, config)?,
                        fail,
                        gate,
                    })
                },
            )
            .unwrap()
        };
        let failing = build(true, Some(Arc::clone(&gate)));
        let healthy = build(false, Some(Arc::clone(&gate)));
        let prediction = FebimEngine::fit(&train, EngineConfig::febim_default())
            .unwrap()
            .predict(test.sample(0).unwrap())
            .unwrap();
        let config = ServingConfig::default()
            .with_max_batch(1)
            .with_max_wait_ticks(0)
            .with_queue_depth(8);
        let pool = ServingPool::new(vec![failing, healthy], config).unwrap();
        let sample = test.sample(0).unwrap().to_vec();
        let first = pool.submit(sample.clone()).unwrap();
        let second = pool.submit(sample).unwrap();
        // Wait until each worker is trapped inside a read holding one of
        // the two requests (a worker never parks while work is admitted, so
        // both must pop), then release them: the failing worker's request
        // has nowhere to go but the survivor.
        gate.wait_entered(2);
        gate.open();
        let first = first.wait().unwrap();
        let second = second.wait().unwrap();
        for outcome in [&first, &second] {
            assert_eq!(outcome.prediction, prediction);
            assert_eq!(outcome.worker, 1, "answers must come from the survivor");
        }
        let stats = pool.shutdown();
        assert_eq!(stats.failed_requests, 0);
        assert!(
            stats.failovers >= 1,
            "at least one request must have failed over, got {stats:?}"
        );
        assert_eq!(stats.workers[1].failovers, 0);
    }

    #[test]
    fn routed_errors_display() {
        assert!(ServingError::ModelUnavailable { model: 42 }
            .to_string()
            .contains("42"));
        assert!(ServingError::WorkerSpawn {
            reason: "no threads left".into()
        }
        .to_string()
        .contains("no threads left"));
    }

    /// A bank hosting three tenants dispatches each request by model id and
    /// answers bit-identically to each tenant's own single-tenant engine; a
    /// request for a model it does not host is answered unavailable.
    #[test]
    fn routed_pool_serves_tenants_bit_identically_to_their_own_engines() {
        let seeds = [910u64, 911, 912];
        let models = [11u64, 22, 33];
        let mut engines = Vec::new();
        let mut references = Vec::new();
        for seed in seeds {
            let (train, test) = split_for(seed);
            let engine = FebimEngine::fit(&train, EngineConfig::febim_default()).unwrap();
            let samples = samples_of(&test);
            let mut scratch = engine.make_scratch();
            let sequential: Vec<InferenceStep> = samples
                .iter()
                .map(|sample| engine.infer_into(sample, &mut scratch).unwrap())
                .collect();
            engines.push(engine);
            references.push((samples, sequential));
        }
        let tenants = models.into_iter().zip(engines).collect();
        let (pool, _swaps) =
            ServingPool::new_bank(tenants, ServingConfig::default().with_max_batch(4)).unwrap();
        assert_eq!(pool.replicas(), 1);
        assert!(matches!(
            pool.serve_model(99, &[vec![0.0; 4]])[0],
            Err(ServingError::ModelUnavailable { model: 99 })
        ));
        for (model, (samples, sequential)) in models.iter().zip(&references) {
            let answers = pool.serve_model(*model, samples);
            for (answer, step) in answers.iter().zip(sequential) {
                let outcome = answer.as_ref().unwrap();
                assert_eq!(outcome.prediction, step.prediction);
                assert_eq!(outcome.tie_broken, step.tie_broken);
                assert_eq!(outcome.delay, step.delay);
                assert_eq!(outcome.energy, step.energy);
            }
        }
        let stats = pool.shutdown();
        let expected: u64 = references.iter().map(|(s, _)| s.len() as u64).sum();
        assert_eq!(stats.requests, expected);
        assert_eq!(stats.failed_requests, 0);
        assert_eq!(stats.unrouted, 1);
        assert_eq!(stats.swaps, 0);
    }

    /// Satellite pin: a hot swap of one tenant completes with real erase
    /// and programming costs, zero tickets of its bank-mate are dropped or
    /// errored across it, and the installed tenant then serves
    /// bit-identically to its freshly programmed engine.
    #[test]
    fn hot_swap_evicts_installs_and_never_stalls_other_tenants() {
        let (train_a, _) = split_for(914);
        let (train_b, test_b) = split_for(915);
        let (train_c, test_c) = split_for(916);
        let config = EngineConfig::febim_default();
        let shape = TileShape::new(2, 24).unwrap();
        let tenant_a = FebimEngine::fit_tiled(&train_a, config.clone(), shape).unwrap();
        let tenant_b = FebimEngine::fit_tiled(&train_b, config.clone(), shape).unwrap();
        let tenant_c = FebimEngine::fit_tiled(&train_c, config, shape).unwrap();
        let samples_b = samples_of(&test_b);
        let samples_c = samples_of(&test_c);
        let mut scratch = tenant_c.make_scratch();
        let sequential_c: Vec<InferenceStep> = samples_c
            .iter()
            .map(|sample| tenant_c.infer_into(sample, &mut scratch).unwrap())
            .collect();
        let (pool, swaps) = ServingPool::new_bank(
            vec![(1u64, tenant_a), (2u64, tenant_b)],
            ServingConfig::default().with_max_batch(4),
        )
        .unwrap();
        // Tenant B's traffic brackets the swap on its bank: every ticket
        // must be answered, none dropped or errored.
        let before: Vec<Ticket> = samples_b
            .iter()
            .map(|sample| pool.submit_tenant_blocking(2, sample.clone()).unwrap())
            .collect();
        let swap_ticket = swaps.post(vec![1u64], Some((3u64, tenant_c.clone())));
        let after: Vec<Ticket> = samples_b
            .iter()
            .map(|sample| pool.submit_tenant_blocking(2, sample.clone()).unwrap())
            .collect();
        let swap = swap_ticket.wait().unwrap();
        assert_eq!(swap.evicted, vec![1u64]);
        assert_eq!(swap.installed, Some(3));
        assert!(swap.erase.pulses > 0, "erase not priced: {swap:?}");
        assert!(swap.erase.energy_j > 0.0);
        assert!(swap.program.pulses > 0, "program not priced: {swap:?}");
        assert!(swap.program.energy_j > 0.0);
        for ticket in before.into_iter().chain(after) {
            assert!(
                ticket.wait().is_ok(),
                "tenant B request dropped during the swap"
            );
        }
        // The evicted tenant answers unavailable; the installed one serves
        // bit-identically to its freshly programmed engine.
        assert!(matches!(
            pool.serve_model(1, &samples_b[..1])[0],
            Err(ServingError::ModelUnavailable { model: 1 })
        ));
        let answers = pool.serve_model(3, &samples_c);
        for (answer, step) in answers.iter().zip(&sequential_c) {
            let outcome = answer.as_ref().unwrap();
            assert_eq!(outcome.prediction, step.prediction);
            assert_eq!(outcome.tie_broken, step.tie_broken);
            assert_eq!(outcome.delay, step.delay);
            assert_eq!(outcome.energy, step.energy);
        }
        let stats = pool.shutdown();
        assert_eq!(stats.swaps, 1);
        assert_eq!(stats.workers[0].swaps, 1);
        assert!(stats.swap_pulses > 0);
        assert!(stats.swap_energy_j > 0.0);
        assert_eq!(stats.failed_requests, 0);
        assert_eq!(stats.unrouted, 1);
    }

    /// A swap left pending at shutdown resolves to the typed shutdown error
    /// instead of hanging its ticket.
    #[test]
    fn pending_swap_at_shutdown_answers_its_ticket() {
        let (train, _) = split_for(918);
        let engine = FebimEngine::fit_tiled(
            &train,
            EngineConfig::febim_default(),
            TileShape::new(2, 24).unwrap(),
        )
        .unwrap();
        let (pool, _swaps) =
            ServingPool::new_bank(vec![(1u64, engine.clone())], ServingConfig::default()).unwrap();
        let swapped_out = pool.shutdown();
        assert_eq!(swapped_out.swaps, 0);
        // Fresh pool: post, shut down immediately; the race between the
        // worker servicing the swap and the close is fine either way — the
        // ticket must resolve.
        let (pool, swaps) =
            ServingPool::new_bank(vec![(2u64, engine.clone())], ServingConfig::default()).unwrap();
        let ticket = swaps.post(vec![2u64], Some((4u64, engine)));
        drop(pool);
        match ticket.wait() {
            Ok(report) => assert_eq!(report.installed, Some(4)),
            Err(err) => assert!(matches!(err, ServingError::ShutDown)),
        }
    }

    /// Regression: a failed worker-thread spawn used to panic the pool
    /// constructor (`.expect("spawn serving worker")`) — on the serving hot
    /// path that tore down the whole process. It must surface as the typed
    /// [`ServingError::WorkerSpawn`] with the already-spawned workers
    /// joined, not panic.
    #[test]
    fn worker_spawn_failure_is_a_typed_error_not_a_panic() {
        let (train, _) = split_for(917);
        let engine = FebimEngine::fit(&train, EngineConfig::febim_default()).unwrap();
        let mut spawned = 0usize;
        let mut spawner = |name: String, body: WorkerBody| {
            if spawned >= 1 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "resource temporarily unavailable",
                ));
            }
            spawned += 1;
            default_spawner(name, body)
        };
        let result = spawn_pool(
            vec![vec![(None, engine.clone())], vec![(None, engine)]],
            ServingConfig::default(),
            &mut spawner,
        );
        match result {
            Err(ServingError::WorkerSpawn { reason }) => {
                assert!(reason.contains("unavailable"), "reason: {reason}");
            }
            other => panic!("expected WorkerSpawn error, got {other:?}"),
        }
        assert_eq!(spawned, 1);
    }

    /// A spawner that holds every worker thread at `barrier` before its
    /// body runs, so a test can act before any worker has started.
    fn held_spawner(
        barrier: Arc<std::sync::Barrier>,
    ) -> impl FnMut(String, WorkerBody) -> std::io::Result<JoinHandle<PoolStats>> {
        move |name, body| {
            let barrier = Arc::clone(&barrier);
            std::thread::Builder::new().name(name).spawn(move || {
                barrier.wait();
                body()
            })
        }
    }

    /// Regression: a swap posted before a bank's worker has started must be
    /// serviced. Its control bit stays set until the worker takes it, so the
    /// start-up window needs no special case. (The lost wakeup this pins
    /// used to reproduce in only a fraction of stress runs.)
    #[test]
    fn a_swap_posted_before_the_workers_start_resolves() {
        let (train, test) = split_for(930);
        let engine = FebimEngine::fit_tiled(
            &train,
            EngineConfig::febim_default(),
            TileShape::new(2, 24).unwrap(),
        )
        .unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let mut spawner = held_spawner(Arc::clone(&barrier));
        let (pool, swaps) = spawn_pool(
            vec![vec![(Some(1u64), engine.clone())]],
            ServingConfig::default(),
            &mut spawner,
        )
        .unwrap();
        let ticket = swaps.post(Vec::new(), Some((2u64, engine.clone())));
        barrier.wait();
        let report = ticket.wait().expect("the swap must resolve Ok");
        assert_eq!(report.installed, Some(2));
        let sample = test.sample(0).unwrap().to_vec();
        let outcome = pool
            .serve_model(2, std::slice::from_ref(&sample))
            .remove(0)
            .unwrap();
        assert_eq!(outcome.prediction, engine.predict(&sample).unwrap());
        assert_eq!(pool.shutdown().swaps, 1);
    }

    /// A swap posted after shutdown finds its worker's inbox closed and
    /// resolves to the typed shutdown error instead of hanging.
    #[test]
    fn a_swap_posted_after_shutdown_resolves_to_shutdown() {
        let (train, _) = split_for(931);
        let engine = FebimEngine::fit_tiled(
            &train,
            EngineConfig::febim_default(),
            TileShape::new(2, 24).unwrap(),
        )
        .unwrap();
        let (pool, swaps) =
            ServingPool::new_bank(vec![(1u64, engine.clone())], ServingConfig::default()).unwrap();
        assert_eq!(pool.shutdown().swaps, 0);
        assert!(matches!(
            swaps.post(vec![1], Some((2, engine))).wait(),
            Err(ServingError::ShutDown)
        ));
    }

    /// A bank answers a job for a model it no longer hosts with
    /// [`ServingError::ModelUnavailable`] and counts it as unrouted. The
    /// worker waits at a barrier while the job is queued and the evicting
    /// swap is posted; once released it takes the swap bit before it fills
    /// a batch, so the eviction lands first.
    #[test]
    fn a_bank_answers_a_job_for_an_evicted_model_unavailable() {
        let (train, test) = split_for(936);
        let engine = FebimEngine::fit_tiled(
            &train,
            EngineConfig::febim_default(),
            TileShape::new(2, 24).unwrap(),
        )
        .unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let mut spawner = held_spawner(Arc::clone(&barrier));
        let (pool, swaps) = spawn_pool(
            vec![vec![(Some(1u64), engine)]],
            ServingConfig::default(),
            &mut spawner,
        )
        .unwrap();
        let ticket = pool
            .submit_tenant_blocking(1, test.sample(0).unwrap().to_vec())
            .unwrap();
        let swap = swaps.post(vec![1], None);
        barrier.wait();
        assert_eq!(swap.wait().unwrap().evicted, vec![1]);
        assert!(matches!(
            ticket.wait(),
            Err(ServingError::ModelUnavailable { model: 1 })
        ));
        let stats = pool.shutdown();
        assert_eq!(stats.unrouted, 1);
        assert_eq!(stats.requests + stats.failed_requests, 0);
    }

    /// A scrub request runs no drift check, and a recalibration request
    /// does: each control bit triggers its own maintenance only.
    #[test]
    fn a_scrub_request_runs_no_drift_check() {
        let (engine, samples) = drifting_serving(932);
        // Intervals no run of this length reaches: only requests can check.
        // The scrub tolerance sits far above the drift, so scrubs stay clean.
        let config = ServingConfig::default()
            .with_ticks_per_batch(500)
            .with_recalibration(MaintenancePolicy::new(u64::MAX, 1e-3))
            .with_scrub(MaintenancePolicy::new(u64::MAX, 1.0));
        let run = |recalibrate: bool| {
            let pool = ServingPool::replicate(&engine, 1, config).unwrap();
            assert!(pool.serve(&samples).iter().all(Result::is_ok));
            pool.request_scrub();
            assert!(pool.serve(&samples).iter().all(Result::is_ok));
            if recalibrate {
                pool.request_recalibration();
                assert!(pool.serve(&samples).iter().all(Result::is_ok));
            }
            pool.shutdown()
        };
        let scrubbed = run(false);
        assert_eq!(
            scrubbed.maintenance.recalibrations, 0,
            "a scrub request ran a drift check"
        );
        assert_eq!(scrubbed.maintenance.scrub_failures, 0);
        let recalibrated = run(true);
        assert!(
            recalibrated.maintenance.recalibrations >= 1,
            "the recalibration request must recalibrate the aged replica"
        );
    }

    /// A drifting tiled tenant for bank maintenance tests.
    fn drifting_tenant(
        seed: u64,
        spare_rows: usize,
    ) -> (
        FebimEngine<crate::backend::TiledFabricBackend>,
        Vec<Vec<f64>>,
    ) {
        let (train, test) = split_for(seed);
        let config = EngineConfig::febim_default().with_non_idealities(
            febim_device::NonIdealityStack::ideal()
                .with_drift(febim_device::RetentionDrift::new(0.05, 100)),
        );
        let shape = TileShape::new(2, 24).unwrap().with_spare_rows(spare_rows);
        let engine = FebimEngine::fit_tiled(&train, config, shape).unwrap();
        (engine, samples_of(&test))
    }

    /// A swap of one tenant runs no maintenance on another: only the bank's
    /// swap bit is set. A forced recalibration, by contrast, reaches a
    /// bank's tenants too.
    #[test]
    fn a_swap_on_one_bank_runs_no_checks_on_another() {
        let (tenant_a, _) = drifting_tenant(933, 0);
        let (tenant_b, samples_b) = drifting_tenant(934, 0);
        let (tenant_c, _) = drifting_tenant(935, 0);
        let config = ServingConfig::default()
            .with_ticks_per_batch(500)
            .with_recalibration(MaintenancePolicy::new(u64::MAX, 1e-3));
        let run = |recalibrate: bool| {
            let (pool, swaps) = ServingPool::new_bank(
                vec![(1u64, tenant_a.clone()), (2u64, tenant_b.clone())],
                config,
            )
            .unwrap();
            assert!(pool.serve_model(2, &samples_b).iter().all(Result::is_ok));
            swaps
                .post(vec![1], Some((3, tenant_c.clone())))
                .wait()
                .unwrap();
            if recalibrate {
                pool.request_recalibration();
            }
            assert!(pool.serve_model(2, &samples_b).iter().all(Result::is_ok));
            pool.shutdown()
        };
        let swapped = run(false);
        assert_eq!(swapped.swaps, 1);
        assert_eq!(
            swapped.workers[0].maintenance.recalibrations, 0,
            "the swap ran a check"
        );
        let forced = run(true);
        assert!(forced.workers[0].maintenance.recalibrations >= 1);
    }

    /// Transient and permanent strikes for a chaos tenant. Each cell is hit
    /// by both fault kinds (at least one differs from its programmed level),
    /// and the permanent ones land in different tiles, one spare row each.
    fn chaos_schedule() -> FaultSchedule {
        let strike = |at_tick, row, column, kind, permanent| ScheduledFault {
            at_tick,
            row,
            column,
            kind,
            permanent,
        };
        FaultSchedule::new(vec![
            strike(2_250, 1, 3, FaultKind::StuckErased, false),
            strike(4_750, 1, 3, FaultKind::StuckProgrammed, false),
            strike(7_250, 2, 7, FaultKind::StuckProgrammed, true),
            strike(9_750, 0, 30, FaultKind::StuckErased, true),
        ])
    }

    /// Bank chaos: three drifting tiled tenants on banks {1, 2} and {3},
    /// struck by transient and permanent faults within their spare budget.
    /// Every bank recalibrates, scrubs and remaps like a replica does, every
    /// ticket is answered, and tenant 3 — alone on its bank — answers bit
    /// for bit like the same engine served through a one-replica pool.
    #[test]
    fn routed_chaos_heals_every_tenant_like_a_dedicated_pool() {
        let mut tenants: Vec<(
            FebimEngine<crate::backend::TiledFabricBackend>,
            Vec<Vec<f64>>,
        )> = [940u64, 941, 942]
            .into_iter()
            .map(|seed| {
                let (mut engine, samples) = drifting_tenant(seed, 1);
                engine.set_fault_schedule(chaos_schedule());
                (engine, samples)
            })
            .collect();
        let config = ServingConfig::default()
            .with_max_batch(1)
            .with_ticks_per_batch(500)
            .with_recalibration(MaintenancePolicy::new(500, 1e-3))
            .with_scrub(MaintenancePolicy::new(1_000, 1e-2));
        let (engine_3, samples_3) = tenants.pop().unwrap();
        let (engine_2, samples_2) = tenants.pop().unwrap();
        let (engine_1, samples_1) = tenants.pop().unwrap();
        let dedicated = ServingPool::new(vec![engine_3.clone()], config).unwrap();
        let expected = dedicated.serve(&samples_3);
        let dedicated = dedicated.shutdown();
        let (bank_0, _) =
            ServingPool::new_bank(vec![(1, engine_1), (2, engine_2)], config).unwrap();
        let (bank_1, _) = ServingPool::new_bank(vec![(3, engine_3)], config).unwrap();
        // Bank 0 serves its two tenants interleaved; bank 1 serves tenant 3
        // in the dedicated pool's order.
        let tickets: Vec<Ticket> = samples_1
            .iter()
            .zip(&samples_2)
            .flat_map(|(a, b)| [(1, a), (2, b)])
            .map(|(model, sample)| {
                bank_0
                    .submit_tenant_blocking(model, sample.clone())
                    .unwrap()
            })
            .collect();
        let answers_3 = bank_1.serve_model(3, &samples_3);
        for ticket in tickets {
            assert!(ticket.wait().is_ok(), "a bank 0 ticket failed");
        }
        for (routed, alone) in answers_3.iter().zip(&expected) {
            let (routed, alone) = (routed.as_ref().unwrap(), alone.as_ref().unwrap());
            assert_eq!(routed.prediction, alone.prediction);
            assert_eq!(routed.tie_broken, alone.tie_broken);
            assert_eq!(routed.delay, alone.delay);
            assert_eq!(routed.energy, alone.energy);
        }
        assert!([&bank_0, &bank_1]
            .iter()
            .all(|bank| bank.worker_health()[0].is_serving()));
        let stats = ServingPool::shutdown_banks([bank_0, bank_1]);
        assert_eq!(stats.failed_requests, 0);
        assert_eq!(stats.unrouted, 0);
        assert_eq!(
            stats.requests,
            (2 * samples_1.len().min(samples_2.len()) + samples_3.len()) as u64
        );
        let maintenance = &stats.maintenance;
        assert!(
            maintenance.recalibrations > 0,
            "routed banks must recalibrate"
        );
        assert!(
            maintenance.repair.cells_repaired > 0,
            "routed banks must repair faults"
        );
        assert!(
            maintenance.repair.rows_remapped > 0,
            "routed banks must remap stuck rows"
        );
        assert_eq!(stats.quarantined_workers, 0);
        // Tenant 3's bank did exactly the dedicated replica's maintenance.
        let (bank, alone) = (
            &stats.workers[1].maintenance,
            &dedicated.workers[0].maintenance,
        );
        assert_eq!(bank.recalibrations, alone.recalibrations);
        assert_eq!(bank.refresh.pulses_applied, alone.refresh.pulses_applied);
        assert_eq!(bank.repair.rows_remapped, alone.repair.rows_remapped);
        assert_eq!(bank.repair.pulses_applied, alone.repair.pulses_applied);
    }

    /// A pooled tenant gets exactly the maintenance a standalone
    /// [`Maintenance`] gives its engine: one batch of one request, then one
    /// tick of the batch's age. Fails if a tenant ages twice per batch,
    /// skips a due check or misses a health transition. The scrub-only run
    /// ages 2,000 ticks per batch, so two scrubs fall due in every tick: a
    /// degrading scrub and a recovering skip, two transitions that undo
    /// each other.
    #[test]
    fn a_pooled_tenant_is_maintained_like_a_standalone_engine() {
        let scrub = Some(MaintenancePolicy::new(1_000, 1e-2));
        let drift = Some(MaintenancePolicy::new(500, 1e-3));
        for (recalibration, ticks) in [(drift, 500), (None, 2_000)] {
            let (mut engine, samples) = drifting_tenant(943, 1);
            engine.set_fault_schedule(chaos_schedule());
            let config = ServingConfig {
                recalibration,
                scrub,
                ..ServingConfig::default()
                    .with_max_batch(1)
                    .with_ticks_per_batch(ticks)
            };
            let pool = ServingPool::new(vec![engine.clone()], config).unwrap();
            let answers = pool.serve(&samples);
            let stats = pool.shutdown();
            let mut maintenance = Maintenance::new(recalibration, scrub).unwrap();
            let mut scratch = engine.make_scratch();
            for (answer, sample) in answers.iter().zip(&samples) {
                let served = answer.as_ref().unwrap();
                let step = engine.infer_into(sample, &mut scratch).unwrap();
                assert_eq!(served.prediction, step.prediction);
                assert_eq!(served.tie_broken, step.tie_broken);
                assert_eq!(served.delay, step.delay);
                assert_eq!(served.energy, step.energy);
                let (refresh, repair) = maintenance.tick(&mut engine, ticks);
                refresh.unwrap();
                repair.unwrap();
            }
            let report = maintenance.report();
            assert_eq!(report.recalibrations > 0, recalibration.is_some());
            assert!(report.repair.rows_remapped > 0 && report.transitions > 0);
            assert_eq!(report.drift_failures + report.scrub_failures, 0);
            assert_eq!(stats.maintenance, *report);
        }
    }

    /// A bank keeps counting an evicted tenant's maintenance: the worker
    /// folds the tenant's report into its own at eviction, so the pool's
    /// totals still equal a standalone [`Maintenance`] ticked once per
    /// served batch.
    #[test]
    fn a_bank_keeps_counting_an_evicted_tenants_maintenance() {
        let (mut engine, samples) = drifting_tenant(944, 0);
        let recalibration = Some(MaintenancePolicy::new(500, 1e-3));
        let config = ServingConfig {
            recalibration,
            ..ServingConfig::default()
                .with_max_batch(1)
                .with_ticks_per_batch(500)
        };
        let (pool, swaps) = ServingPool::new_bank(vec![(1, engine.clone())], config).unwrap();
        assert!(pool.serve_model(1, &samples).iter().all(Result::is_ok));
        assert_eq!(swaps.post(vec![1], None).wait().unwrap().evicted, vec![1]);
        let stats = pool.shutdown();
        let mut maintenance = Maintenance::new(recalibration, None).unwrap();
        let mut scratch = engine.make_scratch();
        for sample in &samples {
            engine.infer_into(sample, &mut scratch).unwrap();
            maintenance.tick(&mut engine, 500).0.unwrap();
        }
        assert!(maintenance.report().recalibrations > 0);
        assert_eq!(stats.swaps, 1);
        assert_eq!(stats.maintenance, *maintenance.report());
    }

    /// A backend whose drift and scrub passes always fail.
    #[derive(Debug)]
    struct UnmaintainableBackend {
        inner: CrossbarBackend,
    }

    impl InferenceBackend for UnmaintainableBackend {
        fn info(&self) -> BackendInfo {
            self.inner.info()
        }

        fn make_scratch(&self) -> EvalScratch {
            self.inner.make_scratch()
        }

        fn infer_into(
            &self,
            sample: &[f64],
            scratch: &mut EvalScratch,
        ) -> CoreResult<InferenceStep> {
            self.inner.infer_into(sample, scratch)
        }

        fn reprogram(&mut self) -> CoreResult<()> {
            self.inner.reprogram()
        }

        fn current_map_into(&self, out: &mut Vec<f64>) -> CoreResult<()> {
            self.inner.current_map_into(out)
        }

        fn recalibrate(&mut self, _max_vth_shift: f64) -> CoreResult<RefreshOutcome> {
            Err(CoreError::NotProgrammed)
        }

        fn scrub(&mut self, _max_vth_shift: f64) -> CoreResult<ScrubOutcome> {
            Err(CoreError::NotProgrammed)
        }
    }

    /// Failed drift and scrub passes are counted once each, by a standalone
    /// [`Maintenance`] and by a pooled tenant alike, and the tenant keeps
    /// serving through them.
    #[test]
    fn failed_maintenance_passes_are_counted() {
        let (train, test) = split_for(945);
        let build = || {
            FebimEngine::fit_with(
                &train,
                EngineConfig::febim_default(),
                |quantized, config| {
                    Ok(UnmaintainableBackend {
                        inner: CrossbarBackend::new(quantized, config)?,
                    })
                },
            )
            .unwrap()
        };
        let policy = Some(MaintenancePolicy::new(10, 1e-3));
        // Two checks of each pass fall due; a failure ends its pass, so the
        // tick fails one drift check and one scrub. A forced drift check
        // fails again.
        let mut engine = build();
        let mut maintenance = Maintenance::new(policy, policy).unwrap();
        let (refresh, repair) = maintenance.tick(&mut engine, 20);
        assert!(refresh.is_err() && repair.is_err());
        assert!(maintenance.recalibrate(&mut engine).is_err());
        let report = maintenance.report();
        assert_eq!((report.drift_failures, report.scrub_failures), (2, 1));
        assert_eq!((report.drift_checks, report.scrub_checks), (2, 1));
        assert_eq!(maintenance.health(), ReplicaHealth::Healthy);
        // One batch of one request per tick, each tick failing both passes.
        let config = ServingConfig {
            recalibration: policy,
            scrub: policy,
            ..ServingConfig::default()
                .with_max_batch(1)
                .with_ticks_per_batch(10)
        };
        let pool = ServingPool::new(vec![build()], config).unwrap();
        let samples = samples_of(&test);
        assert!(pool.serve(&samples).iter().all(Result::is_ok));
        let stats = pool.shutdown();
        let mut engine = build();
        let mut maintenance = Maintenance::new(policy, policy).unwrap();
        for _ in &samples {
            let (refresh, repair) = maintenance.tick(&mut engine, 10);
            assert!(refresh.is_err() && repair.is_err());
        }
        let batches = samples.len() as u64;
        assert_eq!(stats.maintenance.drift_failures, batches);
        assert_eq!(stats.maintenance.scrub_failures, batches);
        assert_eq!(stats.maintenance, *maintenance.report());
    }

    /// A tiled tenant whose unspared fabric took permanent hits before
    /// deployment: its first scrub quarantines it.
    fn unrepairable_tenant(
        seed: u64,
    ) -> (
        FebimEngine<crate::backend::TiledFabricBackend>,
        Vec<Vec<f64>>,
    ) {
        let (train, test) = split_for(seed);
        let mut engine = FebimEngine::fit_tiled(
            &train,
            EngineConfig::febim_default(),
            TileShape::new(2, 24).unwrap(),
        )
        .unwrap();
        let strike = |row, column, kind| ScheduledFault {
            at_tick: 1,
            row,
            column,
            kind,
            permanent: true,
        };
        engine.set_fault_schedule(FaultSchedule::new(vec![
            strike(1, 3, FaultKind::StuckErased),
            strike(0, 10, FaultKind::StuckProgrammed),
        ]));
        engine.advance_time(2);
        assert_eq!(engine.pending_faults(), 0, "the strikes must have landed");
        (engine, samples_of(&test))
    }

    /// A quarantined tenant of a bank keeps answering through its software
    /// twin while its bank-mate serves bit-identically on the fabric; a bank
    /// whose only tenant is quarantined falls back at once, since its tenant
    /// lives nowhere else. No ticket is dropped.
    #[test]
    fn quarantined_tenants_answer_through_their_software_twins() {
        let (struck, samples_1) = unrepairable_tenant(950);
        let (alone, samples_3) = unrepairable_tenant(951);
        let (train, test) = split_for(952);
        let mate = FebimEngine::fit_tiled(
            &train,
            EngineConfig::febim_default(),
            TileShape::new(2, 24).unwrap(),
        )
        .unwrap();
        let samples_2 = samples_of(&test);
        let mut scratch = mate.make_scratch();
        let reference_2: Vec<InferenceStep> = samples_2
            .iter()
            .map(|sample| mate.infer_into(sample, &mut scratch).unwrap())
            .collect();
        let (twin_1, twin_3) = (struck.software_fallback(), alone.software_fallback());
        let config = ServingConfig::default()
            .with_max_batch(1)
            .with_ticks_per_batch(1)
            .with_scrub(MaintenancePolicy::new(1, 1e-3));
        let (bank_0, _) = ServingPool::new_bank(vec![(1, struck), (2, mate)], config).unwrap();
        let (bank_1, _) = ServingPool::new_bank(vec![(3, alone)], config).unwrap();
        // One batch on each bank: the scrub after it quarantines the struck
        // tenants before either bank pops its next request.
        assert!(bank_0
            .serve_model(2, &samples_2[..1])
            .iter()
            .all(Result::is_ok));
        assert!(bank_1
            .serve_model(3, &samples_3[..1])
            .iter()
            .all(Result::is_ok));
        for (bank, model, samples, twin) in [
            (&bank_0, 1, &samples_1, &twin_1),
            (&bank_1, 3, &samples_3, &twin_3),
        ] {
            for (answer, sample) in bank.serve_model(model, samples).iter().zip(samples) {
                let outcome = answer.as_ref().expect("fallback answer");
                assert_eq!(outcome.prediction, twin.predict(sample).unwrap());
            }
        }
        for (answer, step) in bank_0.serve_model(2, &samples_2).iter().zip(&reference_2) {
            let outcome = answer.as_ref().unwrap();
            assert_eq!(outcome.prediction, step.prediction);
            assert_eq!(outcome.tie_broken, step.tie_broken);
            assert_eq!(outcome.delay, step.delay);
            assert_eq!(outcome.energy, step.energy);
        }
        assert!(
            bank_0.worker_health()[0].is_serving(),
            "bank 0 still has a serving tenant"
        );
        assert_eq!(bank_1.worker_health()[0], ReplicaHealth::Quarantined);
        let stats = ServingPool::shutdown_banks([bank_0, bank_1]);
        assert_eq!(
            stats.fallback_served,
            (samples_1.len() + samples_3.len()) as u64
        );
        assert_eq!(
            stats.requests,
            (2 + samples_1.len() + samples_2.len() + samples_3.len()) as u64
        );
        assert_eq!(stats.failed_requests, 0);
        assert_eq!(stats.shutdown_rejected, 0);
        assert_eq!(stats.quarantined_workers, 1);
    }
}

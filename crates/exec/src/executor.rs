//! The execution core: real threads replaying decoded task graphs out
//! of order — a *pipelined* core in which decode itself streams
//! concurrently with execution, the way the paper's distributed
//! ORT/OVT/TRS frontend feeds its backend without serializing it.
//!
//! Scheme (DESIGN.md §7 for the execution side, §8 for the streaming
//! protocol and memory orderings):
//!
//! - **One persistent executor.** [`Executor::new`] starts the worker
//!   threads, the decode shard threads and (at most) one watchdog
//!   once; [`Executor::submit`] hands it a graph for as long as it
//!   lives, and dropping it joins the threads. [`Executor::run`] is
//!   submit + wait. No thread is spawned or joined per graph.
//! - **Per-graph state.** Each submitted graph owns its deques,
//!   injector, readiness counters, status bytes, tickets and fault
//!   accounting, so the per-task hot path is the single-graph one and
//!   quarantine, cancel and kill stay scoped to one graph. A worker
//!   serves one graph until it has no work for that worker, then scans
//!   the other active graphs, and parks on the executor-wide parker
//!   only after a complete scan of all of them.
//! - **Streaming decode.** Decode shard threads rename each graph
//!   window by window *while* workers execute already-committed
//!   windows (the decode cost overlaps execution —
//!   [`ExecReport::decode_overlap_pct`]).
//! - **Lock-free scheduling.** Per-worker [`ChaseLev`] deques (owner
//!   LIFO, thief FIFO, batch stealing takes half). Idle workers drain
//!   the injector first, then scan every other worker's deque from a
//!   seeded random start.
//! - **Readiness.** Every task carries an atomic counter that starts at
//!   a large sentinel `UNPUBLISHED`: producers that finish *before*
//!   their successor is even decoded simply decrement through the
//!   sentinel, and the window commit adds `pred_count − UNPUBLISHED`
//!   back — whichever atomic op lands the counter exactly on zero owns
//!   the push. Early release needs no blocking and no side lookups.
//! - **Pending-release lists.** A producer's successor set is not fully
//!   known until later windows decode. Each task owns a lock-free
//!   pending list (CAS-push by the window committer); completion swaps
//!   the head with `CLOSED` and drains. A committer that observes
//!   `CLOSED` knows the producer already completed and drained, and
//!   counts the edge as satisfied itself — the exactly-once handshake
//!   (§8).
//! - **Parking without storms.** Workers park on a condvar epoch, but
//!   wakes are throttled: a completion wakes one thief only when it
//!   banked *surplus* ready tasks (≥ 2), and a window commit wakes
//!   everyone once per window.
//! - **Completion tickets** are taken *before* successor release, so
//!   the ticket sequence is a linearization of the dependency order by
//!   construction; [`DepGraph::validate_order`] checks it on every
//!   validated graph. The ticket counter doubles as the graph's
//!   termination count: ticket `n−1` means every task has executed.
//! - **Attach/detach/finalize.** Workers and decode shards *attach* to
//!   a graph while they touch it; the last one to detach from a
//!   stopped graph finalizes it exactly once (oracle check, report,
//!   completion callback). [`Handoff`] is that protocol (§8.2).
//!
//! With one worker there is no stealing and no ticket race, but a
//! streamed run is still oracle-deterministic only: whether a task
//! arrives via the injector or via a producer's pending list is the
//! decode-vs-execution race itself (`tests/streaming.rs` pins that
//! contract).

use crate::sync::atomic::{AtomicI32, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use crate::sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;
// All wall-clock reads go through the tss-obs timestamp facade (tss-lint
// bans raw Instant::now() in this crate, DESIGN.md §12.1); the sinks
// are zero-sized no-ops unless the `obs` feature is on.
use tss_obs::clock::Stamp;
use tss_obs::{ObsReport, SharedObs, SpanStamp, WorkerObs};

use crate::deque::{rotate_victims, ChaseLev, BATCH_MAX};
use crate::fault::{
    backoff_for, panic_message, ExecError, FailedTask, FailurePolicy, FaultPlan, FaultReport,
    InjectedFault, TaskFailure, INJECTED_PANIC_MARKER,
};
use crate::payload::{build_arena, PayloadMode, PayloadScratch};
use crate::renamer::{merge_window, RenameStats, ShardState};
use tss_sim::{CachePadded, Cycle};
use tss_trace::{OrderViolation, TaskId, TaskTrace};

/// Executor configuration. `threads`, `payload`, `renaming`,
/// `validate`, `window` and `decode_shards` shape the executor itself;
/// the rest are the per-graph defaults [`Executor::run`] submits with
/// (see [`GraphOptions`]).
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker thread count (≥ 1).
    pub threads: usize,
    /// What each task execution does.
    pub payload: PayloadMode,
    /// Operand renaming in the frontend (off = WaR/WaW enforced too).
    pub renaming: bool,
    /// Seeds the per-worker steal-victim rotation.
    pub seed: u64,
    /// Check the completion log against the `DepGraph` oracle after the
    /// run (on by default; a violating run panics — it is an executor
    /// bug, never a workload property).
    pub validate: bool,
    /// Streaming decode window: tasks committed to the executor per
    /// batch (≥ 1). Smaller windows overlap sooner but commit more
    /// often.
    pub window: usize,
    /// Decode shard threads (≥ 1): address interning is
    /// hash-partitioned this many ways and each shard renames its
    /// partition on its own thread (the distributed-ORT analogy).
    pub decode_shards: usize,
    /// What the run does when a task fails (DESIGN.md §11).
    pub policy: FailurePolicy,
    /// Per-task wall-clock budget: an attempt exceeding it is cancelled
    /// by the watchdog and counts as a [`TaskFailure::Deadline`].
    pub task_deadline: Option<Duration>,
    /// Whole-run wall-clock budget: expiry aborts the run with
    /// [`ExecError::RunDeadline`].
    pub run_deadline: Option<Duration>,
    /// Chaos: the worker that takes completion ticket `K` leaves the
    /// graph right after releasing that task's successors (the
    /// survivors adopt its deque via the thief protocol). Exactly one
    /// worker is lost in every run with more than `K` tasks, whatever
    /// the thread timing; a run with at most `K` tasks loses none.
    /// Requires `threads >= 2`.
    pub kill_at_ticket: Option<usize>,
    /// External cancellation (DESIGN.md §11.3): when the token fires,
    /// the run aborts and returns [`ExecError::Cancelled`] with its
    /// progress counts. An armed token that never fires costs nothing.
    pub cancel: Option<CancelToken>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 4,
            payload: PayloadMode::Noop,
            renaming: true,
            seed: 1,
            validate: true,
            window: 1024,
            decode_shards: 1,
            policy: FailurePolicy::FailFast,
            task_deadline: None,
            run_deadline: None,
            kill_at_ticket: None,
            cancel: None,
        }
    }
}

impl ExecConfig {
    /// The per-graph fields, as [`Executor::run`] submits them.
    pub fn graph_options(&self) -> GraphOptions {
        GraphOptions {
            payload: self.payload,
            seed: self.seed,
            policy: self.policy,
            task_deadline: self.task_deadline,
            run_deadline: self.run_deadline,
            kill_at_ticket: self.kill_at_ticket,
            cancel: self.cancel.clone(),
        }
    }
}

/// What one submitted graph runs under (the per-graph half of
/// [`ExecConfig`], same meanings). The default is
/// `ExecConfig::default().graph_options()`.
#[derive(Debug, Clone)]
pub struct GraphOptions {
    /// What each task execution does. `memcpy` and `mixed` read the
    /// executor's source arena, so they need an executor built with one
    /// of those payloads; the others run on any executor.
    pub payload: PayloadMode,
    /// Seeds the per-worker steal-victim rotation for this graph.
    pub seed: u64,
    /// Failure policy (DESIGN.md §11).
    pub policy: FailurePolicy,
    /// Per-task wall-clock budget.
    pub task_deadline: Option<Duration>,
    /// Whole-graph wall-clock budget, counted from submission.
    pub run_deadline: Option<Duration>,
    /// Chaos worker loss keyed on completion ticket `K`.
    pub kill_at_ticket: Option<usize>,
    /// External cancellation.
    pub cancel: Option<CancelToken>,
}

impl Default for GraphOptions {
    fn default() -> Self {
        ExecConfig::default().graph_options()
    }
}

/// A cloneable external-cancellation handle. The serve layer
/// (DESIGN.md §14.3) arms one per accepted graph so a drain deadline
/// can stop a graph that is already executing; anything else that
/// embeds the executor can do the same.
///
/// Cancellation is pushed, never polled: [`CancelToken::cancel`]
/// raises the abort and taint flags of every graph the token is armed
/// on and wakes the workers, so an armed token that never fires adds
/// no watch slot, no guarded lane and no watchdog tick. Workers observe
/// the abort between tasks: the task in flight finishes (or, when a
/// deadline armed watch slots for the graph, is cancelled mid-payload),
/// and every task still queued is dropped unrun. A token fired before
/// its graph is submitted cancels it before any task runs.
#[derive(Clone, Default)]
pub struct CancelToken(Arc<TokenState>);

#[derive(Default)]
struct TokenState {
    fired: AtomicU32,
    /// Graphs this token is armed on (pruned as they finish).
    graphs: Mutex<Vec<Weak<Graph>>>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken").field("cancelled", &self.is_cancelled()).finish()
    }
}

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fires the token and aborts every graph it is armed on.
    /// Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.fired.store(1, Ordering::Release);
        let graphs = std::mem::take(&mut *lock(&self.0.graphs));
        for g in graphs.iter().filter_map(Weak::upgrade) {
            g.cancel();
        }
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.fired.load(Ordering::Acquire) != 0
    }

    /// Arms the token on `g`. Both sides take the same lock, so either
    /// `cancel` sees `g` in the list or this sees the token fired.
    fn arm(&self, g: &Arc<Graph>) {
        let mut graphs = lock(&self.0.graphs);
        if self.is_cancelled() {
            drop(graphs);
            g.cancel();
            return;
        }
        graphs.retain(|w| w.strong_count() > 0);
        graphs.push(Arc::downgrade(g));
    }
}

/// Locks a facade mutex, ignoring poison: every critical section in
/// this file leaves its data consistent, and a waiter on a lent trace
/// must never unwind before its graph is finalized.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-worker counters for one graph. Each worker accumulates them on
/// its own stack while it serves the graph (the strongest form of
/// false-sharing avoidance) and adds them into its per-graph slot when
/// it detaches.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub executed: u64,
    /// Steal *events* (a batch steal of k tasks counts once).
    pub steals: u64,
    /// Wall time spent executing tasks, measured per work *burst* (the
    /// span from acquiring work to going idle), not per task: noop
    /// payloads pay two clock reads per burst instead of two per task,
    /// so `noop` throughput still measures scheduling, yet `busy_frac`
    /// is real for every payload (the ISSUE 5 regression was `busy`
    /// never accumulating on noop runs, printing 0.0000 for a worker
    /// that executed every task).
    pub busy: Duration,
}

/// Everything measured in one native replay.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Benchmark name (from the trace).
    pub benchmark: String,
    /// Tasks replayed.
    pub tasks: usize,
    /// Worker threads.
    pub threads: usize,
    /// Payload mode.
    pub payload: PayloadMode,
    /// Decode span: from thread start to the last window commit — a
    /// *span* that shares the host with execution, not a pure-work
    /// figure.
    pub decode_wall: Duration,
    /// The whole pipelined run — decode happens *inside* this span,
    /// which is the point.
    pub exec_wall: Duration,
    /// Share (percent) of `exec_wall` during which decode was still
    /// streaming; near 100 means the frontend streamed for the whole
    /// run and was never a standalone latency.
    pub decode_overlap_pct: f64,
    /// Decode shard threads used.
    pub decode_shards: usize,
    /// The completion log: task ids in global completion-ticket order.
    pub order: Vec<TaskId>,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Renamer decode statistics.
    pub rename: RenameStats,
    /// Whether the completion log was checked against the oracle.
    pub validated: bool,
    /// Failure accounting (all-zero for a clean run).
    pub fault: FaultReport,
    /// RingSink observability data (latency histograms, per-worker
    /// event tracks, gauges) — `Some` exactly when the crate was built
    /// with the `obs` feature (DESIGN.md §12), `None` in the NoopSink
    /// default build.
    pub obs: Option<ObsReport>,
}

impl ExecReport {
    /// Decode throughput in nanoseconds per task — a span over a shared
    /// host, see [`ExecReport::decode_wall`].
    pub fn decode_ns_per_task(&self) -> f64 {
        if self.tasks == 0 {
            return 0.0;
        }
        self.decode_wall.as_nanos() as f64 / self.tasks as f64
    }

    /// End-to-end throughput in tasks per second (decode is inside the
    /// denominator).
    pub fn tasks_per_sec(&self) -> f64 {
        let s = self.exec_wall.as_secs_f64();
        if s > 0.0 {
            self.tasks as f64 / s
        } else {
            0.0
        }
    }

    /// Total steal events across workers.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// A worker's busy fraction of the replay wall time (burst-timed;
    /// see [`WorkerStats::busy`]).
    pub fn utilization(&self, worker: usize) -> f64 {
        let wall = self.exec_wall.as_secs_f64();
        if wall > 0.0 {
            self.workers[worker].busy.as_secs_f64() / wall
        } else {
            0.0
        }
    }

    /// Tasks that completed (payload ran to success), from the workers'
    /// own counters — independent of the status-array scan that feeds
    /// [`ExecReport::fault`], which is what makes reconciliation a real
    /// cross-check.
    pub fn completed(&self) -> usize {
        self.workers.iter().map(|w| w.executed as usize).sum()
    }

    /// Tasks that completed without ever failing an attempt.
    pub fn completed_clean(&self) -> usize {
        self.completed() - self.fault.retried_ok
    }

    /// The §11 accounting identity: `clean + retried-into-success +
    /// failed + poisoned = tasks`, with `clean + retried` counted by
    /// the workers and `failed + poisoned` by the final status scan. A
    /// report that does not reconcile is an executor bug; the harness
    /// gates on this.
    pub fn accounting_reconciles(&self) -> bool {
        self.completed() + self.fault.failed.len() + self.fault.poisoned.len() == self.tasks
            && self.fault.retried_ok <= self.completed()
    }
}

// ---------------------------------------------------------------------
// Parker
// ---------------------------------------------------------------------

/// Condvar epoch for idle-worker parking. A worker reads the epoch
/// *before* scanning for work and only sleeps if the epoch is unchanged
/// since — any wake between its read and its sleep is therefore
/// observed (the epoch moved) and the sleep aborts. The epoch ops are
/// `SeqCst`: the worker's *read epoch → scan queues* and a producer's
/// *push work → bump epoch* form the classic store-load (Dekker)
/// pattern, which weaker orderings do not close (§8). The mutex and
/// condvar are touched only when someone actually parks or wakes.
struct Parker {
    epoch: CachePadded<AtomicU64>,
    idle: CachePadded<AtomicUsize>,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Parker {
    fn new() -> Self {
        Parker {
            epoch: CachePadded::new(AtomicU64::new(0)),
            idle: CachePadded::new(AtomicUsize::new(0)),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    #[inline]
    fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Whether any worker is parked (a hint for wake throttling; a
    /// missed hint delays a thief until the next wake, it never loses
    /// work — the producer itself still holds the tasks).
    #[inline]
    fn has_idle(&self) -> bool {
        // RELAXED: idle-count hint for wake elision; the SeqCst parker epoch is the real sleep/wake
        // edge
        self.idle.load(Ordering::Relaxed) > 0
    }

    /// Wakes one parked worker (throttled wake: surplus in one deque
    /// needs one thief, not a stampede).
    fn wake_one(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let _g = self.lock.lock().expect("parker poisoned");
        self.cv.notify_one();
    }

    /// Wakes all parked workers (window commits, termination).
    fn wake_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // Taking the lock orders the bump against a parker that has
        // checked the epoch but not yet entered `wait` (it holds the
        // lock across that window), so the notify cannot land in the
        // gap.
        let _g = self.lock.lock().expect("parker poisoned");
        self.cv.notify_all();
    }

    /// Parks until the epoch moves past `seen` or `done` returns true.
    fn park(&self, seen: u64, done: impl Fn() -> bool) {
        self.idle.fetch_add(1, Ordering::SeqCst);
        let mut g = self.lock.lock().expect("parker poisoned");
        while self.epoch.load(Ordering::SeqCst) == seen && !done() {
            g = self.cv.wait(g).expect("parker poisoned");
        }
        drop(g);
        self.idle.fetch_sub(1, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------
// Task status (the POISONED readiness sentinel, DESIGN.md §11)
// ---------------------------------------------------------------------

/// Task ran (or will run) normally.
const HEALTHY: u8 = 0;
/// A producer in the task's ancestry failed: skip the payload, count it
/// quarantined, propagate.
const POISONED: u8 = 1;
/// The task itself failed every attempt.
const FAILED: u8 = 2;

/// Ordering of the *fail-path* pending-list close (the `swap` to
/// `PENDING_CLOSED` in `poison_release`). The release half is what
/// publishes the producer's FAILED/POISONED status byte to a window
/// committer that observes `PENDING_CLOSED` with its `Acquire` head
/// load: weaken it and the committer can read a stale HEALTHY status
/// and wrongly count the edge healthy-satisfied, executing a task whose
/// producer failed. `--cfg tss_bug_poison_relaxed` seeds exactly that
/// bug so CI can prove the model suite still catches it (§10.3).
#[cfg(not(tss_bug_poison_relaxed))]
const POISON_PUBLISH: Ordering = Ordering::AcqRel;
#[cfg(tss_bug_poison_relaxed)]
// RELAXED: deliberately-weak seeded-bug arm, compiled only under --cfg tss_bug_poison_relaxed;
// model_poison_publish_reaches_the_committer fails when active (DESIGN.md §11.2)
const POISON_PUBLISH: Ordering = Ordering::Relaxed;

/// Marks a task poisoned. Plain store: the countdown RMW chain (or the
/// pending-close publish) that makes the task *ready* is what carries
/// the byte to whoever pops it.
#[inline]
fn mark_poisoned(status: &AtomicU8) {
    // RELAXED: poison byte store; carried to the consumer by the countdown AcqRel RMW chain or the
    // pending-close publish (DESIGN.md §11.2)
    status.store(POISONED, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Successor release (how a completion finds its successors)
// ---------------------------------------------------------------------

/// Pending-list head sentinels.
const PENDING_NIL: u32 = u32::MAX;
const PENDING_CLOSED: u32 = u32::MAX - 1;

/// Readiness sentinel: a counter at `UNPUBLISHED − k`
/// means "not yet decoded, k producers already finished". Must exceed
/// any real producer count; `1 << 30` towers over the ≤ `3 ×
/// operands` edge bound.
const UNPUBLISHED: i32 = 1 << 30;

/// Successor sets grow as later windows decode, so each task owns a
/// lock-free pending-release list; counters start at the
/// [`UNPUBLISHED`] sentinel and are reconciled by the window commit.
struct StreamRelease {
    unready: Vec<AtomicI32>,
    /// Pending-list heads: `PENDING_NIL` empty, `PENDING_CLOSED` after
    /// the owner completed and drained, else a `nodes` index.
    pending: Vec<AtomicU32>,
    /// Node slab: `(next << 32) | succ`, bump-allocated by the window
    /// committer (the commit lock serializes allocation), capacity
    /// fixed at the `3 × operands` edge bound so nodes never move.
    nodes: Vec<AtomicU64>,
}

impl StreamRelease {
    fn new(n: usize, edge_cap: usize) -> Self {
        StreamRelease {
            unready: (0..n).map(|_| AtomicI32::new(UNPUBLISHED)).collect(),
            pending: (0..n).map(|_| AtomicU32::new(PENDING_NIL)).collect(),
            nodes: (0..edge_cap).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn countdown(&self, s: u32, ready: &mut Vec<u32>) {
        if self.unready[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
            ready.push(s);
        }
    }

    /// Registers edge `p → s` (committer thread, under the commit
    /// lock), storing the list node at `node_idx`. Returns how the edge
    /// resolved; on either `Satisfied*` fate the node slot is unused.
    fn register_edge(&self, node_idx: u32, p: u32, s: u32, status: &[AtomicU8]) -> EdgeFate {
        loop {
            let head = self.pending[p as usize].load(Ordering::Acquire);
            if head == PENDING_CLOSED {
                // `p` completed and drained before this edge existed:
                // the committer owns the satisfaction (§8). The Acquire
                // head load synchronizes with the closing swap, so `p`'s
                // status byte (stored before the close) is visible —
                // unless the seeded §10.3 bug weakened the close.
                // RELAXED: status byte read after the Acquire head load observed PENDING_CLOSED;
                // ordered by the AcqRel close (DESIGN.md §11.2)
                return if status[p as usize].load(Ordering::Relaxed) == HEALTHY {
                    EdgeFate::SatisfiedHealthy
                } else {
                    EdgeFate::SatisfiedPoisoned
                };
            }
            let node = ((head as u64) << 32) | s as u64;
            // RELAXED: node payload write; published to the drainer by the AcqRel head CAS that
            // links it
            self.nodes[node_idx as usize].store(node, Ordering::Relaxed);
            if self.pending[p as usize]
                .compare_exchange(head, node_idx, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return EdgeFate::Registered;
            }
            // Lost to the drain swap (or another commit — impossible
            // under the commit lock): retry against the new head.
        }
    }

    /// Called exactly once per completed task `t`; appends every task
    /// made ready by this completion to `ready`. `obs` carries the
    /// sampled pending-drain gauge (a no-op in NoopSink builds).
    #[inline]
    fn release(&self, t: u32, ready: &mut Vec<u32>, obs: &SharedObs) {
        // Close the list: every edge registered up to now is drained
        // here; every edge registered after sees CLOSED and counts
        // itself satisfied at the commit (§8 exactly-once handshake).
        let mut head = self.pending[t as usize].swap(PENDING_CLOSED, Ordering::AcqRel);
        let mut drained = 0u64;
        while head != PENDING_NIL {
            // RELAXED: node read after winning the AcqRel swap of the pending head; the swap orders
            // the list
            let node = self.nodes[head as usize].load(Ordering::Relaxed);
            self.countdown(node as u32, ready);
            drained += 1;
            head = (node >> 32) as u32;
        }
        // Sampled pending-drain gauge: folds away in NoopSink builds
        // (`sampled` is const false), and on RingSink builds only 1-in-
        // SAMPLE_EVERY completions touch the shared gauge line.
        if tss_obs::sampled(t) {
            obs.note_pending_drain(drained as usize);
        }
    }

    /// [`StreamRelease::release`] for a FAILED or POISONED task `t`:
    /// marks every successor POISONED in `status` *before* counting it
    /// down, so a successor that becomes ready is observed poisoned by
    /// whichever worker pops it (the countdown's AcqRel chain plus the
    /// deque's push/steal protocol carry the byte).
    fn poison_release(&self, t: u32, status: &[AtomicU8], ready: &mut Vec<u32>) {
        // Same close as `release`, but the swap's ordering is the
        // POISON_PUBLISH constant: its release half is what hands `t`'s
        // FAILED/POISONED status byte to a committer that sees CLOSED
        // (the §10.3 seeded bug weakens exactly this edge).
        let mut head = self.pending[t as usize].swap(PENDING_CLOSED, POISON_PUBLISH);
        while head != PENDING_NIL {
            // RELAXED: node read after winning the POISON_PUBLISH swap of the pending head; the
            // swap orders the list
            let node = self.nodes[head as usize].load(Ordering::Relaxed);
            let s = node as u32;
            mark_poisoned(&status[s as usize]);
            self.countdown(s, ready);
            head = (node >> 32) as u32;
        }
    }
}

/// How a window-commit edge registration resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeFate {
    /// Pushed onto the producer's pending list; the producer's drain
    /// will count it down.
    Registered,
    /// The producer already completed healthy: the committer counts the
    /// edge satisfied.
    SatisfiedHealthy,
    /// The producer already completed FAILED/POISONED: the committer
    /// counts the edge satisfied *and* poisons the successor.
    SatisfiedPoisoned,
}

// ---------------------------------------------------------------------
// Per-graph state
// ---------------------------------------------------------------------

/// One worker's deadline-watchdog slot. The worker arms it around each
/// payload attempt; the watchdog thread polls armed slots and raises
/// `cancel` past the deadline. A worker that observes `cancel` verifies
/// the deadline really expired before failing the attempt (the arm ↔
/// poll race can, rarely, cancel a *fresh* attempt; the verification
/// turns that into a silent payload restart instead of a wrong
/// failure).
struct WatchSlot {
    /// Absolute attempt deadline, ns since `Graph::t0` (0 = unarmed).
    deadline_ns: CachePadded<AtomicU64>,
    /// Nonzero = stop the current payload.
    cancel: AtomicU32,
}

impl WatchSlot {
    fn new() -> Self {
        WatchSlot { deadline_ns: CachePadded::new(AtomicU64::new(0)), cancel: AtomicU32::new(0) }
    }
}

/// One worker's accounting for one graph. Only that worker writes it,
/// and only while attached; the finalizer reads it after every
/// participant has detached. The counters are Relaxed: the detach RMW
/// ([`DETACH_PUBLISH`]) is the edge that carries them to the finalizer.
struct WorkerSlot {
    executed: AtomicU64,
    steals: AtomicU64,
    busy_ns: AtomicU64,
    /// Steal-victim rotation state, carried from one attach to the next.
    rng: AtomicU64,
    /// Nonzero once the worker left the graph for good (kill ticket or
    /// an executor-bug panic): it never attaches to it again.
    lost: AtomicU32,
    /// The worker's observability sink for this graph.
    obs: Mutex<Option<WorkerObs>>,
}

impl WorkerSlot {
    fn new(rng: u64) -> Self {
        WorkerSlot {
            executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            rng: AtomicU64::new(rng),
            lost: AtomicU32::new(0),
            obs: Mutex::new(None),
        }
    }
}

/// The CLOSED bit of [`Handoff`]'s word: set by the first participant
/// that detaches from a stopped graph; no attach succeeds after it.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// Ordering of the detach RMW. Its release half publishes everything
/// the detaching participant wrote for the graph (worker-slot
/// counters, completion-log slots, status bytes, decode counters); its
/// acquire half, on the last detach, is what lets the finalizer read
/// all of it. `--cfg tss_bug_detach_relaxed` weakens it so CI can
/// prove the model suite catches a finalizer reading stale stats
/// (§10.3).
#[cfg(not(tss_bug_detach_relaxed))]
const DETACH_PUBLISH: Ordering = Ordering::AcqRel;
#[cfg(tss_bug_detach_relaxed)]
// RELAXED: deliberately-weak seeded-bug arm, compiled only under --cfg tss_bug_detach_relaxed;
// model_graph_handoff_finalizes_once_after_every_detach fails when active (DESIGN.md §8.2)
const DETACH_PUBLISH: Ordering = Ordering::Relaxed;

/// The attach/detach/finalize handoff (DESIGN.md §8.2): one word
/// holding the number of attached participants (workers and decode
/// shards) plus the [`CLOSED`] bit. A participant that detaches from a
/// stopped graph closes it in the same RMW; the detach that leaves a
/// closed graph with no one attached is the unique finalizer.
struct Handoff {
    state: CachePadded<AtomicUsize>,
}

impl Handoff {
    /// A handoff with `attached` participants already attached.
    fn new(attached: usize) -> Self {
        Handoff { state: CachePadded::new(AtomicUsize::new(attached)) }
    }

    /// Attaches one participant; fails once the graph is closed.
    fn attach(&self) -> bool {
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            if s & CLOSED != 0 {
                return false;
            }
            match self.state.compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Acquire) {
                Ok(_) => return true,
                Err(now) => s = now,
            }
        }
    }

    /// Detaches one participant, closing the graph first if the caller
    /// saw it stopped. Returns `true` for exactly one caller per graph:
    /// the one that left it closed with nobody attached, which must
    /// finalize it.
    fn detach(&self, stopped: bool) -> bool {
        if !stopped {
            return self.state.fetch_sub(1, DETACH_PUBLISH) == CLOSED | 1;
        }
        // RELAXED: CAS seed only; the CAS below re-validates it
        let mut s = self.state.load(Ordering::Relaxed);
        loop {
            let next = (s | CLOSED) - 1;
            // RELAXED: failure ordering of a retried CAS; the successful CAS carries DETACH_PUBLISH
            match self.state.compare_exchange_weak(s, next, DETACH_PUBLISH, Ordering::Relaxed) {
                Ok(_) => return next == CLOSED,
                Err(now) => s = now,
            }
        }
    }
}

/// A pointer to the trace a graph replays: into the graph's own
/// `Arc<TaskTrace>` for [`Executor::submit`], or to the caller's
/// borrow for [`Executor::run`].
struct TracePtr(NonNull<TaskTrace>);

// SAFETY: `TaskTrace` is plain immutable data (Sync), and the pointer is
// only dereferenced through `Graph::trace`, whose contract keeps the
// pointee alive for every dereference; sharing the pointer across
// threads is then sharing a `&TaskTrace`.
unsafe impl Send for TracePtr {}
// SAFETY: as for Send above: only ever read as a shared reference.
unsafe impl Sync for TracePtr {}

/// What runs when a graph is finalized.
type Completion = Box<dyn FnOnce(Result<ExecReport, ExecError>) + Send>;

/// One submitted graph: its trace, its scheduling and readiness state,
/// its failure domain, and its handoff. Shared by the workers and
/// decode shards that attach to it.
struct Graph {
    core: Arc<Core>,
    trace: TracePtr,
    /// Keeps a submitted trace alive (`None` for a trace lent by `run`).
    _owner: Option<Arc<TaskTrace>>,
    release: StreamRelease,
    /// Traced runtimes as a dense SoA column (only populated for spin
    /// payloads): the readiness/dispatch hot path must not drag each
    /// task's whole `TaskDesc` (operand `Vec` header included) through
    /// the cache for one u64.
    runtimes: Vec<Cycle>,
    n: usize,
    /// Completion tickets: `order[k]` is the k-th task to complete.
    order: Vec<AtomicU32>,
    /// Ticket source *and* termination counter: ticket `n − 1` implies
    /// every task has executed.
    next_ticket: CachePadded<AtomicUsize>,
    deques: Vec<ChaseLev>,
    injector: ChaseLev,
    payload: PayloadMode,

    // --- failure domain (DESIGN.md §11) ---
    /// Per-task status byte (HEALTHY / POISONED / FAILED).
    status: Vec<AtomicU8>,
    /// Nonzero = stop the graph (fail-fast failure, run deadline,
    /// cancellation, or an infrastructure panic). Checked on the idle
    /// path, the park predicate and the guarded lane — never on the
    /// fast lane.
    abort: CachePadded<AtomicU32>,
    /// Nonzero once any attempt has failed or the graph aborted:
    /// diverts subsequent tasks from the fast path onto the guarded
    /// path even when no chaos is armed (a real payload panic under
    /// Quarantine must still poison; an aborted graph drops its queued
    /// tasks).
    tainted: CachePadded<AtomicU32>,
    /// Resolved fault-injection plan (all-zero when disarmed).
    plan: FaultPlan,
    policy: FailurePolicy,
    max_attempts: u32,
    backoff_base: Duration,
    /// Per-task deadline (None = unarmed).
    task_deadline: Option<Duration>,
    /// The configured run deadline, for the error report.
    run_deadline: Option<Duration>,
    /// Absolute run deadline, ns since `t0` (0 = unarmed).
    run_deadline_ns: u64,
    /// Submission time: wall anchor for every deadline computation and
    /// for the decode and execution spans.
    t0: Stamp,
    /// Anchor of each worker's whole-graph obs span.
    span: SpanStamp,
    /// Shared observability state (ready-time table + gauges); a ZST
    /// no-op unless the `obs` feature is on (DESIGN.md §12).
    obs: SharedObs,
    /// True when any per-task machinery (injection, task deadline, or
    /// payload cancellation for the run deadline) must run: decided
    /// once, so a fault-free graph's per-task path is unchanged.
    guarded: bool,
    /// Per-worker watchdog slots (empty unless a deadline is armed).
    watch: Vec<WatchSlot>,
    /// Set by the watchdog when the run deadline expired.
    run_deadline_hit: AtomicU32,
    /// Set when a cancel token aborted the graph.
    cancel_hit: AtomicU32,
    /// Final failure records, in completion order.
    failures: Mutex<Vec<FailedTask>>,
    /// First infrastructure (non-payload) panic message.
    infra_panic: Mutex<Option<String>>,
    /// `retry_hist[k]`: outcomes that consumed k+1 attempts (only
    /// maintained under a Retry policy).
    retry_hist: Vec<AtomicU64>,
    /// Tasks that failed an attempt but eventually completed.
    retried_ok: CachePadded<AtomicUsize>,

    // --- decode and lifetime ---
    dec: DecodeState,
    /// Rename statistics summed over the decode shards.
    rename: Mutex<RenameStats>,
    /// Per-decode-shard obs sinks, handed in as each shard detaches.
    decode_obs: Mutex<Vec<WorkerObs>>,
    slots: Vec<CachePadded<WorkerSlot>>,
    handoff: Handoff,
    on_done: Mutex<Option<Completion>>,
}

impl Graph {
    fn new(
        core: &Arc<Core>,
        trace: TracePtr,
        owner: Option<Arc<TaskTrace>>,
        opts: &GraphOptions,
        on_done: Completion,
    ) -> Graph {
        // SAFETY: the caller's reference (or `owner`) is alive for this
        // whole call.
        let tr = unsafe { trace.0.as_ref() };
        let n = tr.len();
        let total_ops: usize = tr.iter().map(|t| t.operands.len()).sum();
        // Pre-dedup pair bound: ≤ 1 RaW per read + 1 WaW per write +
        // readers cleared per write (≤ total reads) — see renamer.rs.
        let edge_cap = 3 * total_ops + 8;
        let threads = core.cfg.threads;
        let payload = opts.payload;
        let runtimes = if matches!(payload, PayloadMode::Spin { .. }) {
            tr.iter().map(|t| t.runtime).collect()
        } else {
            Vec::new()
        };
        let plan = match payload {
            PayloadMode::Faulty { rate_ppm, seed } => {
                FaultPlan { rate_ppm, seed, kill_at_ticket: opts.kill_at_ticket }
            }
            _ => FaultPlan { rate_ppm: 0, seed: 0, kill_at_ticket: opts.kill_at_ticket },
        };
        // A cancel token is not a deadline: cancellation is pushed into
        // the abort flag (`Graph::cancel`), so it needs no watch slots.
        let deadline_armed = opts.task_deadline.is_some() || opts.run_deadline.is_some();
        let guarded = plan.enabled() || deadline_armed;
        let max_attempts = opts.policy.max_attempts();
        let backoff_base = match opts.policy {
            FailurePolicy::Retry { backoff, .. } => backoff,
            _ => Duration::ZERO,
        };
        let run_deadline_ns = opts.run_deadline.map_or(0, |d| (d.as_nanos() as u64).max(1));
        Graph {
            core: Arc::clone(core),
            trace,
            _owner: owner,
            release: StreamRelease::new(n, edge_cap),
            runtimes,
            n,
            order: (0..n).map(|_| AtomicU32::new(u32::MAX)).collect(),
            next_ticket: CachePadded::new(AtomicUsize::new(0)),
            deques: (0..threads).map(|_| ChaseLev::with_capacity(256)).collect(),
            injector: ChaseLev::with_capacity(1024),
            payload,
            status: (0..n).map(|_| AtomicU8::new(HEALTHY)).collect(),
            abort: CachePadded::new(AtomicU32::new(0)),
            tainted: CachePadded::new(AtomicU32::new(0)),
            plan,
            policy: opts.policy,
            max_attempts,
            backoff_base,
            task_deadline: opts.task_deadline,
            run_deadline: opts.run_deadline,
            run_deadline_ns,
            t0: Stamp::now(),
            span: SpanStamp::begin(),
            obs: SharedObs::new(),
            guarded,
            watch: if deadline_armed {
                (0..threads).map(|_| WatchSlot::new()).collect()
            } else {
                Vec::new()
            },
            run_deadline_hit: AtomicU32::new(0),
            cancel_hit: AtomicU32::new(0),
            failures: Mutex::new(Vec::new()),
            infra_panic: Mutex::new(None),
            retry_hist: (0..max_attempts as usize).map(|_| AtomicU64::new(0)).collect(),
            retried_ok: CachePadded::new(AtomicUsize::new(0)),
            dec: DecodeState::new(n, core.cfg.window, core.cfg.decode_shards),
            rename: Mutex::new(RenameStats::default()),
            decode_obs: Mutex::new(Vec::with_capacity(core.cfg.decode_shards)),
            slots: (0..threads)
                .map(|w| {
                    let rng = opts.seed ^ (w as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                    CachePadded::new(WorkerSlot::new(rng))
                })
                .collect(),
            // The decode shards start attached: a graph cannot finalize
            // before every shard is done with it.
            handoff: Handoff::new(core.cfg.decode_shards),
            on_done: Mutex::new(Some(on_done)),
        }
    }

    /// The trace this graph replays.
    #[inline]
    fn trace(&self) -> &TaskTrace {
        // SAFETY: the pointee outlives every dereference. A submitted
        // trace is owned by `_owner`, which lives as long as `self`. A
        // trace lent by `Executor::run` stays borrowed until `run`
        // returns, and `run` returns only after the finalizer has
        // filled its result — by then every participant has detached
        // (and only attached participants and the finalizer call this),
        // and the finalizer itself is done with the trace.
        unsafe { self.trace.0.as_ref() }
    }

    #[inline]
    fn done(&self) -> bool {
        self.next_ticket.load(Ordering::Acquire) >= self.n
    }

    #[inline]
    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire) != 0
    }

    /// Participants detach on this: normal termination *or* an abort.
    #[inline]
    fn stopping(&self) -> bool {
        self.done() || self.aborted()
    }

    /// Raises the abort flag, taints the graph (so queued tasks are
    /// dropped on the guarded lane instead of run), and wakes every
    /// parked worker: one of them attaches, sees the graph stopped, and
    /// closes it even when nobody was attached.
    fn request_abort(&self) {
        // RELAXED: taint is a lane hint; the Release abort store below orders it for anyone who
        // acts on the abort
        self.tainted.store(1, Ordering::Relaxed);
        self.abort.store(1, Ordering::Release);
        self.core.parker.wake_all();
    }

    /// Cancels the graph (a fired [`CancelToken`]): same abort protocol
    /// as the run deadline, reported as `ExecError::Cancelled`. With
    /// watch slots armed, in-flight payloads are cancelled too.
    fn cancel(&self) {
        if self.stopping() {
            return;
        }
        self.cancel_hit.store(1, Ordering::Release);
        for slot in &self.watch {
            slot.cancel.store(1, Ordering::Release);
        }
        self.request_abort();
    }

    /// Records a non-payload panic (an executor bug, caught at the
    /// participant boundary so the graph still finalizes) and aborts.
    fn note_infra_panic(&self, message: String) {
        lock(&self.infra_panic).get_or_insert(message);
        self.request_abort();
    }

    /// One watchdog poll: cancels expired attempts, and aborts the
    /// graph past its run deadline.
    fn watch_tick(&self) {
        let now = self.t0.elapsed().as_nanos() as u64;
        for slot in &self.watch {
            let dl = slot.deadline_ns.load(Ordering::Acquire);
            if dl != 0 && now >= dl {
                slot.cancel.store(1, Ordering::Release);
            }
        }
        if self.run_deadline_ns != 0 && now >= self.run_deadline_ns && !self.stopping() {
            self.run_deadline_hit.store(1, Ordering::Release);
            // Cancel every in-flight payload, then abort: workers
            // observe `Aborted` attempts and detach without completing.
            for slot in &self.watch {
                slot.cancel.store(1, Ordering::Release);
            }
            self.request_abort();
        }
    }

    /// Attaches worker `w` unless it left this graph for good or the
    /// graph is closed.
    fn attach(&self, w: usize) -> bool {
        // RELAXED: `lost` is written and read only by worker `w` itself
        self.slots[w].lost.load(Ordering::Relaxed) == 0 && self.handoff.attach()
    }

    /// Detaches one participant; the last one out of a stopped graph
    /// finalizes it.
    fn detach(self: &Arc<Self>) {
        if self.handoff.detach(self.stopping()) {
            finalize(self);
        }
    }
}

/// Finalizes a graph exactly once, on the thread whose detach closed
/// it out: builds the report (the oracle check included), retires the
/// graph from the executor, then runs its completion.
fn finalize(g: &Arc<Graph>) {
    let result = catch_unwind(AssertUnwindSafe(|| g.report()))
        .unwrap_or_else(|p| Err(ExecError::WorkerPanic { message: panic_message(&*p) }));
    g.core.retire(g);
    let done = lock(&g.on_done).take();
    if let Some(done) = done {
        // A panicking completion must not take the worker with it.
        let _ = catch_unwind(AssertUnwindSafe(move || done(result)));
    }
}

/// Executor-wide state shared by every thread and graph.
struct Core {
    /// The executor's configuration (`window`/`decode_shards` clamped).
    cfg: ExecConfig,
    /// Payload source bytes, built once for the executor's lifetime.
    arena: Vec<u8>,
    /// The one parker every idle worker sleeps on.
    parker: Parker,
    /// Submitted graphs not yet finalized, in submission order.
    active: Mutex<Vec<Arc<Graph>>>,
    /// Signalled when `active` becomes empty.
    idle: Condvar,
    /// Bumped (SeqCst) on every change to `active`, after the change:
    /// workers re-snapshot the list when it moves. Read after the
    /// parker epoch, it closes the "graph registered between my epoch
    /// read and my scan" window the same way the epoch closes the
    /// "work pushed after my scan" one.
    generation: CachePadded<AtomicU64>,
    /// Per-decode-shard FIFO of graphs awaiting decode.
    decode: Vec<DecodeQueue>,
    /// Graphs with a task or run deadline armed: the watchdog's list.
    watched: Mutex<Vec<Arc<Graph>>>,
    /// Wakes the watchdog when `watched` gains a graph (or at shutdown).
    watch_cv: Condvar,
    /// Nonzero once the executor is being dropped.
    shutdown: AtomicU32,
}

struct DecodeQueue {
    graphs: Mutex<VecDeque<Arc<Graph>>>,
    cv: Condvar,
}

impl Core {
    fn shut_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) != 0
    }

    /// Registers a new graph and hands it to the decode shards (and to
    /// the watchdog when it carries a deadline).
    fn register(&self, g: &Arc<Graph>) {
        lock(&self.active).push(Arc::clone(g));
        self.generation.fetch_add(1, Ordering::SeqCst);
        if !g.watch.is_empty() {
            lock(&self.watched).push(Arc::clone(g));
            self.watch_cv.notify_one();
        }
        for q in &self.decode {
            lock(&q.graphs).push_back(Arc::clone(g));
            q.cv.notify_one();
        }
    }

    /// Removes a finalized graph from the active list.
    fn retire(&self, g: &Arc<Graph>) {
        let mut active = lock(&self.active);
        active.retain(|a| !Arc::ptr_eq(a, g));
        self.generation.fetch_add(1, Ordering::SeqCst);
        if active.is_empty() {
            self.idle.notify_all();
        }
    }
}

/// Takes the completion ticket for `t` and releases its successors —
/// healthily or (for a FAILED/POISONED `t`) with cone poisoning. Every
/// task, whatever its fate, takes a ticket: the ticket counter is the
/// termination count, and because a failed/poisoned task still only
/// completes after its producers, the *full* log (completed + failed +
/// poisoned) stays a valid `DepGraph` linearization.
fn complete(
    t: u32,
    w: usize,
    shared: &Graph,
    ready: &mut Vec<u32>,
    wobs: &mut WorkerObs,
    poisoned: bool,
) {
    // Ticket first, successor release second: any successor's ticket is
    // therefore strictly after every producer's (valid linearization).
    // Relaxed suffices: tickets on one counter are totally ordered, and
    // producer-before-successor follows from the release/acquire edge
    // on the readiness counter (§8).
    let ticket = shared.next_ticket.fetch_add(1, Ordering::AcqRel);
    // RELAXED: order slot uniquely claimed by the AcqRel ticket fetch_add; read by the finalizer
    // after the detach RMWs
    shared.order[ticket].store(t, Ordering::Relaxed);

    ready.clear();
    if poisoned {
        shared.release.poison_release(t, &shared.status, ready);
    } else {
        shared.release.release(t, ready, &shared.obs);
    }
    for &s in ready.iter() {
        // Released tasks go to the completing worker's own deque: it
        // pops the newest first (depth-first), thieves take the oldest.
        shared.deques[w].push(s);
        // Sampled spawn instrumentation: a Spawn ring event (the
        // queue-wait anchor, paired with the Task slice at drain) and
        // the deque-depth gauge — one clock read for both. `sampled`
        // is const false in NoopSink builds, so the whole block (the
        // `len()` call included) folds away (DESIGN.md §12.3).
        if tss_obs::sampled(s) {
            wobs.spawn(s, &shared.obs);
            shared.obs.note_deque_depth(shared.deques[w].len());
        }
    }
    // The final completion wakes nobody: parked workers are detached
    // from this graph, and whoever detaches last finalizes it.
    if ready.len() >= 2 && shared.core.parker.has_idle() {
        // Surplus banked beyond what this worker immediately runs: one
        // thief's worth of news, one wake — not PR 3's per-completion
        // notify_all storm.
        shared.core.parker.wake_one();
        wobs.wake(&shared.obs);
    }
}

fn run_task(
    t: u32,
    w: usize,
    shared: &Graph,
    scratch: &mut PayloadScratch<'_>,
    stats: &mut WorkerStats,
    ready: &mut Vec<u32>,
    wobs: &mut WorkerObs,
) {
    // RELAXED: tainted poll; a poisoned task's delivery carries the flag via the countdown/deque
    // happens-before (DESIGN.md §11.4)
    if shared.guarded || shared.tainted.load(Ordering::Relaxed) != 0 {
        // Chaos, deadlines, or an earlier failure: the guarded lane
        // owns poison checks and the containment state machine.
        return run_task_guarded(t, w, shared, scratch, stats, ready, wobs);
    }
    // Sampled execution-latency span: a clock read only for 1-in-
    // SAMPLE_EVERY tasks on RingSink builds, nothing at all on NoopSink
    // builds (TaskStamp is zero-sized there).
    let tb = wobs.task_begin(t);
    let outcome: Result<(), Box<dyn std::any::Any + Send>> = match shared.payload {
        // No per-task clock reads on any path: busy time is accumulated
        // per burst by `worker_loop`, so noop runs still measure pure
        // decode + scheduling throughput. Nothing in the noop arm can
        // panic, so the fault-free noop lane is byte-identical to the
        // pre-§11 core.
        PayloadMode::Noop | PayloadMode::Faulty { .. } => Ok(()),
        // Real payloads run inside the containment boundary even on the
        // fast lane: a panicking payload becomes a TaskFailure, never a
        // dead worker. catch_unwind's happy path is a few instructions
        // against payloads that busy-work for microseconds.
        PayloadMode::Spin { time_scale } => catch_unwind(AssertUnwindSafe(|| {
            scratch.run_spin(shared.runtimes[t as usize], time_scale);
        })),
        PayloadMode::Memcpy => catch_unwind(AssertUnwindSafe(|| {
            scratch.run_memcpy(shared.trace().task(t as TaskId));
        })),
        PayloadMode::Mixed { time_scale } => catch_unwind(AssertUnwindSafe(|| {
            scratch.run_mixed(shared.trace().task(t as TaskId), time_scale);
        })),
    };
    match outcome {
        Ok(()) => {
            stats.executed += 1;
            complete(t, w, shared, ready, wobs, false);
            // After `complete`: the span covers payload + successor
            // release, the full service time a waiter observes.
            wobs.task_end(t, tb, &shared.obs);
        }
        Err(payload) => {
            // First failure of the run: taint (diverting everyone to
            // the guarded lane) and hand this task to the policy.
            // RELAXED: tainted set on first failure; the failing task's release edges publish it
            // with the poison (DESIGN.md §11.4)
            shared.tainted.store(1, Ordering::Relaxed);
            let failure = TaskFailure::Panicked { message: panic_message(&*payload) };
            resolve_failure(t, w, shared, scratch, stats, ready, wobs, 1, failure);
        }
    }
}

/// The guarded lane: poison check, fault injection, deadline watch, and
/// the attempt loop. Split from [`run_task`] so the fault-free fast
/// lane never pays for any of it.
fn run_task_guarded(
    t: u32,
    w: usize,
    shared: &Graph,
    scratch: &mut PayloadScratch<'_>,
    stats: &mut WorkerStats,
    ready: &mut Vec<u32>,
    wobs: &mut WorkerObs,
) {
    if shared.aborted() {
        // The graph is stopping: drop the task unrun (no ticket). The
        // worker detaches at its next idle check.
        return;
    }
    // The status byte was stored before the countdown/publish that made
    // `t` ready, and the deque transfer carries it here (§11).
    if shared.status[t as usize].load(Ordering::Acquire) != HEALTHY {
        complete(t, w, shared, ready, wobs, true);
        wobs.task_poisoned(t, &shared.obs);
        return;
    }
    let tb = wobs.task_begin(t);
    match attempt_payload(t, 1, w, shared, scratch) {
        Ok(()) => {
            stats.executed += 1;
            if !shared.retry_hist.is_empty() {
                // RELAXED: retry histogram counter; read by the finalizer after the detach RMWs
                shared.retry_hist[0].fetch_add(1, Ordering::Relaxed);
            }
            complete(t, w, shared, ready, wobs, false);
            wobs.task_end(t, tb, &shared.obs);
        }
        Err(AttemptError::Failed(failure)) => {
            // RELAXED: tainted set on first failure; the failing task's release edges publish it
            // with the poison (DESIGN.md §11.4)
            shared.tainted.store(1, Ordering::Relaxed);
            resolve_failure(t, w, shared, scratch, stats, ready, wobs, 1, failure);
        }
        Err(AttemptError::Aborted) => {}
    }
}

/// A task attempt's failure modes.
enum AttemptError {
    /// The attempt failed (panic or deadline): the policy decides next.
    Failed(TaskFailure),
    /// The run is aborting (run deadline / fail-fast elsewhere): drop
    /// the attempt without completing the task; the worker loop exits
    /// on its next `stopping()` check.
    Aborted,
}

/// Runs one payload attempt inside the containment boundary, with
/// injection and deadline watching. `attempt` is 1-based.
fn attempt_payload(
    t: u32,
    attempt: u32,
    w: usize,
    shared: &Graph,
    scratch: &mut PayloadScratch<'_>,
) -> Result<(), AttemptError> {
    let injected = shared.plan.effective(t, attempt, shared.task_deadline.is_some());
    if let Some(InjectedFault::Panic) = injected {
        // Containment-boundary exercise: a real panic, caught exactly
        // where a payload panic would be. The marker keeps the process
        // panic hook quiet for expected chaos (fault::install_quiet_hook).
        let caught = catch_unwind(AssertUnwindSafe(|| {
            panic!("{INJECTED_PANIC_MARKER} task {t} attempt {attempt}");
        }));
        debug_assert!(caught.is_err());
        return match caught {
            Err(payload) => Err(AttemptError::Failed(TaskFailure::Panicked {
                message: panic_message(&*payload),
            })),
            Ok(()) => Ok(()),
        };
    }
    if shared.watch.is_empty() {
        // No deadline armed: plain payload under the boundary.
        // (`effective` already downgraded any Delay to a Panic.)
        let res = catch_unwind(AssertUnwindSafe(|| match shared.payload {
            PayloadMode::Noop | PayloadMode::Faulty { .. } => {}
            PayloadMode::Spin { time_scale } => {
                scratch.run_spin(shared.runtimes[t as usize], time_scale);
            }
            PayloadMode::Memcpy => {
                scratch.run_memcpy(shared.trace().task(t as TaskId));
            }
            PayloadMode::Mixed { time_scale } => {
                scratch.run_mixed(shared.trace().task(t as TaskId), time_scale);
            }
        }));
        return res.map_err(|p| {
            AttemptError::Failed(TaskFailure::Panicked { message: panic_message(&*p) })
        });
    }
    // Watched attempt: arm this worker's slot, run the cancellable
    // payload, verify any cancellation against the clock (see
    // `WatchSlot` for the race this closes).
    let slot = &shared.watch[w];
    loop {
        if shared.aborted() {
            return Err(AttemptError::Aborted);
        }
        let started = Stamp::now();
        // RELAXED: cancel reset while the slot is disarmed; the Release deadline_ns arm store
        // publishes it to the watchdog
        slot.cancel.store(0, Ordering::Relaxed);
        if let Some(dl) = shared.task_deadline {
            let abs = shared.t0.elapsed() + dl;
            slot.deadline_ns.store((abs.as_nanos() as u64).max(1), Ordering::Release);
        }
        let outcome = match injected {
            Some(InjectedFault::Delay) => {
                // Stall until the watchdog cancels (only reachable with
                // a task deadline armed — `effective` guarantees it).
                scratch.stall_until_cancelled(&slot.cancel);
                Ok(true)
            }
            _ => catch_unwind(AssertUnwindSafe(|| {
                let task = shared.trace().task(t as TaskId);
                let (_, cancelled) = scratch.run_watched(shared.payload, task, &slot.cancel);
                cancelled
            })),
        };
        slot.deadline_ns.store(0, Ordering::Release);
        match outcome {
            Ok(false) => return Ok(()),
            Ok(true) => {
                if shared.run_deadline_hit.load(Ordering::Acquire) != 0 || shared.aborted() {
                    return Err(AttemptError::Aborted);
                }
                if shared.task_deadline.is_some_and(|dl| started.elapsed() >= dl) {
                    return Err(AttemptError::Failed(TaskFailure::Deadline));
                }
                // Stale cancel from the previous task's expiry racing
                // the re-arm: restart the attempt (payloads are
                // idempotent on private scratch).
            }
            Err(p) => {
                return Err(AttemptError::Failed(TaskFailure::Panicked {
                    message: panic_message(&*p),
                }))
            }
        }
    }
}

/// Applies the failure policy after attempt `attempt` of task `t`
/// failed with `failure`: retries (with seeded backoff) while attempts
/// remain, then fail-fasts or quarantines.
#[allow(clippy::too_many_arguments)]
fn resolve_failure(
    t: u32,
    w: usize,
    shared: &Graph,
    scratch: &mut PayloadScratch<'_>,
    stats: &mut WorkerStats,
    ready: &mut Vec<u32>,
    wobs: &mut WorkerObs,
    mut attempt: u32,
    mut failure: TaskFailure,
) {
    while attempt < shared.max_attempts && !shared.aborted() {
        let wait = backoff_for(shared.plan.seed, t, attempt, shared.backoff_base);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        attempt += 1;
        wobs.retry(t, &shared.obs);
        match attempt_payload(t, attempt, w, shared, scratch) {
            Ok(()) => {
                stats.executed += 1;
                // RELAXED: retried-ok counter; read by the finalizer after the detach RMWs
                shared.retried_ok.fetch_add(1, Ordering::Relaxed);
                if !shared.retry_hist.is_empty() {
                    // RELAXED: retry histogram counter; read by the finalizer after the detach RMWs
                    shared.retry_hist[(attempt - 1) as usize].fetch_add(1, Ordering::Relaxed);
                }
                complete(t, w, shared, ready, wobs, false);
                return;
            }
            Err(AttemptError::Failed(f)) => failure = f,
            Err(AttemptError::Aborted) => return,
        }
    }
    if shared.aborted() {
        return;
    }
    // Attempts exhausted: record, then fail-fast or quarantine.
    {
        let mut failures = shared.failures.lock().expect("failure log poisoned");
        failures.push(FailedTask { task: t, attempts: attempt, failure });
    }
    if !shared.retry_hist.is_empty() {
        // RELAXED: retry histogram counter; read by the finalizer after the detach RMWs
        shared.retry_hist[(attempt - 1) as usize].fetch_add(1, Ordering::Relaxed);
    }
    match shared.policy {
        FailurePolicy::FailFast => {
            // No ticket, no release: successors starve by design; the
            // abort flag (not the ticket count) ends the run.
            shared.request_abort();
        }
        FailurePolicy::Retry { .. } | FailurePolicy::Quarantine => {
            // FAILED is stored before `complete`'s poison_release
            // closes the pending list, so the §11 publish hands the
            // byte to any later window commit.
            // RELAXED: FAILED byte store; published by the subsequent POISON_PUBLISH pending-close
            // or countdown chain (DESIGN.md §11.2)
            shared.status[t as usize].store(FAILED, Ordering::Relaxed);
            complete(t, w, shared, ready, wobs, true);
            wobs.task_poisoned(t, &shared.obs);
        }
    }
}

/// Tiny SplitMix64 for the steal-victim rotation.
#[inline]
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A worker thread's life: scan the active graphs, serve each one that
/// has work for it, and park on the executor-wide parker only after a
/// complete pass found none.
fn worker_main(w: usize, core: &Core) {
    let mut scratch = PayloadScratch::new(&core.arena);
    let mut ready: Vec<u32> = Vec::with_capacity(64);
    // Victim scan order, refilled each idle scan (reused so the steady
    // state allocates nothing).
    let mut victims: Vec<usize> = Vec::with_capacity(core.cfg.threads);
    let mut graphs: Vec<Arc<Graph>> = Vec::new();
    let mut seen_generation = u64::MAX;
    loop {
        // Epoch first, then the registry generation, then the scans:
        // work pushed or a graph registered after this point moves the
        // epoch past `epoch` and aborts the park (§8.2).
        let mut epoch = core.parker.current_epoch();
        let generation = core.generation.load(Ordering::SeqCst);
        if generation != seen_generation {
            graphs.clone_from(&lock(&core.active));
            seen_generation = generation;
        }
        if core.shut_down() {
            return;
        }
        // The park epoch is the one read before the *first* graph's
        // final (failed) scan: every later graph's final scan follows
        // it, so a park against it misses no push (§8.2).
        let mut first_scan: Option<u64> = None;
        let live = graphs.len();
        for i in 0..live {
            let g = &graphs[(w + i) % live];
            if !g.attach(w) {
                continue;
            }
            let served = catch_unwind(AssertUnwindSafe(|| {
                serve_graph(w, g, &mut scratch, &mut ready, &mut victims)
            }));
            let scanned = served.unwrap_or_else(|p| {
                // Participant-boundary containment: an executor-bug
                // panic aborts this graph with a structured error; the
                // worker leaves it and goes on serving the others.
                g.note_infra_panic(panic_message(&*p));
                // RELAXED: `lost` is written and read only by worker `w` itself
                g.slots[w].lost.store(1, Ordering::Relaxed);
                None
            });
            g.detach();
            first_scan = first_scan.or(scanned);
        }
        epoch = first_scan.unwrap_or(epoch);
        // A graph registered since the snapshot was taken has not been
        // scanned: rescan instead of parking.
        if core.generation.load(Ordering::SeqCst) == seen_generation {
            // A parked worker holds no graph: a finalized graph's state
            // is freed as soon as its participants go idle, not when
            // the next graph's first wake makes them re-snapshot.
            graphs.clear();
            seen_generation = u64::MAX;
            core.parker.park(epoch, || core.shut_down());
        }
    }
}

/// Runs graph `g` on worker `w` until `g` has no work for `w` (or is
/// stopping), then publishes the worker's counters and sink into its
/// slot. Returns the parker epoch read just before the final, failed
/// scan of `g` (`None` when the worker stopped serving `g` without one:
/// the graph is stopping or lost the worker, so it needs no rescan).
fn serve_graph(
    w: usize,
    g: &Graph,
    scratch: &mut PayloadScratch<'_>,
    ready: &mut Vec<u32>,
    victims: &mut Vec<usize>,
) -> Option<u64> {
    let slot = &g.slots[w];
    let mut stats = WorkerStats::default();
    // The sink only carries data in RingSink builds; NoopSink builds
    // skip the slot's lock entirely.
    let mut wobs = if tss_obs::ENABLED {
        lock(&slot.obs).take().unwrap_or_default()
    } else {
        WorkerObs::new()
    };
    // RELAXED: rng slot is private to worker `w`
    let mut rng = slot.rng.load(Ordering::Relaxed);
    let me = &g.deques[w];
    let threads = g.deques.len();
    let mut scanned = None;
    let mut killed = false;
    // Injected worker loss: the worker whose task took completion
    // ticket K leaves the graph right after that completion — a clean
    // kill (ticket taken, successors released), so the graph still
    // terminates; only its parallelism degrades. Keyed on the ticket,
    // not on timing, so exactly one worker is lost in every graph that
    // reaches ticket K.
    let kill_slot = g.plan.kill_at_ticket.and_then(|k| g.order.get(k));
    let took_kill_ticket = move |t: u32| {
        // RELAXED: order[K] is stored once, by the ticket's taker; only the taker can read its own
        // task id back here, every other worker sees another id or the unset sentinel
        kill_slot.is_some_and(|slot| slot.load(Ordering::Relaxed) == t)
    };

    loop {
        // Fast path: drain the own deque depth-first. No epoch or done
        // loads per task — those belong to the idle path. The burst is
        // clocked as one span: two clock reads however many tasks
        // drain, and the Burst ring event reuses exactly those two
        // stamps (zero extra reads, DESIGN.md §12.3).
        if let Some(mut t) = me.pop() {
            let burst = Stamp::now();
            let before = stats.executed;
            loop {
                run_task(t, w, g, scratch, &mut stats, ready, &mut wobs);
                if took_kill_ticket(t) {
                    killed = true;
                    break;
                }
                match me.pop() {
                    Some(next) => t = next,
                    None => break,
                }
            }
            let end = Stamp::now();
            stats.busy += end.since(burst);
            wobs.burst(burst, end, stats.executed - before, &g.obs);
            if killed {
                break;
            }
        }
        if g.stopping() {
            scanned = None;
            break;
        }
        // Epoch before the scan: a push after a failed scan moves the
        // epoch and aborts the worker's park (§8 Dekker pairing).
        scanned = Some(g.core.parker.current_epoch());
        let task = g.injector.steal_batch_into(me, BATCH_MAX).or_else(|| {
            // One seeded random rotation over every other worker. The
            // scan stays *complete* — every deque is visited — which
            // the park/termination argument requires (§8).
            if threads > 1 {
                rotate_victims(w, threads, splitmix(&mut rng), victims);
            }
            victims.iter().find_map(|&victim| {
                let t = g.deques[victim].steal_batch_into(me, BATCH_MAX);
                if t.is_some() {
                    stats.steals += 1;
                    wobs.steal(victim as u32, &g.obs);
                }
                t
            })
        });
        let Some(t) = task else { break };
        // A successful batch steal banked surplus: chain one wake so
        // other idle workers can re-balance too.
        if !me.is_empty() && g.core.parker.has_idle() {
            g.core.parker.wake_one();
            wobs.wake(&g.obs);
        }
        let burst = Stamp::now();
        let before = stats.executed;
        run_task(t, w, g, scratch, &mut stats, ready, &mut wobs);
        let end = Stamp::now();
        stats.busy += end.since(burst);
        wobs.burst(burst, end, stats.executed - before, &g.obs);
        if took_kill_ticket(t) {
            killed = true;
            break;
        }
    }
    // RELAXED: slot counters are published to the finalizer by the DETACH_PUBLISH RMW that follows
    slot.executed.fetch_add(stats.executed, Ordering::Relaxed);
    // RELAXED: as above, published by the detach RMW
    slot.steals.fetch_add(stats.steals, Ordering::Relaxed);
    // RELAXED: as above, published by the detach RMW
    slot.busy_ns.fetch_add(stats.busy.as_nanos() as u64, Ordering::Relaxed);
    // RELAXED: rng slot is private to worker `w`
    slot.rng.store(rng, Ordering::Relaxed);
    if tss_obs::ENABLED {
        *lock(&slot.obs) = Some(wobs);
    }
    if killed {
        // RELAXED: `lost` is written and read only by worker `w` itself
        slot.lost.store(1, Ordering::Relaxed);
        // Leave abandoned work visible: wake everyone so the survivors
        // rescan and adopt this deque.
        g.core.parker.wake_all();
        return None;
    }
    scanned
}

/// The deadline watchdog: one thread per executor. It blocks without a
/// timeout while no graph has a deadline armed; otherwise it polls the
/// armed graphs every 200 µs (the facade condvar has no
/// `wait_timeout`, and 200 µs polls are noise against ms-scale
/// deadlines), cancelling expired attempts and aborting graphs past
/// their run deadline.
fn watchdog_main(core: &Core) {
    loop {
        let armed: Vec<Arc<Graph>> = {
            let mut watched = lock(&core.watched);
            loop {
                watched.retain(|g| !g.stopping());
                if !watched.is_empty() {
                    break watched.clone();
                }
                if core.shut_down() {
                    return;
                }
                watched = core.watch_cv.wait(watched).unwrap_or_else(|e| e.into_inner());
            }
        };
        std::thread::sleep(Duration::from_micros(200));
        for g in &armed {
            g.watch_tick();
        }
    }
}

// ---------------------------------------------------------------------
// Streaming decode plumbing
// ---------------------------------------------------------------------

/// One window × shard pair buffer: `(consumer, producer)` in scan
/// order.
type PairBuf = Vec<(u32, u32)>;

/// A graph's decode-side state.
struct DecodeState {
    window: usize,
    windows: usize,
    shards: usize,
    /// `scan_done[w]`: shards that have finished scanning window `w`.
    scan_done: Vec<AtomicUsize>,
    /// `bufs[w][sh]`: window `w`'s `(consumer, producer)` pairs from
    /// shard `sh`. Mutex-guarded but uncontended by construction (the
    /// owning shard writes before its `scan_done` bump; the committer
    /// reads after observing all bumps) — the lock is an auditability
    /// choice on a per-window cold path.
    bufs: Vec<Vec<Mutex<PairBuf>>>,
    /// Serializes window commits and owns the committer-side cursors.
    commit: Mutex<CommitState>,
    /// Nanoseconds from the graph's `t0` to its last commit.
    decode_span_ns: AtomicU64,
}

struct CommitState {
    /// Next window to commit (windows commit strictly in order: that
    /// keeps injector pushes — and thus 1-worker replays —
    /// deterministic).
    next_window: usize,
    /// Bump cursor into the `StreamRelease` node slab.
    node_cursor: usize,
    /// Enforced (post-dedup) edges registered so far.
    edges: usize,
    scratch: Vec<u32>,
}

impl DecodeState {
    fn new(n: usize, window: usize, shards: usize) -> Self {
        let windows = n.div_ceil(window.max(1));
        DecodeState {
            window,
            windows,
            shards,
            scan_done: (0..windows).map(|_| AtomicUsize::new(0)).collect(),
            bufs: (0..windows)
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            commit: Mutex::new(CommitState {
                next_window: 0,
                node_cursor: 0,
                edges: 0,
                scratch: Vec::new(),
            }),
            decode_span_ns: AtomicU64::new(0),
        }
    }

    /// Commits every consecutively-ready window starting at the commit
    /// cursor. Called by whichever shard thread finished a window last;
    /// the commit mutex makes the committer role migrate safely (the
    /// injector's owner contract rides the same lock).
    fn commit_ready(&self, shared: &Graph, dobs: &mut WorkerObs) {
        let mut st = lock(&self.commit);
        let mut pushed_roots = false;
        while st.next_window < self.windows {
            let w = st.next_window;
            if self.scan_done[w].load(Ordering::Acquire) != self.shards {
                break;
            }
            let lo = w * self.window;
            let hi = ((w + 1) * self.window).min(shared.n);
            let views: Vec<PairBuf> =
                self.bufs[w].iter().map(|m| std::mem::take(&mut *lock(m))).collect();
            let mut cursors = vec![0usize; self.shards];
            let mut scratch = std::mem::take(&mut st.scratch);
            let mut node_cursor = st.node_cursor;
            let mut edges = 0usize;
            merge_window(lo, hi, &views, &mut cursors, &mut scratch, |s, preds| {
                let mut satisfied = 0usize;
                for &p in preds {
                    let idx = node_cursor as u32;
                    node_cursor += 1;
                    match shared.release.register_edge(idx, p, s, &shared.status) {
                        EdgeFate::Registered => {}
                        EdgeFate::SatisfiedHealthy => {
                            satisfied += 1;
                            node_cursor -= 1; // node unused: reuse the slot
                        }
                        EdgeFate::SatisfiedPoisoned => {
                            // The producer failed (or was poisoned)
                            // before this edge existed: the committer
                            // owns both the satisfaction *and* the
                            // poison propagation (§11).
                            mark_poisoned(&shared.status[s as usize]);
                            satisfied += 1;
                            node_cursor -= 1;
                        }
                    }
                }
                edges += preds.len();
                // Publish: fold the sentinel away. Whichever atomic op
                // lands the counter exactly on zero owns the push.
                let delta = preds.len() as i32 - satisfied as i32 - UNPUBLISHED;
                let old = shared.release.unready[s as usize].fetch_add(delta, Ordering::AcqRel);
                if old + delta == 0 {
                    shared.injector.push(s);
                    pushed_roots = true;
                    // Injector-path Spawn event for sampled roots (the
                    // deque-path event lives in `complete`); the
                    // drain-time pairing in `SharedObs::finish` turns
                    // it into the task's queue-wait anchor.
                    if tss_obs::sampled(s) {
                        dobs.spawn(s, &shared.obs);
                    }
                }
            });
            st.scratch = scratch;
            st.node_cursor = node_cursor;
            st.edges += edges;
            st.next_window = w + 1;
            // Per-window commit event + commit-lag gauge (how far the
            // committed frontier runs ahead of completions). The whole
            // block folds away in NoopSink builds.
            if tss_obs::ENABLED {
                dobs.commit(w as u32, &shared.obs);
                // RELAXED: commit-lag gauge sample of the ticket counter; advisory observability
                // snapshot, never a correctness input (DESIGN.md §12.3)
                let lag = hi.saturating_sub(shared.next_ticket.load(Ordering::Relaxed));
                shared.obs.note_commit_lag(lag as u64);
            }
        }
        let finished = st.next_window == self.windows;
        drop(st);
        if finished {
            let ns = shared.t0.elapsed().as_nanos() as u64;
            // RELAXED: decode-span metric fetch_max; published to the finalizer by the detach RMW
            self.decode_span_ns.fetch_max(ns, Ordering::Relaxed);
        }
        if pushed_roots {
            // One wake per commit, not per task: parked workers rescan
            // the injector and re-balance via batch steals.
            shared.core.parker.wake_all();
        }
    }
}

/// A decode shard thread's life: take the next graph from this shard's
/// queue, rename its partition window by window, detach, repeat.
fn decoder_main(shard: usize, core: &Core) {
    let queue = &core.decode[shard];
    loop {
        let g = {
            let mut graphs = lock(&queue.graphs);
            loop {
                if let Some(g) = graphs.pop_front() {
                    break g;
                }
                if core.shut_down() {
                    return;
                }
                graphs = queue.cv.wait(graphs).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Participant-boundary containment: a decoder panic (an
        // executor bug) aborts the graph with a structured error.
        match catch_unwind(AssertUnwindSafe(|| decode_loop(shard, &g))) {
            Ok((stats, dobs)) => {
                let mut rename = lock(&g.rename);
                rename.objects += stats.objects;
                rename.tracked_operands += stats.tracked_operands;
                rename.removed_by_renaming += stats.removed_by_renaming;
                drop(rename);
                lock(&g.decode_obs).push(dobs);
            }
            Err(p) => g.note_infra_panic(panic_message(&*p)),
        }
        g.detach();
    }
}

/// One shard's pass over one graph: scan every window (in order — the
/// shard's rename state is sequential), commit whenever this shard is
/// the last to finish a window. An aborted graph stops being decoded at
/// the next window boundary.
fn decode_loop(shard: usize, g: &Graph) -> (RenameStats, WorkerObs) {
    let dec = &g.dec;
    let trace = g.trace();
    let mut dobs = WorkerObs::new();
    let mut state = ShardState::new(g.core.cfg.renaming, shard as u32, dec.shards as u32);
    for w in 0..dec.windows {
        if g.aborted() {
            break;
        }
        let lo = w * dec.window;
        let hi = ((w + 1) * dec.window).min(g.n);
        let sp = SpanStamp::begin();
        state.scan(trace, lo, hi, &mut lock(&dec.bufs[w][shard]));
        dobs.scan(w as u32, sp, &g.obs);
        if dec.scan_done[w].fetch_add(1, Ordering::AcqRel) + 1 == dec.shards {
            dec.commit_ready(g, &mut dobs);
        }
    }
    (*state.stats(), dobs)
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

/// The native out-of-order task executor: a pool of worker, decode and
/// watchdog threads started once, fed any number of graphs, and joined
/// when it is dropped.
///
/// ```
/// use tss_exec::{ExecConfig, Executor};
/// use tss_workloads::{Benchmark, Scale};
///
/// let trace = Benchmark::Cholesky.trace(Scale::Small, 1);
/// let exec = Executor::new(ExecConfig { threads: 2, ..ExecConfig::default() });
/// for _ in 0..2 {
///     let report = exec.run(&trace).expect("replay failed");
///     assert_eq!(report.tasks, trace.len());
///     assert!(report.validated);
/// }
/// ```
pub struct Executor {
    core: Arc<Core>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor").field("config", &self.core.cfg).finish_non_exhaustive()
    }
}

/// Whether `payload` reads the source arena (memcpy, and mixed, whose
/// memory class memcpys); building that 4 MB pattern would dominate
/// short noop/spin replays, so other executors get a zeroed stub.
fn reads_arena(payload: PayloadMode) -> bool {
    matches!(payload, PayloadMode::Memcpy | PayloadMode::Mixed { .. })
}

/// A submitted graph's outcome, filled in by its finalizer.
#[derive(Default)]
struct ResultSlot {
    value: Mutex<Option<Result<ExecReport, ExecError>>>,
    cv: Condvar,
}

impl ResultSlot {
    fn put(&self, result: Result<ExecReport, ExecError>) {
        *lock(&self.value) = Some(result);
        self.cv.notify_all();
    }
}

/// The caller's side of a graph submitted with [`Executor::submit`].
pub struct GraphHandle(Arc<ResultSlot>);

impl GraphHandle {
    /// Blocks until the graph is finalized and returns its outcome
    /// (the same `Result` [`Executor::run`] returns).
    pub fn wait(self) -> Result<ExecReport, ExecError> {
        let mut value = lock(&self.0.value);
        loop {
            if let Some(result) = value.take() {
                return result;
            }
            value = self.0.cv.wait(value).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Executor {
    /// Starts an executor: `threads` workers, `decode_shards` decode
    /// threads and one watchdog, all parked until graphs arrive
    /// (`window` and `decode_shards` are clamped to ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `config.threads` is zero, if `kill_at_ticket` is set
    /// with fewer than two workers (a lone killed worker could never
    /// finish the run), or if the OS refuses a thread.
    pub fn new(mut config: ExecConfig) -> Self {
        assert!(config.threads >= 1, "the executor needs at least one worker");
        if config.kill_at_ticket.is_some() {
            assert!(config.threads >= 2, "kill_at_ticket needs at least two workers");
        }
        config.window = config.window.max(1);
        config.decode_shards = config.decode_shards.max(1);
        let (workers, shards) = (config.threads, config.decode_shards);
        let arena = if reads_arena(config.payload) {
            build_arena()
        } else {
            vec![0u8; 2 * tss_workloads::payload::CHUNK_CAP]
        };
        let core = Arc::new(Core {
            cfg: config,
            arena,
            parker: Parker::new(),
            active: Mutex::new(Vec::new()),
            idle: Condvar::new(),
            generation: CachePadded::new(AtomicU64::new(0)),
            decode: (0..shards)
                .map(|_| DecodeQueue { graphs: Mutex::new(VecDeque::new()), cv: Condvar::new() })
                .collect(),
            watched: Mutex::new(Vec::new()),
            watch_cv: Condvar::new(),
            shutdown: AtomicU32::new(0),
        });
        let spawn = |name: String, body: Box<dyn FnOnce(&Core) + Send>| {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || body(&core))
                .expect("spawn an executor thread")
        };
        let mut threads = Vec::with_capacity(workers + shards + 1);
        for w in 0..workers {
            threads.push(spawn(format!("tss-worker-{w}"), Box::new(move |c| worker_main(w, c))));
        }
        for sh in 0..shards {
            threads.push(spawn(format!("tss-decode-{sh}"), Box::new(move |c| decoder_main(sh, c))));
        }
        threads.push(spawn("tss-watchdog".into(), Box::new(watchdog_main)));
        Executor { core, threads }
    }

    /// The configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.core.cfg
    }

    /// Streams `trace` through the executor with the configuration's
    /// per-graph options and waits for its outcome: submit + wait,
    /// without copying the trace.
    ///
    /// # Errors
    ///
    /// [`ExecError::TaskFailed`] under `FailFast`, `RunDeadline` past
    /// the run budget, `Cancelled` when the cancel token fired,
    /// `WorkerPanic` for an executor-bug panic, and `OracleViolation`
    /// if validation rejects the completion log. Task failures under
    /// `Retry`/`Quarantine` are *not* errors: they come back inside
    /// [`ExecReport::fault`].
    pub fn run(&self, trace: &TaskTrace) -> Result<ExecReport, ExecError> {
        // `wait` returns only after the finalizer filled the slot, so
        // the lent trace outlives every use (see `Graph::trace`).
        let ptr = TracePtr(NonNull::from(trace));
        self.launch_handle(ptr, None, self.core.cfg.graph_options()).wait()
    }

    /// Submits a graph; [`GraphHandle::wait`] collects its outcome.
    ///
    /// # Panics
    ///
    /// Panics if `opts.kill_at_ticket` is set on a one-worker executor,
    /// or if `opts.payload` reads an arena this executor lacks.
    pub fn submit(&self, trace: Arc<TaskTrace>, opts: GraphOptions) -> GraphHandle {
        let ptr = TracePtr(NonNull::from(&*trace));
        self.launch_handle(ptr, Some(trace), opts)
    }

    /// Submits a graph whose outcome is handed to `on_done` instead of
    /// a handle. `on_done` runs exactly once, on an executor thread,
    /// after the graph is finalized; it should not block for long.
    ///
    /// # Panics
    ///
    /// As [`Executor::submit`].
    pub fn submit_with(
        &self,
        trace: Arc<TaskTrace>,
        opts: GraphOptions,
        on_done: impl FnOnce(Result<ExecReport, ExecError>) + Send + 'static,
    ) {
        let ptr = TracePtr(NonNull::from(&*trace));
        self.launch(ptr, Some(trace), opts, Box::new(on_done));
    }

    /// [`Executor::launch`] with a [`GraphHandle`] as the completion.
    fn launch_handle(
        &self,
        trace: TracePtr,
        owner: Option<Arc<TaskTrace>>,
        opts: GraphOptions,
    ) -> GraphHandle {
        let slot = Arc::new(ResultSlot::default());
        let fill = Arc::clone(&slot);
        self.launch(trace, owner, opts, Box::new(move |r| fill.put(r)));
        GraphHandle(slot)
    }

    /// The one submission path: build the graph state, arm its cancel
    /// token, register it.
    fn launch(
        &self,
        trace: TracePtr,
        owner: Option<Arc<TaskTrace>>,
        opts: GraphOptions,
        on_done: Completion,
    ) {
        if opts.kill_at_ticket.is_some() {
            assert!(self.core.cfg.threads >= 2, "kill_at_ticket needs at least two workers");
        }
        assert!(
            reads_arena(self.core.cfg.payload) || !reads_arena(opts.payload),
            "a {} graph needs an executor built with a memcpy or mixed payload",
            opts.payload.name()
        );
        let g = Arc::new(Graph::new(&self.core, trace, owner, &opts, on_done));
        if let Some(token) = &opts.cancel {
            // Before registration: a token that already fired aborts
            // the graph before any thread can see it.
            token.arm(&g);
        }
        self.core.register(&g);
    }
}

impl Drop for Executor {
    /// Lets every submitted graph finish, then stops and joins the
    /// threads.
    fn drop(&mut self) {
        let core = &self.core;
        let mut active = lock(&core.active);
        while !active.is_empty() {
            active = core.idle.wait(active).unwrap_or_else(|e| e.into_inner());
        }
        drop(active);
        core.shutdown.store(1, Ordering::Release);
        core.parker.wake_all();
        for q in &core.decode {
            let _g = lock(&q.graphs);
            q.cv.notify_all();
        }
        {
            let _g = lock(&core.watched);
            core.watch_cv.notify_all();
        }
        for h in self.threads.drain(..) {
            // Every thread body contains its graphs' panics; a join
            // error here could only come from outside them.
            let _ = h.join();
        }
    }
}

impl Graph {
    /// The graph's verdict, built by the finalizer once every
    /// participant has detached.
    fn report(&self) -> Result<ExecReport, ExecError> {
        let exec_wall = self.t0.elapsed();
        // RELAXED: decode-span metric read by the finalizer after the detach RMWs
        let decode_wall = Duration::from_nanos(self.dec.decode_span_ns.load(Ordering::Relaxed));
        let overlap = if exec_wall.as_secs_f64() > 0.0 {
            100.0 * decode_wall.as_secs_f64().min(exec_wall.as_secs_f64()) / exec_wall.as_secs_f64()
        } else {
            0.0
        };
        // Error resolution order: infrastructure death first (nothing
        // else is trustworthy after an executor-bug panic), then
        // cancellation and the run deadline (unless every task already
        // took its ticket: a late abort changes nothing), then a
        // fail-fast task failure.
        let infra = lock(&self.infra_panic).take();
        if let Some(message) = infra {
            return Err(ExecError::WorkerPanic { message });
        }
        let completed = self.next_ticket.load(Ordering::Acquire).min(self.n);
        let drained = completed == self.n;
        if !drained && self.cancel_hit.load(Ordering::Acquire) != 0 {
            return Err(ExecError::Cancelled { completed, tasks: self.n });
        }
        if !drained && self.run_deadline_hit.load(Ordering::Acquire) != 0 {
            return Err(ExecError::RunDeadline {
                deadline: self.run_deadline.unwrap_or_default(),
                completed,
                tasks: self.n,
            });
        }
        let mut failed = std::mem::take(&mut *lock(&self.failures));
        failed.sort_by_key(|f| f.task);
        if matches!(self.policy, FailurePolicy::FailFast) && !failed.is_empty() {
            return Err(ExecError::TaskFailed(failed.remove(0)));
        }
        if !drained {
            // Stopped short without an infra panic, deadline, cancel,
            // or fail-fast failure: cannot happen by construction;
            // surface it rather than fabricating a report.
            return Err(ExecError::WorkerPanic { message: "run aborted without a cause".into() });
        }
        let trace = self.trace();
        let order: Vec<TaskId> =
            // RELAXED: order slots read by the finalizer after the detach RMWs
            self.order.iter().map(|s| s.load(Ordering::Relaxed) as TaskId).collect();
        assert_eq!(order.len(), trace.len(), "executor lost tasks");
        let validated = self.core.cfg.validate;
        if validated {
            // The *full* log — failed and poisoned tasks included — must
            // linearize the dependency order: every task, whatever its
            // fate, took its ticket only after its producers took
            // theirs.
            let oracle = trace.dep_graph();
            if let Err(v) = oracle.validate_order(&order) {
                return Err(ExecError::OracleViolation { detail: v.to_string() });
            }
        }
        let poisoned: Vec<u32> = (0..self.n as u32)
            // RELAXED: final status-array scan by the finalizer after the detach RMWs
            .filter(|&t| self.status[t as usize].load(Ordering::Relaxed) == POISONED)
            .collect();
        let retry_hist: Vec<u64> =
            // RELAXED: retry histogram read by the finalizer after the detach RMWs
            self.retry_hist.iter().map(|h| h.load(Ordering::Relaxed)).collect();
        let mut workers = Vec::with_capacity(self.slots.len());
        let mut worker_obs = Vec::with_capacity(self.slots.len());
        let mut workers_lost = 0;
        for (w, slot) in self.slots.iter().enumerate() {
            // RELAXED: slot counters read by the finalizer after the detach RMWs that published
            // them
            let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
            workers.push(WorkerStats {
                executed: load(&slot.executed),
                steals: load(&slot.steals),
                busy: Duration::from_nanos(load(&slot.busy_ns)),
            });
            // RELAXED: as above
            workers_lost += (slot.lost.load(Ordering::Relaxed) != 0) as usize;
            // The whole-graph span guarantees every worker track
            // carries at least one event, even for a worker that never
            // attached.
            let mut wobs = lock(&slot.obs).take().unwrap_or_default();
            wobs.worker_span(w as u32, self.span, &self.obs);
            worker_obs.push(wobs);
        }
        let fault = FaultReport {
            failed,
            poisoned,
            // RELAXED: retried-ok read by the finalizer after the detach RMWs
            retried_ok: self.retried_ok.load(Ordering::Relaxed),
            retry_hist: if retry_hist.len() > 1 { retry_hist } else { Vec::new() },
            workers_lost,
        };
        let mut rename = *lock(&self.rename);
        rename.enforced_edges = lock(&self.dec.commit).edges;
        // Drain the per-worker sinks into the report (None in NoopSink
        // builds): histograms merge across workers, rings become
        // per-worker/per-shard tracks.
        let decode_obs = std::mem::take(&mut *lock(&self.decode_obs));
        let obs = self.obs.finish(worker_obs, decode_obs);
        Ok(ExecReport {
            benchmark: trace.name().to_string(),
            tasks: self.n,
            threads: self.core.cfg.threads,
            payload: self.payload,
            decode_wall,
            exec_wall,
            decode_overlap_pct: overlap,
            decode_shards: self.core.cfg.decode_shards,
            order,
            workers,
            rename,
            validated,
            fault,
            obs,
        })
    }
}

/// Re-exported for harness use: classifies a completion log against an
/// oracle without panicking.
pub fn check_order(trace: &TaskTrace, order: &[TaskId]) -> Result<(), OrderViolation> {
    trace.dep_graph().validate_order(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::renamer::Renamer;
    use tss_trace::{OperandDesc, TaskTrace};

    fn diamond() -> TaskTrace {
        // 0 → {1, 2} → 3
        let mut tr = TaskTrace::new("diamond");
        let k = tr.add_kernel("k");
        tr.push_task(k, 10, vec![OperandDesc::output(0xA, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0xA, 64), OperandDesc::output(0xB, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0xA, 64), OperandDesc::output(0xC, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0xB, 64), OperandDesc::input(0xC, 64)]);
        tr
    }

    /// Runs `trace` with the default configuration on `threads` workers.
    fn run_on(trace: &TaskTrace, threads: usize) -> ExecReport {
        Executor::new(ExecConfig { threads, ..ExecConfig::default() })
            .run(trace)
            .expect("run failed")
    }

    #[test]
    fn runs_a_diamond_in_dependency_order() {
        for threads in [1, 2, 4] {
            let report = run_on(&diamond(), threads);
            assert_eq!(report.tasks, 4);
            assert_eq!(report.order[0], 0);
            assert_eq!(report.order[3], 3);
            assert!(report.validated);
            let executed: u64 = report.workers.iter().map(|w| w.executed).sum();
            assert_eq!(executed, 4);
            assert!(!report.fault.any(), "clean run reported failure activity");
            assert!(report.accounting_reconciles());
        }
    }

    #[test]
    fn empty_trace_is_a_clean_noop() {
        let report = run_on(&TaskTrace::new("empty"), 2);
        assert_eq!(report.tasks, 0);
        assert!(report.order.is_empty());
        assert_eq!(report.tasks_per_sec(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Executor::new(ExecConfig { threads: 0, ..ExecConfig::default() });
    }

    #[test]
    fn independent_tasks_all_run() {
        let mut tr = TaskTrace::new("indep");
        let k = tr.add_kernel("k");
        for i in 0..200u64 {
            tr.push_task(k, 10, vec![OperandDesc::output(0x1000 + i * 64, 64)]);
        }
        let report = run_on(&tr, 4);
        assert_eq!(report.tasks, 200);
        let mut seen = report.order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn no_renaming_serializes_a_waw_chain() {
        let mut tr = TaskTrace::new("waw");
        let k = tr.add_kernel("k");
        for _ in 0..8 {
            tr.push_task(k, 10, vec![OperandDesc::output(0xA, 64)]);
        }
        let cfg = ExecConfig { threads: 4, renaming: false, ..ExecConfig::default() };
        let report = Executor::new(cfg).run(&tr).expect("waw replay failed");
        // WaW enforced: completion order must be program order.
        assert_eq!(report.order, (0..8).collect::<Vec<_>>());
        assert_eq!(report.rename.removed_by_renaming, 0);
    }

    #[test]
    fn tiny_windows_and_many_shards_replay_validated() {
        // Window 1 with multiple shards maximizes cross-window edges
        // and pending-release traffic.
        let cfg = ExecConfig { threads: 3, window: 1, decode_shards: 3, ..ExecConfig::default() };
        let report = Executor::new(cfg).run(&diamond()).expect("tiny-window replay failed");
        assert!(report.validated);
        assert_eq!(report.order[0], 0);
        assert_eq!(report.order[3], 3);
    }

    #[test]
    fn streaming_rename_stats_match_oneshot() {
        let tr = diamond();
        let oneshot = Renamer::new().decode(&tr);
        let cfg = ExecConfig { threads: 2, window: 2, decode_shards: 2, ..ExecConfig::default() };
        let report = Executor::new(cfg).run(&tr).expect("streaming replay failed");
        assert_eq!(&report.rename, oneshot.stats());
    }

    #[test]
    fn busy_frac_is_positive_for_working_workers() {
        // ISSUE 5 satellite regression: a worker that executed > 0
        // tasks on a non-trivial replay must report busy_frac > 0. The
        // old per-payload accounting skipped noop entirely, so the
        // default BENCH_exec.json printed 0.0000 for a worker that
        // executed every task.
        let mut tr = TaskTrace::new("busy");
        let k = tr.add_kernel("k");
        for i in 0..400u64 {
            tr.push_task(k, 10, vec![OperandDesc::output(0x1000 + i * 64, 64)]);
        }
        for threads in [1, 2] {
            let report = run_on(&tr, threads);
            assert!(report.workers.iter().any(|w| w.executed > 0));
            for (w, ws) in report.workers.iter().enumerate() {
                if ws.executed > 0 {
                    assert!(ws.busy > Duration::ZERO, "worker {w} executed, busy stayed zero");
                    assert!(
                        report.utilization(w) > 0.0,
                        "worker {w} executed {} tasks with busy_frac 0",
                        ws.executed
                    );
                }
            }
        }
    }

    #[test]
    fn report_rates_are_sane() {
        let report = run_on(&diamond(), 2);
        assert!(report.tasks_per_sec() > 0.0);
        assert!(report.utilization(0) >= 0.0);
        assert!((0.0..=100.0).contains(&report.decode_overlap_pct));
        assert_eq!(report.total_steals(), report.workers.iter().map(|w| w.steals).sum::<u64>());
    }

    // -----------------------------------------------------------------
    // Failure domain (DESIGN.md §11)
    // -----------------------------------------------------------------

    use crate::fault::{fault_decision, install_quiet_hook};

    /// The diamond plus an independent task 4 (survives any quarantine
    /// of the diamond).
    fn diamond_plus_loner() -> TaskTrace {
        let mut tr = diamond();
        let k = tr.add_kernel("loner");
        tr.push_task(k, 10, vec![OperandDesc::output(0xD, 64)]);
        tr
    }

    /// A seed where, at `rate` ppm, task 0 faults on attempt 1, is clean
    /// on attempt 2, and tasks `1..n` are clean on attempt 1 — found by
    /// scanning the pure `fault_decision` hash, so it is deterministic
    /// and survives any trace change.
    fn seed_failing_only_task0(rate: u32, n: u32) -> u64 {
        (0..10_000u64)
            .find(|&s| {
                fault_decision(s, 0, 1, rate).is_some()
                    && fault_decision(s, 0, 2, rate).is_none()
                    && (1..n).all(|t| fault_decision(s, t, 1, rate).is_none())
            })
            .expect("no qualifying seed in 10k")
    }

    fn chaos_cfg(rate_ppm: u32, seed: u64, policy: FailurePolicy) -> ExecConfig {
        ExecConfig {
            threads: 2,
            payload: PayloadMode::Faulty { rate_ppm, seed },
            policy,
            ..ExecConfig::default()
        }
    }

    #[test]
    fn fail_fast_surfaces_the_injected_panic_as_an_error() {
        install_quiet_hook();
        let cfg = chaos_cfg(1_000_000, 7, FailurePolicy::FailFast);
        match Executor::new(cfg).run(&diamond()) {
            Err(ExecError::TaskFailed(f)) => {
                assert_eq!(f.task, 0, "only the root was ever ready");
                assert_eq!(f.attempts, 1);
                match f.failure {
                    TaskFailure::Panicked { ref message } => {
                        assert!(message.contains(INJECTED_PANIC_MARKER), "message: {message}")
                    }
                    ref other => panic!("expected an injected panic, got {other}"),
                }
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn quarantine_poisons_exactly_the_successor_cone() {
        install_quiet_hook();
        let rate = 500_000;
        let seed = seed_failing_only_task0(rate, 5);
        let tr = diamond_plus_loner();
        for threads in [1, 2, 4] {
            let cfg = ExecConfig { threads, ..chaos_cfg(rate, seed, FailurePolicy::Quarantine) };
            let report = Executor::new(cfg).run(&tr).expect("quarantine run aborted");
            assert_eq!(report.fault.failed.len(), 1);
            assert_eq!(report.fault.failed[0].task, 0);
            assert_eq!(report.fault.poisoned, vec![1, 2, 3], "cone mismatch");
            assert_eq!(report.completed(), 1, "the loner still runs");
            assert!(report.fault.retry_hist.is_empty());
            assert!(report.accounting_reconciles());
            assert!(report.validated, "full log (incl. poisoned) passed the oracle");
        }
    }

    #[test]
    fn retry_turns_a_transient_fault_into_success() {
        install_quiet_hook();
        let rate = 500_000;
        let seed = seed_failing_only_task0(rate, 5);
        let policy = FailurePolicy::Retry { max_attempts: 3, backoff: Duration::ZERO };
        let report = Executor::new(chaos_cfg(rate, seed, policy))
            .run(&diamond_plus_loner())
            .expect("retry run aborted");
        assert!(report.fault.failed.is_empty());
        assert!(report.fault.poisoned.is_empty());
        assert_eq!(report.fault.retried_ok, 1);
        assert_eq!(report.completed(), 5);
        assert_eq!(report.completed_clean(), 4);
        assert_eq!(report.fault.retry_hist, vec![4, 1, 0]);
        assert!(report.accounting_reconciles());
    }

    #[test]
    fn retry_exhaustion_fails_the_task_and_poisons_its_cone() {
        install_quiet_hook();
        let policy = FailurePolicy::Retry { max_attempts: 2, backoff: Duration::ZERO };
        let report = Executor::new(chaos_cfg(1_000_000, 3, policy))
            .run(&diamond())
            .expect("retry run aborted");
        assert_eq!(report.fault.failed.len(), 1, "poisoned tasks consume no attempts");
        assert_eq!(report.fault.failed[0].task, 0);
        assert_eq!(report.fault.failed[0].attempts, 2);
        assert_eq!(report.fault.poisoned, vec![1, 2, 3]);
        assert_eq!(report.completed(), 0);
        assert_eq!(report.fault.retry_hist, vec![0, 1]);
        assert!(report.accounting_reconciles());
    }

    #[test]
    fn killed_worker_deque_is_adopted_and_the_run_completes() {
        // A fan-out: the root's completion releases 399 successors into
        // the completing worker's deque (or, if decode is still behind,
        // the injector). Keyed on ticket 0, the kill takes exactly the
        // worker that completed the root, right after that release — on
        // any core count — and the survivor must adopt what it left.
        let mut tr = TaskTrace::new("kill");
        let k = tr.add_kernel("k");
        tr.push_task(k, 10, vec![OperandDesc::output(0x1000, 64)]);
        for _ in 1..400 {
            tr.push_task(k, 10, vec![OperandDesc::input(0x1000, 64)]);
        }
        for threads in [2, 3] {
            let cfg = ExecConfig { threads, kill_at_ticket: Some(0), ..ExecConfig::default() };
            let report = Executor::new(cfg).run(&tr).expect("degraded run failed");
            assert_eq!(report.fault.workers_lost, 1, "exactly one worker dies ({threads} threads)");
            assert_eq!(report.order[0], 0);
            assert_eq!(report.completed(), 400, "run lost tasks");
            assert!(report.accounting_reconciles());
        }
    }

    #[test]
    fn kill_past_the_last_ticket_loses_no_worker() {
        let cfg = ExecConfig { threads: 2, kill_at_ticket: Some(4), ..ExecConfig::default() };
        let report = Executor::new(cfg).run(&diamond()).expect("run failed");
        assert_eq!(report.fault.workers_lost, 0);
        assert_eq!(report.completed(), 4);
    }

    #[test]
    #[should_panic(expected = "kill_at_ticket")]
    fn kill_worker_requires_a_second_worker() {
        let _ = Executor::new(ExecConfig {
            threads: 1,
            kill_at_ticket: Some(0),
            ..ExecConfig::default()
        });
    }

    #[test]
    fn task_deadline_cancels_a_stuck_payload() {
        let mut tr = TaskTrace::new("stuck");
        let k = tr.add_kernel("k");
        tr.push_task(k, 32_000_000_000, vec![]); // 10 s at 3.2 GHz
        let cfg = ExecConfig {
            threads: 2,
            payload: PayloadMode::Spin { time_scale: 1.0 },
            policy: FailurePolicy::Quarantine,
            task_deadline: Some(Duration::from_millis(20)),
            ..ExecConfig::default()
        };
        let report = Executor::new(cfg).run(&tr).expect("deadline run aborted");
        assert_eq!(report.fault.failed.len(), 1);
        assert_eq!(report.fault.failed[0].failure, TaskFailure::Deadline);
        assert_eq!(report.completed(), 0);
        assert!(report.accounting_reconciles());
    }

    #[test]
    fn run_deadline_aborts_a_long_run() {
        let mut tr = TaskTrace::new("slow");
        let k = tr.add_kernel("k");
        for _ in 0..64 {
            tr.push_task(k, 3_200_000_000, vec![]); // 1 s each at 3.2 GHz
        }
        let cfg = ExecConfig {
            threads: 2,
            payload: PayloadMode::Spin { time_scale: 1.0 },
            run_deadline: Some(Duration::from_millis(30)),
            ..ExecConfig::default()
        };
        match Executor::new(cfg).run(&tr) {
            Err(ExecError::RunDeadline { tasks, completed, .. }) => {
                assert_eq!(tasks, 64);
                assert!(completed < 64);
            }
            other => panic!("expected RunDeadline, got {other:?}"),
        }
    }

    #[test]
    fn cancel_token_aborts_a_long_run() {
        let mut tr = TaskTrace::new("cancellable");
        let k = tr.add_kernel("k");
        for _ in 0..64 {
            tr.push_task(k, 3_200_000_000, vec![]); // 1 s each at 3.2 GHz
        }
        let token = CancelToken::new();
        let cfg = ExecConfig {
            threads: 2,
            payload: PayloadMode::Spin { time_scale: 1.0 },
            cancel: Some(token.clone()),
            ..ExecConfig::default()
        };
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                token.cancel();
            })
        };
        match Executor::new(cfg).run(&tr) {
            Err(ExecError::Cancelled { tasks, completed }) => {
                assert_eq!(tasks, 64);
                assert!(completed < 64);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        canceller.join().expect("canceller thread");
        assert!(token.is_cancelled());
    }

    #[test]
    fn token_fired_before_submit_cancels_before_any_task_runs() {
        // Keyed on a logical state, not a sleep: the token fired before
        // the graph existed, so no window commits and no task runs.
        let tr = diamond_plus_loner();
        let token = CancelToken::new();
        token.cancel();
        let cfg = ExecConfig { threads: 2, cancel: Some(token.clone()), ..ExecConfig::default() };
        let exec = Executor::new(cfg);
        for _ in 0..2 {
            match exec.run(&tr) {
                Err(ExecError::Cancelled { completed, tasks }) => {
                    assert_eq!((completed, tasks), (0, tr.len()));
                }
                other => panic!("expected Cancelled {{ 0, {} }}, got {other:?}", tr.len()),
            }
        }
        let opts = GraphOptions { cancel: Some(token), ..GraphOptions::default() };
        match exec.submit(Arc::new(tr.clone()), opts).wait() {
            Err(ExecError::Cancelled { completed: 0, tasks }) => assert_eq!(tasks, tr.len()),
            other => panic!("expected Cancelled {{ 0, .. }}, got {other:?}"),
        }
        // The executor is unharmed: the next graph runs clean.
        let clean = exec.submit(Arc::new(tr.clone()), GraphOptions::default()).wait();
        assert_eq!(clean.expect("clean run").completed(), tr.len());
    }

    #[test]
    fn unfired_cancel_token_changes_nothing() {
        let tr = diamond_plus_loner();
        let token = CancelToken::new();
        let cfg = ExecConfig { threads: 2, cancel: Some(token.clone()), ..ExecConfig::default() };
        let exec = Executor::new(cfg);
        // The graph state an armed token builds takes the fast lane: no
        // watch slots, no guarded flag.
        let g = Graph::new(
            &exec.core,
            TracePtr(NonNull::from(&tr)),
            None,
            &exec.config().graph_options(),
            Box::new(|_| {}),
        );
        assert!(!g.guarded, "an armed token must not divert tasks to the guarded lane");
        assert!(g.watch.is_empty(), "an armed token must not arm watch slots");
        drop(g);
        let report = exec.run(&tr).expect("armed-but-unfired run failed");
        assert_eq!(report.completed(), tr.len());
        assert!(lock(&exec.core.watched).is_empty(), "the watchdog never saw the graph");
        assert!(!token.is_cancelled());
    }

    #[test]
    fn one_executor_serves_many_concurrent_graphs() {
        let tr = Arc::new(diamond_plus_loner());
        let exec = Executor::new(ExecConfig { threads: 2, ..ExecConfig::default() });
        let handles: Vec<_> = (0..16u64)
            .map(|i| {
                let opts = GraphOptions { seed: i, ..GraphOptions::default() };
                exec.submit(Arc::clone(&tr), opts)
            })
            .collect();
        for h in handles {
            let report = h.wait().expect("concurrent graph failed");
            assert_eq!(report.completed(), tr.len());
            assert!(report.validated && report.accounting_reconciles());
        }
        // Dropping the executor with nothing in flight joins promptly.
        drop(exec);
    }

    #[test]
    fn faulty_single_worker_failure_sets_are_seed_deterministic() {
        install_quiet_hook();
        let tr = diamond_plus_loner();
        let collect = |seed: u64| {
            let cfg =
                ExecConfig { threads: 1, ..chaos_cfg(250_000, seed, FailurePolicy::Quarantine) };
            let r = Executor::new(cfg).run(&tr).expect("chaos run aborted");
            (r.fault.failed.clone(), r.fault.poisoned.clone())
        };
        for seed in 0..32u64 {
            assert_eq!(collect(seed), collect(seed), "seed {seed} not reproducible");
        }
    }
}

/// Model-checked interleaving tests for the parker (DESIGN.md §10.3).
/// Compiled only under `RUSTFLAGS="--cfg tss_model_check"`.
#[cfg(all(test, tss_model_check))]
mod model_tests {
    use super::*;
    use shuttle::thread;
    use std::sync::Arc;

    /// The park/wake handoff: a worker that sees no work parks against
    /// an epoch snapshot; a producer publishes work and bumps the
    /// epoch. In every interleaving (exhaustive) the worker terminates
    /// having observed the work — the epoch protocol closes the classic
    /// lost-wakeup window (wake landing between the worker's scan and
    /// its sleep). A lost wakeup here shows up as a model-detected
    /// deadlock, not a hang.
    #[test]
    fn model_parker_handoff_never_loses_the_wake() {
        let report = shuttle::check_exhaustive(300_000, || {
            let parker = Arc::new(Parker::new());
            let work = Arc::new(AtomicU32::new(0));
            let (p2, w2) = (parker.clone(), work.clone());
            let worker = thread::spawn(move || {
                // The real worker loop shape: snapshot epoch, scan,
                // park only if the scan came up empty.
                loop {
                    let seen = p2.current_epoch();
                    if w2.load(Ordering::SeqCst) == 1 {
                        break;
                    }
                    p2.park(seen, || false);
                }
            });
            work.store(1, Ordering::SeqCst);
            parker.wake_one();
            worker.join().unwrap();
            assert_eq!(work.load(Ordering::SeqCst), 1);
        });
        assert!(report.complete, "budget too small: {} schedules", report.schedules);
    }

    /// `wake_all` reaches both parked workers (the window-commit path):
    /// no schedule leaves a worker asleep once the producer has bumped
    /// the epoch.
    #[test]
    fn model_parker_wake_all_reaches_every_worker() {
        shuttle::check_pct(0xAB5E_1200, 400, 3, || {
            let parker = Arc::new(Parker::new());
            let work = Arc::new(AtomicU32::new(0));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (p2, w2) = (parker.clone(), work.clone());
                    thread::spawn(move || loop {
                        let seen = p2.current_epoch();
                        if w2.load(Ordering::SeqCst) == 1 {
                            break;
                        }
                        p2.park(seen, || false);
                    })
                })
                .collect();
            work.store(1, Ordering::SeqCst);
            parker.wake_all();
            for w in workers {
                w.join().unwrap();
            }
        });
    }

    /// The §11 poison-publish handshake: a failing producer stores its
    /// FAILED status byte and closes its pending list
    /// (`poison_release`) while a window committer races to register an
    /// edge from it (`register_edge`). In every interleaving the
    /// successor ends up POISONED — either the producer's drain marks
    /// it (edge registered in time) or the committer observes the
    /// CLOSED head *and* the FAILED byte behind it
    /// (`EdgeFate::SatisfiedPoisoned`). The release half of the
    /// `POISON_PUBLISH` swap is what carries the byte across the second
    /// path: `--cfg tss_bug_poison_relaxed` weakens exactly that swap
    /// and this test fails — without the release edge the committer's
    /// `Acquire` head loads are never forced past the stale head (the
    /// model flags the retry loop as a livelock), and a schedule that
    /// does observe CLOSED may still read a stale HEALTHY byte behind
    /// it. The CI negative gate proves the model keeps catching it.
    #[test]
    fn model_poison_publish_reaches_the_committer() {
        let report = shuttle::check_exhaustive(300_000, || {
            let sr = Arc::new(StreamRelease::new(2, 4));
            let status: Arc<Vec<AtomicU8>> =
                Arc::new((0..2).map(|_| AtomicU8::new(HEALTHY)).collect());
            let (sr2, st2) = (sr.clone(), status.clone());
            let producer = thread::spawn(move || {
                // The resolve_failure shape: FAILED first, close second.
                // RELAXED: model test: producer-side plain store; the poison_release close under
                // test provides the publish edge
                st2[0].store(FAILED, Ordering::Relaxed);
                let mut ready = Vec::new();
                sr2.poison_release(0, &st2, &mut ready);
            });
            let fate = sr.register_edge(0, 0, 1, &status);
            producer.join().unwrap();
            match fate {
                EdgeFate::Registered => {
                    // The drain owned the edge: it must have poisoned
                    // the successor on its way through.
                    assert_eq!(
                        // RELAXED: model test: assertion read after the producer joined
                        status[1].load(Ordering::Relaxed),
                        POISONED,
                        "drain missed a registered edge"
                    );
                }
                EdgeFate::SatisfiedPoisoned => {} // committer poisons s
                EdgeFate::SatisfiedHealthy => {
                    panic!("committer read a stale HEALTHY byte for a failed producer")
                }
            }
        });
        assert!(report.complete, "budget too small: {} schedules", report.schedules);
    }

    /// The §8.2 attach/detach/finalize handoff. A pre-attached decode
    /// participant (the main thread) races two workers: worker 0
    /// attaches, publishes its counters and sink, stops the graph (it
    /// took the last ticket) and detaches; worker 1 attaches unless the
    /// graph is already closed, publishes, and detaches. In every
    /// interleaving exactly one detach finalizes, nobody is attached at
    /// that moment, and the finalizer reads every detached worker's
    /// counters and sink. The counters are Relaxed stores, so only the
    /// release/acquire of the detach RMW (`DETACH_PUBLISH`) carries
    /// them: `--cfg tss_bug_detach_relaxed` weakens exactly that RMW
    /// and this test must then fail on a stale counter.
    #[test]
    fn model_graph_handoff_finalizes_once_after_every_detach() {
        struct Fixture {
            handoff: Handoff,
            done: AtomicU32,
            inside: AtomicUsize,
            finalized: AtomicUsize,
            stats: [AtomicU64; 2],
            sinks: Mutex<Vec<usize>>,
        }
        fn finalize(f: &Fixture) {
            assert_eq!(f.finalized.fetch_add(1, Ordering::AcqRel), 0, "finalized twice");
            // RELAXED: model test: the detach chain is the only edge under test
            assert_eq!(f.inside.load(Ordering::Relaxed), 0, "finalized with a worker attached");
            // RELAXED: model test: published by worker 0's detach RMW alone
            assert_eq!(f.stats[0].load(Ordering::Relaxed), 1, "stale counter from worker 0");
            // RELAXED: model test: worker 1 may not have attached; when it did, its value shows
            let w1 = f.stats[1].load(Ordering::Relaxed);
            assert!(w1 == 0 || w1 == 2, "torn counter from worker 1");
            let sinks = f.sinks.lock().unwrap();
            assert!(sinks.contains(&0), "worker 0's sink missing");
            assert_eq!(sinks.contains(&1), w1 == 2, "worker 1's sink and counter disagree");
        }
        fn participate(f: &Fixture, w: usize) {
            if !f.handoff.attach() {
                return;
            }
            // RELAXED: model test: attached-participant census, read by the finalizer
            f.inside.fetch_add(1, Ordering::Relaxed);
            // RELAXED: model test: the counter under test, published by the detach RMW
            f.stats[w].store(w as u64 + 1, Ordering::Relaxed);
            f.sinks.lock().unwrap().push(w);
            if w == 0 {
                f.done.store(1, Ordering::Release);
            }
            // RELAXED: model test: census decrement, published by the detach RMW
            f.inside.fetch_sub(1, Ordering::Relaxed);
            if f.handoff.detach(f.done.load(Ordering::Acquire) != 0) {
                finalize(f);
            }
        }
        // The exhaustive tree (three threads, weak-memory data choices)
        // is past a 300k-schedule budget, so this runs PCT and random
        // schedules under pinned seeds, like the two-element deque test.
        let body = || {
            let f = Arc::new(Fixture {
                handoff: Handoff::new(1),
                done: AtomicU32::new(0),
                inside: AtomicUsize::new(1),
                finalized: AtomicUsize::new(0),
                stats: [AtomicU64::new(0), AtomicU64::new(0)],
                sinks: Mutex::new(Vec::new()),
            });
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let f = f.clone();
                    thread::spawn(move || participate(&f, w))
                })
                .collect();
            // The decode participant: done with the graph, it leaves.
            // RELAXED: model test: census decrement, published by the detach RMW
            f.inside.fetch_sub(1, Ordering::Relaxed);
            if f.handoff.detach(f.done.load(Ordering::Acquire) != 0) {
                finalize(&f);
            }
            for w in workers {
                w.join().unwrap();
            }
            assert_eq!(f.finalized.load(Ordering::Acquire), 1, "never finalized");
        };
        shuttle::check_pct(0x6A7A_0C13, 3_000, 3, body);
        shuttle::check_random(0x0DE7_AC11, 3_000, body);
    }
}

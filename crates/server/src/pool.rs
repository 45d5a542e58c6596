//! The executor pool (DESIGN.md §14.3): one persistent `tss-exec`
//! executor shared by every session. An admitted graph is submitted
//! straight to it; its finalizer delivers the outcome. Each graph runs
//! inside a fault boundary so one hostile graph can neither poison
//! another nor take a thread down.
//!
//! Per-graph containment, innermost to outermost:
//!
//! 1. The executor itself quarantines failed tasks
//!    ([`FailurePolicy::Quarantine`], DESIGN.md §11) — a faulty graph
//!    still *completes*, reporting its casualty counts.
//! 2. The client's propagated deadline becomes the graph's run
//!    deadline, minus whatever the graph already burned before it was
//!    submitted.
//! 3. Every graph is armed with a [`CancelToken`] so drain
//!    (DESIGN.md §14.4) can stop it after the drain deadline.
//! 4. The executor contains executor-internal panics per graph: they
//!    come back as [`ExecError::WorkerPanic`], reported as
//!    [`GraphOutcome::Failed`].
//!
//! Whatever happens, exactly one [`GraphRecord`] is appended and one
//! `Done` frame is attempted per admitted graph — the no-silent-loss
//! invariant the shutdown regression test pins.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tss_exec::{
    CancelToken, ExecConfig, ExecError, ExecReport, Executor, FailurePolicy, GraphOptions,
};
use tss_proto::{Frame, GraphOutcome};
use tss_trace::TaskTrace;

use crate::gate::Gate;
use crate::writer::SharedWriter;
use crate::{Counters, GraphRecord, ServerConfig};

/// One admitted graph.
pub(crate) struct Job {
    pub session: u64,
    pub graph: u64,
    pub trace: Arc<TaskTrace>,
    /// Client deadline in ms from admission (0 = none).
    pub deadline_ms: u32,
    /// When the gate admitted the graph (time before submission burns
    /// deadline).
    pub admitted: Instant,
    /// The owning session's writer, for `Done` delivery.
    pub writer: SharedWriter,
    /// The owning session's inflight-graph counter (quota accounting).
    pub inflight: Arc<AtomicU64>,
}

/// What a graph's finalizer needs to deliver its outcome.
pub(crate) struct RunCtx {
    pub gate: Arc<Gate>,
    pub counters: Arc<Counters>,
    pub outcomes: Arc<Mutex<Vec<GraphRecord>>>,
    /// Graphs submitted and not yet delivered.
    state: Mutex<PoolState>,
    /// Wakes the drain waiter (the last running graph was delivered).
    idle_cv: Condvar,
}

impl RunCtx {
    pub(crate) fn new(
        gate: Arc<Gate>,
        counters: Arc<Counters>,
        outcomes: Arc<Mutex<Vec<GraphRecord>>>,
    ) -> RunCtx {
        RunCtx {
            gate,
            counters,
            outcomes,
            state: Mutex::new(PoolState { cancel_all: false, active: Vec::new() }),
            idle_cv: Condvar::new(),
        }
    }
}

struct PoolState {
    /// Drain deadline fired: new submissions start cancelled.
    cancel_all: bool,
    /// Cancel tokens of running graphs, keyed by (session, graph).
    active: Vec<(u64, u64, CancelToken)>,
}

/// The shared executor plus the running-graph ledger. Owned by the
/// server; sessions submit through it.
pub(crate) struct Pool {
    exec: Executor,
    /// Base seed; each graph runs with `seed ^ graph_id`.
    seed: u64,
    ctx: Arc<RunCtx>,
}

impl Pool {
    pub(crate) fn start(cfg: &ServerConfig, ctx: Arc<RunCtx>) -> Pool {
        let exec = Executor::new(ExecConfig {
            threads: cfg.exec_threads.max(1),
            payload: cfg.payload,
            policy: FailurePolicy::Quarantine,
            ..ExecConfig::default()
        });
        Pool { exec, seed: cfg.seed, ctx }
    }

    /// Submits an admitted graph to the executor. Callers hold a gate
    /// reservation; `deliver` releases it once the outcome is recorded.
    pub(crate) fn submit(&self, job: Job) {
        let total = job.trace.len() as u64;
        let mut run_deadline = None;
        if job.deadline_ms > 0 {
            let budget = Duration::from_millis(u64::from(job.deadline_ms));
            let waited = job.admitted.elapsed();
            if waited >= budget {
                // The deadline burned out before submission: report
                // expiry without running a graph that would only
                // confirm it.
                let outcome = GraphOutcome::DeadlineExpired { completed: 0, tasks: total };
                deliver(&job, outcome, &self.ctx);
                return;
            }
            run_deadline = Some(budget - waited);
        }
        let cancel = CancelToken::new();
        {
            let mut st = self.ctx.state.lock().expect("pool state poisoned");
            if st.cancel_all {
                // Drain already escalated: the graph starts cancelled
                // and reports `Cancelled{0, tasks}` without running.
                cancel.cancel();
            }
            st.active.push((job.session, job.graph, cancel.clone()));
        }
        let opts = GraphOptions {
            payload: self.exec.config().payload,
            // Per-graph seed so a graph's schedule does not depend on
            // what ran before it or beside it.
            seed: self.seed ^ job.graph,
            policy: FailurePolicy::Quarantine,
            run_deadline,
            cancel: Some(cancel),
            ..GraphOptions::default()
        };
        let ctx = Arc::clone(&self.ctx);
        let trace = Arc::clone(&job.trace);
        self.exec.submit_with(trace, opts, move |result| {
            deliver(&job, outcome_of(result, total), &ctx);
        });
    }

    /// Blocks until every submitted graph has been delivered, or the
    /// timeout passes. Returns `true` if the pool went idle.
    pub(crate) fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.ctx.state.lock().expect("pool state poisoned");
        loop {
            if st.active.is_empty() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) =
                self.ctx.idle_cv.wait_timeout(st, deadline - now).expect("pool state poisoned");
            st = next;
        }
    }

    /// Drain-deadline escalation (DESIGN.md §14.4): every running
    /// graph's cancel token fires, and graphs submitted from here on
    /// start cancelled. A cancelled graph stops after the tasks its
    /// workers are running; the rest of its tasks never start.
    pub(crate) fn cancel_all(&self) {
        let tokens: Vec<CancelToken> = {
            let mut st = self.ctx.state.lock().expect("pool state poisoned");
            st.cancel_all = true;
            st.active.iter().map(|(_, _, t)| t.clone()).collect()
        };
        for t in &tokens {
            t.cancel();
        }
    }
}

/// Maps an executor verdict onto the wire outcome.
fn outcome_of(result: Result<ExecReport, ExecError>, total: u64) -> GraphOutcome {
    match result {
        Ok(report) => GraphOutcome::Completed {
            tasks: total,
            failed: report.fault.failed.len() as u32,
            poisoned: report.fault.poisoned.len() as u32,
            exec_wall_us: report.exec_wall.as_micros() as u64,
        },
        Err(ExecError::Cancelled { completed, tasks }) => {
            GraphOutcome::Cancelled { completed: completed as u64, tasks: tasks as u64 }
        }
        Err(ExecError::RunDeadline { completed, tasks, .. }) => {
            GraphOutcome::DeadlineExpired { completed: completed as u64, tasks: tasks as u64 }
        }
        Err(e) => GraphOutcome::Failed { detail: e.to_string() },
    }
}

/// The one exit path for an admitted graph: attempt `Done` delivery,
/// record the outcome server-side, return the gate reservation and the
/// session's quota slot, and leave the running-graph ledger. Runs for
/// executed, cancelled and expired graphs alike.
fn deliver(job: &Job, outcome: GraphOutcome, ctx: &RunCtx) {
    // Release capacity *before* the client can observe the outcome:
    // a client that reacts to `Done` by submitting again must find
    // the gate slot and its quota slot already free.
    ctx.gate.release(job.trace.len() as u64);
    job.inflight.fetch_sub(1, Ordering::AcqRel);
    let delivered = job.writer.send(&Frame::Done { graph: job.graph, outcome: outcome.clone() });
    if !delivered {
        ctx.counters.undelivered_done.fetch_add(1, Ordering::AcqRel);
    }
    ctx.outcomes.lock().expect("outcomes poisoned").push(GraphRecord {
        session: job.session,
        graph: job.graph,
        outcome,
        delivered,
    });
    let mut st = ctx.state.lock().expect("pool state poisoned");
    st.active.retain(|(s, g, _)| !(*s == job.session && *g == job.graph));
    if st.active.is_empty() {
        ctx.idle_cv.notify_all();
    }
}

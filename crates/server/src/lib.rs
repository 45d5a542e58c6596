//! `tss-server`: a fault-isolating task-graph execution service over
//! the `tss-proto` wire protocol (DESIGN.md §14).
//!
//! Layering, outermost in:
//!
//! - **Accept loop** — a nonblocking listener polled so drain can stop
//!   admissions without a self-connect trick.
//! - **Sessions** (DESIGN.md §14.2) — one thread per client; decode
//!   failures kill only that session, semantic failures only the
//!   offending graph, and a vanished client never touches anyone
//!   else's graphs.
//! - **Admission gate** — per-session inflight-graph quotas plus
//!   cross-session queue-depth and queued-task watermarks that shed
//!   with a structured `Overloaded{retry_after_ms}`.
//! - **Executor pool** (DESIGN.md §14.3) — one persistent `tss-exec`
//!   executor shared by every session: admitted graphs are submitted
//!   straight to it with quarantine failure policy, the client's
//!   propagated deadline as the run deadline, and a per-graph
//!   [`tss_exec::CancelToken`].
//! - **Drain** (DESIGN.md §14.4) — stop admissions, finish what the
//!   drain deadline allows, cancel the rest, deliver every outcome,
//!   then close. The invariant throughout: every *accepted* graph
//!   produces exactly one recorded [`GraphRecord`] and one attempted
//!   `Done` frame — nothing silently vanishes.

#![forbid(unsafe_code)]

mod gate;
mod pool;
mod session;
mod writer;

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tss_exec::PayloadMode;
use tss_proto::GraphOutcome;

use gate::Gate;
use pool::{Pool, RunCtx};

/// Everything tunable about a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads of the one executor every graph runs on.
    pub exec_threads: usize,
    /// Per-session inflight-graph quota (open + queued + running).
    pub quota: u32,
    /// Admission watermark: admitted-but-unfinished graphs.
    pub max_queued_graphs: u64,
    /// Admission watermark: summed tasks of admitted-but-unfinished
    /// graphs (the memory proxy — queued traces are held resident).
    pub max_queued_tasks: u64,
    /// Per-graph task ceiling (assembly-time reject).
    pub max_graph_tasks: u64,
    /// Base backoff hint for `Overloaded` rejects; scaled by depth.
    pub retry_after_ms: u32,
    /// How long drain lets admitted graphs finish before cancelling.
    pub drain_deadline: Duration,
    /// Per-read socket timeout (slow-loris bound: a session that
    /// sends *nothing* for this long is closed with a structured
    /// error; a slow-but-moving writer resets it on every read).
    pub read_timeout: Duration,
    /// What each task execution does (see [`PayloadMode`]).
    pub payload: PayloadMode,
    /// Base seed; each graph runs with `seed ^ graph_id`.
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            exec_threads: 2,
            quota: 8,
            max_queued_graphs: 16,
            max_queued_tasks: 250_000,
            max_graph_tasks: 1 << 20,
            retry_after_ms: 25,
            drain_deadline: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            payload: PayloadMode::Noop,
            seed: 1,
        }
    }
}

/// One accepted graph's terminal record — kept server-side even when
/// the client is gone, so drain can still account for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphRecord {
    /// Server-assigned session id the graph arrived on.
    pub session: u64,
    /// Client-chosen graph id.
    pub graph: u64,
    /// How the graph ended.
    pub outcome: GraphOutcome,
    /// Whether the `Done` frame reached the client.
    pub delivered: bool,
}

/// Monotonic service counters (all sessions, whole lifetime).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub sessions: AtomicU64,
    pub accepted: AtomicU64,
    pub rejected_overloaded: AtomicU64,
    pub rejected_quota: AtomicU64,
    pub rejected_malformed: AtomicU64,
    pub rejected_draining: AtomicU64,
    /// Unknown / duplicate graph-id rejects (session-state errors).
    pub rejected_graph_state: AtomicU64,
    /// Sessions closed with a `SessionError` frame.
    pub session_errors: AtomicU64,
    /// `Done` frames that could not be delivered (client vanished).
    pub undelivered_done: AtomicU64,
}

/// What drain hands back: the full outcome ledger plus counters.
#[derive(Debug)]
pub struct DrainSummary {
    /// Every accepted graph's terminal record, in completion order.
    pub outcomes: Vec<GraphRecord>,
    /// Graphs admitted over the server's lifetime.
    pub accepted: u64,
    /// Graphs that drained to completion (quarantined faults included).
    pub completed: u64,
    /// Graphs cancelled by drain.
    pub cancelled: u64,
    /// Graphs whose propagated deadline expired.
    pub deadline_expired: u64,
    /// Graphs whose run failed outright.
    pub failed: u64,
    /// Admission sheds (`Overloaded`).
    pub rejected_overloaded: u64,
    /// Per-session quota rejects.
    pub rejected_quota: u64,
    /// Semantic rejects (kernel range, count mismatch, ceilings).
    pub rejected_malformed: u64,
    /// Rejects because the server was draining.
    pub rejected_draining: u64,
    /// Unknown / duplicate graph-id rejects.
    pub rejected_graph_state: u64,
    /// Sessions accepted over the lifetime.
    pub sessions: u64,
    /// Sessions closed with a structured `SessionError`.
    pub session_errors: u64,
    /// `Done` frames whose delivery failed (vanished clients).
    pub undelivered_done: u64,
    /// Wall time of the drain itself.
    pub drain_wall: Duration,
    /// Whether the drain deadline fired (some graphs were cancelled).
    pub drain_deadline_hit: bool,
}

/// State shared between the accept loop, sessions, pool, and drain.
pub(crate) struct ServerShared {
    pub cfg: ServerConfig,
    pub gate: Arc<Gate>,
    pub pool: Pool,
    pub counters: Arc<Counters>,
    /// Socket clones per live session, for drain-time shutdown.
    pub sessions: Mutex<HashMap<u64, TcpStream>>,
    /// Session thread handles, joined at drain.
    pub handles: Mutex<Vec<JoinHandle<()>>>,
    /// Drain request latch + the condvar `Server::wait` blocks on.
    drain: (Mutex<bool>, Condvar),
}

impl ServerShared {
    /// Latches the drain request (idempotent): the gate shuts, and
    /// whoever is blocked in [`Server::wait`] starts the drain.
    pub(crate) fn request_drain(&self) {
        self.gate.set_draining();
        let mut d = self.drain.0.lock().expect("drain latch poisoned");
        *d = true;
        self.drain.1.notify_all();
    }

    fn drain_requested(&self) -> bool {
        *self.drain.0.lock().expect("drain latch poisoned")
    }
}

/// A cloneable handle that can trigger drain from outside `wait` —
/// e.g. a signal-watcher thread in the serve binary.
#[derive(Clone)]
pub struct DrainHandle(Arc<ServerShared>);

impl DrainHandle {
    /// Requests drain (idempotent, callable from any thread).
    pub fn request_drain(&self) {
        self.0.request_drain();
    }

    /// Whether drain has been requested.
    pub fn draining(&self) -> bool {
        self.0.gate.is_draining()
    }
}

/// A running server. Call [`Server::wait`] to block until drain is
/// requested and collect the final [`DrainSummary`].
pub struct Server {
    shared: Arc<ServerShared>,
    outcomes: Arc<Mutex<Vec<GraphRecord>>>,
    local: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    pub fn start(cfg: ServerConfig, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        // Nonblocking accept, polled: drain must be able to stop the
        // loop without a wake-up connection.
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;

        let gate =
            Arc::new(Gate::new(cfg.max_queued_graphs, cfg.max_queued_tasks, cfg.retry_after_ms));
        let counters = Arc::new(Counters::default());
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let ctx =
            Arc::new(RunCtx::new(Arc::clone(&gate), Arc::clone(&counters), Arc::clone(&outcomes)));
        let pool = Pool::start(&cfg, ctx);

        let shared = Arc::new(ServerShared {
            cfg,
            gate,
            pool,
            counters,
            sessions: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
            drain: (Mutex::new(false), Condvar::new()),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("tss-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;

        Ok(Server { shared, outcomes, local, accept: Some(accept) })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// A handle for requesting drain from another thread.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle(Arc::clone(&self.shared))
    }

    /// Requests drain directly (tests; binaries use the handle).
    pub fn request_drain(&self) {
        self.shared.request_drain();
    }

    /// Blocks until drain is requested (a `Shutdown` frame, a
    /// [`DrainHandle`], or [`Server::request_drain`]), performs it,
    /// and reports. Drain order (DESIGN.md §14.4):
    ///
    /// 1. Admissions stop (the gate latched shut at request time).
    /// 2. The accept loop exits; no new sessions.
    /// 3. Admitted graphs get [`ServerConfig::drain_deadline`] to
    ///    finish; past it, every running graph is cancelled via its
    ///    token and reports the tasks it completed.
    /// 4. Every outcome is delivered (or its delivery failure
    ///    counted), *then* sessions are closed.
    pub fn wait(mut self) -> DrainSummary {
        {
            let (lock, cv) = &self.shared.drain;
            let mut d = lock.lock().expect("drain latch poisoned");
            while !*d {
                d = cv.wait(d).expect("drain latch poisoned");
            }
        }
        let t0 = Instant::now();

        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }

        let pool = &self.shared.pool;
        let deadline_hit = !pool.wait_idle(self.shared.cfg.drain_deadline);
        if deadline_hit {
            pool.cancel_all();
            // Cancellation latency is bounded (one in-flight payload
            // per worker), so this second wait is a formality with a
            // generous cap, not a second deadline.
            let _ = pool.wait_idle(Duration::from_secs(60));
        }

        // Done frames are all delivered (or accounted); now close.
        let streams: Vec<TcpStream> = {
            let mut map = self.shared.sessions.lock().expect("session registry poisoned");
            map.drain().map(|(_, s)| s).collect()
        };
        for s in &streams {
            let _ = s.shutdown(Shutdown::Both);
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut h = self.shared.handles.lock().expect("session handles poisoned");
            h.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }

        let outcomes = self.outcomes.lock().expect("outcomes poisoned").clone();
        let tally = |tag: &str| outcomes.iter().filter(|r| r.outcome.tag() == tag).count() as u64;
        let c = &self.shared.counters;
        DrainSummary {
            accepted: c.accepted.load(Ordering::Acquire),
            completed: tally("completed"),
            cancelled: tally("cancelled"),
            deadline_expired: tally("deadline"),
            failed: tally("failed"),
            rejected_overloaded: c.rejected_overloaded.load(Ordering::Acquire),
            rejected_quota: c.rejected_quota.load(Ordering::Acquire),
            rejected_malformed: c.rejected_malformed.load(Ordering::Acquire),
            rejected_draining: c.rejected_draining.load(Ordering::Acquire),
            rejected_graph_state: c.rejected_graph_state.load(Ordering::Acquire),
            sessions: c.sessions.load(Ordering::Acquire),
            session_errors: c.session_errors.load(Ordering::Acquire),
            undelivered_done: c.undelivered_done.load(Ordering::Acquire),
            drain_wall: t0.elapsed(),
            drain_deadline_hit: deadline_hit,
            outcomes,
        }
    }
}

/// Polls the nonblocking listener, spawning a session thread per
/// connection, until drain is requested.
fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    let mut next_id: u64 = 1;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.counters.sessions.fetch_add(1, Ordering::AcqRel);
                let id = next_id;
                next_id += 1;
                let _ = stream.set_nonblocking(false);
                if let Ok(clone) = stream.try_clone() {
                    shared.sessions.lock().expect("session registry poisoned").insert(id, clone);
                }
                let session_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("tss-session-{id}"))
                    .spawn(move || session::run_session(session_shared, id, stream));
                match spawned {
                    Ok(h) => shared.handles.lock().expect("session handles poisoned").push(h),
                    Err(_) => {
                        // Could not spawn (resource exhaustion): the
                        // stream drops, the client sees a close, the
                        // server itself stays up.
                        shared.sessions.lock().expect("session registry poisoned").remove(&id);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if shared.drain_requested() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                // Transient accept failure (e.g. EMFILE): back off and
                // keep serving existing sessions.
                if shared.drain_requested() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

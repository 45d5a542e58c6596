//! The per-connection session loop (DESIGN.md §14.2): one thread per
//! client, owning the read half of the socket and this session's open
//! (not yet sealed) graphs.
//!
//! Fault-isolation rules, in rough order of hostility:
//!
//! - A frame that fails to *decode* kills only this session: the
//!   server answers with a structured [`Frame::SessionError`] and
//!   closes — framing can no longer be trusted, but no other session
//!   and no admitted graph is touched.
//! - A frame that decodes but breaks *semantics* (unknown graph id,
//!   kernel out of range, count mismatch) costs only the offending
//!   graph: a [`Frame::Reject`] names the reason and the session
//!   lives on.
//! - A client that vanishes (EOF, reset, read timeout) takes its
//!   unsealed graphs with it — they were never accepted, so nothing is
//!   owed. Its *admitted* graphs keep running: outcomes are recorded
//!   server-side and the failed `Done` delivery is counted, never lost.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tss_proto::{
    read_frame, AssemblerLimits, Frame, GraphAssembler, RejectReason, SessionErrorKind, WireError,
    VERSION,
};

use crate::pool::Job;
use crate::writer::SharedWriter;
use crate::ServerShared;

/// Runs one session to completion. Never panics on peer behavior.
pub(crate) fn run_session(shared: Arc<ServerShared>, id: u64, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let writer = match stream.try_clone() {
        Ok(w) => SharedWriter::new(w),
        // Cannot split the socket: nothing can be answered, so there
        // is nothing useful to do but close.
        Err(_) => return,
    };
    let mut reader = stream;
    serve_frames(&shared, id, &mut reader, &writer);
    shared.sessions.lock().expect("session registry poisoned").remove(&id);
    // Open (unsealed) graphs die with the session: never accepted,
    // no outcome owed. Admitted graphs run on via their own Job state.
}

/// The session state machine. Returning closes the connection.
fn serve_frames(
    shared: &Arc<ServerShared>,
    id: u64,
    reader: &mut TcpStream,
    writer: &SharedWriter,
) {
    let cfg = &shared.cfg;
    let counters = &shared.counters;
    let limits = AssemblerLimits { max_tasks: cfg.max_graph_tasks };
    // Graphs admitted for this session and not yet finished; shared
    // with the pool, which decrements it at `Done` time.
    let inflight = Arc::new(AtomicU64::new(0));
    let mut open: HashMap<u64, GraphAssembler> = HashMap::new();
    let mut greeted = false;

    // Closes the session with a structured error; best-effort send.
    macro_rules! session_fatal {
        ($kind:expr, $detail:expr) => {{
            counters.session_errors.fetch_add(1, Ordering::AcqRel);
            let _ =
                writer.send(&Frame::SessionError { kind: $kind, detail: String::from($detail) });
            return;
        }};
    }

    loop {
        let frame = match read_frame(reader) {
            Ok(f) => f,
            // Clean close between frames: the client left (or
            // vanished); nothing to answer.
            Err(WireError::Closed) => return,
            Err(WireError::Decode(e)) => {
                session_fatal!(SessionErrorKind::Decode, e.to_string())
            }
            Err(WireError::Io(e)) => match e.kind() {
                ErrorKind::UnexpectedEof => {
                    session_fatal!(SessionErrorKind::Decode, "stream truncated mid-frame")
                }
                ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                    session_fatal!(SessionErrorKind::Protocol, "session read timed out")
                }
                // Reset / broken pipe: the peer is gone, nobody is
                // listening for an error frame.
                _ => return,
            },
        };

        if !greeted {
            match frame {
                Frame::Hello { version } if version == VERSION => {
                    greeted = true;
                    if !writer.send(&Frame::HelloAck { version: VERSION }) {
                        return;
                    }
                    continue;
                }
                Frame::Hello { version } => {
                    session_fatal!(
                        SessionErrorKind::Protocol,
                        format!("unsupported protocol version {version} (server speaks {VERSION})")
                    )
                }
                _ => session_fatal!(SessionErrorKind::Protocol, "first frame must be Hello"),
            }
        }

        match frame {
            Frame::Hello { .. } => {
                session_fatal!(SessionErrorKind::Protocol, "duplicate Hello")
            }

            Frame::OpenGraph { graph, deadline_ms, name, kernels } => {
                if shared.gate.is_draining() {
                    counters.rejected_draining.fetch_add(1, Ordering::AcqRel);
                    if !writer.send(&Frame::Reject { graph, reason: RejectReason::Draining }) {
                        return;
                    }
                    continue;
                }
                // Quota counts open + admitted-unfinished graphs, so a
                // client can neither hoard assembler memory nor flood
                // the queue by pipelining.
                let held = open.len() as u64 + inflight.load(Ordering::Acquire);
                if held >= u64::from(cfg.quota) {
                    counters.rejected_quota.fetch_add(1, Ordering::AcqRel);
                    let reason =
                        RejectReason::QuotaExceeded { inflight: held as u32, quota: cfg.quota };
                    if !writer.send(&Frame::Reject { graph, reason }) {
                        return;
                    }
                    continue;
                }
                if open.contains_key(&graph) {
                    counters.rejected_graph_state.fetch_add(1, Ordering::AcqRel);
                    let reason = RejectReason::DuplicateGraph;
                    if !writer.send(&Frame::Reject { graph, reason }) {
                        return;
                    }
                    continue;
                }
                open.insert(graph, GraphAssembler::open(&name, &kernels, deadline_ms, limits));
            }

            Frame::Tasks { graph, tasks } => match open.get_mut(&graph) {
                None => {
                    counters.rejected_graph_state.fetch_add(1, Ordering::AcqRel);
                    if !writer.send(&Frame::Reject { graph, reason: RejectReason::UnknownGraph }) {
                        return;
                    }
                }
                Some(asm) => {
                    if let Err(e) = asm.push_tasks(tasks) {
                        // The graph is unsalvageable; discard it so
                        // later Tasks frames get UnknownGraph instead
                        // of repeated semantic errors.
                        let reason = e.reject_reason(limits);
                        open.remove(&graph);
                        counters.rejected_malformed.fetch_add(1, Ordering::AcqRel);
                        if !writer.send(&Frame::Reject { graph, reason }) {
                            return;
                        }
                    }
                }
            },

            Frame::Seal { graph, tasks_total } => {
                let Some(asm) = open.remove(&graph) else {
                    counters.rejected_graph_state.fetch_add(1, Ordering::AcqRel);
                    if !writer.send(&Frame::Reject { graph, reason: RejectReason::UnknownGraph }) {
                        return;
                    }
                    continue;
                };
                let deadline_ms = asm.deadline_ms();
                let trace = match asm.seal(tasks_total) {
                    Ok(t) => t,
                    Err(e) => {
                        counters.rejected_malformed.fetch_add(1, Ordering::AcqRel);
                        let reason = e.reject_reason(limits);
                        if !writer.send(&Frame::Reject { graph, reason }) {
                            return;
                        }
                        continue;
                    }
                };
                match shared.gate.admit(trace.len() as u64) {
                    Err(reason) => {
                        match reason {
                            RejectReason::Overloaded { .. } => {
                                counters.rejected_overloaded.fetch_add(1, Ordering::AcqRel)
                            }
                            RejectReason::Draining => {
                                counters.rejected_draining.fetch_add(1, Ordering::AcqRel)
                            }
                            _ => 0,
                        };
                        if !writer.send(&Frame::Reject { graph, reason }) {
                            return;
                        }
                    }
                    Ok(()) => {
                        inflight.fetch_add(1, Ordering::AcqRel);
                        counters.accepted.fetch_add(1, Ordering::AcqRel);
                        // Even if the ack fails (client racing away),
                        // the graph is admitted: it runs, its outcome
                        // is recorded, delivery failure is counted.
                        let _ = writer.send(&Frame::Accepted { graph });
                        shared.pool.submit(Job {
                            session: id,
                            graph,
                            trace: Arc::new(trace),
                            deadline_ms,
                            admitted: Instant::now(),
                            writer: writer.clone(),
                            inflight: Arc::clone(&inflight),
                        });
                    }
                }
            }

            Frame::Shutdown => {
                let _ = writer.send(&Frame::ShutdownAck);
                shared.request_drain();
                // Keep reading: this session's Done frames still flow
                // through the shared writer; drain closes the socket
                // once every outcome is delivered.
            }

            Frame::Bye => return,

            // Server-to-client frames arriving from a client are a
            // protocol violation, not a decode failure.
            Frame::HelloAck { .. }
            | Frame::Accepted { .. }
            | Frame::Reject { .. }
            | Frame::Done { .. }
            | Frame::SessionError { .. }
            | Frame::ShutdownAck => {
                session_fatal!(SessionErrorKind::Protocol, "server-to-client frame from client")
            }
        }
    }
}

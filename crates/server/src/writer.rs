//! The shared frame writer: one per session, cloned into every job the
//! session gets admitted, so graph finalizers on executor threads can
//! deliver `Done` frames while the session thread is blocked reading
//! (DESIGN.md §14.2).
//!
//! Sends are best-effort by design: a vanished client makes `send`
//! return `false`, and the caller decides what that means (a session
//! control frame gives up; a `Done` delivery records the outcome
//! server-side and counts the miss). Nothing here panics on a dead
//! socket — that is the fault-isolation contract.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use tss_proto::{write_frame, Frame};

/// Cloneable, mutex-serialized writer over one session's socket.
/// Serialization matters: a `Done` from a finalizer and a `Reject` from
/// the session thread must never interleave bytes.
#[derive(Debug, Clone)]
pub(crate) struct SharedWriter {
    stream: Arc<Mutex<TcpStream>>,
}

impl SharedWriter {
    pub(crate) fn new(stream: TcpStream) -> SharedWriter {
        SharedWriter { stream: Arc::new(Mutex::new(stream)) }
    }

    /// Writes one frame; `false` if the peer is gone (or a writer
    /// thread died mid-frame and poisoned the lock — after which the
    /// stream's framing can't be trusted, so nobody writes again).
    pub(crate) fn send(&self, frame: &Frame) -> bool {
        let mut guard = match self.stream.lock() {
            Ok(g) => g,
            Err(_) => return false,
        };
        let stream: &mut TcpStream = &mut guard;
        if write_frame(stream, frame).is_err() {
            return false;
        }
        stream.flush().is_ok()
    }
}

//! The closed-loop load: each client thread keeps `inflight` graphs
//! outstanding on its own connection and submits the next one only when
//! an earlier one has reported `Done`.
//!
//! Frames are read one at a time through `Client::recv`, so every
//! `Accepted` and `Done` is stamped when it arrives, even when it
//! arrives while another graph is still waiting for admission.

use std::time::{Duration, Instant};

use tss_client::{Client, ClientError};
use tss_proto::{encode_frame, graph_frames, Frame, GraphOutcome, RejectReason};
use tss_trace::TaskTrace;

use crate::serve::Serve;

/// Tasks per `Tasks` frame (the `loadgen` default).
pub const CHUNK: usize = 256;

/// Submissions of one graph that may be shed before it counts as failed.
const RETRY_MAX: u32 = 8;

/// One graph's stage boundaries, from the client's clock.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub client: u64,
    pub graph: u64,
    /// Encoding started: the graph's latency starts here.
    pub start: Instant,
    /// Frames encoded (`graph_frames` + `encode_frame`).
    pub encoded: Instant,
    /// `Accepted` received.
    pub accepted: Instant,
    /// `Done` received: the graph's latency ends here.
    pub done: Instant,
    /// The `exec_wall_us` the server reported in `Done`.
    pub exec_wall_us: u64,
}

/// One cleanly completed graph.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// `Done` received.
    pub done: Instant,
    /// Start of encoding to receipt of `Done`.
    pub latency_ns: u64,
    pub tasks: u64,
}

/// One client's record of a load phase.
#[derive(Default)]
pub struct Tally {
    /// Graphs whose submission began.
    pub attempted: u64,
    /// `Overloaded` and `QuotaExceeded` answers that were retried.
    pub rejects: u64,
    /// Every graph that completed cleanly.
    pub samples: Vec<Sample>,
    /// Per-graph spans; filled only when tracing.
    pub spans: Vec<Span>,
    /// What went wrong, one line per graph that did not complete cleanly.
    pub errors: Vec<String>,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.rejects += other.rejects;
        self.samples.extend(other.samples);
        self.spans.extend(other.spans);
        self.errors.extend(other.errors);
    }
}

/// A graph that was sent and has not reported `Done` yet.
struct Outstanding {
    graph: u64,
    tasks: u64,
    start: Instant,
    encoded: Instant,
    accepted: Option<Instant>,
}

/// One client connection and the graphs it has submitted so far.
pub struct LoadClient<'a> {
    client: Client,
    idx: u64,
    seq: u64,
    inflight: usize,
    traces: &'a [TaskTrace],
    traced: bool,
    serve: &'a Serve,
    /// Clean completions so far, warm-up included.
    clean: u64,
    /// The clean completion after which `serve`'s peak RSS is read.
    rss_after: u64,
    /// That reading, once taken.
    pub peak_rss_kib: Option<Result<u64, String>>,
}

enum Admission {
    Accepted(Instant),
    Retry(Duration),
}

impl<'a> LoadClient<'a> {
    pub fn connect(
        serve: &'a Serve,
        idx: u64,
        inflight: usize,
        traces: &'a [TaskTrace],
        traced: bool,
        rss_after: u64,
    ) -> Result<LoadClient<'a>, String> {
        let client =
            Client::connect(serve.addr).map_err(|e| format!("client {idx}: connect: {e}"))?;
        Ok(LoadClient {
            client,
            idx,
            seq: 0,
            inflight,
            traces,
            traced,
            serve,
            clean: 0,
            rss_after,
            peak_rss_kib: None,
        })
    }

    /// Runs the closed loop until `until`, then waits for every
    /// outstanding graph. A transport or session error ends the loop;
    /// every graph it leaves unfinished is counted as failed.
    pub fn run(&mut self, until: Instant, tally: &mut Tally) {
        let mut out: Vec<Outstanding> = Vec::with_capacity(self.inflight);
        if let Err(e) = self.drive(until, &mut out, tally) {
            tally.errors.push(format!("client {}: {e}", self.idx));
            for o in out {
                tally.errors.push(format!("client {} graph {}: no Done", self.idx, o.graph));
            }
        }
    }

    fn drive(
        &mut self,
        until: Instant,
        out: &mut Vec<Outstanding>,
        tally: &mut Tally,
    ) -> Result<(), ClientError> {
        loop {
            while out.len() < self.inflight && Instant::now() < until {
                self.submit(out, tally)?;
            }
            if out.is_empty() {
                return Ok(());
            }
            let frame = self.client.recv()?;
            let at = Instant::now();
            self.dispatch(frame, at, out, tally)?;
        }
    }

    /// Encodes and sends the next graph and waits for its admission,
    /// retrying sheds. A graph that is refused for good is counted as
    /// failed and not added to `out`.
    fn submit(&mut self, out: &mut Vec<Outstanding>, tally: &mut Tally) -> Result<(), ClientError> {
        let graph = self.idx * 1_000_000_000 + self.seq;
        let trace = &self.traces[(self.seq % self.traces.len() as u64) as usize];
        self.seq += 1;
        tally.attempted += 1;
        let start = Instant::now();
        let frames: Vec<Vec<u8>> =
            graph_frames(graph, 0, trace, CHUNK).iter().map(encode_frame).collect();
        let encoded = if self.traced { Instant::now() } else { start };
        out.push(Outstanding { graph, tasks: trace.len() as u64, start, encoded, accepted: None });
        let mut shed = 0;
        loop {
            for f in &frames {
                self.client.send_raw(f)?;
            }
            match self.await_admission(graph, out, tally)? {
                Ok(Admission::Accepted(at)) => {
                    if let Some(o) = out.iter_mut().find(|o| o.graph == graph) {
                        o.accepted = Some(at);
                    }
                    return Ok(());
                }
                Ok(Admission::Retry(wait)) => {
                    tally.rejects += 1;
                    shed += 1;
                    if shed >= RETRY_MAX {
                        out.retain(|o| o.graph != graph);
                        tally
                            .errors
                            .push(format!("graph {graph}: still shed after {shed} submits"));
                        return Ok(());
                    }
                    std::thread::sleep(wait);
                }
                Err(reason) => {
                    out.retain(|o| o.graph != graph);
                    tally.errors.push(format!("graph {graph}: rejected: {reason}"));
                    return Ok(());
                }
            }
        }
    }

    /// Reads frames until `graph` is accepted or rejected, recording the
    /// `Done` of earlier graphs on the way.
    fn await_admission(
        &mut self,
        graph: u64,
        out: &mut Vec<Outstanding>,
        tally: &mut Tally,
    ) -> Result<Result<Admission, RejectReason>, ClientError> {
        loop {
            let frame = self.client.recv()?;
            let at = Instant::now();
            match frame {
                Frame::Accepted { graph: g } if g == graph => {
                    return Ok(Ok(Admission::Accepted(at)))
                }
                Frame::Reject { graph: g, reason } if g == graph => {
                    return Ok(match reason {
                        RejectReason::Overloaded { retry_after_ms } => Ok(Admission::Retry(
                            Duration::from_millis(u64::from(retry_after_ms.max(1))),
                        )),
                        RejectReason::QuotaExceeded { .. } => {
                            Ok(Admission::Retry(Duration::from_millis(5)))
                        }
                        other => Err(other),
                    });
                }
                other => self.dispatch(other, at, out, tally)?,
            }
        }
    }

    /// Handles a frame that is not an admission answer: only a `Done`
    /// for an outstanding graph is allowed here.
    fn dispatch(
        &mut self,
        frame: Frame,
        at: Instant,
        out: &mut Vec<Outstanding>,
        tally: &mut Tally,
    ) -> Result<(), ClientError> {
        let Frame::Done { graph, outcome } = frame else {
            return Err(ClientError::Unexpected(format!("{frame:?}")));
        };
        let Some(pos) = out.iter().position(|o| o.graph == graph) else {
            return Err(ClientError::Unexpected(format!("Done for unknown graph {graph}")));
        };
        let o = out.remove(pos);
        match outcome {
            GraphOutcome::Completed { tasks, failed: 0, poisoned: 0, exec_wall_us }
                if tasks == o.tasks =>
            {
                tally.samples.push(Sample { done: at, latency_ns: nanos(at - o.start), tasks });
                self.clean += 1;
                if self.clean == self.rss_after {
                    self.peak_rss_kib = Some(self.serve.peak_rss_kib());
                }
                if self.traced {
                    tally.spans.push(Span {
                        client: self.idx,
                        graph,
                        start: o.start,
                        encoded: o.encoded,
                        accepted: o.accepted.unwrap_or(at),
                        done: at,
                        exec_wall_us,
                    });
                }
            }
            other => tally.errors.push(format!(
                "graph {graph} ({} tasks submitted): not completed cleanly: {other:?}",
                o.tasks
            )),
        }
        Ok(())
    }

    pub fn bye(self) {
        self.client.bye();
    }
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

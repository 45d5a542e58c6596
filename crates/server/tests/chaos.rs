//! Seeded wire chaos (DESIGN.md §14.5): connection drops mid-graph,
//! truncated and corrupt frames, slow-loris writers, and clients that
//! vanish after admission — all driven by the pure chaos plan, so the
//! outcome of every `(client, graph)` pair is *exactly* reproducible
//! across runs and executor thread counts. A dropped client must
//! never poison another session or wedge the executor.

mod common;

use std::time::Duration;

use common::{small_trace, Harness};
use tss_client::chaos::{plan, run_graph, ChaosMode, ChaosOutcome};
use tss_client::Client;
use tss_proto::GraphOutcome;
use tss_server::ServerConfig;

const SEED: u64 = 42;
const CLIENTS: u64 = 3;
const GRAPHS: u64 = 10;
const TASKS: u32 = 40;

/// One full chaos round: misbehaving clients, then a clean shutdown.
/// Returns client-observed `(client, graph, outcome-tag)` rows plus
/// the server's own accounting.
fn chaos_round(exec_threads: usize) -> (Vec<(u64, u64, String)>, ServerTally) {
    let cfg = ServerConfig {
        exec_threads,
        quota: 64,
        // Chaos proves isolation, not shedding: give admission enough
        // headroom that the outcome of every pair is plan-determined.
        max_queued_graphs: 1024,
        max_queued_tasks: 10_000_000,
        drain_deadline: Duration::from_secs(30),
        read_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let h = Harness::start(cfg);
    let addr = h.addr;

    let workers: Vec<_> = (0..CLIENTS)
        .map(|client| {
            std::thread::spawn(move || {
                let mut conn: Option<Client> = None;
                let mut rows = Vec::new();
                for graph in 0..GRAPHS {
                    let mode = plan(SEED, client, graph);
                    let gid = client * 1000 + graph;
                    let trace = small_trace(&format!("c{client}g{graph}"), TASKS, 100);
                    let out = run_graph(addr, &mut conn, mode, gid, 0, &trace, 7)
                        .unwrap_or_else(|e| panic!("client {client} graph {graph}: {e}"));
                    rows.push((client, graph, tag(mode, &out)));
                }
                rows
            })
        })
        .collect();

    let mut rows: Vec<(u64, u64, String)> = Vec::new();
    for w in workers {
        rows.extend(w.join().expect("chaos client panicked"));
    }
    rows.sort();

    let mut control = Client::connect(addr).expect("control connect");
    control.shutdown_server().expect("shutdown ack");
    let summary = h.finish();
    let tally = ServerTally {
        accepted: summary.accepted,
        completed: summary.completed,
        cancelled: summary.cancelled,
        deadline_expired: summary.deadline_expired,
        failed: summary.failed,
        session_errors: summary.session_errors,
        rejected: summary.rejected_overloaded
            + summary.rejected_quota
            + summary.rejected_malformed
            + summary.rejected_draining
            + summary.rejected_graph_state,
        outcomes: summary.outcomes.len() as u64,
    };
    (rows, tally)
}

/// The server-side counts the gate compares exactly.
#[derive(Debug, PartialEq, Eq)]
struct ServerTally {
    accepted: u64,
    completed: u64,
    cancelled: u64,
    deadline_expired: u64,
    failed: u64,
    session_errors: u64,
    rejected: u64,
    outcomes: u64,
}

/// Client-observed outcome tag; for healthy submissions it also pins
/// the oracle-validated completion shape.
fn tag(mode: ChaosMode, out: &ChaosOutcome) -> String {
    match out {
        ChaosOutcome::Done(GraphOutcome::Completed { tasks, failed, poisoned, .. }) => {
            format!("{}:completed:{tasks}:{failed}:{poisoned}", mode.name())
        }
        ChaosOutcome::Done(other) => format!("{}:done:{}", mode.name(), other.tag()),
        ChaosOutcome::Rejected(r) => format!("{}:rejected:{r}", mode.name()),
        ChaosOutcome::SessionKilled => format!("{}:killed", mode.name()),
        ChaosOutcome::Vanished => format!("{}:vanished", mode.name()),
    }
}

#[test]
fn chaos_outcomes_are_exact_across_runs_and_thread_counts() {
    let (rows_a, tally_a) = chaos_round(1);
    let (rows_b, tally_b) = chaos_round(1);
    assert_eq!(rows_a, rows_b, "same seed, same thread count: identical outcomes");
    assert_eq!(tally_a, tally_b, "server accounting must be identical too");

    let (rows_c, tally_c) = chaos_round(4);
    assert_eq!(rows_a, rows_c, "executor thread count must not leak into outcomes");
    assert_eq!(tally_a, tally_c);

    // The expected outcome of every pair follows from the pure plan.
    let mut expect_accepted = 0u64;
    let mut expect_killed = 0u64;
    for (client, graph, tag) in &rows_a {
        let mode = plan(SEED, *client, *graph);
        match mode {
            ChaosMode::None | ChaosMode::Slow => {
                assert_eq!(
                    tag,
                    &format!("{}:completed:{TASKS}:0:0", mode.name()),
                    "healthy client {client} graph {graph} must complete clean"
                );
                expect_accepted += 1;
            }
            ChaosMode::Truncate | ChaosMode::BadFrame => {
                assert_eq!(tag, &format!("{}:killed", mode.name()));
                expect_killed += 1;
            }
            ChaosMode::Vanish => {
                assert_eq!(tag, &format!("{}:vanished", mode.name()));
                expect_accepted += 1;
            }
        }
    }
    assert_eq!(rows_a.len() as u64, CLIENTS * GRAPHS, "every pair observed");

    // Server-side: every accepted graph completed (vanished clients'
    // graphs included — a dropped client never wedges the executor),
    // every kill was a structured session error, nothing was shed.
    assert_eq!(tally_a.accepted, expect_accepted);
    assert_eq!(tally_a.completed, expect_accepted);
    assert_eq!(tally_a.outcomes, expect_accepted);
    assert_eq!(tally_a.cancelled, 0);
    assert_eq!(tally_a.deadline_expired, 0);
    assert_eq!(tally_a.failed, 0);
    assert_eq!(tally_a.session_errors, expect_killed);
    assert_eq!(tally_a.rejected, 0);
    assert!(expect_killed > 0, "the seed must actually exercise kills");
    assert!(expect_accepted > expect_killed, "and leave a healthy majority");
}

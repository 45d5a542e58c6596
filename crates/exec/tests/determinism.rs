//! Determinism boundaries of the native executor. The 1-worker
//! contract (oracle determinism — decode races execution even with one
//! worker) is pinned in `streaming.rs`.
//!
//! - **Multi-thread replay is oracle-deterministic, not bit-
//!   deterministic.** The OS scheduler interleaves workers freely; the
//!   contract is that *every* interleaving linearizes the dependency
//!   order. A proptest over seeds × thread counts (2, 4, 8) pins it.
//! - **The renamer is the oracle's twin.** With renaming on, its
//!   pred/succ structure must equal `DepGraph`'s enforced edge set on
//!   every benchmark.

use proptest::prelude::*;
use tss_exec::{ExecConfig, Executor, PayloadMode, Renamer};
use tss_trace::DepGraph;
use tss_workloads::{Benchmark, Scale};

#[test]
fn renamer_matches_the_oracle_on_every_benchmark() {
    for b in Benchmark::all() {
        let trace = b.trace(Scale::Small, 3);
        let oracle = DepGraph::from_trace(&trace);
        let graph = Renamer::new().decode(&trace);
        assert_eq!(graph.len(), oracle.len());
        assert_eq!(graph.stats().enforced_edges, oracle.enforced_edge_count(), "{b}");
        for t in 0..trace.len() {
            let expect: Vec<u32> = oracle.succs(t).iter().map(|&s| s as u32).collect();
            assert_eq!(graph.succs(t), &expect[..], "{b}: task {t} successors diverge");
            assert_eq!(
                graph.pred_count(t) as usize,
                oracle.preds(t).len(),
                "{b}: task {t} pred count diverges"
            );
        }
    }
}

#[test]
fn every_benchmark_replays_validated_at_two_four_and_eight_threads() {
    for b in Benchmark::all() {
        for threads in [2usize, 4, 8] {
            let trace = b.trace(Scale::Small, 11);
            let report = Executor::new(ExecConfig { threads, ..ExecConfig::default() })
                .run(&trace)
                .expect("replay failed");
            assert!(report.validated, "{b} at {threads} threads");
            assert_eq!(report.tasks, trace.len(), "{b} at {threads} threads");
            let executed: u64 = report.workers.iter().map(|w| w.executed).sum();
            assert_eq!(executed as usize, trace.len(), "{b}: workers lost tasks at {threads}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn multithread_replay_always_linearizes_the_oracle(
        seed in 1u32..50_000,
        thread_sel in 0u8..3,
        bench_sel in 0u8..9,
    ) {
        let threads = [2usize, 4, 8][thread_sel as usize];
        let bench = Benchmark::all()[bench_sel as usize];
        let trace = bench.trace(Scale::Small, seed as u64);
        let cfg = ExecConfig {
            threads,
            payload: PayloadMode::Noop,
            seed: seed as u64,
            validate: false, // validated explicitly below for a prop_assert
            ..ExecConfig::default()
        };
        let report = Executor::new(cfg).run(&trace).expect("replay failed");
        let oracle = DepGraph::from_trace(&trace);
        prop_assert!(
            oracle.validate_order(&report.order).is_ok(),
            "{} at {} threads, seed {}: completion log violates the oracle",
            bench, threads, seed
        );
        prop_assert_eq!(report.order.len(), trace.len());
    }
}

//! The streaming renamer's contract (ISSUE 4): decode in windows, with
//! address interning sharded across decode threads, must be
//! *indistinguishable* from PR 3's one-shot decode —
//!
//! - **Structure parity.** For every benchmark, window size, shard
//!   count, and renaming setting, `StreamingRenamer::decode_graph`
//!   must produce byte-identical successor CSR, unready counters, and
//!   stats to `Renamer::decode` (which itself is test-pinned to the
//!   `DepGraph` oracle).
//! - **Replay parity.** The live pipelined executor (decode threads
//!   racing workers, pending-release lists, sentinel counters) must
//!   emit oracle-valid completion logs at every thread count; a
//!   1-worker run is oracle-deterministic (see below).

use proptest::prelude::*;
use tss_exec::{ExecConfig, Executor, Renamer, StreamingRenamer};
use tss_trace::DepGraph;
use tss_workloads::{Benchmark, Scale};

#[test]
fn streaming_graph_matches_oneshot_on_every_benchmark() {
    for b in Benchmark::all() {
        let trace = b.trace(Scale::Small, 5);
        for renaming in [true, false] {
            let oneshot = Renamer::new().renaming(renaming).decode(&trace);
            for (window, shards) in [(1usize, 2usize), (97, 1), (256, 4), (1 << 20, 3)] {
                let streamed = StreamingRenamer::new()
                    .renaming(renaming)
                    .window(window)
                    .shards(shards)
                    .decode_graph(&trace);
                assert_eq!(
                    streamed, oneshot,
                    "{b}: window {window} x shards {shards}, renaming {renaming}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Window sizes and shard counts drawn freely: the successor CSR
    /// and unready counters never depend on either.
    #[test]
    fn streaming_graph_parity_over_windows_and_shards(
        bench_sel in 0u8..9,
        window in 1usize..600,
        shards in 1usize..6,
        renaming in 0u8..2,
        seed in 1u32..10_000,
    ) {
        let bench = Benchmark::all()[bench_sel as usize];
        let trace = bench.trace(Scale::Small, seed as u64);
        let oneshot = Renamer::new().renaming(renaming == 1).decode(&trace);
        let streamed = StreamingRenamer::new()
            .renaming(renaming == 1)
            .window(window)
            .shards(shards)
            .decode_graph(&trace);
        prop_assert!(
            streamed == oneshot,
            "{} seed {}: window {} x shards {} diverged from one-shot",
            bench, seed, window, shards
        );
    }

    /// The live pipelined executor: any benchmark, thread count, shard
    /// count, and window size must linearize the oracle.
    #[test]
    fn streamed_replay_always_linearizes_the_oracle(
        bench_sel in 0u8..9,
        thread_sel in 0u8..3,
        shards in 1usize..4,
        window in 1usize..300,
        seed in 1u32..50_000,
    ) {
        let threads = [2usize, 4, 8][thread_sel as usize];
        let bench = Benchmark::all()[bench_sel as usize];
        let trace = bench.trace(Scale::Small, seed as u64);
        let cfg = ExecConfig {
            threads,
            seed: seed as u64,
            window,
            decode_shards: shards,
            validate: false, // validated explicitly below for a prop_assert
            ..ExecConfig::default()
        };
        let report = Executor::new(cfg).run(&trace).expect("replay failed");
        let oracle = DepGraph::from_trace(&trace);
        prop_assert!(
            oracle.validate_order(&report.order).is_ok(),
            "{} at {} threads / {} shards / window {}, seed {}: violates the oracle",
            bench, threads, shards, window, seed
        );
        prop_assert_eq!(report.order.len(), trace.len());
    }
}

/// The determinism contract, precisely (DESIGN.md §8): a 1-worker run
/// is **oracle**-deterministic only:
/// whether a task enters through the injector (ready when its window
/// committed) or through a producer's pending-release list (decoded
/// after the producer finished) is exactly the decode-vs-execution
/// race the pipeline exists to exploit, so the completion order may
/// legally vary — but every such order linearizes the dependency
/// oracle, the *decoded structure* never varies, and no steals can
/// occur.
#[test]
fn one_worker_streaming_is_oracle_deterministic() {
    for b in [Benchmark::Cholesky, Benchmark::H264, Benchmark::Specfem] {
        let trace = b.trace(Scale::Small, 7);
        let oracle = DepGraph::from_trace(&trace);
        for (seed, shards) in [(1u64, 1usize), (7, 2), (99, 3)] {
            let report = Executor::new(ExecConfig {
                threads: 1,
                seed,
                decode_shards: shards,
                window: 128,
                validate: false,
                ..ExecConfig::default()
            })
            .run(&trace)
            .expect("replay failed");
            assert!(
                oracle.validate_order(&report.order).is_ok(),
                "{b}: 1-worker streamed order violates the oracle (seed {seed}, {shards} shards)"
            );
            assert_eq!(report.total_steals(), 0, "{b}: no one to steal from");
            assert_eq!(&report.rename, Renamer::new().decode(&trace).stats(), "{b}");
        }
    }
}

#[test]
fn streaming_overlap_is_reported() {
    // A real benchmark with several windows: decode must be observed
    // streaming inside the exec span, and the rename stats must match
    // the one-shot decoder's.
    let trace = Benchmark::Cholesky.trace(Scale::Small, 3);
    let oneshot = Renamer::new().decode(&trace);
    let cfg = ExecConfig { threads: 2, window: 64, decode_shards: 2, ..ExecConfig::default() };
    let report = Executor::new(cfg).run(&trace).expect("replay failed");
    assert_eq!(report.decode_shards, 2);
    assert!((0.0..=100.0).contains(&report.decode_overlap_pct));
    assert!(report.decode_wall.as_nanos() > 0, "decode span was recorded");
    assert_eq!(&report.rename, oneshot.stats(), "streamed stats match one-shot");
}

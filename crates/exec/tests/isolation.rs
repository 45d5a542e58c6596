//! Fault isolation on one shared executor (DESIGN.md §7, §11): graphs
//! submitted to the same persistent executor share its threads and
//! nothing else. A chaos graph's failure and poison sets are exactly
//! the ones it produces alone, a clean neighbour running beside it
//! reports no failure at all, cancelling one graph leaves the other
//! `Completed`, and every graph's completion order passes the
//! `DepGraph` oracle.

use std::sync::Arc;

use tss_exec::{
    CancelToken, ExecConfig, ExecError, ExecReport, Executor, FailurePolicy, GraphOptions,
    PayloadMode,
};
use tss_trace::{OperandDesc, TaskTrace};
use tss_workloads::{Benchmark, Scale};

fn executor(threads: usize) -> Executor {
    Executor::new(ExecConfig { threads, ..ExecConfig::default() })
}

/// Quarantine chaos at 20% injected faults, seeded.
fn chaos(seed: u64) -> GraphOptions {
    GraphOptions {
        payload: PayloadMode::Faulty { rate_ppm: 200_000, seed },
        policy: FailurePolicy::Quarantine,
        ..GraphOptions::default()
    }
}

fn failure_sets(r: &ExecReport) -> (Vec<u32>, Vec<u32>) {
    (r.fault.failed.iter().map(|f| f.task).collect(), r.fault.poisoned.clone())
}

fn assert_oracle_valid(trace: &TaskTrace, r: &ExecReport) {
    assert!(r.validated, "{}: completion log was not checked", trace.name());
    trace.dep_graph().validate_order(&r.order).expect("completion order violates the oracle");
}

#[test]
fn chaos_in_one_graph_never_reaches_its_neighbour() {
    tss_exec::fault::install_quiet_hook();
    let a = Arc::new(Benchmark::Cholesky.trace(Scale::Small, 11));
    let b = Arc::new(Benchmark::H264.trace(Scale::Small, 3));
    let solo = executor(2).submit(Arc::clone(&a), chaos(7)).wait().expect("solo chaos run");
    assert!(!solo.fault.failed.is_empty(), "the chaos seed must actually fail tasks");
    for threads in [1, 2, 4] {
        let exec = executor(threads);
        // Interleaved submissions: the two kinds of graph are live on
        // the same workers at the same time.
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let ha = exec.submit(Arc::clone(&a), chaos(7));
                let hb = exec.submit(Arc::clone(&b), GraphOptions::default());
                (ha, hb)
            })
            .collect();
        for (ha, hb) in handles {
            let ra = ha.wait().expect("chaos graph aborted");
            let rb = hb.wait().expect("clean graph failed");
            assert_eq!(failure_sets(&ra), failure_sets(&solo), "{threads} threads");
            assert!(ra.accounting_reconciles());
            assert_oracle_valid(&a, &ra);
            assert!(rb.fault.failed.is_empty() && rb.fault.poisoned.is_empty());
            assert_eq!(rb.completed(), b.len(), "{threads} threads: clean graph lost tasks");
            assert!(rb.accounting_reconciles());
            assert_oracle_valid(&b, &rb);
        }
    }
}

#[test]
fn cancelling_one_graph_leaves_its_neighbour_completed() {
    // Graph A: 64 independent 20 ms spins; graph B: a clean benchmark.
    let mut a = TaskTrace::new("long");
    let k = a.add_kernel("k");
    for i in 0..64u64 {
        a.push_task(k, 64_000_000, vec![OperandDesc::output(0x1000 + i * 64, 64)]);
    }
    let a = Arc::new(a);
    let b = Arc::new(Benchmark::Cholesky.trace(Scale::Small, 1));
    let exec = executor(2);
    let token = CancelToken::new();
    let opts = GraphOptions {
        payload: PayloadMode::Spin { time_scale: 1.0 },
        policy: FailurePolicy::Quarantine,
        cancel: Some(token.clone()),
        ..GraphOptions::default()
    };
    let ha = exec.submit(Arc::clone(&a), opts);
    let hb = exec.submit(Arc::clone(&b), GraphOptions::default());
    token.cancel();
    match ha.wait() {
        Err(ExecError::Cancelled { completed, tasks }) => {
            assert_eq!(tasks, 64);
            assert!(completed < 64, "cancellation must precede completion");
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let rb = hb.wait().expect("the neighbour of a cancelled graph must complete");
    assert_eq!(rb.completed(), b.len());
    assert!(rb.fault.failed.is_empty() && rb.fault.poisoned.is_empty());
    assert!(rb.accounting_reconciles());
    assert_oracle_valid(&b, &rb);
}

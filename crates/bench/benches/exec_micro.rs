//! Microbenchmarks for the native executor (`tss-exec`): renamer decode
//! throughput, the threaded streamed run, and the fixed per-graph cost
//! of a started executor, tracked so scheduler or renamer regressions
//! show up in `cargo bench` like simulator regressions do in
//! `engine_core`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tss_exec::{CancelToken, ExecConfig, Executor, FailurePolicy, PayloadMode, Renamer};
use tss_trace::TaskTrace;
use tss_workloads::{Benchmark, Scale};

fn decode_throughput(c: &mut Criterion) {
    let trace = Benchmark::Cholesky.trace(Scale::Small, 1);
    let renamer = Renamer::new();
    let mut g = c.benchmark_group("exec_decode");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("cholesky_small", |b| b.iter(|| renamer.decode(&trace)));
    g.bench_function("cholesky_small_no_renaming", |b| {
        let r = Renamer::new().renaming(false);
        b.iter(|| r.decode(&trace))
    });
    g.finish();
}

fn run_throughput(c: &mut Criterion) {
    let trace = Benchmark::Cholesky.trace(Scale::Small, 1);
    let mut g = c.benchmark_group("exec_run_noop");
    g.throughput(Throughput::Elements(trace.len() as u64));
    for threads in [1usize, 4] {
        let cfg = ExecConfig {
            threads,
            payload: PayloadMode::Noop,
            validate: false, // timing only; correctness is tested elsewhere
            ..ExecConfig::default()
        };
        let exec = Executor::new(cfg);
        // Pipelined end-to-end: streaming decode inside the measurement.
        g.bench_function(format!("streamed_threads_{threads}"), |b| {
            b.iter(|| exec.run(&trace).expect("run failed"))
        });
    }
    g.finish();
}

/// Fixed per-graph cost: a 1-task graph on an executor whose threads
/// are already running, with the configuration the serve pool uses
/// (2 workers, quarantine, an armed cancel token that never fires).
fn fixed_cost(c: &mut Criterion) {
    let mut one = TaskTrace::new("one-task");
    let k = one.add_kernel("k");
    one.push_task(k, 1, vec![]);
    let exec = Executor::new(ExecConfig {
        threads: 2,
        policy: FailurePolicy::Quarantine,
        cancel: Some(CancelToken::new()),
        ..ExecConfig::default()
    });
    let mut g = c.benchmark_group("exec_fixed");
    g.bench_function("one_task_graph_started_executor", |b| {
        b.iter(|| exec.run(&one).expect("run failed"))
    });
    g.finish();
}

criterion_group!(exec_micro, decode_throughput, run_throughput, fixed_cost);
criterion_main!(exec_micro);

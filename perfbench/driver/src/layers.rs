//! In-process replays of one workload graph through each layer's public
//! functions. They run after the load, never beside it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tss_exec::{
    CancelToken, ExecConfig, ExecReport, Executor, FailurePolicy, PayloadMode, Renamer,
};
use tss_proto::{
    decode_frame_bytes, encode_frame, graph_frames, AssemblerLimits, Frame, GraphAssembler,
};
use tss_server::ServerConfig;
use tss_trace::TaskTrace;

use crate::load::{nanos, CHUNK};
use crate::stats::median;

/// Wall-clock budget for each replayed measurement; each takes at
/// least `MIN_REPS` repetitions.
const BUDGET: Duration = Duration::from_millis(600);
const MIN_REPS: usize = 5;

pub struct Layers {
    pub bytes_per_task: f64,
    pub encode_ns_per_task: f64,
    pub decode_ns_per_task: f64,
    pub rename_ns_per_task: f64,
    pub fixed_us: f64,
    pub run_ns_per_task: f64,
    pub steals_per_graph: f64,
    pub decode_overlap_pct: f64,
    pub worker_util_pct: f64,
}

/// Times `f` repeatedly within [`BUDGET`] and returns each run's value.
fn repeat<T>(mut f: impl FnMut() -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || started.elapsed() < BUDGET {
        out.push(f());
    }
    out
}

/// The `ExecConfig` the server's pool builds for graph `graph` with no
/// deadline: default exec threads, quarantine, an armed cancel token.
fn server_exec_config(payload: PayloadMode, graph: u64) -> ExecConfig {
    let server = ServerConfig::default();
    ExecConfig {
        threads: server.exec_threads,
        payload,
        seed: server.seed ^ graph,
        policy: FailurePolicy::Quarantine,
        run_deadline: None,
        cancel: Some(CancelToken::new()),
        ..ExecConfig::default()
    }
}

fn run_clean(cfg: ExecConfig, trace: &TaskTrace) -> Result<ExecReport, String> {
    let report = Executor::new(cfg).run(trace).map_err(|e| format!("replay failed: {e}"))?;
    if !report.fault.failed.is_empty() || !report.fault.poisoned.is_empty() {
        return Err(format!("replay quarantined tasks: {:?}", report.fault));
    }
    if !report.accounting_reconciles() || report.tasks != trace.len() {
        return Err("replay accounting does not reconcile".into());
    }
    Ok(report)
}

pub fn measure(trace: &TaskTrace, payload: PayloadMode) -> Result<Layers, String> {
    let graph = 7;
    let tasks = trace.len() as f64;
    let per_task = |d: Duration| nanos(d) as f64 / tasks;

    let frames: Vec<Vec<u8>> =
        graph_frames(graph, 0, trace, CHUNK).iter().map(encode_frame).collect();
    let bytes: usize = frames.iter().map(Vec::len).sum();

    let encode = repeat(|| {
        let t = Instant::now();
        let f: Vec<Vec<u8>> =
            graph_frames(graph, 0, black_box(trace), CHUNK).iter().map(encode_frame).collect();
        black_box(f);
        per_task(t.elapsed())
    });

    let limits = AssemblerLimits { max_tasks: ServerConfig::default().max_graph_tasks };
    let mut decode_err = None;
    let decode = repeat(|| {
        let t = Instant::now();
        match assemble(black_box(&frames), limits) {
            Ok(back) if back.len() == trace.len() => {
                black_box(back);
            }
            Ok(back) => {
                decode_err = Some(format!("reassembled {} of {} tasks", back.len(), trace.len()))
            }
            Err(e) => decode_err = Some(e),
        }
        per_task(t.elapsed())
    });
    if let Some(e) = decode_err {
        return Err(format!("proto replay: {e}"));
    }

    let renamer = Renamer::new();
    let rename = repeat(|| {
        let t = Instant::now();
        black_box(renamer.decode(black_box(trace)));
        per_task(t.elapsed())
    });

    let mut one = TaskTrace::new("one-task");
    let k = one.add_kernel("k");
    one.push_task(k, 1, vec![]);
    let mut fixed_err = None;
    let fixed = repeat(|| {
        let t = Instant::now();
        if let Err(e) = run_clean(server_exec_config(payload, graph), &one) {
            fixed_err = Some(e);
        }
        nanos(t.elapsed()) as f64 / 1e3
    });
    if let Some(e) = fixed_err {
        return Err(format!("1-task replay: {e}"));
    }

    let mut reports = Vec::new();
    let started = Instant::now();
    while reports.len() < MIN_REPS || started.elapsed() < BUDGET {
        reports.push(run_clean(server_exec_config(payload, graph), trace)?);
    }
    let of = |f: &dyn Fn(&ExecReport) -> f64| median(&reports.iter().map(f).collect::<Vec<_>>());

    Ok(Layers {
        bytes_per_task: bytes as f64 / tasks,
        encode_ns_per_task: median(&encode),
        decode_ns_per_task: median(&decode),
        rename_ns_per_task: median(&rename),
        fixed_us: median(&fixed),
        run_ns_per_task: of(&|r| per_task(r.exec_wall)),
        steals_per_graph: of(&|r| r.total_steals() as f64),
        decode_overlap_pct: of(&|r| r.decode_overlap_pct),
        worker_util_pct: of(&|r| {
            100.0 * (0..r.workers.len()).map(|w| r.utilization(w)).sum::<f64>()
                / r.workers.len() as f64
        }),
    })
}

/// The server's decode path for one graph: `decode_frame_bytes` on each
/// frame, then `GraphAssembler`.
fn assemble(frames: &[Vec<u8>], limits: AssemblerLimits) -> Result<TaskTrace, String> {
    let mut asm = None;
    for bytes in frames {
        let (frame, used) = decode_frame_bytes(bytes).map_err(|e| e.to_string())?;
        if used != bytes.len() {
            return Err(format!("frame decoded {used} of {} bytes", bytes.len()));
        }
        match frame {
            Frame::OpenGraph { deadline_ms, name, kernels, .. } => {
                asm = Some(GraphAssembler::open(&name, &kernels, deadline_ms, limits));
            }
            Frame::Tasks { tasks, .. } => {
                asm.as_mut()
                    .ok_or("Tasks before OpenGraph")?
                    .push_tasks(tasks)
                    .map_err(|e| e.to_string())?;
            }
            Frame::Seal { tasks_total, .. } => {
                return asm
                    .take()
                    .ok_or("Seal before OpenGraph")?
                    .seal(tasks_total)
                    .map_err(|e| e.to_string());
            }
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
    Err("no Seal frame".into())
}

//! Service benchmark driver: starts `serve` as its own process, drives
//! it with a closed loop of client threads, checks every result, and
//! prints the end-to-end metrics (or, with `--trace 1`, the per-layer
//! metrics) with a JSON object as the last line of stdout.
//!
//! ```text
//! tss-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!               --serve PATH/TO/serve --out-dir DIR
//! ```
//!
//! Exits 0 when every graph completed cleanly and every check held,
//! 1 on a correctness failure, 2 on bad arguments.

mod layers;
mod load;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use tss_exec::PayloadMode;
use tss_trace::TaskTrace;
use tss_workloads::{Benchmark, Scale};

use load::{nanos, LoadClient, Span, Tally};
use serve::Serve;
use stats::{median, quantile};

/// Closed loop on one connection. One client leaves the host's second
/// hardware thread to `serve`; with two clients `serve` has no idle
/// time, so every host disturbance lands on the measured path and the
/// run-to-run spread of p50 and tasks/s roughly doubles.
const CLIENTS: u64 = 1;
/// Distinct graphs per run, generated from the seed and submitted in
/// rotation, so one seed's sampled task runtimes do not set the result.
const VARIANTS: u64 = 4;
/// Extra `serve` start-ups per run, timed for `setup_s` only.
const SETUP_SPAWNS: usize = 10;
/// Closed-loop time before the measured window; its graphs are checked
/// but not timed.
const WARMUP: Duration = Duration::from_millis(500);
/// The measured window is cut into sub-windows this long; the faster
/// half of them (by tasks completed) gives the timing metrics.
const SUBWINDOW: Duration = Duration::from_secs(1);
/// Graphs each client keeps outstanding: submit, wait for `Done`, repeat.
const INFLIGHT: usize = 1;

struct Workload {
    name: &'static str,
    bench: Benchmark,
    scale: Scale,
    payload: &'static str,
    /// `serve`'s peak RSS is read after this many clean graphs per
    /// second of `--seconds`, well below what a disturbed run completes.
    /// `serve` keeps a record of every graph it has finished, so its RSS
    /// grows with the graphs served; at a fixed count it repeats, while
    /// at the end of a fixed time it follows host speed. On large graphs
    /// the peak also steps up whenever two graphs' memory happens to
    /// overlap, so that count is set late enough to reach the plateau.
    rss_graphs_per_s: u64,
}

const WORKLOADS: [Workload; 2] = [
    // Fixed costs per graph dominate: executor spawn and join, watchdog,
    // pool handoff, admission and `Done`.
    Workload {
        name: "small_graphs",
        bench: Benchmark::Cholesky,
        scale: Scale::Small,
        payload: "noop",
        rss_graphs_per_s: 300,
    },
    // The same DAG family at ~140x the size: per-task costs dominate
    // (encode, decode, assembly, rename, deques).
    Workload {
        name: "large_graphs",
        bench: Benchmark::Cholesky,
        scale: Scale::Paper,
        payload: "noop",
        rss_graphs_per_s: 30,
    },
];

impl Workload {
    fn serve_args(&self) -> Vec<String> {
        vec!["--payload".to_string(), self.payload.to_string()]
    }

    fn payload_mode(&self) -> PayloadMode {
        PayloadMode::parse(self.payload, 1.0).expect("known payload")
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve: PathBuf,
    out_dir: PathBuf,
}

fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: tss-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
         --serve PATH --out-dir DIR"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut serve, mut out_dir) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage_error(format!("{flag} needs a value")));
        let num = |v: &str| -> u64 {
            v.parse().unwrap_or_else(|_| usage_error(format!("{flag} must be a number, got '{v}'")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.iter().find(|w| w.name == value).unwrap_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    usage_error(format!("unknown workload '{value}' ({})", names.join("|")))
                }))
            }
            "--seed" => seed = Some(num(&value)),
            "--seconds" => seconds = Some(num(&value)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("--trace must be 0 or 1"),
                })
            }
            "--serve" => serve = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => usage_error(format!("unknown flag '{flag}'")),
        }
    }
    let need = |what: &str| -> ! { usage_error(format!("{what} is required")) };
    let seconds = seconds.unwrap_or_else(|| need("--seconds"));
    if seconds == 0 {
        usage_error("--seconds must be at least 1");
    }
    Args {
        workload: workload.unwrap_or_else(|| need("--workload")),
        seed: seed.unwrap_or_else(|| need("--seed")),
        seconds,
        trace: trace.unwrap_or_else(|| need("--trace")),
        serve: serve.unwrap_or_else(|| need("--serve")),
        out_dir: out_dir.unwrap_or_else(|| need("--out-dir")),
    }
}

/// One closed-loop load phase against a fresh `serve`.
struct Load {
    setup: Duration,
    /// Every graph of the phase, warm-up included.
    attempted: u64,
    ok: u64,
    /// The measured window only.
    window: Tally,
    /// The measured window's [`SUBWINDOW`] boundaries, each with
    /// `serve`'s CPU time at that instant.
    marks: Vec<(Instant, Duration)>,
    server_peak_rss_kib: u64,
    /// The clean graphs the peak RSS was read after; `None` when the
    /// load ended before that count and it was read at the end.
    rss_after: Option<u64>,
}

fn run_load(args: &Args, traces: &[TaskTrace], traced: bool) -> Result<Load, String> {
    let w = args.workload;
    let serve =
        Serve::spawn(&args.serve, &w.serve_args(), &serve::port_file(&args.out_dir, w.name))?;
    let rss_after = w.rss_graphs_per_s * args.seconds;
    let ready = Barrier::new(CLIENTS as usize + 1);
    let go = Barrier::new(CLIENTS as usize + 1);
    let seconds = Duration::from_secs(args.seconds);

    let (marks, results) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|idx| {
                let (ready, go, serve) = (&ready, &go, &serve);
                s.spawn(move || {
                    let (mut warm, mut tally) = (Tally::default(), Tally::default());
                    let mut conn =
                        LoadClient::connect(serve, idx, INFLIGHT, traces, traced, rss_after)
                            .map_err(|e| warm.errors.push(e))
                            .ok();
                    if let Some(c) = conn.as_mut() {
                        c.run(Instant::now() + WARMUP, &mut warm);
                    }
                    ready.wait();
                    go.wait();
                    if let Some(c) = conn.as_mut() {
                        c.run(Instant::now() + seconds, &mut tally);
                    }
                    let rss = conn.as_mut().and_then(|c| c.peak_rss_kib.take());
                    if let Some(c) = conn {
                        c.bye();
                    }
                    (warm, tally, rss)
                })
            })
            .collect();
        ready.wait();
        let mut marks = vec![(Instant::now(), serve.cpu_time())];
        go.wait();
        let t0 = marks[0].0;
        for i in 1..args.seconds as u32 {
            let due = t0 + SUBWINDOW * i;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            marks.push((Instant::now(), serve.cpu_time()));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        marks.push((Instant::now(), serve.cpu_time()));
        (marks, results)
    });
    let end_rss_kib = serve.peak_rss_kib()?;
    let setup = serve.setup;
    let drain = serve.stop()?;
    let marks = marks.into_iter().map(|(t, cpu)| cpu.map(|c| (t, c))).collect::<Result<_, _>>()?;

    let (mut attempted, mut ok, mut window) = (0, 0, Tally::default());
    let mut probed_rss_kib = None;
    for r in results {
        let (warm, tally, rss) = r.map_err(|_| "a client thread panicked".to_string())?;
        if probed_rss_kib.is_none() {
            probed_rss_kib = rss.transpose()?;
        }
        attempted += warm.attempted + tally.attempted;
        ok += (warm.samples.len() + tally.samples.len()) as u64;
        window.errors.extend(warm.errors);
        window.absorb(tally);
    }
    if drain.accepted != drain.completed || drain.completed != ok {
        window.errors.push(format!(
            "serve drained {} accepted = {} completed, clients saw {ok} clean completions",
            drain.accepted, drain.completed
        ));
    }
    let (server_peak_rss_kib, rss_after) = match probed_rss_kib {
        Some(kib) => (kib, Some(rss_after)),
        None => (end_rss_kib, None),
    };
    Ok(Load { setup, attempted, ok, window, marks, server_peak_rss_kib, rss_after })
}

/// The end-to-end metrics of one load phase.
struct EndToEnd {
    /// Graphs in the kept sub-windows, and how many lie beyond the p99.
    samples: usize,
    beyond_p99: usize,
    kept: usize,
    parts: usize,
    latency_p50_ms: f64,
    latency_p99_ms: f64,
    tasks_per_s: f64,
    server_cpu_us_per_task: f64,
    server_peak_rss_mb: f64,
    rss_after: Option<u64>,
    error_rate: f64,
}

/// One [`SUBWINDOW`] of a load phase.
struct Part {
    secs: f64,
    cpu_secs: f64,
    tasks: u64,
    latencies: Vec<u64>,
}

impl EndToEnd {
    /// Every timing comes from raw per-graph samples, each assigned to
    /// the sub-window its `Done` arrived in. The faster half of the
    /// sub-windows, by tasks completed per second, is kept, and p50, p99,
    /// throughput and CPU per task are taken over the kept ones pooled.
    /// On a shared host, episodes of interference slow a second or more
    /// at a time and raise the tail by multiples; the slower half holds
    /// them, while a change to the service moves every sub-window.
    fn of(load: &Load) -> EndToEnd {
        let mut parts: Vec<Part> = load
            .marks
            .windows(2)
            .map(|pair| {
                let ((from, cpu_from), (to, cpu_to)) = (pair[0], pair[1]);
                let done = load.window.samples.iter().filter(|s| s.done >= from && s.done < to);
                Part {
                    secs: (to - from).as_secs_f64(),
                    cpu_secs: cpu_to.saturating_sub(cpu_from).as_secs_f64(),
                    tasks: done.clone().map(|s| s.tasks).sum(),
                    latencies: done.map(|s| s.latency_ns).collect(),
                }
            })
            .collect();
        let n_parts = parts.len();
        parts.sort_by(|a, b| (b.tasks as f64 / b.secs).total_cmp(&(a.tasks as f64 / a.secs)));
        parts.truncate(n_parts.div_ceil(2));
        let mut lat: Vec<u64> = parts.iter().flat_map(|p| p.latencies.iter().copied()).collect();
        lat.sort_unstable();
        let quantile_ms =
            |q: f64| if lat.is_empty() { f64::NAN } else { quantile(&lat, q) as f64 / 1e6 };
        let p99_ns = if lat.is_empty() { 0 } else { quantile(&lat, 0.99) };
        let sum = |f: fn(&Part) -> f64| parts.iter().map(f).sum::<f64>();
        let tasks = sum(|p| p.tasks as f64);
        EndToEnd {
            samples: lat.len(),
            beyond_p99: lat.iter().filter(|&&l| l > p99_ns).count(),
            kept: parts.len(),
            parts: n_parts,
            latency_p50_ms: quantile_ms(0.50),
            latency_p99_ms: quantile_ms(0.99),
            tasks_per_s: tasks / sum(|p| p.secs),
            server_cpu_us_per_task: sum(|p| p.cpu_secs) * 1e6 / tasks,
            server_peak_rss_mb: load.server_peak_rss_kib as f64 / 1024.0,
            rss_after: load.rss_after,
            error_rate: (load.attempted - load.ok) as f64 / load.attempted.max(1) as f64,
        }
    }
}

/// One graph's latency split into the four contiguous stages, in ns.
struct Stages {
    latency: u64,
    encode: u64,
    admit: u64,
    exec: u64,
    residual: i64,
}

/// Splits a span into stages and checks that they sum to the latency
/// and that the server's executor wall fits between the client's
/// last frame and its receipt of `Done`.
fn stages(s: &Span) -> Result<Stages, String> {
    let ordered = s.start <= s.encoded && s.encoded <= s.accepted && s.accepted <= s.done;
    if !ordered {
        return Err(format!("graph {}/{}: stage stamps out of order", s.client, s.graph));
    }
    let latency = nanos(s.done - s.start);
    let encode = nanos(s.encoded - s.start);
    let admit = nanos(s.accepted - s.encoded);
    let exec = s.exec_wall_us * 1000;
    if exec > nanos(s.done - s.encoded) {
        return Err(format!(
            "graph {}/{}: exec wall {exec} ns exceeds the {} ns from send to Done",
            s.client,
            s.graph,
            nanos(s.done - s.encoded)
        ));
    }
    let residual = nanos(s.done - s.accepted) as i64 - exec as i64;
    let sum = encode as i64 + admit as i64 + exec as i64 + residual;
    if sum != latency as i64 {
        return Err(format!(
            "graph {}/{}: stages sum to {sum} ns, latency is {latency} ns",
            s.client, s.graph
        ));
    }
    Ok(Stages { latency, encode, admit, exec, residual })
}

/// Checks every span, writes them out keyed by `(client, graph)`, and
/// returns the per-stage medians in microseconds.
fn stage_medians(spans: &[Span], path: &Path) -> Result<[f64; 4], String> {
    let mut by_graph = BTreeMap::new();
    for s in spans {
        by_graph.insert((s.client, s.graph), stages(s)?);
    }
    let mut text = String::new();
    for ((client, graph), st) in &by_graph {
        let _ = writeln!(
            text,
            "{{\"client\": {client}, \"graph\": {graph}, \"latency_ns\": {}, \
             \"client.encode_ns\": {}, \"server.admit_ns\": {}, \"exec.wall_ns\": {}, \
             \"server.residual_ns\": {}}}",
            st.latency, st.encode, st.admit, st.exec, st.residual
        );
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    let med =
        |f: &dyn Fn(&Stages) -> f64| median(&by_graph.values().map(f).collect::<Vec<_>>()) / 1e3;
    Ok([
        med(&|s| s.encode as f64),
        med(&|s| s.admit as f64),
        med(&|s| s.exec as f64),
        med(&|s| s.residual as f64),
    ])
}

/// Metrics in print order: name, value, unit, note.
type Metrics = Vec<(&'static str, f64, &'static str, String)>;

fn end_to_end_metrics(setup_s: f64, setups: usize, e: &EndToEnd) -> Metrics {
    let kept = format!("faster {} of {} 1-s sub-windows", e.kept, e.parts);
    vec![
        ("setup_s", setup_s, "s", format!("median of {setups} serve start-ups")),
        ("latency_p50_ms", e.latency_p50_ms, "ms", format!("n={} graphs, {kept}", e.samples)),
        (
            "latency_p99_ms",
            e.latency_p99_ms,
            "ms",
            format!("n={}, {} beyond p99, {kept}", e.samples, e.beyond_p99),
        ),
        ("tasks_per_s", e.tasks_per_s, "tasks/s", kept.clone()),
        ("server_cpu_us_per_task", e.server_cpu_us_per_task, "us", kept),
        (
            "server_peak_rss_mb",
            e.server_peak_rss_mb,
            "MB",
            match e.rss_after {
                Some(n) => format!("serve VmHWM after {n} clean graphs"),
                None => "serve VmHWM at the end; the load ended before the graph count".into(),
            },
        ),
        ("clean_ratio", 1.0 - e.error_rate, "ratio", format!("error_rate={}", e.error_rate)),
    ]
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("error: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(1);
    }
    let traces: Vec<TaskTrace> =
        (0..VARIANTS).map(|i| w.bench.trace(w.scale, args.seed * VARIANTS + i)).collect();
    let hw_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "workload {}: {} {} ({} tasks/graph, {VARIANTS} seeded variants), serve {}, \
         closed loop of {CLIENTS} clients x {} in flight, seed {}, {}s window, hw_threads {hw_threads}",
        w.name,
        w.scale.name(),
        w.bench.name(),
        traces[0].len(),
        w.serve_args().join(" "),
        INFLIGHT,
        args.seed,
        args.seconds,
    );

    match run(&args, &traces) {
        Ok(r) => {
            for (name, value, unit, note) in r.end_to_end.iter().chain(r.per_layer.iter().flatten())
            {
                println!("{name:<32} {value:>20} {unit:<8} {note}");
            }
            let metrics = r.per_layer.as_ref().unwrap_or(&r.end_to_end);
            println!("{}", json_line(r.correct, r.attempted, r.failed, metrics));
            std::process::exit(if r.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

struct Report {
    /// Every graph completed cleanly and every check held.
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Metrics,
    /// Present for the traced run.
    per_layer: Option<Metrics>,
}

fn run(args: &Args, traces: &[TaskTrace]) -> Result<Report, String> {
    let w = args.workload;
    let mut setups = Vec::new();
    for i in 0..SETUP_SPAWNS {
        let serve =
            Serve::spawn(&args.serve, &w.serve_args(), &serve::port_file(&args.out_dir, w.name))?;
        setups.push(serve.setup.as_secs_f64());
        let drain = serve.stop()?;
        if drain.accepted != 0 {
            return Err(format!("idle serve start-up {i} accepted {} graphs", drain.accepted));
        }
    }

    let plain = run_load(args, traces, false)?;
    setups.push(plain.setup.as_secs_f64());
    let mut loads = vec![&plain];
    let traced = if args.trace { Some(run_load(args, traces, true)?) } else { None };
    if let Some(t) = &traced {
        setups.push(t.setup.as_secs_f64());
        loads.push(t);
    }

    let mut problems: Vec<String> = Vec::new();
    let (mut attempted, mut failed, mut rejects) = (0, 0, 0);
    for l in &loads {
        attempted += l.attempted;
        failed += l.attempted - l.ok;
        rejects += l.window.rejects;
        problems.extend(l.window.errors.iter().cloned());
    }
    let base = EndToEnd::of(&plain);
    let end_to_end = end_to_end_metrics(median(&setups), setups.len(), &base);
    let mut per_layer = None;

    if let Some(t) = &traced {
        let spans_path = args.out_dir.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        let [encode, admit, exec, residual] = stage_medians(&t.window.spans, &spans_path)
            .unwrap_or_else(|e| {
                problems.push(e);
                [f64::NAN; 4]
            });
        let layers = layers::measure(&traces[0], w.payload_mode())?;
        let e = EndToEnd::of(t);
        let n =
            format!("median of {} graphs; spans in {}", t.window.spans.len(), spans_path.display());
        per_layer = Some(vec![
            ("client.encode_us", encode, "us", n.clone()),
            ("server.admit_us", admit, "us", n.clone()),
            ("exec.wall_us", exec, "us", n.clone()),
            ("server.residual_us", residual, "us", n),
            ("proto.bytes_per_task", layers.bytes_per_task, "B", String::new()),
            ("proto.encode_ns_per_task", layers.encode_ns_per_task, "ns", String::new()),
            ("proto.decode_ns_per_task", layers.decode_ns_per_task, "ns", String::new()),
            ("exec.rename_ns_per_task", layers.rename_ns_per_task, "ns", String::new()),
            ("exec.fixed_us", layers.fixed_us, "us", "1-task Executor::run".into()),
            ("exec.run_ns_per_task", layers.run_ns_per_task, "ns", String::new()),
            ("exec.steals_per_graph", layers.steals_per_graph, "count", String::new()),
            ("exec.decode_overlap_pct", layers.decode_overlap_pct, "%", String::new()),
            ("exec.worker_util_pct", layers.worker_util_pct, "%", String::new()),
            ("client.rejects", rejects as f64, "count", "retried sheds, both windows".into()),
            (
                "overhead.latency_p50_ms",
                e.latency_p50_ms - base.latency_p50_ms,
                "ms",
                "traced - untraced".into(),
            ),
            (
                "overhead.latency_p99_ms",
                e.latency_p99_ms - base.latency_p99_ms,
                "ms",
                "traced - untraced".into(),
            ),
            (
                "overhead.tasks_per_s",
                e.tasks_per_s - base.tasks_per_s,
                "tasks/s",
                "traced - untraced".into(),
            ),
            (
                "overhead.server_cpu_us_per_task",
                e.server_cpu_us_per_task - base.server_cpu_us_per_task,
                "us",
                "traced - untraced".into(),
            ),
        ]);
    }

    for p in problems.iter().take(20) {
        eprintln!("check failed: {p}");
    }
    Ok(Report { correct: problems.is_empty(), attempted, failed, end_to_end, per_layer })
}

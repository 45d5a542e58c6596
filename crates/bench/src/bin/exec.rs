//! Native-executor harness: run all nine Table-I benchmarks on real
//! threads (`tss-exec`), oracle-validate every completion log, and
//! record decode + pipelined-streaming throughput in `BENCH_exec.json`
//! (DESIGN.md §7–§8).
//!
//! Two numbers per benchmark:
//!
//! - **decode** — the software renamer's one-pass, single-thread decode
//!   rate in ns/task (best of [`DECODE_REPS`] passes). This is the
//!   native analog of the paper's Section-II measurement that a
//!   software task decoder costs ~700 ns/task — the ceiling the whole
//!   hardware pipeline exists to break.
//! - **stream** — the pipelined end-to-end run: decode shard threads
//!   rename window by window *while* workers execute earlier windows.
//!   Reported as end-to-end tasks/sec plus `decode_overlap_pct` (share
//!   of the run during which decode was still streaming — the paper's
//!   "decode must not serialize the backend" claim, at native speed).
//!
//! Every run's completion log is checked against the `DepGraph`
//! oracle; any violation exits nonzero (CI gates on this, not timing).
//! Chaos runs (DESIGN.md §11) additionally gate on the accounting
//! identity `completed + failed + poisoned = tasks`.
//!
//! Flags: `--scale small|paper|large`, `--threads N`, `--payload
//! noop|spin|memcpy|faulty|mixed`, `--spin-scale F`, `--seed N`,
//! `--window N`, `--decode-shards N`, `--no-renaming`, `--json`,
//! `--out PATH`, plus the failure domain: `--fault-rate F` (0..=1),
//! `--fault-seed N`, `--failure-policy fail-fast|retry|quarantine`,
//! `--retry-max N`, `--retry-backoff-ms F`, `--task-deadline-ms N`,
//! `--run-deadline-ms N`, `--kill-at-ticket K`. Bad flag values *and*
//! bad flag combinations print a clear error naming the flags and exit
//! 2 (they never panic); a structured run failure ([`ExecError`]) also
//! exits 2.
//!
//! Observability (DESIGN.md §12, needs a `--features obs` build —
//! rejected up front otherwise): `--trace-out PATH` writes the runs as
//! Chrome `trace_event` JSON (one process per benchmark, one track per
//! worker + decode shard); `--histogram` prints the sampled per-task
//! latency quantiles. An obs build also adds `latency_p50/p99/p999_ns`
//! and `queue_p50/p99/p999_ns` to every JSON row and to `totals`.

use std::time::{Duration, Instant};

use tss_core::report::{fmt_count_pct, fmt_f};
use tss_core::Table;
use tss_exec::fault::install_quiet_hook;
use tss_exec::{ExecConfig, ExecError, ExecReport, Executor, FailurePolicy, PayloadMode, Renamer};
use tss_trace::DepGraph;
use tss_workloads::{Benchmark, Scale};

/// The paper's software-decoder baseline (Section II): ~700 ns/task.
const PAPER_SOFTWARE_DECODE_NS: f64 = 700.0;

/// Decode passes per benchmark; the best is reported (first pass pays
/// page faults and cache warmup).
const DECODE_REPS: usize = 3;

struct Args {
    scale: Scale,
    threads: usize,
    payload: PayloadMode,
    seed: u64,
    window: usize,
    decode_shards: usize,
    renaming: bool,
    json: bool,
    out: String,
    // --- failure domain (DESIGN.md §11) ---
    policy: FailurePolicy,
    fault_rate_ppm: u32,
    fault_seed: u64,
    task_deadline: Option<Duration>,
    run_deadline: Option<Duration>,
    kill_at_ticket: Option<usize>,
    // --- observability (DESIGN.md §12) ---
    trace_out: Option<String>,
    histogram: bool,
}

/// CLI contract: bad input is a user error, not a bug — report it
/// plainly and exit nonzero (the CLI-error tests pin this).
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg} (try --help)");
    std::process::exit(2);
}

fn want(value: Option<String>, flag: &str) -> String {
    value.unwrap_or_else(|| fail(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(raw: &str, what: &str) -> T {
    raw.parse().unwrap_or_else(|_| fail(format!("{what} must be a number, got '{raw}'")))
}

fn parse_args() -> Args {
    let mut out = Args {
        scale: Scale::Small,
        threads: 4,
        payload: PayloadMode::Noop,
        seed: 42,
        window: 1024,
        decode_shards: 1,
        renaming: true,
        json: false,
        out: "BENCH_exec.json".into(),
        policy: FailurePolicy::FailFast,
        fault_rate_ppm: 0,
        fault_seed: 7,
        task_deadline: None,
        run_deadline: None,
        kill_at_ticket: None,
        trace_out: None,
        histogram: false,
    };
    let mut spin_scale = 1.0f64;
    let mut payload_name = String::from("noop");
    let mut fault_rate: Option<f64> = None;
    let mut policy_name: Option<String> = None;
    let mut retry_max: Option<u32> = None;
    let mut retry_backoff_ms = 1.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = want(args.next(), "--scale");
                out.scale = Scale::parse(&v)
                    .unwrap_or_else(|| fail(format!("unknown scale '{v}' (small|paper|large)")));
            }
            "--threads" => {
                out.threads = parse_num(&want(args.next(), "--threads"), "--threads");
                if out.threads == 0 {
                    fail("--threads must be at least 1");
                }
            }
            "--window" => {
                out.window = parse_num(&want(args.next(), "--window"), "--window");
                if out.window == 0 {
                    fail("--window must be at least 1 task");
                }
            }
            "--decode-shards" => {
                out.decode_shards =
                    parse_num(&want(args.next(), "--decode-shards"), "--decode-shards");
                if out.decode_shards == 0 {
                    fail("--decode-shards must be at least 1");
                }
            }
            "--payload" => payload_name = want(args.next(), "--payload"),
            "--spin-scale" => {
                spin_scale = parse_num(&want(args.next(), "--spin-scale"), "--spin-scale");
            }
            "--seed" => out.seed = parse_num(&want(args.next(), "--seed"), "--seed"),
            "--no-renaming" => out.renaming = false,
            "--json" => out.json = true,
            "--out" => out.out = want(args.next(), "--out"),
            "--fault-rate" => {
                let f: f64 = parse_num(&want(args.next(), "--fault-rate"), "--fault-rate");
                if !(0.0..=1.0).contains(&f) {
                    fail("--fault-rate must be a probability in 0..=1");
                }
                fault_rate = Some(f);
            }
            "--fault-seed" => {
                out.fault_seed = parse_num(&want(args.next(), "--fault-seed"), "--fault-seed");
            }
            "--failure-policy" => policy_name = Some(want(args.next(), "--failure-policy")),
            "--retry-max" => {
                let n: u32 = parse_num(&want(args.next(), "--retry-max"), "--retry-max");
                if n == 0 {
                    fail("--retry-max must be at least 1 attempt");
                }
                retry_max = Some(n);
            }
            "--retry-backoff-ms" => {
                retry_backoff_ms =
                    parse_num(&want(args.next(), "--retry-backoff-ms"), "--retry-backoff-ms");
                if retry_backoff_ms < 0.0 {
                    fail("--retry-backoff-ms must be non-negative");
                }
            }
            "--task-deadline-ms" => {
                let ms: u64 =
                    parse_num(&want(args.next(), "--task-deadline-ms"), "--task-deadline-ms");
                if ms == 0 {
                    fail("--task-deadline-ms must be at least 1 ms (0 would fail every task)");
                }
                out.task_deadline = Some(Duration::from_millis(ms));
            }
            "--run-deadline-ms" => {
                let ms: u64 =
                    parse_num(&want(args.next(), "--run-deadline-ms"), "--run-deadline-ms");
                if ms == 0 {
                    fail("--run-deadline-ms must be at least 1 ms (0 would fail every run)");
                }
                out.run_deadline = Some(Duration::from_millis(ms));
            }
            "--kill-at-ticket" => {
                out.kill_at_ticket =
                    Some(parse_num(&want(args.next(), "--kill-at-ticket"), "--kill-at-ticket"));
            }
            "--trace-out" => out.trace_out = Some(want(args.next(), "--trace-out")),
            "--histogram" => out.histogram = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: exec [--scale small|paper|large] [--threads N] \
                     [--payload noop|spin|memcpy|faulty|mixed] [--spin-scale F] [--seed N] \
                     [--window N] [--decode-shards N] [--no-renaming] [--json] [--out PATH] \
                     [--fault-rate F --failure-policy fail-fast|retry|quarantine] \
                     [--fault-seed N] [--retry-max N] [--retry-backoff-ms F] \
                     [--task-deadline-ms N] [--run-deadline-ms N] [--kill-at-ticket K] \
                     [--trace-out PATH] [--histogram]"
                );
                std::process::exit(0);
            }
            other => fail(format!("unknown flag '{other}'")),
        }
    }
    out.payload = PayloadMode::parse(&payload_name, spin_scale).unwrap_or_else(|| {
        fail(format!("unknown payload '{payload_name}' (noop|spin|memcpy|faulty|mixed)"))
    });

    // Flag-combination validation (all errors name the flags involved;
    // the CLI tests pin these). Injection must be paired with an
    // explicit policy: silently defaulting to fail-fast would turn a
    // chaos run into a guaranteed exit-2.
    let injecting =
        fault_rate.is_some_and(|f| f > 0.0) || matches!(out.payload, PayloadMode::Faulty { .. });
    if fault_rate.is_some()
        && !matches!(out.payload, PayloadMode::Noop | PayloadMode::Faulty { .. })
    {
        fail(format!("--fault-rate needs --payload noop or faulty, not {}", out.payload.name()));
    }
    if injecting && policy_name.is_none() {
        fail("--fault-rate / --payload faulty needs --failure-policy fail-fast|retry|quarantine");
    }
    if let Some(name) = &policy_name {
        let backoff = Duration::from_secs_f64(retry_backoff_ms / 1e3);
        out.policy =
            FailurePolicy::parse(name, retry_max.unwrap_or(3), backoff).unwrap_or_else(|| {
                fail(format!("unknown --failure-policy '{name}' (fail-fast|retry|quarantine)"))
            });
        if retry_max.is_some() && !matches!(out.policy, FailurePolicy::Retry { .. }) {
            fail(format!("--retry-max only applies to --failure-policy retry, not {name}"));
        }
    } else if retry_max.is_some() {
        fail("--retry-max needs --failure-policy retry");
    }
    if out.kill_at_ticket.is_some() && out.threads < 2 {
        fail("--kill-at-ticket needs --threads of at least 2 (a lone dead worker cannot finish)");
    }
    if let Some(rate) = fault_rate {
        out.fault_rate_ppm = (rate * 1e6).round() as u32;
    } else if let PayloadMode::Faulty { rate_ppm, .. } = out.payload {
        out.fault_rate_ppm = rate_ppm;
    }
    if out.fault_rate_ppm > 0 {
        out.payload = PayloadMode::Faulty { rate_ppm: out.fault_rate_ppm, seed: out.fault_seed };
    }
    // Observability flags need a recording build: in the default
    // NoopSink build there is nothing to export, so failing up front
    // beats writing an empty trace file (the CLI tests pin exit 2).
    if !tss_exec::obs_enabled() {
        if out.trace_out.is_some() {
            fail("--trace-out needs a build with the obs feature (cargo ... --features obs)");
        }
        if out.histogram {
            fail("--histogram needs a build with the obs feature (cargo ... --features obs)");
        }
    }
    out
}

struct Point {
    /// The pipelined run (decode inside `exec_wall`).
    stream: ExecReport,
    decode_best: Duration,
}

impl Point {
    fn decode_ns_per_task(&self) -> f64 {
        if self.stream.tasks == 0 {
            return 0.0;
        }
        self.decode_best.as_nanos() as f64 / self.stream.tasks as f64
    }

    fn decode_tasks_per_sec(&self) -> f64 {
        let ns = self.decode_ns_per_task();
        if ns > 0.0 {
            1e9 / ns
        } else {
            0.0
        }
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Hardware threads actually available to this process. Stamped into
/// every artifact (top level *and* totals) so nobody reads a
/// `--threads 32` sweep row from a 1-core CI container as a scaling
/// result again (EXPERIMENTS.md carries the full mea culpa).
fn hw_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The six latency fields for one report's obs data, ready to splice
/// into a JSON object — empty in a NoopSink build (`bench_check`'s
/// latency layer is presence-gated on exactly this).
fn latency_json(obs: Option<&tss_exec::obs::ObsReport>) -> String {
    match obs {
        Some(o) => format!(
            "\"latency_p50_ns\": {}, \"latency_p99_ns\": {}, \"latency_p999_ns\": {}, \
             \"queue_p50_ns\": {}, \"queue_p99_ns\": {}, \"queue_p999_ns\": {}, ",
            o.exec_latency.p50(),
            o.exec_latency.p99(),
            o.exec_latency.p999(),
            o.queue_wait.p50(),
            o.queue_wait.p99(),
            o.queue_wait.p999(),
        ),
        None => String::new(),
    }
}

/// Merges every run's sampled histograms for the totals row.
/// `None` in a NoopSink build.
fn merged_obs(points: &[Point]) -> Option<tss_exec::obs::ObsReport> {
    let mut merged: Option<tss_exec::obs::ObsReport> = None;
    for p in points {
        let Some(o) = &p.stream.obs else { continue };
        match &mut merged {
            Some(m) => {
                m.exec_latency.merge(&o.exec_latency);
                m.queue_wait.merge(&o.queue_wait);
            }
            None => {
                merged = Some(tss_exec::obs::ObsReport {
                    exec_latency: o.exec_latency.clone(),
                    queue_wait: o.queue_wait.clone(),
                    tracks: Vec::new(),
                    gauges: o.gauges,
                    sample_every: o.sample_every,
                });
            }
        }
    }
    merged
}

/// Aggregate decode stats over all benchmarks: `(total tasks, ns/task,
/// tasks/sec, headroom vs the paper's software decoder)`. One helper so
/// the JSON artifact and the printed summary can never disagree.
fn aggregate_decode(points: &[Point]) -> (usize, f64, f64, f64) {
    let tasks: usize = points.iter().map(|p| p.stream.tasks).sum();
    let decode_wall: f64 = points.iter().map(|p| p.decode_best.as_secs_f64()).sum();
    let agg_ns = if tasks > 0 { decode_wall * 1e9 / tasks as f64 } else { 0.0 };
    if agg_ns > 0.0 {
        (tasks, agg_ns, 1e9 / agg_ns, PAPER_SOFTWARE_DECODE_NS / agg_ns)
    } else {
        (tasks, 0.0, 0.0, 0.0)
    }
}

/// Aggregate end-to-end throughput: `sum(tasks) / sum(wall)` — the
/// headline number EXPERIMENTS.md tracks across PRs.
fn aggregate_rate(points: &[Point]) -> f64 {
    let tasks: usize = points.iter().map(|p| p.stream.tasks).sum();
    let total: f64 = points.iter().map(|p| p.stream.exec_wall.as_secs_f64()).sum();
    if total > 0.0 {
        tasks as f64 / total
    } else {
        0.0
    }
}

fn to_json(args: &Args, points: &[Point]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"tss-bench-exec/v6\",\n");
    s.push_str(&format!("  \"scale\": \"{}\",\n", args.scale.name()));
    s.push_str(&format!("  \"threads\": {},\n", args.threads));
    s.push_str(&format!("  \"hw_threads\": {},\n", hw_threads()));
    s.push_str(&format!("  \"payload\": \"{}\",\n", args.payload.name()));
    s.push_str(&format!("  \"seed\": {},\n", args.seed));
    s.push_str(&format!("  \"window\": {},\n", args.window));
    s.push_str(&format!("  \"decode_shards\": {},\n", args.decode_shards));
    s.push_str(&format!("  \"renaming\": {},\n", args.renaming));
    s.push_str(&format!("  \"failure_policy\": \"{}\",\n", args.policy.name()));
    s.push_str(&format!("  \"fault_rate_ppm\": {},\n", args.fault_rate_ppm));
    s.push_str(&format!("  \"fault_seed\": {},\n", args.fault_seed));
    s.push_str(&format!("  \"paper_software_decoder_ns_per_task\": {PAPER_SOFTWARE_DECODE_NS},\n"));
    s.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let r = &p.stream;
        let workers: Vec<String> = (0..r.workers.len())
            .map(|w| {
                format!(
                    "{{\"executed\": {}, \"steals\": {}, \"busy_frac\": {:.4}}}",
                    r.workers[w].executed,
                    r.workers[w].steals,
                    r.utilization(w)
                )
            })
            .collect();
        s.push_str(&format!(
            "    {{\"benchmark\": \"{}\", \"tasks\": {}, \"enforced_edges\": {}, \
             \"decode_ns_per_task\": {:.1}, \"decode_tasks_per_sec\": {:.0}, \"steals\": {}, \
             \"stream_wall_ms\": {:.3}, \"stream_tasks_per_sec\": {:.0}, \
             \"decode_overlap_pct\": {:.1}, {}\
             \"failed\": {}, \"poisoned\": {}, \"retried_ok\": {}, \"workers_lost\": {}, \
             \"validated\": {}, \"workers\": [{}]}}{}\n",
            json_escape(&r.benchmark),
            r.tasks,
            r.rename.enforced_edges,
            p.decode_ns_per_task(),
            p.decode_tasks_per_sec(),
            r.total_steals(),
            r.exec_wall.as_secs_f64() * 1e3,
            r.tasks_per_sec(),
            r.decode_overlap_pct,
            latency_json(r.obs.as_ref()),
            r.fault.failed.len(),
            r.fault.poisoned.len(),
            r.fault.retried_ok,
            r.fault.workers_lost,
            r.validated,
            workers.join(", "),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    let (tasks, agg_ns, per_sec, headroom) = aggregate_decode(points);
    let stream_rate = aggregate_rate(points);
    let overlap = if points.is_empty() {
        0.0
    } else {
        points.iter().map(|p| p.stream.decode_overlap_pct).sum::<f64>() / points.len() as f64
    };
    let failed: usize = points.iter().map(|p| p.stream.fault.failed.len()).sum();
    let poisoned: usize = points.iter().map(|p| p.stream.fault.poisoned.len()).sum();
    let retried_ok: usize = points.iter().map(|p| p.stream.fault.retried_ok).sum();
    let workers_lost: usize = points.iter().map(|p| p.stream.fault.workers_lost).sum();
    let merged = merged_obs(points);
    s.push_str(&format!(
        "  \"totals\": {{\"tasks\": {tasks}, \"hw_threads\": {}, \"decode_ns_per_task\": {agg_ns:.1}, \
         \"decode_tasks_per_sec\": {per_sec:.0}, \"decode_headroom_vs_paper\": {headroom:.1}, \
         \"stream_tasks_per_sec\": {stream_rate:.0}, \
         \"decode_overlap_pct_mean\": {overlap:.1}, {}\
         \"failed\": {failed}, \"poisoned\": {poisoned}, \"retried_ok\": {retried_ok}, \
         \"workers_lost\": {workers_lost}}}\n",
        hw_threads(),
        latency_json(merged.as_ref()),
    ));
    s.push_str("}\n");
    s
}

/// Renders the sampled latency quantiles as a table (`--histogram`;
/// only reachable in an obs build, so the reports carry obs).
fn histogram_table(points: &[Point]) -> String {
    let mut table = Table::new(
        format!("Sampled task latency (1 in {} tasks, ns)", tss_exec::obs::SAMPLE_EVERY),
        &[
            "Benchmark",
            "samples",
            "exec p50",
            "exec p99",
            "exec p999",
            "queue p50",
            "queue p99",
            "queue p999",
        ],
    );
    let row = |table: &mut Table, name: String, o: &tss_exec::obs::ObsReport| {
        table.row(vec![
            name,
            o.exec_latency.count().to_string(),
            o.exec_latency.p50().to_string(),
            o.exec_latency.p99().to_string(),
            o.exec_latency.p999().to_string(),
            o.queue_wait.p50().to_string(),
            o.queue_wait.p99().to_string(),
            o.queue_wait.p999().to_string(),
        ]);
    };
    for p in points {
        if let Some(o) = &p.stream.obs {
            row(&mut table, p.stream.benchmark.clone(), o);
        }
    }
    if let Some(m) = merged_obs(points) {
        row(&mut table, "TOTAL".into(), &m);
    }
    table.render()
}

/// Unwraps one run's result and applies the post-run gates, in severity
/// order: a structured run failure ([`ExecError`]) is a user-visible
/// outcome and exits 2; an oracle violation or a non-reconciling
/// accounting identity is an executor bug and exits 1.
fn run_checked(
    bench: Benchmark,
    result: Result<ExecReport, ExecError>,
    oracle: &DepGraph,
) -> ExecReport {
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            // A structured run failure, not a flag error: no --help hint.
            eprintln!("error: {bench}: {e}");
            std::process::exit(2);
        }
    };
    if let Err(v) = oracle.validate_order(&report.order) {
        eprintln!("[exec] {bench}: ORACLE VIOLATION: {v}");
        std::process::exit(1);
    }
    if !report.accounting_reconciles() {
        eprintln!(
            "[exec] {bench}: ACCOUNTING MISMATCH: completed {} + failed {} + poisoned {} \
             != tasks {} (retried_ok {})",
            report.completed(),
            report.fault.failed.len(),
            report.fault.poisoned.len(),
            report.tasks,
            report.fault.retried_ok,
        );
        std::process::exit(1);
    }
    report.validated = true;
    report
}

fn main() {
    let args = parse_args();
    let chaos = args.fault_rate_ppm > 0 || args.kill_at_ticket.is_some();
    if chaos {
        // Injected panics are expected traffic at a 5% rate; keep the
        // default hook's backtraces for *real* panics only.
        install_quiet_hook();
    }
    let mut points = Vec::with_capacity(9);
    for bench in Benchmark::all() {
        let trace = bench.trace(args.scale, args.seed);
        let oracle = DepGraph::from_trace(&trace);

        // Decode microbench: the renamer alone, single pass, best of N.
        let renamer = Renamer::new().renaming(args.renaming);
        let mut decode_best = Duration::MAX;
        for _ in 0..DECODE_REPS {
            let t0 = Instant::now();
            let g = renamer.decode(&trace);
            let dt = t0.elapsed();
            std::hint::black_box(g.len());
            decode_best = decode_best.min(dt);
        }

        // Validation happens below, outside the timed run, so the
        // harness exits with a clear per-benchmark message.
        let cfg = ExecConfig {
            threads: args.threads,
            payload: args.payload,
            renaming: args.renaming,
            seed: args.seed,
            window: args.window,
            decode_shards: args.decode_shards,
            validate: false,
            policy: args.policy,
            task_deadline: args.task_deadline,
            run_deadline: args.run_deadline,
            kill_at_ticket: args.kill_at_ticket,
            cancel: None,
        };
        let stream = run_checked(bench, Executor::new(cfg).run(&trace), &oracle);
        eprintln!(
            "  [exec] {bench}: {} tasks, decode {:.0} ns/task, stream {:.2} ms \
             ({} steals, {:.0}% decode overlap) — ok",
            stream.tasks,
            decode_best.as_nanos() as f64 / stream.tasks.max(1) as f64,
            stream.exec_wall.as_secs_f64() * 1e3,
            stream.total_steals(),
            stream.decode_overlap_pct,
        );
        if stream.fault.any() {
            eprintln!(
                "  [exec] {bench}: chaos: failed {}, poisoned {}, retried-ok {}, workers lost {}",
                fmt_count_pct(stream.fault.failed.len(), stream.tasks),
                fmt_count_pct(stream.fault.poisoned.len(), stream.tasks),
                stream.fault.retried_ok,
                stream.fault.workers_lost,
            );
        }
        points.push(Point { stream, decode_best });
    }

    let json = to_json(&args, &points);
    std::fs::write(&args.out, &json)
        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", args.out)));

    // Timeline export (DESIGN.md §12.4): worker and decode-shard
    // tracks for every benchmark. Only reachable in an obs
    // build (parse_args rejects the flag otherwise).
    if let Some(path) = &args.trace_out {
        let runs: Vec<(String, &tss_exec::obs::ObsReport)> = points
            .iter()
            .filter_map(|p| p.stream.obs.as_ref().map(|o| (p.stream.benchmark.clone(), o)))
            .collect();
        std::fs::write(path, tss_exec::obs::chrome_trace(&runs))
            .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        eprintln!("  [exec] wrote Chrome trace of {} runs to {path}", runs.len());
    }

    if args.json {
        print!("{json}");
        if args.histogram {
            // Keep stdout parseable: the human table goes to stderr.
            eprintln!("{}", histogram_table(&points));
        }
    } else {
        let mut table = Table::new(
            format!(
                "Native executor ({} scale, {} threads, {} payload, seed {}, window {}, {} decode shards)",
                args.scale.name(),
                args.threads,
                args.payload.name(),
                args.seed,
                args.window,
                args.decode_shards,
            ),
            &[
                "Benchmark",
                "tasks",
                "edges",
                "decode ns/t",
                "steals",
                "stream ms",
                "stream t/s",
                "overlap %",
                "failed",
                "poisoned",
                "valid",
            ],
        );
        for p in &points {
            let r = &p.stream;
            table.row(vec![
                r.benchmark.clone(),
                r.tasks.to_string(),
                r.rename.enforced_edges.to_string(),
                fmt_f(p.decode_ns_per_task(), 0),
                r.total_steals().to_string(),
                fmt_f(r.exec_wall.as_secs_f64() * 1e3, 2),
                fmt_f(r.tasks_per_sec(), 0),
                fmt_f(r.decode_overlap_pct, 0),
                r.fault.failed.len().to_string(),
                r.fault.poisoned.len().to_string(),
                if r.validated { "ok".into() } else { "FAIL".into() },
            ]);
        }
        println!("{}", table.render());
        if args.histogram {
            println!("{}", histogram_table(&points));
        }
        let (_, agg_ns, per_sec, headroom) = aggregate_decode(&points);
        println!(
            "Aggregate native decode: {agg_ns:.0} ns/task ({:.2}M tasks/s) vs the paper's \
             ~{PAPER_SOFTWARE_DECODE_NS:.0} ns/task software decoder — {headroom:.1}x headroom.",
            per_sec / 1e6,
        );
        println!("Aggregate streamed end-to-end {:.2}M tasks/s.", aggregate_rate(&points) / 1e6);
        if chaos {
            let total: usize = points.iter().map(|p| p.stream.tasks).sum();
            let failed: usize = points.iter().map(|p| p.stream.fault.failed.len()).sum();
            let poisoned: usize = points.iter().map(|p| p.stream.fault.poisoned.len()).sum();
            let retried: usize = points.iter().map(|p| p.stream.fault.retried_ok).sum();
            println!(
                "Chaos ({} @ {} ppm, fault seed {}): failed {}, poisoned {}, \
                 retried-ok {} — accounting reconciled.",
                args.policy.name(),
                args.fault_rate_ppm,
                args.fault_seed,
                fmt_count_pct(failed, total),
                fmt_count_pct(poisoned, total),
                retried,
            );
        }
        println!("(wrote {})", args.out);
    }
}

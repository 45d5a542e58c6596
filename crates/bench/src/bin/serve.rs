//! The task-graph execution service (DESIGN.md §14): binds a TCP
//! gateway, serves graph submissions until a drain request arrives —
//! a client `Shutdown` frame, SIGINT, or SIGTERM — then drains
//! gracefully and prints the outcome ledger.
//!
//! Drain (DESIGN.md §14.4) stops admissions immediately, lets admitted
//! graphs finish within `--drain-deadline-ms`, cancels stragglers, and
//! only then closes sessions — every accepted graph gets a terminal
//! `Done` before the socket goes away.
//!
//! Flags: `--host H --port N` (port 0 picks an ephemeral port;
//! `--port-file PATH` writes the bound `host:port` once listening, so
//! scripts can wait for readiness instead of sleeping), sizing
//! (`--exec-threads`, `--quota`, `--max-queued-graphs`,
//! `--max-queued-tasks`, `--max-graph-tasks`), timing
//! (`--retry-after-ms`, `--drain-deadline-ms`, `--read-timeout-ms`),
//! and the payload (`--payload noop|spin|memcpy|mixed`,
//! `--spin-scale F` for the timed payloads, `--seed N`). Bad values
//! and bad combinations exit 2 naming the offending flag.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use tss_exec::PayloadMode;
use tss_server::{Server, ServerConfig};

/// Set by the signal handler; polled by the watcher thread.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_sig: i32) {
    // Only an atomic store: async-signal-safe.
    SIGNALLED.store(true, Ordering::Release);
}

// The workspace is offline (vendor/README.md) and does not carry the
// libc crate, so signal(2) is declared directly. `sighandler_t` is a
// plain function pointer on every platform this runs on (linux CI).
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// CLI contract: bad input is a user error, not a bug (exit 2).
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

struct Args {
    host: String,
    port: u16,
    port_file: Option<String>,
    cfg: ServerConfig,
}

fn parse_args() -> Args {
    let mut out =
        Args { host: "127.0.0.1".into(), port: 0, port_file: None, cfg: ServerConfig::default() };
    let mut payload_name = String::from("noop");
    let mut spin_scale: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--host" => out.host = want(args.next(), "--host"),
            "--port" => out.port = parse_num(&want(args.next(), "--port"), "--port"),
            "--port-file" => out.port_file = Some(want(args.next(), "--port-file")),
            "--exec-threads" => {
                out.cfg.exec_threads =
                    parse_num(&want(args.next(), "--exec-threads"), "--exec-threads");
                if out.cfg.exec_threads == 0 {
                    fail("--exec-threads must be at least 1");
                }
            }
            "--quota" => {
                out.cfg.quota = parse_num(&want(args.next(), "--quota"), "--quota");
                if out.cfg.quota == 0 {
                    fail("--quota must be at least 1 graph per session");
                }
            }
            "--max-queued-graphs" => {
                out.cfg.max_queued_graphs =
                    parse_num(&want(args.next(), "--max-queued-graphs"), "--max-queued-graphs");
                if out.cfg.max_queued_graphs == 0 {
                    fail("--max-queued-graphs must be at least 1");
                }
            }
            "--max-queued-tasks" => {
                out.cfg.max_queued_tasks =
                    parse_num(&want(args.next(), "--max-queued-tasks"), "--max-queued-tasks");
                if out.cfg.max_queued_tasks == 0 {
                    fail("--max-queued-tasks must be at least 1");
                }
            }
            "--max-graph-tasks" => {
                out.cfg.max_graph_tasks =
                    parse_num(&want(args.next(), "--max-graph-tasks"), "--max-graph-tasks");
                if out.cfg.max_graph_tasks == 0 {
                    fail("--max-graph-tasks must be at least 1");
                }
            }
            "--retry-after-ms" => {
                out.cfg.retry_after_ms =
                    parse_num(&want(args.next(), "--retry-after-ms"), "--retry-after-ms");
            }
            "--drain-deadline-ms" => {
                let ms: u64 =
                    parse_num(&want(args.next(), "--drain-deadline-ms"), "--drain-deadline-ms");
                if ms == 0 {
                    fail("--drain-deadline-ms must be at least 1 ms (0 would cancel every drain)");
                }
                out.cfg.drain_deadline = Duration::from_millis(ms);
            }
            "--read-timeout-ms" => {
                let ms: u64 =
                    parse_num(&want(args.next(), "--read-timeout-ms"), "--read-timeout-ms");
                if ms == 0 {
                    fail("--read-timeout-ms must be at least 1 ms (0 would time every read out)");
                }
                out.cfg.read_timeout = Duration::from_millis(ms);
            }
            "--payload" => payload_name = want(args.next(), "--payload"),
            "--spin-scale" => {
                spin_scale = Some(parse_num(&want(args.next(), "--spin-scale"), "--spin-scale"));
            }
            "--seed" => out.cfg.seed = parse_num(&want(args.next(), "--seed"), "--seed"),
            "--help" | "-h" => {
                eprintln!(
                    "usage: serve [--host H] [--port N] [--port-file PATH] \
                     [--exec-threads N] [--quota N] \
                     [--max-queued-graphs N] [--max-queued-tasks N] [--max-graph-tasks N] \
                     [--retry-after-ms N] [--drain-deadline-ms N] [--read-timeout-ms N] \
                     [--payload noop|spin|memcpy|mixed] [--spin-scale F] [--seed N]"
                );
                std::process::exit(0);
            }
            other => fail(format!("unknown flag '{other}'")),
        }
    }
    // Fault injection is a client-side chaos concern; the server side
    // already runs every graph under quarantine (DESIGN.md §14.3).
    if payload_name == "faulty" {
        fail("--payload faulty is not servable; pick noop|spin|memcpy|mixed");
    }
    out.cfg.payload =
        PayloadMode::parse(&payload_name, spin_scale.unwrap_or(1.0)).unwrap_or_else(|| {
            fail(format!("unknown payload '{payload_name}' (noop|spin|memcpy|mixed)"))
        });
    // A spin scale on an untimed payload would be silently ignored —
    // name the combination instead of lying about what ran.
    if spin_scale.is_some()
        && !matches!(out.cfg.payload, PayloadMode::Spin { .. } | PayloadMode::Mixed { .. })
    {
        fail(format!("--spin-scale only applies to --payload spin or mixed, not {payload_name}"));
    }
    out
}

fn main() {
    let args = parse_args();
    // SAFETY: signal(2) with a handler that only stores to an
    // AtomicBool — async-signal-safe (no allocation, locking, or
    // panicking in signal context), and the fn pointer has the exact
    // `extern "C" fn(i32)` ABI the declaration promises.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }

    let bind = format!("{}:{}", args.host, args.port);
    let server = Server::start(args.cfg.clone(), &bind)
        .unwrap_or_else(|e| fail(format!("cannot bind {bind}: {e}")));
    let addr = server.local_addr();
    if let Some(path) = &args.port_file {
        std::fs::write(path, format!("{addr}\n"))
            .unwrap_or_else(|e| fail(format!("cannot write --port-file {path}: {e}")));
    }
    eprintln!(
        "[serve] listening on {addr} ({} exec threads, quota {}, \
         watermarks {} graphs / {} tasks, payload {})",
        args.cfg.exec_threads,
        args.cfg.quota,
        args.cfg.max_queued_graphs,
        args.cfg.max_queued_tasks,
        args.cfg.payload.name(),
    );

    // Signal watcher: turns SIGINT/SIGTERM into a drain request. Also
    // exits quietly if a client's Shutdown frame drained first.
    let handle = server.drain_handle();
    let watcher = std::thread::Builder::new().name("tss-signal".into()).spawn(move || loop {
        if SIGNALLED.load(Ordering::Acquire) {
            eprintln!("[serve] signal received; draining");
            handle.request_drain();
            return;
        }
        if handle.draining() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });
    if let Err(e) = watcher {
        fail(format!("cannot spawn the signal watcher: {e}"));
    }

    let s = server.wait();
    eprintln!(
        "[serve] drained in {:.1} ms ({}): {} accepted = {} completed + {} cancelled + \
         {} deadline-expired + {} failed",
        s.drain_wall.as_secs_f64() * 1e3,
        if s.drain_deadline_hit { "deadline hit, stragglers cancelled" } else { "clean" },
        s.accepted,
        s.completed,
        s.cancelled,
        s.deadline_expired,
        s.failed,
    );
    eprintln!(
        "[serve] rejects: {} overloaded, {} quota, {} malformed, {} draining, {} graph-state; \
         {} sessions ({} killed by protocol errors), {} undelivered Done",
        s.rejected_overloaded,
        s.rejected_quota,
        s.rejected_malformed,
        s.rejected_draining,
        s.rejected_graph_state,
        s.sessions,
        s.session_errors,
        s.undelivered_done,
    );
}

//! The `serve` process under test: spawn it, time its start-up, read
//! its CPU time and peak RSS from `/proc`, and drain it through the
//! protocol's `Shutdown` frame.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tss_client::Client;

/// A running `serve` child. Dropping it without [`Serve::stop`] kills
/// the child and waits for it, so no error path leaves it behind.
pub struct Serve {
    child: Option<Child>,
    pub addr: SocketAddr,
    /// Spawn to `--port-file` readiness.
    pub setup: Duration,
}

/// What `serve` reported on stderr after its drain.
#[derive(Debug, Clone, Copy)]
pub struct Drain {
    pub accepted: u64,
    pub completed: u64,
}

const READY_TIMEOUT: Duration = Duration::from_secs(20);

impl Serve {
    /// Starts `bin` on an ephemeral loopback port with `extra` flags and
    /// waits until it has written its address to `port_file`.
    ///
    /// `serve` runs with glibc's malloc limited to one arena. With the
    /// default of one arena per contending thread, which arenas end up
    /// holding freed graph memory depends on thread timing, and the same
    /// input's peak RSS varied by ~17% between runs; with one arena it
    /// repeats within ~2%, and no timing metric moved measurably.
    pub fn spawn(bin: &Path, extra: &[String], port_file: &Path) -> Result<Serve, String> {
        let _ = std::fs::remove_file(port_file);
        let started = Instant::now();
        let child = Command::new(bin)
            .args(["--port", "0", "--port-file"])
            .arg(port_file)
            .args(extra)
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut serve =
            Serve { child: Some(child), addr: ([127, 0, 0, 1], 0).into(), setup: Duration::ZERO };
        loop {
            // serve writes "host:port\n" in one write; a partial read
            // lacks the newline and is retried.
            if let Ok(text) = std::fs::read_to_string(port_file) {
                if let Some(line) = text.strip_suffix('\n') {
                    serve.setup = started.elapsed();
                    serve.addr = line
                        .parse()
                        .map_err(|_| format!("serve wrote an unreadable address '{line}'"))?;
                    return Ok(serve);
                }
            }
            let child = serve.child.as_mut().expect("child present until stop");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("serve exited before it was ready ({status})"));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(format!("serve was not ready after {READY_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("child present until stop").id()
    }

    /// User plus system CPU time of every thread `serve` has run,
    /// finished threads included.
    pub fn cpu_time(&self) -> Result<Duration, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<u64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("{path}: no field {i}"))
        };
        let ticks = tick(11)? + tick(12)?;
        Ok(Duration::from_secs_f64(ticks as f64 / clock_ticks_per_sec()))
    }

    /// Peak resident set size (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Asks for a drain over the wire, waits for the process to exit and
    /// checks that it exited 0 after a clean drain.
    pub fn stop(mut self) -> Result<Drain, String> {
        let shutdown = Client::connect(self.addr).and_then(|mut c| {
            c.shutdown_server()?;
            c.bye();
            Ok(())
        });
        if let Err(e) = shutdown {
            return Err(format!("shutdown request failed: {e}"));
        }
        let child = self.child.take().expect("child present until stop");
        let out = child.wait_with_output().map_err(|e| format!("wait for serve: {e}"))?;
        let stderr = String::from_utf8_lossy(&out.stderr);
        if !out.status.success() {
            return Err(format!("serve exited with {}: {}", out.status, stderr.trim()));
        }
        let line = stderr
            .lines()
            .find(|l| l.starts_with("[serve] drained in"))
            .ok_or_else(|| format!("serve printed no drain summary: {}", stderr.trim()))?;
        if !line.contains("(clean)") {
            return Err(format!("serve drain was not clean: {line}"));
        }
        let count = |word: &str| -> Result<u64, String> {
            let head = line.split(word).next().filter(|h| h.len() < line.len());
            head.and_then(|h| h.split_whitespace().last())
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("drain summary has no '{word}' count: {line}"))
        };
        Ok(Drain { accepted: count(" accepted")?, completed: count(" completed")? })
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `sysconf(_SC_CLK_TCK)`: the unit of the `/proc` CPU times.
fn clock_ticks_per_sec() -> f64 {
    // The build has no libc crate, so sysconf(3) is declared directly.
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer and returns one; it touches no
    // memory owned by this program.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    assert!(ticks > 0, "sysconf(_SC_CLK_TCK) failed");
    ticks as f64
}

/// Where one `serve` instance writes its address.
pub fn port_file(out_dir: &Path, tag: &str) -> PathBuf {
    out_dir.join(format!("serve-{tag}.addr"))
}

//! Observability integration (ISSUE 8): the sink selection is a
//! compile-time feature, so this suite runs in both configurations —
//! `cargo test -p tss-exec` exercises the NoopSink (obs must be absent
//! and cost nothing), `--features obs` exercises the RingSink (tracks,
//! histograms, and the determinism argument of DESIGN.md §12.5).

use tss_exec::{obs_enabled, ExecConfig, Executor, TaskGraphBuilder};
use tss_trace::TaskTrace;

/// A mixed graph big enough that 1-in-16 sampling still lands: `n`
/// producer/consumer pairs over `width` rotating buffers, so there is
/// real dependence structure and real parallelism.
fn graph(n: usize, width: u64) -> TaskTrace {
    let mut b = TaskGraphBuilder::new("obs-mix");
    let produce = b.kernel("produce");
    let consume = b.kernel("consume");
    for i in 0..n as u64 {
        let buf = 0x1000 + (i % width) * 0x100;
        b.task(produce).runtime_us(0.5).output(buf, 128).spawn();
        b.task(consume).runtime_us(0.5).input(buf, 128).spawn();
    }
    b.build()
}

fn exec(threads: usize) -> Executor {
    Executor::new(ExecConfig { threads, ..Default::default() })
}

#[test]
fn one_worker_run_stays_oracle_valid_under_observation() {
    // DESIGN.md §12.5: sampling is pure in the task id and recording
    // never blocks, so turning obs on cannot change what scheduling may
    // do: every observed run must pass the dependence oracle and run
    // every task exactly once.
    let trace = graph(512, 8);
    for _ in 0..2 {
        let r = exec(1).run(&trace).expect("observed run failed");
        assert!(r.validated, "oracle rejected an observed run");
        assert_eq!(r.completed(), trace.len());
        assert_eq!(r.obs.is_some(), obs_enabled());
    }
}

#[test]
fn obs_report_presence_matches_the_build() {
    let trace = graph(256, 4);
    let report = exec(2).run(&trace).expect("run failed");
    match report.obs {
        Some(_) => assert!(obs_enabled(), "NoopSink build must not produce a report"),
        None => assert!(!obs_enabled(), "RingSink build must produce a report"),
    }
}

#[test]
fn ring_report_covers_every_worker_and_respects_sampling() {
    let threads = 3;
    let trace = graph(2048, 16);
    let tasks = trace.len() as u64;
    let report = exec(threads).run(&trace).expect("run failed");
    assert!(report.validated);
    let Some(obs) = report.obs else {
        assert!(!obs_enabled());
        return;
    };

    // One track per worker, each with at least the whole-worker span,
    // then the decode shard's.
    assert_eq!(obs.tracks.len(), threads + 1);
    assert_eq!(obs.tracks[threads].name, "decode-0");
    for (i, track) in obs.tracks[..threads].iter().enumerate() {
        assert_eq!(track.name, format!("worker-{i}"));
        assert!(!track.events.is_empty(), "track {i} recorded nothing");
        assert_eq!(track.dropped, 0, "tiny run must not overflow a ring");
    }

    // Histograms hold sampled tasks only: nonzero (4096 tasks at
    // 1-in-16 sampling), but never more than the task count.
    assert!(!obs.exec_latency.is_empty(), "no task latencies sampled");
    assert!(obs.exec_latency.count() <= tasks);
    assert!(obs.queue_wait.count() <= obs.exec_latency.count());
    assert!(obs.exec_latency.p50() <= obs.exec_latency.p99());
    assert!(obs.exec_latency.p99() <= obs.exec_latency.p999());
    assert_eq!(obs.sample_every, tss_exec::obs::SAMPLE_EVERY);

    // And the Chrome export of a real run is structurally sound.
    let json = tss_exec::obs::chrome_trace(&[("obs-mix".into(), &obs)]);
    assert!(json.contains("\"thread_name\"") && json.contains("worker-0"));
    assert!(json.contains("\"ph\":\"X\""), "no slices in a real run");
}

#[test]
fn streaming_runs_carry_decode_shard_tracks() {
    let trace = graph(2048, 16);
    let report = Executor::new(ExecConfig { threads: 2, decode_shards: 2, ..Default::default() })
        .run(&trace)
        .expect("streaming run failed");
    assert!(report.validated);
    let Some(obs) = report.obs else {
        assert!(!obs_enabled());
        return;
    };
    let names: Vec<&str> = obs.tracks.iter().map(|t| t.name.as_str()).collect();
    assert!(names.contains(&"worker-0") && names.contains(&"worker-1"), "{names:?}");
    assert!(
        names.iter().any(|n| n.starts_with("decode-")),
        "streaming run lost its decode tracks: {names:?}"
    );
}

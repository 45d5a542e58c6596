//! Microbenchmarks for the Chase-Lev work-stealing deque (`tss-exec`):
//! the owner's push/pop hot loop, a 1-owner-7-thieves contention storm,
//! and steal-one vs steal-half under the same load — so scheduler-core
//! regressions show up in `cargo bench` before they show up in
//! `BENCH_exec.json`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tss_exec::ChaseLev;

/// Owner-only LIFO churn: the fast path every released successor rides.
fn push_pop_hot_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("deque_push_pop");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("owner_lifo_1024", |b| {
        let d = ChaseLev::with_capacity(2048);
        b.iter(|| {
            for i in 0..1024u32 {
                d.push(i);
            }
            while let Some(v) = d.pop() {
                std::hint::black_box(v);
            }
        })
    });
    g.bench_function("owner_lifo_1024_from_cold_cap", |b| {
        // Exercises the grow path: the deque starts at capacity 8.
        b.iter(|| {
            let d = ChaseLev::with_capacity(8);
            for i in 0..1024u32 {
                d.push(i);
            }
            while let Some(v) = d.pop() {
                std::hint::black_box(v);
            }
        })
    });
    g.finish();
}

/// One owner producing, 7 thieves stealing: the contention shape of an
/// oversubscribed 8-worker replay on few cores.
fn contention(c: &mut Criterion) {
    const ITEMS: u64 = 64 * 1024;
    let mut g = c.benchmark_group("deque_contention");
    g.sample_size(10);
    g.throughput(Throughput::Elements(ITEMS));
    for (name, batch) in [("steal_one_7_thieves", false), ("steal_half_7_thieves", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let d = ChaseLev::with_capacity(1024);
                let consumed = AtomicU64::new(0);
                let stop = AtomicBool::new(false);
                std::thread::scope(|scope| {
                    for _ in 0..7 {
                        let d = &d;
                        let consumed = &consumed;
                        let stop = &stop;
                        scope.spawn(move || {
                            let mine = ChaseLev::with_capacity(64);
                            // RELAXED: bench stop flag; harness control, not protocol
                            while !stop.load(Ordering::Relaxed) {
                                let got =
                                    if batch { d.steal_batch_into(&mine, 32) } else { d.steal() };
                                if let Some(v) = got {
                                    std::hint::black_box(v);
                                    let mut n = 1;
                                    while let Some(w) = mine.pop() {
                                        std::hint::black_box(w);
                                        n += 1;
                                    }
                                    // RELAXED: bench progress counter; values flow through the
                                    // deque itself
                                    consumed.fetch_add(n, Ordering::Relaxed);
                                }
                            }
                        });
                    }
                    for i in 0..ITEMS {
                        d.push(i as u32);
                    }
                    // Owner helps drain, then signals.
                    let mut n = 0;
                    while let Some(v) = d.pop() {
                        std::hint::black_box(v);
                        n += 1;
                    }
                    // RELAXED: bench progress counter; values flow through the deque itself
                    consumed.fetch_add(n, Ordering::Relaxed);
                    // RELAXED: bench progress poll; termination only, no data read through it
                    while consumed.load(Ordering::Relaxed) < ITEMS {
                        std::thread::yield_now();
                    }
                    // RELAXED: bench stop flag; harness control, not protocol
                    stop.store(true, Ordering::Relaxed);
                });
            })
        });
    }
    g.finish();
}

criterion_group!(deque_micro, push_pop_hot_loop, contention);
criterion_main!(deque_micro);

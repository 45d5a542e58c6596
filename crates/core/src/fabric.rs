//! The sweep fabric (ISSUE 5 tentpole): a scoped worker pool that fans
//! *independent* simulation points across threads.
//!
//! The paper's evaluation (Section VI) is a large surface of independent
//! runs — `(num_trs, num_ort)` grids, capacity ladders, per-benchmark
//! rows — and every point is a complete, single-threaded, deterministic
//! simulation. The fabric exploits exactly that shape: workers claim
//! points from a shared cursor, each point's result is written into its
//! own pre-assigned slot, and the caller receives results **in point
//! order** regardless of which worker finished when. Per-point
//! simulations stay single-threaded, so each point's output is
//! bit-identical to a serial run; only wall-clock completion order
//! varies — which is why every routed harness binary produces
//! byte-identical tables at any `--jobs` value (gated in CI by diffing
//! `fig13 --jobs 2` against `--jobs 1`; DESIGN.md §9.3).

use tss_exec::sync::atomic::{AtomicUsize, Ordering};
use tss_exec::sync::Mutex;

/// The default `--jobs` value: the host's available parallelism (1 when
/// it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The claim/slot core of [`sweep`] (hand-rolled — the workspace is
/// offline, no rayon): a shared cursor assigns each point index to
/// exactly one worker, and each result lands in the point's own slot,
/// pinning output order to input order. The per-slot mutexes are
/// uncontended by construction (one owner each).
///
/// Factored out of the `std::thread::scope` plumbing so the
/// model-checked tests (DESIGN.md §10.3) can drive the same claim
/// protocol on scheduler-controlled threads.
pub struct SlotClaims<P, R> {
    cursor: AtomicUsize,
    inputs: Vec<Mutex<Option<P>>>,
    outputs: Vec<Mutex<Option<R>>>,
}

impl<P, R> SlotClaims<P, R> {
    /// Wraps every point in its claim slot and an empty result slot.
    pub fn new(points: Vec<P>) -> Self {
        let inputs: Vec<Mutex<Option<P>>> =
            points.into_iter().map(|p| Mutex::new(Some(p))).collect();
        let outputs: Vec<Mutex<Option<R>>> = (0..inputs.len()).map(|_| Mutex::new(None)).collect();
        SlotClaims { cursor: AtomicUsize::new(0), inputs, outputs }
    }

    /// Total number of points.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether there are no points at all.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Claims the next unclaimed point, or `None` once the cursor is
    /// past the end. Relaxed suffices on the cursor: the point payload
    /// is handed over by the slot mutex, not by the counter (the
    /// fetch_add's RMW atomicity alone guarantees unique indices —
    /// model-checked by `fabric_claims_are_exclusive`).
    ///
    /// # Panics
    ///
    /// Panics if an index is ever handed to two workers ("point claimed
    /// twice") — the invariant the model tests pound on.
    pub fn claim(&self) -> Option<(usize, P)> {
        // RELAXED: fetch_add RMW atomicity alone yields unique indices; payload handed over by the
        // slot mutex (model: fabric_claims_are_exclusive)
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= self.inputs.len() {
            return None;
        }
        let p = self.inputs[i]
            .lock()
            .expect("fabric input poisoned")
            .take()
            .expect("point claimed twice");
        Some((i, p))
    }

    /// Deposits point `i`'s result in its slot.
    pub fn complete(&self, i: usize, r: R) {
        *self.outputs[i].lock().expect("fabric output poisoned") = Some(r);
    }

    /// One worker body: claim, compute, deposit, until exhausted.
    pub fn run_worker(&self, f: &(impl Fn(P) -> R + ?Sized)) {
        while let Some((i, p)) = self.claim() {
            self.complete(i, f(p));
        }
    }

    /// Tears down into the results, in point order.
    ///
    /// # Panics
    ///
    /// Panics if any slot is still empty (a worker exited early).
    pub fn into_results(self) -> Vec<R> {
        self.outputs
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("fabric output poisoned")
                    .expect("worker finished without a result")
            })
            .collect()
    }
}

/// Runs `f` over every point, fanning across `jobs` worker threads, and
/// returns the results in point order.
///
/// `jobs` is clamped to `[1, points.len()]`; `jobs <= 1` degenerates to
/// a plain serial map (no threads spawned). A panicking point propagates
/// the panic to the caller once the scope joins.
pub fn sweep<P, R, F>(jobs: usize, points: Vec<P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let n = points.len();
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 {
        return points.into_iter().map(f).collect();
    }
    let claims = SlotClaims::new(points);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| claims.run_worker(&f));
        }
    });
    claims.into_results()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_point_order() {
        for jobs in [1, 2, 4, 7] {
            let points: Vec<usize> = (0..53).collect();
            let out = sweep(jobs, points.clone(), |p| p * 10);
            assert_eq!(out, points.iter().map(|p| p * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn oversubscribed_jobs_are_clamped() {
        let out = sweep(64, vec![1, 2, 3], |p| p + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_point_set_is_fine() {
        let out: Vec<u32> = sweep(8, Vec::<u32>::new(), |p| p);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_equals_serial_for_stateful_work() {
        // Each point is an independent "simulation": result depends only
        // on the point, never on scheduling.
        let f = |p: u64| {
            let mut x = p;
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            }
            x
        };
        let points: Vec<u64> = (0..40).collect();
        assert_eq!(sweep(1, points.clone(), f), sweep(4, points, f));
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}

/// Model-checked interleaving tests for the claim/slot core (DESIGN.md
/// §10.3). Compiled only under `RUSTFLAGS="--cfg tss_model_check"`,
/// where `tss_exec::sync` swaps the cursor and slot mutexes for
/// shuttle's scheduler-instrumented doubles.
#[cfg(all(test, tss_model_check))]
mod model_tests {
    use super::*;
    use shuttle::thread;
    use std::sync::Arc;

    /// Two workers racing the cursor over three points: in every
    /// interleaving (exhaustive) each point is claimed exactly once
    /// ("point claimed twice" would panic the schedule), every slot is
    /// filled, and results come back in point order. This is the
    /// fetch_add-uniqueness argument that lets the cursor stay Relaxed.
    #[test]
    fn model_fabric_claims_are_exclusive() {
        let report = shuttle::check_exhaustive(300_000, || {
            let claims = Arc::new(SlotClaims::new(vec![10usize, 20, 30]));
            let c2 = claims.clone();
            let w = thread::spawn(move || c2.run_worker(&|p: usize| p + 1));
            claims.run_worker(&|p: usize| p + 1);
            w.join().unwrap();
            let claims = Arc::try_unwrap(claims).ok().expect("worker still holds the fabric");
            assert_eq!(claims.into_results(), vec![11, 21, 31]);
        });
        assert!(report.complete, "budget too small: {} schedules", report.schedules);
    }
}

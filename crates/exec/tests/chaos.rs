//! Chaos-injection contract of the failure domain (DESIGN.md §11):
//! because every injected fault is a pure function of `(fault seed,
//! task, attempt)`, the *failure sets* of a run are predictable from
//! the trace alone — this suite recomputes them independently (via
//! `fault_decision` + the `DepGraph` reachability oracle) and pins the
//! executor to them across seeds × thread counts × rates × policies:
//!
//! - **Quarantine poisons exactly the successor cone.** Not one task
//!   more (over-poisoning silently discards healthy work), not one
//!   less (under-poisoning runs consumers of garbage).
//! - **Non-poisoned completions still linearize the oracle.** A chaos
//!   run is not an excuse for a misordered survivor.
//! - **Accounting reconciles.** `completed + failed + poisoned =
//!   tasks`, with the two sides counted by independent mechanisms
//!   (worker counters vs the final status scan).
//! - **One worker ⇒ identical outcomes.** Same seed, same trace, same
//!   policy: two single-worker runs agree exactly on the failure sets
//!   and the retry accounting.

use proptest::prelude::*;
use tss_exec::fault::FaultPlan;
use tss_exec::{ExecConfig, ExecError, Executor, FailurePolicy, PayloadMode, Renamer};
use tss_trace::{DepGraph, TaskTrace};
use tss_workloads::{Benchmark, Scale};

/// Recomputes the failure sets the executor must produce: walk tasks in
/// id order (dependency edges always point forward), roll each
/// non-poisoned task's attempts with the same pure hash the executor
/// uses, and propagate the poison cone through the *oracle's* edges
/// (`DepGraph`), not the executor's renamer — an independent witness.
/// Returns `(failed, poisoned, retried_ok)` with the id vectors sorted.
fn expected_failure_sets(
    trace: &TaskTrace,
    oracle: &DepGraph,
    rate_ppm: u32,
    seed: u64,
    policy: FailurePolicy,
) -> (Vec<u32>, Vec<u32>, usize) {
    let plan = FaultPlan { rate_ppm, seed, kill_at_ticket: None };
    let max_attempts = policy.max_attempts();
    let n = trace.len();
    let mut cone = vec![false; n];
    let mut failed = Vec::new();
    let mut retried_ok = 0usize;
    for t in 0..n {
        if cone[t] {
            for &s in oracle.succs(t) {
                cone[s] = true;
            }
            continue;
        }
        let t32 = t as u32;
        // No deadline armed in this suite: injected delays are
        // deterministically downgraded to panics (FaultPlan::effective).
        let fails_all = (1..=max_attempts).all(|a| plan.effective(t32, a, false).is_some());
        if fails_all {
            failed.push(t32);
            for &s in oracle.succs(t) {
                cone[s] = true;
            }
        } else if plan.effective(t32, 1, false).is_some() {
            retried_ok += 1;
        }
    }
    let poisoned = (0..n).filter(|&t| cone[t]).map(|t| t as u32).collect();
    (failed, poisoned, retried_ok)
}

fn chaos_cfg(threads: usize, rate_ppm: u32, fault_seed: u64, policy: FailurePolicy) -> ExecConfig {
    ExecConfig {
        threads,
        payload: PayloadMode::Faulty { rate_ppm, seed: fault_seed },
        policy,
        // Validated explicitly below so violations become prop_asserts
        // with context instead of an executor error.
        validate: false,
        ..ExecConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full matrix: seeds × {2,4,8} threads × rates × all three
    /// policies, against the independent oracle.
    #[test]
    fn chaos_runs_match_the_recomputed_failure_sets(
        fault_seed_raw in 0u32..10_000,
        thread_sel in 0u8..3,
        rate_sel in 0u8..3,
        policy_sel in 0u8..3,
        bench_sel in 0u8..9,
    ) {
        let fault_seed = fault_seed_raw as u64;
        let threads = [2usize, 4, 8][thread_sel as usize];
        let rate_ppm = [50_000u32, 200_000, 500_000][rate_sel as usize];
        let policy = [
            FailurePolicy::FailFast,
            FailurePolicy::Retry { max_attempts: 3, backoff: std::time::Duration::ZERO },
            FailurePolicy::Quarantine,
        ][policy_sel as usize];
        let bench = Benchmark::all()[bench_sel as usize];
        let trace = bench.trace(Scale::Small, 11);
        let oracle = DepGraph::from_trace(&trace);
        let (exp_failed, exp_poisoned, exp_retried) =
            expected_failure_sets(&trace, &oracle, rate_ppm, fault_seed, policy);

        let result = Executor::new(chaos_cfg(threads, rate_ppm, fault_seed, policy)).run(&trace);

        if policy == FailurePolicy::FailFast {
            // Fail-fast aborts at the first failure: with any expected
            // failure the run must error on a task whose first roll the
            // hash says fails; with none it must be a clean report.
            match result {
                Ok(report) => {
                    prop_assert!(exp_failed.is_empty(),
                        "{bench}: expected failures {exp_failed:?} but the run succeeded");
                    prop_assert!(!report.fault.any());
                    prop_assert!(report.accounting_reconciles());
                    prop_assert!(oracle.validate_order(&report.order).is_ok());
                }
                Err(ExecError::TaskFailed(ft)) => {
                    prop_assert!(
                        FaultPlan { rate_ppm, seed: fault_seed, kill_at_ticket: None }
                            .effective(ft.task, 1, false)
                            .is_some(),
                        "{bench}: fail-fast surfaced task {} which the hash says succeeds",
                        ft.task
                    );
                }
                Err(e) => prop_assert!(false, "{bench}: unexpected error {e}"),
            }
            return Ok(());
        }

        let report = result.expect("retry/quarantine runs complete");
        let got_failed: Vec<u32> = report.fault.failed.iter().map(|f| f.task).collect();
        prop_assert_eq!(&got_failed, &exp_failed,
            "{} at {} threads rate {} seed {}: failed set diverges",
            bench, threads, rate_ppm, fault_seed);
        prop_assert_eq!(&report.fault.poisoned, &exp_poisoned,
            "{} at {} threads rate {} seed {}: poison cone diverges from DepGraph reachability",
            bench, threads, rate_ppm, fault_seed);
        if matches!(policy, FailurePolicy::Retry { .. }) {
            prop_assert_eq!(report.fault.retried_ok, exp_retried);
        }
        prop_assert!(report.accounting_reconciles(),
            "completed {} + failed {} + poisoned {} != tasks {}",
            report.completed(), report.fault.failed.len(),
            report.fault.poisoned.len(), report.tasks);
        // The completion log (which includes failed/poisoned tickets)
        // must still linearize the dependency oracle.
        prop_assert!(oracle.validate_order(&report.order).is_ok(),
            "{}: chaos completion log violates the oracle", bench);
        prop_assert_eq!(report.order.len(), trace.len());
    }
}

/// The renamer's `poison_cone` (what the executor propagates through)
/// and the `DepGraph` BFS (what this suite recomputes) are the same
/// closure on every benchmark — pinning that the two edge sets agree
/// on *reachability*, not just edge counts.
#[test]
fn renamer_poison_cone_matches_depgraph_reachability() {
    for bench in Benchmark::all() {
        let trace = bench.trace(Scale::Small, 5);
        let oracle = DepGraph::from_trace(&trace);
        let graph = Renamer::new().decode(&trace);
        // Seed a failure at every 7th task and compare closures.
        let failed: Vec<bool> = (0..trace.len()).map(|t| t % 7 == 3).collect();
        let cone = graph.poison_cone(&failed);
        let mut expect = vec![false; trace.len()];
        for t in 0..trace.len() {
            if failed[t] || expect[t] {
                for &s in oracle.succs(t) {
                    expect[s] = true;
                }
            }
        }
        assert_eq!(cone, expect, "{bench}: renamer cone != oracle reachability");
    }
}

/// One worker, same seed ⇒ the failure outcome is a pure function of
/// the inputs: failed set, poisoned set, retry accounting. (The
/// completion log itself may vary: decode races execution even with
/// one worker, `streaming.rs`.)
#[test]
fn single_worker_chaos_accounting_is_deterministic() {
    let policy = FailurePolicy::Retry { max_attempts: 2, backoff: std::time::Duration::ZERO };
    for fault_seed in 0..16u64 {
        let trace = Benchmark::Cholesky.trace(Scale::Small, 11);
        let run = || {
            Executor::new(ExecConfig {
                threads: 1,
                payload: PayloadMode::Faulty { rate_ppm: 300_000, seed: fault_seed },
                policy,
                ..ExecConfig::default()
            })
            .run(&trace)
            .expect("single-worker chaos run")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.fault, b.fault, "seed {fault_seed}: failure accounting drifted");
    }
}

/// Failure sets are thread-count invariant (the interleaving is not):
/// the same seed at 1, 2, and 8 workers quarantines the same tasks.
#[test]
fn failure_sets_are_thread_count_invariant() {
    let trace = Benchmark::Stap.trace(Scale::Small, 11);
    let sets: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let r = Executor::new(chaos_cfg(threads, 200_000, 9, FailurePolicy::Quarantine))
                .run(&trace)
                .expect("quarantine run");
            let failed: Vec<u32> = r.fault.failed.iter().map(|f| f.task).collect();
            (failed, r.fault.poisoned)
        })
        .collect();
    assert_eq!(sets[0], sets[1], "1 vs 2 workers disagree on the failure sets");
    assert_eq!(sets[0], sets[2], "1 vs 8 workers disagree on the failure sets");
}

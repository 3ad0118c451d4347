//! Exec-layer parity: every fan-out that runs on the shared execution
//! layer — PALID's mappers — must produce byte-identical output for
//! every worker count, and the sequential paths (batch peeling and
//! the streaming sweep) must not see the worker count at all: same
//! clusters, same cost counters. Parallelism in this workspace buys
//! wall-clock time only — never a different answer. The matrix builds
//! and the baselines have one sequential implementation each, so they
//! have nothing to compare.
//!
//! Each case computes its 1-worker baseline once and sweeps the
//! multi-worker counts `{2, 4, 8}` against it; CI sets
//! `ALID_TEST_WORKERS=<n>` (a count outside that set) to run the whole
//! suite a second time with an extra worker count, so regressions that
//! only bite off the single-CPU path cannot slip in silently.

use alid::affinity::CostSnapshot;
use alid::data::sift::{sift, SiftConfig};
use alid::prelude::*;

/// Multi-worker counts every parity case sweeps against its 1-worker
/// baseline: `{2, 4, 8}` plus an optional `ALID_TEST_WORKERS` extra
/// from the environment (1 itself would only compare the baseline with
/// itself, so it is not in the sweep).
fn parity_workers() -> Vec<usize> {
    let mut counts = vec![2usize, 4, 8];
    if let Ok(v) = std::env::var("ALID_TEST_WORKERS") {
        let extra: usize = v.parse().expect("ALID_TEST_WORKERS must be a positive integer");
        assert!(extra >= 1, "ALID_TEST_WORKERS must be at least 1");
        if !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

fn workload() -> (alid::data::LabeledDataset, AlidParams) {
    let ds = sift(&SiftConfig { words: 4, word_size: 25, noise: 150, seed: 23 });
    let kernel = ds.suggested_kernel(0.9, 0.35);
    let mut params = AlidParams::new(kernel);
    params.first_roi_radius = kernel.distance_at(0.5);
    (ds, params)
}

#[test]
fn palid_clustering_is_byte_identical_across_executor_counts() {
    let (ds, params) = workload();
    let one =
        palid_detect(&ds.data, &params, &PalidParams::with_executors(1), &CostModel::shared());
    for executors in parity_workers() {
        let many = palid_detect(
            &ds.data,
            &params,
            &PalidParams::with_executors(executors),
            &CostModel::shared(),
        );
        assert_eq!(one.n, many.n);
        assert_eq!(one.clusters.len(), many.clusters.len(), "{executors} executors");
        for (a, b) in one.clusters.iter().zip(&many.clusters) {
            assert_eq!(a.members, b.members, "{executors} executors changed members");
            // Bit-for-bit: the mappers run the identical float program
            // per seed regardless of scheduling.
            let aw: Vec<u64> = a.weights.iter().map(|w| w.to_bits()).collect();
            let bw: Vec<u64> = b.weights.iter().map(|w| w.to_bits()).collect();
            assert_eq!(aw, bw, "{executors} executors changed weights");
            assert_eq!(
                a.density.to_bits(),
                b.density.to_bits(),
                "{executors} executors changed density"
            );
        }
    }
}

/// Peeling runs one seed at a time whatever the policy, so the worker
/// count changes neither the clusters nor the work the cost model
/// records: kernel evaluations, peak matrix entries and aux bytes.
#[test]
fn peeling_output_and_cost_are_identical_across_worker_counts_on_sift() {
    let (ds, params) = workload();
    let cost = CostModel::shared();
    let sequential = Peeler::new(&ds.data, params, std::sync::Arc::clone(&cost)).detect_all();
    let sequential_cost = cost.snapshot();
    for workers in parity_workers() {
        let p = params.with_exec(ExecPolicy::workers(workers));
        let cost = CostModel::shared();
        let parallel = Peeler::new(&ds.data, p, std::sync::Arc::clone(&cost)).detect_all();
        assert_eq!(
            sequential.clusters.len(),
            parallel.clusters.len(),
            "{workers} workers changed the cluster count"
        );
        for (a, b) in sequential.clusters.iter().zip(&parallel.clusters) {
            assert_eq!(a.members, b.members, "{workers} workers changed members");
            let aw: Vec<u64> = a.weights.iter().map(|w| w.to_bits()).collect();
            let bw: Vec<u64> = b.weights.iter().map(|w| w.to_bits()).collect();
            assert_eq!(aw, bw, "{workers} workers changed weights");
            assert_eq!(a.density.to_bits(), b.density.to_bits());
        }
        assert_eq!(cost.snapshot(), sequential_cost, "{workers} workers changed the cost");
    }
}

#[test]
fn exec_policy_auto_reports_at_least_one_worker() {
    assert!(ExecPolicy::auto().worker_count() >= 1);
    assert!(ExecPolicy::default().is_sequential());
    assert_eq!(ExecPolicy::auto_or(Some(3)).worker_count(), 3);
    assert_eq!(ExecPolicy::auto_or(None), ExecPolicy::auto());
}

/// Replays the same arrival sequence through `StreamingAlid` under a
/// given policy, returning the stream and the work its cost model
/// recorded.
fn run_stream(params: AlidParams, workers: usize) -> (StreamingAlid, CostSnapshot) {
    let p = params.with_exec(ExecPolicy::workers(workers));
    let (ds, _) = workload();
    let cost = CostModel::shared();
    let mut s = StreamingAlid::new(ds.data.dim(), p, 16, std::sync::Arc::clone(&cost));
    for i in 0..ds.data.len().min(220) {
        s.push(ds.data.get(i));
    }
    s.sweep();
    (s, cost.snapshot())
}

/// Sweeps peel one seed at a time, so the mid-stream and final states
/// and the recorded work are the same for every worker count.
#[test]
fn streaming_output_and_cost_are_identical_across_worker_counts() {
    let (_, params) = workload();
    let (seq, seq_cost) = run_stream(params, 1);
    for workers in parity_workers() {
        let (par, par_cost) = run_stream(params, workers);
        assert_eq!(par.pending(), seq.pending(), "{workers} workers changed the buffer");
        assert_eq!(par.assignments(), seq.assignments(), "{workers} workers");
        assert_eq!(par.clusters().len(), seq.clusters().len(), "{workers} workers");
        for (a, b) in seq.clusters().iter().zip(par.clusters()) {
            assert_eq!(a.members, b.members, "{workers} workers changed members");
            let aw: Vec<u64> = a.weights.iter().map(|w| w.to_bits()).collect();
            let bw: Vec<u64> = b.weights.iter().map(|w| w.to_bits()).collect();
            assert_eq!(aw, bw, "{workers} workers changed weights");
            assert_eq!(a.density.to_bits(), b.density.to_bits(), "{workers} workers");
        }
        assert_eq!(par_cost, seq_cost, "{workers} workers changed the cost");
    }
}

#[test]
fn streaming_aux_bytes_match_recomputed_ground_truth_after_1k_inserts() {
    let (ds, mut params) = workload();
    params.lsh.tables = 6;
    params.lsh.projections = 4;
    let cost = CostModel::shared();
    let mut s = StreamingAlid::new(ds.data.dim(), params, 64, std::sync::Arc::clone(&cost));
    let n = 1000;
    for i in 0..n {
        s.push(ds.data.get(i % ds.data.len()));
    }
    s.sweep();
    s.sweep();
    // Ground truth for the Section 4.3 hash-table memory: the index
    // started empty (0 bytes at build) and each of the n ingested items
    // holds one u32 bucket id per table plus one tombstone byte —
    // forever, because tombstoning (sweeps included) never evicts ids
    // from the bucket lists. Sweeps must not drift the counter.
    let per_insert = (params.lsh.tables * 4 + 1) as u64;
    assert_eq!(cost.snapshot().aux_bytes, n as u64 * per_insert);
}

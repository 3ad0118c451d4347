//! `batch-peel`: `Peeler::new` + `detect_all` over the large-cluster
//! regime, where CIVS retrieval over tombstoned LSH buckets dominates.
//! No HTTP, sweep, journal or snapshot code runs.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use alid_affinity::clustering::Clustering;
use alid_affinity::cost::CostModel;
use alid_core::Peeler;
use alid_exec::ExecPolicy;
use alid_lsh::LshIndex;
use alid_obs::trace::span;

use crate::layers::{dropped_events, rss_peak_mib, ExecCounters, Spans};
use crate::workload::{generate, Regime, Workload};
use crate::{mean, median, now, quantile, since, Report};

/// Items in each data set.
pub const ITEMS: usize = 6_000;
/// Data sets per run, generated from the seed and peeled in turn, so a
/// run's medians average over data sets rather than hang on one.
const DATA_SETS: u64 = 3;
/// Extra `Peeler::new` set-ups timed before each pass, so the set-up
/// median spans the whole run rather than one moment of it.
const SETUPS_PER_PASS: usize = 2;
/// The traced drive probes the LSH index every this many detections...
const PROBE_EVERY: usize = 16;
/// ...with up to this many members of the cluster just peeled.
const PROBE_MEMBERS: usize = 8;

pub fn run(seed: u64, seconds: f64, trace: bool, exec: ExecPolicy) -> Report {
    let data_sets: Vec<Workload> = (0..DATA_SETS)
        .map(|j| generate(Regime::Large, ITEMS, seed * DATA_SETS + j, exec))
        .collect();
    let mut r = Report::default();
    if trace {
        traced(&data_sets[0], &mut r);
    } else {
        timed(&data_sets, seconds, &mut r);
    }
    r
}

fn avg_f1(w: &Workload, clustering: &Clustering) -> f64 {
    let dominant = clustering.dominant(w.params.density_threshold, w.params.min_cluster_size);
    alid_data::metrics::avg_f1(&w.truth, &dominant)
}

/// A sequential `next_cluster` drive to exhaustion.
fn drive(w: &Workload) -> Clustering {
    let mut peeler = Peeler::new(&w.data, w.params, CostModel::shared());
    let mut clustering = Clustering::new(w.data.len());
    while let Some(cluster) = peeler.next_cluster() {
        clustering.clusters.push(cluster);
    }
    clustering
}

/// Rounds of one pass per data set until `seconds` have elapsed. A
/// pass is one batch job, `Peeler::new` (set-up) then `detect_all`: the
/// job is the write, so its latency is the ingest latency, and with
/// nothing persisted, recovery is re-running it.
fn timed(data_sets: &[Workload], seconds: f64, r: &mut Report) {
    let n = ITEMS as f64;
    let (mut setup, mut detect, mut jobs) = (vec![], vec![], vec![]);
    let (mut f1, mut peak_mib, mut evals, mut detections) = (vec![], vec![], vec![], vec![]);
    let mut firsts: Vec<Option<Clustering>> = vec![None; data_sets.len()];
    let start = now();
    while firsts.iter().any(Option::is_none) || since(start) < seconds {
        for (w, first) in data_sets.iter().zip(&mut firsts) {
            for _ in 0..SETUPS_PER_PASS {
                let t = now();
                black_box(Peeler::new(&w.data, w.params, CostModel::shared()));
                setup.push(since(t));
            }
            let cost = CostModel::shared();
            let t = now();
            let peeler = Peeler::new(&w.data, w.params, Arc::clone(&cost));
            let s = since(t);
            let t = now();
            let (clustering, stats) = peeler.detect_all_with_stats();
            let d = since(t);
            setup.push(s);
            detect.push(d);
            jobs.push(s + d);
            match first {
                None => {
                    let snap = cost.snapshot();
                    peak_mib.push(snap.peak_mib());
                    evals.push(snap.kernel_evals as f64 / n);
                    detections.push(stats.speculated as f64 / n);
                    f1.push(avg_f1(w, &clustering));
                    *first = Some(clustering);
                }
                Some(first) => r.check(*first == clustering, "detect_all is deterministic"),
            }
        }
    }
    let reference = firsts[0].as_ref().expect("a first pass");
    r.check(drive(&data_sets[0]) == *reference, "the next_cluster drive equals detect_all");
    println!(
        "detect_all {:.4}s  kernel evals/item {:.1}  detect calls/item {:.3}",
        median(&detect),
        median(&evals),
        median(&detections)
    );
    r.set("setup_s", median(&setup));
    r.set("detect_s", median(&detect));
    r.set("ingest_items_per_s", n / median(&detect));
    r.set("ingest_p50_ms", quantile(&jobs, 0.50) * 1e3);
    r.set("ingest_p99_ms", quantile(&jobs, 0.99) * 1e3);
    r.set("recover_s", median(&jobs));
    r.set("avg_f1", mean(&f1));
    r.set("peak_mib", mean(&peak_mib));
}

/// One untraced `detect_all` (the overhead baseline), then a traced
/// `detect_all` and a traced `next_cluster` drive that times LSH
/// queries on a mirror of the peeler's index.
fn traced(w: &Workload, r: &mut Report) {
    let n = w.data.len();
    let peeler = Peeler::new(&w.data, w.params, CostModel::shared());
    let t = now();
    let untraced = peeler.detect_all();
    let untraced_s = since(t);

    let spans = Spans::start();
    let cost = CostModel::shared();
    let peeler = {
        let _s = span("bench.lsh.build");
        Peeler::new(&w.data, w.params, Arc::clone(&cost))
    };
    let exec = ExecCounters::read();
    let t = now();
    let (clustering, stats) = {
        let _s = span("bench.peel.detect_all");
        peeler.detect_all_with_stats()
    };
    let traced_s = since(t);
    exec.report_since(&mut r.metrics);

    // The peeler's index is private, so queries are timed on a mirror
    // that receives the same removals (the seed of each detection is
    // the lowest item not yet peeled). The mirror never compacts, so
    // dead bucket entries stay where later queries scan them.
    let mut mirror = LshIndex::build(&w.data, w.params.lsh, &CostModel::shared());
    let mut peeled = vec![false; n];
    let mut lowest = 0usize;
    let mut peeler = {
        let _s = span("bench.lsh.build");
        Peeler::new(&w.data, w.params, CostModel::shared())
    };
    let mut driven = Clustering::new(n);
    let (mut queries, mut hits) = (0usize, 0usize);
    let mut out = Vec::new();
    loop {
        let cluster = {
            let _s = span("bench.alid.detect");
            peeler.next_cluster()
        };
        let Some(cluster) = cluster else { break };
        while lowest < n && peeled[lowest] {
            lowest += 1;
        }
        let seed_id = lowest as u32;
        for &id in std::iter::once(&seed_id).chain(&cluster.members) {
            if !peeled[id as usize] {
                peeled[id as usize] = true;
                mirror.remove(id);
            }
        }
        if driven.clusters.len().is_multiple_of(PROBE_EVERY) {
            for &id in cluster.members.iter().chain(std::iter::once(&seed_id)).take(PROBE_MEMBERS) {
                out.clear();
                {
                    let _s = span("bench.lsh.query");
                    mirror.query_into(w.data.get(id as usize), &mut out);
                }
                queries += 1;
                hits += out.len();
            }
        }
        driven.clusters.push(cluster);
    }
    let spans = spans.finish();

    r.check(driven == clustering, "the traced next_cluster drive equals detect_all");
    r.check(untraced == clustering, "tracing leaves detect_all unchanged");
    let dropped = dropped_events();
    r.check(dropped == 0.0, "the trace ring dropped no events");

    let detect_us: Vec<f64> =
        spans.durations("bench.alid.detect").iter().map(|s| s * 1e6).collect();
    let m = &mut r.metrics;
    m.insert("lsh.build_s", median(&spans.durations("bench.lsh.build")));
    m.insert("lsh.query_us", mean(&spans.durations("bench.lsh.query")) * 1e6);
    m.insert("lsh.hits_per_query", hits as f64 / queries.max(1) as f64);
    m.insert("alid.detect_calls", detect_us.len() as f64);
    m.insert("alid.detect_us.p50", quantile(&detect_us, 0.50));
    m.insert("alid.detect_us.p99", quantile(&detect_us, 0.99));
    m.insert("alid.detect_calls_per_item", stats.speculated as f64 / n as f64);
    m.insert("peel.rounds", stats.rounds.len() as f64);
    m.insert("peel.wasted_share", stats.wasted() as f64 / stats.speculated.max(1) as f64);
    m.insert("affinity.kernel_evals_per_item", cost.snapshot().kernel_evals as f64 / n as f64);
    m.insert("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
    m.insert("trace.dropped_events", dropped);
    m.insert("process.rss_peak_mib", rss_peak_mib());
    spans.self_times(m);
    spans.write(Path::new(".perfbench-out/trace-batch-peel.jsonl"));
}

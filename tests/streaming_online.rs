//! Online-extension integration: the streaming driver consuming the
//! timestamped burst scenarios must recover the bursts that the batch
//! detector recovers on the same data.

use alid::core::streaming::StreamingAlid;
use alid::data::metrics::avg_f1;
use alid::data::stream::{generate_stream, Burst, StreamConfig};
use alid::prelude::*;
use std::sync::Arc;

fn params_for(scale: f64, seed: u64) -> AlidParams {
    let kernel = LaplacianKernel::calibrate(scale, 0.9, alid::affinity::kernel::LpNorm::L2);
    let mut p = AlidParams::new(kernel);
    p.first_roi_radius = kernel.distance_at(0.5);
    p.density_threshold = 0.75;
    p.min_cluster_size = 4;
    p.lsh.seed = seed;
    p
}

#[test]
fn streaming_matches_batch_on_burst_scenarios() {
    let sc = generate_stream(&StreamConfig::two_bursts(13));
    let params = params_for(sc.scale, 1);

    // Batch detection over the full stream.
    let batch =
        Peeler::new(&sc.data, params, Arc::new(CostModel::new())).detect_all().dominant(0.75, 4);
    let batch_f = avg_f1(&sc.truth, &batch);

    // Streaming ingestion, then a final sweep for the tail.
    let mut online = StreamingAlid::new(sc.data.dim(), params, 16, CostModel::shared());
    for row in sc.data.iter() {
        online.push(row);
    }
    online.sweep();
    let stream_f = avg_f1(&sc.truth, &online.snapshot().dominant(0.75, 4));

    assert!(batch_f > 0.95, "batch AVG-F {batch_f}");
    assert!(stream_f > 0.9, "streaming AVG-F {stream_f}");
    assert!((batch_f - stream_f).abs() < 0.1, "batch {batch_f} vs stream {stream_f}");
}

#[test]
fn clusters_are_detected_within_their_burst_window() {
    // The second burst must not be detectable before it arrives.
    let sc = generate_stream(&StreamConfig {
        dim: 12,
        total: 100,
        bursts: vec![
            Burst { start: 10, size: 10, spacing: 1 },
            Burst { start: 60, size: 10, spacing: 1 },
        ],
        jitter: 0.04,
        noise_span: 20.0,
        seed: 17,
    });
    let params = params_for(sc.scale, 2);
    let mut online = StreamingAlid::new(sc.data.dim(), params, 10, CostModel::shared());
    let mut clusters_at_t = Vec::with_capacity(sc.data.len());
    for row in sc.data.iter() {
        online.push(row);
        clusters_at_t.push(online.clusters().len());
    }
    online.sweep();
    // Nothing before the first burst completes.
    assert_eq!(clusters_at_t[9], 0, "no cluster before burst 1 data exists");
    // One cluster known well before burst 2 starts.
    assert!(clusters_at_t[55] >= 1, "burst 1 must be promoted by t=55, got {}", clusters_at_t[55]);
    // Both by the end.
    assert!(online.clusters().len() >= 2, "both bursts by the end");
}

#[test]
fn attachment_keeps_assignments_consistent() {
    // Inputs are (label, stream, kernel scale factor, LSH seed, sweep
    // period): a short stream swept every 12 arrivals...
    let short = generate_stream(&StreamConfig::two_bursts(29));
    let mut inputs = vec![("two bursts".to_string(), short, 1.0, 3, 12)];
    // ...and large-cluster streams swept once over the whole window,
    // where a dominant detection can immunize its own seed away.
    let n = 1200;
    for seed in [0, 2] {
        let bursts = [n / 10, n / 2, n * 7 / 10]
            .map(|start| Burst { start, size: n / 6, spacing: 1 })
            .to_vec();
        let cfg = StreamConfig { dim: 8, total: n, bursts, jitter: 0.05, noise_span: 25.0, seed };
        inputs.push((format!("large window, seed {seed}"), generate_stream(&cfg), 2.0, 11, n));
    }
    for (label, sc, widen, lsh_seed, batch) in inputs {
        let params = params_for(sc.scale * widen, lsh_seed);
        let mut online = StreamingAlid::new(sc.data.dim(), params, batch, CostModel::shared());
        for row in sc.data.iter() {
            online.push(row);
        }
        assert_consistent(&online, &format!("{label}, after the pushes"));
        online.sweep();
        assert_consistent(&online, &format!("{label}, after a final sweep"));
    }
}

fn assert_consistent(online: &StreamingAlid, at: &str) {
    // Every assignment points to a cluster that really contains the item.
    for (i, a) in online.assignments().iter().enumerate() {
        if let Some(c) = a {
            assert!(
                online.clusters()[*c].members.contains(&(i as u32)),
                "{at}: assignment of {i} inconsistent"
            );
        }
    }
    // Every item is assigned or pending, never both: the pending buffer
    // is exactly the unassigned items.
    let unassigned: Vec<u32> = online
        .assignments()
        .iter()
        .enumerate()
        .filter(|(_, a)| a.is_none())
        .map(|(i, _)| i as u32)
        .collect();
    assert_eq!(online.pending(), unassigned.as_slice(), "{at}");
}

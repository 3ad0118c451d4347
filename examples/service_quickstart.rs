//! The sharded serving layer, in process: admit a bursty stream
//! through the bounded queues, watch backpressure and promotion
//! happen, query the cross-shard top-k, then snapshot and restore.
//!
//! ```text
//! cargo run --release --example service_quickstart
//! ```
//!
//! The same flow is available over HTTP — `alid serve --dim 4 --scale
//! 0.1 --shards 2` and curl the endpoints (see the README quickstart).

use std::sync::Arc;

use alid::prelude::*;
use alid::service::{restore, snapshot_bytes};

fn main() {
    // Three "topics" far apart in a 4-d feature space, plus noise.
    let topics = [[30.0, 0.0, 0.0, 5.0], [0.0, 30.0, 5.0, 0.0], [-20.0, -20.0, 10.0, 0.0]];
    let item = |t: usize, j: usize| -> Vec<f64> {
        topics[t].iter().map(|&c| c + (j % 5) as f64 * 0.02).collect()
    };
    let noise = |i: usize| -> Vec<f64> {
        (0..4).map(|d| ((i * 37 + d * 101) % 997) as f64 - 500.0).collect()
    };

    let kernel = LaplacianKernel::calibrate(0.2, 0.9, alid::affinity::kernel::LpNorm::L2);
    let mut params = AlidParams::new(kernel);
    params.first_roi_radius = kernel.distance_at(0.5);
    params.density_threshold = 0.75;
    params.min_cluster_size = 4;

    let cfg = ServiceConfig::new(4, 2, params).with_batch(16).with_exec(ExecPolicy::auto());
    let service = Arc::new(Service::new(cfg));

    // A deterministic interleaved stream: topic bursts + noise.
    for i in 0..120 {
        let v = match i % 4 {
            3 => noise(i),
            t => item(t, i),
        };
        match service.ingest(&v) {
            Admission::Enqueued { id, shard, .. } => {
                if id % 30 == 0 {
                    println!("item {id} routed to shard {shard}");
                }
            }
            Admission::Busy { shard, depth } => {
                println!("shard {shard} backpressured at depth {depth}; draining");
                service.drain();
            }
        }
        // A real deployment drains on its own cadence; here: every
        // few arrivals.
        if i % 8 == 7 {
            let report = service.drain();
            if report.promoted > 0 {
                println!("t={i:>3} sweep promoted {} new cluster(s)", report.promoted);
            }
        }
    }
    service.drain();
    service.sweep();

    println!("\ntop clusters across {} shards:", service.shard_count());
    for s in service.top_k(5) {
        println!(
            "  shard {} cluster {}: {} items, density {:.3}",
            s.cluster.shard, s.cluster.cluster, s.size, s.density
        );
    }

    // Persist, restore, and prove the restore serves the same answers.
    let bytes = snapshot_bytes(&service);
    let restored = restore(&bytes, ExecPolicy::auto()).expect("snapshot restores");
    println!("\nsnapshot: {} bytes; restored {} items", bytes.len(), restored.len());
    assert_eq!(service.len(), restored.len());
    let (a, b) = (service.top_k(5), restored.top_k(5));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cluster, y.cluster);
        assert_eq!(x.density.to_bits(), y.density.to_bits(), "restore is bit-exact");
    }
    println!("restored service answers the same top-k, bit for bit");
}

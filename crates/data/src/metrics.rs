//! The evaluation protocol of Section 5: the Average F1 score (AVG-F).
//!
//! AVG-F averages, over every *true* dominant cluster, the best F1 score
//! any detected cluster achieves against it (the criterion of Chen &
//! Saad that the paper adopts; entropy/NMI are inappropriate because the
//! data are only partially clustered). A higher score means detected
//! clusters deviate less from the truth.

use alid_affinity::clustering::Clustering;

use crate::groundtruth::GroundTruth;

/// `|a ∩ b|` for ascending-sorted id slices.
fn intersection_size(a: &[u32], b: &[u32]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// F1 between one true cluster and one detected cluster (both sorted).
pub fn f1(truth: &[u32], detected: &[u32]) -> f64 {
    if truth.is_empty() || detected.is_empty() {
        return 0.0;
    }
    let inter = intersection_size(truth, detected) as f64;
    if inter == 0.0 {
        return 0.0;
    }
    2.0 * inter / (truth.len() + detected.len()) as f64
}

/// The AVG-F score: mean over true clusters of the best F1 any detected
/// cluster achieves. Returns 0 when the ground truth has no clusters.
pub fn avg_f1(truth: &GroundTruth, clustering: &Clustering) -> f64 {
    let gt = truth.clusters();
    if gt.is_empty() {
        return 0.0;
    }
    let total: f64 = gt
        .iter()
        .map(|t| clustering.clusters.iter().map(|d| f1(t, &d.members)).fold(0.0f64, f64::max))
        .sum();
    total / gt.len() as f64
}

/// Corpus-level precision and recall of the clustered items against the
/// positive (ground-truth) items: precision = clustered ∩ positive /
/// clustered, recall = clustered ∩ positive / positive. Used for the
/// qualitative visual-word experiment (Fig. 10), where "green points"
/// are true positives and "red points" filtered noise.
pub fn precision_recall(truth: &GroundTruth, clustering: &Clustering) -> (f64, f64) {
    let labels = truth.labels();
    let mut clustered = 0usize;
    let mut hit = 0usize;
    let mut item_seen = vec![false; truth.n()];
    for c in &clustering.clusters {
        for &m in &c.members {
            if !item_seen[m as usize] {
                item_seen[m as usize] = true;
                clustered += 1;
                if labels[m as usize].is_some() {
                    hit += 1;
                }
            }
        }
    }
    let positives = truth.positive_count();
    let precision = if clustered == 0 { 0.0 } else { hit as f64 / clustered as f64 };
    let recall = if positives == 0 { 0.0 } else { hit as f64 / positives as f64 };
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alid_affinity::clustering::DetectedCluster;

    fn clustering(n: usize, sets: Vec<Vec<u32>>) -> Clustering {
        let mut c = Clustering::new(n);
        for (i, members) in sets.into_iter().enumerate() {
            c.clusters.push(DetectedCluster::uniform(members, 0.9 - i as f64 * 0.01));
        }
        c
    }

    #[test]
    fn perfect_detection_scores_one() {
        let gt = GroundTruth::new(8, vec![vec![0, 1, 2], vec![4, 5]]);
        let det = clustering(8, vec![vec![0, 1, 2], vec![4, 5]]);
        assert!((avg_f1(&gt, &det) - 1.0).abs() < 1e-12);
        let (p, r) = precision_recall(&gt, &det);
        assert_eq!((p, r), (1.0, 1.0));
    }

    #[test]
    fn missing_cluster_halves_the_score() {
        let gt = GroundTruth::new(8, vec![vec![0, 1, 2], vec![4, 5]]);
        let det = clustering(8, vec![vec![0, 1, 2]]);
        assert!((avg_f1(&gt, &det) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn f1_matches_hand_computation() {
        // truth {0,1,2,3}, detected {2,3,4}: inter 2, F1 = 2*2/(4+3).
        assert!((f1(&[0, 1, 2, 3], &[2, 3, 4]) - 4.0 / 7.0).abs() < 1e-12);
        assert_eq!(f1(&[], &[1]), 0.0);
        assert_eq!(f1(&[1], &[]), 0.0);
        assert_eq!(f1(&[1, 2], &[3, 4]), 0.0);
    }

    #[test]
    fn best_match_is_taken_per_true_cluster() {
        let gt = GroundTruth::new(8, vec![vec![0, 1, 2, 3]]);
        // Two candidates: a sloppy superset and a tight subset.
        let det = clustering(8, vec![vec![0, 1, 2, 3, 4, 5, 6, 7], vec![0, 1, 2]]);
        let superset = f1(&[0, 1, 2, 3], &[0, 1, 2, 3, 4, 5, 6, 7]);
        let subset = f1(&[0, 1, 2, 3], &[0, 1, 2]);
        assert!((avg_f1(&gt, &det) - superset.max(subset)).abs() < 1e-12);
    }

    #[test]
    fn noise_only_detection_scores_zero() {
        let gt = GroundTruth::new(8, vec![vec![0, 1]]);
        let det = clustering(8, vec![vec![5, 6, 7]]);
        assert_eq!(avg_f1(&gt, &det), 0.0);
        let (p, r) = precision_recall(&gt, &det);
        assert_eq!((p, r), (0.0, 0.0));
    }

    #[test]
    fn precision_recall_counts_overlaps_once() {
        let gt = GroundTruth::new(6, vec![vec![0, 1, 2, 3]]);
        // Item 1 claimed by both clusters; item 5 is noise.
        let det = clustering(6, vec![vec![0, 1], vec![1, 2, 5]]);
        let (p, r) = precision_recall(&gt, &det);
        assert!((p - 3.0 / 4.0).abs() < 1e-12); // {0,1,2} of {0,1,2,5}
        assert!((r - 3.0 / 4.0).abs() < 1e-12); // {0,1,2} of {0,1,2,3}
    }

    #[test]
    fn empty_ground_truth_scores_zero() {
        let gt = GroundTruth::new(3, vec![]);
        let det = clustering(3, vec![vec![0]]);
        assert_eq!(avg_f1(&gt, &det), 0.0);
    }
}

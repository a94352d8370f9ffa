//! Average Precision and mAP@0.5.
//!
//! [`MapAccumulator`] scores a stream frame by frame: each frame is matched
//! once, its per-frame mAP comes back at once, and only one
//! `(confidence, is_tp)` pair per detection is kept for the pooled mAP.
//! [`map_at_05`], [`frame_map_at_05`] and [`average_iou`] are thin
//! wrappers over it for callers that already hold whole frames.

use crate::matching::{match_detections, MatchResult};
use shoggoth_models::Detection;
use shoggoth_video::GroundTruthObject;

/// The IoU a detection must reach to count as a true positive.
const IOU_THRESHOLD: f32 = 0.5;

/// A frame's detections paired with its ground truth, the unit of
/// evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameEval {
    /// The detector's output on the frame.
    pub detections: Vec<Detection>,
    /// The frame's ground-truth objects.
    pub ground_truth: Vec<GroundTruthObject>,
}

/// The pooled scores of every frame pushed into a [`MapAccumulator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PooledScores {
    /// mAP@0.5 over all frames (see [`map_at_05`]).
    pub map50: f64,
    /// Mean matched IoU over all frames (see [`average_iou`]).
    pub average_iou: f64,
}

/// Streaming mAP@0.5 and average-IoU evaluator.
///
/// Uses VOC-2010-style all-point interpolation: detections of each class
/// are pooled across frames, ranked by confidence, matched greedily within
/// their frame, and AP is the area under the interpolated precision-recall
/// curve. Classes with no ground truth anywhere are skipped (not counted as
/// zero), matching common practice.
///
/// Each [`push`](Self::push) runs one [`match_detections`] over all
/// classes. That matcher only pairs a detection with ground truth of its
/// own class and ranks detections with a stable sort, so every class sees
/// exactly the assignments a per-class match would give. The accumulator
/// keeps 8 bytes per detection of a class below `num_classes` and no
/// frame: the pooled result equals [`map_at_05`] over the same frames to
/// the last bit.
///
/// # Examples
///
/// ```
/// use shoggoth_metrics::map::MapAccumulator;
/// use shoggoth_models::Detection;
/// use shoggoth_video::{BBox, GroundTruthObject};
///
/// let gt = GroundTruthObject { track_id: 0, class: 0, bbox: BBox::new(0.1, 0.1, 0.2, 0.2) };
/// let det = Detection { bbox: BBox::new(0.1, 0.1, 0.2, 0.2), class: 0, confidence: 0.9 };
/// let mut acc = MapAccumulator::new(1);
/// assert_eq!(acc.push(&[det], &[gt.clone()]), 1.0);
/// assert_eq!(acc.push(&[], &[gt]), 0.0);
/// assert_eq!(acc.finish().map50, 0.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MapAccumulator {
    /// Per class: `(confidence, is_tp)` of each detection, in frame then
    /// detection order.
    scored: Vec<Vec<(f32, bool)>>,
    /// Per class: ground-truth objects seen.
    class_gt: Vec<usize>,
    /// Sum of matched IoUs, added in frame then detection order.
    iou_sum: f64,
    /// Ground-truth objects seen, of every class.
    total_gt: usize,
    /// Scratch: one class's detections in the current frame, ranked.
    ranked: Vec<(f32, bool)>,
    /// Scratch: interpolated precision down a ranked list.
    precisions: Vec<f64>,
}

impl MapAccumulator {
    /// An empty accumulator over classes `0..num_classes`.
    pub fn new(num_classes: usize) -> Self {
        Self {
            scored: vec![Vec::new(); num_classes],
            class_gt: vec![0; num_classes],
            ..Self::default()
        }
    }

    /// Scores one frame and adds it to the pool. Returns the frame's own
    /// mAP@0.5, exactly [`frame_map_at_05`] of the frame.
    pub fn push(&mut self, detections: &[Detection], ground_truth: &[GroundTruthObject]) -> f64 {
        let result = self.record(detections, ground_truth);
        let mut ap_sum = 0.0;
        let mut classes_counted = 0;
        for class in 0..self.scored.len() {
            let gt = ground_truth.iter().filter(|g| g.class == class).count();
            if gt > 0 {
                self.ranked.clear();
                self.ranked.extend(
                    detections
                        .iter()
                        .zip(&result.assignments)
                        .filter(|(d, _)| d.class == class)
                        .map(|(d, assignment)| (d.confidence, assignment.is_some())),
                );
                rank(&mut self.ranked);
                ap_sum += average_precision(&self.ranked, gt, &mut self.precisions);
                classes_counted += 1;
            }
        }
        mean(ap_sum, classes_counted)
    }

    /// Adds one frame to the pool without scoring it on its own, and
    /// returns the frame's matching.
    fn record(
        &mut self,
        detections: &[Detection],
        ground_truth: &[GroundTruthObject],
    ) -> MatchResult {
        let result = match_detections(detections, ground_truth, IOU_THRESHOLD);
        for (det, assignment) in detections.iter().zip(&result.assignments) {
            if let Some((_, iou)) = assignment {
                self.iou_sum += *iou as f64;
            }
            if let Some(scored) = self.scored.get_mut(det.class) {
                scored.push((det.confidence, assignment.is_some()));
            }
        }
        for g in ground_truth {
            if let Some(count) = self.class_gt.get_mut(g.class) {
                *count += 1;
            }
        }
        self.total_gt += ground_truth.len();
        result
    }

    /// The pooled mAP@0.5 and average IoU of every frame pushed.
    pub fn finish(mut self) -> PooledScores {
        let mut ap_sum = 0.0;
        let mut classes_counted = 0;
        for (scored, &gt) in self.scored.iter_mut().zip(&self.class_gt) {
            if gt > 0 {
                rank(scored);
                ap_sum += average_precision(scored, gt, &mut self.precisions);
                classes_counted += 1;
            }
        }
        PooledScores {
            map50: mean(ap_sum, classes_counted),
            average_iou: self.iou_sum / self.total_gt.max(1) as f64,
        }
    }
}

/// Ranks `(confidence, is_tp)` pairs by descending confidence. The sort is
/// stable, so ties keep frame then detection order.
fn rank(scored: &mut [(f32, bool)]) {
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
}

/// `sum / count`, or `0.0` when nothing was counted.
fn mean(sum: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Area under the all-point interpolated precision-recall curve of a
/// ranked list with `total_gt` ground-truth objects. `precisions` is
/// scratch space.
fn average_precision(ranked: &[(f32, bool)], total_gt: usize, precisions: &mut Vec<f64>) -> f64 {
    // Precision down the ranked list, then its running max from the right.
    precisions.clear();
    let mut tp = 0usize;
    for (i, &(_, is_tp)) in ranked.iter().enumerate() {
        tp += usize::from(is_tp);
        precisions.push(tp as f64 / (i + 1) as f64);
    }
    let mut max_from_right = 0.0f64;
    for p in precisions.iter_mut().rev() {
        max_from_right = max_from_right.max(*p);
        *p = max_from_right;
    }
    // Sum precision over each recall increment.
    let mut ap = 0.0;
    let mut prev_recall = 0.0;
    tp = 0;
    for (&(_, is_tp), p) in ranked.iter().zip(precisions.iter()) {
        tp += usize::from(is_tp);
        let recall = tp as f64 / total_gt as f64;
        ap += (recall - prev_recall) * p;
        prev_recall = recall;
    }
    ap
}

/// Mean Average Precision at IoU 0.5 over a set of frames, averaged over
/// the classes that appear in the ground truth (see [`MapAccumulator`]).
///
/// Returns `0.0` if no class has any ground truth.
pub fn map_at_05(frames: &[FrameEval], num_classes: usize) -> f64 {
    pool(frames, num_classes).map50
}

/// mAP@0.5 of a single frame (used for the paper's Fig. 5 per-frame CDF).
pub fn frame_map_at_05(frame: &FrameEval, num_classes: usize) -> f64 {
    MapAccumulator::new(num_classes).push(&frame.detections, &frame.ground_truth)
}

/// Mean IoU of matched true-positive detections over a set of frames —
/// Table III's "Average IoU" metric. Detections that fail to match
/// contribute zero, and frames with ground truth but no detections drag
/// the average down through their misses.
///
/// Concretely: `sum(matched IoUs) / max(total ground-truth objects, 1)`,
/// so both localization quality and recall are reflected.
pub fn average_iou(frames: &[FrameEval]) -> f64 {
    pool(frames, 0).average_iou
}

/// The pooled scores of whole frames, none scored on its own.
fn pool(frames: &[FrameEval], num_classes: usize) -> PooledScores {
    let mut acc = MapAccumulator::new(num_classes);
    for frame in frames {
        acc.record(&frame.detections, &frame.ground_truth);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use shoggoth_video::BBox;

    /// The per-class, whole-pool evaluator the accumulator replaced: one
    /// filtered match per class and frame, then one ranking per class.
    mod reference {
        use super::*;

        pub fn map_at_05(frames: &[FrameEval], num_classes: usize) -> f64 {
            let mut ap_sum = 0.0;
            let mut classes_counted = 0;
            for class in 0..num_classes {
                if let Some(ap) = average_precision(frames, class, 0.5) {
                    ap_sum += ap;
                    classes_counted += 1;
                }
            }
            if classes_counted == 0 {
                0.0
            } else {
                ap_sum / classes_counted as f64
            }
        }

        pub fn frame_map_at_05(frame: &FrameEval, num_classes: usize) -> f64 {
            map_at_05(std::slice::from_ref(frame), num_classes)
        }

        pub fn average_precision(frames: &[FrameEval], class: usize, iou: f32) -> Option<f64> {
            let mut scored: Vec<(f32, bool)> = Vec::new();
            let mut total_gt = 0usize;
            for frame in frames {
                let class_dets: Vec<Detection> = frame
                    .detections
                    .iter()
                    .filter(|d| d.class == class)
                    .cloned()
                    .collect();
                let class_gt: Vec<GroundTruthObject> = frame
                    .ground_truth
                    .iter()
                    .filter(|g| g.class == class)
                    .cloned()
                    .collect();
                total_gt += class_gt.len();
                let result = match_detections(&class_dets, &class_gt, iou);
                for (det, assignment) in class_dets.iter().zip(&result.assignments) {
                    scored.push((det.confidence, assignment.is_some()));
                }
            }
            if total_gt == 0 {
                return None;
            }
            scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            let mut tp = 0usize;
            let mut fp = 0usize;
            let mut recalls = Vec::with_capacity(scored.len());
            let mut precisions = Vec::with_capacity(scored.len());
            for &(_, is_tp) in &scored {
                if is_tp {
                    tp += 1;
                } else {
                    fp += 1;
                }
                recalls.push(tp as f64 / total_gt as f64);
                precisions.push(tp as f64 / (tp + fp) as f64);
            }
            let mut max_from_right = 0.0f64;
            for p in precisions.iter_mut().rev() {
                max_from_right = max_from_right.max(*p);
                *p = max_from_right;
            }
            let mut ap = 0.0;
            let mut prev_recall = 0.0;
            for (r, p) in recalls.iter().zip(&precisions) {
                ap += (r - prev_recall) * p;
                prev_recall = *r;
            }
            Some(ap)
        }

        pub fn average_iou(frames: &[FrameEval]) -> f64 {
            let mut iou_sum = 0.0f64;
            let mut total_gt = 0usize;
            for frame in frames {
                total_gt += frame.ground_truth.len();
                let result = match_detections(&frame.detections, &frame.ground_truth, 0.5);
                for assignment in result.assignments.iter().flatten() {
                    iou_sum += assignment.1 as f64;
                }
            }
            iou_sum / total_gt.max(1) as f64
        }
    }

    fn gt(class: usize, x: f32) -> GroundTruthObject {
        GroundTruthObject {
            track_id: 0,
            class,
            bbox: BBox::new(x, 0.1, 0.2, 0.2),
        }
    }

    fn det(class: usize, x: f32, conf: f32) -> Detection {
        Detection {
            bbox: BBox::new(x, 0.1, 0.2, 0.2),
            class,
            confidence: conf,
        }
    }

    /// AP of class 0: the mAP of a pool whose only scored class is 0.
    fn class0_ap(frames: &[FrameEval]) -> f64 {
        map_at_05(frames, 1)
    }

    #[test]
    fn perfect_detector_has_map_one() {
        let frames = vec![
            FrameEval {
                detections: vec![det(0, 0.1, 0.9), det(1, 0.5, 0.8)],
                ground_truth: vec![gt(0, 0.1), gt(1, 0.5)],
            },
            FrameEval {
                detections: vec![det(0, 0.3, 0.7)],
                ground_truth: vec![gt(0, 0.3)],
            },
        ];
        assert!((map_at_05(&frames, 2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn blind_detector_has_map_zero() {
        let frames = vec![FrameEval {
            detections: vec![],
            ground_truth: vec![gt(0, 0.1)],
        }];
        assert_eq!(map_at_05(&frames, 1), 0.0);
    }

    #[test]
    fn false_positives_lower_ap_when_ranked_above_hits() {
        // FP at higher confidence than the TP: precision at the TP's rank
        // is 1/2, so AP = 0.5.
        let frames = vec![FrameEval {
            detections: vec![det(0, 0.7, 0.9), det(0, 0.1, 0.5)],
            ground_truth: vec![gt(0, 0.1)],
        }];
        let ap = class0_ap(&frames);
        assert!((ap - 0.5).abs() < 1e-9, "ap {ap}");
    }

    #[test]
    fn false_positive_below_all_hits_does_not_hurt() {
        // With all-point interpolation, trailing FPs leave AP at 1.0.
        let frames = vec![FrameEval {
            detections: vec![det(0, 0.1, 0.9), det(0, 0.7, 0.2)],
            ground_truth: vec![gt(0, 0.1)],
        }];
        let ap = class0_ap(&frames);
        assert!((ap - 1.0).abs() < 1e-9, "ap {ap}");
    }

    #[test]
    fn missing_class_is_skipped_not_zeroed() {
        // Class 1 never appears in GT; mAP averages over class 0 only.
        let frames = vec![FrameEval {
            detections: vec![det(0, 0.1, 0.9), det(1, 0.5, 0.8)],
            ground_truth: vec![gt(0, 0.1)],
        }];
        assert!((map_at_05(&frames, 2) - 1.0).abs() < 1e-9);
        assert_eq!(map_at_05(&frames, 2), class0_ap(&frames));
    }

    #[test]
    fn half_recall_halves_ap() {
        let frames = vec![FrameEval {
            detections: vec![det(0, 0.1, 0.9)],
            ground_truth: vec![gt(0, 0.1), gt(0, 0.6)],
        }];
        let ap = class0_ap(&frames);
        assert!((ap - 0.5).abs() < 1e-9, "ap {ap}");
    }

    #[test]
    fn average_iou_rewards_tight_boxes() {
        let tight = vec![FrameEval {
            detections: vec![det(0, 0.1, 0.9)],
            ground_truth: vec![gt(0, 0.1)],
        }];
        let loose = vec![FrameEval {
            detections: vec![Detection {
                bbox: BBox::new(0.14, 0.1, 0.2, 0.2),
                class: 0,
                confidence: 0.9,
            }],
            ground_truth: vec![gt(0, 0.1)],
        }];
        assert!(average_iou(&tight) > average_iou(&loose));
        assert!((average_iou(&tight) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn average_iou_penalizes_misses() {
        let frames = vec![FrameEval {
            detections: vec![det(0, 0.1, 0.9)],
            ground_truth: vec![gt(0, 0.1), gt(0, 0.6)],
        }];
        assert!((average_iou(&frames) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn empty_everything_is_zero() {
        assert_eq!(map_at_05(&[], 3), 0.0);
        assert_eq!(average_iou(&[]), 0.0);
        assert_eq!(
            MapAccumulator::new(3).finish(),
            PooledScores {
                map50: 0.0,
                average_iou: 0.0
            }
        );
    }

    #[test]
    fn frame_map_matches_single_frame_pool() {
        let frame = FrameEval {
            detections: vec![det(0, 0.1, 0.9)],
            ground_truth: vec![gt(0, 0.1)],
        };
        assert_eq!(
            frame_map_at_05(&frame, 1),
            map_at_05(std::slice::from_ref(&frame), 1)
        );
    }

    #[test]
    fn pooled_ties_keep_frame_then_detection_order() {
        // Two tied detections: a hit in frame 0, a miss in frame 1. Ranked
        // hit first, AP is 1; ranked miss first it would be 0.5.
        let frames = vec![
            FrameEval {
                detections: vec![det(0, 0.1, 0.7)],
                ground_truth: vec![gt(0, 0.1)],
            },
            FrameEval {
                detections: vec![det(0, 0.7, 0.7)],
                ground_truth: vec![],
            },
        ];
        assert_eq!(class0_ap(&frames), 1.0);
        // Many ties among four unsorted confidences, which an unstable
        // sort would reorder.
        let conf = |k: usize| [0.2, 0.4, 0.6, 0.8][k % 4];
        let frames: Vec<FrameEval> = (0..90)
            .map(|i| FrameEval {
                detections: vec![det(0, 0.1, conf(i * 7)), det(0, 0.7, conf(i * 3 + 1))],
                ground_truth: if i % 3 == 0 { vec![] } else { vec![gt(0, 0.1)] },
            })
            .collect();
        let want = reference::map_at_05(&frames, 1).to_bits();
        assert_eq!(class0_ap(&frames).to_bits(), want);
    }

    /// Boxes on a coarse grid, so detections often overlap ground truth.
    fn arb_box() -> impl Strategy<Value = BBox> {
        (0usize..5, 0usize..3, 0usize..3).prop_map(|(x, w, j)| {
            let x = x as f32 * 0.15 + j as f32 * 0.02;
            BBox::new(x, 0.1, 0.15 + w as f32 * 0.05, 0.2)
        })
    }

    /// Classes 0..=3 against 3 scored classes (class 3 is never scored),
    /// confidences from five values so ties are common.
    fn arb_frame() -> impl Strategy<Value = FrameEval> {
        let det = (arb_box(), 0usize..4, 0usize..5).prop_map(|(bbox, class, c)| Detection {
            bbox,
            class,
            confidence: 0.2 + c as f32 * 0.2,
        });
        let gt = (arb_box(), 0usize..4).prop_map(|(bbox, class)| GroundTruthObject {
            track_id: 0,
            class,
            bbox,
        });
        (
            prop::collection::vec(det, 0..7),
            prop::collection::vec(gt, 0..5),
            0usize..4,
        )
            .prop_map(|(detections, ground_truth, kind)| match kind {
                // An empty frame, and a frame with ground truth only.
                0 => FrameEval {
                    detections: vec![],
                    ground_truth: vec![],
                },
                1 => FrameEval {
                    detections: vec![],
                    ground_truth,
                },
                _ => FrameEval {
                    detections,
                    ground_truth,
                },
            })
    }

    proptest! {
        #[test]
        fn accumulator_matches_per_class_reference_bit_for_bit(
            frames in prop::collection::vec(arb_frame(), 0..40),
        ) {
            let mut acc = MapAccumulator::new(3);
            for frame in &frames {
                let got = acc.push(&frame.detections, &frame.ground_truth);
                prop_assert_eq!(got.to_bits(), reference::frame_map_at_05(frame, 3).to_bits());
                prop_assert_eq!(
                    frame_map_at_05(frame, 3).to_bits(),
                    reference::frame_map_at_05(frame, 3).to_bits()
                );
            }
            let pooled = acc.finish();
            let map50 = reference::map_at_05(&frames, 3);
            let iou = reference::average_iou(&frames);
            prop_assert_eq!(pooled.map50.to_bits(), map50.to_bits());
            prop_assert_eq!(pooled.average_iou.to_bits(), iou.to_bits());
            prop_assert_eq!(map_at_05(&frames, 3).to_bits(), map50.to_bits());
            prop_assert_eq!(average_iou(&frames).to_bits(), iou.to_bits());
        }
    }
}

//! The detector abstraction shared by student and teacher.

use crate::background_class;
use shoggoth_tensor::{losses, Matrix, Mlp, Mode};
use shoggoth_video::{BBox, ClassId, Frame, Proposal};

/// One detection: a box, a foreground class, and a confidence score
/// (the model's normalized posterior, the paper's `d_i`).
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Detected bounding box (the proposal's box).
    pub bbox: BBox,
    /// Predicted foreground class.
    pub class: ClassId,
    /// Normalized posterior probability of the predicted class, in `[0, 1]`.
    pub confidence: f32,
}

/// A model that turns a frame's proposals into detections.
///
/// Implementations classify every proposal and emit one [`Detection`] per
/// proposal predicted as a foreground class (background predictions are
/// dropped). Detections keep their confidence so evaluation can rank them.
pub trait Detector {
    /// Human-readable model name.
    fn name(&self) -> &str;

    /// Detects objects in a frame.
    fn detect(&mut self, frame: &Frame) -> Vec<Detection>;

    /// Classifies a raw feature batch, returning `(class, confidence)` per
    /// row. The class may be the background index.
    fn classify(&mut self, features: &Matrix) -> Vec<(ClassId, f32)>;
}

/// Stacks proposal feature vectors into a batch matrix (one row per
/// proposal).
///
/// Returns a `0 × dim` matrix when `proposals` is empty (`dim` falls back
/// to 1 so downstream shape checks fail loudly rather than silently).
pub fn features_matrix(proposals: &[Proposal]) -> Matrix {
    let dim = proposals.first().map_or(1, |p| p.features.len());
    let mut m = Matrix::zeros(proposals.len(), dim);
    for (r, p) in proposals.iter().enumerate() {
        m.row_mut(r).copy_from_slice(&p.features);
    }
    m
}

/// [`Detector::detect`] for a classifier network whose last logit is the
/// background class of `num_classes` foreground classes.
pub(crate) fn detect_with(net: &mut Mlp, num_classes: usize, frame: &Frame) -> Vec<Detection> {
    if frame.proposals.is_empty() {
        return Vec::new();
    }
    let predictions = classify_with(net, &features_matrix(&frame.proposals));
    detections_from(&frame.proposals, &predictions, num_classes)
}

/// The detections among classified proposals: one per proposal whose
/// predicted class (from [`Detector::classify`], row for row) is a
/// foreground class of `num_classes`.
pub fn detections_from(
    proposals: &[Proposal],
    predictions: &[(ClassId, f32)],
    num_classes: usize,
) -> Vec<Detection> {
    let bg = background_class(num_classes);
    proposals
        .iter()
        .zip(predictions)
        .filter(|(_, (class, _))| *class < bg)
        .map(|(p, &(class, confidence))| Detection {
            bbox: p.bbox,
            class,
            confidence,
        })
        .collect()
}

/// [`Detector::classify`] for a classifier network. Softmax and argmax run
/// in place on the logits buffer, which then goes back to the network's
/// workspace, so repeated inference takes no fresh workspace memory.
///
/// # Panics
///
/// Panics if the feature width disagrees with the network input — a shape
/// pinned by the detector constructors.
pub(crate) fn classify_with(net: &mut Mlp, features: &Matrix) -> Vec<(ClassId, f32)> {
    if features.rows() == 0 {
        return Vec::new();
    }
    let mut probs = net
        .forward(features, Mode::Eval)
        .expect("feature width matches network input");
    losses::softmax_in_place(&mut probs);
    let predictions = (0..probs.rows())
        .map(|r| {
            let row = probs.row(r);
            let (class, &p) = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty row");
            (class, p)
        })
        .collect();
    net.recycle(probs);
    predictions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_matrix_stacks_rows() {
        let proposals = vec![
            Proposal {
                bbox: BBox::new(0.0, 0.0, 0.1, 0.1),
                features: vec![1.0, 2.0],
                true_class: None,
                track_id: None,
            },
            Proposal {
                bbox: BBox::new(0.5, 0.5, 0.1, 0.1),
                features: vec![3.0, 4.0],
                true_class: Some(0),
                track_id: Some(1),
            },
        ];
        let m = features_matrix(&proposals);
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    /// A frame of `n` proposals with seeded 16-wide features.
    fn frame(n: usize) -> Frame {
        let mut rng = shoggoth_util::Rng::seed_from(3);
        Frame {
            index: 0,
            timestamp: 0.0,
            scene_index: 0,
            domain_name: "test".into(),
            ground_truth: Vec::new(),
            proposals: (0..n)
                .map(|i| Proposal {
                    bbox: BBox::new(0.05 * i as f32, 0.1, 0.1, 0.1),
                    features: (0..16).map(|_| rng.next_gaussian_f32(0.0, 1.0)).collect(),
                    true_class: None,
                    track_id: None,
                })
                .collect(),
            raw_bytes: 0,
            motion_magnitude: 0.0,
        }
    }

    /// `classify` computed the allocating way (fresh softmax matrix) on a
    /// copy of the network.
    fn reference_classify(net: &Mlp, features: &Matrix) -> Vec<(ClassId, f32)> {
        let logits = net.clone().forward(features, Mode::Eval).expect("shapes");
        let probs = losses::softmax(&logits);
        (0..probs.rows())
            .map(|r| {
                let (class, &p) = probs
                    .row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .expect("non-empty row");
                (class, p)
            })
            .collect()
    }

    /// Repeated `detect` calls take no fresh workspace memory, and the
    /// in-place classification equals the allocating one.
    fn assert_inference_allocation_free<D: Detector>(mut detector: D, net: fn(&D) -> &Mlp) {
        let frame = frame(12);
        let features = features_matrix(&frame.proposals);
        let expected = reference_classify(net(&detector), &features);
        assert_eq!(detector.classify(&features), expected);
        let first = detector.detect(&frame);
        let warm = net(&detector).workspace_allocations();
        for _ in 0..10 {
            assert_eq!(detector.detect(&frame), first);
        }
        assert_eq!(
            net(&detector).workspace_allocations(),
            warm,
            "{}: inference allocated workspace memory",
            detector.name()
        );
    }

    #[test]
    fn repeated_detect_is_workspace_allocation_free() {
        use crate::{StudentConfig, StudentDetector, TeacherConfig, TeacherDetector};
        assert_inference_allocation_free(
            StudentDetector::new(StudentConfig::new(16, 3, 1).quick()),
            StudentDetector::net,
        );
        assert_inference_allocation_free(
            TeacherDetector::new(TeacherConfig::new(16, 3, 1).quick()),
            TeacherDetector::net,
        );
    }

    #[test]
    fn empty_proposals_yield_empty_matrix() {
        let m = features_matrix(&[]);
        assert_eq!(m.rows(), 0);
    }
}

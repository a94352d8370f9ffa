//! Training-sample synthesis and the paper's pseudo-labeling rule.

use crate::background_class;
use crate::detector::Detector;
use shoggoth_tensor::Matrix;
use shoggoth_util::Rng;
use shoggoth_video::{ClassId, Domain, FeatureWorld, Frame, Proposal};

/// One labeled training sample: a proposal's features and its class label
/// (foreground class index, or the background index).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSample {
    /// Latent appearance features.
    pub features: Vec<f32>,
    /// Class label; `background_class(num_classes)` for negatives.
    pub label: usize,
}

impl LabeledSample {
    /// Stacks samples into a `(features, labels)` training batch.
    ///
    /// Returns an empty `0 × 1` matrix for an empty slice.
    pub fn to_batch(samples: &[LabeledSample]) -> (Matrix, Vec<usize>) {
        let dim = samples.first().map_or(1, |s| s.features.len());
        let mut m = Matrix::zeros(samples.len(), dim);
        let mut labels = Vec::with_capacity(samples.len());
        for (r, s) in samples.iter().enumerate() {
            m.row_mut(r).copy_from_slice(&s.features);
            labels.push(s.label);
        }
        (m, labels)
    }
}

/// Synthesizes a labeled batch directly from a domain: `n_objects` object
/// samples (classes drawn from the domain's mix) plus `n_background`
/// distractors.
///
/// Used to pre-train the student (source domain only) and the teacher (all
/// domains).
pub fn sample_domain_batch(
    world: &FeatureWorld,
    domain: &Domain,
    n_objects: usize,
    n_background: usize,
    rng: &mut Rng,
) -> Vec<LabeledSample> {
    let dim = world.feature_dim();
    let noise = domain.noise_std();
    let mut samples = Vec::with_capacity(n_objects + n_background);
    for _ in 0..n_objects {
        let class = domain.sample_class(rng);
        let jitter: Vec<f32> = (0..dim).map(|_| rng.next_gaussian_f32(0.0, 0.45)).collect();
        let base = domain.object_appearance(world, class, &jitter);
        let features = base
            .iter()
            .map(|&v| v + rng.next_gaussian_f32(0.0, noise))
            .collect();
        samples.push(LabeledSample {
            features,
            label: class,
        });
    }
    let bg = background_class(world.num_classes());
    for _ in 0..n_background {
        samples.push(LabeledSample {
            features: domain.background_appearance(rng),
            label: bg,
        });
    }
    rng.shuffle(&mut samples);
    samples
}

/// Labels a frame's proposals with a detector, per the paper's Eq. (1):
/// a proposal whose predicted confidence clears `threshold` becomes a
/// positive sample of the predicted class (`y_i = 1` for the detector's
/// class); everything else becomes a background (negative) sample.
///
/// This is the cloud's **online labeling** step: the teacher never sees the
/// ground truth, so the labels inherit the teacher's own errors — exactly
/// the knowledge-distillation setting the paper studies.
pub fn pseudo_label<D: Detector + ?Sized>(
    detector: &mut D,
    frame: &Frame,
    num_classes: usize,
    threshold: f32,
) -> Vec<LabeledSample> {
    let features = crate::detector::features_matrix(&frame.proposals);
    if features.rows() == 0 {
        return Vec::new();
    }
    let predictions = detector.classify(&features);
    labels_from(&frame.proposals, &predictions, num_classes, threshold)
}

/// [`pseudo_label`]'s rule applied to proposals already classified (row
/// for row, by [`Detector::classify`]).
pub fn labels_from(
    proposals: &[Proposal],
    predictions: &[(ClassId, f32)],
    num_classes: usize,
    threshold: f32,
) -> Vec<LabeledSample> {
    let bg = background_class(num_classes);
    proposals
        .iter()
        .zip(predictions)
        .map(|(p, &(class, confidence))| LabeledSample {
            features: p.features.clone(),
            label: if class < bg && confidence >= threshold {
                class
            } else {
                bg
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shoggoth_video::{DomainLibrary, Illumination, Weather, WorldConfig};

    fn library() -> DomainLibrary {
        let mut lib = DomainLibrary::new(WorldConfig::new(3, 8, 2));
        lib.generate(
            "day",
            Illumination::Day,
            Weather::Sunny,
            0.0,
            vec![1.0, 1.0, 1.0],
        );
        lib
    }

    #[test]
    fn domain_batch_has_requested_composition() {
        let lib = library();
        let mut rng = Rng::seed_from(0);
        let samples = sample_domain_batch(lib.world(), lib.domain(0), 20, 10, &mut rng);
        assert_eq!(samples.len(), 30);
        let bg = samples.iter().filter(|s| s.label == 3).count();
        assert_eq!(bg, 10);
        assert!(samples.iter().all(|s| s.features.len() == 8));
    }

    #[test]
    fn to_batch_shapes_match() {
        let lib = library();
        let mut rng = Rng::seed_from(1);
        let samples = sample_domain_batch(lib.world(), lib.domain(0), 5, 5, &mut rng);
        let (m, labels) = LabeledSample::to_batch(&samples);
        assert_eq!(m.rows(), 10);
        assert_eq!(labels.len(), 10);
        assert_eq!(m.row(3), samples[3].features.as_slice());
    }

    #[test]
    fn to_batch_of_nothing_is_empty() {
        let (m, labels) = LabeledSample::to_batch(&[]);
        assert_eq!(m.rows(), 0);
        assert!(labels.is_empty());
    }

    /// A detector stub that claims class 0 with fixed confidence.
    struct Fixed {
        confidence: f32,
    }

    impl Detector for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn detect(&mut self, _frame: &Frame) -> Vec<crate::Detection> {
            Vec::new()
        }
        fn classify(&mut self, features: &Matrix) -> Vec<(usize, f32)> {
            vec![(0, self.confidence); features.rows()]
        }
    }

    fn tiny_frame() -> Frame {
        Frame {
            index: 0,
            timestamp: 0.0,
            scene_index: 0,
            domain_name: "t".into(),
            ground_truth: Vec::new(),
            proposals: vec![
                shoggoth_video::Proposal {
                    bbox: shoggoth_video::BBox::new(0.0, 0.0, 0.1, 0.1),
                    features: vec![1.0, 2.0],
                    true_class: Some(1),
                    track_id: Some(0),
                },
                shoggoth_video::Proposal {
                    bbox: shoggoth_video::BBox::new(0.2, 0.2, 0.1, 0.1),
                    features: vec![3.0, 4.0],
                    true_class: None,
                    track_id: None,
                },
            ],
            raw_bytes: 100,
            motion_magnitude: 0.0,
        }
    }

    #[test]
    fn confident_predictions_become_positive_labels() {
        let mut det = Fixed { confidence: 0.9 };
        let labels = pseudo_label(&mut det, &tiny_frame(), 3, 0.5);
        assert_eq!(labels.len(), 2);
        assert!(labels.iter().all(|s| s.label == 0));
    }

    #[test]
    fn unconfident_predictions_become_background() {
        let mut det = Fixed { confidence: 0.3 };
        let labels = pseudo_label(&mut det, &tiny_frame(), 3, 0.5);
        assert!(labels.iter().all(|s| s.label == 3));
    }

    #[test]
    fn empty_frame_yields_no_labels() {
        let mut det = Fixed { confidence: 0.9 };
        let mut frame = tiny_frame();
        frame.proposals.clear();
        assert!(pseudo_label(&mut det, &frame, 3, 0.5).is_empty());
    }
}

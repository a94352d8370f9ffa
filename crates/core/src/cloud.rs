//! The cloud server: online labeling and the sampling-rate controller.

use crate::controller::{phi_score, ControllerConfig, RateDecision, SamplingRateController};
use crate::error::InvalidConfig;
use serde::{Deserialize, Serialize};
use shoggoth_models::{
    detections_from, features_matrix, labels_from, Detection, Detector, LabeledSample,
    TeacherDetector,
};
use shoggoth_util::Rng;
use shoggoth_video::Frame;

/// Cloud-side fault injection: the labeling service itself can fail, not
/// just the link. A loaded teacher GPU drops label batches outright or
/// returns them late — both starve the edge's training pool exactly like
/// link loss does, so the resilience layer must treat them the same way
/// (an unacknowledged upload).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CloudFaultProfile {
    /// Probability a delivered batch's labels are never returned.
    pub label_drop_rate: f64,
    /// Probability a returned label batch is late.
    pub slow_label_rate: f64,
    /// Extra latency of a late label batch, seconds.
    pub slow_label_secs: f64,
}

/// What the cloud did with one delivered upload's labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LabelFate {
    /// The labels were never returned (the upload will time out).
    Dropped,
    /// The labels were returned after `extra_latency_secs` of queueing
    /// (zero for a healthy cloud).
    Delivered {
        /// Extra cloud-side latency before the labels departed.
        extra_latency_secs: f64,
    },
}

impl CloudFaultProfile {
    /// A healthy cloud (the paper's experiments).
    pub fn none() -> Self {
        Self {
            label_drop_rate: 0.0,
            slow_label_rate: 0.0,
            slow_label_secs: 0.0,
        }
    }

    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] on NaN/out-of-range rates or a negative
    /// or non-finite slow-label latency.
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        let reject = |reason| InvalidConfig {
            component: "cloud fault profile",
            reason,
        };
        if !(0.0..=1.0).contains(&self.label_drop_rate) {
            return Err(reject("label drop rate must be in [0, 1] (NaN rejected)"));
        }
        if !(0.0..=1.0).contains(&self.slow_label_rate) {
            return Err(reject("slow label rate must be in [0, 1] (NaN rejected)"));
        }
        if !self.slow_label_secs.is_finite() || self.slow_label_secs < 0.0 {
            return Err(reject("slow label latency must be finite and non-negative"));
        }
        Ok(())
    }

    /// Draws the fate of one delivered batch's labels from the seeded RNG.
    pub fn label_fate(&self, rng: &mut Rng) -> LabelFate {
        if rng.bernoulli(self.label_drop_rate) {
            return LabelFate::Dropped;
        }
        if rng.bernoulli(self.slow_label_rate) {
            LabelFate::Delivered {
                extra_latency_secs: self.slow_label_secs,
            }
        } else {
            LabelFate::Delivered {
                extra_latency_secs: 0.0,
            }
        }
    }
}

impl Default for CloudFaultProfile {
    fn default() -> Self {
        Self::none()
    }
}

/// Cloud-side configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudConfig {
    /// Confidence threshold θ of the pseudo-labeling rule (Eq. 1).
    pub label_threshold: f32,
    /// Sampling-rate controller parameters (Eqs. 2–3).
    pub controller: ControllerConfig,
    /// Fault injection on the labeling service itself.
    pub faults: CloudFaultProfile,
}

impl Default for CloudConfig {
    fn default() -> Self {
        Self {
            label_threshold: 0.5,
            controller: ControllerConfig::paper_defaults(),
            faults: CloudFaultProfile::none(),
        }
    }
}

/// The result of labeling one uploaded batch.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelBatch {
    /// Per-frame labeled samples, in upload order.
    pub per_frame: Vec<Vec<LabeledSample>>,
    /// Total labeled samples across the batch.
    pub total_samples: usize,
    /// φ scores observed between consecutive sampled frames.
    pub phi_scores: Vec<f64>,
}

/// The cloud server shared by all edge devices: hosts the golden teacher,
/// labels sampled frames online (Eq. 1), tracks the scene-change score φ,
/// and runs the sampling-rate controller.
///
/// # Examples
///
/// ```
/// use shoggoth::cloud::{CloudConfig, CloudServer};
/// use shoggoth_models::{TeacherConfig, TeacherDetector};
/// use shoggoth_video::presets;
///
/// let stream = presets::kitti(2).with_total_frames(40);
/// let teacher = TeacherDetector::pretrained_with(
///     TeacherConfig::new(32, 1, 3).quick(), &stream.library);
/// let mut cloud = CloudServer::new(teacher, 1, CloudConfig::default())?;
/// let frames: Vec<_> = stream.build().take(3).collect();
/// let refs: Vec<&_> = frames.iter().collect();
/// let batch = cloud.label_batch(&refs);
/// assert_eq!(batch.per_frame.len(), 3);
/// assert_eq!(batch.phi_scores.len(), 3);
/// # Ok::<(), shoggoth::error::InvalidConfig>(())
/// ```
#[derive(Debug, Clone)]
pub struct CloudServer {
    teacher: TeacherDetector,
    controller: SamplingRateController,
    config: CloudConfig,
    num_classes: usize,
    prev_labels: Option<Vec<Detection>>,
}

impl CloudServer {
    /// Creates a cloud server around a pre-trained teacher.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] if the controller configuration or the
    /// cloud fault profile is inconsistent.
    pub fn new(
        teacher: TeacherDetector,
        num_classes: usize,
        config: CloudConfig,
    ) -> Result<Self, InvalidConfig> {
        config.faults.validate()?;
        Ok(Self {
            teacher,
            controller: SamplingRateController::new(config.controller)?,
            config,
            num_classes,
            prev_labels: None,
        })
    }

    /// The current sampling rate the controller prescribes.
    pub fn rate(&self) -> f64 {
        self.controller.rate()
    }

    /// Read access to the controller (diagnostics).
    pub fn controller(&self) -> &SamplingRateController {
        &self.controller
    }

    /// Labels an uploaded batch of sampled frames with the teacher and
    /// records per-frame φ scores against the previously-labeled frame.
    ///
    /// The teacher classifies each frame once: its detections (for φ) and
    /// the frame's pseudo-labels are both read off the same predictions,
    /// exactly what [`Detector::detect`] and [`pseudo_label`] give.
    ///
    /// [`pseudo_label`]: shoggoth_models::pseudo_label
    pub fn label_batch(&mut self, frames: &[&Frame]) -> LabelBatch {
        let mut per_frame = Vec::with_capacity(frames.len());
        let mut phi_scores = Vec::with_capacity(frames.len());
        let mut total = 0;
        let teacher_classes = self.teacher.config().num_classes;
        for frame in frames {
            let predictions = self.teacher.classify(&features_matrix(&frame.proposals));
            let detections = detections_from(&frame.proposals, &predictions, teacher_classes);
            if let Some(prev) = &self.prev_labels {
                let phi = phi_score(prev, &detections);
                self.controller.observe_phi(phi);
                phi_scores.push(phi);
            } else {
                phi_scores.push(0.0);
            }
            self.prev_labels = Some(detections);
            let samples = labels_from(
                &frame.proposals,
                &predictions,
                self.num_classes,
                self.config.label_threshold,
            );
            total += samples.len();
            per_frame.push(samples);
        }
        LabelBatch {
            per_frame,
            total_samples: total,
            phi_scores,
        }
    }

    /// Runs the golden model directly on a frame (the Cloud-Only path).
    pub fn infer(&mut self, frame: &Frame) -> Vec<Detection> {
        self.teacher.detect(frame)
    }

    /// Updates the sampling rate from the edge's reported estimated
    /// accuracy α and resource usage λ (Eqs. 2–3).
    pub fn update_rate(&mut self, alpha: f64, lambda: f64) -> f64 {
        self.controller.update(alpha, lambda)
    }

    /// [`update_rate`](Self::update_rate), but returning the fully
    /// attributed [`RateDecision`] for the telemetry trace.
    pub fn update_rate_detailed(&mut self, alpha: f64, lambda: f64) -> RateDecision {
        self.controller.update_detailed(alpha, lambda)
    }

    /// Mutable access to the hosted teacher (AMS's cloud-side training).
    pub fn teacher_mut(&mut self) -> &mut TeacherDetector {
        &mut self.teacher
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shoggoth_models::TeacherConfig;
    use shoggoth_video::presets;

    fn setup() -> (CloudServer, Vec<Frame>) {
        let stream = presets::kitti(12).with_total_frames(60);
        let teacher =
            TeacherDetector::pretrained_with(TeacherConfig::new(32, 1, 9).quick(), &stream.library);
        let cloud =
            CloudServer::new(teacher, 1, CloudConfig::default()).expect("valid default config");
        let frames: Vec<Frame> = stream.build().collect();
        (cloud, frames)
    }

    #[test]
    fn labeling_covers_every_proposal() {
        let (mut cloud, frames) = setup();
        let refs: Vec<&Frame> = frames.iter().take(4).collect();
        let batch = cloud.label_batch(&refs);
        for (labels, frame) in batch.per_frame.iter().zip(&refs) {
            assert_eq!(labels.len(), frame.proposals.len());
        }
        assert_eq!(
            batch.total_samples,
            refs.iter().map(|f| f.proposals.len()).sum::<usize>()
        );
    }

    /// `label_batch` as it was before one classification served both
    /// outputs: `detect` for φ, then a second forward pass in
    /// `pseudo_label`.
    fn label_batch_two_pass(cloud: &mut CloudServer, frames: &[&Frame]) -> LabelBatch {
        let mut per_frame = Vec::new();
        let mut phi_scores = Vec::new();
        let mut total = 0;
        for frame in frames {
            let detections = cloud.teacher.detect(frame);
            if let Some(prev) = &cloud.prev_labels {
                let phi = phi_score(prev, &detections);
                cloud.controller.observe_phi(phi);
                phi_scores.push(phi);
            } else {
                phi_scores.push(0.0);
            }
            cloud.prev_labels = Some(detections);
            let samples = shoggoth_models::pseudo_label(
                &mut cloud.teacher,
                frame,
                cloud.num_classes,
                cloud.config.label_threshold,
            );
            total += samples.len();
            per_frame.push(samples);
        }
        LabelBatch {
            per_frame,
            total_samples: total,
            phi_scores,
        }
    }

    #[test]
    fn one_pass_labelling_matches_two_pass_reference() {
        let (mut cloud, mut frames) = setup();
        // A frame with no proposals, mid-batch.
        frames[7].proposals.clear();
        let mut reference = cloud.clone();
        let mut labelled_fg = false;
        for batch in frames.chunks(6) {
            let refs: Vec<&Frame> = batch.iter().collect();
            let got = cloud.label_batch(&refs);
            let want = label_batch_two_pass(&mut reference, &refs);
            assert_eq!(got.per_frame, want.per_frame);
            assert_eq!(got.total_samples, want.total_samples);
            let bits = |phis: &[f64]| phis.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.phi_scores), bits(&want.phi_scores));
            assert_eq!(
                cloud.update_rate_detailed(0.6, 0.4),
                reference.update_rate_detailed(0.6, 0.4)
            );
            labelled_fg |= got.per_frame.iter().flatten().any(|s| s.label == 0);
        }
        assert!(
            labelled_fg,
            "the teacher should label some proposal foreground"
        );
    }

    #[test]
    fn first_frame_has_zero_phi() {
        let (mut cloud, frames) = setup();
        let refs: Vec<&Frame> = frames.iter().take(2).collect();
        let batch = cloud.label_batch(&refs);
        assert_eq!(batch.phi_scores[0], 0.0);
    }

    #[test]
    fn consecutive_frames_have_low_phi() {
        // Adjacent frames share tracks, so teacher labels barely change.
        let (mut cloud, frames) = setup();
        let refs: Vec<&Frame> = frames.iter().take(10).collect();
        let batch = cloud.label_batch(&refs);
        let mean_phi: f64 =
            batch.phi_scores[1..].iter().sum::<f64>() / (batch.phi_scores.len() - 1) as f64;
        assert!(mean_phi < 0.6, "adjacent-frame phi too high: {mean_phi}");
    }

    #[test]
    fn rate_updates_respond_to_alpha() {
        let (mut cloud, frames) = setup();
        let refs: Vec<&Frame> = frames.iter().take(5).collect();
        cloud.label_batch(&refs);
        let r_low_alpha = cloud.update_rate(0.1, 0.1);
        assert!(r_low_alpha >= cloud.controller().config().r_min);
        assert!(r_low_alpha <= cloud.controller().config().r_max);
    }

    #[test]
    fn invalid_fault_profile_rejected_at_server_construction() {
        let stream = presets::kitti(12).with_total_frames(10);
        let teacher =
            TeacherDetector::pretrained_with(TeacherConfig::new(32, 1, 9).quick(), &stream.library);
        let config = CloudConfig {
            faults: CloudFaultProfile {
                label_drop_rate: f64::NAN,
                ..CloudFaultProfile::none()
            },
            ..CloudConfig::default()
        };
        let err = CloudServer::new(teacher, 1, config).expect_err("NaN rate must be rejected");
        assert_eq!(err.component, "cloud fault profile");
    }

    #[test]
    fn fault_profile_rejects_out_of_range_fields() {
        let bad_rate = CloudFaultProfile {
            slow_label_rate: 1.5,
            ..CloudFaultProfile::none()
        };
        assert!(bad_rate.validate().is_err());
        let bad_secs = CloudFaultProfile {
            slow_label_secs: -1.0,
            ..CloudFaultProfile::none()
        };
        assert!(bad_secs.validate().is_err());
        assert!(CloudFaultProfile::none().validate().is_ok());
    }

    #[test]
    fn label_fates_follow_the_configured_rates() {
        use shoggoth_util::Rng;
        let faults = CloudFaultProfile {
            label_drop_rate: 0.3,
            slow_label_rate: 0.5,
            slow_label_secs: 4.0,
        };
        let mut rng = Rng::seed_from(17);
        let (mut drops, mut slow) = (0u32, 0u32);
        for _ in 0..2000 {
            match faults.label_fate(&mut rng) {
                LabelFate::Dropped => drops += 1,
                LabelFate::Delivered { extra_latency_secs } if extra_latency_secs > 0.0 => {
                    slow += 1;
                }
                LabelFate::Delivered { .. } => {}
            }
        }
        assert!((500..700).contains(&drops), "drops {drops}");
        // Slow applies to the ~70% that survive the drop draw.
        assert!((600..800).contains(&slow), "slow {slow}");
    }

    #[test]
    fn infer_emits_detections() {
        let (mut cloud, frames) = setup();
        let total: usize = frames.iter().take(10).map(|f| cloud.infer(f).len()).sum();
        assert!(total > 0, "teacher should detect something in 10 frames");
    }
}

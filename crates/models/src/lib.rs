//! Teacher and student detection models.
//!
//! The paper runs a lightweight YOLOv4-ResNet18 student on the edge and an
//! expensive Mask-R-CNN "golden" teacher in the cloud. Our substitutes work
//! over the latent feature space of `shoggoth-video`:
//!
//! * [`StudentDetector`] — a small trainable MLP classifier over region
//!   proposals, pre-trained on the **source domain only** (so it genuinely
//!   degrades under drift), with Batch Renormalization layers and a
//!   designated replay layer for latent replay (§III-B).
//! * [`TeacherDetector`] — a wider/deeper MLP pre-trained across **all**
//!   domains of a stream's library, playing the cloud golden model whose
//!   labels the paper verified to be near-human.
//! * [`data`] — shared sample synthesis and the paper's Eq. (1)
//!   pseudo-labeling rule (confident detector outputs become positive
//!   labels; everything else is background).
//!
//! # Examples
//!
//! ```
//! use shoggoth_models::{Detector, StudentConfig, StudentDetector, TeacherConfig, TeacherDetector};
//! use shoggoth_video::presets;
//!
//! let config = presets::kitti(7).with_total_frames(60);
//! let mut student = StudentDetector::pretrained_with(
//!     StudentConfig::new(32, 1, 11).quick(), &config.library, 0);
//! let mut teacher = TeacherDetector::pretrained_with(
//!     TeacherConfig::new(32, 1, 13).quick(), &config.library);
//! let frame = config.build().next().expect("stream has frames");
//! let student_dets = student.detect(&frame);
//! let teacher_dets = teacher.detect(&frame);
//! assert!(student_dets.len() <= frame.proposals.len());
//! assert!(teacher_dets.len() <= frame.proposals.len());
//! ```

pub mod data;
pub mod detector;
pub mod student;
pub mod teacher;

pub use data::{labels_from, pseudo_label, sample_domain_batch, LabeledSample};
pub use detector::{detections_from, features_matrix, Detection, Detector};
pub use student::{StudentConfig, StudentDetector};
pub use teacher::{TeacherConfig, TeacherDetector};

/// Class index used for the background (non-object) class: one past the
/// last foreground class.
pub fn background_class(num_classes: usize) -> usize {
    num_classes
}

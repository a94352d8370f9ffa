//! Evaluation metrics for the reproduction.
//!
//! Implements exactly the quantities the paper reports:
//!
//! * [`map::MapAccumulator`] — streaming mAP@0.5 and average IoU: scores
//!   each frame once as it arrives and keeps one `(confidence, is_tp)`
//!   pair per detection for the pooled result.
//! * [`map::map_at_05`] — mean Average Precision at IoU 0.5 (Tables I, II),
//!   VOC-2010-style all-point interpolation.
//! * [`map::frame_map_at_05`] — per-frame mAP, pooled into the CDF of
//!   mAP gain vs. Edge-Only (Figure 5) via
//!   [`shoggoth_util::stats::EmpiricalCdf`].
//! * [`map::average_iou`] — mean IoU of matched true-positive detections
//!   (Table III's accuracy metric).
//! * [`bandwidth::BandwidthMeter`] — uplink/downlink byte accounting
//!   reported in Kbps (Tables I, III).
//! * [`fps::FpsTracker`] — achieved inference FPS, overall average and
//!   time series (Figure 4).
//!
//! # Examples
//!
//! ```
//! use shoggoth_metrics::map::{map_at_05, FrameEval};
//! use shoggoth_models::Detection;
//! use shoggoth_video::{BBox, GroundTruthObject};
//!
//! let gt = GroundTruthObject { track_id: 0, class: 0, bbox: BBox::new(0.1, 0.1, 0.2, 0.2) };
//! let det = Detection { bbox: BBox::new(0.1, 0.1, 0.2, 0.2), class: 0, confidence: 0.9 };
//! let frames = vec![FrameEval { detections: vec![det], ground_truth: vec![gt] }];
//! assert!((map_at_05(&frames, 1) - 1.0).abs() < 1e-9);
//! ```

pub mod bandwidth;
pub mod fps;
pub mod map;
pub mod matching;

pub use bandwidth::BandwidthMeter;
pub use fps::FpsTracker;
pub use map::{average_iou, frame_map_at_05, map_at_05, FrameEval, MapAccumulator, PooledScores};
pub use matching::{match_detections, MatchResult};

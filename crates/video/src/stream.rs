//! The video stream generator.
//!
//! A [`VideoStream`] plays back a chain of scenes at a fixed frame rate.
//! Objects spawn, persist and move within a scene (strong short-horizon
//! correlation); scene switches change the active [`Domain`] — abruptly, or
//! gradually over `transition_frames` (long-horizon distribution drift).
//! Each frame carries ground truth plus the region proposals a detector
//! classifies.

use crate::domain::{Domain, DomainLibrary};
use crate::frame::{Frame, GroundTruthObject, Proposal};
use crate::BBox;
use shoggoth_util::Rng;

/// One scene: a contiguous run of frames under a single domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SceneSpec {
    /// Index into the stream's [`DomainLibrary`].
    pub domain_index: usize,
    /// Scene length in frames.
    pub frames: u64,
}

impl SceneSpec {
    /// Creates a scene spec.
    pub fn new(domain_index: usize, frames: u64) -> Self {
        Self {
            domain_index,
            frames,
        }
    }
}

/// Full configuration of a synthetic video stream.
///
/// Obtain presets from [`crate::presets`] or build one directly.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Stream name (e.g. `"ua-detrac"`), used in reports.
    pub name: String,
    /// The domain library (owns the feature world).
    pub library: DomainLibrary,
    /// Scene chain in playback order.
    pub scenes: Vec<SceneSpec>,
    /// Playback rate in frames per second (the paper uses 30 fps).
    pub fps: u32,
    /// Expected number of concurrent objects.
    pub mean_objects: f64,
    /// Background (distractor) proposals per frame.
    pub background_proposals: usize,
    /// Standard deviation of proposal-box jitter, as a fraction of object
    /// size. Larger jitter lowers the achievable IoU even for a perfect
    /// classifier.
    pub bbox_jitter: f32,
    /// Probability that a visible object produces no proposal in a frame
    /// (bounds the achievable recall below 100%).
    pub proposal_miss_rate: f64,
    /// Frame resolution in pixels (the paper resizes to 512×512).
    pub resolution: (u32, u32),
    /// Length of the gradual domain blend at each scene switch; `0` makes
    /// switches abrupt.
    pub transition_frames: u64,
    /// Stream seed (independent of the world seed).
    pub seed: u64,
}

impl StreamConfig {
    /// Total number of frames over all scenes.
    pub fn total_frames(&self) -> u64 {
        self.scenes.iter().map(|s| s.frames).sum()
    }

    /// Stream duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.total_frames() as f64 / self.fps as f64
    }

    /// Rescales all scene lengths proportionally so the stream totals
    /// exactly `n` frames (useful for quick tests on long presets).
    ///
    /// # Panics
    ///
    /// Panics if the config has no scenes or `n == 0`.
    pub fn with_total_frames(mut self, n: u64) -> Self {
        assert!(!self.scenes.is_empty(), "config has no scenes");
        assert!(n > 0, "total frame count must be positive");
        let current = self.total_frames().max(1);
        let mut assigned = 0u64;
        let count = self.scenes.len();
        for (i, scene) in self.scenes.iter_mut().enumerate() {
            if i + 1 == count {
                scene.frames = n - assigned;
            } else {
                scene.frames = ((scene.frames as u128 * n as u128) / current as u128) as u64;
                scene.frames = scene
                    .frames
                    .max(1)
                    .min(n.saturating_sub(assigned + (count - i - 1) as u64));
                assigned += scene.frames;
            }
        }
        self
    }

    /// Overrides the stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Instantiates the stream iterator.
    ///
    /// # Panics
    ///
    /// Panics if any scene references a domain index outside the library.
    pub fn build(&self) -> VideoStream {
        for scene in &self.scenes {
            assert!(
                scene.domain_index < self.library.len(),
                "scene references domain {} but library has {}",
                scene.domain_index,
                self.library.len()
            );
        }
        VideoStream::new(self.clone())
    }
}

/// A moving object alive within the current scene.
#[derive(Debug, Clone)]
struct ActiveObject {
    track_id: u64,
    class: usize,
    bbox: BBox,
    velocity: (f32, f32),
    /// Per-instance appearance jitter (fixed for the object's lifetime).
    jitter: Vec<f32>,
    /// Cached domain-transformed appearance (recomputed on domain change).
    base_appearance: Vec<f32>,
    /// Remaining lifetime in frames.
    ttl: u64,
}

/// Iterator over the frames of a configured stream.
///
/// Produced by [`StreamConfig::build`]; yields exactly
/// [`StreamConfig::total_frames`] frames.
#[derive(Debug, Clone)]
pub struct VideoStream {
    config: StreamConfig,
    rng: Rng,
    frame_index: u64,
    scene_index: usize,
    scene_offset: u64,
    objects: Vec<ActiveObject>,
    next_track_id: u64,
    /// Library index of the current scene's domain as of the last frame
    /// (for cache invalidation).
    domain_index: usize,
    /// The blended domain, while a scene transition runs; it overrides
    /// `domain_index` (see [`active_domain`]).
    blend: Option<Domain>,
}

/// The domain in effect: a running transition's `blend`, else the
/// library's `index`-th domain. A function of the fields rather than a
/// method, so callers can borrow the stream's RNG and objects alongside.
fn active_domain<'a>(
    library: &'a DomainLibrary,
    blend: Option<&'a Domain>,
    index: usize,
) -> &'a Domain {
    blend.unwrap_or_else(|| library.domain(index))
}

impl VideoStream {
    fn new(config: StreamConfig) -> Self {
        let mut rng = Rng::seed_from(config.seed ^ 0x5354_5245_414d); // "STREAM"
        let mut stream = Self {
            rng: rng.fork(),
            frame_index: 0,
            scene_index: 0,
            scene_offset: 0,
            objects: Vec::new(),
            next_track_id: 0,
            domain_index: config.scenes[0].domain_index,
            blend: None,
            config,
        };
        // Pre-populate the first scene so frame 0 is not empty.
        for _ in 0..stream.config.mean_objects.round() as usize {
            stream.spawn_object();
        }
        stream
    }

    /// The stream's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Frames remaining to be produced.
    pub fn remaining(&self) -> u64 {
        self.config.total_frames() - self.frame_index
    }

    /// The blend of the previous scene's domain into the current one's
    /// at the current scene position, while a transition runs.
    fn transition_blend(&self) -> Option<Domain> {
        let lib = &self.config.library;
        let t_frames = self.config.transition_frames;
        let (scene_index, scene_offset) = (self.scene_index, self.scene_offset);
        (scene_index > 0 && t_frames > 0 && scene_offset < t_frames).then(|| {
            let prev = lib.domain(self.config.scenes[scene_index - 1].domain_index);
            let target = lib.domain(self.config.scenes[scene_index].domain_index);
            prev.lerp(target, (scene_offset + 1) as f32 / t_frames as f32)
        })
    }

    fn spawn_object(&mut self) {
        let library = &self.config.library;
        let domain = active_domain(library, self.blend.as_ref(), self.domain_index);
        let class = domain.sample_class(&mut self.rng);
        let jitter: Vec<f32> = (0..library.world().feature_dim())
            .map(|_| self.rng.next_gaussian_f32(0.0, 0.45))
            .collect();
        let base_appearance = domain.object_appearance(library.world(), class, &jitter);
        let size = self.rng.range_f64(0.05, 0.25) as f32;
        let bbox = BBox::new(
            self.rng.range_f64(0.0, (1.0 - size) as f64) as f32,
            self.rng.range_f64(0.0, (1.0 - size) as f64) as f32,
            size,
            size * self.rng.range_f64(0.7, 1.3) as f32,
        );
        // Speeds of a few pixels per frame in normalized units.
        let velocity = (
            self.rng.next_gaussian_f32(0.0, 0.004),
            self.rng.next_gaussian_f32(0.0, 0.004),
        );
        let ttl = 60 + self.rng.below(540) as u64; // 2 s .. 20 s at 30 fps
        self.objects.push(ActiveObject {
            track_id: self.next_track_id,
            class,
            bbox,
            velocity,
            jitter,
            base_appearance,
            ttl,
        });
        self.next_track_id += 1;
    }

    fn step_population(&mut self) {
        // Death.
        self.objects.retain_mut(|o| {
            o.ttl = o.ttl.saturating_sub(1);
            o.ttl > 0
        });
        // Birth toward the target population.
        let deficit = self.config.mean_objects - self.objects.len() as f64;
        let spawn_prob = (deficit / self.config.mean_objects.max(1.0)).clamp(0.0, 1.0) * 0.3 + 0.01;
        if self.rng.bernoulli(spawn_prob) {
            self.spawn_object();
        }
    }

    fn step_motion(&mut self) -> f32 {
        let mut total_motion = 0.0;
        for obj in &mut self.objects {
            obj.velocity.0 += self.rng.next_gaussian_f32(0.0, 0.0008);
            obj.velocity.1 += self.rng.next_gaussian_f32(0.0, 0.0008);
            obj.velocity.0 = obj.velocity.0.clamp(-0.02, 0.02);
            obj.velocity.1 = obj.velocity.1.clamp(-0.02, 0.02);
            obj.bbox = obj.bbox.translated_clamped(obj.velocity.0, obj.velocity.1);
            total_motion += (obj.velocity.0.powi(2) + obj.velocity.1.powi(2)).sqrt();
        }
        if self.objects.is_empty() {
            0.0
        } else {
            total_motion / self.objects.len() as f32
        }
    }

    fn refresh_appearances(&mut self) {
        let library = &self.config.library;
        let domain = active_domain(library, self.blend.as_ref(), self.domain_index);
        for obj in &mut self.objects {
            obj.base_appearance = domain.object_appearance(library.world(), obj.class, &obj.jitter);
        }
    }

    fn make_proposals(&mut self) -> Vec<Proposal> {
        let domain = active_domain(&self.config.library, self.blend.as_ref(), self.domain_index);
        let noise = domain.noise_std();
        let mut proposals =
            Vec::with_capacity(self.objects.len() + self.config.background_proposals);
        let jitter_frac = self.config.bbox_jitter;
        let miss_rate = self.config.proposal_miss_rate;
        // Object proposals.
        for o in &self.objects {
            if self.rng.bernoulli(miss_rate) {
                continue;
            }
            let bbox = o.bbox;
            let dx = self.rng.next_gaussian_f32(0.0, jitter_frac * bbox.w);
            let dy = self.rng.next_gaussian_f32(0.0, jitter_frac * bbox.h);
            let sw = (1.0 + self.rng.next_gaussian_f32(0.0, jitter_frac)).clamp(0.6, 1.5);
            let sh = (1.0 + self.rng.next_gaussian_f32(0.0, jitter_frac)).clamp(0.6, 1.5);
            let proposal_box = BBox::new(bbox.x + dx, bbox.y + dy, bbox.w * sw, bbox.h * sh);
            let features: Vec<f32> = o
                .base_appearance
                .iter()
                .map(|&v| v + self.rng.next_gaussian_f32(0.0, noise))
                .collect();
            proposals.push(Proposal {
                bbox: proposal_box,
                features,
                true_class: Some(o.class),
                track_id: Some(o.track_id),
            });
        }
        // Background distractors.
        for _ in 0..self.config.background_proposals {
            let size = self.rng.range_f64(0.04, 0.2) as f32;
            let bbox = BBox::new(
                self.rng.range_f64(0.0, (1.0 - size) as f64) as f32,
                self.rng.range_f64(0.0, (1.0 - size) as f64) as f32,
                size,
                size,
            );
            proposals.push(Proposal {
                bbox,
                features: domain.background_appearance(&mut self.rng),
                true_class: None,
                track_id: None,
            });
        }
        self.rng.shuffle(&mut proposals);
        proposals
    }
}

impl Iterator for VideoStream {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        if self.frame_index >= self.config.total_frames() {
            return None;
        }
        // Advance to the scene containing this frame.
        while self.scene_offset >= self.config.scenes[self.scene_index].frames {
            self.scene_offset -= self.config.scenes[self.scene_index].frames;
            self.scene_index += 1;
            // Scene cut: the camera segment changes, existing tracks end.
            self.objects.clear();
            for _ in 0..self.config.mean_objects.round() as usize {
                self.spawn_object();
            }
        }

        let blend = self.transition_blend();
        let domain_index = self.config.scenes[self.scene_index].domain_index;
        let domain_changed =
            domain_index != self.domain_index || blend.is_some() || self.blend.is_some();
        self.domain_index = domain_index;
        self.blend = blend;
        if domain_changed {
            self.refresh_appearances();
        }

        self.step_population();
        let motion = self.step_motion();

        let ground_truth: Vec<GroundTruthObject> = self
            .objects
            .iter()
            .map(|o| GroundTruthObject {
                track_id: o.track_id,
                class: o.class,
                bbox: o.bbox,
            })
            .collect();
        let proposals = self.make_proposals();
        let domain = active_domain(&self.config.library, self.blend.as_ref(), self.domain_index);

        let (w, h) = self.config.resolution;
        let frame = Frame {
            index: self.frame_index,
            timestamp: self.frame_index as f64 / self.config.fps as f64,
            scene_index: self.scene_index,
            domain_name: domain.name.clone(),
            ground_truth,
            proposals,
            raw_bytes: w as u64 * h as u64 * 3,
            motion_magnitude: motion,
        };

        self.frame_index += 1;
        self.scene_offset += 1;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.remaining() as usize;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Illumination, Weather};
    use crate::world::WorldConfig;

    fn two_scene_config(transition: u64) -> StreamConfig {
        let mut library = DomainLibrary::new(WorldConfig::new(3, 8, 1));
        library.generate(
            "day",
            Illumination::Day,
            Weather::Sunny,
            0.0,
            vec![3.0, 1.0, 1.0],
        );
        library.generate(
            "night",
            Illumination::Night,
            Weather::Rainy,
            0.8,
            vec![1.0, 0.2, 2.0],
        );
        StreamConfig {
            name: "test".into(),
            library,
            scenes: vec![SceneSpec::new(0, 100), SceneSpec::new(1, 100)],
            fps: 30,
            mean_objects: 5.0,
            background_proposals: 6,
            bbox_jitter: 0.12,
            proposal_miss_rate: 0.05,
            resolution: (512, 512),
            transition_frames: transition,
            seed: 7,
        }
    }

    #[test]
    fn stream_yields_exactly_total_frames() {
        let config = two_scene_config(0);
        let frames: Vec<Frame> = config.build().collect();
        assert_eq!(frames.len(), 200);
        assert_eq!(frames[0].index, 0);
        assert_eq!(frames[199].index, 199);
    }

    #[test]
    fn scene_switch_changes_domain_name() {
        let config = two_scene_config(0);
        let frames: Vec<Frame> = config.build().collect();
        assert_eq!(frames[50].domain_name, "day");
        assert_eq!(frames[150].domain_name, "night");
        assert_eq!(frames[99].scene_index, 0);
        assert_eq!(frames[100].scene_index, 1);
    }

    #[test]
    fn transition_blends_domain_names() {
        let config = two_scene_config(20);
        let frames: Vec<Frame> = config.build().collect();
        assert!(
            frames[105].domain_name.contains("->"),
            "{}",
            frames[105].domain_name
        );
        assert_eq!(frames[150].domain_name, "night");
    }

    #[test]
    fn objects_persist_across_adjacent_frames() {
        let config = two_scene_config(0);
        let frames: Vec<Frame> = config.build().take(30).collect();
        let ids_a: Vec<u64> = frames[10].ground_truth.iter().map(|o| o.track_id).collect();
        let ids_b: Vec<u64> = frames[11].ground_truth.iter().map(|o| o.track_id).collect();
        let shared = ids_a.iter().filter(|id| ids_b.contains(id)).count();
        assert!(
            shared >= ids_a.len().saturating_sub(2),
            "tracks should persist"
        );
    }

    #[test]
    fn scene_cut_resets_tracks() {
        let config = two_scene_config(0);
        let frames: Vec<Frame> = config.build().collect();
        let last_scene0: Vec<u64> = frames[99].ground_truth.iter().map(|o| o.track_id).collect();
        let first_scene1: Vec<u64> = frames[100]
            .ground_truth
            .iter()
            .map(|o| o.track_id)
            .collect();
        assert!(last_scene0.iter().all(|id| !first_scene1.contains(id)));
    }

    #[test]
    fn population_hovers_near_mean() {
        let config = two_scene_config(0);
        let frames: Vec<Frame> = config.build().collect();
        let avg = frames
            .iter()
            .skip(20)
            .map(|f| f.ground_truth.len() as f64)
            .sum::<f64>()
            / (frames.len() - 20) as f64;
        assert!((2.0..8.0).contains(&avg), "mean population {avg}");
    }

    #[test]
    fn proposals_include_objects_and_background() {
        let config = two_scene_config(0);
        let frame = config.build().nth(20).expect("frame exists");
        assert_eq!(frame.background_proposal_count(), 6);
        assert!(frame.object_proposal_count() >= 1);
    }

    #[test]
    fn object_proposals_overlap_their_ground_truth() {
        let config = two_scene_config(0);
        let frame = config.build().nth(30).expect("frame exists");
        for p in frame.proposals.iter().filter(|p| p.true_class.is_some()) {
            let gt = frame
                .ground_truth
                .iter()
                .find(|o| Some(o.track_id) == p.track_id)
                .expect("proposal references live track");
            assert!(p.bbox.iou(&gt.bbox) > 0.2, "proposal drifted too far");
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let config = two_scene_config(0);
        let a: Vec<Frame> = config.build().take(50).collect();
        let b: Vec<Frame> = config.build().take(50).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let config = two_scene_config(0);
        let a: Vec<Frame> = config.clone().with_seed(1).build().take(20).collect();
        let b: Vec<Frame> = config.with_seed(2).build().take(20).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn with_total_frames_rescales() {
        let config = two_scene_config(0).with_total_frames(50);
        assert_eq!(config.total_frames(), 50);
        let frames: Vec<Frame> = config.build().collect();
        assert_eq!(frames.len(), 50);
        // Both scenes survive the rescale.
        assert!(frames.iter().any(|f| f.scene_index == 1));
    }

    #[test]
    fn size_hint_is_exact() {
        let config = two_scene_config(0);
        let mut stream = config.build();
        assert_eq!(stream.size_hint(), (200, Some(200)));
        stream.next();
        assert_eq!(stream.size_hint(), (199, Some(199)));
    }
}

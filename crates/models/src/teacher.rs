//! The cloud "golden" teacher (Mask-R-CNN ResNeXt-101 stand-in).

use crate::data::{sample_domain_batch, LabeledSample};
use crate::detector::{classify_with, detect_with, Detection, Detector};
use shoggoth_tensor::{losses, Dense, Matrix, Mlp, Mode, Relu, SgdConfig};
use shoggoth_util::Rng;
use shoggoth_video::{ClassId, DomainLibrary, Frame};

/// Configuration of the teacher detector.
#[derive(Debug, Clone, PartialEq)]
pub struct TeacherConfig {
    /// Latent feature dimensionality.
    pub feature_dim: usize,
    /// Number of foreground classes.
    pub num_classes: usize,
    /// Hidden widths — much larger than the student's.
    pub widths: Vec<usize>,
    /// Object samples synthesized per domain for pre-training.
    pub objects_per_domain: usize,
    /// Background samples synthesized per domain for pre-training.
    pub background_per_domain: usize,
    /// Pre-training epochs.
    pub epochs: usize,
    /// Pre-training mini-batch size.
    pub batch: usize,
    /// Pre-training learning rate.
    pub lr: f32,
    /// Seed for initialization and pre-training.
    pub seed: u64,
}

impl TeacherConfig {
    /// Default configuration for a world shape.
    pub fn new(feature_dim: usize, num_classes: usize, seed: u64) -> Self {
        Self {
            feature_dim,
            num_classes,
            widths: vec![128, 128, 64],
            objects_per_domain: 600,
            background_per_domain: 300,
            epochs: 18,
            batch: 128,
            lr: 0.03,
            seed,
        }
    }

    /// Shrinks pre-training for fast unit tests.
    pub fn quick(mut self) -> Self {
        self.widths = vec![64, 48];
        self.objects_per_domain = 200;
        self.background_per_domain = 100;
        self.epochs = 10;
        self
    }
}

/// The high-capacity cloud detector, pre-trained across **all** domains of
/// a stream's library — the paper's golden labeler whose outputs stand in
/// for ground truth during online labeling.
///
/// # Examples
///
/// ```
/// use shoggoth_models::{Detector, TeacherConfig, TeacherDetector};
/// use shoggoth_video::presets;
///
/// let config = presets::kitti(9).with_total_frames(30);
/// let teacher_cfg = TeacherConfig::new(32, 1, 2).quick();
/// let mut teacher = TeacherDetector::pretrained_with(teacher_cfg, &config.library);
/// let frame = config.build().next().expect("stream has frames");
/// let detections = teacher.detect(&frame);
/// assert!(detections.len() <= frame.proposals.len());
/// ```
#[derive(Debug, Clone)]
pub struct TeacherDetector {
    net: Mlp,
    config: TeacherConfig,
}

impl TeacherDetector {
    /// Builds an untrained teacher.
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty.
    pub fn new(config: TeacherConfig) -> Self {
        assert!(
            !config.widths.is_empty(),
            "teacher needs at least one hidden layer"
        );
        let mut rng = Rng::seed_from(config.seed ^ 0x5445_4143_4845); // "TEACHE"
        let mut layers: Vec<Box<dyn shoggoth_tensor::Layer>> = Vec::new();
        let mut in_dim = config.feature_dim;
        for &w in &config.widths {
            layers.push(Box::new(Dense::new(in_dim, w, &mut rng)));
            layers.push(Box::new(Relu::new()));
            in_dim = w;
        }
        layers.push(Box::new(Dense::new(
            in_dim,
            config.num_classes + 1,
            &mut rng,
        )));
        Self {
            net: Mlp::new(layers),
            config,
        }
    }

    /// Builds a teacher with the default configuration and pre-trains it on
    /// every domain of the library.
    pub fn pretrained(library: &DomainLibrary, seed: u64) -> Self {
        let config = TeacherConfig::new(
            library.world().feature_dim(),
            library.world().num_classes(),
            seed,
        );
        Self::pretrained_with(config, library)
    }

    /// Builds and pre-trains a teacher with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's world shape disagrees with the
    /// library, or the library has no domains.
    pub fn pretrained_with(config: TeacherConfig, library: &DomainLibrary) -> Self {
        assert_eq!(
            config.feature_dim,
            library.world().feature_dim(),
            "feature dimension mismatch"
        );
        assert_eq!(
            config.num_classes,
            library.world().num_classes(),
            "class count mismatch"
        );
        assert!(!library.is_empty(), "library has no domains");
        let mut teacher = Self::new(config);
        teacher.pretrain(library);
        teacher
    }

    /// Pre-trains on samples pooled from every domain.
    ///
    /// # Panics
    ///
    /// Panics if the library's feature width disagrees with the network
    /// input — a shape pinned by the constructor.
    pub fn pretrain(&mut self, library: &DomainLibrary) {
        let mut rng = Rng::seed_from(self.config.seed ^ 0x474f_4c44); // "GOLD"
        let mut samples: Vec<LabeledSample> = Vec::new();
        for domain in library.domains() {
            samples.extend(sample_domain_batch(
                library.world(),
                domain,
                self.config.objects_per_domain,
                self.config.background_per_domain,
                &mut rng,
            ));
        }
        let sgd = SgdConfig::new(self.config.lr)
            .with_momentum(0.9)
            .with_weight_decay(1e-4);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        for _ in 0..self.config.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(self.config.batch.max(1)) {
                let selected: Vec<LabeledSample> =
                    chunk.iter().map(|&i| samples[i].clone()).collect();
                let (x, labels) = LabeledSample::to_batch(&selected);
                let logits = self
                    .net
                    .forward(&x, Mode::Train)
                    .expect("batch shape is valid");
                let (_, grad) =
                    losses::softmax_cross_entropy(&logits, &labels).expect("label shapes match");
                self.net.backward_discard(&grad).expect("forward cached");
                self.net.step(&sgd).expect("finite params");
            }
        }
    }

    /// Classification accuracy over labeled samples.
    ///
    /// # Panics
    ///
    /// Panics if the sample feature width disagrees with the network
    /// input — a shape pinned by the constructor.
    pub fn evaluate(&mut self, samples: &[LabeledSample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let (x, labels) = LabeledSample::to_batch(samples);
        let logits = self.net.forward(&x, Mode::Eval).expect("batch shape valid");
        losses::accuracy(&logits, &labels)
    }

    /// The configuration the teacher was built with.
    pub fn config(&self) -> &TeacherConfig {
        &self.config
    }

    /// Read access to the underlying network.
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Serialized model size in bytes.
    pub fn weight_bytes(&self) -> usize {
        self.net.byte_size()
    }
}

impl Detector for TeacherDetector {
    fn name(&self) -> &str {
        "teacher"
    }

    fn detect(&mut self, frame: &Frame) -> Vec<Detection> {
        detect_with(&mut self.net, self.config.num_classes, frame)
    }

    fn classify(&mut self, features: &Matrix) -> Vec<(ClassId, f32)> {
        classify_with(&mut self.net, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::student::{StudentConfig, StudentDetector};
    use shoggoth_video::{Illumination, Weather, WorldConfig};

    fn library() -> DomainLibrary {
        let mut lib = DomainLibrary::new(WorldConfig::new(3, 16, 8));
        lib.generate(
            "day",
            Illumination::Day,
            Weather::Sunny,
            0.0,
            vec![1.0, 1.0, 1.0],
        );
        lib.generate(
            "dusk",
            Illumination::Dusk,
            Weather::Cloudy,
            0.5,
            vec![1.0, 1.0, 1.0],
        );
        lib.generate(
            "night",
            Illumination::Night,
            Weather::Rainy,
            0.9,
            vec![1.0, 1.0, 1.0],
        );
        lib
    }

    #[test]
    fn teacher_is_accurate_across_all_domains() {
        let lib = library();
        let mut teacher =
            TeacherDetector::pretrained_with(TeacherConfig::new(16, 3, 1).quick(), &lib);
        let mut rng = Rng::seed_from(20);
        for (i, domain) in lib.domains().iter().enumerate() {
            let eval = sample_domain_batch(lib.world(), domain, 200, 100, &mut rng);
            let acc = teacher.evaluate(&eval);
            assert!(acc > 0.6, "domain {i} accuracy {acc}");
        }
    }

    #[test]
    fn teacher_beats_student_on_drifted_domains() {
        let lib = library();
        let mut teacher =
            TeacherDetector::pretrained_with(TeacherConfig::new(16, 3, 2).quick(), &lib);
        let mut student =
            StudentDetector::pretrained_with(StudentConfig::new(16, 3, 2).quick(), &lib, 0);
        let mut rng = Rng::seed_from(21);
        let eval = sample_domain_batch(lib.world(), lib.domain(2), 300, 150, &mut rng);
        let teacher_acc = teacher.evaluate(&eval);
        let student_acc = student.evaluate(&eval);
        assert!(
            teacher_acc > student_acc + 0.05,
            "teacher {teacher_acc} should clearly beat drifted student {student_acc}"
        );
    }

    #[test]
    fn teacher_is_larger_than_student() {
        let teacher = TeacherDetector::new(TeacherConfig::new(16, 3, 3));
        let student = StudentDetector::new(StudentConfig::new(16, 3, 3));
        assert!(teacher.weight_bytes() > 2 * student.weight_bytes());
    }

    #[test]
    fn pretraining_is_deterministic() {
        let lib = library();
        let build = || TeacherDetector::pretrained_with(TeacherConfig::new(16, 3, 7).quick(), &lib);
        let a = build().net.export_weights();
        let b = build().net.export_weights();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "library has no domains")]
    fn empty_library_rejected() {
        let lib = DomainLibrary::new(WorldConfig::new(2, 8, 1));
        TeacherDetector::pretrained_with(TeacherConfig::new(8, 2, 1).quick(), &lib);
    }
}

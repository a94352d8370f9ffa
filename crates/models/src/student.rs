//! The lightweight edge detector (YOLOv4-ResNet18 stand-in).

use crate::data::{sample_domain_batch, LabeledSample};
use crate::detector::{classify_with, detect_with, Detection, Detector};
use shoggoth_tensor::{losses, BatchRenorm, Dense, Matrix, Mlp, Mode, Relu, SgdConfig};
use shoggoth_util::Rng;
use shoggoth_video::{ClassId, DomainLibrary, Frame};

/// Configuration of the student detector.
///
/// The default architecture mirrors the paper's setup at latent-space
/// scale: three hidden blocks (`Dense → BatchRenorm → ReLU`) and a linear
/// classification head. The *replay layer* defaults to the penultimate
/// layer ("pool" in the paper), i.e. activations are stored right before
/// the head.
#[derive(Debug, Clone, PartialEq)]
pub struct StudentConfig {
    /// Latent feature dimensionality (must match the stream's world).
    pub feature_dim: usize,
    /// Number of foreground classes (the head adds one background logit).
    pub num_classes: usize,
    /// Hidden-block widths.
    pub widths: Vec<usize>,
    /// Width of the detection head's hidden layer. The head (everything
    /// after the replay layer) is what adaptive training fully retrains —
    /// the paper's "full learning of all layers after the replay layer" —
    /// so it needs genuine capacity.
    pub head_width: usize,
    /// Confidence threshold θ (the paper uses 0.5).
    pub confidence_threshold: f32,
    /// Object samples synthesized for pre-training.
    pub pretrain_objects: usize,
    /// Background samples synthesized for pre-training.
    pub pretrain_background: usize,
    /// Pre-training epochs.
    pub pretrain_epochs: usize,
    /// Pre-training mini-batch size.
    pub pretrain_batch: usize,
    /// Pre-training learning rate.
    pub pretrain_lr: f32,
    /// Number of auxiliary domains synthesized for generic backbone
    /// pre-training (the ImageNet-pretraining stand-in). The real
    /// YOLOv4-ResNet18 backbone is pre-trained on large diverse corpora,
    /// which is what makes the paper's frozen-front latent replay viable;
    /// we reproduce that by pre-training the front across `backbone_domains`
    /// randomly-generated domains (never the stream's own domains) before
    /// specializing the head on the source domain.
    pub backbone_domains: usize,
    /// Weight-initialization / pre-training seed.
    pub seed: u64,
}

impl StudentConfig {
    /// Default configuration for a given world shape.
    pub fn new(feature_dim: usize, num_classes: usize, seed: u64) -> Self {
        Self {
            feature_dim,
            num_classes,
            widths: vec![64, 64, 48],
            head_width: 32,
            confidence_threshold: 0.5,
            pretrain_objects: 1000,
            pretrain_background: 500,
            pretrain_epochs: 25,
            pretrain_batch: 64,
            pretrain_lr: 0.05,
            backbone_domains: 8,
            seed,
        }
    }

    /// Shrinks pre-training for fast unit tests.
    pub fn quick(mut self) -> Self {
        self.widths = vec![32, 24];
        self.head_width = 16;
        self.pretrain_objects = 240;
        self.pretrain_background = 120;
        self.pretrain_epochs = 12;
        self.backbone_domains = 5;
        self
    }
}

/// The lightweight, online-trainable edge detector.
///
/// # Examples
///
/// ```
/// use shoggoth_models::{Detector, StudentConfig, StudentDetector};
/// use shoggoth_video::presets;
///
/// let config = presets::kitti(3).with_total_frames(30);
/// let student_cfg = StudentConfig::new(32, 1, 5).quick();
/// let mut student = StudentDetector::pretrained_with(student_cfg, &config.library, 0);
/// let frame = config.build().next().expect("stream has frames");
/// let detections = student.detect(&frame);
/// assert!(detections.iter().all(|d| d.confidence > 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct StudentDetector {
    net: Mlp,
    config: StudentConfig,
    /// Layer index at which latent replay injects by default (input of the
    /// classification head).
    default_replay_layer: usize,
}

impl StudentDetector {
    /// Builds an untrained student from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty.
    pub fn new(config: StudentConfig) -> Self {
        assert!(
            !config.widths.is_empty(),
            "student needs at least one hidden block"
        );
        let mut rng = Rng::seed_from(config.seed ^ 0x5354_5544); // "STUD"
        let mut layers: Vec<Box<dyn shoggoth_tensor::Layer>> = Vec::new();
        // Input normalization: real detectors standardize inputs and carry
        // early BN layers; adapting these statistics online is what
        // absorbs illumination/contrast drift under the freeze policy.
        layers.push(Box::new(BatchRenorm::new(config.feature_dim)));
        let mut in_dim = config.feature_dim;
        for &w in &config.widths {
            layers.push(Box::new(Dense::new(in_dim, w, &mut rng)));
            layers.push(Box::new(BatchRenorm::new(w)));
            layers.push(Box::new(Relu::new()));
            in_dim = w;
        }
        // Detection head: everything after the replay layer ("pool").
        // Adaptive training retrains all of it, so it carries real
        // capacity: a hidden layer plus the classification layer.
        let head_input = layers.len();
        layers.push(Box::new(Dense::new(in_dim, config.head_width, &mut rng)));
        layers.push(Box::new(Relu::new()));
        layers.push(Box::new(Dense::new(
            config.head_width,
            config.num_classes + 1,
            &mut rng,
        )));
        let net = Mlp::new(layers);
        Self {
            net,
            config,
            default_replay_layer: head_input,
        }
    }

    /// Builds a student with the default configuration and pre-trains it on
    /// one domain of the library (conventionally domain 0, the source).
    pub fn pretrained(library: &DomainLibrary, domain_index: usize, seed: u64) -> Self {
        let config = StudentConfig::new(
            library.world().feature_dim(),
            library.world().num_classes(),
            seed,
        );
        Self::pretrained_with(config, library, domain_index)
    }

    /// Builds and pre-trains a student with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's world shape disagrees with the library
    /// or `domain_index` is out of range.
    pub fn pretrained_with(
        config: StudentConfig,
        library: &DomainLibrary,
        domain_index: usize,
    ) -> Self {
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
        let mut student = Self::new(config);
        student.pretrain_on_domain(library, domain_index);
        student
    }

    /// Pre-trains the network in two phases, mirroring the paper's setup:
    ///
    /// 1. **Backbone pre-training** — the full network trains on samples
    ///    from [`StudentConfig::backbone_domains`] auxiliary domains
    ///    synthesized from the same feature world but *disjoint from the
    ///    stream's own domains* (the ImageNet-pretraining stand-in). This
    ///    gives the front layers the drift-robust low-level features the
    ///    paper's freeze policy relies on.
    /// 2. **Head specialization** — only the classification head trains on
    ///    the given (source) domain, so the deployed model is
    ///    source-specialized exactly like a detector fine-tuned for one
    ///    camera.
    pub fn pretrain_on_domain(&mut self, library: &DomainLibrary, domain_index: usize) {
        let mut rng = Rng::seed_from(self.config.seed ^ 0x5052_4554); // "PRET"

        // Phase 1: generic backbone corpus from auxiliary domains.
        if self.config.backbone_domains > 0 {
            // Same world (same class prototypes), but an independent
            // domain-generation stream so the auxiliary corpus never
            // replicates the stream's own domains.
            let mut aux = DomainLibrary::with_domain_seed(
                library.world().config().clone(),
                self.config.seed ^ 0x4241_434b, // "BACK"
            );
            let mut corpus = Vec::new();
            for i in 0..self.config.backbone_domains {
                use shoggoth_video::{Illumination, Weather};
                let illum = match i % 3 {
                    0 => Illumination::Day,
                    1 => Illumination::Dusk,
                    _ => Illumination::Night,
                };
                let weather = match (i / 3) % 3 {
                    0 => Weather::Sunny,
                    1 => Weather::Cloudy,
                    _ => Weather::Rainy,
                };
                let severity = rng.range_f64(0.2, 0.9) as f32;
                let mix = vec![1.0; library.world().num_classes()];
                let domain = aux.generate(&format!("aux-{i}"), illum, weather, severity, mix);
                corpus.extend(sample_domain_batch(
                    library.world(),
                    &domain,
                    self.config.pretrain_objects / 2,
                    self.config.pretrain_background / 2,
                    &mut rng,
                ));
            }
            self.fit(
                &corpus,
                self.config.pretrain_epochs,
                self.config.pretrain_batch,
                self.config.pretrain_lr,
                &mut rng,
            );
        }

        // Phase 2: specialize the head on the source domain.
        let samples = sample_domain_batch(
            library.world(),
            library.domain(domain_index),
            self.config.pretrain_objects,
            self.config.pretrain_background,
            &mut rng,
        );
        let front_scale = if self.config.backbone_domains > 0 {
            0.0
        } else {
            1.0
        };
        self.fit_scaled(
            &samples,
            self.config.pretrain_epochs,
            self.config.pretrain_batch,
            self.config.pretrain_lr,
            front_scale,
            &mut rng,
        );
    }

    /// Plain supervised fitting over labeled samples (used for
    /// pre-training; *adaptive* training with replay lives in the core
    /// crate's trainer).
    pub fn fit(
        &mut self,
        samples: &[LabeledSample],
        epochs: usize,
        batch: usize,
        lr: f32,
        rng: &mut Rng,
    ) {
        self.fit_scaled(samples, epochs, batch, lr, 1.0, rng);
    }

    /// Supervised fitting with a reduced learning rate on the layers
    /// before the default replay layer (`front_scale = 0` trains the head
    /// only, `1.0` trains everything).
    ///
    /// # Panics
    ///
    /// Panics if the sample feature width disagrees with the network
    /// input — a shape pinned by the constructor.
    pub fn fit_scaled(
        &mut self,
        samples: &[LabeledSample],
        epochs: usize,
        batch: usize,
        lr: f32,
        front_scale: f32,
        rng: &mut Rng,
    ) {
        if samples.is_empty() {
            return;
        }
        let sgd = SgdConfig::new(lr)
            .with_momentum(0.9)
            .with_weight_decay(1e-4);
        let boundary = self.default_replay_layer;
        let scales: Vec<f32> = (0..self.net.len())
            .map(|i| if i < boundary { front_scale } else { 1.0 })
            .collect();
        let mut order: Vec<usize> = (0..samples.len()).collect();
        for _ in 0..epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(batch.max(1)) {
                let selected: Vec<LabeledSample> =
                    chunk.iter().map(|&i| samples[i].clone()).collect();
                let (x, labels) = LabeledSample::to_batch(&selected);
                let logits = self
                    .net
                    .forward(&x, Mode::Train)
                    .expect("pretrain batch shape is valid");
                let (_, grad) =
                    losses::softmax_cross_entropy(&logits, &labels).expect("label shapes match");
                self.net.backward_discard(&grad).expect("forward cached");
                self.net
                    .step_scaled(&sgd, &scales)
                    .expect("scales match layer count");
            }
        }
    }

    /// Classification accuracy over labeled samples (eval mode).
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

    /// The layer index at which latent replay injects by default (the
    /// paper's "penultimate (pool)" layer — the input of the head).
    pub fn default_replay_layer(&self) -> usize {
        self.default_replay_layer
    }

    /// Number of layers in the network.
    pub fn layer_count(&self) -> usize {
        self.net.len()
    }

    /// The configuration the student was built with.
    pub fn config(&self) -> &StudentConfig {
        &self.config
    }

    /// Confidence threshold θ used for the paper's α estimate.
    pub fn confidence_threshold(&self) -> f32 {
        self.config.confidence_threshold
    }

    /// Read access to the underlying network.
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Mutable access to the underlying network (the adaptive trainer needs
    /// partial forward/backward control).
    pub fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }

    /// Serialized model size in bytes (what AMS ships per update).
    pub fn weight_bytes(&self) -> usize {
        self.net.byte_size()
    }
}

impl Detector for StudentDetector {
    fn name(&self) -> &str {
        "student"
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
    use shoggoth_video::{Illumination, Weather, WorldConfig};

    fn library() -> DomainLibrary {
        let mut lib = DomainLibrary::new(WorldConfig::new(3, 16, 4));
        lib.generate(
            "day",
            Illumination::Day,
            Weather::Sunny,
            0.0,
            vec![1.0, 1.0, 1.0],
        );
        // A heavy but low-noise drift: recoverable by adaptation (the
        // noise-limited night ceiling would mask recovery).
        lib.generate(
            "night",
            Illumination::Dusk,
            Weather::Cloudy,
            0.9,
            vec![1.0, 1.0, 1.0],
        );
        lib
    }

    fn quick_config() -> StudentConfig {
        StudentConfig::new(16, 3, 1).quick()
    }

    #[test]
    fn pretraining_learns_the_source_domain() {
        let lib = library();
        let mut student = StudentDetector::pretrained_with(quick_config(), &lib, 0);
        let mut rng = Rng::seed_from(10);
        let eval = sample_domain_batch(lib.world(), lib.domain(0), 200, 100, &mut rng);
        let acc = student.evaluate(&eval);
        assert!(acc > 0.75, "source-domain accuracy {acc}");
    }

    #[test]
    fn data_drift_degrades_the_student() {
        // The core claim behind the whole paper: a lightweight model
        // pre-trained on one domain loses accuracy on a severe domain.
        let lib = library();
        let mut student = StudentDetector::pretrained_with(quick_config(), &lib, 0);
        let mut rng = Rng::seed_from(11);
        let source = sample_domain_batch(lib.world(), lib.domain(0), 300, 150, &mut rng);
        let drifted = sample_domain_batch(lib.world(), lib.domain(1), 300, 150, &mut rng);
        let acc_source = student.evaluate(&source);
        let acc_drifted = student.evaluate(&drifted);
        assert!(
            acc_drifted < acc_source - 0.10,
            "drift should hurt: source {acc_source}, drifted {acc_drifted}"
        );
    }

    #[test]
    fn fine_tuning_on_drifted_data_recovers_accuracy() {
        let lib = library();
        let mut student = StudentDetector::pretrained_with(quick_config(), &lib, 0);
        let mut rng = Rng::seed_from(12);
        let train = sample_domain_batch(lib.world(), lib.domain(1), 300, 150, &mut rng);
        let eval = sample_domain_batch(lib.world(), lib.domain(1), 300, 150, &mut rng);
        let before = student.evaluate(&eval);
        student.fit(&train, 10, 64, 0.03, &mut rng);
        let after = student.evaluate(&eval);
        assert!(
            after > before + 0.04,
            "fine-tuning should recover accuracy: {before} -> {after}"
        );
    }

    #[test]
    fn default_replay_layer_is_head_input() {
        let student = StudentDetector::new(quick_config());
        // Input BRN + 2 hidden blocks of 3 layers -> head input at index 7.
        assert_eq!(student.default_replay_layer(), 7);
        // Head: Dense -> ReLU -> Dense.
        assert_eq!(student.layer_count(), 10);
    }

    #[test]
    fn detect_drops_background_predictions() {
        let lib = library();
        let mut student = StudentDetector::pretrained_with(quick_config(), &lib, 0);
        let mut rng = Rng::seed_from(13);
        // A frame of pure background proposals should yield few detections.
        let bg_features: Vec<Vec<f32>> = (0..20)
            .map(|_| lib.domain(0).background_appearance(&mut rng))
            .collect();
        let frame = Frame {
            index: 0,
            timestamp: 0.0,
            scene_index: 0,
            domain_name: "day".into(),
            ground_truth: Vec::new(),
            proposals: bg_features
                .into_iter()
                .map(|features| shoggoth_video::Proposal {
                    bbox: shoggoth_video::BBox::new(0.1, 0.1, 0.1, 0.1),
                    features,
                    true_class: None,
                    track_id: None,
                })
                .collect(),
            raw_bytes: 0,
            motion_magnitude: 0.0,
        };
        let detections = student.detect(&frame);
        assert!(
            detections.len() <= 6,
            "too many false positives on background: {}",
            detections.len()
        );
    }

    #[test]
    fn classify_on_empty_batch_is_empty() {
        let mut student = StudentDetector::new(quick_config());
        assert!(student.classify(&Matrix::zeros(0, 16)).is_empty());
    }

    #[test]
    fn weight_bytes_counts_parameters() {
        let student = StudentDetector::new(quick_config());
        assert_eq!(student.weight_bytes(), student.net().param_count() * 4);
    }
}

//! Adaptive training with latent replay — the paper's §III-B.
//!
//! A training session takes the freshly-labeled batch from the cloud,
//! mixes it with replay memory in a **constant original:replay proportion**
//! per mini-batch (`K·N/(N+M)` fresh, `K·M/(N+M)` replay), injects replay
//! activations at the replay layer, and backpropagates only through the
//! layers the freeze policy leaves trainable. Batch Renormalization
//! statistics in the (frozen) front keep adapting to the input statistics,
//! exactly as the paper prescribes.

use crate::error::{InvalidConfig, TrainError};
use crate::replay::{ReplayItem, ReplayMemory};
use shoggoth_models::{LabeledSample, StudentDetector};
use shoggoth_tensor::{losses, Matrix, Mode, SgdConfig};
use shoggoth_util::Rng;

/// Where the replay memory attaches to the student network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayPlacement {
    /// Replay raw inputs (the paper's slow "Input" ablation).
    Input,
    /// Replay at the penultimate layer — the paper's choice ("pool").
    Penultimate,
    /// Replay at an explicit layer index (the "conv5_4"-style ablation).
    Layer(usize),
}

/// How the layers before the replay layer are treated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FreezePolicy {
    /// The paper's baseline: front weights train only on the very first
    /// mini-batch of the very first session, then their learning rate is
    /// set to 0 — while BRN statistics keep adapting (front forward passes
    /// run in train mode once per session).
    FreezeAfterFirstBatch,
    /// Front entirely frozen: weights *and* normalization statistics
    /// (front forward passes run in eval mode).
    CompletelyFrozen,
    /// Front trains at a reduced learning-rate scale every mini-batch.
    SlowFront {
        /// Learning-rate multiplier for the front layers.
        scale: f32,
    },
    /// Everything trains at full rate (no freeze).
    FullyTrainable,
}

impl FreezePolicy {
    /// Whether front weights receive gradient after warm-up.
    fn front_trains(&self) -> bool {
        matches!(
            self,
            FreezePolicy::SlowFront { .. } | FreezePolicy::FullyTrainable
        )
    }

    /// Learning-rate scale for front layers after warm-up.
    fn front_scale(&self) -> f32 {
        match self {
            FreezePolicy::SlowFront { scale } => *scale,
            FreezePolicy::FullyTrainable => 1.0,
            _ => 0.0,
        }
    }
}

/// Adaptive-training hyper-parameters.
///
/// The paper trains on 300-frame batches with 1500 replay images; the
/// simulation defaults scale the session down (60 fresh frames) so a
/// 30-minute synthetic stream contains many sessions — see DESIGN.md.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerConfig {
    /// Sampled frames per training batch (`N`, in frames).
    pub batch_frames: usize,
    /// Replay memory capacity in samples (proposals).
    pub replay_capacity: usize,
    /// Mini-batch size `K` (the paper uses 64).
    pub mini_batch: usize,
    /// Epochs per session (the paper uses 8).
    pub epochs: usize,
    /// Learning rate of the trainable layers.
    pub learning_rate: f32,
    /// Where replay attaches.
    pub placement: ReplayPlacement,
    /// Freeze policy for the front layers.
    pub freeze: FreezePolicy,
}

impl TrainerConfig {
    /// The paper's configuration at simulation scale.
    pub fn paper_scaled() -> Self {
        Self {
            batch_frames: 60,
            replay_capacity: 3000,
            mini_batch: 64,
            epochs: 8,
            learning_rate: 0.02,
            placement: ReplayPlacement::Penultimate,
            freeze: FreezePolicy::FreezeAfterFirstBatch,
        }
    }

    /// Tiny sessions for fast tests.
    pub fn quick() -> Self {
        Self {
            batch_frames: 12,
            replay_capacity: 400,
            mini_batch: 32,
            epochs: 4,
            ..Self::paper_scaled()
        }
    }

    /// Checks the configuration before a run uses it.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] if the replay capacity or the batch size
    /// is zero, or if the learning rate or a slow-front scale is negative
    /// or not finite.
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        let reject = |reason| InvalidConfig {
            component: "trainer",
            reason,
        };
        if self.replay_capacity == 0 {
            return Err(reject("replay capacity must be at least 1"));
        }
        if self.batch_frames == 0 {
            return Err(reject("batch frames must be at least 1"));
        }
        if !self.learning_rate.is_finite() || self.learning_rate < 0.0 {
            return Err(reject("learning rate must be finite and non-negative"));
        }
        if let FreezePolicy::SlowFront { scale } = self.freeze {
            if !scale.is_finite() || scale < 0.0 {
                return Err(reject("slow-front scale must be finite and non-negative"));
            }
        }
        Ok(())
    }
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self::paper_scaled()
    }
}

/// Statistics of one completed training session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionReport {
    /// Fresh samples in the session.
    pub fresh_samples: usize,
    /// Replay samples drawn over all mini-batches.
    pub replay_samples_used: usize,
    /// Mini-batches executed.
    pub mini_batches: usize,
    /// Mean training loss over the session.
    pub mean_loss: f64,
    /// Loss of the session's first mini-batch (0.0 when none ran) — with
    /// [`last_batch_loss`](Self::last_batch_loss), the within-session
    /// convergence signal telemetry plots.
    pub first_batch_loss: f64,
    /// Loss of the session's final mini-batch (0.0 when none ran).
    pub last_batch_loss: f64,
}

/// The edge device's adaptive trainer: owns the replay memory and runs
/// training sessions against a [`StudentDetector`].
///
/// # Examples
///
/// ```
/// use shoggoth::trainer::{AdaptiveTrainer, TrainerConfig};
/// use shoggoth_models::{LabeledSample, StudentConfig, StudentDetector};
/// use shoggoth_util::Rng;
///
/// let mut trainer = AdaptiveTrainer::new(TrainerConfig::quick());
/// let mut student = StudentDetector::new(StudentConfig::new(8, 2, 0).quick());
/// let mut rng = Rng::seed_from(0);
/// let fresh: Vec<LabeledSample> = (0..50)
///     .map(|i| LabeledSample { features: vec![i as f32 * 0.01; 8], label: i % 3 })
///     .collect();
/// let report = trainer.train_session(&mut student, &fresh, &mut rng)?;
/// assert_eq!(report.fresh_samples, 50);
/// assert!(!trainer.memory().is_empty());
/// # Ok::<(), shoggoth::error::TrainError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveTrainer {
    config: TrainerConfig,
    memory: ReplayMemory,
    sessions: usize,
}

impl AdaptiveTrainer {
    /// Creates a trainer with an empty replay memory.
    pub fn new(config: TrainerConfig) -> Self {
        let memory = ReplayMemory::new(config.replay_capacity);
        Self {
            config,
            memory,
            sessions: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// The replay memory.
    pub fn memory(&self) -> &ReplayMemory {
        &self.memory
    }

    /// Completed sessions.
    pub fn sessions(&self) -> usize {
        self.sessions
    }

    /// Resolves the replay placement to a concrete layer index of the
    /// student network.
    pub fn resolve_replay_layer(&self, student: &StudentDetector) -> usize {
        match self.config.placement {
            ReplayPlacement::Input => 0,
            ReplayPlacement::Penultimate => student.default_replay_layer(),
            ReplayPlacement::Layer(i) => i.min(student.layer_count()),
        }
    }

    /// Runs one adaptive training session on freshly-labeled samples.
    ///
    /// Empty `fresh` batches only tick the replay-memory run counter.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Tensor`] when the tensor engine rejects an
    /// operation — a sample feature width that does not match the student
    /// network, or (with the `finite-check` feature) a poisoned tensor the
    /// session produced. The student may have taken some update steps by
    /// then; callers that need transactional behavior should train a clone.
    pub fn train_session(
        &mut self,
        student: &mut StudentDetector,
        fresh: &[LabeledSample],
        rng: &mut Rng,
    ) -> Result<SessionReport, TrainError> {
        if fresh.is_empty() {
            self.memory.integrate(Vec::new(), rng);
            self.sessions += 1;
            return Ok(SessionReport {
                fresh_samples: 0,
                replay_samples_used: 0,
                mini_batches: 0,
                mean_loss: 0.0,
                first_batch_loss: 0.0,
                last_batch_loss: 0.0,
            });
        }
        let replay_layer = self.resolve_replay_layer(student);
        let (x_fresh, labels_fresh) = LabeledSample::to_batch(fresh);
        let n = fresh.len();
        let m = self.memory.len();
        let k = self.config.mini_batch.max(2);

        // Constant original:replay proportion (§III-B training control).
        let k_fresh = if m == 0 {
            k
        } else {
            ((k * n) as f64 / (n + m) as f64).round().max(1.0) as usize
        };
        let k_replay = k.saturating_sub(k_fresh).min(m);

        let front_trains = self.config.freeze.front_trains() && replay_layer > 0;
        let warm_up_front = matches!(self.config.freeze, FreezePolicy::FreezeAfterFirstBatch)
            && self.sessions == 0
            && replay_layer > 0;

        // Frozen-front fast path: compute fresh activations once per
        // session. Train mode for the paper baseline (BRN statistics keep
        // adapting), eval mode when completely frozen.
        let cached_fresh_acts = if front_trains {
            None
        } else {
            let mode = match self.config.freeze {
                FreezePolicy::CompletelyFrozen => Mode::Eval,
                _ => Mode::Train,
            };
            Some(
                student
                    .net_mut()
                    .forward_range(0..replay_layer, &x_fresh, mode)
                    .map_err(TrainError::tensor("session-cached front forward pass"))?,
            )
        };

        let sgd = SgdConfig::new(self.config.learning_rate)
            .with_momentum(0.9)
            .with_weight_decay(1e-4);
        let layer_count = student.layer_count();
        let mut scales = vec![1.0f32; layer_count];

        let mut order: Vec<usize> = (0..n).collect();
        let mut loss_sum = 0.0f64;
        let mut first_batch_loss = 0.0f64;
        let mut last_batch_loss = 0.0f64;
        let mut mini_batches = 0usize;
        let mut replay_used = 0usize;
        let mut first_mini_batch = true;

        // Persistent scratch for the mini-batch loop: storage is reused
        // across iterations and epochs so the steady-state step allocates
        // nothing on the tensor path.
        let mut labels: Vec<usize> = Vec::with_capacity(k);
        let mut x_rows = Matrix::zeros(0, 0);
        let mut fresh_acts = Matrix::zeros(0, 0);
        let mut acts_buf = Matrix::zeros(0, 0);
        let mut grad = Matrix::zeros(0, 0);
        let mut grad_fresh = Matrix::zeros(0, 0);

        for _ in 0..self.config.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(k_fresh) {
                // Assemble the fresh part of the mini-batch.
                labels.clear();
                labels.extend(chunk.iter().map(|&i| labels_fresh[i]));

                // Fresh activations at the replay layer.
                if let Some(cached) = &cached_fresh_acts {
                    cached.select_rows_into(chunk, &mut fresh_acts);
                } else {
                    x_fresh.select_rows_into(chunk, &mut x_rows);
                    let out = student
                        .net_mut()
                        .forward_range(0..replay_layer, &x_rows, Mode::Train)
                        .map_err(TrainError::tensor("front forward pass"))?;
                    // Hand last iteration's buffer back to the workspace the
                    // new activations came from.
                    student
                        .net_mut()
                        .recycle(std::mem::replace(&mut fresh_acts, out));
                }

                // Replay part: fresh rows first, then sampled replay
                // activations, in one contiguous batch at the replay layer.
                let replay_items = self.memory.sample(k_replay, rng);
                replay_used += replay_items.len();
                let acts: &Matrix = if replay_items.is_empty() {
                    &fresh_acts
                } else {
                    let fresh_n = fresh_acts.rows();
                    let width = fresh_acts.cols();
                    acts_buf.resize_zeroed(fresh_n + replay_items.len(), width);
                    acts_buf.as_mut_slice()[..fresh_n * width]
                        .copy_from_slice(fresh_acts.as_slice());
                    for (r, item) in replay_items.iter().enumerate() {
                        acts_buf
                            .row_mut(fresh_n + r)
                            .copy_from_slice(&item.activation);
                        labels.push(item.label);
                    }
                    &acts_buf
                };

                // Forward through the tail, loss, backward to the replay
                // layer.
                let logits = student
                    .net_mut()
                    .forward_range(replay_layer..layer_count, acts, Mode::Train)
                    .map_err(TrainError::tensor("tail forward pass"))?;
                let loss = losses::softmax_cross_entropy_into(&logits, &labels, &mut grad)
                    .map_err(TrainError::tensor("loss evaluation"))?;
                loss_sum += loss as f64;
                if mini_batches == 0 {
                    first_batch_loss = loss as f64;
                }
                last_batch_loss = loss as f64;
                student.net_mut().recycle(logits);
                // Backward through the tail; continue into the front for
                // the fresh rows only when the front is trainable (or
                // during the warm-up mini-batch). The `_discard` variants
                // skip the bottom layer's unused input-gradient matmul.
                let train_front_now = front_trains || (warm_up_front && first_mini_batch);
                if train_front_now && replay_layer > 0 {
                    let grad_at_replay = student
                        .net_mut()
                        .backward_range(replay_layer..layer_count, &grad)
                        .map_err(TrainError::tensor("tail backward pass"))?;
                    if cached_fresh_acts.is_some() {
                        // Warm-up with a frozen-front cache: run a fresh
                        // train-mode front pass so caches exist.
                        x_fresh.select_rows_into(chunk, &mut x_rows);
                        let warm = student
                            .net_mut()
                            .forward_range(0..replay_layer, &x_rows, Mode::Train)
                            .map_err(TrainError::tensor("warm-up front forward pass"))?;
                        student.net_mut().recycle(warm);
                    }
                    grad_at_replay.rows_range_into(0..chunk.len(), &mut grad_fresh);
                    student
                        .net_mut()
                        .backward_range_discard(0..replay_layer, &grad_fresh)
                        .map_err(TrainError::tensor("front backward pass"))?;
                    student.net_mut().recycle(grad_at_replay);
                } else {
                    student
                        .net_mut()
                        .backward_range_discard(replay_layer..layer_count, &grad)
                        .map_err(TrainError::tensor("tail backward pass"))?;
                }

                // Per-layer learning-rate scales.
                let front_scale = if warm_up_front && first_mini_batch {
                    1.0
                } else {
                    self.config.freeze.front_scale()
                };
                for (i, s) in scales.iter_mut().enumerate() {
                    *s = if i < replay_layer { front_scale } else { 1.0 };
                }
                student
                    .net_mut()
                    .step_scaled(&sgd, &scales)
                    .map_err(TrainError::tensor("SGD parameter step"))?;
                first_mini_batch = false;
                mini_batches += 1;
            }
        }
        if let Some(cached) = cached_fresh_acts {
            student.net_mut().recycle(cached);
        }

        // Store this batch's activations in replay memory (Algorithm 1),
        // captured with the post-session front layers. The per-item row
        // copies are the items' own storage, moved into the memory below.
        let final_acts = student
            .net_mut()
            .activation_at(replay_layer, &x_fresh)
            .map_err(TrainError::tensor("replay activation capture"))?;
        let items: Vec<ReplayItem> = (0..n)
            .map(|r| ReplayItem {
                activation: final_acts.row(r).to_vec(),
                label: labels_fresh[r],
                stored_at_run: 0,
            })
            .collect();
        student.net_mut().recycle(final_acts);
        self.memory.integrate(items, rng);
        self.sessions += 1;

        Ok(SessionReport {
            fresh_samples: n,
            replay_samples_used: replay_used,
            mini_batches,
            mean_loss: if mini_batches == 0 {
                0.0
            } else {
                loss_sum / mini_batches as f64
            },
            first_batch_loss,
            last_batch_loss,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shoggoth_models::{sample_domain_batch, StudentConfig};
    use shoggoth_video::{DomainLibrary, Illumination, Weather, WorldConfig};

    fn library() -> DomainLibrary {
        let mut lib = DomainLibrary::new(WorldConfig::new(3, 16, 30));
        lib.generate(
            "day",
            Illumination::Day,
            Weather::Sunny,
            0.0,
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

    fn pretrained_student(lib: &DomainLibrary) -> StudentDetector {
        StudentDetector::pretrained_with(StudentConfig::new(16, 3, 40).quick(), lib, 0)
    }

    #[test]
    fn session_reports_composition() {
        let lib = library();
        let mut student = pretrained_student(&lib);
        let mut trainer = AdaptiveTrainer::new(TrainerConfig::quick());
        let mut rng = Rng::seed_from(50);
        let fresh = sample_domain_batch(lib.world(), lib.domain(1), 80, 40, &mut rng);
        let report = trainer
            .train_session(&mut student, &fresh, &mut rng)
            .expect("session trains");
        assert_eq!(report.fresh_samples, 120);
        assert!(report.mini_batches > 0);
        assert_eq!(trainer.sessions(), 1);
        assert_eq!(trainer.memory().len(), 120);
        // First session: memory was empty, so no replay could be drawn.
        assert_eq!(report.replay_samples_used, 0);
        // Second session draws replay.
        let fresh2 = sample_domain_batch(lib.world(), lib.domain(1), 80, 40, &mut rng);
        let report2 = trainer
            .train_session(&mut student, &fresh2, &mut rng)
            .expect("session trains");
        assert!(report2.replay_samples_used > 0);
    }

    #[test]
    fn adaptation_recovers_drifted_accuracy() {
        let lib = library();
        let mut student = pretrained_student(&lib);
        let mut trainer = AdaptiveTrainer::new(TrainerConfig::quick());
        let mut rng = Rng::seed_from(51);
        let eval = sample_domain_batch(lib.world(), lib.domain(1), 300, 150, &mut rng);
        let before = student.evaluate(&eval);
        for _ in 0..4 {
            let fresh = sample_domain_batch(lib.world(), lib.domain(1), 100, 50, &mut rng);
            trainer
                .train_session(&mut student, &fresh, &mut rng)
                .expect("session trains");
        }
        let after = student.evaluate(&eval);
        // The robust backbone limits the drift drop, and the night domain
        // is noise-limited, so recovery headroom is a few points.
        assert!(
            after > before + 0.02,
            "adaptive training should recover accuracy: {before} -> {after}"
        );
    }

    #[test]
    fn replay_fights_catastrophic_forgetting() {
        // The forgetting scenario the paper targets: the model adapts to a
        // new domain (night), then the scene moves on (back to day). With
        // replay, the hard-won night knowledge stays in memory and keeps
        // being rehearsed; without replay, day-only sessions overwrite it.
        let lib = library();
        let mut rng = Rng::seed_from(52);
        let night_eval = sample_domain_batch(lib.world(), lib.domain(1), 300, 150, &mut rng);

        let run = |use_replay: bool, rng: &mut Rng| {
            let mut student = pretrained_student(&lib);
            let mut config = TrainerConfig::quick();
            // Freeze normalization statistics too, so the head is the only
            // knowledge carrier and the comparison isolates replay (BRN
            // statistics always track the current domain and cannot be
            // protected by any replay scheme — the paper's aging effect).
            config.freeze = FreezePolicy::CompletelyFrozen;
            if !use_replay {
                // A memory of one sample: the fresh:replay mix rounds to
                // all-fresh, so replay is effectively disabled.
                config.replay_capacity = 1;
            }
            let mut trainer = AdaptiveTrainer::new(config);
            // Adapt to night.
            for _ in 0..4 {
                let fresh = sample_domain_batch(lib.world(), lib.domain(1), 100, 50, rng);
                trainer
                    .train_session(&mut student, &fresh, rng)
                    .expect("session trains");
            }
            // The scene returns to day for a long stretch.
            for _ in 0..8 {
                let fresh = sample_domain_batch(lib.world(), lib.domain(0), 100, 50, rng);
                trainer
                    .train_session(&mut student, &fresh, rng)
                    .expect("session trains");
            }
            student
        };
        let mut with_replay = run(true, &mut rng);
        let mut without_replay = run(false, &mut rng);
        let acc_with = with_replay.evaluate(&night_eval);
        let acc_without = without_replay.evaluate(&night_eval);
        assert!(
            acc_with > acc_without + 0.015,
            "replay should retain night-domain accuracy: with {acc_with}, without {acc_without}"
        );
    }

    #[test]
    fn frozen_front_weights_do_not_move() {
        let lib = library();
        let mut student = pretrained_student(&lib);
        let mut trainer = AdaptiveTrainer::new(TrainerConfig {
            freeze: FreezePolicy::CompletelyFrozen,
            ..TrainerConfig::quick()
        });
        let mut rng = Rng::seed_from(53);
        let before = student.net().export_weights();
        let fresh = sample_domain_batch(lib.world(), lib.domain(1), 60, 30, &mut rng);
        trainer
            .train_session(&mut student, &fresh, &mut rng)
            .expect("session trains");
        let after = student.net().export_weights();
        // The head must have trained...
        assert_ne!(before, after, "head should have trained");
        // ...but the change is confined to the head. Weight export is in
        // layer order, so everything before the head block (the quick()
        // config's head: Dense 24->16 then Dense 16->4) must be
        // bit-identical.
        let head_params = (24 * 16 + 16) + (16 * 4 + 4);
        let front_len = before.len() - head_params;
        assert_eq!(
            &before[..front_len],
            &after[..front_len],
            "front layers moved despite CompletelyFrozen"
        );
    }

    #[test]
    fn input_placement_trains_on_raw_features() {
        let lib = library();
        let mut student = pretrained_student(&lib);
        let mut trainer = AdaptiveTrainer::new(TrainerConfig {
            placement: ReplayPlacement::Input,
            ..TrainerConfig::quick()
        });
        assert_eq!(trainer.resolve_replay_layer(&student), 0);
        let mut rng = Rng::seed_from(54);
        let fresh = sample_domain_batch(lib.world(), lib.domain(1), 60, 30, &mut rng);
        let report = trainer
            .train_session(&mut student, &fresh, &mut rng)
            .expect("session trains");
        assert!(report.mini_batches > 0);
        // Memory stores raw features at input placement.
        assert_eq!(trainer.memory().items()[0].activation.len(), 16);
    }

    #[test]
    fn empty_session_is_harmless() {
        let lib = library();
        let mut student = pretrained_student(&lib);
        let mut trainer = AdaptiveTrainer::new(TrainerConfig::quick());
        let mut rng = Rng::seed_from(55);
        let report = trainer
            .train_session(&mut student, &[], &mut rng)
            .expect("empty session is fine");
        assert_eq!(report.fresh_samples, 0);
        assert_eq!(trainer.sessions(), 1);
    }

    #[test]
    fn memory_stores_penultimate_activations() {
        let lib = library();
        let mut student = pretrained_student(&lib);
        let mut trainer = AdaptiveTrainer::new(TrainerConfig::quick());
        let mut rng = Rng::seed_from(56);
        let fresh = sample_domain_batch(lib.world(), lib.domain(1), 40, 20, &mut rng);
        trainer
            .train_session(&mut student, &fresh, &mut rng)
            .expect("session trains");
        // quick() student: hidden widths [32, 24] -> penultimate width 24.
        assert_eq!(trainer.memory().items()[0].activation.len(), 24);
    }
}

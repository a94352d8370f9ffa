//! The deterministic edge-cloud simulation engine.
//!
//! [`Simulation::run`] plays a synthetic video stream frame by frame at
//! 30 fps through a chosen [`Strategy`], exercising the real components:
//! the student genuinely infers and trains, the teacher genuinely labels,
//! the link genuinely bills every byte, and the controller genuinely moves
//! the sampling rate. The resulting [`SimReport`] carries every quantity
//! the paper's tables and figures report.

use crate::cloud::{CloudConfig, CloudServer, LabelFate};
use crate::error::SimError;
use crate::resilience::{BreakerState, EdgeResilience, ResilienceConfig, ResilienceReport};
use crate::strategy::Strategy;
use crate::trainer::{AdaptiveTrainer, FreezePolicy, ReplayPlacement, TrainerConfig};
use serde::Serialize;
use shoggoth_compute::training::{training_time, TrainingPlan};
use shoggoth_compute::{jetson_tx2, v100, Contention, DeviceProfile};
use shoggoth_metrics::map::MapAccumulator;
use shoggoth_metrics::FpsTracker;
use shoggoth_models::{
    Detector, LabeledSample, StudentConfig, StudentDetector, TeacherConfig, TeacherDetector,
};
use shoggoth_net::{Codec, FrameGroupStats, Link, LinkConfig, Message, SendOutcome};
use shoggoth_telemetry::{BreakerPhase, Event, NoopRecorder, Record, Recorder, TelemetrySummary};
use shoggoth_util::Rng;
use shoggoth_video::{Frame, StreamConfig};

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The video stream to play.
    pub stream: StreamConfig,
    /// The strategy under test.
    pub strategy: Strategy,
    /// Edge adaptive-training parameters.
    pub trainer: TrainerConfig,
    /// Cloud labeling / controller parameters.
    pub cloud: CloudConfig,
    /// Edge ↔ cloud link.
    pub link: LinkConfig,
    /// Edge failure management: upload timeouts, retransmission, and the
    /// uplink circuit breaker. [`ResilienceConfig::disabled`] reproduces
    /// the fire-and-forget behavior of earlier revisions.
    pub resilience: ResilienceConfig,
    /// Codec used for frame uploads.
    pub codec: Codec,
    /// GPU contention model on the edge device.
    pub contention: Contention,
    /// Edge device profile (wall-clock model).
    pub edge_device: DeviceProfile,
    /// Cloud device profile (AMS training wall-clock).
    pub cloud_device: DeviceProfile,
    /// Sampled frames per upload chunk. The edge buffers this many sampled
    /// frames, H.264-encodes the buffer (1–3 s in the paper) and ships it;
    /// the cloud labels each chunk on arrival and updates the sampling
    /// rate, while the edge pools labeled samples until a full training
    /// batch ([`TrainerConfig::batch_frames`]) has accumulated.
    pub upload_chunk_frames: usize,
    /// Confidence threshold used for the edge's estimated-accuracy
    /// signal α (a prediction counts as "accurate" when its posterior
    /// clears this). Deliberately stricter than the 0.5 labeling
    /// threshold: the micro-student's argmax posterior over a handful of
    /// classes is rarely below 0.5, so a 0.5 cut would saturate α at 1.
    pub alpha_conf_threshold: f32,
    /// Modeled size of one AMS model update on the downlink. Our
    /// stand-in student is a micro-MLP, but AMS ships the *real*
    /// YOLOv4-ResNet18 student (compressed deltas on the order of a
    /// megabyte), so the byte accounting uses this paper-scale figure.
    pub ams_update_bytes: u64,
    /// Student initialization / pre-training seed.
    pub student_seed: u64,
    /// Teacher initialization / pre-training seed.
    pub teacher_seed: u64,
    /// Simulation-event seed.
    pub sim_seed: u64,
    /// Use the small `quick()` model configurations (for tests).
    pub quick_models: bool,
}

impl SimConfig {
    /// Paper-scaled defaults around a stream.
    pub fn new(stream: StreamConfig) -> Self {
        Self {
            stream,
            strategy: Strategy::Shoggoth,
            trainer: TrainerConfig::paper_scaled(),
            cloud: CloudConfig::default(),
            link: LinkConfig::cellular(),
            resilience: ResilienceConfig::standard(),
            codec: Codec::h264_like(),
            contention: Contention::default(),
            edge_device: jetson_tx2(),
            cloud_device: v100(),
            upload_chunk_frames: 10,
            alpha_conf_threshold: 0.8,
            ams_update_bytes: 1_200_000,
            student_seed: 1,
            teacher_seed: 2,
            sim_seed: 3,
            quick_models: false,
        }
    }

    /// Small models and short sessions, for tests and examples.
    pub fn quick(stream: StreamConfig) -> Self {
        Self {
            trainer: TrainerConfig::quick(),
            upload_chunk_frames: 4,
            quick_models: true,
            ..Self::new(stream)
        }
    }
}

/// Everything one simulation run measured.
///
/// `PartialEq` is implemented manually so determinism tests can assert
/// that two runs (e.g. serial vs. parallel fleet schedules, or
/// telemetry-on vs. telemetry-off) are bit-identical: every measured
/// field participates, while the purely observational [`telemetry`]
/// attachment is excluded.
///
/// [`telemetry`]: SimReport::telemetry
#[derive(Debug, Clone, Serialize)]
pub struct SimReport {
    /// Strategy name.
    pub strategy: String,
    /// Stream preset name.
    pub stream_name: String,
    /// Frames played.
    pub frames: u64,
    /// Stream duration in seconds.
    pub duration_secs: f64,
    /// Pooled mAP@0.5 over the whole stream (Tables I, II).
    pub map50: f64,
    /// Average IoU of matched detections (Table III).
    pub average_iou: f64,
    /// Per-frame mAP@0.5 (Figure 5's CDF input).
    pub per_frame_map: Vec<f64>,
    /// Average uplink rate in Kbps (Tables I, III).
    pub uplink_kbps: f64,
    /// Average downlink rate in Kbps (Table I).
    pub downlink_kbps: f64,
    /// Total uplink bytes.
    pub uplink_bytes: u64,
    /// Total downlink bytes.
    pub downlink_bytes: u64,
    /// Average achieved inference FPS (Figure 4 left).
    pub avg_fps: f64,
    /// Lowest instantaneous FPS (the training dip).
    pub min_fps: f64,
    /// FPS time series in 1 s buckets (Figure 4 right).
    pub fps_series: Vec<(f64, f64)>,
    /// Completed adaptive-training sessions.
    pub training_sessions: usize,
    /// Mean modeled wall-clock per session in seconds.
    pub avg_session_secs: f64,
    /// Time-averaged sampling rate in fps.
    pub avg_sampling_rate: f64,
    /// Sampling rate at the end of the run.
    pub final_sampling_rate: f64,
    /// Frames the cloud teacher ran inference on (labeling for adaptive
    /// strategies; every frame for Cloud-Only). Drives the fleet
    /// scalability analysis: cloud GPU time per device.
    pub teacher_frames: u64,
    /// Total modeled cloud GPU seconds spent training (non-zero only for
    /// AMS, whose distillation runs on the server).
    pub cloud_training_secs: f64,
    /// Resilience counters: timeouts, retransmits, breaker transitions
    /// and per-state spans, suppressed uploads, cloud label faults.
    pub resilience: ResilienceReport,
    /// Aggregated telemetry, present when the run used an aggregating
    /// recorder (see [`Simulation::run_traced`]). Excluded from equality:
    /// observation must not change what a run measured.
    pub telemetry: Option<TelemetrySummary>,
}

impl PartialEq for SimReport {
    fn eq(&self, other: &Self) -> bool {
        // Destructured so a new measured field cannot silently escape the
        // determinism contract; `telemetry` is the one deliberate omission.
        let Self {
            strategy,
            stream_name,
            frames,
            duration_secs,
            map50,
            average_iou,
            per_frame_map,
            uplink_kbps,
            downlink_kbps,
            uplink_bytes,
            downlink_bytes,
            avg_fps,
            min_fps,
            fps_series,
            training_sessions,
            avg_session_secs,
            avg_sampling_rate,
            final_sampling_rate,
            teacher_frames,
            cloud_training_secs,
            resilience,
            telemetry: _,
        } = self;
        *strategy == other.strategy
            && *stream_name == other.stream_name
            && *frames == other.frames
            && *duration_secs == other.duration_secs
            && *map50 == other.map50
            && *average_iou == other.average_iou
            && *per_frame_map == other.per_frame_map
            && *uplink_kbps == other.uplink_kbps
            && *downlink_kbps == other.downlink_kbps
            && *uplink_bytes == other.uplink_bytes
            && *downlink_bytes == other.downlink_bytes
            && *avg_fps == other.avg_fps
            && *min_fps == other.min_fps
            && *fps_series == other.fps_series
            && *training_sessions == other.training_sessions
            && *avg_session_secs == other.avg_session_secs
            && *avg_sampling_rate == other.avg_sampling_rate
            && *final_sampling_rate == other.final_sampling_rate
            && *teacher_frames == other.teacher_frames
            && *cloud_training_secs == other.cloud_training_secs
            && *resilience == other.resilience
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} on {}: {} frames over {:.1} s",
            self.strategy, self.stream_name, self.frames, self.duration_secs
        )?;
        writeln!(
            f,
            "  accuracy   mAP@0.5 {:.3}   avg IoU {:.3}",
            self.map50, self.average_iou
        )?;
        writeln!(
            f,
            "  inference  {:.1} fps avg, {:.1} fps min",
            self.avg_fps, self.min_fps
        )?;
        writeln!(
            f,
            "  network    up {:.1} Kbps ({} B)   down {:.1} Kbps ({} B)",
            self.uplink_kbps, self.uplink_bytes, self.downlink_kbps, self.downlink_bytes
        )?;
        writeln!(
            f,
            "  sampling   {:.2} fps avg, {:.2} fps final",
            self.avg_sampling_rate, self.final_sampling_rate
        )?;
        writeln!(
            f,
            "  training   {} sessions, {:.2} s avg (cloud GPU {:.1} s)",
            self.training_sessions, self.avg_session_secs, self.cloud_training_secs
        )?;
        write!(
            f,
            "  resilience {} timeouts, {} retransmits, {} breaker opens",
            self.resilience.upload_timeouts,
            self.resilience.retransmits,
            self.resilience.breaker_opens
        )?;
        if let Some(telemetry) = &self.telemetry {
            write!(
                f,
                "\n  telemetry  {} events ({} evicted), latency p-mean {:.1} ms, \
                 queue depth max {:.0}",
                telemetry.events_recorded,
                telemetry.events_dropped,
                telemetry.frame_latency_ms.mean,
                telemetry.queue_depth.max
            )?;
        }
        Ok(())
    }
}

/// The simulation engine.
#[derive(Debug)]
pub struct Simulation;

impl Simulation {
    /// Pre-trains the models a configuration calls for. Exposed so
    /// experiment harnesses can build them once and share across strategy
    /// runs (the models are cloned per run).
    pub fn build_models(config: &SimConfig) -> (StudentDetector, TeacherDetector) {
        let world = config.stream.library.world();
        let (dim, classes) = (world.feature_dim(), world.num_classes());
        let (student_cfg, teacher_cfg) = if config.quick_models {
            (
                StudentConfig::new(dim, classes, config.student_seed).quick(),
                TeacherConfig::new(dim, classes, config.teacher_seed).quick(),
            )
        } else {
            (
                StudentConfig::new(dim, classes, config.student_seed),
                TeacherConfig::new(dim, classes, config.teacher_seed),
            )
        };
        // The two pretrainings share only the read-only library and each
        // owns its seeded RNG, so running them side by side changes no
        // weight.
        let library = &config.stream.library;
        shoggoth_util::join(
            || StudentDetector::pretrained_with(student_cfg, library, 0),
            || TeacherDetector::pretrained_with(teacher_cfg, library),
        )
    }

    /// Builds models and runs the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is inconsistent or the
    /// training stack fails mid-run (see [`crate::error`]).
    pub fn run(config: &SimConfig) -> Result<SimReport, SimError> {
        let (student, teacher) = Self::build_models(config);
        Self::run_with_models(config, student, teacher)
    }

    /// Runs the simulation with externally pre-trained models.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is inconsistent or the
    /// training stack fails mid-run (see [`crate::error`]).
    pub fn run_with_models(
        config: &SimConfig,
        student: StudentDetector,
        teacher: TeacherDetector,
    ) -> Result<SimReport, SimError> {
        Self::run_traced(config, student, teacher, &mut NoopRecorder)
    }

    /// Runs the simulation while streaming stamped telemetry events into
    /// `recorder`. Recording is observation-only: the returned report is
    /// bit-identical (under `==`, which ignores the [`SimReport::telemetry`]
    /// attachment) to an untraced run of the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is inconsistent or the
    /// training stack fails mid-run (see [`crate::error`]).
    pub fn run_traced<R: Recorder>(
        config: &SimConfig,
        student: StudentDetector,
        teacher: TeacherDetector,
        recorder: &mut R,
    ) -> Result<SimReport, SimError> {
        Engine::new(config, student, teacher, recorder)?.run()
    }
}

/// Labels on their way back to the edge (uplink + cloud + downlink
/// latency already summed into the delivery time).
struct PendingLabels {
    deliver_at_secs: f64,
    upload_id: u64,
    frames: usize,
    samples: Vec<LabeledSample>,
}

/// Mutable state of one run, generic over its telemetry sink so the
/// no-op recorder compiles away entirely.
struct Engine<'a, R: Recorder> {
    config: &'a SimConfig,
    recorder: &'a mut R,
    /// Sim-time stamp components of the frame being played (what every
    /// emitted event is stamped with).
    now_secs: f64,
    cur_frame: u64,
    student: StudentDetector,
    cloud: CloudServer,
    trainer: AdaptiveTrainer,
    /// AMS's cloud-side shadow student and its trainer.
    shadow: Option<(StudentDetector, AdaptiveTrainer)>,
    link: Link,
    resilience: EdgeResilience,
    pending_labels: Vec<PendingLabels>,
    rng: Rng,

    sampling_rate: f64,
    next_sample_time: f64,
    /// Sampled frames awaiting upload (one codec chunk).
    chunk: Vec<Frame>,
    /// Labeled samples pooled toward the next training batch.
    pool: Vec<LabeledSample>,
    /// Frames contributing to the pool.
    pool_frames: usize,
    training_until: f64,
    busy_secs_window: f64,
    last_rate_update: f64,
    alpha_hits: u64,
    alpha_total: u64,

    /// Streaming mAP@0.5 / IoU evaluation: no frame is kept.
    eval: MapAccumulator,
    per_frame_map: Vec<f64>,
    fps: FpsTracker,
    rate_sum: f64,
    sessions: usize,
    session_secs_sum: f64,
    teacher_frames: u64,
    cloud_training_secs: f64,
}

impl<'a, R: Recorder> Engine<'a, R> {
    fn new(
        config: &'a SimConfig,
        student: StudentDetector,
        teacher: TeacherDetector,
        recorder: &'a mut R,
    ) -> Result<Self, SimError> {
        config.trainer.validate()?;
        let num_classes = config.stream.library.world().num_classes();
        let cloud = CloudServer::new(teacher, num_classes, config.cloud)?;
        let initial_rate = config
            .strategy
            .fixed_rate()
            .unwrap_or(config.cloud.controller.initial_rate);
        let shadow = if config.strategy == Strategy::Ams {
            // AMS (Khani et al.) fine-tunes the *entire* student in the
            // cloud — no latent replay, full backpropagation — which is
            // exactly the paper's Table II "Input" configuration. The
            // cloud's V100 can afford it; the cost shows up as model-sized
            // downlink updates and slightly more forgetting.
            let ams_trainer = TrainerConfig {
                placement: ReplayPlacement::Input,
                freeze: FreezePolicy::FullyTrainable,
                // AMS keeps only a recent-frame window, not a reservoir
                // replay memory — a capacity of one disables replay.
                replay_capacity: 1,
                ..config.trainer.clone()
            };
            Some((student.clone(), AdaptiveTrainer::new(ams_trainer)))
        } else {
            None
        };
        Ok(Self {
            trainer: AdaptiveTrainer::new(config.trainer.clone()),
            link: Link::new(config.link.clone())?,
            resilience: EdgeResilience::new(config.resilience)?,
            pending_labels: Vec::new(),
            rng: Rng::seed_from(config.sim_seed ^ 0x53_49_4d), // "SIM"
            sampling_rate: initial_rate,
            next_sample_time: 0.0,
            chunk: Vec::new(),
            pool: Vec::new(),
            pool_frames: 0,
            training_until: f64::NEG_INFINITY,
            busy_secs_window: 0.0,
            last_rate_update: 0.0,
            alpha_hits: 0,
            alpha_total: 0,
            eval: MapAccumulator::new(num_classes),
            per_frame_map: Vec::new(),
            fps: FpsTracker::new(),
            rate_sum: 0.0,
            sessions: 0,
            session_secs_sum: 0.0,
            teacher_frames: 0,
            cloud_training_secs: 0.0,
            config,
            recorder,
            now_secs: 0.0,
            cur_frame: 0,
            student,
            cloud,
            shadow,
        })
    }

    /// Stamps and records one event at the current frame's sim time.
    fn rec(&mut self, event: Event) {
        self.recorder
            .record(Record::new(self.now_secs, self.cur_frame, event));
    }

    /// The telemetry mirror of a breaker state.
    fn phase(state: BreakerState) -> BreakerPhase {
        match state {
            BreakerState::Closed => BreakerPhase::Closed,
            BreakerState::Open => BreakerPhase::Open,
            BreakerState::HalfOpen => BreakerPhase::HalfOpen,
        }
    }

    /// Emits a `BreakerTransition` if the breaker left `before` during the
    /// maintenance step that just ran.
    fn trace_breaker(&mut self, before: BreakerState) {
        let after = self.resilience.state();
        if after != before {
            self.rec(Event::BreakerTransition {
                from: Self::phase(before),
                to: Self::phase(after),
            });
        }
    }

    fn run(mut self) -> Result<SimReport, SimError> {
        let strategy = self.config.strategy;
        // The stream owns its seeded RNG and reads no engine state, so
        // synthesizing it ahead on a helper thread changes no frame.
        let stream = shoggoth_util::prefetch(self.config.stream.build());
        let fps_cap = self.config.edge_device.idle_inference_fps;
        let mut frames_played = 0u64;

        for frame in stream {
            let t = frame.timestamp;
            frames_played += 1;
            self.now_secs = t;
            self.cur_frame = frame.index;

            // Achieved inference rate under training contention.
            let training_active = strategy.trains_on_edge() && t < self.training_until;
            let fps_now = self
                .config
                .contention
                .inference_fps(fps_cap, training_active);
            self.fps.record(t, fps_now);
            self.rate_sum += self.effective_rate();

            // System inference output for this frame.
            let detections = match strategy {
                Strategy::CloudOnly => self.cloud_only_frame(&frame),
                _ => self.student.detect(&frame),
            };

            // Estimated-accuracy bookkeeping (the α metric).
            let theta = self.config.alpha_conf_threshold;
            for d in &detections {
                self.alpha_total += 1;
                if d.confidence >= theta {
                    self.alpha_hits += 1;
                }
            }

            // Resilience maintenance: matured label deliveries, upload
            // timeouts, the breaker clock, and retransmits whose backoff
            // elapsed (the in-order sequence is the determinism contract).
            if strategy.uses_sampling() {
                let before = self.resilience.state();
                self.deliver_labels(t);
                self.trace_breaker(before);
                let before = self.resilience.state();
                let timeouts = self.resilience.expire(t, &mut self.rng);
                for timeout in timeouts {
                    self.rec(Event::UploadTimedOut {
                        attempt: timeout.attempt,
                        probe: timeout.probe,
                        requeued: timeout.requeued,
                    });
                }
                self.trace_breaker(before);
                let before = self.resilience.state();
                self.resilience.poll(t);
                self.trace_breaker(before);
                while let Some(q) = self.resilience.take_ready(t) {
                    self.transmit_chunk(t, q.frames, q.attempt, false);
                }
            }

            // A half-open breaker probes as soon as it may: one
            // single-frame chunk tests the link, and no further probe
            // launches until this one times out or is acknowledged.
            if strategy.uses_sampling()
                && self.resilience.state() == BreakerState::HalfOpen
                && !self.resilience.probe_in_flight()
            {
                self.transmit_chunk(t, vec![frame.clone()], 1, true);
            }

            // Frame sampling toward the upload chunk. An open breaker
            // suspends the uplink: frames are still sampled (at the
            // controller's outage floor) but full chunks are counted and
            // discarded instead of transmitted; the probe machinery above
            // owns the uplink while half-open.
            if strategy.uses_sampling() && t >= self.next_sample_time {
                self.next_sample_time = t + 1.0 / self.effective_rate().max(1e-6);
                match self.resilience.state() {
                    BreakerState::Closed => {
                        self.chunk.push(frame.clone());
                        self.rec(Event::FrameSampled {
                            chunk_len: self.chunk.len() as u32,
                            breaker: BreakerPhase::Closed,
                        });
                        if self.chunk.len() >= self.config.upload_chunk_frames {
                            self.upload_chunk(t);
                        }
                    }
                    BreakerState::Open => {
                        self.chunk.push(frame.clone());
                        self.rec(Event::FrameSampled {
                            chunk_len: self.chunk.len() as u32,
                            breaker: BreakerPhase::Open,
                        });
                        if self.chunk.len() >= self.config.upload_chunk_frames {
                            self.suppress_chunk();
                        }
                    }
                    BreakerState::HalfOpen => self.rec(Event::SampleSkipped),
                }
            }

            // Adapt once a training batch has pooled. Adaptation freezes
            // while the breaker is not closed: labels cannot be fresh
            // during an outage, and training through one would burn the
            // edge GPU for nothing.
            if strategy.uses_sampling()
                && self.resilience.state() == BreakerState::Closed
                && self.pool_frames >= self.config.trainer.batch_frames
            {
                self.adapt(t)?;
            }

            // Evaluation.
            let frame_map = self.eval.push(&detections, &frame.ground_truth);
            self.per_frame_map.push(frame_map);

            // The per-frame status sample: the telemetry timeline's
            // backbone, emitted once per played frame after evaluation.
            self.rec(Event::FrameStatus {
                map: frame_map,
                fps: fps_now,
                sampling_rate: self.effective_rate(),
                detections: detections.len() as u32,
                uplink_bytes: self.link.uplink_bytes(),
                queue_depth: self.resilience.queue_len() as u32,
                breaker: Self::phase(self.resilience.state()),
            });
        }

        let duration = frames_played as f64 / self.config.stream.fps as f64;
        let mut bandwidth = shoggoth_metrics::BandwidthMeter::new();
        bandwidth.record_uplink(self.link.uplink_bytes());
        bandwidth.record_downlink(self.link.downlink_bytes());
        bandwidth.finish(duration);
        self.resilience.finish(duration);
        let resilience = self.resilience.report(&self.link);
        let pooled = self.eval.finish();

        Ok(SimReport {
            resilience,
            telemetry: self.recorder.summary(),
            strategy: strategy.name(),
            stream_name: self.config.stream.name.clone(),
            frames: frames_played,
            duration_secs: duration,
            map50: pooled.map50,
            average_iou: pooled.average_iou,
            per_frame_map: self.per_frame_map,
            uplink_kbps: bandwidth.uplink_kbps(),
            downlink_kbps: bandwidth.downlink_kbps(),
            uplink_bytes: self.link.uplink_bytes(),
            downlink_bytes: self.link.downlink_bytes(),
            avg_fps: self.fps.average(),
            min_fps: self.fps.min(),
            fps_series: self.fps.series(1.0),
            training_sessions: self.sessions,
            avg_session_secs: if self.sessions == 0 {
                0.0
            } else {
                self.session_secs_sum / self.sessions as f64
            },
            avg_sampling_rate: if frames_played == 0 {
                0.0
            } else {
                self.rate_sum / frames_played as f64
            },
            final_sampling_rate: self.sampling_rate,
            teacher_frames: self.teacher_frames,
            cloud_training_secs: self.cloud_training_secs,
        })
    }

    /// Cloud-Only: upload the live frame, infer with the golden model,
    /// ship mask-bearing results back.
    fn cloud_only_frame(&mut self, frame: &Frame) -> Vec<shoggoth_models::Detection> {
        let codec = &self.config.codec;
        let gop_position = (frame.index % codec.gop.max(1) as u64) as usize;
        let encoded = if gop_position == 0 {
            codec.encode_single(frame.raw_bytes)
        } else {
            let sim = codec.similarity(1.0 / self.config.stream.fps as f64, frame.motion_magnitude);
            let ratio = codec.i_frame_ratio + (codec.p_frame_ratio - codec.i_frame_ratio) * sim;
            ((frame.raw_bytes as f64 / ratio).ceil() as u64).max(1)
        };
        self.link.send_uplink(
            frame.timestamp,
            Message::FrameBatch {
                frames: 1,
                encoded_bytes: encoded,
            },
            &mut self.rng,
        );
        self.teacher_frames += 1;
        let detections = self.cloud.infer(frame);
        self.link.send_downlink(
            frame.timestamp,
            Message::MaskResults {
                count: detections.len(),
                frame_encoded_bytes: encoded,
            },
            &mut self.rng,
        );
        detections
    }

    /// The sampling rate actually in force: the controller's rate while
    /// the breaker is closed, the outage floor while it is open or
    /// half-open (no point sampling fast into a dead link).
    fn effective_rate(&self) -> f64 {
        match self.resilience.state() {
            BreakerState::Closed => self.sampling_rate,
            BreakerState::Open | BreakerState::HalfOpen => self
                .config
                .cloud
                .controller
                .outage_floor()
                .min(self.sampling_rate),
        }
    }

    /// Delivers every matured label batch to the edge: pools the samples,
    /// acknowledges the upload, and — when a delivered probe closes the
    /// breaker — resumes normal sampling and releases queued retransmits.
    fn deliver_labels(&mut self, t: f64) {
        let mut i = 0;
        while i < self.pending_labels.len() {
            if self.pending_labels[i].deliver_at_secs > t {
                i += 1;
                continue;
            }
            let pending = self.pending_labels.remove(i);
            let outcome = self.resilience.ack(pending.upload_id, t);
            // Labels are useful even from a post-timeout straggler.
            self.pool_frames += pending.frames;
            let sample_count = pending.samples.len();
            self.pool.extend(pending.samples);
            self.rec(Event::LabelBatchArrived {
                samples: sample_count as u32,
                frames: pending.frames as u32,
                straggler: !outcome.acked,
                closed_breaker: outcome.closed_breaker,
            });
            if outcome.closed_breaker {
                // Recovery: catch up immediately instead of waiting out
                // the widened sampling interval.
                self.next_sample_time = t;
                self.resilience.release_queue(t);
            }
        }
    }

    /// Encodes and transmits one chunk of sampled frames, registering it
    /// with the in-flight tracker. On delivery the cloud labels the chunk
    /// and (cloud faults permitting) the labels travel back as a
    /// [`PendingLabels`] entry; acknowledgment happens when they arrive.
    fn transmit_chunk(&mut self, t: f64, frames: Vec<Frame>, attempt: u32, probe: bool) {
        if frames.is_empty() {
            return;
        }
        let gap = 1.0 / self.sampling_rate.max(1e-6);
        let stats: Vec<FrameGroupStats> = frames
            .iter()
            .map(|f| FrameGroupStats::new(f.raw_bytes, f.motion_magnitude))
            .collect();
        let encoded = self.config.codec.encode_group(&stats, gap);
        let message = Message::FrameBatch {
            frames: frames.len(),
            encoded_bytes: encoded,
        };
        let wire_bytes = message.bytes();
        let outcome = self.link.send_uplink_outcome(t, message, &mut self.rng);
        self.rec(Event::ChunkUploaded {
            frames: frames.len() as u32,
            bytes: wire_bytes,
            attempt,
            probe,
            lost_to_outage: matches!(outcome, SendOutcome::LostToOutage),
            latency_secs: match &outcome {
                SendOutcome::Delivered(up) => Some(up.latency_secs),
                SendOutcome::LostToOutage | SendOutcome::LostToLoss => None,
            },
        });
        let mut pending = None;
        if let Some(up) = outcome.transfer() {
            self.teacher_frames += frames.len() as u64;
            let refs: Vec<&Frame> = frames.iter().collect();
            let labels = self.cloud.label_batch(&refs);
            match self.config.cloud.faults.label_fate(&mut self.rng) {
                LabelFate::Dropped => {
                    self.resilience.note_cloud_drop();
                    self.rec(Event::CloudLabelsDropped);
                }
                LabelFate::Delivered { extra_latency_secs } => {
                    if extra_latency_secs > 0.0 {
                        self.resilience.note_slow_labels();
                        self.rec(Event::CloudLabelsSlow {
                            extra_secs: extra_latency_secs,
                        });
                    }
                    let down = self.link.send_downlink(
                        t,
                        Message::Labels {
                            samples: labels.total_samples,
                        },
                        &mut self.rng,
                    );
                    if let Some(down) = down {
                        pending = Some((
                            t + up.latency_secs + extra_latency_secs + down.latency_secs,
                            labels.per_frame.concat(),
                            frames.len(),
                        ));
                    }
                }
            }
        }
        let upload_id = self.resilience.register(t, frames, attempt, probe);
        if let Some((deliver_at_secs, samples, chunk_frames)) = pending {
            self.pending_labels.push(PendingLabels {
                deliver_at_secs,
                upload_id,
                frames: chunk_frames,
                samples,
            });
        }
    }

    /// Counts a chunk discarded because the breaker was open, crediting
    /// the uplink bytes it would have cost (frame batch + telemetry).
    fn suppress_chunk(&mut self) {
        let gap = 1.0 / self.effective_rate().max(1e-6);
        let stats: Vec<FrameGroupStats> = self
            .chunk
            .iter()
            .map(|f| FrameGroupStats::new(f.raw_bytes, f.motion_magnitude))
            .collect();
        let encoded = self.config.codec.encode_group(&stats, gap);
        let would_be_bytes = Message::FrameBatch {
            frames: self.chunk.len(),
            encoded_bytes: encoded,
        }
        .bytes()
            + Message::Telemetry.bytes();
        self.resilience.note_suppressed(would_be_bytes);
        self.rec(Event::UploadSuppressed {
            frames: self.chunk.len() as u32,
            bytes: would_be_bytes,
        });
        self.chunk.clear();
    }

    /// The chunk-upload event: encode + ship the sampled chunk (the cloud
    /// labels it on delivery; the labels pool when they arrive back), and
    /// update the sampling rate.
    fn upload_chunk(&mut self, t: f64) {
        let strategy = self.config.strategy;
        let frames = std::mem::take(&mut self.chunk);
        self.transmit_chunk(t, frames, 1, false);

        // Telemetry and rate control — once per chunk, so the controller
        // reacts within seconds of a scene change.
        self.link.send_uplink(t, Message::Telemetry, &mut self.rng);
        if strategy.adaptive_rate() {
            let alpha = if self.alpha_total == 0 {
                self.config.cloud.controller.alpha_target
            } else {
                self.alpha_hits as f64 / self.alpha_total as f64
            };
            let elapsed = (t - self.last_rate_update).max(1e-6);
            let lambda = (0.35 + self.busy_secs_window / elapsed).clamp(0.0, 1.0);
            let decision = self.cloud.update_rate_detailed(alpha, lambda);
            self.sampling_rate = decision.rate;
            self.rec(Event::RateDecision {
                phi_bar: decision.phi_bar,
                alpha: decision.alpha,
                lambda: decision.lambda,
                lambda_bar: decision.lambda_bar,
                r_phi: decision.r_phi,
                r_alpha: decision.r_alpha,
                r_lambda: decision.r_lambda,
                rate: decision.rate,
            });
            self.last_rate_update = t;
            self.busy_secs_window = 0.0;
            self.alpha_hits = 0;
            self.alpha_total = 0;
        }
    }

    /// A full training batch has pooled: adapt the student (edge-side or
    /// cloud-side per strategy).
    fn adapt(&mut self, t: f64) -> Result<(), SimError> {
        let fresh = std::mem::take(&mut self.pool);
        self.pool_frames = 0;
        match self.config.strategy {
            Strategy::Ams => self.ams_adapt(&fresh, t),
            _ => self.edge_adapt(&fresh, t),
        }
    }

    /// Edge-side adaptive training (Shoggoth / Prompt / fixed rates).
    fn edge_adapt(&mut self, fresh: &[LabeledSample], t: f64) -> Result<(), SimError> {
        let report = self
            .trainer
            .train_session(&mut self.student, fresh, &mut self.rng)?;
        let secs = self.session_wallclock(&self.config.edge_device);
        self.training_until = t + secs;
        self.busy_secs_window += secs;
        self.sessions += 1;
        self.session_secs_sum += secs;
        self.rec(Event::AdaptationStep {
            fresh_samples: report.fresh_samples as u32,
            replay_samples: report.replay_samples_used as u32,
            mini_batches: report.mini_batches as u32,
            mean_loss: report.mean_loss,
            first_batch_loss: report.first_batch_loss,
            last_batch_loss: report.last_batch_loss,
            session_secs: secs,
            cloud_side: false,
        });
        Ok(())
    }

    /// AMS: the cloud fine-tunes a shadow student and streams the full
    /// model back; edge inference never contends with training.
    fn ams_adapt(&mut self, fresh: &[LabeledSample], t: f64) -> Result<(), SimError> {
        let Some((shadow, shadow_trainer)) = self.shadow.as_mut() else {
            return Err(SimError::Invariant {
                context: "AMS runs always construct a shadow student",
            });
        };
        let report = shadow_trainer.train_session(shadow, fresh, &mut self.rng)?;
        let weights = shadow.net().export_weights();
        let arrived = self
            .link
            .send_downlink(
                t,
                Message::ModelWeights {
                    bytes: self.config.ams_update_bytes,
                },
                &mut self.rng,
            )
            .is_some();
        if arrived {
            self.student
                .net_mut()
                .import_weights(&weights)
                .map_err(|source| SimError::Tensor {
                    context: "AMS model update import",
                    source,
                })?;
        }
        self.sessions += 1;
        let secs = self.ams_session_wallclock();
        self.session_secs_sum += secs;
        self.cloud_training_secs += secs;
        self.rec(Event::AdaptationStep {
            fresh_samples: report.fresh_samples as u32,
            replay_samples: report.replay_samples_used as u32,
            mini_batches: report.mini_batches as u32,
            mean_loss: report.mean_loss,
            first_batch_loss: report.first_batch_loss,
            last_batch_loss: report.last_batch_loss,
            session_secs: secs,
            cloud_side: true,
        });
        Ok(())
    }

    /// Modeled wall-clock of one AMS cloud-side session: full fine-tuning
    /// on raw frames (input-layer data, everything trainable, nothing
    /// cacheable) at the paper's 1:5 fresh:window ratio.
    fn ams_session_wallclock(&self) -> f64 {
        let stack = shoggoth_compute::yolov4_resnet18();
        let cfg = &self.config.trainer;
        let mut plan =
            TrainingPlan::input_replay(&stack).with_batch(cfg.batch_frames, cfg.batch_frames * 5);
        plan.trainable_from = 0;
        plan.epochs = cfg.epochs;
        training_time(&stack, &plan, &self.config.cloud_device).total_secs()
    }

    /// Modeled wall-clock of one training session on a device.
    fn session_wallclock(&self, device: &DeviceProfile) -> f64 {
        let stack = shoggoth_compute::yolov4_resnet18();
        let cfg = &self.config.trainer;
        let mut plan = match cfg.placement {
            ReplayPlacement::Penultimate => TrainingPlan::paper_defaults(&stack),
            ReplayPlacement::Input => TrainingPlan::input_replay(&stack),
            ReplayPlacement::Layer(_) => TrainingPlan::conv5_4(&stack),
        };
        if cfg.replay_capacity <= 1 {
            plan = TrainingPlan::no_replay(&stack);
        }
        if matches!(
            cfg.freeze,
            FreezePolicy::SlowFront { .. } | FreezePolicy::FullyTrainable
        ) {
            plan.cache_front = false;
            plan.trainable_from = 0;
        }
        let replay_frames = if plan.replay_images == 0 {
            0
        } else {
            cfg.batch_frames * 5
        };
        plan = plan.with_batch(cfg.batch_frames, replay_frames);
        plan.epochs = cfg.epochs;
        training_time(&stack, &plan, device).total_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shoggoth_video::presets;

    fn quick_config(strategy: Strategy, frames: u64) -> SimConfig {
        let mut config = SimConfig::quick(presets::kitti(21).with_total_frames(frames));
        config.strategy = strategy;
        config
    }

    fn run_ok(config: &SimConfig) -> SimReport {
        Simulation::run(config).expect("quick config runs cleanly")
    }

    fn run_with_models_ok(
        config: &SimConfig,
        student: StudentDetector,
        teacher: TeacherDetector,
    ) -> SimReport {
        Simulation::run_with_models(config, student, teacher).expect("quick config runs cleanly")
    }

    #[test]
    fn edge_only_uses_no_network() {
        let report = run_ok(&quick_config(Strategy::EdgeOnly, 200));
        assert_eq!(report.uplink_bytes, 0);
        assert_eq!(report.downlink_bytes, 0);
        assert_eq!(report.training_sessions, 0);
        assert_eq!(report.frames, 200);
        assert!((report.avg_fps - 30.0).abs() < 1e-9);
    }

    #[test]
    fn cloud_only_is_bandwidth_hungry_and_accurate() {
        let config = quick_config(Strategy::CloudOnly, 200);
        let (student, teacher) = Simulation::build_models(&config);
        let cloud = run_with_models_ok(&config, student.clone(), teacher.clone());
        let mut edge_cfg = quick_config(Strategy::EdgeOnly, 200);
        edge_cfg.stream = config.stream.clone();
        let edge = run_with_models_ok(&edge_cfg, student, teacher);
        assert!(cloud.uplink_kbps > 50.0 * edge.uplink_kbps.max(1.0));
        assert!(cloud.downlink_kbps > cloud.uplink_kbps * 0.8);
        assert!(cloud.map50 >= edge.map50 - 0.02);
    }

    #[test]
    fn shoggoth_trains_and_bills_bandwidth() {
        let report = run_ok(&quick_config(Strategy::Shoggoth, 900));
        assert!(report.training_sessions >= 1, "no sessions in 30 s");
        assert!(report.uplink_bytes > 0);
        assert!(report.downlink_bytes > 0);
        // Downlink carries only labels: far smaller than the uplink.
        assert!(report.downlink_bytes * 5 < report.uplink_bytes);
        assert!(report.min_fps < 30.0, "training dip should appear");
    }

    #[test]
    fn ams_ships_models_downlink() {
        let config = quick_config(Strategy::Ams, 900);
        let report = run_ok(&config);
        assert!(report.training_sessions >= 1);
        // Model weights dominate the downlink.
        let shoggoth = run_ok(&quick_config(Strategy::Shoggoth, 900));
        assert!(
            report.downlink_bytes > 3 * shoggoth.downlink_bytes,
            "AMS downlink {} should dwarf Shoggoth's {}",
            report.downlink_bytes,
            shoggoth.downlink_bytes
        );
        // AMS never contends with edge inference.
        assert!((report.avg_fps - 30.0).abs() < 1e-9);
    }

    #[test]
    fn simulation_is_deterministic() {
        let config = quick_config(Strategy::Shoggoth, 400);
        let (student, teacher) = Simulation::build_models(&config);
        let a = run_with_models_ok(&config, student.clone(), teacher.clone());
        let b = run_with_models_ok(&config, student, teacher);
        assert_eq!(a.map50, b.map50);
        assert_eq!(a.uplink_bytes, b.uplink_bytes);
        assert_eq!(a.per_frame_map, b.per_frame_map);
    }

    #[test]
    fn fixed_rate_strategies_never_move_the_rate() {
        let report = run_ok(&quick_config(Strategy::FixedRate(0.4), 600));
        assert!((report.final_sampling_rate - 0.4).abs() < 1e-9);
        assert!((report.avg_sampling_rate - 0.4).abs() < 1e-9);
        let prompt = run_ok(&quick_config(Strategy::Prompt, 600));
        assert!((prompt.final_sampling_rate - 2.0).abs() < 1e-9);
    }

    #[test]
    fn higher_fixed_rates_cost_more_uplink() {
        let slow = run_ok(&quick_config(Strategy::FixedRate(0.5), 900));
        let fast = run_ok(&quick_config(Strategy::FixedRate(2.0), 900));
        assert!(
            fast.uplink_bytes > slow.uplink_bytes,
            "fast {} vs slow {}",
            fast.uplink_bytes,
            slow.uplink_bytes
        );
    }

    /// Runs a quick config whose trainer `tweak` breaks, and returns the
    /// reason the run was rejected with.
    fn trainer_rejection(tweak: impl FnOnce(&mut TrainerConfig)) -> &'static str {
        let mut config = quick_config(Strategy::Shoggoth, 10);
        tweak(&mut config.trainer);
        match Simulation::run(&config) {
            Err(SimError::Config(err)) => {
                assert_eq!(err.component, "trainer");
                err.reason
            }
            other => panic!("expected a trainer config error, got {other:?}"),
        }
    }

    #[test]
    fn zero_replay_capacity_is_rejected() {
        let reason = trainer_rejection(|t| t.replay_capacity = 0);
        assert!(reason.contains("replay capacity"), "{reason}");
    }

    #[test]
    fn zero_batch_frames_is_rejected() {
        let reason = trainer_rejection(|t| t.batch_frames = 0);
        assert!(reason.contains("batch frames"), "{reason}");
    }

    #[test]
    fn non_finite_learning_rate_is_rejected() {
        let reason = trainer_rejection(|t| t.learning_rate = f32::NAN);
        assert!(reason.contains("learning rate"), "{reason}");
    }

    #[test]
    fn negative_learning_rate_is_rejected() {
        let reason = trainer_rejection(|t| t.learning_rate = -0.01);
        assert!(reason.contains("learning rate"), "{reason}");
    }

    #[test]
    fn bad_slow_front_scale_is_rejected() {
        for scale in [-0.5, f32::INFINITY] {
            let reason = trainer_rejection(|t| t.freeze = FreezePolicy::SlowFront { scale });
            assert!(reason.contains("slow-front scale"), "{reason}");
        }
    }

    #[test]
    fn per_frame_map_covers_every_frame() {
        let report = run_ok(&quick_config(Strategy::EdgeOnly, 150));
        assert_eq!(report.per_frame_map.len(), 150);
        assert!(report.per_frame_map.iter().all(|m| (0.0..=1.0).contains(m)));
    }
}

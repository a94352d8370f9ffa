//! The traced run: a per-stage ledger timed from outside the engine.
//!
//! The engine keeps wall clocks out of the simulation, so the ledger
//! takes the schedule of an untraced run from its `RingRecorder` trace
//! (which frames were sampled, uploaded, labelled, when sessions fired
//! and what the controller decided) and replays the same public calls
//! with a timer around each: `VideoStream::next`, `Detector::detect`,
//! `Codec::encode_group`, `Link::send_*`, `CloudServer::label_batch`,
//! `CloudServer::update_rate_detailed`, `AdaptiveTrainer::train_session`,
//! `frame_map_at_05` and `map_at_05`.
//!
//! On a fault-free link the replay draws from the engine's event RNG in
//! the engine's order, so it reproduces the run bit for bit: per-frame
//! mAP, pooled mAP, link bytes, controller rates and mini-batch counts
//! are checked equal to the report and trace. Under faults (`storm_fleet`)
//! the engine's resilience layer also draws from that RNG and is not
//! replayed, so there the replay follows the trace's upload decisions and
//! only the counts the trace carries are reconciled.

use crate::e2e::{check_equal, check_report, trace_capacity};
use crate::layers::{
    check_shapes, forward_macs_per_row, kind_timings, student_shapes, teacher_shapes,
    train_step_macs,
};
use crate::report::{median, percentile, Tally};
use crate::workload::Inputs;
use shoggoth::cloud::{CloudServer, LabelFate};
use shoggoth::fleet::run_fleet;
use shoggoth::replay::ReplayItem;
use shoggoth::sim::{SimConfig, SimReport, Simulation};
use shoggoth::trainer::AdaptiveTrainer;
use shoggoth::CloudFaultProfile;
use shoggoth_metrics::{average_iou, frame_map_at_05, map_at_05, FrameEval};
use shoggoth_models::{
    Detection, Detector, LabeledSample, StudentConfig, StudentDetector, TeacherConfig,
    TeacherDetector,
};
use shoggoth_net::{FaultProfile, FrameGroupStats, Link, Message};
use shoggoth_telemetry::{Event, Record, RingRecorder};
use shoggoth_util::Rng;
use shoggoth_video::Frame;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// The ledger's self times must sum to within this share of the untraced
/// streaming time. The replay adds per-call timer reads and skips the
/// engine's resilience bookkeeping and report assembly (a few percent),
/// and on a 2-core VM the host's speed drifts by up to a third within
/// seconds, which moved the ratio between 0.94 and 1.19 in 12 runs; a
/// larger gap means a stage went unreplayed.
pub const COVERAGE_TOLERANCE: f64 = 0.4;
/// Forward/backward calls timed per layer in the tensor probe.
const LAYER_REPS: usize = 200;
/// Rounds of untraced run, traced run and replay, at least; more run while
/// `--seconds` has not elapsed. Every replay must reproduce the first
/// one's counts exactly.
const MIN_ROUNDS: u32 = 2;
/// First-attempt chunks remembered as stand-ins for retransmits.
const SENT_HISTORY: usize = 32;

/// The timed stages, in ledger order.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Synth,
    Student,
    Teacher,
    Codec,
    Link,
    Sample,
    Controller,
    Adapt,
    Eval,
}

/// Metric name of each stage's self time, indexed by `Stage as usize`.
const STAGE_METRICS: [&str; 9] = [
    "ledger.synth_s",
    "ledger.student_s",
    "ledger.teacher_s",
    "ledger.codec_s",
    "ledger.link_s",
    "ledger.sample_s",
    "ledger.controller_s",
    "ledger.adapt_s",
    "ledger.eval_s",
];

/// Deterministic work counts of one replay. Every replay of the same
/// inputs must produce equal counts.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts {
    frames: u64,
    proposals: u64,
    detections: u64,
    student_frames: u64,
    teacher_frames: u64,
    sessions: u64,
    mini_batches: u64,
    encodes: u64,
    uplink_messages: u64,
    uploads_attempted: u64,
    uploads_acked: u64,
    detect_macs: u64,
    workspace_allocs: u64,
    evals_retained: u64,
}

/// Wall-clock accumulated over replays.
#[derive(Debug, Default)]
struct Timings {
    stage_s: [f64; 9],
    frame_us: Vec<f64>,
    pooled_map_s: Vec<f64>,
    integrate_us: Vec<f64>,
    sample_us: Vec<f64>,
}

impl Timings {
    /// Times `f` as part of `stage`, adding to the current frame's total.
    fn time<T>(&mut self, stage: Stage, frame_s: &mut f64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.stage_s[stage as usize] += secs;
        *frame_s += secs;
        out
    }
}

/// One untraced run and its traced twin.
struct Traced {
    report: SimReport,
    records: Vec<Record>,
    untraced_s: f64,
    traced_s: f64,
    events: u64,
}

/// Runs the traced measurement; returns every `PER_LAYER` metric.
pub fn measure(inputs: &Inputs, seconds: f64, tally: &mut Tally) -> BTreeMap<&'static str, f64> {
    let mut values = BTreeMap::new();
    let base = inputs.fleet.as_ref().map_or(&inputs.runs[0], |f| &f.base);

    // Setup, split into its two pretraining calls.
    let (student_cfg, teacher_cfg) = model_configs(base);
    let library = &base.stream.library;
    let start = Instant::now();
    let student = StudentDetector::pretrained_with(student_cfg.clone(), library, 0);
    values.insert("setup.student_pretrain_s", start.elapsed().as_secs_f64());
    let start = Instant::now();
    let teacher = TeacherDetector::pretrained_with(teacher_cfg.clone(), library);
    values.insert("setup.teacher_pretrain_s", start.elapsed().as_secs_f64());

    let (student_layers, replay_layer) = student_shapes(&student_cfg);
    let teacher_layers = teacher_shapes(&teacher_cfg);
    let shape_checks = [
        check_shapes(
            Some(student.net().layer_names()),
            student.weight_bytes(),
            &student_layers,
        ),
        check_shapes(None, teacher.weight_bytes(), &teacher_layers),
    ];
    for check in shape_checks {
        if let Err(problem) = check {
            tally.record(vec![problem]);
        }
    }
    let macs_per_row = forward_macs_per_row(&student_layers);

    // Each round plays every config untraced and traced, then replays the
    // trace with timers. Interleaving the three keeps a drift in machine
    // speed from skewing the ratios between them.
    let configs = &inputs.runs;
    let mut timings = Timings::default();
    let mut reference: Vec<Option<SimReport>> = vec![None; configs.len()];
    let mut first: Vec<Option<Counts>> = vec![None; configs.len()];
    let (mut untraced_s, mut traced_s, mut events, mut frames) = (0.0, 0.0, 0u64, 0u64);
    let mut rounds = 0;
    let start = Instant::now();
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        for (i, config) in configs.iter().enumerate() {
            let Some(run) = traced_run(config, &student, &teacher, reference[i].as_ref(), tally)
            else {
                continue;
            };
            untraced_s += run.untraced_s;
            traced_s += run.traced_s;
            events += run.events;
            frames += run.report.frames;
            let mut replay = Replay::new(config, &student, &teacher, macs_per_row);
            let mut problems = match replay.run(&run.records, &mut timings) {
                Ok(()) => replay.reconcile(&run.report),
                Err(e) => vec![e],
            };
            match &first[i] {
                Some(expected) if *expected != replay.counts => problems.push(format!(
                    "{}: replay counts changed between rounds: {expected:?} then {:?}",
                    config.strategy.name(),
                    replay.counts
                )),
                Some(_) => {}
                None => first[i] = Some(replay.counts),
            }
            tally.record(problems);
            reference[i].get_or_insert(run.report);
        }
        rounds += 1;
    }
    let r = f64::from(rounds);
    values.insert(
        "telemetry.overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
    );
    values.insert(
        "telemetry.events_per_frame",
        events as f64 / frames.max(1) as f64,
    );

    // The fleet: serial device-seconds against one 2-thread fleet call.
    let reports: Vec<SimReport> = reference.into_iter().flatten().collect();
    let (mut device_s, mut efficiency) = (0.0, 0.0);
    if let Some(fleet) = &inputs.fleet {
        let start = Instant::now();
        let result = run_fleet(fleet);
        let wall = start.elapsed().as_secs_f64();
        match result {
            Ok(fleet_report) if fleet_report.per_device.len() == reports.len() => {
                for (device, serial) in fleet_report.per_device.iter().zip(&reports) {
                    let problem = check_equal("fleet and serial device reports", device, serial);
                    tally.record(problem.into_iter().collect());
                }
                device_s = untraced_s / r;
                efficiency = device_s / (wall * fleet.threads as f64);
            }
            Ok(_) => tally.record(vec!["fleet and serial runs disagree on devices".into()]),
            Err(e) => tally.record(vec![format!("fleet run: {e}")]),
        }
    }
    values.insert("fleet.device_s", device_s);
    values.insert("fleet.parallel_efficiency", efficiency);

    let counts: Vec<Counts> = first.into_iter().flatten().collect();
    let total = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let stage = |s: Stage| timings.stage_s[s as usize] / r;

    for (i, name) in STAGE_METRICS.iter().enumerate() {
        values.insert(name, timings.stage_s[i] / r);
    }
    let pooled_map_s = timings.pooled_map_s.iter().sum::<f64>() / r;
    let self_s = timings.stage_s.iter().sum::<f64>() / r + pooled_map_s;
    let streaming_s = untraced_s / r;
    let coverage = self_s / streaming_s;
    values.insert("ledger.coverage", coverage);
    if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
        tally.record(vec![format!(
            "ledger self time {self_s:.3} s covers {coverage:.3} of the untraced \
             {streaming_s:.3} s (tolerance ±{COVERAGE_TOLERANCE})"
        )]);
    }
    let frames = total(|c| c.frames);
    values.insert("ledger.frames", frames);
    values.insert("ledger.teacher_frames", total(|c| c.teacher_frames));
    values.insert("ledger.training_sessions", total(|c| c.sessions));

    values.insert(
        "video.synth_us_per_frame",
        per(stage(Stage::Synth), frames) * 1e6,
    );
    values.insert(
        "video.proposals_per_frame",
        per(total(|c| c.proposals), frames),
    );
    let student_frames = total(|c| c.student_frames);
    values.insert(
        "models.student_detect_us_per_frame",
        per(stage(Stage::Student), student_frames) * 1e6,
    );
    values.insert(
        "models.teacher_us_per_frame",
        per(stage(Stage::Teacher), total(|c| c.teacher_frames)) * 1e6,
    );
    values.insert(
        "models.detections_per_frame",
        per(total(|c| c.detections), frames),
    );

    let sessions = total(|c| c.sessions);
    values.insert(
        "trainer.session_ms",
        per(stage(Stage::Adapt), sessions) * 1e3,
    );
    values.insert("trainer.sessions", sessions);
    values.insert("trainer.mini_batches", total(|c| c.mini_batches));
    values.insert("replay.integrate_us", mean(&timings.integrate_us));
    values.insert("replay.sample_us", mean(&timings.sample_us));

    let student_rows = base.trainer.mini_batch;
    let [dense, brn, relu] = kind_timings(&student_layers, student_rows, LAYER_REPS);
    values.insert("tensor.dense.fwd_ns.student", dense.0);
    values.insert("tensor.dense.bwd_ns.student", dense.1);
    values.insert("tensor.brn.fwd_ns.student", brn.0);
    values.insert("tensor.brn.bwd_ns.student", brn.1);
    values.insert("tensor.relu.fwd_ns.student", relu.0);
    values.insert("tensor.relu.bwd_ns.student", relu.1);
    let [dense, _, relu] = kind_timings(&teacher_layers, teacher_cfg.batch, LAYER_REPS);
    values.insert("tensor.dense.fwd_ns.teacher", dense.0);
    values.insert("tensor.dense.bwd_ns.teacher", dense.1);
    values.insert("tensor.relu.fwd_ns.teacher", relu.0);
    values.insert("tensor.relu.bwd_ns.teacher", relu.1);
    values.insert(
        "tensor.macs_per_train_step",
        train_step_macs(&student_layers, replay_layer, student_rows) as f64,
    );
    values.insert(
        "tensor.macs_per_detect_frame",
        per(total(|c| c.detect_macs), student_frames),
    );
    values.insert("tensor.workspace_allocs", total(|c| c.workspace_allocs));

    let sum = |f: fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    values.insert(
        "net.codec_us_per_upload",
        per(stage(Stage::Codec), total(|c| c.encodes)) * 1e6,
    );
    values.insert("net.uplink_messages", total(|c| c.uplink_messages));
    values.insert("net.messages_lost", sum(|r| r.resilience.messages_lost));
    values.insert("net.uplink_bytes", sum(|r| r.uplink_bytes));
    values.insert(
        "resilience.upload_timeouts",
        sum(|r| r.resilience.upload_timeouts),
    );
    values.insert("resilience.retransmits", sum(|r| r.resilience.retransmits));
    values.insert(
        "resilience.breaker_opens",
        sum(|r| r.resilience.breaker_opens),
    );
    values.insert(
        "resilience.suppressed_bytes",
        sum(|r| r.resilience.suppressed_bytes),
    );
    values.insert(
        "resilience.ack_ratio",
        per(total(|c| c.uploads_acked), total(|c| c.uploads_attempted)),
    );

    values.insert(
        "metrics.frame_map_us_per_frame",
        per(stage(Stage::Eval), frames) * 1e6,
    );
    values.insert("metrics.pooled_map_ms", pooled_map_s * 1e3);
    values.insert("metrics.evals_retained", total(|c| c.evals_retained));
    let frame_us = if timings.frame_us.is_empty() {
        vec![0.0]
    } else {
        timings.frame_us.clone()
    };
    values.insert("sim.frame_us.p50", median(&frame_us));
    values.insert("sim.frame_us.p99", percentile(&frame_us, 99.0));
    values
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The student and teacher configs `Simulation::build_models` uses.
fn model_configs(config: &SimConfig) -> (StudentConfig, TeacherConfig) {
    let world = config.stream.library.world();
    let (dim, classes) = (world.feature_dim(), world.num_classes());
    let student = StudentConfig::new(dim, classes, config.student_seed);
    let teacher = TeacherConfig::new(dim, classes, config.teacher_seed);
    if config.quick_models {
        (student.quick(), teacher.quick())
    } else {
        (student, teacher)
    }
}

/// Plays `config` untraced and then traced; both must give the same
/// report as each other and as `reference` (an earlier round), and the
/// trace must be complete. Counts as two runs.
fn traced_run(
    config: &SimConfig,
    student: &StudentDetector,
    teacher: &TeacherDetector,
    reference: Option<&SimReport>,
    tally: &mut Tally,
) -> Option<Traced> {
    let name = config.strategy.name();
    let start = Instant::now();
    let untraced = Simulation::run_with_models(config, student.clone(), teacher.clone());
    let untraced_s = start.elapsed().as_secs_f64();
    let report = match untraced {
        Ok(report) => {
            let mut problems = check_report(config, &report);
            if let Some(reference) = reference {
                problems.extend(check_equal("repeated untraced runs", reference, &report));
            }
            tally.record(problems);
            report
        }
        Err(e) => {
            tally.record(vec![format!("{name}: {e}")]);
            return None;
        }
    };
    let mut recorder = RingRecorder::new(trace_capacity(config));
    let start = Instant::now();
    let traced = Simulation::run_traced(config, student.clone(), teacher.clone(), &mut recorder);
    let traced_s = start.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    match &traced {
        Ok(traced) => {
            problems.extend(check_report(config, traced));
            problems.extend(check_equal("traced and untraced reports", &report, traced));
        }
        Err(e) => problems.push(format!("traced {name}: {e}")),
    }
    if recorder.events_dropped() > 0 {
        problems.push(format!(
            "{name}: the trace ring evicted {} events",
            recorder.events_dropped()
        ));
    }
    let ok = problems.is_empty();
    tally.record(problems);
    ok.then(|| Traced {
        report,
        events: recorder.events_recorded(),
        records: recorder.drain_records(),
        untraced_s,
        traced_s,
    })
}

/// Replay state of one run: the same components the engine builds.
struct Replay<'a> {
    config: &'a SimConfig,
    student: StudentDetector,
    cloud: CloudServer,
    trainer: AdaptiveTrainer,
    link: Link,
    /// The engine's event RNG, seeded the way the engine seeds it.
    rng: Rng,
    /// Draws for the replay-memory probes, apart from the event RNG.
    probe_rng: Rng,
    /// Whether the replay reproduces the run bit for bit (fault-free).
    exact: bool,
    num_classes: usize,
    macs_per_row: u64,
    rate: f64,
    chunk: Vec<Frame>,
    sent: VecDeque<Vec<Frame>>,
    labels: VecDeque<LabeledSample>,
    evals: Vec<FrameEval>,
    per_frame_map: Vec<f64>,
    pooled_map: f64,
    counts: Counts,
    problems: Vec<String>,
}

impl<'a> Replay<'a> {
    fn new(
        config: &'a SimConfig,
        student: &StudentDetector,
        teacher: &TeacherDetector,
        macs_per_row: u64,
    ) -> Self {
        let num_classes = config.stream.library.world().num_classes();
        Self {
            config,
            student: student.clone(),
            cloud: CloudServer::new(teacher.clone(), num_classes, config.cloud)
                .expect("the engine accepted this cloud config"),
            trainer: AdaptiveTrainer::new(config.trainer.clone()),
            link: Link::new(config.link.clone()).expect("the engine accepted this link"),
            rng: Rng::seed_from(config.sim_seed ^ 0x53_49_4d), // "SIM", as the engine
            probe_rng: Rng::seed_from(0x5052_4f42),            // "PROB"
            exact: config.link.fault == FaultProfile::none()
                && config.cloud.faults == CloudFaultProfile::none(),
            num_classes,
            macs_per_row,
            rate: config
                .strategy
                .fixed_rate()
                .unwrap_or(config.cloud.controller.initial_rate),
            chunk: Vec::new(),
            sent: VecDeque::new(),
            labels: VecDeque::new(),
            evals: Vec::new(),
            per_frame_map: Vec::new(),
            pooled_map: 0.0,
            counts: Counts::default(),
            problems: Vec::new(),
        }
    }

    /// Replays the schedule in `records`.
    fn run(&mut self, records: &[Record], timings: &mut Timings) -> Result<(), String> {
        let mut stream = self.config.stream.build();
        let mut events = records.iter().peekable();
        loop {
            let mut frame_s = 0.0;
            let Some(frame) = timings.time(Stage::Synth, &mut frame_s, || stream.next()) else {
                break;
            };
            self.counts.frames += 1;
            self.counts.proposals += frame.proposals.len() as u64;
            self.counts.student_frames += 1;
            self.counts.detect_macs += frame.proposals.len() as u64 * self.macs_per_row;
            let detections =
                timings.time(Stage::Student, &mut frame_s, || self.student.detect(&frame));
            self.counts.detections += detections.len() as u64;
            let mut detections = Some(detections);
            while let Some(record) = events.next_if(|r| r.stamp.frame == frame.index) {
                self.event(record, &frame, &mut detections, timings, &mut frame_s)?;
            }
            if detections.is_some() {
                return Err(format!("frame {} has no FrameStatus event", frame.index));
            }
            // The engine drops each frame at the end of its loop body.
            timings.time(Stage::Synth, &mut frame_s, || drop(frame));
            timings.frame_us.push(frame_s * 1e6);
        }
        if let Some(extra) = events.next() {
            return Err(format!("trace continues past the stream: {extra:?}"));
        }
        let start = Instant::now();
        let pooled = map_at_05(&self.evals, self.num_classes);
        black_box(average_iou(&self.evals));
        timings.pooled_map_s.push(start.elapsed().as_secs_f64());
        self.pooled_map = pooled;
        self.counts.evals_retained = self.evals.len() as u64;
        self.counts.workspace_allocs = self.student.net().workspace_allocations() as u64;
        Ok(())
    }

    /// Replays one trace event of the current frame. `detections` is
    /// taken by the frame's closing `FrameStatus`.
    fn event(
        &mut self,
        record: &Record,
        frame: &Frame,
        detections: &mut Option<Vec<Detection>>,
        timings: &mut Timings,
        frame_s: &mut f64,
    ) -> Result<(), String> {
        let t = frame.timestamp;
        match record.event {
            Event::FrameSampled { .. } => {
                let chunk = &mut self.chunk;
                timings.time(Stage::Sample, frame_s, || chunk.push(frame.clone()));
            }
            Event::ChunkUploaded {
                frames,
                attempt,
                probe,
                latency_secs,
                ..
            } => {
                let frames = frames as usize;
                let chunk = if probe {
                    timings.time(Stage::Sample, frame_s, || vec![frame.clone()])
                } else if attempt == 1 {
                    std::mem::take(&mut self.chunk)
                } else {
                    // A retransmit: the trace does not say which chunk, so
                    // resend a remembered chunk of the same length.
                    self.sent
                        .iter()
                        .rev()
                        .find(|c| c.len() == frames)
                        .cloned()
                        .ok_or_else(|| format!("no {frames}-frame chunk to retransmit"))?
                };
                if chunk.len() != frames {
                    return Err(format!(
                        "frame {}: trace uploads {frames} frames, replay has {}",
                        frame.index,
                        chunk.len()
                    ));
                }
                self.transmit(t, &chunk, latency_secs.is_some(), timings, frame_s);
                if attempt == 1 && !probe {
                    let (link, rng) = (&mut self.link, &mut self.rng);
                    timings.time(Stage::Link, frame_s, || {
                        link.send_uplink(t, Message::Telemetry, rng)
                    });
                    self.counts.uplink_messages += 1;
                    self.sent.push_back(chunk);
                    if self.sent.len() > SENT_HISTORY {
                        self.sent.pop_front();
                    }
                }
            }
            Event::UploadSuppressed { frames, .. } => {
                if self.chunk.len() != frames as usize {
                    return Err(format!(
                        "frame {}: suppressed chunk size differs",
                        frame.index
                    ));
                }
                let gap = 1.0 / self.config.cloud.controller.outage_floor().min(self.rate);
                self.encode(gap, timings, frame_s);
                self.chunk.clear();
            }
            Event::RateDecision {
                alpha,
                lambda,
                rate,
                ..
            } => {
                let cloud = &mut self.cloud;
                let decision = timings.time(Stage::Controller, frame_s, || {
                    cloud.update_rate_detailed(alpha, lambda)
                });
                if self.exact && decision.rate != rate {
                    self.problems.push(format!(
                        "frame {}: controller rate {} != traced {rate}",
                        frame.index, decision.rate
                    ));
                }
                self.rate = rate;
            }
            Event::AdaptationStep {
                fresh_samples,
                mini_batches,
                ..
            } => self.adapt(
                fresh_samples as usize,
                mini_batches as usize,
                timings,
                frame_s,
            )?,
            Event::LabelBatchArrived { straggler, .. } => {
                if !straggler {
                    self.counts.uploads_acked += 1;
                }
            }
            Event::FrameStatus { map, .. } => {
                let detections = detections
                    .take()
                    .ok_or_else(|| format!("frame {} has two FrameStatus events", frame.index))?;
                let (evals, nc) = (&mut self.evals, self.num_classes);
                let frame_map = timings.time(Stage::Eval, frame_s, || {
                    let frame_map = frame_map_at_05(
                        &FrameEval {
                            detections: detections.clone(),
                            ground_truth: frame.ground_truth.clone(),
                        },
                        nc,
                    );
                    evals.push(FrameEval {
                        detections,
                        ground_truth: frame.ground_truth.clone(),
                    });
                    frame_map
                });
                self.per_frame_map.push(frame_map);
                if self.exact && frame_map != map {
                    self.problems.push(format!(
                        "frame {}: replayed mAP {frame_map} != traced {map}",
                        frame.index
                    ));
                }
            }
            Event::SampleSkipped
            | Event::UploadTimedOut { .. }
            | Event::BreakerTransition { .. }
            | Event::CloudLabelsDropped
            | Event::CloudLabelsSlow { .. } => {}
        }
        Ok(())
    }

    /// Encodes the pending chunk (as the engine does for a suppressed
    /// chunk).
    fn encode(&mut self, gap_secs: f64, timings: &mut Timings, frame_s: &mut f64) -> u64 {
        self.counts.encodes += 1;
        let (codec, chunk) = (&self.config.codec, &self.chunk);
        timings.time(Stage::Codec, frame_s, || {
            let stats: Vec<FrameGroupStats> = chunk
                .iter()
                .map(|f| FrameGroupStats::new(f.raw_bytes, f.motion_magnitude))
                .collect();
            codec.encode_group(&stats, gap_secs)
        })
    }

    /// The engine's chunk transmission: encode, upload, and when the trace
    /// says it arrived, label it, draw the cloud's label fate and send the
    /// labels back.
    fn transmit(
        &mut self,
        t: f64,
        chunk: &[Frame],
        delivered: bool,
        timings: &mut Timings,
        frame_s: &mut f64,
    ) {
        self.counts.encodes += 1;
        self.counts.uploads_attempted += 1;
        self.counts.uplink_messages += 1;
        let gap = 1.0 / self.rate.max(1e-6);
        let codec = &self.config.codec;
        let encoded = timings.time(Stage::Codec, frame_s, || {
            let stats: Vec<FrameGroupStats> = chunk
                .iter()
                .map(|f| FrameGroupStats::new(f.raw_bytes, f.motion_magnitude))
                .collect();
            codec.encode_group(&stats, gap)
        });
        let message = Message::FrameBatch {
            frames: chunk.len(),
            encoded_bytes: encoded,
        };
        let (link, rng) = (&mut self.link, &mut self.rng);
        let outcome = timings.time(Stage::Link, frame_s, || {
            link.send_uplink_outcome(t, message, rng)
        });
        if self.exact && outcome.delivered() != delivered {
            self.problems.push(format!(
                "t={t}: replayed upload fate differs from the trace"
            ));
        }
        if !delivered {
            return;
        }
        self.counts.teacher_frames += chunk.len() as u64;
        let cloud = &mut self.cloud;
        let batch = timings.time(Stage::Teacher, frame_s, || {
            let refs: Vec<&Frame> = chunk.iter().collect();
            cloud.label_batch(&refs)
        });
        let faults = self.config.cloud.faults;
        let fate = timings.time(Stage::Link, frame_s, || faults.label_fate(rng));
        if let LabelFate::Delivered { .. } = fate {
            let message = Message::Labels {
                samples: batch.total_samples,
            };
            let down = timings.time(Stage::Link, frame_s, || link.send_downlink(t, message, rng));
            if down.is_some() {
                self.labels.extend(batch.per_frame.into_iter().flatten());
            }
        }
    }

    /// One training session on the next `fresh` labelled samples, with
    /// the replay-memory probes beside it.
    fn adapt(
        &mut self,
        fresh: usize,
        mini_batches: usize,
        timings: &mut Timings,
        frame_s: &mut f64,
    ) -> Result<(), String> {
        if self.labels.len() < fresh {
            if self.exact {
                return Err(format!(
                    "session needs {fresh} samples, replay labelled {}",
                    self.labels.len()
                ));
            }
            // Under faults the replay's label pool can lag the engine's;
            // recycle recent labels so the session does the same work.
            let recent: Vec<LabeledSample> = self.labels.iter().cloned().collect();
            let missing = fresh - self.labels.len();
            self.labels.extend(recent.into_iter().cycle().take(missing));
        }
        let batch: Vec<LabeledSample> = self.labels.drain(..fresh.min(self.labels.len())).collect();
        self.probe_replay_memory(&batch, timings);
        let (trainer, student, rng) = (&mut self.trainer, &mut self.student, &mut self.rng);
        let report = timings
            .time(Stage::Adapt, frame_s, || {
                trainer.train_session(student, &batch, rng)
            })
            .map_err(|e| format!("replayed session: {e}"))?;
        self.counts.sessions += 1;
        self.counts.mini_batches += report.mini_batches as u64;
        if self.exact && report.mini_batches != mini_batches {
            self.problems.push(format!(
                "session {}: {} mini-batches, traced {mini_batches}",
                self.counts.sessions, report.mini_batches
            ));
        }
        Ok(())
    }

    /// Times `ReplayMemory::sample` and `ReplayMemory::integrate` on a copy
    /// of the trainer's memory at the sizes this session uses.
    fn probe_replay_memory(&mut self, batch: &[LabeledSample], timings: &mut Timings) {
        if batch.is_empty() {
            return;
        }
        let memory = self.trainer.memory();
        let (n, m) = (batch.len(), memory.len());
        let k = self.trainer.config().mini_batch.max(2);
        let k_fresh = if m == 0 {
            k
        } else {
            ((k * n) as f64 / (n + m) as f64).round().max(1.0) as usize
        };
        let k_replay = k.saturating_sub(k_fresh).min(m);
        if k_replay > 0 {
            let start = Instant::now();
            black_box(memory.sample(k_replay, &mut self.probe_rng));
            timings.sample_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        let width = self.student.config().widths.last().copied().unwrap_or(0);
        let items: Vec<ReplayItem> = batch
            .iter()
            .map(|s| ReplayItem {
                activation: vec![0.0; width],
                label: s.label,
                stored_at_run: 0,
            })
            .collect();
        let mut copy = memory.clone();
        let start = Instant::now();
        copy.integrate(items, &mut self.probe_rng);
        timings
            .integrate_us
            .push(start.elapsed().as_secs_f64() * 1e6);
        black_box(copy);
    }

    /// Problems reconciling the replay with the run's report.
    fn reconcile(&mut self, report: &SimReport) -> Vec<String> {
        let mut problems = std::mem::take(&mut self.problems);
        let name = &report.strategy;
        let c = &self.counts;
        let pairs = [
            ("frames", c.frames, report.frames),
            ("teacher frames", c.teacher_frames, report.teacher_frames),
            (
                "training sessions",
                c.sessions,
                report.training_sessions as u64,
            ),
        ];
        for (what, ledger, reported) in pairs {
            if ledger != reported {
                problems.push(format!(
                    "{name}: ledger {what} {ledger} != report {reported}"
                ));
            }
        }
        if self.exact {
            let exact = [
                ("pooled mAP", self.pooled_map == report.map50),
                ("per-frame mAP", self.per_frame_map == report.per_frame_map),
                (
                    "uplink bytes",
                    self.link.uplink_bytes() == report.uplink_bytes,
                ),
                (
                    "downlink bytes",
                    self.link.downlink_bytes() == report.downlink_bytes,
                ),
            ];
            for (what, equal) in exact {
                if !equal {
                    problems.push(format!("{name}: replayed {what} differ from the report"));
                }
            }
        }
        problems
    }
}

//! The end-to-end run, with tracing off (recorders that keep no events),
//! followed by the output checks (clocked and traced == untraced, and for
//! the fleet 1 thread == 2 threads).

use crate::report::{median, peak_rss_mb, Tally};
use crate::workload::Inputs;
use shoggoth::fleet::{run_fleet, run_fleet_traced, FleetConfig, FleetReport};
use shoggoth::sim::{SimConfig, SimReport, Simulation};
use shoggoth_models::{StudentDetector, TeacherDetector};
use shoggoth_telemetry::{Event, Record, Recorder, RingRecorder};
use std::collections::BTreeMap;
use std::time::Instant;

/// Timed iterations of the streaming phase, at least; more run while
/// `--seconds` has not elapsed.
///
/// `frames_per_s` adds up, frame by frame, the fastest time each frame took
/// over these iterations (every iteration plays the same frames and must
/// report the same results). On the shared 2-core VM the benchmark was
/// sized on, neighbours slowed identical single-threaded runs by up to 2x
/// for stretches of 20-60 s (CPU time tracked wall time; no steal), so
/// whole-run times, their median or their minimum, followed the host's
/// load: over five to ten seeds their quartile distance reached 0.19-0.31
/// of the median. The slowdowns come and go within milliseconds, though (a 0.5 ms
/// probe's fastest times held within 2% over two minutes while its median
/// moved by a third), so each frame's fastest time is the steady part.
const MIN_ITERATIONS: usize = 5;
/// Model builds per run for `setup_s` (paper-scale builds take ~5 s).
const PAPER_SETUP_REPEATS: usize = 3;
/// Model builds per run for `setup_s` with the quick models (~0.15 s).
const QUICK_SETUP_REPEATS: usize = 25;

/// Timed builds of the models (`Simulation::build_models`). The builds
/// are spread between the streaming iterations, so that `setup_s` and
/// `frames_per_s` sample the same stretch of host time.
struct Setup<'a> {
    config: &'a SimConfig,
    repeats: usize,
    secs: Vec<f64>,
}

impl<'a> Setup<'a> {
    fn new(config: &'a SimConfig) -> Self {
        let repeats = if config.quick_models {
            QUICK_SETUP_REPEATS
        } else {
            PAPER_SETUP_REPEATS
        };
        Self {
            config,
            repeats,
            secs: Vec::with_capacity(repeats),
        }
    }

    /// Builds and times the models once.
    fn build(&mut self) -> (StudentDetector, TeacherDetector) {
        let start = Instant::now();
        let models = Simulation::build_models(self.config);
        self.secs.push(start.elapsed().as_secs_f64());
        models
    }

    /// Builds once more unless every repeat has been timed.
    fn between_iterations(&mut self) {
        if self.secs.len() < self.repeats {
            self.build();
        }
    }

    /// Completes the repeats; returns the median build time.
    fn finish(mut self) -> f64 {
        while self.secs.len() < self.repeats {
            self.build();
        }
        median(&self.secs)
    }
}

/// Host time per frame of one run, taken from outside the engine: a
/// recorder that keeps no events and reads the host clock at each frame's
/// closing `FrameStatus` event (one clock read against 40-90 us of work per
/// frame). The first lap includes the engine's set-up; [`FrameClock::lap`]
/// after the run adds the report's assembly. Nothing flows back into the
/// engine, and `measure_runs` checks that every clocked report equals the
/// untraced one.
struct FrameClock {
    last: Instant,
    laps: Vec<f64>,
}

impl FrameClock {
    fn start(capacity: usize) -> Self {
        Self {
            laps: Vec::with_capacity(capacity),
            last: Instant::now(),
        }
    }

    /// Closes the current lap.
    fn lap(&mut self) {
        let now = Instant::now();
        self.laps.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

impl Recorder for FrameClock {
    fn record(&mut self, record: Record) {
        if let Event::FrameStatus { .. } = record.event {
            self.lap();
        }
    }

    fn is_enabled(&self) -> bool {
        false
    }
}

/// Ring capacity that keeps a whole run's trace (a few events per frame).
pub fn trace_capacity(config: &SimConfig) -> usize {
    config.stream.total_frames() as usize * 4 + 4096
}

/// Problems with one report on its own: every requested frame played and
/// every measured number finite.
pub fn check_report(config: &SimConfig, report: &SimReport) -> Vec<String> {
    let mut problems = Vec::new();
    let label = format!("{} seed {}", report.strategy, config.stream.seed);
    let frames = config.stream.total_frames();
    if report.frames != frames || report.per_frame_map.len() as u64 != frames {
        problems.push(format!(
            "{label}: played {} of {frames} frames ({} per-frame maps)",
            report.frames,
            report.per_frame_map.len()
        ));
    }
    let r = &report.resilience;
    let scalars = [
        report.duration_secs,
        report.map50,
        report.average_iou,
        report.uplink_kbps,
        report.downlink_kbps,
        report.avg_fps,
        report.min_fps,
        report.avg_session_secs,
        report.avg_sampling_rate,
        report.final_sampling_rate,
        report.cloud_training_secs,
        r.closed_secs,
        r.open_secs,
        r.half_open_secs,
    ];
    let series = report.fps_series.iter().flat_map(|(t, f)| [*t, *f]);
    if !scalars
        .into_iter()
        .chain(report.per_frame_map.iter().copied())
        .chain(series)
        .all(f64::is_finite)
    {
        problems.push(format!("{label}: non-finite metric in the report"));
    }
    problems
}

/// A problem if two reports that must be bit-identical differ.
pub fn check_equal(what: &str, a: &SimReport, b: &SimReport) -> Option<String> {
    (a != b).then(|| format!("{} on {}: {what} differ", a.strategy, a.stream_name))
}

/// Runs the end-to-end measurement; returns every `END_TO_END` metric.
pub fn measure(inputs: &Inputs, seconds: f64, tally: &mut Tally) -> BTreeMap<&'static str, f64> {
    let base = inputs.fleet.as_ref().map_or(&inputs.runs[0], |f| &f.base);
    let mut setup = Setup::new(base);
    let (student, teacher) = setup.build();
    let timed = match &inputs.fleet {
        Some(fleet) => measure_fleet(fleet, seconds, &mut setup, tally),
        None => measure_runs(
            &inputs.runs,
            (&student, &teacher),
            seconds,
            &mut setup,
            tally,
        ),
    };
    let setup_s = setup.finish();
    let mut values = BTreeMap::new();
    values.insert("setup_s", setup_s);
    values.insert("frames_per_s", timed.frames_per_s);
    values.insert("peak_rss_mb", timed.peak_rss_mb);
    let n = timed.reports.len().max(1) as f64;
    let mean = |f: fn(&SimReport) -> f64| timed.reports.iter().map(f).sum::<f64>() / n;
    values.insert("map50", mean(|r| r.map50));
    values.insert("uplink_kbps", mean(|r| r.uplink_kbps));
    values.insert("downlink_kbps", mean(|r| r.downlink_kbps));
    values
}

/// What the timed phase measured.
struct Timed {
    frames_per_s: f64,
    peak_rss_mb: f64,
    /// The reference reports every later run must reproduce: the untraced
    /// warm-up's, or the first fleet call's.
    reports: Vec<SimReport>,
}

/// Plays each config once untraced (the warm-up, and the reference every
/// later run must reproduce), then plays them back to back under a
/// [`FrameClock`] until `seconds` have passed (and at least
/// `MIN_ITERATIONS` times), then once more traced.
fn measure_runs(
    configs: &[SimConfig],
    (student, teacher): (&StudentDetector, &TeacherDetector),
    seconds: f64,
    setup: &mut Setup,
    tally: &mut Tally,
) -> Timed {
    let reference: Vec<Option<SimReport>> = configs
        .iter()
        .map(
            |config| match Simulation::run_with_models(config, student.clone(), teacher.clone()) {
                Ok(report) => {
                    tally.record(check_report(config, &report));
                    Some(report)
                }
                Err(e) => {
                    tally.record(vec![format!("{}: {e}", config.strategy.name())]);
                    None
                }
            },
        )
        .collect();
    // Per config, the fastest time of each frame over the clocked runs.
    let mut fastest: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut iterations = 0;
    let start = Instant::now();
    while iterations < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        iterations += 1;
        for (i, config) in configs.iter().enumerate() {
            let (s, t) = (student.clone(), teacher.clone());
            let mut clock = FrameClock::start(config.stream.total_frames() as usize + 1);
            let result = Simulation::run_traced(config, s, t, &mut clock);
            clock.lap();
            match result {
                Ok(report) => {
                    let mut problems = check_report(config, &report);
                    if let Some(untraced) = &reference[i] {
                        problems.extend(check_equal(
                            "clocked and untraced runs",
                            untraced,
                            &report,
                        ));
                    }
                    if fastest[i].is_empty() {
                        fastest[i] = clock.laps;
                    } else if fastest[i].len() == clock.laps.len() {
                        for (best, lap) in fastest[i].iter_mut().zip(clock.laps) {
                            *best = best.min(lap);
                        }
                    } else {
                        problems.push(format!("{}: frame count changed", config.strategy.name()));
                    }
                    tally.record(problems);
                }
                Err(e) => tally.record(vec![format!("{}: {e}", config.strategy.name())]),
            }
        }
        setup.between_iterations();
    }
    // Frames of one pass over the configs, over the sum of their frames'
    // fastest times.
    let frames: u64 = configs.iter().map(|c| c.stream.total_frames()).sum();
    let busy: f64 = fastest.iter().flatten().sum();
    let peak = peak_rss_mb().unwrap_or_else(|e| {
        tally.record(vec![e]);
        0.0
    });
    for (config, untraced) in configs.iter().zip(&reference) {
        let Some(untraced) = untraced else { continue };
        let mut recorder = RingRecorder::new(trace_capacity(config));
        match Simulation::run_traced(config, student.clone(), teacher.clone(), &mut recorder) {
            Ok(traced) => {
                let mut problems = check_report(config, &traced);
                problems.extend(check_equal(
                    "traced and untraced reports",
                    untraced,
                    &traced,
                ));
                tally.record(problems);
            }
            Err(e) => tally.record(vec![format!("traced {}: {e}", config.strategy.name())]),
        }
    }
    let all_timed = fastest.iter().all(|laps| !laps.is_empty());
    Timed {
        frames_per_s: if all_timed { frames as f64 / busy } else { 0.0 },
        peak_rss_mb: peak,
        reports: reference.into_iter().flatten().collect(),
    }
}

/// Records one fleet call as one run per device.
fn record_fleet(
    fleet: &FleetConfig,
    result: &Result<FleetReport, shoggoth::SimError>,
    reference: Option<&FleetReport>,
    what: &str,
    tally: &mut Tally,
) {
    match result {
        Ok(report) => {
            let configs = crate::workload::device_configs(fleet);
            for (device, (config, device_report)) in
                configs.iter().zip(&report.per_device).enumerate()
            {
                let mut problems = check_report(config, device_report);
                if let Some(first) = reference.and_then(|r| r.per_device.get(device)) {
                    problems.extend(check_equal(what, first, device_report));
                }
                tally.record(problems);
            }
            if report.per_device.len() != fleet.devices {
                let count = report.per_device.len();
                tally.record(vec![format!("fleet returned {count} device reports")]);
            }
        }
        Err(e) => {
            for _ in 0..fleet.devices {
                tally.record(vec![format!("fleet run: {e}")]);
            }
        }
    }
}

/// Times whole `run_fleet` calls (model build included, since the fleet
/// rebuilds its models on every call) and keeps the fastest, then checks
/// the serial and traced fleets against the first timed report.
fn measure_fleet(fleet: &FleetConfig, seconds: f64, setup: &mut Setup, tally: &mut Tally) -> Timed {
    let mut reference: Option<FleetReport> = None;
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        let run_start = Instant::now();
        let result = run_fleet(fleet);
        let secs = run_start.elapsed().as_secs_f64();
        record_fleet(
            fleet,
            &result,
            reference.as_ref(),
            "repeated fleet runs",
            tally,
        );
        if let Ok(report) = result {
            let frames: u64 = report.per_device.iter().map(|r| r.frames).sum();
            rates.push(frames as f64 / secs);
            reference.get_or_insert(report);
        } else {
            rates.push(0.0);
        }
        setup.between_iterations();
    }
    let peak = peak_rss_mb().unwrap_or_else(|e| {
        tally.record(vec![e]);
        0.0
    });
    let serial = run_fleet(&fleet.clone().with_threads(1));
    record_fleet(
        fleet,
        &serial,
        reference.as_ref(),
        "1- and 2-thread fleets",
        tally,
    );
    let capacity = trace_capacity(&fleet.base);
    let traced = run_fleet_traced(fleet, capacity).map(|(report, _)| report);
    record_fleet(
        fleet,
        &traced,
        reference.as_ref(),
        "traced and untraced fleets",
        tally,
    );
    Timed {
        frames_per_s: rates.iter().copied().fold(0.0, f64::max),
        peak_rss_mb: peak,
        reports: reference.map(|r| r.per_device).unwrap_or_default(),
    }
}

//! Golden: a run whose stream is synthesized ahead on a helper thread
//! (`Engine::run` iterates `shoggoth_util::prefetch(stream)`) equals the
//! same run with the stream inline — the `SimReport` under `==` and every
//! traced event — for all five strategies and under a link storm. They
//! must agree because the stream owns its seeded RNG and reads no engine
//! state. The inline reference runs as a `parallel_map` task, where the
//! pool's nesting rule keeps `prefetch` on the calling thread.

use shoggoth::sim::{SimConfig, SimReport, Simulation};
use shoggoth::strategy::Strategy;
use shoggoth_models::{StudentDetector, TeacherDetector};
use shoggoth_net::{FaultProfile, GilbertElliott, LatencyJitter, LinkConfig};
use shoggoth_telemetry::{Record, RingRecorder};
use shoggoth_util::{parallel_map, PREFETCH_CHUNK};
use shoggoth_video::presets;

/// Frames per run: many chunks, with scene cuts and blends in between.
const FRAMES: u64 = 1200;

fn config(strategy: Strategy) -> SimConfig {
    let mut config = SimConfig::quick(presets::kitti(41).with_total_frames(FRAMES));
    config.strategy = strategy;
    config
}

/// One traced run: the report and the whole event trace.
fn traced(
    config: &SimConfig,
    (student, teacher): (StudentDetector, TeacherDetector),
) -> (SimReport, Vec<Record>) {
    let mut recorder = RingRecorder::new(64 * FRAMES as usize);
    let report = Simulation::run_traced(config, student, teacher, &mut recorder)
        .expect("golden run completes");
    (report, recorder.drain_records())
}

/// Checks the two runs agree; returns the prefetched report.
fn assert_prefetch_matches_inline(config: &SimConfig, label: &str) -> SimReport {
    assert!(FRAMES > 3 * PREFETCH_CHUNK as u64);
    let models = Simulation::build_models(config);
    let inline = parallel_map(vec![models.clone()], 1, |_, models| traced(config, models))
        .pop()
        .expect("one inline run");
    let prefetched = traced(config, models);
    assert_eq!(prefetched.0.frames, FRAMES, "{label}: frames played");
    assert!(prefetched.0 == inline.0, "{label}: reports differ");
    assert!(
        !prefetched.1.is_empty() && prefetched.1 == inline.1,
        "{label}: traces differ"
    );
    prefetched.0
}

#[test]
fn every_strategy_matches_its_inline_run() {
    for strategy in Strategy::table_one() {
        let report = assert_prefetch_matches_inline(&config(strategy), &strategy.name());
        if strategy == Strategy::Shoggoth {
            assert!(report.training_sessions > 0, "the golden covers adaptation");
        }
    }
}

#[test]
fn a_storm_run_matches_its_inline_run() {
    let storm = FaultProfile::none()
        .with_burst(GilbertElliott::bursty())
        .with_outage(5.0, 12.0)
        .with_outage(20.0, 26.0)
        .with_degradation(0.0, 40.0, 0.2)
        .with_jitter(LatencyJitter {
            jitter_secs: 0.05,
            spike_prob: 0.1,
            spike_secs: 1.5,
        });
    let mut config = config(Strategy::Shoggoth);
    config.link = LinkConfig::cellular().with_fault(storm);
    let report = assert_prefetch_matches_inline(&config, "storm");
    assert!(
        report.resilience.upload_timeouts > 0,
        "the storm reaches the resilience layer"
    );
}

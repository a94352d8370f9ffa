//! Golden: concurrent pretraining in `Simulation::build_models` produces
//! exactly the models a serial `StudentDetector::pretrained_with` then
//! `TeacherDetector::pretrained_with` produces — every exported weight
//! equal to the last bit, at quick and paper scale, with the helper thread
//! and inline at `SHOGGOTH_THREADS=1`. The two must agree because each
//! pretraining owns its seeded RNG and reads only the shared library.

use shoggoth::sim::{SimConfig, Simulation};
use shoggoth_models::{StudentConfig, StudentDetector, TeacherConfig, TeacherDetector};
use shoggoth_video::presets;

/// The serial reference: the two pretrainings one after the other, with
/// the configs `build_models` derives from `config`.
fn serial_models(config: &SimConfig) -> (StudentDetector, TeacherDetector) {
    let library = &config.stream.library;
    let (dim, classes) = (library.world().feature_dim(), library.world().num_classes());
    let mut student_cfg = StudentConfig::new(dim, classes, config.student_seed);
    let mut teacher_cfg = TeacherConfig::new(dim, classes, config.teacher_seed);
    if config.quick_models {
        student_cfg = student_cfg.quick();
        teacher_cfg = teacher_cfg.quick();
    }
    let student = StudentDetector::pretrained_with(student_cfg, library, 0);
    let teacher = TeacherDetector::pretrained_with(teacher_cfg, library);
    (student, teacher)
}

/// Bit patterns of a weight buffer (`-0.0` and `0.0` differ).
fn bits(weights: &[f32]) -> Vec<u32> {
    weights.iter().map(|w| w.to_bits()).collect()
}

fn assert_matches_serial(config: &SimConfig, label: &str) {
    let (student, teacher) = Simulation::build_models(config);
    let (serial_student, serial_teacher) = serial_models(config);
    let (s, s0) = (
        student.net().export_weights(),
        serial_student.net().export_weights(),
    );
    let (t, t0) = (
        teacher.net().export_weights(),
        serial_teacher.net().export_weights(),
    );
    assert!(
        s == s0 && bits(&s) == bits(&s0),
        "{label}: student weights differ"
    );
    assert!(
        t == t0 && bits(&t) == bits(&t0),
        "{label}: teacher weights differ"
    );
}

#[test]
fn quick_models_match_serial_pretraining() {
    assert_matches_serial(&SimConfig::quick(presets::kitti(29)), "quick kitti");
    assert_matches_serial(&SimConfig::quick(presets::detrac(11)), "quick detrac");
}

/// Paper-scale pretraining takes minutes unoptimized, so this golden runs
/// in release builds (`cargo test --release -p shoggoth --test
/// pretrain_golden`, a CI step of its own).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "paper-scale pretraining; run with --release"
)]
fn paper_scale_models_match_serial_pretraining() {
    assert_matches_serial(&SimConfig::new(presets::detrac(11)), "paper detrac");
}

#[test]
fn single_thread_models_match_serial_pretraining() {
    if shoggoth_util::available_threads() == 1 {
        assert_matches_serial(&SimConfig::quick(presets::kitti(7)), "one thread");
        return;
    }
    // Re-run this test alone in a child process with SHOGGOTH_THREADS=1,
    // so this process's environment (shared by parallel tests) is left
    // untouched.
    let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args([
            "single_thread_models_match_serial_pretraining",
            "--test-threads=1",
        ])
        .env("SHOGGOTH_THREADS", "1")
        .output()
        .expect("test binary re-runs");
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(
        child.status.success() && stdout.contains("1 passed"),
        "SHOGGOTH_THREADS=1 re-run failed:\n{stdout}"
    );
}

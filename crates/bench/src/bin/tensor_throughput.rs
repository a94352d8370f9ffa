//! Fixed-workload throughput probe for the hot tensor path.
//!
//! Times the current workspace-backed kernels on a fixed workload and
//! writes `BENCH_tensor.json` to the current directory (`scripts/bench.sh`
//! runs it from the repo root):
//!
//! - `train_step.steps_per_sec` — full forward/loss/backward/update steps
//!   per second of a small MLP.
//! - `matmul[]` — ns per `matmul_into` product across square sizes.
//! - `simulation_frames_per_sec` — end-to-end simulated frames per second.
//! - `fleet_serial_secs` / `fleet_parallel_secs` — the same fleet run with
//!   one worker and with the auto pool.
//!
//! Probe sizes stay small (a second or two per section in release mode).
//! The stage benchmark (`benchmark/`) is the per-layer view, and Criterion
//! benches in `benches/` remain the statistically-rigorous one.

use shoggoth::fleet::{run_fleet, FleetConfig};
use shoggoth::sim::{SimConfig, Simulation};
use shoggoth::strategy::Strategy;
use shoggoth_tensor::{losses, Dense, Matrix, Mlp, Mode, Relu, SgdConfig, TensorError};
use shoggoth_util::Rng;
use shoggoth_video::presets;
use std::time::Instant;

/// Workload shape of the training-step probe.
const BATCH: usize = 64;
const IN_DIM: usize = 64;
const HIDDEN: usize = 128;
const CLASSES: usize = 10;
const TRAIN_STEPS: usize = 400;

struct MatmulTiming {
    size: usize,
    ns: f64,
}

struct TrainStepTiming {
    batch: usize,
    in_dim: usize,
    hidden: usize,
    classes: usize,
    steps_measured: usize,
    steps_per_sec: f64,
}

struct BenchReport {
    train_step: TrainStepTiming,
    matmul: Vec<MatmulTiming>,
    simulation_frames: u64,
    simulation_frames_per_sec: f64,
    fleet_serial_secs: f64,
    fleet_parallel_secs: f64,
}

impl BenchReport {
    // JSON is emitted by hand: the workspace's offline serde stand-in has
    // no real serializer, and this file must carry real numbers.
    fn to_json(&self) -> String {
        let t = &self.train_step;
        let matmul_rows: Vec<String> = self
            .matmul
            .iter()
            .map(|m| format!("    {{ \"size\": {}, \"ns\": {:.1} }}", m.size, m.ns))
            .collect();
        format!(
            "{{\n  \"train_step\": {{\n    \"batch\": {}, \"in_dim\": {}, \"hidden\": {}, \"classes\": {},\n    \"steps_measured\": {},\n    \"steps_per_sec\": {:.1}\n  }},\n  \"matmul\": [\n{}\n  ],\n  \"simulation_frames\": {},\n  \"simulation_frames_per_sec\": {:.1},\n  \"fleet_serial_secs\": {:.3},\n  \"fleet_parallel_secs\": {:.3}\n}}",
            t.batch,
            t.in_dim,
            t.hidden,
            t.classes,
            t.steps_measured,
            t.steps_per_sec,
            matmul_rows.join(",\n"),
            self.simulation_frames,
            self.simulation_frames_per_sec,
            self.fleet_serial_secs,
            self.fleet_parallel_secs,
        )
    }
}

fn probe_matmul(rng: &mut Rng) -> Vec<MatmulTiming> {
    let mut timings = Vec::new();
    for size in [32usize, 64, 128] {
        let a = Matrix::from_fn(size, size, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let b = Matrix::from_fn(size, size, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let reps = (40_000_000 / (size * size * size)).max(10);
        let mut sink = 0.0f32;
        let mut out = Matrix::zeros(size, size);
        let t0 = Instant::now();
        for _ in 0..reps {
            if a.matmul_into(&b, &mut out).is_ok() {
                sink += out.get(0, 0);
            }
        }
        let ns = t0.elapsed().as_nanos() as f64 / reps as f64;
        std::hint::black_box(sink);
        timings.push(MatmulTiming { size, ns });
    }
    timings
}

fn probe_train_steps(rng: &mut Rng) -> Result<TrainStepTiming, TensorError> {
    let x = Matrix::from_fn(BATCH, IN_DIM, |_, _| rng.next_gaussian_f32(0.0, 1.0));
    let labels: Vec<usize> = (0..BATCH).map(|i| i % CLASSES).collect();
    let sgd = SgdConfig::new(0.01)
        .with_momentum(0.9)
        .with_weight_decay(1e-4);
    let mut net = Mlp::new(vec![
        Box::new(Dense::new(IN_DIM, HIDDEN, rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(HIDDEN, CLASSES, rng)),
    ]);
    let mut grad = Matrix::zeros(0, 0);
    let t0 = Instant::now();
    for _ in 0..TRAIN_STEPS {
        let logits = net.forward(&x, Mode::Train)?;
        losses::softmax_cross_entropy_into(&logits, &labels, &mut grad)?;
        net.recycle(logits);
        net.backward_discard(&grad)?;
        net.step(&sgd)?;
    }
    let steps_per_sec = TRAIN_STEPS as f64 / t0.elapsed().as_secs_f64();

    Ok(TrainStepTiming {
        batch: BATCH,
        in_dim: IN_DIM,
        hidden: HIDDEN,
        classes: CLASSES,
        steps_measured: TRAIN_STEPS,
        steps_per_sec,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(17);

    eprintln!("[throughput] matmul kernels ...");
    let matmul = probe_matmul(&mut rng);
    eprintln!("[throughput] training steps ...");
    let train_step = probe_train_steps(&mut rng)?;

    eprintln!("[throughput] end-to-end simulation ...");
    let frames = 600u64;
    let mut sim_config = SimConfig::quick(presets::kitti(9).with_total_frames(frames));
    sim_config.strategy = Strategy::Shoggoth;
    let t0 = Instant::now();
    let report = Simulation::run(&sim_config)?;
    let simulation_frames_per_sec = report.frames as f64 / t0.elapsed().as_secs_f64();

    eprintln!("[throughput] fleet serial vs parallel ...");
    let mut base = SimConfig::quick(presets::kitti(71).with_total_frames(frames));
    base.strategy = Strategy::Shoggoth;
    let t0 = Instant::now();
    run_fleet(&FleetConfig::new(base.clone(), 2).with_threads(1))?;
    let fleet_serial_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    run_fleet(&FleetConfig::new(base, 2).with_threads(0))?;
    let fleet_parallel_secs = t0.elapsed().as_secs_f64();

    let result = BenchReport {
        train_step,
        matmul,
        simulation_frames: frames,
        simulation_frames_per_sec,
        fleet_serial_secs,
        fleet_parallel_secs,
    };
    let json = result.to_json();
    std::fs::write("BENCH_tensor.json", &json)?;
    println!("{json}");
    eprintln!("[throughput] written to BENCH_tensor.json");
    Ok(())
}

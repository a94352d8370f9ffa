//! The tensor layer of the ledger: the student's and teacher's layer
//! shapes, an analytic multiply-add count over them, and standalone
//! forward/backward timings of each layer kind at the real widths.

use shoggoth_models::{StudentConfig, TeacherConfig};
use shoggoth_tensor::{BatchRenorm, Dense, Layer, Matrix, Mode, Relu, Workspace};
use shoggoth_util::Rng;
use std::hint::black_box;
use std::time::Instant;

/// One layer of a model, by kind and width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Fully connected `in → out`.
    Dense(usize, usize),
    /// Batch renormalization over `dim` features.
    Brn(usize),
    /// ReLU over `dim` features.
    Relu(usize),
}

impl Shape {
    /// The layer's `Layer::name`.
    fn name(self) -> &'static str {
        match self {
            Shape::Dense(..) => "dense",
            Shape::Brn(_) => "batch-renorm",
            Shape::Relu(_) => "relu",
        }
    }

    /// Trainable parameters plus stored moments, as `Layer::param_count`.
    fn params(self) -> usize {
        match self {
            Shape::Dense(i, o) => i * o + o,
            Shape::Brn(d) => 4 * d,
            Shape::Relu(_) => 0,
        }
    }

    /// Multiply-adds per input row of a forward pass.
    fn macs_per_row(self) -> u64 {
        match self {
            Shape::Dense(i, o) => (i * o) as u64,
            Shape::Brn(_) | Shape::Relu(_) => 0,
        }
    }
}

/// The student's layers: input BRN, `Dense → BRN → ReLU` per hidden
/// width, then the head `Dense → ReLU → Dense`. The replay layer (the
/// head's input) is the index of the head's first `Dense`.
pub fn student_shapes(cfg: &StudentConfig) -> (Vec<Shape>, usize) {
    let mut shapes = vec![Shape::Brn(cfg.feature_dim)];
    let mut width = cfg.feature_dim;
    for &w in &cfg.widths {
        shapes.extend([Shape::Dense(width, w), Shape::Brn(w), Shape::Relu(w)]);
        width = w;
    }
    let replay_layer = shapes.len();
    shapes.extend([
        Shape::Dense(width, cfg.head_width),
        Shape::Relu(cfg.head_width),
        Shape::Dense(cfg.head_width, cfg.num_classes + 1),
    ]);
    (shapes, replay_layer)
}

/// The teacher's layers: `Dense → ReLU` per width, then a `Dense` head.
pub fn teacher_shapes(cfg: &TeacherConfig) -> Vec<Shape> {
    let mut shapes = Vec::new();
    let mut width = cfg.feature_dim;
    for &w in &cfg.widths {
        shapes.extend([Shape::Dense(width, w), Shape::Relu(w)]);
        width = w;
    }
    shapes.push(Shape::Dense(width, cfg.num_classes + 1));
    shapes
}

/// Checks the analytic shapes against a built model: the same layer
/// kinds in order (when the model exposes its network) and the same size
/// in bytes.
pub fn check_shapes(
    layer_names: Option<Vec<&'static str>>,
    weight_bytes: usize,
    shapes: &[Shape],
) -> Result<(), String> {
    let names: Vec<&str> = shapes.iter().map(|s| s.name()).collect();
    if let Some(actual) = layer_names {
        if actual != names {
            return Err(format!("analytic layers {names:?} != network {actual:?}"));
        }
    }
    let bytes = shapes.iter().map(|s| s.params()).sum::<usize>() * std::mem::size_of::<f32>();
    if bytes != weight_bytes {
        return Err(format!(
            "analytic model size {bytes} B != network {weight_bytes} B"
        ));
    }
    Ok(())
}

/// Multiply-adds of one forward pass per input row (one proposal).
pub fn forward_macs_per_row(shapes: &[Shape]) -> u64 {
    shapes.iter().map(|s| s.macs_per_row()).sum()
}

/// Multiply-adds of one steady-state adaptation step on `rows` rows with
/// the front frozen: forward through the layers from `replay_layer`, then
/// backward through them, computing every weight gradient and every input
/// gradient except the replay layer's own (the trainer discards it).
pub fn train_step_macs(shapes: &[Shape], replay_layer: usize, rows: usize) -> u64 {
    let tail = &shapes[replay_layer..];
    let forward: u64 = tail.iter().map(|s| s.macs_per_row()).sum();
    let weight_grads = forward;
    let input_grads: u64 = tail.iter().skip(1).map(|s| s.macs_per_row()).sum();
    (forward + weight_grads + input_grads) * rows as u64
}

/// Median forward and backward nanoseconds per call of each layer kind,
/// summed over every layer of that kind in `shapes`, in train mode on
/// `rows` rows: `[dense, brn, relu]`, each `(fwd_ns, bwd_ns)`.
pub fn kind_timings(shapes: &[Shape], rows: usize, reps: usize) -> [(f64, f64); 3] {
    let mut rng = Rng::seed_from(0x4c41_5945_5253); // "LAYERS"
    let mut ws = Workspace::new();
    let mut totals = [(0.0, 0.0); 3];
    for &shape in shapes {
        let (mut layer, kind, width_in, width_out): (Box<dyn Layer>, usize, usize, usize) =
            match shape {
                Shape::Dense(i, o) => (Box::new(Dense::new(i, o, &mut rng)), 0, i, o),
                Shape::Brn(d) => (Box::new(BatchRenorm::new(d)), 1, d, d),
                Shape::Relu(d) => (Box::new(Relu::new()), 2, d, d),
            };
        let input = random_matrix(rows, width_in, &mut rng);
        let grad = random_matrix(rows, width_out, &mut rng);
        let mut fwd = Vec::with_capacity(reps);
        let mut bwd = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = Instant::now();
            let out = layer
                .forward(black_box(&input), Mode::Train, &mut ws)
                .expect("layer accepts its own width");
            fwd.push(start.elapsed().as_nanos() as f64);
            ws.give(black_box(out));
            let start = Instant::now();
            let grad_in = layer
                .backward(black_box(&grad), &mut ws)
                .expect("train-mode forward preceded backward");
            bwd.push(start.elapsed().as_nanos() as f64);
            ws.give(black_box(grad_in));
        }
        totals[kind].0 += crate::report::median(&fwd);
        totals[kind].1 += crate::report::median(&bwd);
    }
    totals
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.next_f32() - 0.5;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use shoggoth_models::{StudentDetector, TeacherDetector};

    #[test]
    fn shapes_match_the_built_models() {
        for quick in [false, true] {
            let (s, t) = (StudentConfig::new(32, 4, 1), TeacherConfig::new(32, 4, 2));
            let (s, t) = if quick {
                (s.quick(), t.quick())
            } else {
                (s, t)
            };
            let student = StudentDetector::new(s.clone());
            let teacher = TeacherDetector::new(t.clone());
            let (shapes, replay_layer) = student_shapes(&s);
            check_shapes(
                Some(student.net().layer_names()),
                student.weight_bytes(),
                &shapes,
            )
            .expect("student shapes");
            assert_eq!(replay_layer, student.default_replay_layer());
            check_shapes(None, teacher.weight_bytes(), &teacher_shapes(&t))
                .expect("teacher shapes");
        }
    }

    #[test]
    fn train_step_macs_count_the_head_by_hand() {
        // Head 48 → 32 → 5 on 64 rows: forward 48·32 + 32·5, the same
        // again for weight gradients, and 32·5 for the one input gradient
        // that is not discarded.
        let cfg = StudentConfig::new(32, 4, 1);
        let (shapes, replay_layer) = student_shapes(&cfg);
        let per_row = 2 * (48 * 32 + 32 * 5) + 32 * 5;
        assert_eq!(train_step_macs(&shapes, replay_layer, 64), per_row * 64);
        assert_eq!(
            forward_macs_per_row(&shapes),
            32 * 64 + 64 * 64 + 64 * 48 + 48 * 32 + 32 * 5
        );
    }
}

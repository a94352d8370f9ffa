//! The layer abstraction and the parameterized / activation layers.
//!
//! A [`Layer`] maps a mini-batch matrix to a mini-batch matrix, caches what
//! it needs during `forward`, and propagates gradients in `backward`.
//! Parameter updates are decoupled from backpropagation so the owning
//! network can apply the paper's per-layer learning-rate scaling (front
//! layers frozen, head fully trained).
//!
//! Layers draw their output matrices from a caller-provided
//! [`Workspace`] and keep persistent caches that are overwritten in place
//! ([`Matrix::copy_from`]), so a steady-state train step allocates nothing
//! once the caches have grown to the working batch size.

use crate::workspace::Workspace;
use crate::{kernels, Matrix, SgdConfig, TensorError};

/// Whether a forward pass is part of training or evaluation.
///
/// Normalization layers use batch statistics and update running moments in
/// [`Mode::Train`]; they use running moments in [`Mode::Eval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training pass: caches are recorded, batch statistics are used.
    Train,
    /// Inference pass: no caches, running statistics are used.
    Eval,
}

/// A cursor over a flat parameter buffer used by weight import.
///
/// Obtained from a `&[f32]` and consumed front-to-back by each layer's
/// [`Layer::import_params`].
#[derive(Debug)]
pub struct ParamCursor<'a> {
    data: &'a [f32],
    offset: usize,
}

impl<'a> ParamCursor<'a> {
    /// Wraps a parameter buffer.
    pub fn new(data: &'a [f32]) -> Self {
        Self { data, offset: 0 }
    }

    /// Takes the next `n` parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ParamCount`] if fewer than `n` parameters
    /// remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [f32], TensorError> {
        if self.offset + n > self.data.len() {
            return Err(TensorError::ParamCount {
                expected: self.offset + n,
                actual: self.data.len(),
            });
        }
        let slice = &self.data[self.offset..self.offset + n];
        self.offset += n;
        Ok(slice)
    }

    /// Number of parameters consumed so far.
    pub fn consumed(&self) -> usize {
        self.offset
    }

    /// Number of parameters remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.offset
    }
}

/// A differentiable network layer.
///
/// Implementations cache whatever `forward` state `backward` needs; calling
/// `backward` without a preceding train-mode `forward` is an error. Output
/// matrices come from the supplied [`Workspace`]; the owning network hands
/// consumed intermediates back to it.
pub trait Layer: std::fmt::Debug + Send {
    /// Short human-readable layer name (for diagnostics).
    fn name(&self) -> &'static str;

    /// Computes the layer output for a batch (one example per row). The
    /// output matrix is taken from `ws`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the input width does not
    /// match the layer.
    fn forward(
        &mut self,
        input: &Matrix,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError>;

    /// Propagates `grad_output` (∂loss/∂output) to ∂loss/∂input, recording
    /// parameter gradients internally. The returned gradient matrix is
    /// taken from `ws`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MissingForwardCache`] if no train-mode forward
    /// pass preceded this call, or [`TensorError::ShapeMismatch`] if the
    /// gradient shape is wrong.
    fn backward(&mut self, grad_output: &Matrix, ws: &mut Workspace)
        -> Result<Matrix, TensorError>;

    /// [`backward`](Layer::backward) for the terminal layer of a backward
    /// pass: records parameter gradients without producing ∂loss/∂input,
    /// which the caller was going to discard. The default delegates to
    /// `backward` and recycles the result; layers with a separable
    /// input-gradient kernel (e.g. [`Dense`]) override it to skip that
    /// matmul entirely.
    ///
    /// # Errors
    ///
    /// Same contract as [`backward`](Layer::backward).
    fn backward_params_only(
        &mut self,
        grad_output: &Matrix,
        ws: &mut Workspace,
    ) -> Result<(), TensorError> {
        let grad_in = self.backward(grad_output, ws)?;
        ws.give(grad_in);
        Ok(())
    }

    /// Applies accumulated gradients with `cfg`, scaling the learning rate
    /// by `lr_scale` (the paper freezes front layers with `lr_scale = 0`).
    fn apply_update(&mut self, cfg: &SgdConfig, lr_scale: f32);

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Appends all parameters to `out` in a stable order.
    fn export_params(&self, out: &mut Vec<f32>) {
        let _ = out;
    }

    /// Reads parameters back in the order written by
    /// [`export_params`](Layer::export_params).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ParamCount`] if the cursor runs out of data.
    fn import_params(&mut self, cursor: &mut ParamCursor<'_>) -> Result<(), TensorError> {
        let _ = cursor;
        Ok(())
    }

    /// Output width for a given input width, used for shape validation when
    /// assembling networks.
    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }

    /// Deep-copies the layer behind a fresh `Box` (enables cloning whole
    /// networks, e.g. AMS's cloud-side shadow student).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A fully-connected layer: `y = x · W + b`.
///
/// Weights are initialized with He-style scaling, appropriate for the ReLU
/// networks the detector uses. The forward pass is the bias-fused
/// [`Matrix::addmm_into`]. The backward pass computes `grad_W` with the
/// transpose-free [`Matrix::matmul_transa_into`] and `grad · Wᵀ` as an
/// ordinary [`Matrix::matmul_into`] against a transposed copy of the weights
/// that persists across steps (refreshed from `W` on every backward, so it
/// can never go stale after an update or an import), writing into
/// gradient matrices that also persist.
///
/// # Examples
///
/// ```
/// use shoggoth_tensor::{Dense, Layer, Matrix, Mode, Workspace};
/// use shoggoth_util::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let mut ws = Workspace::new();
/// let mut layer = Dense::new(4, 2, &mut rng);
/// let x = Matrix::zeros(3, 4);
/// let y = layer.forward(&x, Mode::Eval, &mut ws)?;
/// assert_eq!((y.rows(), y.cols()), (3, 2));
/// # Ok::<(), shoggoth_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Matrix,
    bias: Matrix,
    grad_weights: Matrix,
    grad_bias: Matrix,
    vel_weights: Matrix,
    vel_bias: Matrix,
    /// `Wᵀ` (`out_dim × in_dim`) scratch for the input gradient.
    weights_t: Matrix,
    cached_input: Matrix,
    cache_valid: bool,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Creates a layer with He-initialized weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut shoggoth_util::Rng) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "Dense dimensions must be positive"
        );
        let scale = (2.0 / in_dim as f64).sqrt();
        let weights = Matrix::from_fn(in_dim, out_dim, |_, _| rng.next_gaussian(0.0, scale) as f32);
        Self {
            grad_weights: Matrix::zeros(in_dim, out_dim),
            grad_bias: Matrix::zeros(1, out_dim),
            vel_weights: Matrix::zeros(in_dim, out_dim),
            vel_bias: Matrix::zeros(1, out_dim),
            bias: Matrix::zeros(1, out_dim),
            weights_t: Matrix::zeros(0, 0),
            cached_input: Matrix::zeros(0, 0),
            cache_valid: false,
            weights,
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Read access to the weight matrix (for tests and diagnostics).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }
}

impl Layer for Dense {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(
        &mut self,
        input: &Matrix,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError> {
        if input.cols() != self.in_dim {
            return Err(TensorError::ShapeMismatch {
                context: "Dense::forward",
                expected: (input.rows(), self.in_dim),
                actual: (input.rows(), input.cols()),
            });
        }
        if mode == Mode::Train {
            self.cached_input.copy_from(input);
            self.cache_valid = true;
        }
        let mut out = ws.take(input.rows(), self.out_dim);
        input.addmm_into(&self.weights, &self.bias, &mut out)?;
        Ok(out)
    }

    fn backward(
        &mut self,
        grad_output: &Matrix,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError> {
        if !self.cache_valid {
            return Err(TensorError::MissingForwardCache { layer: "dense" });
        }
        self.cache_valid = false;
        if grad_output.cols() != self.out_dim || grad_output.rows() != self.cached_input.rows() {
            return Err(TensorError::ShapeMismatch {
                context: "Dense::backward",
                expected: (self.cached_input.rows(), self.out_dim),
                actual: (grad_output.rows(), grad_output.cols()),
            });
        }
        self.cached_input
            .matmul_transa_into(grad_output, &mut self.grad_weights)?;
        grad_output.col_sum_into(&mut self.grad_bias);
        self.weights.transpose_into(&mut self.weights_t);
        let mut grad_in = ws.take(grad_output.rows(), self.in_dim);
        grad_output.matmul_into(&self.weights_t, &mut grad_in)?;
        Ok(grad_in)
    }

    fn backward_params_only(
        &mut self,
        grad_output: &Matrix,
        _ws: &mut Workspace,
    ) -> Result<(), TensorError> {
        if !self.cache_valid {
            return Err(TensorError::MissingForwardCache { layer: "dense" });
        }
        self.cache_valid = false;
        if grad_output.cols() != self.out_dim || grad_output.rows() != self.cached_input.rows() {
            return Err(TensorError::ShapeMismatch {
                context: "Dense::backward_params_only",
                expected: (self.cached_input.rows(), self.out_dim),
                actual: (grad_output.rows(), grad_output.cols()),
            });
        }
        // Identical parameter gradients to `backward`, minus the
        // `grad · Wᵀ` matmul that a terminal layer's caller discards.
        self.cached_input
            .matmul_transa_into(grad_output, &mut self.grad_weights)?;
        grad_output.col_sum_into(&mut self.grad_bias);
        Ok(())
    }

    fn apply_update(&mut self, cfg: &SgdConfig, lr_scale: f32) {
        let lr = cfg.learning_rate * lr_scale;
        if shoggoth_util::float::is_exact_zero(lr) {
            return;
        }
        kernels::sgd_momentum_step(
            self.weights.as_mut_slice(),
            self.grad_weights.as_slice(),
            self.vel_weights.as_mut_slice(),
            lr,
            cfg.momentum,
            cfg.weight_decay,
        );
        kernels::sgd_momentum_step(
            self.bias.as_mut_slice(),
            self.grad_bias.as_slice(),
            self.vel_bias.as_mut_slice(),
            lr,
            cfg.momentum,
            0.0, // bias is conventionally exempt from weight decay
        );
    }

    fn param_count(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    fn export_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.weights.as_slice());
        out.extend_from_slice(self.bias.as_slice());
    }

    fn import_params(&mut self, cursor: &mut ParamCursor<'_>) -> Result<(), TensorError> {
        let w = cursor.take(self.in_dim * self.out_dim)?.to_vec();
        self.weights = Matrix::from_vec(self.in_dim, self.out_dim, w)?;
        let b = cursor.take(self.out_dim)?.to_vec();
        self.bias = Matrix::from_vec(1, self.out_dim, b)?;
        Ok(())
    }

    fn output_dim(&self, _input_dim: usize) -> usize {
        self.out_dim
    }
}

/// Rectified linear activation, `max(0, x)`.
#[derive(Debug, Clone)]
pub struct Relu {
    cached_input: Matrix,
    cache_valid: bool,
}

impl Relu {
    /// Creates the activation.
    pub fn new() -> Self {
        Self {
            cached_input: Matrix::zeros(0, 0),
            cache_valid: false,
        }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Relu {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(
        &mut self,
        input: &Matrix,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError> {
        if mode == Mode::Train {
            self.cached_input.copy_from(input);
            self.cache_valid = true;
        }
        let mut out = ws.take(input.rows(), input.cols());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = v.max(0.0);
        }
        Ok(out)
    }

    fn backward(
        &mut self,
        grad_output: &Matrix,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError> {
        if !self.cache_valid {
            return Err(TensorError::MissingForwardCache { layer: "relu" });
        }
        self.cache_valid = false;
        if grad_output.rows() != self.cached_input.rows()
            || grad_output.cols() != self.cached_input.cols()
        {
            return Err(TensorError::ShapeMismatch {
                context: "Relu::backward",
                expected: (self.cached_input.rows(), self.cached_input.cols()),
                actual: (grad_output.rows(), grad_output.cols()),
            });
        }
        let mut grad_in = ws.take(grad_output.rows(), grad_output.cols());
        for ((o, &g), &x) in grad_in
            .as_mut_slice()
            .iter_mut()
            .zip(grad_output.as_slice())
            .zip(self.cached_input.as_slice())
        {
            // `g * mask` (not a select) keeps results bit-identical to the
            // previous hadamard-with-mask formulation.
            *o = g * if x > 0.0 { 1.0 } else { 0.0 };
        }
        Ok(grad_in)
    }

    fn apply_update(&mut self, _cfg: &SgdConfig, _lr_scale: f32) {}
}

/// Hyperbolic-tangent activation.
#[derive(Debug, Clone)]
pub struct Tanh {
    cached_output: Matrix,
    cache_valid: bool,
}

impl Tanh {
    /// Creates the activation.
    pub fn new() -> Self {
        Self {
            cached_output: Matrix::zeros(0, 0),
            cache_valid: false,
        }
    }
}

impl Default for Tanh {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Tanh {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "tanh"
    }

    fn forward(
        &mut self,
        input: &Matrix,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError> {
        let mut out = ws.take(input.rows(), input.cols());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = v.tanh();
        }
        if mode == Mode::Train {
            self.cached_output.copy_from(&out);
            self.cache_valid = true;
        }
        Ok(out)
    }

    fn backward(
        &mut self,
        grad_output: &Matrix,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError> {
        if !self.cache_valid {
            return Err(TensorError::MissingForwardCache { layer: "tanh" });
        }
        self.cache_valid = false;
        if grad_output.rows() != self.cached_output.rows()
            || grad_output.cols() != self.cached_output.cols()
        {
            return Err(TensorError::ShapeMismatch {
                context: "Tanh::backward",
                expected: (self.cached_output.rows(), self.cached_output.cols()),
                actual: (grad_output.rows(), grad_output.cols()),
            });
        }
        let mut grad_in = ws.take(grad_output.rows(), grad_output.cols());
        for ((o, &g), &y) in grad_in
            .as_mut_slice()
            .iter_mut()
            .zip(grad_output.as_slice())
            .zip(self.cached_output.as_slice())
        {
            *o = g * (1.0 - y * y);
        }
        Ok(grad_in)
    }

    fn apply_update(&mut self, _cfg: &SgdConfig, _lr_scale: f32) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use shoggoth_util::Rng;

    #[test]
    fn dense_forward_hand_checked() {
        let mut rng = Rng::seed_from(0);
        let mut ws = Workspace::new();
        let mut layer = Dense::new(2, 2, &mut rng);
        let mut cursor_data = vec![1.0, 2.0, 3.0, 4.0, 0.5, -0.5];
        let mut cursor = ParamCursor::new(&cursor_data);
        layer.import_params(&mut cursor).expect("params fit");
        cursor_data.clear();
        let x = Matrix::from_rows(&[&[1.0, 1.0]]).expect("valid");
        let y = layer.forward(&x, Mode::Eval, &mut ws).expect("shapes");
        // [1,1]·[[1,2],[3,4]] + [0.5,-0.5] = [4.5, 5.5]
        assert_eq!(y.row(0), &[4.5, 5.5]);
    }

    #[test]
    fn dense_rejects_wrong_input_width() {
        let mut rng = Rng::seed_from(0);
        let mut ws = Workspace::new();
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Matrix::zeros(1, 4);
        assert!(layer.forward(&x, Mode::Eval, &mut ws).is_err());
    }

    #[test]
    fn dense_backward_without_forward_errors() {
        let mut rng = Rng::seed_from(0);
        let mut ws = Workspace::new();
        let mut layer = Dense::new(2, 2, &mut rng);
        let g = Matrix::zeros(1, 2);
        assert!(matches!(
            layer.backward(&g, &mut ws),
            Err(TensorError::MissingForwardCache { .. })
        ));
    }

    #[test]
    fn dense_export_import_round_trip() {
        let mut rng = Rng::seed_from(1);
        let layer = Dense::new(3, 4, &mut rng);
        let mut buf = Vec::new();
        layer.export_params(&mut buf);
        assert_eq!(buf.len(), layer.param_count());
        let mut copy = Dense::new(3, 4, &mut rng);
        let mut cursor = ParamCursor::new(&buf);
        copy.import_params(&mut cursor).expect("params fit");
        assert_eq!(copy.weights(), layer.weights());
    }

    #[test]
    fn relu_clamps_and_masks_gradient() {
        let mut relu = Relu::new();
        let mut ws = Workspace::new();
        let x = Matrix::from_rows(&[&[-1.0, 2.0]]).expect("valid");
        let y = relu.forward(&x, Mode::Train, &mut ws).expect("shapes");
        assert_eq!(y.row(0), &[0.0, 2.0]);
        let g = Matrix::from_rows(&[&[5.0, 5.0]]).expect("valid");
        let gi = relu.backward(&g, &mut ws).expect("cached");
        assert_eq!(gi.row(0), &[0.0, 5.0]);
    }

    #[test]
    fn tanh_gradient_matches_identity() {
        let mut tanh = Tanh::new();
        let mut ws = Workspace::new();
        let x = Matrix::from_rows(&[&[0.0]]).expect("valid");
        tanh.forward(&x, Mode::Train, &mut ws).expect("shapes");
        let g = Matrix::from_rows(&[&[1.0]]).expect("valid");
        let gi = tanh.backward(&g, &mut ws).expect("cached");
        // d tanh(0)/dx = 1
        assert!((gi.get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn param_cursor_over_read_errors() {
        let data = [1.0, 2.0];
        let mut cursor = ParamCursor::new(&data);
        assert!(cursor.take(2).is_ok());
        assert!(cursor.take(1).is_err());
        assert_eq!(cursor.consumed(), 2);
        assert_eq!(cursor.remaining(), 0);
    }

    /// Finite-difference gradient check for the dense layer through a
    /// scalar loss `L = sum(output^2) / 2`.
    #[test]
    fn dense_gradient_check() {
        let mut rng = Rng::seed_from(7);
        let mut ws = Workspace::new();
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Matrix::from_fn(4, 3, |_, _| rng.next_gaussian_f32(0.0, 1.0));

        // Analytic gradients.
        let y = layer.forward(&x, Mode::Train, &mut ws).expect("shapes");
        let grad_out = y.clone(); // dL/dy for L = sum(y^2)/2
        let grad_in = layer.backward(&grad_out, &mut ws).expect("cached");

        // Numeric gradient w.r.t. one input element.
        let eps = 1e-3f32;
        for probe in [(0usize, 0usize), (2, 1), (3, 2)] {
            let mut xp = x.clone();
            xp.set(probe.0, probe.1, x.get(probe.0, probe.1) + eps);
            let mut xm = x.clone();
            xm.set(probe.0, probe.1, x.get(probe.0, probe.1) - eps);
            let mut loss = |m: &Matrix, layer: &mut Dense| {
                let y = layer.forward(m, Mode::Eval, &mut ws).expect("shapes");
                y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
            };
            let numeric = (loss(&xp, &mut layer) - loss(&xm, &mut layer)) / (2.0 * eps);
            let analytic = grad_in.get(probe.0, probe.1);
            assert!(
                (numeric - analytic).abs() < 1e-2 * (1.0 + analytic.abs()),
                "probe {probe:?}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn dense_backward_matches_transposing_path() {
        // The transpose-free kernels must reproduce the textbook
        // expressions bit-for-bit.
        let mut rng = Rng::seed_from(11);
        let mut ws = Workspace::new();
        let mut layer = Dense::new(5, 3, &mut rng);
        let x = Matrix::from_fn(7, 5, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let y = layer.forward(&x, Mode::Train, &mut ws).expect("shapes");
        let g = Matrix::from_fn(7, 3, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let grad_in = layer.backward(&g, &mut ws).expect("cached");

        let ref_out = x
            .matmul(layer.weights())
            .and_then(|m| {
                // Rebuild the bias the layer used.
                let mut params = Vec::new();
                layer.export_params(&mut params);
                let bias = Matrix::from_vec(1, 3, params[15..].to_vec())?;
                m.add_row_broadcast(&bias)
            })
            .expect("shapes");
        assert_eq!(y, ref_out);
        let ref_grad_in = g.matmul(&layer.weights().transpose()).expect("shapes");
        assert_eq!(grad_in, ref_grad_in);
    }
}

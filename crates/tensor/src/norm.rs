//! The Batch Renormalization layer.
//!
//! The paper (§III-B) replaces BN with Batch Renormalization (Ioffe, 2017)
//! because adaptive training runs with fine-grained mini-batches whose
//! statistics are noisy; BRN corrects the batch statistics toward the
//! running moments with the clipped `r`/`d` factors, "controlling internal
//! covariate shift, hence making learning with fine-grained batches faster
//! and more robust." Plain BN is the special case `r_max = 1`, `d_max = 0`
//! (`BatchRenorm::new(d).with_clip(1.0, 0.0)`).
//!
//! `NormCore` holds the affine `γ`/`β` parameters, the running moments and
//! the normalize/backward passes; `BatchRenorm` adds the train-time
//! correction factors. All per-call scratch (batch moments, effective
//! scale/shift, backward σ and ĝ means) lives in persistent vectors
//! overwritten in place, so steady-state training performs no heap
//! allocation. Both passes walk the matrices row by row into per-feature
//! accumulators; each feature still sums its batch rows in increasing
//! order, so the results equal a column-by-column loop bit for bit.

use crate::layer::{Layer, Mode, ParamCursor};
use crate::workspace::Workspace;
use crate::{kernels, Matrix, SgdConfig, TensorError};

const EPS: f32 = 1e-5;

/// Normalization state and passes behind [`BatchRenorm`].
#[derive(Debug, Clone)]
struct NormCore {
    dim: usize,
    gamma: Matrix,
    beta: Matrix,
    grad_gamma: Matrix,
    grad_beta: Matrix,
    vel_gamma: Matrix,
    vel_beta: Matrix,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    /// Momentum of the running-moment EMA update.
    stat_momentum: f32,
    /// Cache for backward: normalized activations `x̂` (persistent storage,
    /// overwritten each train-mode forward).
    cached_xhat: Matrix,
    /// Cache for backward: centered inputs `x - μ_B`.
    cached_centered: Matrix,
    /// Cache for backward: per-feature `r / σ_B` effective scale.
    cached_scale: Vec<f32>,
    /// Whether the caches hold a live train-mode forward pass.
    cache_valid: bool,
    /// Scratch: per-feature batch mean (or running mean in eval).
    stat_mean: Vec<f32>,
    /// Scratch: per-feature biased batch variance.
    stat_var: Vec<f32>,
    /// Scratch: per-feature normalization scale.
    stat_scale: Vec<f32>,
    /// Scratch: per-feature normalization shift (BRN's `d`; zero in eval).
    stat_shift: Vec<f32>,
    /// Scratch: per-feature σ_B recomputed during backward.
    stat_sigma: Vec<f32>,
    /// Scratch: per-feature batch mean of `ĝ = γ ⊙ dL/dy` (backward).
    stat_mean_g: Vec<f32>,
    /// Scratch: per-feature batch mean of `ĝ ⊙ x̂_c` (backward).
    stat_mean_gx: Vec<f32>,
}

impl NormCore {
    fn new(dim: usize) -> Self {
        assert!(dim > 0, "normalization dimension must be positive");
        Self {
            dim,
            gamma: Matrix::filled(1, dim, 1.0),
            beta: Matrix::zeros(1, dim),
            grad_gamma: Matrix::zeros(1, dim),
            grad_beta: Matrix::zeros(1, dim),
            vel_gamma: Matrix::zeros(1, dim),
            vel_beta: Matrix::zeros(1, dim),
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            stat_momentum: 0.1,
            cached_xhat: Matrix::zeros(0, 0),
            cached_centered: Matrix::zeros(0, 0),
            cached_scale: Vec::new(),
            cache_valid: false,
            stat_mean: Vec::new(),
            stat_var: Vec::new(),
            stat_scale: Vec::new(),
            stat_shift: Vec::new(),
            stat_sigma: Vec::new(),
            stat_mean_g: Vec::new(),
            stat_mean_gx: Vec::new(),
        }
    }

    fn check_width(&self, input: &Matrix, context: &'static str) -> Result<(), TensorError> {
        if input.cols() != self.dim {
            return Err(TensorError::ShapeMismatch {
                context,
                expected: (input.rows(), self.dim),
                actual: (input.rows(), input.cols()),
            });
        }
        Ok(())
    }

    /// Per-feature batch mean and (biased) variance, written into
    /// `stat_mean` / `stat_var`.
    fn batch_moments(&mut self, input: &Matrix) {
        let n = input.rows().max(1) as f32;
        self.stat_mean.clear();
        self.stat_mean.resize(self.dim, 0.0);
        for r in 0..input.rows() {
            for (m, &v) in self.stat_mean.iter_mut().zip(input.row(r)) {
                *m += v;
            }
        }
        for m in &mut self.stat_mean {
            *m /= n;
        }
        self.stat_var.clear();
        self.stat_var.resize(self.dim, 0.0);
        for r in 0..input.rows() {
            for ((v, &x), &m) in self
                .stat_var
                .iter_mut()
                .zip(input.row(r))
                .zip(&self.stat_mean)
            {
                let d = x - m;
                *v += d * d;
            }
        }
        for v in &mut self.stat_var {
            *v /= n;
        }
    }

    /// Loads eval-mode statistics (running moments) into the scratch stats.
    fn load_eval_stats(&mut self) {
        self.stat_mean.clear();
        self.stat_mean.extend_from_slice(&self.running_mean);
        self.stat_scale.clear();
        self.stat_scale
            .extend(self.running_var.iter().map(|&v| 1.0 / (v + EPS).sqrt()));
        self.stat_shift.clear();
        self.stat_shift.resize(self.dim, 0.0);
    }

    fn update_running(&mut self) {
        let m = self.stat_momentum;
        for i in 0..self.dim {
            self.running_mean[i] = (1.0 - m) * self.running_mean[i] + m * self.stat_mean[i];
            self.running_var[i] = (1.0 - m) * self.running_var[i] + m * self.stat_var[i];
        }
    }

    /// Normalizes with the scratch per-feature stats:
    /// `x̂ = (x − μ) * scale + shift`, then `y = γ·x̂ + β`.
    /// Caches everything `backward` needs when `cache` is set.
    fn normalize_from_stats(&mut self, input: &Matrix, cache: bool, ws: &mut Workspace) -> Matrix {
        let rows = input.rows();
        let dim = self.dim;
        let mut out = ws.take(rows, dim);
        let stats = || {
            self.stat_mean
                .iter()
                .zip(&self.stat_scale)
                .zip(&self.stat_shift)
                .zip(self.gamma.as_slice().iter().zip(self.beta.as_slice()))
        };
        if !cache {
            for (in_row, out_row) in input
                .as_slice()
                .chunks_exact(dim)
                .zip(out.as_mut_slice().chunks_exact_mut(dim))
            {
                for ((&x, o), (((&mean, &scale), &shift), (&gamma, &beta))) in
                    in_row.iter().zip(out_row).zip(stats())
                {
                    let xh = (x - mean) * scale + shift;
                    *o = gamma * xh + beta;
                }
            }
            return out;
        }
        self.cached_centered.resize_zeroed(rows, dim);
        self.cached_xhat.resize_zeroed(rows, dim);
        self.cached_scale.clear();
        self.cached_scale.extend_from_slice(&self.stat_scale);
        self.cache_valid = true;
        let row_sets = input
            .as_slice()
            .chunks_exact(dim)
            .zip(out.as_mut_slice().chunks_exact_mut(dim))
            .zip(self.cached_centered.as_mut_slice().chunks_exact_mut(dim))
            .zip(self.cached_xhat.as_mut_slice().chunks_exact_mut(dim));
        for (((in_row, out_row), cen_row), xhat_row) in row_sets {
            let outs = out_row.iter_mut().zip(cen_row).zip(xhat_row);
            for ((&x, ((o, cen_o), xh_o)), (((&mean, &scale), &shift), (&gamma, &beta))) in
                in_row.iter().zip(outs).zip(stats())
            {
                let cen = x - mean;
                let xh = cen * scale + shift;
                *cen_o = cen;
                *xh_o = xh;
                *o = gamma * xh + beta;
            }
        }
        out
    }

    /// Backward pass.
    ///
    /// With stop-gradient on the renorm correction factors (per Ioffe 2017),
    /// BRN reduces to the classic BN input gradient scaled by the cached
    /// effective per-feature scale `s = r/σ_B` (`r = 1` for plain BN):
    ///
    /// `dL/dx = s · (ĝ − mean(ĝ) − x̂_c · mean(ĝ ⊙ x̂_c))`
    ///
    /// where `ĝ = γ ⊙ dL/dy` and `x̂_c = centered/σ_B` is the *uncorrected*
    /// normalized input.
    fn backward(
        &mut self,
        grad_output: &Matrix,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError> {
        if !self.cache_valid {
            return Err(TensorError::MissingForwardCache {
                layer: "batch-renorm",
            });
        }
        self.cache_valid = false;
        if grad_output.rows() != self.cached_xhat.rows() || grad_output.cols() != self.dim {
            return Err(TensorError::ShapeMismatch {
                context: "NormCore::backward",
                expected: (self.cached_xhat.rows(), self.dim),
                actual: (grad_output.rows(), grad_output.cols()),
            });
        }
        let rows = self.cached_xhat.rows();
        let n = rows as f32;
        let dim = self.dim;

        // Every per-feature sum below runs over the batch rows in
        // increasing order, so walking the matrices row by row into
        // per-feature accumulators adds each column's terms in exactly the
        // order of a column-by-column loop.
        let grad_rows = || grad_output.as_slice().chunks_exact(dim);
        let centered_rows = || self.cached_centered.as_slice().chunks_exact(dim);

        // Parameter gradients.
        let grad_gamma = self.grad_gamma.as_mut_slice();
        let grad_beta = self.grad_beta.as_mut_slice();
        grad_gamma.fill(0.0);
        grad_beta.fill(0.0);
        for (g_row, xhat_row) in grad_rows().zip(self.cached_xhat.as_slice().chunks_exact(dim)) {
            for (((gg, gb), &g), &xh) in grad_gamma
                .iter_mut()
                .zip(grad_beta.iter_mut())
                .zip(g_row)
                .zip(xhat_row)
            {
                *gg += g * xh;
                *gb += g;
            }
        }

        // Input gradient. The variance used at forward time is recoverable
        // from the cached effective scale only for BN (r = 1); for BRN we
        // cached `r/σ_B` directly, and the gradient formula needs the
        // *uncorrected* normalized value `centered/σ_B`. We recompute σ_B
        // from the centered cache, which is exact.
        self.stat_sigma.clear();
        self.stat_sigma.resize(dim, 0.0);
        for cen_row in centered_rows() {
            for (v, &d) in self.stat_sigma.iter_mut().zip(cen_row) {
                *v += d * d;
            }
        }
        for s in &mut self.stat_sigma {
            *s = (*s / n + EPS).sqrt();
        }

        // ĝ statistics over the batch.
        let gamma = self.gamma.as_slice();
        self.stat_mean_g.clear();
        self.stat_mean_g.resize(dim, 0.0);
        self.stat_mean_gx.clear();
        self.stat_mean_gx.resize(dim, 0.0);
        for (g_row, cen_row) in grad_rows().zip(centered_rows()) {
            let sums = self
                .stat_mean_g
                .iter_mut()
                .zip(self.stat_mean_gx.iter_mut());
            let terms = g_row
                .iter()
                .zip(cen_row)
                .zip(gamma.iter().zip(&self.stat_sigma));
            for ((mean_g, mean_gx), ((&g, &cen), (&gamma, &sigma))) in sums.zip(terms) {
                let ghat = gamma * g;
                let xc = cen / sigma;
                *mean_g += ghat;
                *mean_gx += ghat * xc;
            }
        }
        for (mean_g, mean_gx) in self.stat_mean_g.iter_mut().zip(&mut self.stat_mean_gx) {
            *mean_g /= n;
            *mean_gx /= n;
        }

        let mut grad_in = ws.take(rows, dim);
        let per_feature = || {
            gamma
                .iter()
                .zip(&self.stat_sigma)
                .zip(self.cached_scale.iter().zip(&self.stat_mean_g))
                .zip(&self.stat_mean_gx)
        };
        let row_sets = grad_rows()
            .zip(centered_rows())
            .zip(grad_in.as_mut_slice().chunks_exact_mut(dim));
        for ((g_row, cen_row), out_row) in row_sets {
            for (((&g, &cen), o), (((&gamma, &sigma), (&scale, &mean_g)), &mean_gx)) in
                g_row.iter().zip(cen_row).zip(out_row).zip(per_feature())
            {
                let ghat = gamma * g;
                let xc = cen / sigma;
                *o = scale * (ghat - mean_g - xc * mean_gx);
            }
        }
        Ok(grad_in)
    }

    fn apply_update(&mut self, cfg: &SgdConfig, lr_scale: f32) {
        let lr = cfg.learning_rate * lr_scale;
        if shoggoth_util::float::is_exact_zero(lr) {
            return;
        }
        kernels::sgd_momentum_step(
            self.gamma.as_mut_slice(),
            self.grad_gamma.as_slice(),
            self.vel_gamma.as_mut_slice(),
            lr,
            cfg.momentum,
            0.0, // γ/β are exempt from weight decay
        );
        kernels::sgd_momentum_step(
            self.beta.as_mut_slice(),
            self.grad_beta.as_slice(),
            self.vel_beta.as_mut_slice(),
            lr,
            cfg.momentum,
            0.0,
        );
    }

    fn export_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.gamma.as_slice());
        out.extend_from_slice(self.beta.as_slice());
        out.extend_from_slice(&self.running_mean);
        out.extend_from_slice(&self.running_var);
    }

    fn import_params(&mut self, cursor: &mut ParamCursor<'_>) -> Result<(), TensorError> {
        let g = cursor.take(self.dim)?.to_vec();
        self.gamma = Matrix::from_vec(1, self.dim, g)?;
        let b = cursor.take(self.dim)?.to_vec();
        self.beta = Matrix::from_vec(1, self.dim, b)?;
        self.running_mean = cursor.take(self.dim)?.to_vec();
        self.running_var = cursor.take(self.dim)?.to_vec();
        Ok(())
    }

    fn param_count(&self) -> usize {
        // γ, β plus the running moments (shipped with the model in AMS-style
        // model streaming, so they count toward transfer size).
        4 * self.dim
    }
}

/// Batch Renormalization (Ioffe, 2017).
///
/// Train-mode forward corrects the batch statistics toward the running
/// moments with clipped factors `r = clip(σ_B/σ, 1/r_max, r_max)` and
/// `d = clip((μ_B − μ)/σ, −d_max, d_max)` (stop-gradient on both), making
/// small-batch training behave like large-batch training — the property the
/// paper relies on for fine-grained on-device batches.
#[derive(Debug, Clone)]
pub struct BatchRenorm {
    core: NormCore,
    r_max: f32,
    d_max: f32,
}

impl BatchRenorm {
    /// Creates a BRN layer over `dim` features with the customary clip
    /// limits `r_max = 3`, `d_max = 5`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        Self {
            core: NormCore::new(dim),
            r_max: 3.0,
            d_max: 5.0,
        }
    }

    /// Overrides the clip limits.
    ///
    /// # Panics
    ///
    /// Panics unless `r_max >= 1` and `d_max >= 0`.
    pub fn with_clip(mut self, r_max: f32, d_max: f32) -> Self {
        assert!(r_max >= 1.0, "r_max must be >= 1");
        assert!(d_max >= 0.0, "d_max must be >= 0");
        self.r_max = r_max;
        self.d_max = d_max;
        self
    }

    /// The running mean (for tests/diagnostics).
    pub fn running_mean(&self) -> &[f32] {
        &self.core.running_mean
    }
}

impl Layer for BatchRenorm {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "batch-renorm"
    }

    fn forward(
        &mut self,
        input: &Matrix,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError> {
        self.core.check_width(input, "BatchRenorm::forward")?;
        match mode {
            Mode::Train => {
                self.core.batch_moments(input);
                let core = &mut self.core;
                core.stat_scale.clear();
                core.stat_shift.clear();
                for c in 0..core.dim {
                    let sigma_b = (core.stat_var[c] + EPS).sqrt();
                    let sigma_run = (core.running_var[c] + EPS).sqrt();
                    let r = (sigma_b / sigma_run).clamp(1.0 / self.r_max, self.r_max);
                    let d = ((core.stat_mean[c] - core.running_mean[c]) / sigma_run)
                        .clamp(-self.d_max, self.d_max);
                    core.stat_scale.push(r / sigma_b);
                    core.stat_shift.push(d);
                }
                let out = core.normalize_from_stats(input, true, ws);
                core.update_running();
                Ok(out)
            }
            Mode::Eval => {
                self.core.load_eval_stats();
                Ok(self.core.normalize_from_stats(input, false, ws))
            }
        }
    }

    fn backward(
        &mut self,
        grad_output: &Matrix,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError> {
        self.core.backward(grad_output, ws)
    }

    fn apply_update(&mut self, cfg: &SgdConfig, lr_scale: f32) {
        self.core.apply_update(cfg, lr_scale);
    }

    fn param_count(&self) -> usize {
        self.core.param_count()
    }

    fn export_params(&self, out: &mut Vec<f32>) {
        self.core.export_params(out);
    }

    fn import_params(&mut self, cursor: &mut ParamCursor<'_>) -> Result<(), TensorError> {
        self.core.import_params(cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shoggoth_util::Rng;

    fn gaussian_batch(rng: &mut Rng, rows: usize, cols: usize, mean: f32, std: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.next_gaussian_f32(mean, std))
    }

    /// Plain Batch Normalization: BRN with `r` clamped to 1 and `d` to 0.
    fn batch_norm(dim: usize) -> BatchRenorm {
        BatchRenorm::new(dim).with_clip(1.0, 0.0)
    }

    #[test]
    fn batchnorm_train_output_is_standardized() {
        let mut rng = Rng::seed_from(0);
        let mut ws = Workspace::new();
        let mut bn = batch_norm(4);
        let x = gaussian_batch(&mut rng, 256, 4, 5.0, 2.0);
        let y = bn.forward(&x, Mode::Train, &mut ws).expect("shapes");
        let mean = y.col_mean();
        for c in 0..4 {
            assert!(mean.get(0, c).abs() < 1e-4, "column mean not ~0");
        }
        // Per-column variance ~1.
        for c in 0..4 {
            let mut v = 0.0;
            for r in 0..y.rows() {
                v += y.get(r, c) * y.get(r, c);
            }
            v /= y.rows() as f32;
            assert!((v - 1.0).abs() < 1e-2, "column var {v}");
        }
    }

    #[test]
    fn batchnorm_running_stats_converge() {
        let mut rng = Rng::seed_from(1);
        let mut ws = Workspace::new();
        let mut bn = batch_norm(2);
        for _ in 0..400 {
            let x = gaussian_batch(&mut rng, 64, 2, 3.0, 1.5);
            let out = bn.forward(&x, Mode::Train, &mut ws).expect("shapes");
            ws.give(out);
        }
        assert!((bn.running_mean()[0] - 3.0).abs() < 0.2);
        assert!((bn.core.running_var[0] - 2.25).abs() < 0.4);
    }

    #[test]
    fn batchnorm_eval_uses_running_moments() {
        let mut rng = Rng::seed_from(2);
        let mut ws = Workspace::new();
        let mut bn = batch_norm(1);
        for _ in 0..300 {
            let x = gaussian_batch(&mut rng, 64, 1, 10.0, 1.0);
            let out = bn.forward(&x, Mode::Train, &mut ws).expect("shapes");
            ws.give(out);
        }
        // A single far-off sample in eval mode should be normalized with the
        // learned moments, not its own (degenerate) batch statistics.
        let x = Matrix::from_rows(&[&[10.0]]).expect("valid");
        let y = bn.forward(&x, Mode::Eval, &mut ws).expect("shapes");
        assert!(y.get(0, 0).abs() < 0.3, "got {}", y.get(0, 0));
    }

    #[test]
    fn batchrenorm_matches_batchnorm_when_stats_agree() {
        // Once the running stats equal the batch stats, r = 1 and d = 0, so
        // BRN must reproduce BN exactly.
        let mut rng = Rng::seed_from(3);
        let mut ws = Workspace::new();
        let mut brn = BatchRenorm::new(2);
        let mut bn = batch_norm(2);
        for _ in 0..600 {
            let x = gaussian_batch(&mut rng, 128, 2, 0.0, 1.0);
            let a = brn.forward(&x, Mode::Train, &mut ws).expect("shapes");
            ws.give(a);
            let b = bn.forward(&x, Mode::Train, &mut ws).expect("shapes");
            ws.give(b);
        }
        let x = gaussian_batch(&mut rng, 128, 2, 0.0, 1.0);
        // Eval mode uses running moments for both layers: outputs agree to
        // the extent the learned moments agree.
        let yb = bn.forward(&x, Mode::Eval, &mut ws).expect("shapes");
        let yr = brn.forward(&x, Mode::Eval, &mut ws).expect("shapes");
        let rel = yb.sub(&yr).expect("shapes").frobenius_norm() / yb.frobenius_norm();
        assert!(rel < 0.05, "BN and BRN eval outputs diverge: {rel}");
        // Train mode: BRN normalizes by the running σ (r/σ_B = 1/σ_run)
        // while BN uses the batch σ, so agreement is approximate.
        let yb = bn.forward(&x, Mode::Train, &mut ws).expect("shapes");
        let yr = brn.forward(&x, Mode::Train, &mut ws).expect("shapes");
        let rel = yb.sub(&yr).expect("shapes").frobenius_norm() / yb.frobenius_norm();
        assert!(rel < 0.15, "BN and BRN train outputs diverge: {rel}");
    }

    #[test]
    fn batchrenorm_clips_corrections_under_shift() {
        // Feed a drastically shifted batch: the d correction must be clipped
        // at d_max, keeping outputs bounded instead of exploding.
        let mut rng = Rng::seed_from(4);
        let mut ws = Workspace::new();
        let mut brn = BatchRenorm::new(1).with_clip(2.0, 1.0);
        for _ in 0..100 {
            let x = gaussian_batch(&mut rng, 64, 1, 0.0, 1.0);
            let out = brn.forward(&x, Mode::Train, &mut ws).expect("shapes");
            ws.give(out);
        }
        let shifted = gaussian_batch(&mut rng, 64, 1, 50.0, 1.0);
        let y = brn.forward(&shifted, Mode::Train, &mut ws).expect("shapes");
        // Without clipping, the shift term would be ~50; with d_max = 1 the
        // output stays near the standardized batch plus at most 1.
        let max = y.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(max < 8.0, "BRN output exploded: {max}");
    }

    /// Central-difference check of the input gradient of `L = Σy²/2` at a
    /// few probe positions, in train mode.
    fn check_input_gradient(layer: &BatchRenorm, x: &Matrix, probes: &[(usize, usize)]) {
        let mut ws = Workspace::new();
        let mut fitted = layer.clone();
        let y = fitted.forward(x, Mode::Train, &mut ws).expect("shapes");
        let grad_out = y.clone(); // L = sum(y^2)/2
        let grad_in = fitted.backward(&grad_out, &mut ws).expect("cached");

        let eps = 1e-2f32;
        let mut loss = |m: &Matrix| {
            // A fresh clone so running stats are not perturbed between
            // probes; train mode uses batch statistics.
            let mut probe = layer.clone();
            let y = probe.forward(m, Mode::Train, &mut ws).expect("shapes");
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        for &(r, c) in probes {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + eps);
            let mut xm = x.clone();
            xm.set(r, c, x.get(r, c) - eps);
            let numeric = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            let analytic = grad_in.get(r, c);
            assert!(
                (numeric - analytic).abs() < 5e-2 * (1.0 + analytic.abs()),
                "probe {:?}: numeric {numeric} vs analytic {analytic}",
                (r, c)
            );
        }
    }

    #[test]
    fn batchnorm_gradient_check() {
        let mut rng = Rng::seed_from(5);
        let x = gaussian_batch(&mut rng, 8, 3, 1.0, 2.0);
        check_input_gradient(&batch_norm(3), &x, &[(0, 0), (4, 1), (7, 2)]);
    }

    #[test]
    fn norm_export_import_round_trip() {
        let mut rng = Rng::seed_from(6);
        let mut ws = Workspace::new();
        let mut bn = batch_norm(3);
        for _ in 0..10 {
            let x = gaussian_batch(&mut rng, 32, 3, 2.0, 1.0);
            let out = bn.forward(&x, Mode::Train, &mut ws).expect("shapes");
            ws.give(out);
        }
        let mut buf = Vec::new();
        bn.export_params(&mut buf);
        assert_eq!(buf.len(), bn.param_count());
        let mut copy = batch_norm(3);
        let mut cursor = ParamCursor::new(&buf);
        copy.import_params(&mut cursor).expect("params fit");
        assert_eq!(copy.running_mean(), bn.running_mean());
        assert_eq!(copy.core.running_var, bn.core.running_var);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut bn = batch_norm(2);
        let mut ws = Workspace::new();
        assert!(matches!(
            bn.backward(&Matrix::zeros(1, 2), &mut ws),
            Err(TensorError::MissingForwardCache { .. })
        ));
    }

    #[test]
    fn steady_state_norm_training_does_not_allocate() {
        let mut rng = Rng::seed_from(8);
        let mut ws = Workspace::new();
        let mut brn = BatchRenorm::new(4);
        let x = gaussian_batch(&mut rng, 16, 4, 0.0, 1.0);
        // Warm up caches and workspace.
        for _ in 0..3 {
            let y = brn.forward(&x, Mode::Train, &mut ws).expect("shapes");
            let g = brn.backward(&y, &mut ws).expect("cached");
            ws.give(y);
            ws.give(g);
        }
        let baseline = ws.allocations();
        for _ in 0..10 {
            let y = brn.forward(&x, Mode::Train, &mut ws).expect("shapes");
            let g = brn.backward(&y, &mut ws).expect("cached");
            ws.give(y);
            ws.give(g);
        }
        assert_eq!(ws.allocations(), baseline, "norm hot loop allocated");
    }

    /// Reference BRN written as column-by-column loops over `get(r, c)`:
    /// the expressions and per-feature summation orders of the layer,
    /// computed independently of its row-major passes.
    struct ColumnReference {
        gamma: Vec<f32>,
        beta: Vec<f32>,
        running_mean: Vec<f32>,
        running_var: Vec<f32>,
        r_max: f32,
        d_max: f32,
    }

    /// What the reference's train-mode forward leaves for its backward.
    struct TrainCache {
        centered: Matrix,
        xhat: Matrix,
        scale: Vec<f32>,
    }

    impl ColumnReference {
        fn of(layer: &BatchRenorm) -> Self {
            let core = &layer.core;
            Self {
                gamma: core.gamma.as_slice().to_vec(),
                beta: core.beta.as_slice().to_vec(),
                running_mean: core.running_mean.clone(),
                running_var: core.running_var.clone(),
                r_max: layer.r_max,
                d_max: layer.d_max,
            }
        }

        fn normalize(&self, x: &Matrix, mean: &[f32], scale: &[f32], shift: &[f32]) -> TrainCache {
            let (rows, dim) = (x.rows(), x.cols());
            let mut centered = Matrix::zeros(rows, dim);
            let mut xhat = Matrix::zeros(rows, dim);
            for c in 0..dim {
                for r in 0..rows {
                    let cen = x.get(r, c) - mean[c];
                    centered.set(r, c, cen);
                    xhat.set(r, c, cen * scale[c] + shift[c]);
                }
            }
            TrainCache {
                centered,
                xhat,
                scale: scale.to_vec(),
            }
        }

        fn affine(&self, xhat: &Matrix) -> Matrix {
            Matrix::from_fn(xhat.rows(), xhat.cols(), |r, c| {
                self.gamma[c] * xhat.get(r, c) + self.beta[c]
            })
        }

        fn eval(&self, x: &Matrix) -> Matrix {
            let scale: Vec<f32> = self
                .running_var
                .iter()
                .map(|&v| 1.0 / (v + EPS).sqrt())
                .collect();
            let shift = vec![0.0; x.cols()];
            self.affine(&self.normalize(x, &self.running_mean, &scale, &shift).xhat)
        }

        /// Train-mode forward; updates the running moments.
        fn train(&mut self, x: &Matrix) -> (Matrix, TrainCache) {
            let (rows, dim) = (x.rows(), x.cols());
            let n = rows.max(1) as f32;
            let (mut mean, mut var) = (vec![0.0f32; dim], vec![0.0f32; dim]);
            let (mut scale, mut shift) = (vec![0.0f32; dim], vec![0.0f32; dim]);
            for c in 0..dim {
                for r in 0..rows {
                    mean[c] += x.get(r, c);
                }
                mean[c] /= n;
                for r in 0..rows {
                    let d = x.get(r, c) - mean[c];
                    var[c] += d * d;
                }
                var[c] /= n;
                let sigma_b = (var[c] + EPS).sqrt();
                let sigma_run = (self.running_var[c] + EPS).sqrt();
                let r = (sigma_b / sigma_run).clamp(1.0 / self.r_max, self.r_max);
                let d =
                    ((mean[c] - self.running_mean[c]) / sigma_run).clamp(-self.d_max, self.d_max);
                scale[c] = r / sigma_b;
                shift[c] = d;
            }
            let cache = self.normalize(x, &mean, &scale, &shift);
            let m = 0.1;
            for c in 0..dim {
                self.running_mean[c] = (1.0 - m) * self.running_mean[c] + m * mean[c];
                self.running_var[c] = (1.0 - m) * self.running_var[c] + m * var[c];
            }
            (self.affine(&cache.xhat), cache)
        }

        /// Backward: `(grad_in, grad_gamma, grad_beta)`.
        fn backward(&self, cache: &TrainCache, grad: &Matrix) -> (Matrix, Vec<f32>, Vec<f32>) {
            let (rows, dim) = (grad.rows(), grad.cols());
            let n = rows as f32;
            let (mut grad_gamma, mut grad_beta) = (vec![0.0f32; dim], vec![0.0f32; dim]);
            for c in 0..dim {
                let mut gg = 0.0;
                let mut gb = 0.0;
                for r in 0..rows {
                    gg += grad.get(r, c) * cache.xhat.get(r, c);
                    gb += grad.get(r, c);
                }
                grad_gamma[c] = gg;
                grad_beta[c] = gb;
            }
            let mut sigma = vec![0.0f32; dim];
            for (c, s) in sigma.iter_mut().enumerate() {
                let mut v = 0.0;
                for r in 0..rows {
                    let d = cache.centered.get(r, c);
                    v += d * d;
                }
                *s = (v / n + EPS).sqrt();
            }
            let mut grad_in = Matrix::zeros(rows, dim);
            for (c, &sigma) in sigma.iter().enumerate() {
                let gamma = self.gamma[c];
                let mut mean_g = 0.0;
                let mut mean_gx = 0.0;
                for r in 0..rows {
                    let ghat = gamma * grad.get(r, c);
                    let xc = cache.centered.get(r, c) / sigma;
                    mean_g += ghat;
                    mean_gx += ghat * xc;
                }
                mean_g /= n;
                mean_gx /= n;
                for r in 0..rows {
                    let ghat = gamma * grad.get(r, c);
                    let xc = cache.centered.get(r, c) / sigma;
                    grad_in.set(r, c, cache.scale[c] * (ghat - mean_g - xc * mean_gx));
                }
            }
            (grad_in, grad_gamma, grad_beta)
        }
    }

    /// Bit patterns, so `-0.0` and `0.0` count as different.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A BRN layer whose `γ`, `β` and running moments are all away from
    /// their initial values, so every term of every pass matters.
    fn perturbed_layer(dim: usize, rng: &mut Rng) -> BatchRenorm {
        let mut layer = BatchRenorm::new(dim);
        let core = &mut layer.core;
        core.gamma = gaussian_batch(rng, 1, dim, 1.0, 0.5);
        core.beta = gaussian_batch(rng, 1, dim, 0.0, 0.5);
        core.running_mean = (0..dim).map(|_| rng.next_gaussian_f32(0.5, 1.0)).collect();
        core.running_var = (0..dim)
            .map(|_| rng.next_gaussian_f32(0.0, 1.5).abs() + 0.05)
            .collect();
        layer
    }

    /// Eval forward, train forward (output, caches, running moments) and
    /// backward (input and parameter gradients) equal the column-order
    /// reference bit for bit, twice in a row so the second pass starts
    /// from updated running moments and reused scratch.
    fn check_against_reference(rows: usize, dim: usize, rng: &mut Rng) {
        let shape = format!("rows {rows}, width {dim}");
        let mut ws = Workspace::new();
        let mut layer = perturbed_layer(dim, rng);
        let mut reference = ColumnReference::of(&layer);
        for _ in 0..2 {
            let x = gaussian_batch(rng, rows, dim, 0.3, 2.0);
            let y = layer.forward(&x, Mode::Eval, &mut ws).expect("shapes");
            assert_eq!(
                bits(y.as_slice()),
                bits(reference.eval(&x).as_slice()),
                "{shape}: eval"
            );
            ws.give(y);

            let y = layer.forward(&x, Mode::Train, &mut ws).expect("shapes");
            let (ref_y, cache) = reference.train(&x);
            assert_eq!(bits(y.as_slice()), bits(ref_y.as_slice()), "{shape}: train");
            assert_eq!(
                bits(&layer.core.running_mean),
                bits(&reference.running_mean),
                "{shape}"
            );
            assert_eq!(
                bits(&layer.core.running_var),
                bits(&reference.running_var),
                "{shape}"
            );
            ws.give(y);

            let grad = gaussian_batch(rng, rows, dim, 0.0, 1.0);
            let grad_in = layer.backward(&grad, &mut ws).expect("cached");
            let (ref_in, ref_gamma, ref_beta) = reference.backward(&cache, &grad);
            assert_eq!(
                bits(grad_in.as_slice()),
                bits(ref_in.as_slice()),
                "{shape}: grad in"
            );
            assert_eq!(
                bits(layer.core.grad_gamma.as_slice()),
                bits(&ref_gamma),
                "{shape}: dγ"
            );
            assert_eq!(
                bits(layer.core.grad_beta.as_slice()),
                bits(&ref_beta),
                "{shape}: dβ"
            );
            ws.give(grad_in);
        }
    }

    #[test]
    fn passes_match_column_order_reference() {
        let mut rng = Rng::seed_from(9);
        for rows in [1, 15, 64] {
            for dim in (1..=19).chain([32, 48, 64]) {
                check_against_reference(rows, dim, &mut rng);
            }
        }
    }
}

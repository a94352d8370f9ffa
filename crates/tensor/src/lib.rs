//! A minimal, self-contained neural-network training engine.
//!
//! The Shoggoth paper fine-tunes a lightweight detector *online, on the edge
//! device*, with latent replay injected at an interior layer (§III-B). No
//! mature training-capable ML crate exists offline, so this crate implements
//! exactly the machinery the reproduction needs, from scratch:
//!
//! * [`Matrix`] — dense row-major `f32` matrices (a mini-batch is a matrix).
//! * [`Dense`], [`Relu`], [`Tanh`] — layers with full backpropagation.
//! * [`BatchRenorm`] — the paper replaces BN with Batch Renormalization
//!   (Ioffe 2017) for robust small-batch training.
//! * [`SgdConfig`] — mini-batch SGD with momentum, weight decay, and
//!   *per-layer learning-rate scaling* (the paper's freeze policy sets the
//!   front layers' rate to zero while BRN statistics keep adapting).
//! * [`Mlp`] — a sequential network supporting `forward_from` (inject replay
//!   activations at an interior layer) and `backward_to` (stop
//!   backpropagation at the replay layer when the front is frozen).
//!
//! Every layer's gradients are verified against finite differences in the
//! test suite.
//!
//! # The `finite-check` feature
//!
//! Long-running online learning (the paper's whole premise) can be
//! silently invalidated by one NaN gradient: the student keeps "training",
//! every subsequent mAP figure is garbage, and nothing crashes. With the
//! `finite-check` cargo feature enabled, the engine validates tensors
//! after every layer forward/backward pass, loss evaluation, and SGD
//! parameter step, and returns [`TensorError::NonFinite`] naming the
//! producing operation the moment the first NaN/Inf appears. The checks
//! cost one pass over each tensor and are compiled out entirely without
//! the feature. [`Matrix::ensure_finite`] is always available for manual
//! validation at API boundaries.
//!
//! # Examples
//!
//! Train a tiny classifier on XOR:
//!
//! ```
//! use shoggoth_tensor::{losses, Dense, Matrix, Mlp, Mode, SgdConfig, Tanh};
//! use shoggoth_util::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let mut net = Mlp::new(vec![
//!     Box::new(Dense::new(2, 8, &mut rng)),
//!     Box::new(Tanh::new()),
//!     Box::new(Dense::new(8, 2, &mut rng)),
//! ]);
//! let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]])?;
//! let labels = [0usize, 1, 1, 0];
//! let sgd = SgdConfig::new(0.1);
//! for _ in 0..500 {
//!     let logits = net.forward(&x, Mode::Train)?;
//!     let (_, grad) = losses::softmax_cross_entropy(&logits, &labels)?;
//!     net.backward(&grad)?;
//!     net.step(&sgd)?;
//! }
//! let logits = net.forward(&x, Mode::Eval)?;
//! assert_eq!(logits.row_argmax(), vec![0, 1, 1, 0]);
//! # Ok::<(), shoggoth_tensor::TensorError>(())
//! ```

pub mod kernels;
pub mod layer;
pub mod losses;
pub mod matrix;
pub mod net;
pub mod norm;
pub mod sgd;
pub mod workspace;

pub use layer::{Dense, Layer, Mode, ParamCursor, Relu, Tanh};
pub use matrix::Matrix;
pub use net::Mlp;
pub use norm::BatchRenorm;
pub use sgd::SgdConfig;
pub use workspace::Workspace;

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TensorError {
    /// Two shapes that had to agree did not.
    ShapeMismatch {
        /// The operation that failed.
        context: &'static str,
        /// The shape (or dimension pair) that was required.
        expected: (usize, usize),
        /// The shape that was supplied.
        actual: (usize, usize),
    },
    /// A parameter buffer was too short or too long for the network.
    ParamCount {
        /// Parameters the network requires.
        expected: usize,
        /// Parameters supplied.
        actual: usize,
    },
    /// `backward` was called without a preceding `forward` in train mode.
    MissingForwardCache {
        /// The layer that had no cache.
        layer: &'static str,
    },
    /// A tensor contains NaN or ±Inf — the training state is poisoned.
    ///
    /// Produced by [`Matrix::ensure_finite`] and, when the `finite-check`
    /// feature is enabled, by the sanitizer hooks after every layer
    /// forward/backward, loss evaluation, and SGD step. The `op` names the
    /// operation that *produced* the poisoned values, so a NaN gradient is
    /// caught at its source instead of surfacing frames later as a
    /// silently degraded mAP.
    NonFinite {
        /// The operation whose output first went non-finite.
        op: &'static str,
        /// Row of the first offending element.
        row: usize,
        /// Column of the first offending element.
        col: usize,
        /// The offending value (NaN or ±Inf).
        value: f32,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "shape mismatch in {context}: expected {}x{}, got {}x{}",
                expected.0, expected.1, actual.0, actual.1
            ),
            TensorError::ParamCount { expected, actual } => {
                write!(
                    f,
                    "parameter count mismatch: expected {expected}, got {actual}"
                )
            }
            TensorError::MissingForwardCache { layer } => {
                write!(
                    f,
                    "backward called on {layer} without a cached forward pass"
                )
            }
            TensorError::NonFinite {
                op,
                row,
                col,
                value,
            } => write!(
                f,
                "poisoned tensor: {op} produced non-finite value {value} at ({row}, {col})"
            ),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let err = TensorError::ShapeMismatch {
            context: "test",
            expected: (2, 3),
            actual: (4, 5),
        };
        assert_eq!(
            err.to_string(),
            "shape mismatch in test: expected 2x3, got 4x5"
        );
        let err = TensorError::ParamCount {
            expected: 10,
            actual: 9,
        };
        assert!(err.to_string().contains("expected 10"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}

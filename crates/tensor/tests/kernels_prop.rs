//! Property tests pinning the dense kernels to their reference
//! expressions, **bit-for-bit**.
//!
//! Training determinism (golden fleet runs, frozen-front equality tests,
//! pretrained weights) relies on the kernels producing the *exact same
//! floats*, not merely close ones — so every assertion here is exact
//! equality on the full matrix (on the `f32` bit patterns where the
//! reference is a naive loop), never an epsilon comparison.
//!
//! The primary reference is an independent naive triple loop: each output
//! element starts at `0.0` and adds its products over the reduced
//! dimension in increasing order. The kernels tile the output in blocks
//! of up to 4 rows × 8 columns, so dimensions run over `1..=19` to hit
//! every remainder tile (3/2/1 rows, 4/1 columns) and every panel depth
//! class, and the real layer widths, including the 4- and 5-wide
//! detection heads, are checked at real batch sizes.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use shoggoth_tensor::{Dense, Layer, Matrix, Mode, SgdConfig, Workspace};
use shoggoth_util::Rng;

/// Largest dimension the proptests draw (inclusive).
const MAX_DIM: usize = 19;

/// Builds a `rows × cols` matrix from a prefix of `data`.
fn take(data: &[f32], rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, data[..rows * cols].to_vec()).expect("data sized to fit")
}

/// Naive `a · b` for `a` (`m × k`) and `b` (`k × n`): `out[i][j]` starts at
/// `0.0` and adds `a[i][kk] · b[kk][j]` for `kk = 0, 1, …, k−1`.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Naive `aᵀ · b` for `a` (`r × m`) and `b` (`r × n`): `out[c][j]` adds
/// `a[row][c] · b[row][j]` over the rows in increasing order.
fn naive_matmul_transa(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let (r, m, n) = (a.rows(), a.cols(), b.cols());
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for c in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for row in 0..r {
                acc += a[row * m + c] * b[row * n + j];
            }
            out[c * n + j] = acc;
        }
    }
    out
}

/// Naive `b` (`r × c`) transpose by index.
fn naive_transpose(b: &Matrix) -> Matrix {
    Matrix::from_fn(b.cols(), b.rows(), |r, c| b.get(c, r))
}

/// Bit patterns of a flat buffer, so `-0.0` and `0.0` count as different.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks `matmul`, `matmul_into` and `addmm_into` on `a · b` against the
/// naive reference.
fn check_matmul_family(a: &Matrix, b: &Matrix, bias: &Matrix) -> Result<(), TestCaseError> {
    let reference = naive_matmul(a, b);
    let product = a.matmul(b).expect("shapes agree");
    prop_assert_eq!(bits(product.as_slice()), bits(&reference));
    let mut out = Matrix::filled(3, 2, 7.0);
    a.matmul_into(b, &mut out).expect("shapes agree");
    prop_assert_eq!((out.rows(), out.cols()), (a.rows(), b.cols()));
    prop_assert_eq!(bits(out.as_slice()), bits(&reference));
    let n = b.cols();
    let with_bias: Vec<f32> = reference
        .iter()
        .enumerate()
        .map(|(idx, &v)| v + bias.as_slice()[idx % n])
        .collect();
    a.addmm_into(b, bias, &mut out).expect("shapes agree");
    prop_assert_eq!(bits(out.as_slice()), bits(&with_bias));
    Ok(())
}

/// Checks `matmul_transa_into` on `aᵀ · b` against the naive reference.
fn check_transa(a: &Matrix, b: &Matrix) -> Result<(), TestCaseError> {
    let mut out = Matrix::filled(2, 5, -1.0);
    a.matmul_transa_into(b, &mut out).expect("shapes agree");
    prop_assert_eq!((out.rows(), out.cols()), (a.cols(), b.cols()));
    prop_assert_eq!(bits(out.as_slice()), bits(&naive_matmul_transa(a, b)));
    Ok(())
}

/// Checks `Dense::backward`'s input gradient `grad · Wᵀ` against the naive
/// reference, for a batch of `rows` through an `in_dim → out_dim` layer —
/// twice, with an SGD step between, so a stale `Wᵀ` scratch would show.
fn check_dense_backward(
    rows: usize,
    in_dim: usize,
    out_dim: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = Rng::seed_from(seed);
    let mut ws = Workspace::new();
    let mut layer = Dense::new(in_dim, out_dim, &mut rng);
    let x = Matrix::from_fn(rows, in_dim, |_, _| rng.next_gaussian_f32(0.0, 1.0));
    let grad = Matrix::from_fn(rows, out_dim, |_, _| rng.next_gaussian_f32(0.0, 1.0));
    for _ in 0..2 {
        let y = layer
            .forward(&x, Mode::Train, &mut ws)
            .expect("shapes agree");
        ws.give(y);
        let grad_in = layer.backward(&grad, &mut ws).expect("forward cached");
        let reference = naive_matmul(&grad, &naive_transpose(layer.weights()));
        prop_assert_eq!((grad_in.rows(), grad_in.cols()), (rows, in_dim));
        prop_assert_eq!(bits(grad_in.as_slice()), bits(&reference));
        ws.give(grad_in);
        layer.apply_update(&SgdConfig::new(0.1), 1.0);
    }
    Ok(())
}

proptest! {
    #[test]
    fn matmul_kernels_match_naive_reference(
        dims in (1usize..MAX_DIM + 1, 1usize..MAX_DIM + 1, 1usize..MAX_DIM + 1),
        a_data in prop::collection::vec(-4.0f32..4.0, 361..362),
        b_data in prop::collection::vec(-4.0f32..4.0, 361..362),
        bias_data in prop::collection::vec(-4.0f32..4.0, 19..20),
    ) {
        let (m, k, n) = dims;
        check_matmul_family(&take(&a_data, m, k), &take(&b_data, k, n), &take(&bias_data, 1, n))?;
    }

    #[test]
    fn matmul_transa_into_matches_naive_reference(
        dims in (1usize..MAX_DIM + 1, 1usize..MAX_DIM + 1, 1usize..MAX_DIM + 1),
        a_data in prop::collection::vec(-4.0f32..4.0, 361..362),
        b_data in prop::collection::vec(-4.0f32..4.0, 361..362),
    ) {
        let (r, m, n) = dims;
        check_transa(&take(&a_data, r, m), &take(&b_data, r, n))?;
    }

    #[test]
    fn dense_input_gradient_matches_naive_reference(
        dims in (1usize..MAX_DIM + 1, 1usize..MAX_DIM + 1, 1usize..MAX_DIM + 1),
        seed in 0u64..1_000_000,
    ) {
        let (rows, in_dim, out_dim) = dims;
        check_dense_backward(rows, in_dim, out_dim, seed)?;
    }

    #[test]
    fn matmul_into_matches_allocating_matmul(
        dims in (1usize..8, 1usize..8, 1usize..8),
        a_data in prop::collection::vec(-4.0f32..4.0, 64..65),
        b_data in prop::collection::vec(-4.0f32..4.0, 64..65),
    ) {
        let (m, k, n) = dims;
        let a = take(&a_data, m, k);
        let b = take(&b_data, k, n);
        let reference = a.matmul(&b).expect("shapes agree");
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out).expect("shapes agree");
        prop_assert_eq!(reference, out);
    }

    #[test]
    fn matmul_transa_into_matches_transpose_path(
        dims in (1usize..8, 1usize..8, 1usize..8),
        a_data in prop::collection::vec(-4.0f32..4.0, 64..65),
        b_data in prop::collection::vec(-4.0f32..4.0, 64..65),
    ) {
        let (r, m, n) = dims;
        // out = aᵀ · b where a is r×m and b is r×n.
        let a = take(&a_data, r, m);
        let b = take(&b_data, r, n);
        let reference = a.transpose().matmul(&b).expect("shapes agree");
        let mut out = Matrix::zeros(0, 0);
        a.matmul_transa_into(&b, &mut out).expect("shapes agree");
        prop_assert_eq!(reference, out);
    }

    #[test]
    fn addmm_into_matches_matmul_plus_broadcast(
        dims in (1usize..8, 1usize..8, 1usize..8),
        x_data in prop::collection::vec(-4.0f32..4.0, 64..65),
        w_data in prop::collection::vec(-4.0f32..4.0, 64..65),
        b_data in prop::collection::vec(-4.0f32..4.0, 8..9),
    ) {
        let (m, k, n) = dims;
        let x = take(&x_data, m, k);
        let w = take(&w_data, k, n);
        let bias = take(&b_data, 1, n);
        let reference = x
            .matmul(&w)
            .expect("shapes agree")
            .add_row_broadcast(&bias)
            .expect("bias fits");
        let mut out = Matrix::zeros(0, 0);
        x.addmm_into(&w, &bias, &mut out).expect("shapes agree");
        prop_assert_eq!(reference, out);
    }

    #[test]
    fn into_kernels_reuse_storage_across_shapes(
        dims in (1usize..8, 1usize..8, 1usize..8),
        a_data in prop::collection::vec(-4.0f32..4.0, 64..65),
        b_data in prop::collection::vec(-4.0f32..4.0, 64..65),
    ) {
        let (m, k, n) = dims;
        let a = take(&a_data, m, k);
        let b = take(&b_data, k, n);
        // A stale, wrongly-shaped output must be fully overwritten.
        let mut out = Matrix::from_vec(2, 3, vec![7.0; 6]).expect("literal shape");
        a.matmul_into(&b, &mut out).expect("shapes agree");
        let reference = a.matmul(&b).expect("shapes agree");
        prop_assert_eq!(reference, out);
    }
}

/// Runs every kernel check on random operands of the given shape.
fn check_shape(rows: usize, k: usize, n: usize, rng: &mut Rng) {
    let mut random = |rows: usize, cols: usize| {
        Matrix::from_fn(rows, cols, |_, _| rng.next_gaussian_f32(0.0, 1.0))
    };
    let shape = format!("rows {rows}, {k} -> {n}");
    let (a, b, bias) = (random(rows, k), random(k, n), random(1, n));
    check_matmul_family(&a, &b, &bias).unwrap_or_else(|e| panic!("{shape}: {e}"));
    check_transa(&a, &random(rows, n)).unwrap_or_else(|e| panic!("{shape}: {e}"));
    check_dense_backward(rows, k, n, (rows * 1000 + k * 10 + n) as u64)
        .unwrap_or_else(|e| panic!("{shape}: {e}"));
}

/// The student's and teacher's layer widths, with the KITTI (4-wide) and
/// DETRAC (5-wide) detection heads, at the pretraining/adaptation batches
/// (64, 128), at per-frame proposal counts that leave a 1-, 2- and 3-row
/// remainder block (13, 14, 15), and at a single row, through every kernel.
#[test]
fn real_shapes_match_naive_reference() {
    const WIDTHS: [usize; 6] = [4, 5, 32, 48, 64, 128];
    const ROWS: [usize; 6] = [1, 13, 14, 15, 64, 128];
    let mut rng = Rng::seed_from(0x5348_4150); // "SHAP"
    for rows in ROWS {
        for k in WIDTHS {
            for n in WIDTHS {
                check_shape(rows, k, n, &mut rng);
            }
        }
    }
}

/// Reductions deeper than the largest stack panel (128 steps) read the
/// operands in place even for wide outputs; they keep the same order.
#[test]
fn deep_reductions_match_naive_reference() {
    let mut rng = Rng::seed_from(0x4445_4550); // "DEEP"
    for (rows, k, n) in [(129, 5, 8), (130, 129, 19), (7, 131, 8), (13, 200, 5)] {
        check_shape(rows, k, n, &mut rng);
    }
}

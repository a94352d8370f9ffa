//! Flat-slice compute kernels behind the [`crate::Matrix`] hot-path ops.
//!
//! Every kernel writes into caller-provided storage and allocates nothing,
//! so the training loop can run steady-state out of a
//! [`crate::Workspace`]. Dimension checking happens at the `Matrix`
//! wrappers; the kernels trust their arguments (slices of exactly the
//! documented lengths) and keep the inner loops branch-free.
//!
//! Summation orders are part of the contract: every product element starts
//! at `0.0` and adds its terms over the reduced dimension in increasing
//! order, exactly like the naive triple loop. The kernels are
//! register-blocked four terms at a time (`accumulate4`), written as one
//! left-to-right expression `o = (((o + a0·b0) + a1·b1) + a2·b2) + a3·b3`,
//! so blocking changes how often `o` travels through memory but never the
//! order of the adds. Rust does not contract `a·b + c` into an FMA, so the
//! vector width the compiler picks cannot change a result either. The
//! proptests in `tests/kernels_prop.rs` pin every kernel to an independent
//! naive reference with exact `f32` equality.

/// `out = a · b` for row-major `a` (`m × k`), `b` (`k × n`), `out`
/// (`m × n`).
///
/// i-k-j loop order: the inner loop walks rows of `b` and one row of `out`
/// contiguously. Four k-steps are folded into each pass over the output
/// row, so `out` is loaded and stored once per four multiply-adds. `out`
/// is overwritten.
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    let b_row = |kk: usize| &b[kk * n..(kk + 1) * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        let mut kk = 0;
        while kk + 4 <= k {
            accumulate4(
                out_row,
                [a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]],
                [b_row(kk), b_row(kk + 1), b_row(kk + 2), b_row(kk + 3)],
            );
            kk += 4;
        }
        for (kk, &av) in a_row.iter().enumerate().skip(kk) {
            accumulate1(out_row, av, b_row(kk));
        }
    }
}

/// `out = aᵀ · b` for row-major `a` (`m × k`), `b` (`m × n`), `out`
/// (`k × n`) — the gradient-of-weights kernel
/// (`grad_W = inputᵀ · grad_output`) that avoids materializing the
/// transpose.
///
/// The outer loop walks the shared `m` dimension so both operands are read
/// along contiguous rows, four batch rows per pass over `out`; each
/// `out[c][j]` accumulates over the batch rows in increasing order.
pub fn matmul_transa(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    let a_row = |r: usize| &a[r * k..(r + 1) * k];
    let b_row = |r: usize| &b[r * n..(r + 1) * n];
    let mut r = 0;
    while r + 4 <= m {
        let (a0, a1, a2, a3) = (a_row(r), a_row(r + 1), a_row(r + 2), a_row(r + 3));
        let b4 = [b_row(r), b_row(r + 1), b_row(r + 2), b_row(r + 3)];
        for c in 0..k {
            accumulate4(
                &mut out[c * n..(c + 1) * n],
                [a0[c], a1[c], a2[c], a3[c]],
                b4,
            );
        }
        r += 4;
    }
    for r in r..m {
        let (a_r, b_r) = (a_row(r), b_row(r));
        for (c, &av) in a_r.iter().enumerate() {
            accumulate1(&mut out[c * n..(c + 1) * n], av, b_r);
        }
    }
}

/// `out[j] = (((out[j] + s0·r0[j]) + s1·r1[j]) + s2·r2[j]) + s3·r3[j]`:
/// four terms of a sum over the reduced dimension, added in order.
#[inline(always)]
fn accumulate4(out: &mut [f32], s: [f32; 4], rows: [&[f32]; 4]) {
    let [s0, s1, s2, s3] = s;
    let [r0, r1, r2, r3] = rows;
    for ((((o, &v0), &v1), &v2), &v3) in out.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
        *o = (((*o + s0 * v0) + s1 * v1) + s2 * v2) + s3 * v3;
    }
}

/// `out[j] += s·row[j]`: one term, for the remainder of a 4-wide block.
#[inline(always)]
fn accumulate1(out: &mut [f32], s: f32, row: &[f32]) {
    for (o, &v) in out.iter_mut().zip(row) {
        *o += s * v;
    }
}

/// Adds the row vector `bias` (`n` wide) to every row of `out` (`m × n`)
/// in place — the fusion tail of `addmm` (`x·W + b`).
pub fn add_bias_rows(out: &mut [f32], bias: &[f32], m: usize, n: usize) {
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for (o, &bv) in out_row.iter_mut().zip(bias) {
            *o += bv;
        }
    }
}

/// Fused flat-parameter SGD-with-momentum step over one parameter block:
/// `v ← momentum·v − lr·(g + weight_decay·p); p ← p + v`.
///
/// One pass over three equal-length flat slices — no temporaries, no
/// per-matrix dispatch. All three slices must have the same length; excess
/// elements in a longer slice are ignored (the `Matrix` wrappers always
/// pass equal-shape parameter/gradient/velocity storage).
pub fn sgd_momentum_step(
    params: &mut [f32],
    grads: &[f32],
    velocity: &mut [f32],
    lr: f32,
    momentum: f32,
    weight_decay: f32,
) {
    for ((p, &g), v) in params.iter_mut().zip(grads).zip(velocity) {
        let grad = g + weight_decay * *p;
        *v = momentum * *v - lr * grad;
        *p += *v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_hand_checked() {
        // [[1,2],[3,4]] · [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0f32; 4];
        matmul(&a, &b, &mut out, 2, 2, 2);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transa_matches_explicit_transpose() {
        // aᵀ (2×1) · b (1×2) from a (1×2), b (1×2).
        let a = [2.0, 3.0];
        let b = [5.0, 7.0];
        let mut out = [0.0f32; 4];
        matmul_transa(&a, &b, &mut out, 1, 2, 2);
        assert_eq!(out, [10.0, 14.0, 15.0, 21.0]);
    }

    #[test]
    fn bias_rows_broadcast() {
        let mut out = [0.0, 0.0, 1.0, 1.0];
        add_bias_rows(&mut out, &[10.0, 20.0], 2, 2);
        assert_eq!(out, [10.0, 20.0, 11.0, 21.0]);
    }

    #[test]
    fn sgd_step_hand_checked() {
        let mut p = [1.0f32, -2.0];
        let g = [0.5f32, 0.25];
        let mut v = [0.0f32, 0.1];
        sgd_momentum_step(&mut p, &g, &mut v, 0.1, 0.9, 0.0);
        // v0 = -0.05, p0 = 0.95; v1 = 0.09 - 0.025 = 0.065, p1 = -1.935
        assert_eq!(v, [-0.05, 0.065]);
        assert_eq!(p, [0.95, -1.935]);
    }

    #[test]
    fn sgd_step_applies_weight_decay() {
        let mut p = [2.0f32];
        let g = [0.0f32];
        let mut v = [0.0f32];
        sgd_momentum_step(&mut p, &g, &mut v, 0.5, 0.0, 0.1);
        // grad = 0 + 0.1·2 = 0.2; v = -0.1; p = 1.9
        assert_eq!(p, [1.9]);
    }
}

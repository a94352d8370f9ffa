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
//! order, exactly like the naive triple loop. The two products are
//! register-tiled: the output is cut into tiles of up to 4 rows × 8
//! columns (row blocks of 4 with a 3-, 2- or 1-row remainder tile; column
//! tiles of 8, then 4, then 1), and each tile's accumulators stay in
//! registers over the whole reduction and are stored once. Each
//! accumulator still runs `acc = 0.0; acc += a·b` term by term in the
//! naive order, so tiling changes which elements are computed side by
//! side but never the order of any element's adds. Rust does not contract
//! `a·b + c` into an FMA, so the vector width the compiler picks cannot
//! change a result either. The proptests in `tests/kernels_prop.rs` pin
//! every kernel to an independent naive reference with exact `f32`
//! equality.
//!
//! When the output is at least 8 columns wide, each row block first
//! copies its left-operand values into a stack panel, each value repeated
//! across a 16-byte lane group ([`Splat`]). The tiles then multiply by
//! whole lane groups instead of shuffling a scalar into every lane on
//! every reduction step, and the panel is shared by all the block's
//! column tiles. Narrower outputs (the 4- and 5-wide detection heads) and
//! reductions deeper than the largest panel read the operands directly.

/// Rows per full output tile.
const TILE_ROWS: usize = 4;

/// Columns per full output tile.
const TILE_COLS: usize = 8;

/// Deepest reduction a stack panel holds (8 KB of [`Splat`]s).
const MAX_PANEL_DEPTH: usize = 128;

/// One left-operand value repeated across a 16-byte-aligned group of
/// four lanes, so a tile multiplies by it with a plain aligned load.
#[derive(Debug, Clone, Copy)]
#[repr(align(16))]
struct Splat([f32; 4]);

/// A row block's left-operand values: `panel[t][r]` holds the value that
/// multiplies row `t` of the right operand in output row `r` of the block.
type Panel = [[Splat; TILE_ROWS]];

/// A product whose output element `(i, j)` is `Σ_t left(i, t) · b[t][j]`
/// over `t = 0, 1, …, depth−1`, for a row-major right operand `b`
/// (`depth × n`).
trait Product {
    /// The right operand and its width `n`.
    fn b(&self) -> (&[f32], usize);
    /// Length of the reduced dimension.
    fn depth(&self) -> usize;
    /// Fills `panel[t][r]` with `left(i + r, t)` for `r < rows`.
    fn fill_panel(&self, i: usize, rows: usize, panel: &mut Panel);
    /// The `R × C` output tile at `(i, j)`, reading the left operand in
    /// place.
    fn tile<const R: usize, const C: usize>(&self, i: usize, j: usize) -> [[f32; C]; R];
}

/// `a · b` for row-major `a` (`m × k`) and `b` (`k × n`):
/// `left(i, t) = a[i][t]`.
struct Forward<'a> {
    a: &'a [f32],
    b: &'a [f32],
    k: usize,
    n: usize,
}

impl Product for Forward<'_> {
    fn b(&self) -> (&[f32], usize) {
        (self.b, self.n)
    }

    fn depth(&self) -> usize {
        self.k
    }

    fn fill_panel(&self, i: usize, rows: usize, panel: &mut Panel) {
        for r in 0..rows {
            let a_row = &self.a[(i + r) * self.k..][..self.k];
            for (slot, &v) in panel.iter_mut().zip(a_row) {
                slot[r] = Splat([v; 4]);
            }
        }
    }

    #[inline(always)]
    fn tile<const R: usize, const C: usize>(&self, i: usize, j: usize) -> [[f32; C]; R] {
        let k = self.k;
        let a_rows: [&[f32]; R] = std::array::from_fn(|r| &self.a[(i + r) * k..][..k]);
        let mut acc = [[0.0f32; C]; R];
        for (t, b_row) in (0..k).zip(self.b.chunks_exact(self.n)) {
            let bv = &b_row[j..j + C];
            for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
                let av = a_row[t];
                for (o, &v) in acc_row.iter_mut().zip(bv) {
                    *o += av * v;
                }
            }
        }
        acc
    }
}

/// `aᵀ · b` for row-major `a` (`m × k`) and `b` (`m × n`):
/// `left(c, t) = a[t][c]`.
struct TransA<'a> {
    a: &'a [f32],
    b: &'a [f32],
    m: usize,
    k: usize,
    n: usize,
}

impl Product for TransA<'_> {
    fn b(&self) -> (&[f32], usize) {
        (self.b, self.n)
    }

    fn depth(&self) -> usize {
        self.m
    }

    fn fill_panel(&self, c: usize, rows: usize, panel: &mut Panel) {
        for (slot, a_row) in panel.iter_mut().zip(self.a.chunks_exact(self.k)) {
            for (s, &v) in slot.iter_mut().zip(&a_row[c..c + rows]) {
                *s = Splat([v; 4]);
            }
        }
    }

    #[inline(always)]
    fn tile<const R: usize, const C: usize>(&self, c: usize, j: usize) -> [[f32; C]; R] {
        let mut acc = [[0.0f32; C]; R];
        let rows = self.a.chunks_exact(self.k).zip(self.b.chunks_exact(self.n));
        for (a_row, b_row) in rows.take(self.m) {
            let av = &a_row[c..c + R];
            let bv = &b_row[j..j + C];
            for (acc_row, &a) in acc.iter_mut().zip(av) {
                for (o, &v) in acc_row.iter_mut().zip(bv) {
                    *o += a * v;
                }
            }
        }
        acc
    }
}

/// Where a row block's tiles read their left-operand values from.
trait TileSource {
    /// Readies output rows `i..i + rows` (at most [`TILE_ROWS`]).
    fn prepare(&mut self, i: usize, rows: usize);
    /// The `R × C` output tile at `(i, j)` of the prepared block.
    fn tile<const R: usize, const C: usize>(&self, i: usize, j: usize) -> [[f32; C]; R];
}

/// Tiles that read the left operand in place.
struct Direct<'p, P>(&'p P);

impl<P: Product> TileSource for Direct<'_, P> {
    fn prepare(&mut self, _i: usize, _rows: usize) {}

    #[inline(always)]
    fn tile<const R: usize, const C: usize>(&self, i: usize, j: usize) -> [[f32; C]; R] {
        self.0.tile::<R, C>(i, j)
    }
}

/// Tiles that read the left operand from a stack panel of up to `D`
/// reduction steps, filled once per row block.
struct Panelled<'p, P, const D: usize> {
    product: &'p P,
    storage: [[Splat; TILE_ROWS]; D],
}

impl<P: Product, const D: usize> TileSource for Panelled<'_, P, D> {
    fn prepare(&mut self, i: usize, rows: usize) {
        let depth = self.product.depth();
        self.product.fill_panel(i, rows, &mut self.storage[..depth]);
    }

    #[inline(always)]
    fn tile<const R: usize, const C: usize>(&self, _i: usize, j: usize) -> [[f32; C]; R] {
        let (b, n) = self.product.b();
        let mut acc = [[0.0f32; C]; R];
        for (splats, b_row) in self.storage.iter().zip(b.chunks_exact(n)) {
            let bv = &b_row[j..j + C];
            for (acc_row, splat) in acc.iter_mut().zip(splats) {
                for (c, (o, &v)) in acc_row.iter_mut().zip(bv).enumerate() {
                    *o += splat.0[c % 4] * v;
                }
            }
        }
        acc
    }
}

/// Fills `out` (`m × n`, row-major) with `product`, tile by tile.
///
/// Outputs at least [`TILE_COLS`] wide go through the smallest stack
/// panel that holds the reduction; narrower outputs, whose few column
/// tiles would not repay the copy, and reductions deeper than
/// [`MAX_PANEL_DEPTH`] read the operands in place.
fn tiled(product: &impl Product, out: &mut [f32], m: usize, n: usize) {
    let depth = product.depth();
    if n < TILE_COLS || depth > MAX_PANEL_DEPTH {
        row_blocks(&mut Direct(product), out, m, n);
    } else if depth <= 32 {
        row_blocks(&mut panelled::<_, 32>(product), out, m, n);
    } else if depth <= 64 {
        row_blocks(&mut panelled::<_, 64>(product), out, m, n);
    } else {
        row_blocks(&mut panelled::<_, MAX_PANEL_DEPTH>(product), out, m, n);
    }
}

/// A [`Panelled`] source with zeroed storage.
fn panelled<P, const D: usize>(product: &P) -> Panelled<'_, P, D> {
    Panelled {
        product,
        storage: [[Splat([0.0; 4]); TILE_ROWS]; D],
    }
}

/// Fills the output rows in blocks of [`TILE_ROWS`], then one 3-, 2- or
/// 1-row remainder block.
fn row_blocks(source: &mut impl TileSource, out: &mut [f32], m: usize, n: usize) {
    let mut i = 0;
    while i + TILE_ROWS <= m {
        source.prepare(i, TILE_ROWS);
        row_block::<TILE_ROWS>(source, out, i, n);
        i += TILE_ROWS;
    }
    let rows = m - i;
    if rows > 0 {
        source.prepare(i, rows);
    }
    match rows {
        3 => row_block::<3>(source, out, i, n),
        2 => row_block::<2>(source, out, i, n),
        1 => row_block::<1>(source, out, i, n),
        _ => {}
    }
}

/// Fills output rows `i..i + R` in column tiles of 8, then 4, then 1,
/// storing each finished tile once.
#[inline(always)]
fn row_block<const R: usize>(source: &impl TileSource, out: &mut [f32], i: usize, n: usize) {
    let mut j = 0;
    while j + TILE_COLS <= n {
        store(out, i, j, n, source.tile::<R, TILE_COLS>(i, j));
        j += TILE_COLS;
    }
    if j + 4 <= n {
        store(out, i, j, n, source.tile::<R, 4>(i, j));
        j += 4;
    }
    for j in j..n {
        store(out, i, j, n, source.tile::<R, 1>(i, j));
    }
}

/// Writes a finished tile at output element `(i, j)`.
#[inline(always)]
fn store<const R: usize, const C: usize>(
    out: &mut [f32],
    i: usize,
    j: usize,
    n: usize,
    tile: [[f32; C]; R],
) {
    for (r, row) in tile.iter().enumerate() {
        out[(i + r) * n + j..][..C].copy_from_slice(row);
    }
}

/// `out = a · b` for row-major `a` (`m × k`), `b` (`k × n`), `out`
/// (`m × n`).
///
/// Register-tiled over the output (see the module docs); each tile walks
/// the rows of `b` in increasing `k`. Every element of `out` is
/// overwritten.
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    tiled(&Forward { a, b, k, n }, out, m, n);
}

/// `out = aᵀ · b` for row-major `a` (`m × k`), `b` (`m × n`), `out`
/// (`k × n`) — the gradient-of-weights kernel
/// (`grad_W = inputᵀ · grad_output`) that avoids materializing the
/// transpose.
///
/// Register-tiled over the output like [`matmul`]; each tile walks the
/// shared `m` dimension, reading both operands along contiguous rows, so
/// each `out[c][j]` accumulates over the batch rows in increasing order.
/// Every element of `out` is overwritten.
pub fn matmul_transa(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    tiled(&TransA { a, b, m, k, n }, out, k, n);
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

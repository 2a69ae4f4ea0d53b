//! Portable scalar reference kernels.
//!
//! These functions *define* the semantics of the crate: every accelerated
//! backend must reproduce them bit for bit on every input (enforced by the
//! differential proptests in `tests/properties.rs`). They are also the
//! dispatch target for [`Backend::Scalar`](crate::Backend::Scalar), so they
//! are written in the same iterator style as the pre-SIMD hot loops they
//! replaced — LLVM auto-vectorizes them to baseline 128-bit code exactly as
//! it did before, keeping the forced-scalar mode at its pre-SIMD speed.

/// `out[q] = Σ_t (rows[t*count + q] · inv_l[t])²`, terms added in ascending
/// `t` order per entry. `rows` is dimension-major: row `t` holds the `t`-th
/// difference component of all `count` entries contiguously.
pub fn sq_norm(rows: &[f64], count: usize, inv_l: &[f64], out: &mut [f64]) {
    for o in out.iter_mut() {
        *o = 0.0;
    }
    for (t, &li) in inv_l.iter().enumerate() {
        let row = &rows[t * count..(t + 1) * count];
        for (o, &d) in out.iter_mut().zip(row) {
            let z = d * li;
            *o += z * z;
        }
    }
}

/// `out[i] = (d[i]·inv_l[i])²`.
pub fn z2_into(d: &[f64], inv_l: &[f64], out: &mut [f64]) {
    for ((o, &di), &li) in out.iter_mut().zip(d).zip(inv_l) {
        let z = di * li;
        *o = z * z;
    }
}

/// `acc[i] += w · (k · z2[i])`.
pub fn accum_scaled(acc: &mut [f64], z2: &[f64], k: f64, w: f64) {
    for (a, &z) in acc.iter_mut().zip(z2) {
        *a += w * (k * z);
    }
}

/// `acc[i] += w · (k · ((d[i]·inv_l[i]) · (d[i]·inv_l[i])))`.
pub fn accum_weighted_sq(acc: &mut [f64], d: &[f64], inv_l: &[f64], k: f64, w: f64) {
    for ((a, &di), &li) in acc.iter_mut().zip(d).zip(inv_l) {
        let z = di * li;
        *a += w * (k * (z * z));
    }
}

/// `dst[i] -= src[off + i] · m` for each `(off, m)` in `cols`, columns
/// applied in slice order. This loop nest (column outer, element inner) is
/// the exact shape of the pre-SIMD blocked-Cholesky trailing update.
pub fn fold_cols(dst: &mut [f64], src: &[f64], cols: &[(usize, f64)]) {
    for &(off, m) in cols {
        let col = &src[off..off + dst.len()];
        for (d, &s) in dst.iter_mut().zip(col) {
            *d -= s * m;
        }
    }
}

/// In-place forward substitution `L z = b` for `lanes` lane-interleaved
/// right-hand sides against the row-major factor `l`, over the trailing
/// block that starts at row and column `start` (rows above it are neither
/// read nor written). Each lane `c` runs the exact scalar single-RHS
/// recurrence: `s = x[i]; s -= L[i][k]·x[k] (k ascending from start);
/// x[i] = s / L[i][i]`.
pub fn forward_solve_interleaved(l: &[f64], n: usize, lanes: usize, start: usize, x: &mut [f64]) {
    for i in start..n {
        let row = &l[i * n..i * n + n];
        for c in 0..lanes {
            let mut s = x[i * lanes + c];
            for k in start..i {
                s -= row[k] * x[k * lanes + c];
            }
            x[i * lanes + c] = s / row[i];
        }
    }
}

/// In-place back substitution `Lᵀ x = b` for `lanes` lane-interleaved
/// right-hand sides against the packed column-major factor
/// (`cols[j·(2n−j+1)/2..]` holds `L[j..n][j]`), stopped after row `start`
/// (rows above it are neither read nor written). Each lane runs the exact
/// scalar recurrence with the `k` terms subtracted in ascending order.
pub fn back_solve_interleaved(cols: &[f64], n: usize, lanes: usize, start: usize, x: &mut [f64]) {
    for i in (start..n).rev() {
        let off = i * (2 * n - i + 1) / 2;
        let col = &cols[off..off + (n - i)];
        for c in 0..lanes {
            let mut s = x[i * lanes + c];
            for k in (i + 1)..n {
                s -= col[k - i] * x[k * lanes + c];
            }
            x[i * lanes + c] = s / col[0];
        }
    }
}

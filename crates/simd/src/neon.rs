//! NEON intrinsic kernels (2 × f64 lanes) — the aarch64 mirror of `avx2.rs`.
//!
//! Every function is `#[target_feature(enable = "neon")]` and therefore
//! `unsafe` to call: callers (the dispatch macro in `lib.rs`) must confirm
//! NEON via `is_aarch64_feature_detected!` first. No other invariants are
//! required — all memory access is through slice-derived pointers with the
//! bounds already checked by the safe wrappers.
//!
//! Bit-exactness: multiply and add/subtract stay separate instructions
//! (`vmulq_f64` + `vaddq_f64`/`vsubq_f64`, never `vfmaq_f64`), per-entry
//! reductions run in the same ascending order as the scalar reference, and
//! `vdivq_f64` is IEEE correctly rounded.

use core::arch::aarch64::*;

const LANES: usize = 2;

#[target_feature(enable = "neon")]
pub(crate) unsafe fn sq_norm(rows: &[f64], count: usize, inv_l: &[f64], out: &mut [f64]) {
    let rp = rows.as_ptr();
    let op = out.as_mut_ptr();
    let mut q = 0usize;
    while q + 2 * LANES <= count {
        let mut acc0 = vdupq_n_f64(0.0);
        let mut acc1 = vdupq_n_f64(0.0);
        for (t, &li) in inv_l.iter().enumerate() {
            let lv = vdupq_n_f64(li);
            let base = t * count + q;
            let z0 = vmulq_f64(vld1q_f64(rp.add(base)), lv);
            let z1 = vmulq_f64(vld1q_f64(rp.add(base + LANES)), lv);
            acc0 = vaddq_f64(acc0, vmulq_f64(z0, z0));
            acc1 = vaddq_f64(acc1, vmulq_f64(z1, z1));
        }
        vst1q_f64(op.add(q), acc0);
        vst1q_f64(op.add(q + LANES), acc1);
        q += 2 * LANES;
    }
    while q + LANES <= count {
        let mut acc = vdupq_n_f64(0.0);
        for (t, &li) in inv_l.iter().enumerate() {
            let z = vmulq_f64(vld1q_f64(rp.add(t * count + q)), vdupq_n_f64(li));
            acc = vaddq_f64(acc, vmulq_f64(z, z));
        }
        vst1q_f64(op.add(q), acc);
        q += LANES;
    }
    for qq in q..count {
        let mut s = 0.0;
        for (t, &li) in inv_l.iter().enumerate() {
            let z = rows[t * count + qq] * li;
            s += z * z;
        }
        out[qq] = s;
    }
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn z2_into(d: &[f64], inv_l: &[f64], out: &mut [f64]) {
    let n = d.len();
    let mut i = 0usize;
    while i + LANES <= n {
        let z = vmulq_f64(
            vld1q_f64(d.as_ptr().add(i)),
            vld1q_f64(inv_l.as_ptr().add(i)),
        );
        vst1q_f64(out.as_mut_ptr().add(i), vmulq_f64(z, z));
        i += LANES;
    }
    while i < n {
        let z = d[i] * inv_l[i];
        out[i] = z * z;
        i += 1;
    }
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn accum_scaled(acc: &mut [f64], z2: &[f64], k: f64, w: f64) {
    let n = acc.len();
    let kv = vdupq_n_f64(k);
    let wv = vdupq_n_f64(w);
    let mut i = 0usize;
    while i + LANES <= n {
        let t = vmulq_f64(kv, vld1q_f64(z2.as_ptr().add(i)));
        let a = vld1q_f64(acc.as_ptr().add(i));
        vst1q_f64(acc.as_mut_ptr().add(i), vaddq_f64(a, vmulq_f64(wv, t)));
        i += LANES;
    }
    while i < n {
        acc[i] += w * (k * z2[i]);
        i += 1;
    }
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn accum_weighted_sq(acc: &mut [f64], d: &[f64], inv_l: &[f64], k: f64, w: f64) {
    let n = acc.len();
    let kv = vdupq_n_f64(k);
    let wv = vdupq_n_f64(w);
    let mut i = 0usize;
    while i + LANES <= n {
        let z = vmulq_f64(
            vld1q_f64(d.as_ptr().add(i)),
            vld1q_f64(inv_l.as_ptr().add(i)),
        );
        let t = vmulq_f64(kv, vmulq_f64(z, z));
        let a = vld1q_f64(acc.as_ptr().add(i));
        vst1q_f64(acc.as_mut_ptr().add(i), vaddq_f64(a, vmulq_f64(wv, t)));
        i += LANES;
    }
    while i < n {
        let z = d[i] * inv_l[i];
        acc[i] += w * (k * (z * z));
        i += 1;
    }
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn fold_cols(dst: &mut [f64], src: &[f64], cols: &[(usize, f64)]) {
    let len = dst.len();
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    let mut i = 0usize;
    while i + 4 * LANES <= len {
        let mut d0 = vld1q_f64(dp.add(i));
        let mut d1 = vld1q_f64(dp.add(i + LANES));
        let mut d2 = vld1q_f64(dp.add(i + 2 * LANES));
        let mut d3 = vld1q_f64(dp.add(i + 3 * LANES));
        for &(off, m) in cols {
            let mv = vdupq_n_f64(m);
            let s0 = vld1q_f64(sp.add(off + i));
            let s1 = vld1q_f64(sp.add(off + i + LANES));
            let s2 = vld1q_f64(sp.add(off + i + 2 * LANES));
            let s3 = vld1q_f64(sp.add(off + i + 3 * LANES));
            d0 = vsubq_f64(d0, vmulq_f64(s0, mv));
            d1 = vsubq_f64(d1, vmulq_f64(s1, mv));
            d2 = vsubq_f64(d2, vmulq_f64(s2, mv));
            d3 = vsubq_f64(d3, vmulq_f64(s3, mv));
        }
        vst1q_f64(dp.add(i), d0);
        vst1q_f64(dp.add(i + LANES), d1);
        vst1q_f64(dp.add(i + 2 * LANES), d2);
        vst1q_f64(dp.add(i + 3 * LANES), d3);
        i += 4 * LANES;
    }
    while i + 2 * LANES <= len {
        let mut d0 = vld1q_f64(dp.add(i));
        let mut d1 = vld1q_f64(dp.add(i + LANES));
        for &(off, m) in cols {
            let mv = vdupq_n_f64(m);
            let s0 = vld1q_f64(sp.add(off + i));
            let s1 = vld1q_f64(sp.add(off + i + LANES));
            d0 = vsubq_f64(d0, vmulq_f64(s0, mv));
            d1 = vsubq_f64(d1, vmulq_f64(s1, mv));
        }
        vst1q_f64(dp.add(i), d0);
        vst1q_f64(dp.add(i + LANES), d1);
        i += 2 * LANES;
    }
    while i + LANES <= len {
        let mut d0 = vld1q_f64(dp.add(i));
        for &(off, m) in cols {
            d0 = vsubq_f64(d0, vmulq_f64(vld1q_f64(sp.add(off + i)), vdupq_n_f64(m)));
        }
        vst1q_f64(dp.add(i), d0);
        i += LANES;
    }
    while i < len {
        let mut d = dst[i];
        for &(off, m) in cols {
            d -= src[off + i] * m;
        }
        dst[i] = d;
        i += 1;
    }
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn forward_solve_interleaved(l: &[f64], n: usize, start: usize, x: &mut [f64]) {
    let xp = x.as_mut_ptr();
    for i in start..n {
        let row = &l[i * n..i * n + n];
        let mut s = vld1q_f64(xp.add(i * LANES) as *const f64);
        for (k, &lik) in row[..i].iter().enumerate().skip(start) {
            let xv = vld1q_f64(xp.add(k * LANES) as *const f64);
            s = vsubq_f64(s, vmulq_f64(vdupq_n_f64(lik), xv));
        }
        s = vdivq_f64(s, vdupq_n_f64(row[i]));
        vst1q_f64(xp.add(i * LANES), s);
    }
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn back_solve_interleaved(cols: &[f64], n: usize, start: usize, x: &mut [f64]) {
    let xp = x.as_mut_ptr();
    for i in (start..n).rev() {
        let off = i * (2 * n - i + 1) / 2;
        let col = &cols[off..off + (n - i)];
        let mut s = vld1q_f64(xp.add(i * LANES) as *const f64);
        for (k, &cki) in col.iter().enumerate().skip(1) {
            let xv = vld1q_f64(xp.add((i + k) * LANES) as *const f64);
            s = vsubq_f64(s, vmulq_f64(vdupq_n_f64(cki), xv));
        }
        s = vdivq_f64(s, vdupq_n_f64(col[0]));
        vst1q_f64(xp.add(i * LANES), s);
    }
}

//! Bit-exact vectorized micro-kernels with runtime CPU dispatch.
//!
//! The GP hot loops (pairwise kernel sweeps, the blocked-Cholesky trailing
//! update, batched triangular solves) are straight-line floating-point code
//! whose cost is dominated by instruction throughput. This crate provides
//! SIMD implementations of those inner loops that are **bit-identical** to
//! the portable scalar reference in [`scalar`], which is what lets them sit
//! underneath the repository's reproducibility contract (golden trajectory
//! CSVs, `to_bits` differential tests) without a tolerance anywhere.
//!
//! # The bit-exactness rule
//!
//! Floating-point addition is not associative, so a vectorized loop is only
//! bit-exact when it assigns *whole* scalar reduction chains to SIMD lanes
//! instead of splitting one chain across lanes:
//!
//! - Vectorize **across independent entries** (pairs of a [`sq_norm`] batch,
//!   elements of a [`fold_cols`] column, right-hand sides of an interleaved
//!   solve). Each lane then executes exactly the scalar operation sequence
//!   for its entry.
//! - Keep every per-entry reduction (the `Σ_t z_t²` of one kernel pair, the
//!   `Σ_k L[i][k]·x[k]` of one solve row) **sequential in ascending order**,
//!   never tree- or lane-reduced.
//! - Use separate multiply and add/subtract instructions — **no FMA**. A
//!   fused `a*b+c` rounds once where the scalar path rounds twice, so fusing
//!   changes low bits even with identical ordering.
//! - Division and square root are IEEE-754 correctly rounded in both scalar
//!   and vector form, so `vdivpd`/`vsqrtpd` are safe to use; transcendental
//!   functions (`exp`) are **not** vectorized — callers keep them in scalar
//!   `libm` form.
//!
//! # Dispatch
//!
//! [`active`] resolves the process-wide backend once: AVX2 on `x86_64`,
//! NEON on `aarch64` (both runtime-detected), scalar otherwise. The
//! `MFBO_SIMD` environment variable overrides it (`scalar` forces the
//! fallback, `auto` is the default); any other value aborts loudly rather
//! than silently degrading — reproducibility knobs must not guess. Every
//! kernel takes the backend as an explicit argument so callers hoist the
//! decision out of their inner loops and differential tests can pin both
//! paths in one process.
//!
//! All `unsafe` lives in the private `avx2`/`neon` intrinsic modules; every
//! call into them is fenced by a runtime feature check at the dispatch site.

use std::sync::OnceLock;

pub mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;

/// Instruction-set backend executing the micro-kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar reference ([`scalar`]).
    Scalar,
    /// 256-bit AVX2 on `x86_64` (4 f64 lanes).
    Avx2,
    /// 128-bit NEON on `aarch64` (2 f64 lanes).
    Neon,
}

/// The widest [`Backend::lanes`] of any backend — the size of a per-lane
/// accumulator array that serves every backend.
pub const MAX_LANES: usize = 4;

impl Backend {
    /// Number of f64 lanes the backend processes per vector — the interleave
    /// factor callers use to lay out multi-RHS solves.
    pub fn lanes(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Avx2 => 4,
            Backend::Neon => 2,
        }
    }

    /// Telemetry / display name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

/// User-facing dispatch mode, mirroring the `MFBO_THREADS` knob style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Force the portable scalar fallback.
    Scalar,
    /// Use the best runtime-detected instruction set.
    Auto,
}

impl SimdMode {
    /// Parses `"scalar"` / `"auto"` (the `MFBO_SIMD` and `--simd` values).
    /// Returns `None` for anything else — callers must fail loudly.
    pub fn parse(s: &str) -> Option<SimdMode> {
        match s {
            "scalar" => Some(SimdMode::Scalar),
            "auto" => Some(SimdMode::Auto),
            _ => None,
        }
    }
}

/// Best backend the running CPU supports, ignoring `MFBO_SIMD`.
pub fn detect() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Backend::Neon;
        }
    }
    Backend::Scalar
}

/// Resolves a dispatch mode to a concrete backend.
pub fn backend_for(mode: SimdMode) -> Backend {
    match mode {
        SimdMode::Scalar => Backend::Scalar,
        SimdMode::Auto => detect(),
    }
}

/// Pure resolution of an `MFBO_SIMD` value (`None` = variable unset).
///
/// # Errors
///
/// Returns the validation message for an unknown value.
fn resolve(var: Option<&str>) -> Result<Backend, String> {
    match var {
        None => Ok(backend_for(SimdMode::Auto)),
        Some(v) => match SimdMode::parse(v) {
            Some(m) => Ok(backend_for(m)),
            None => Err(format!(
                "invalid MFBO_SIMD value '{v}' (expected 'scalar' or 'auto')"
            )),
        },
    }
}

/// Resolves the backend from the `MFBO_SIMD` environment variable without
/// touching the process-wide cache — the CLI preflights this so a bad value
/// exits nonzero with a clean message instead of panicking mid-run.
///
/// # Errors
///
/// Returns the validation message for an unknown `MFBO_SIMD` value.
pub fn backend_from_env() -> Result<Backend, String> {
    resolve(std::env::var("MFBO_SIMD").ok().as_deref())
}

static ACTIVE: OnceLock<Backend> = OnceLock::new();

fn init_backend(forced: Option<SimdMode>) -> Backend {
    let (backend, source) = match forced {
        Some(m) => (backend_for(m), "cli"),
        None => match std::env::var("MFBO_SIMD") {
            Ok(v) => match SimdMode::parse(&v) {
                Some(m) => (backend_for(m), "env"),
                // Loud failure: a typo'd MFBO_SIMD silently running the
                // wrong backend would defeat the point of the knob.
                None => panic!("invalid MFBO_SIMD value '{v}' (expected 'scalar' or 'auto')"),
            },
            Err(_) => (backend_for(SimdMode::Auto), "default"),
        },
    };
    mfbo_telemetry::debug_event!(
        "simd_dispatch",
        backend = backend.name(),
        lanes = backend.lanes(),
        source = source,
    );
    mfbo_telemetry::counter!("simd_dispatch", 1u64);
    backend
}

/// The process-wide backend, resolved once from `MFBO_SIMD` (unset → auto
/// detection). The decision is reported as a `simd_dispatch` telemetry
/// event + counter on first call.
///
/// # Panics
///
/// Panics on an invalid `MFBO_SIMD` value (see [`backend_from_env`] for the
/// non-panicking preflight).
pub fn active() -> Backend {
    *ACTIVE.get_or_init(|| init_backend(None))
}

/// Seeds the process-wide backend from an explicit mode (the CLI `--simd`
/// flag), taking precedence over `MFBO_SIMD`. Must run before the first
/// [`active`] call; if the backend was already resolved, the existing
/// decision is returned unchanged.
pub fn force(mode: SimdMode) -> Backend {
    *ACTIVE.get_or_init(|| init_backend(Some(mode)))
}

/// Dispatches one micro-kernel call: scalar reference, or the intrinsic
/// module fenced by a runtime feature check (so even a hand-constructed
/// [`Backend`] value on the wrong CPU degrades safely to scalar).
macro_rules! dispatch {
    ($be:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $be {
            Backend::Scalar => scalar::$f($($arg),*),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if std::arch::is_x86_feature_detected!("avx2") =>
                // SAFETY: the guard just confirmed AVX2 is available on the
                // running CPU, which is the only requirement of the
                // `#[target_feature(enable = "avx2")]` kernels.
                unsafe { avx2::$f($($arg),*) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon if std::arch::is_aarch64_feature_detected!("neon") =>
                // SAFETY: the guard just confirmed NEON is available on the
                // running CPU, which is the only requirement of the
                // `#[target_feature(enable = "neon")]` kernels.
                unsafe { neon::$f($($arg),*) },
            _ => scalar::$f($($arg),*),
        }
    };
}

/// Batched squared weighted norms across independent entries:
/// `out[q] = Σ_t (rows[t*count + q] · inv_l[t])²`, the `t` terms added in
/// ascending order per entry — the per-pair reduction of the stationary
/// kernels, with `rows` holding the pair differences dimension-major.
///
/// # Panics
///
/// Panics if `rows.len() != count * inv_l.len()` or `out.len() != count`.
pub fn sq_norm(be: Backend, rows: &[f64], count: usize, inv_l: &[f64], out: &mut [f64]) {
    assert_eq!(rows.len(), count * inv_l.len(), "sq_norm shape mismatch");
    assert_eq!(out.len(), count, "sq_norm output length mismatch");
    dispatch!(be, sq_norm(rows, count, inv_l, out));
}

/// Elementwise scaled squares: `out[i] = (d[i]·inv_l[i])²` — the `z_i²`
/// terms of one kernel pair's ARD gradient.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn z2_into(be: Backend, d: &[f64], inv_l: &[f64], out: &mut [f64]) {
    assert_eq!(d.len(), inv_l.len(), "z2_into shape mismatch");
    assert_eq!(out.len(), d.len(), "z2_into output length mismatch");
    dispatch!(be, z2_into(d, inv_l, out));
}

/// Weighted gradient accumulation `acc[i] += w · (k · z2[i])` — the SE
/// lengthscale gradient of one pair, parenthesized exactly as the scalar
/// path computes it.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn accum_scaled(be: Backend, acc: &mut [f64], z2: &[f64], k: f64, w: f64) {
    assert_eq!(acc.len(), z2.len(), "accum_scaled shape mismatch");
    dispatch!(be, accum_scaled(acc, z2, k, w));
}

/// Fused weighted-square gradient accumulation
/// `acc[i] += w · (k · ((d[i]·inv_l[i]) · (d[i]·inv_l[i])))` — the
/// values-supplied SE gradient of one pair without materializing `z²`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn accum_weighted_sq(be: Backend, acc: &mut [f64], d: &[f64], inv_l: &[f64], k: f64, w: f64) {
    assert_eq!(acc.len(), d.len(), "accum_weighted_sq shape mismatch");
    assert_eq!(inv_l.len(), d.len(), "accum_weighted_sq shape mismatch");
    dispatch!(be, accum_weighted_sq(acc, d, inv_l, k, w));
}

/// Multi-column axpy fold `dst[i] -= src[off + i] · m` for every
/// `(off, m)` in `cols`, columns applied in slice order per element — the
/// blocked-Cholesky trailing update with the destination column kept in
/// registers across the whole panel.
///
/// # Panics
///
/// Panics if any column slice `src[off..off + dst.len()]` is out of range.
pub fn fold_cols(be: Backend, dst: &mut [f64], src: &[f64], cols: &[(usize, f64)]) {
    for &(off, _) in cols {
        assert!(
            off + dst.len() <= src.len(),
            "fold_cols column out of range"
        );
    }
    dispatch!(be, fold_cols(dst, src, cols));
}

/// Interleaved multi-RHS forward substitution, in place: solves `L z = b`
/// for `be.lanes()` right-hand sides stored lane-interleaved in `x`
/// (`x[i*lanes + c]` is row `i` of RHS `c`), each lane executing exactly the
/// scalar single-RHS operation sequence. `l` is the row-major `n × n`
/// lower-triangular factor.
///
/// The solve covers the trailing block from row and column `start`: rows
/// above `start` are neither read nor written, and each row's `k` terms
/// run from `start`. With `start = 0` this is the full solve. A caller
/// whose right-hand sides are zero above `start` gets the full solve's
/// bits as long as those zero rows would stay `+0.0` and subtract only
/// `±0` products — the inverse's unit columns are the case in point (see
/// `Cholesky::inverse_lower_into` in `mfbo-linalg`).
///
/// # Panics
///
/// Panics if `l.len() != n*n`, `start > n` or `x.len() != n * be.lanes()`.
pub fn forward_solve_interleaved(be: Backend, l: &[f64], n: usize, start: usize, x: &mut [f64]) {
    let lanes = be.lanes();
    assert_eq!(l.len(), n * n, "forward_solve_interleaved factor mismatch");
    assert!(start <= n, "forward_solve_interleaved start out of range");
    assert_eq!(x.len(), n * lanes, "forward_solve_interleaved rhs mismatch");
    match be {
        Backend::Scalar => scalar::forward_solve_interleaved(l, n, 1, start, x),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if std::arch::is_x86_feature_detected!("avx2") =>
        // SAFETY: AVX2 availability confirmed by the guard.
        unsafe { avx2::forward_solve_interleaved(l, n, start, x) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon if std::arch::is_aarch64_feature_detected!("neon") =>
        // SAFETY: NEON availability confirmed by the guard.
        unsafe { neon::forward_solve_interleaved(l, n, start, x) },
        _ => scalar::forward_solve_interleaved(l, n, lanes, start, x),
    }
}

/// Interleaved multi-RHS back substitution, in place: solves `Lᵀ x = b` for
/// `be.lanes()` lane-interleaved right-hand sides against the packed
/// column-major factor (`cols[j·(2n−j+1)/2..][..n−j]` holds `L[j..n][j]`).
///
/// The sweep runs from row `n − 1` down to row `start` and stops there:
/// rows above `start` are neither read nor written. Row `i` reads only the
/// rows below it, so every row it does compute is bit-identical to the
/// full (`start = 0`) sweep.
///
/// # Panics
///
/// Panics if `cols.len() != n(n+1)/2`, `start > n` or
/// `x.len() != n * be.lanes()`.
pub fn back_solve_interleaved(be: Backend, cols: &[f64], n: usize, start: usize, x: &mut [f64]) {
    let lanes = be.lanes();
    assert_eq!(
        cols.len(),
        n * (n + 1) / 2,
        "back_solve_interleaved factor mismatch"
    );
    assert!(start <= n, "back_solve_interleaved start out of range");
    assert_eq!(x.len(), n * lanes, "back_solve_interleaved rhs mismatch");
    match be {
        Backend::Scalar => scalar::back_solve_interleaved(cols, n, 1, start, x),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if std::arch::is_x86_feature_detected!("avx2") =>
        // SAFETY: AVX2 availability confirmed by the guard.
        unsafe { avx2::back_solve_interleaved(cols, n, start, x) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon if std::arch::is_aarch64_feature_detected!("neon") =>
        // SAFETY: NEON availability confirmed by the guard.
        unsafe { neon::back_solve_interleaved(cols, n, start, x) },
        _ => scalar::back_solve_interleaved(cols, n, lanes, start, x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parse_accepts_known_values_only() {
        assert_eq!(SimdMode::parse("scalar"), Some(SimdMode::Scalar));
        assert_eq!(SimdMode::parse("auto"), Some(SimdMode::Auto));
        assert_eq!(SimdMode::parse("avx2"), None);
        assert_eq!(SimdMode::parse("SCALAR"), None);
        assert_eq!(SimdMode::parse(""), None);
    }

    #[test]
    fn resolve_forces_scalar_and_rejects_unknown() {
        // `MFBO_SIMD=scalar` must force the fallback even on SIMD hardware.
        assert_eq!(resolve(Some("scalar")), Ok(Backend::Scalar));
        // `auto` and unset follow detection.
        assert_eq!(resolve(Some("auto")), Ok(detect()));
        assert_eq!(resolve(None), Ok(detect()));
        // Unknown values are an error, never a silent fallback.
        let err = resolve(Some("fast")).unwrap_err();
        assert!(err.contains("MFBO_SIMD") && err.contains("fast"));
    }

    #[test]
    fn lanes_match_vector_widths() {
        assert_eq!(Backend::Scalar.lanes(), 1);
        assert_eq!(Backend::Avx2.lanes(), 4);
        assert_eq!(Backend::Neon.lanes(), 2);
        for be in [Backend::Scalar, Backend::Avx2, Backend::Neon] {
            assert!(be.lanes() <= MAX_LANES);
        }
    }

    #[test]
    fn detect_never_picks_a_foreign_backend() {
        let b = detect();
        #[cfg(target_arch = "x86_64")]
        assert_ne!(b, Backend::Neon);
        #[cfg(target_arch = "aarch64")]
        assert_ne!(b, Backend::Avx2);
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        assert_eq!(b, Backend::Scalar);
    }

    #[test]
    fn foreign_backend_degrades_to_scalar() {
        // A hand-constructed backend for another architecture must fall
        // back to the scalar kernels, not crash: the dispatch guard, not
        // the enum value, decides what runs.
        #[cfg(target_arch = "x86_64")]
        let foreign = Backend::Neon;
        #[cfg(not(target_arch = "x86_64"))]
        let foreign = Backend::Avx2;
        let d = [1.5, -2.0, 0.25];
        let l = [0.5, 2.0, 4.0];
        let mut got = [0.0; 3];
        let mut want = [0.0; 3];
        z2_into(foreign, &d, &l, &mut got);
        scalar::z2_into(&d, &l, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn dispatch_decision_emits_telemetry() {
        let sink = std::sync::Arc::new(mfbo_telemetry::sinks::CollectSink::with_level(
            mfbo_telemetry::Level::Debug,
        ));
        let _g = mfbo_telemetry::scoped_sink(sink.clone());
        let b = active();
        // `active` caches after the first call in the process, so the event
        // may have fired before this sink was installed; exercise the init
        // path directly to pin the payload.
        let fresh = init_backend(None);
        assert_eq!(b, fresh);
        let recs = sink.named("simd_dispatch");
        // Both the event and the counter share the name; pin the event.
        let rec = recs
            .iter()
            .find(|r| r.field("backend").is_some())
            .expect("simd_dispatch event with backend field");
        assert_eq!(
            rec.field("backend"),
            Some(&mfbo_telemetry::Value::Str(fresh.name().to_string()))
        );
        assert_eq!(
            rec.field("lanes"),
            Some(&mfbo_telemetry::Value::U64(fresh.lanes() as u64))
        );
        // The counter fired too.
        assert!(recs.iter().any(|r| r.field("backend").is_none()));
    }
}

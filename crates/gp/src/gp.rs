//! Gaussian-process regression model: training and posterior prediction.

use crate::kernel::{Kernel, NargpKernel};
use crate::nlml::{kernel_matrix_cached, nlml_state_grad, nlml_value_state, NlmlWorkspace};
use crate::workspace::DiffBatch;
use crate::GpError;
use mfbo_infer::InferenceMode;
use mfbo_linalg::{Cholesky, Standardizer};
use mfbo_opt::{lbfgs::Lbfgs, sampling, Bounds};
use mfbo_pool::{par_map, Parallelism};
use rand::Rng;

/// Posterior prediction at a single query point, in raw (de-standardized)
/// output units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Posterior mean `μ(x*)`.
    pub mean: f64,
    /// Posterior *latent* variance `σ²(x*)` (observation noise excluded).
    pub var: f64,
}

impl Prediction {
    /// Posterior standard deviation (clamped at zero for numerical safety).
    pub fn std_dev(&self) -> f64 {
        self.var.max(0.0).sqrt()
    }
}

/// Training configuration for [`Gp::fit`].
#[derive(Debug, Clone)]
pub struct GpConfig {
    /// Number of random hyperparameter restarts (in addition to the kernel
    /// defaults and any warm start).
    pub restarts: usize,
    /// L-BFGS iteration cap per restart.
    pub max_iters: usize,
    /// If `false`, the observation noise is frozen at
    /// [`GpConfig::log_noise_init`] instead of being optimized.
    pub train_noise: bool,
    /// Initial `log σ_n` (standardized output units).
    pub log_noise_init: f64,
    /// Bounds for `log σ_n` during training.
    pub log_noise_bounds: (f64, f64),
    /// Whether to z-score the outputs before training (recommended; all the
    /// default kernel bounds assume standardized outputs).
    pub standardize: bool,
    /// Optional warm-start hyperparameters `[kernel params…, log σ_n]`,
    /// tried as an additional restart — the BO loop passes the previous
    /// iteration's optimum here.
    pub warm_start: Option<Vec<f64>>,
    /// Distributes the (pure) per-restart L-BFGS runs over a thread pool.
    /// All randomness is drawn before the restarts launch and the best
    /// restart is selected in start order, so every mode returns
    /// bit-identical models.
    pub parallelism: Parallelism,
    /// Inference engine for training and the final model build (see
    /// [`InferenceMode`]). `Exact` — the default — runs the historical
    /// O(n³) Cholesky path bit for bit; the approximate modes cap the
    /// cubic cost once the training set outgrows their subset size.
    pub inference: InferenceMode,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            restarts: 4,
            max_iters: 80,
            train_noise: true,
            log_noise_init: (1e-3f64).ln(),
            log_noise_bounds: ((1e-6f64).ln(), (0.3f64).ln()),
            standardize: true,
            warm_start: None,
            parallelism: Parallelism::Serial,
            inference: InferenceMode::Exact,
        }
    }
}

impl GpConfig {
    /// A cheaper configuration for inner-loop refits (fewer restarts and
    /// iterations); used by the BO loops which refit every iteration.
    pub fn fast() -> Self {
        GpConfig {
            restarts: 2,
            max_iters: 40,
            ..Self::default()
        }
    }
}

/// Companion state of a model built under [`InferenceMode::Iterative`]:
/// the subset behind the variance factor and the subset model's own alpha.
#[derive(Debug, Clone)]
struct IterState {
    /// Ascending training-set indices of the subset behind `Gp::chol`.
    subset: Vec<usize>,
    /// `K_sub⁻¹ y_sub` — the subset model's alpha, used by the closed-form
    /// LOO diagnostics (which need a factor and alpha of matching size).
    sub_alpha: Vec<f64>,
    /// Conjugate-gradient iterations spent on the full-data mean solve.
    cg_iters: usize,
}

/// A trained Gaussian-process regression model (paper §2.3).
///
/// See the crate-level example for typical usage.
#[derive(Debug, Clone)]
pub struct Gp<K: Kernel> {
    kernel: K,
    /// Optimized kernel log-parameters.
    params: Vec<f64>,
    /// Optimized `log σ_n`.
    log_noise: f64,
    xs: Vec<Vec<f64>>,
    /// Raw observations.
    ys_raw: Vec<f64>,
    /// Standardized observations.
    ys: Vec<f64>,
    standardizer: Standardizer,
    /// Full-data factor for exact/subset-of-data models; the *subset*
    /// factor when `iter_state` is present.
    chol: Cholesky,
    /// `K⁻¹ y` in standardized space (over the full training set in every
    /// mode — under iterative inference it is the CG solution).
    alpha: Vec<f64>,
    /// Final negative log marginal likelihood (of the subset model under
    /// iterative inference).
    nlml: f64,
    /// Present iff the model was built by [`InferenceMode::Iterative`].
    iter_state: Option<IterState>,
    /// Index into the planned starts of the restart that won the NLML
    /// search (0 = kernel default, 1 = warm start when one was supplied);
    /// `None` for frozen-hyperparameter builds, which run no search.
    best_start: Option<usize>,
}

impl<K: Kernel> Gp<K> {
    /// Trains a GP on `(xs, ys)` by multi-restart NLML minimization.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidTrainingSet`] for empty or mismatched data
    /// and [`GpError::TrainingFailed`] if no restart produced a finite NLML.
    pub fn fit<R: Rng + ?Sized>(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        config: &GpConfig,
        rng: &mut R,
    ) -> Result<Self, GpError> {
        Self::validate(&kernel, &xs, &ys)?;
        let starts = Self::plan_starts(&kernel, config, rng);
        Self::fit_planned(kernel, xs, ys, config, starts)
    }

    /// Draws the NLML starting points `fit` would use, consuming the RNG in
    /// exactly the same order: the clamped kernel default, the warm start
    /// (when present and well-shaped), then `config.restarts` Latin-hypercube
    /// draws.
    ///
    /// Splitting planning (randomness) from [`Gp::fit_planned`] (pure
    /// optimization) lets bundle fitters front-load every random draw for a
    /// whole family of models and then train the models in parallel with
    /// bit-identical results in any [`Parallelism`] mode.
    pub fn plan_starts<R: Rng + ?Sized>(
        kernel: &K,
        config: &GpConfig,
        rng: &mut R,
    ) -> Vec<Vec<f64>> {
        let theta_bounds = Self::theta_bounds(kernel, config);
        let mut starts: Vec<Vec<f64>> = Vec::new();
        let mut default_start = kernel.default_params();
        default_start.push(config.log_noise_init);
        starts.push(theta_bounds.clamp(&default_start));
        if let Some(ws) = &config.warm_start {
            if ws.len() == kernel.num_params() + 1 {
                starts.push(theta_bounds.clamp(ws));
            }
        }
        starts.extend(sampling::latin_hypercube(
            &theta_bounds,
            config.restarts,
            rng,
        ));
        starts
    }

    /// Hyperparameter search space: kernel bounds ⊕ noise bounds.
    fn theta_bounds(kernel: &K, config: &GpConfig) -> Bounds {
        let (mut lo, mut hi) = kernel.param_bounds();
        if config.train_noise {
            lo.push(config.log_noise_bounds.0);
            hi.push(config.log_noise_bounds.1.max(config.log_noise_bounds.0));
        } else {
            lo.push(config.log_noise_init);
            hi.push(config.log_noise_init);
        }
        Bounds::new(lo, hi)
    }

    fn validate(kernel: &K, xs: &[Vec<f64>], ys: &[f64]) -> Result<(), GpError> {
        if xs.is_empty() {
            return Err(GpError::InvalidTrainingSet {
                reason: "no training points".into(),
            });
        }
        if xs.len() != ys.len() {
            return Err(GpError::InvalidTrainingSet {
                reason: format!("{} inputs but {} outputs", xs.len(), ys.len()),
            });
        }
        for (i, x) in xs.iter().enumerate() {
            if x.len() != kernel.input_dim() {
                return Err(GpError::InvalidTrainingSet {
                    reason: format!(
                        "input {i} has dimension {} but kernel expects {}",
                        x.len(),
                        kernel.input_dim()
                    ),
                });
            }
        }
        if ys.iter().any(|y| !y.is_finite()) {
            return Err(GpError::InvalidTrainingSet {
                reason: "non-finite observation".into(),
            });
        }
        Ok(())
    }

    /// Trains a GP from pre-drawn starting points (see [`Gp::plan_starts`]).
    /// Consumes no randomness: the per-start L-BFGS runs are pure and may be
    /// distributed over [`GpConfig::parallelism`] worker threads; the best
    /// restart is selected in start order.
    ///
    /// Dispatches on [`GpConfig::inference`]: `Exact` (and any approximate
    /// mode whose subset cap the training set has not yet outgrown) runs the
    /// historical Cholesky path bit for bit; `SubsetOfData` reduces the
    /// training set with a deterministic farthest-point selection over
    /// committed history order and then runs the exact path on the subset;
    /// `Iterative` trains hyperparameters on the subset and recovers the
    /// full-data mean with a matrix-free preconditioned CG solve.
    ///
    /// # Errors
    ///
    /// Same contract as [`Gp::fit`].
    pub fn fit_planned(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        config: &GpConfig,
        starts: Vec<Vec<f64>>,
    ) -> Result<Self, GpError> {
        Self::fit_planned_shared(kernel, xs, ys, config, starts, None)
    }

    /// [`Gp::fit_planned`] with an optional pre-built lower-triangle
    /// difference batch over `xs` — the bundle fitters' sharing hook (the
    /// objective and constraint GPs of one bundle train on the same `X`, so
    /// one batch serves every model's NLML workspace). The batch must hold
    /// the exact diffs a fresh build over `xs` would (bit-identical
    /// results); a batch whose shape does not match `xs` is ignored and a
    /// fresh build is used. Only the exact path consumes the batch — the
    /// subset/iterative engines train on reduced point sets.
    ///
    /// # Errors
    ///
    /// Same contract as [`Gp::fit`].
    pub fn fit_planned_shared(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        config: &GpConfig,
        starts: Vec<Vec<f64>>,
        shared: Option<&DiffBatch<'_>>,
    ) -> Result<Self, GpError> {
        Self::validate(&kernel, &xs, &ys)?;
        match config.inference {
            InferenceMode::SubsetOfData { max_points } if xs.len() > max_points => {
                let keep = mfbo_infer::select_subset(&xs, max_points, 0);
                let xs_sub: Vec<Vec<f64>> = keep.iter().map(|&i| xs[i].clone()).collect();
                let ys_sub: Vec<f64> = keep.iter().map(|&i| ys[i]).collect();
                Self::fit_planned_exact(kernel, xs_sub, ys_sub, config, starts, None)
            }
            InferenceMode::Iterative { subset, max_iters } if xs.len() > subset => {
                Self::fit_planned_iterative(kernel, xs, ys, config, starts, subset, max_iters)
            }
            _ => Self::fit_planned_exact(kernel, xs, ys, config, starts, shared),
        }
    }

    /// Whether `batch` is a usable lower-triangle difference tensor for
    /// `xs` (right pair count and dimensionality).
    fn shared_usable(batch: &DiffBatch<'_>, xs: &[Vec<f64>]) -> bool {
        let n = xs.len();
        batch.len() == n * (n + 1) / 2 && batch.dim() == xs.first().map_or(0, Vec::len)
    }

    /// The historical exact training path: full-data hyperopt, one final
    /// Cholesky factorization — every byte of the pre-inference-mode
    /// behavior.
    fn fit_planned_exact(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        config: &GpConfig,
        starts: Vec<Vec<f64>>,
        shared: Option<&DiffBatch<'_>>,
    ) -> Result<Self, GpError> {
        Self::validate(&kernel, &xs, &ys)?;

        let standardizer = if config.standardize {
            Standardizer::fit(&ys)
        } else {
            Standardizer::identity()
        };
        let ys_std = standardizer.transform_all(&ys);
        let theta_bounds = Self::theta_bounds(&kernel, config);

        // One distance workspace for the whole fit: every NLML evaluation
        // of every restart reuses the pairwise difference tensor (the
        // workspace is read-only, so parallel restarts share it). A shared
        // bundle batch replaces even that single build.
        let ws = match shared {
            Some(b) if Self::shared_usable(b, &xs) => NlmlWorkspace::from_batch(b, xs.len()),
            _ => NlmlWorkspace::new(&xs),
        };
        // L-BFGS probes with the value half and finishes the gradient only
        // at the start and at accepted steps.
        let value = |theta: &[f64]| nlml_value_state(&kernel, theta, &ws, &ys_std);
        let grad = |theta: &[f64], state| nlml_state_grad(&kernel, theta, &ws, state);
        let optimizer = Lbfgs::new()
            .with_max_iters(config.max_iters)
            .with_grad_tol(1e-5);

        let results = par_map(config.parallelism, &starts, |s| {
            optimizer.minimize_lazy(&value, &grad, s, &theta_bounds)
        });
        let mut best: Option<(Vec<f64>, f64)> = None;
        let mut best_start = 0usize;
        let mut nlml_evals = 0usize;
        let mut lbfgs_iters = 0usize;
        for (k, r) in results.into_iter().enumerate() {
            nlml_evals += r.evaluations;
            lbfgs_iters += r.iterations;
            if r.value.is_finite() {
                let better = best.as_ref().is_none_or(|(_, v)| r.value < *v);
                if better {
                    best = Some((r.x, r.value));
                    best_start = k;
                }
            }
        }
        let (theta, best_nlml) = best.ok_or(GpError::TrainingFailed)?;

        let np = kernel.num_params();
        let params = theta[..np].to_vec();
        let log_noise = theta[np];
        let km = kernel_matrix_cached(&kernel, &params, log_noise, &ws);
        drop(ws);
        let chol = Cholesky::new_with_jitter(&km, 1e-10, 1e-4)?;
        let alpha = chol.solve_vec(&ys_std);
        // A winning hyperparameter pinned at its search-space boundary
        // usually means the bound, not the data, chose the value — the
        // classic symptom of a degenerating surrogate (lengthscale collapsed
        // to the floor, or noise railed at its cap). Components whose bounds
        // are pinned (lo == hi, e.g. log_noise with train_noise off) cannot
        // meaningfully "hit" a bound and are skipped.
        let bound_hits = theta
            .iter()
            .zip(theta_bounds.lower().iter().zip(theta_bounds.upper()))
            .filter(|&(&t, (&lo, &hi))| {
                let span = hi - lo;
                span > 0.0 && ((t - lo).abs() <= 1e-9 * span || (hi - t).abs() <= 1e-9 * span)
            })
            .count();
        // Start 0 is always the kernel default; 1 is the warm start when one
        // was supplied — best_start tells which strategy won this refit.
        // `factorizations` counts Cholesky factorization entry points: one
        // per NLML evaluation plus the final model build (jitter retries
        // within an entry are reported separately via `cholesky_jitter`).
        mfbo_telemetry::debug_event!(
            "gp_fit",
            n = xs.len(),
            dim = kernel.input_dim(),
            starts = starts.len(),
            best_start = best_start,
            nlml = best_nlml,
            nlml_evals = nlml_evals,
            factorizations = nlml_evals + 1,
            lbfgs_iters = lbfgs_iters,
            log_noise = log_noise,
            jitter = chol.jitter(),
            condition = chol.condition_estimate(),
            bound_hits = bound_hits,
        );

        Ok(Gp {
            kernel,
            params,
            log_noise,
            xs,
            ys_raw: ys,
            ys: ys_std,
            standardizer,
            chol,
            alpha,
            nlml: best_nlml,
            iter_state: None,
            best_start: Some(best_start),
        })
    }

    /// [`InferenceMode::Iterative`] training: hyperparameters are optimized
    /// on a deterministic subset (cubic cost capped at `subset³`), then the
    /// full-data mean solve `α = (K + σ_n²I)⁻¹ y` is recovered matrix-free
    /// with preconditioned conjugate gradients. Predictive variances come
    /// from the subset factor.
    fn fit_planned_iterative(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        config: &GpConfig,
        starts: Vec<Vec<f64>>,
        subset: usize,
        max_iters: usize,
    ) -> Result<Self, GpError> {
        // The standardizer is fit on the FULL outputs — the CG mean solve
        // uses every observation — and the subset hyperopt then runs on the
        // pre-standardized values with standardization disabled, so both
        // stages agree on the output space.
        let standardizer = if config.standardize {
            Standardizer::fit(&ys)
        } else {
            Standardizer::identity()
        };
        let ys_std = standardizer.transform_all(&ys);
        let keep = mfbo_infer::select_subset(&xs, subset, 0);
        let xs_sub: Vec<Vec<f64>> = keep.iter().map(|&i| xs[i].clone()).collect();
        let ys_sub: Vec<f64> = keep.iter().map(|&i| ys_std[i]).collect();
        let sub_cfg = GpConfig {
            standardize: false,
            inference: InferenceMode::Exact,
            ..config.clone()
        };
        let sub = Self::fit_planned_exact(kernel, xs_sub, ys_sub, &sub_cfg, starts, None)?;
        Self::finish_iterative(
            sub,
            xs,
            ys,
            ys_std,
            standardizer,
            keep,
            max_iters,
            config.parallelism,
        )
    }

    /// Completes an iterative-mode build from a trained subset model: runs
    /// the full-data CG mean solve and assembles the combined model. Falls
    /// back to a full exact factorization (counted as
    /// `infer_exact_fallbacks`) when CG produces an unusable vector.
    #[allow(clippy::too_many_arguments)]
    fn finish_iterative(
        sub: Self,
        xs: Vec<Vec<f64>>,
        ys_raw: Vec<f64>,
        ys_std: Vec<f64>,
        standardizer: Standardizer,
        keep: Vec<usize>,
        max_iters: usize,
        parallelism: Parallelism,
    ) -> Result<Self, GpError> {
        let Gp {
            kernel,
            params,
            log_noise,
            chol,
            alpha: sub_alpha,
            nlml,
            best_start,
            ..
        } = sub;
        let sn2 = (2.0 * log_noise).exp();
        // The CG system folds noise and the subset factor's jitter into the
        // diagonal, mirroring what a full factorization at these
        // hyperparameters would solve.
        let shift = sn2 + chol.jitter();
        let diag = DiffBatch::diagonal_with_backend(&xs, mfbo_simd::Backend::Scalar);
        let mut precond = vec![0.0; xs.len()];
        kernel.eval_from_diffs(&params, &diag, &mut precond);
        for d in precond.iter_mut() {
            *d += shift;
        }
        let outcome = mfbo_infer::cg_solve(
            |v, out| Self::dense_matvec(&kernel, &params, &xs, shift, v, out, parallelism),
            &precond,
            &ys_std,
            max_iters,
            mfbo_infer::DEFAULT_CG_RTOL,
        );
        let unusable =
            !outcome.x.iter().all(|a| a.is_finite()) || (outcome.iters == 0 && !outcome.converged);
        if unusable {
            // Exact-oracle fallback: one full factorization at the subset's
            // hyperparameters. Expensive but always well-defined.
            mfbo_telemetry::counter!("infer_exact_fallbacks", 1u64);
            let ws = NlmlWorkspace::new(&xs);
            let km = kernel_matrix_cached(&kernel, &params, log_noise, &ws);
            drop(ws);
            let chol_full = Cholesky::new_with_jitter(&km, 1e-10, 1e-4)?;
            let alpha = chol_full.solve_vec(&ys_std);
            return Ok(Gp {
                kernel,
                params,
                log_noise,
                xs,
                ys_raw,
                ys: ys_std,
                standardizer,
                chol: chol_full,
                alpha,
                nlml,
                iter_state: None,
                best_start,
            });
        }
        mfbo_telemetry::debug_event!(
            "gp_fit_iterative",
            n = xs.len(),
            subset = keep.len(),
            cg_iters = outcome.iters,
            cg_converged = outcome.converged,
            rel_residual = outcome.rel_residual,
        );
        Ok(Gp {
            kernel,
            params,
            log_noise,
            xs,
            ys_raw,
            ys: ys_std,
            standardizer,
            chol,
            alpha: outcome.x,
            nlml,
            iter_state: Some(IterState {
                subset: keep,
                sub_alpha,
                cg_iters: outcome.iters,
            }),
            best_start,
        })
    }

    /// `out = (K + shift·I) v`, assembled tile by tile through the kernel's
    /// batch hook. Tiles have fixed 64-row boundaries and the per-tile
    /// results are concatenated in index order, with every in-tile reduction
    /// a sequential ascending loop — so all [`Parallelism`] modes produce
    /// bit-identical vectors and the CG trajectory is reproducible across
    /// resume.
    fn dense_matvec(
        kernel: &K,
        params: &[f64],
        xs: &[Vec<f64>],
        shift: f64,
        v: &[f64],
        out: &mut [f64],
        parallelism: Parallelism,
    ) {
        const TILE: usize = 64;
        let n = xs.len();
        let tiles: Vec<(usize, &[Vec<f64>])> = xs.chunks(TILE).enumerate().collect();
        let rows = par_map(parallelism, &tiles, |&(t, tile)| {
            let batch = DiffBatch::cross_with_backend(tile, xs, mfbo_simd::Backend::Scalar);
            let mut kv = vec![0.0; tile.len() * n];
            kernel.eval_from_diffs(params, &batch, &mut kv);
            let mut o = vec![0.0; tile.len()];
            for (r, slot) in o.iter_mut().enumerate() {
                let row = &kv[r * n..(r + 1) * n];
                *slot = mfbo_linalg::dot(row, v) + shift * v[t * TILE + r];
            }
            o
        });
        let mut k = 0;
        for tile_out in rows {
            for x in tile_out {
                out[k] = x;
                k += 1;
            }
        }
    }

    /// Builds a GP with *fixed* hyperparameters (no training). Useful for
    /// tests and for refitting with warm hyperparameters when new data
    /// arrives mid-optimization.
    ///
    /// # Errors
    ///
    /// Same validation as [`Gp::fit`], plus
    /// [`GpError::KernelNotPositiveDefinite`] if the kernel matrix cannot be
    /// factorized.
    pub fn with_params(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        params: Vec<f64>,
        log_noise: f64,
        standardize: bool,
    ) -> Result<Self, GpError> {
        Self::with_params_shared(kernel, xs, ys, params, log_noise, standardize, None)
    }

    /// [`Gp::with_params`] with an optional pre-built lower-triangle
    /// difference batch over `xs` (see [`Gp::fit_planned_shared`]) — the
    /// frozen-refresh bundle path builds the batch once and rebuilds every
    /// model of the bundle from it. Bit-identical to [`Gp::with_params`].
    ///
    /// # Errors
    ///
    /// As for [`Gp::with_params`].
    pub fn with_params_shared(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        params: Vec<f64>,
        log_noise: f64,
        standardize: bool,
        shared: Option<&DiffBatch<'_>>,
    ) -> Result<Self, GpError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(GpError::InvalidTrainingSet {
                reason: "empty or mismatched training set".into(),
            });
        }
        if params.len() != kernel.num_params() {
            return Err(GpError::InvalidTrainingSet {
                reason: "wrong number of kernel parameters".into(),
            });
        }
        let standardizer = if standardize {
            Standardizer::fit(&ys)
        } else {
            Standardizer::identity()
        };
        let ys_std = standardizer.transform_all(&ys);
        let ws = match shared {
            Some(b) if Self::shared_usable(b, &xs) => NlmlWorkspace::from_batch(b, xs.len()),
            _ => NlmlWorkspace::new(&xs),
        };
        let km = kernel_matrix_cached(&kernel, &params, log_noise, &ws);
        let chol = Cholesky::new_with_jitter(&km, 1e-10, 1e-4)?;
        let alpha = chol.solve_vec(&ys_std);
        // The frozen θ's NLML falls out of the factorization already in
        // hand: `nlml_cached` would rebuild the identical kernel matrix and
        // refactorize it, doubling the cost of every frozen refresh for
        // bit-identical output (same workspace + same θ ⇒ same matrix ⇒
        // same factor, and this is the same quad-form/log-det expression).
        let nlml = 0.5
            * (chol.quad_form(&ys_std) + chol.log_det() + xs.len() as f64 * crate::nlml::LOG_2PI);
        mfbo_telemetry::counter!("nlml_evals", 1u64);
        drop(ws);
        Ok(Gp {
            kernel,
            params,
            log_noise,
            xs,
            ys_raw: ys,
            ys: ys_std,
            standardizer,
            chol,
            alpha,
            nlml,
            iter_state: None,
            best_start: None,
        })
    }

    /// [`Gp::with_params`] with an explicit inference mode — the
    /// frozen-hyperparameter entry point for approximate inference, used by
    /// the BO loop's frozen refits and the scaling benches. With
    /// [`InferenceMode::Exact`] (or a training set no larger than the
    /// mode's subset cap) this is byte-identical to [`Gp::with_params`].
    ///
    /// # Errors
    ///
    /// As for [`Gp::with_params`].
    #[allow(clippy::too_many_arguments)]
    pub fn with_params_inference(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        params: Vec<f64>,
        log_noise: f64,
        standardize: bool,
        inference: InferenceMode,
        parallelism: Parallelism,
    ) -> Result<Self, GpError> {
        Self::with_params_inference_shared(
            kernel,
            xs,
            ys,
            params,
            log_noise,
            standardize,
            inference,
            parallelism,
            None,
        )
    }

    /// [`Gp::with_params_inference`] with an optional pre-built
    /// lower-triangle difference batch over `xs` (see
    /// [`Gp::fit_planned_shared`]); only the exact path consumes it.
    ///
    /// # Errors
    ///
    /// As for [`Gp::with_params`].
    #[allow(clippy::too_many_arguments)]
    pub fn with_params_inference_shared(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        params: Vec<f64>,
        log_noise: f64,
        standardize: bool,
        inference: InferenceMode,
        parallelism: Parallelism,
        shared: Option<&DiffBatch<'_>>,
    ) -> Result<Self, GpError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(GpError::InvalidTrainingSet {
                reason: "empty or mismatched training set".into(),
            });
        }
        match inference {
            InferenceMode::SubsetOfData { max_points } if xs.len() > max_points => {
                let keep = mfbo_infer::select_subset(&xs, max_points, 0);
                let xs_sub: Vec<Vec<f64>> = keep.iter().map(|&i| xs[i].clone()).collect();
                let ys_sub: Vec<f64> = keep.iter().map(|&i| ys[i]).collect();
                Self::with_params(kernel, xs_sub, ys_sub, params, log_noise, standardize)
            }
            InferenceMode::Iterative { subset, max_iters } if xs.len() > subset => {
                let standardizer = if standardize {
                    Standardizer::fit(&ys)
                } else {
                    Standardizer::identity()
                };
                let ys_std = standardizer.transform_all(&ys);
                let keep = mfbo_infer::select_subset(&xs, subset, 0);
                let xs_sub: Vec<Vec<f64>> = keep.iter().map(|&i| xs[i].clone()).collect();
                let ys_sub: Vec<f64> = keep.iter().map(|&i| ys_std[i]).collect();
                let sub = Self::with_params(kernel, xs_sub, ys_sub, params, log_noise, false)?;
                Self::finish_iterative(
                    sub,
                    xs,
                    ys,
                    ys_std,
                    standardizer,
                    keep,
                    max_iters,
                    parallelism,
                )
            }
            _ => Self::with_params_shared(kernel, xs, ys, params, log_noise, standardize, shared),
        }
    }

    /// Posterior prediction (mean and latent variance) in raw output units.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != kernel.input_dim()`.
    pub fn predict(&self, x: &[f64]) -> Prediction {
        let (m, v) = self.predict_standardized(x);
        Prediction {
            mean: self.standardizer.inverse(m),
            var: self.standardizer.inverse_std(v.max(0.0).sqrt()).powi(2),
        }
    }

    /// Posterior prediction in *standardized* output space — the space the
    /// fidelity-selection threshold `γ` (paper eq. 11) and the NARGP
    /// augmented inputs live in.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != kernel.input_dim()`.
    pub fn predict_standardized(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), self.kernel.input_dim(), "query dimension mismatch");
        let n = self.xs.len();
        let mut scratch = vec![0.0; 2 * n];
        let (kstar, v) = scratch.split_at_mut(n);
        let kss = self.kernel.eval_row(&self.params, x, &self.xs, kstar);
        self.posterior_from_row(kstar, kss, v)
    }

    /// The pointwise posterior `(mean, var)` of one query from its
    /// cross-covariance row `kstar` and prior variance `kss`; `v` is a
    /// scratch row of the training-set length.
    fn posterior_from_row(&self, kstar: &mut [f64], kss: f64, v: &mut [f64]) -> (f64, f64) {
        let mean = mfbo_linalg::dot(kstar, &self.alpha);
        let v = &mut v[..self.chol.dim()];
        match &self.iter_state {
            None => self.chol.forward_solve_into(kstar, v),
            Some(st) => {
                // Iterative inference: the mean above already used the
                // full-data CG alpha; the variance comes from the subset
                // model, whose cross-covariances are a gather of the full
                // kstar row (subset variances upper-bound the exact ones —
                // dropping conditioning data can only widen the posterior).
                // The subset indices ascend, so the gather can run in place.
                for (j, &i) in st.subset.iter().enumerate() {
                    kstar[j] = kstar[i];
                }
                self.chol.forward_solve_into(&kstar[..v.len()], v);
            }
        }
        (mean, (kss - mfbo_linalg::dot(v, v)).max(0.0))
    }

    /// Batched [`Gp::predict_standardized`]: one `(mean, var)` pair per
    /// query point, bit-identical to the pointwise calls.
    ///
    /// The M×n cross-covariance block is assembled through the kernel's
    /// batch hook (parameter `exp` transforms hoisted out of the M·n pair
    /// loop) and the per-query triangular solves reuse one scratch buffer,
    /// so the per-point cost collapses to the unavoidable O(n²) forward
    /// solve plus O(n) dot products.
    ///
    /// # Panics
    ///
    /// Panics if any query dimension differs from `kernel.input_dim()`.
    pub fn predict_batch_standardized(&self, points: &[Vec<f64>]) -> Vec<(f64, f64)> {
        self.predict_batch_standardized_with_backend(points, mfbo_simd::active())
    }

    /// [`Gp::predict_batch_standardized`] with an explicit SIMD backend —
    /// the differential-testing and A/B-bench hook.
    ///
    /// Queries are processed in cache-sized tiles (the tile's
    /// cross-covariance rows, difference workspace, and transpose stay
    /// resident while the Cholesky factor streams through), and within each
    /// tile groups of [`mfbo_simd::Backend::lanes`] queries share one
    /// interleaved multi-RHS forward solve. Both the tiling and the
    /// interleaving are bit-invisible: each query's mean and variance run
    /// the exact pointwise operation sequence.
    ///
    /// # Panics
    ///
    /// As for [`Gp::predict_batch_standardized`].
    pub fn predict_batch_standardized_with_backend(
        &self,
        points: &[Vec<f64>],
        be: mfbo_simd::Backend,
    ) -> Vec<(f64, f64)> {
        if points.is_empty() {
            return Vec::new();
        }
        if self.iter_state.is_some() {
            // The tiled fast path streams the full-data factor; an
            // iteratively-inferred model only owns the subset factor, so
            // route through the pointwise path (solves are O(subset²)
            // there anyway — the tiling would save little).
            mfbo_telemetry::counter!("predict_batch_points", points.len() as u64);
            return points
                .iter()
                .map(|x| self.predict_standardized(x))
                .collect();
        }
        let n = self.xs.len();
        mfbo_telemetry::counter!("predict_batch_points", points.len() as u64);
        for x in points {
            assert_eq!(x.len(), self.kernel.input_dim(), "query dimension mismatch");
        }
        let dim = self.kernel.input_dim();
        let lanes = be.lanes();
        // Tile size: per query the hot working set is the n×dim difference
        // rows plus their dim-major transpose (16·n·dim bytes) and the
        // cross-covariance row (8·n bytes). Budget ~1 MiB so the tile stays
        // cache-resident across the kernel sweep and the solves; round down
        // to a whole number of SIMD lanes.
        let per_query = 16 * n * dim + 8 * n;
        let tile_len = (1 << 20) / per_query.max(1);
        let tile_len = (tile_len / lanes * lanes).clamp(lanes, points.len().max(lanes));

        let mut kv = vec![0.0; tile_len * n];
        let mut kss = vec![0.0; tile_len];
        let mut v = vec![0.0; n];
        let mut vi = vec![0.0; n * lanes];
        let mut out = Vec::with_capacity(points.len());
        for tile in points.chunks(tile_len) {
            let m = tile.len();
            // The per-tile batches are deliberately built in the scalar
            // layout whatever `be` says: a prediction tile evaluates its
            // kernel rows exactly once, so the dim-major transpose the
            // vector kernels want costs more to build than it saves (unlike
            // the NLML training batch, which is evaluated hundreds of times
            // per build). The SIMD win here is the interleaved multi-RHS
            // solves below, which read `kv` directly — and scalar vs vector
            // kernel evaluation is bit-identical by construction, so the
            // mix is invisible in the output.
            let batch = DiffBatch::cross_with_backend(tile, &self.xs, mfbo_simd::Backend::Scalar);
            let kv = &mut kv[..m * n];
            self.kernel.eval_from_diffs(&self.params, &batch, kv);
            // Prior-variance terms k(x, x) through the batch hook too: one
            // parameter hoist per tile instead of a scalar `eval` each.
            let diag = DiffBatch::diagonal_with_backend(tile, mfbo_simd::Backend::Scalar);
            let kss = &mut kss[..m];
            self.kernel.eval_from_diffs(&self.params, &diag, kss);
            let mut q = 0;
            if lanes > 1 {
                // Lane-groups of queries share one interleaved forward
                // solve; the variance reduction walks lane `c`'s strided
                // entries in the same ascending order (and from the same
                // 0.0 start) as `dot(&v, &v)` on the de-interleaved vector.
                while q + lanes <= m {
                    for i in 0..n {
                        for (c, slot) in vi[i * lanes..(i + 1) * lanes].iter_mut().enumerate() {
                            *slot = kv[(q + c) * n + i];
                        }
                    }
                    self.chol.forward_solve_interleaved(be, 0, &mut vi);
                    for c in 0..lanes {
                        let kstar = &kv[(q + c) * n..(q + c + 1) * n];
                        let mean = mfbo_linalg::dot(kstar, &self.alpha);
                        let mut s = 0.0;
                        for k in 0..n {
                            let x = vi[k * lanes + c];
                            s += x * x;
                        }
                        let var = (kss[q + c] - s).max(0.0);
                        out.push((mean, var));
                    }
                    q += lanes;
                }
            }
            for q in q..m {
                let kstar = &kv[q * n..(q + 1) * n];
                let mean = mfbo_linalg::dot(kstar, &self.alpha);
                self.chol.forward_solve_into(kstar, &mut v);
                let var = (kss[q] - mfbo_linalg::dot(&v, &v)).max(0.0);
                out.push((mean, var));
            }
        }
        out
    }

    /// Batched [`Gp::predict`]: raw-unit predictions for a set of query
    /// points, bit-identical to the pointwise calls.
    ///
    /// # Panics
    ///
    /// Panics if any query dimension differs from `kernel.input_dim()`.
    pub fn predict_batch(&self, points: &[Vec<f64>]) -> Vec<Prediction> {
        self.predict_batch_standardized(points)
            .into_iter()
            .map(|(m, v)| Prediction {
                mean: self.standardizer.inverse(m),
                var: self.standardizer.inverse_std(v.max(0.0).sqrt()).powi(2),
            })
            .collect()
    }

    /// Appends one observation by extending the Cholesky factor in place —
    /// O(n²) instead of the O(n³) refactorization of a full refit.
    ///
    /// This is an *approximate* frozen refit: hyperparameters stay fixed
    /// (as in [`Gp::with_params`]) **and** the output standardizer is not
    /// re-fit — the new observation is transformed with the existing one,
    /// so the model drifts slightly from what a from-scratch frozen refit
    /// (which re-standardizes) would produce. `α` and the stored NLML are
    /// recomputed exactly for the extended factor. Opt-in for BO loops that
    /// refit hyperparameters periodically anyway; off the bit-exact
    /// reproducibility contract.
    ///
    /// # Errors
    ///
    /// - [`GpError::InvalidTrainingSet`] for a dimension mismatch or
    ///   non-finite observation (the model is untouched);
    /// - [`GpError::KernelNotPositiveDefinite`] when the new point makes
    ///   the extended matrix numerically singular at the current jitter
    ///   (e.g. a near-duplicate input) — the model is untouched and the
    ///   caller should fall back to a full refit.
    pub fn append_observation(&mut self, x: Vec<f64>, y_raw: f64) -> Result<(), GpError> {
        if self.iter_state.is_some() {
            return Err(GpError::UnsupportedOperation {
                reason: "append_observation requires exact inference: an iteratively-inferred \
                         model has no full-data Cholesky factor to extend"
                    .into(),
            });
        }
        if x.len() != self.kernel.input_dim() {
            return Err(GpError::InvalidTrainingSet {
                reason: format!(
                    "appended input has dimension {} but kernel expects {}",
                    x.len(),
                    self.kernel.input_dim()
                ),
            });
        }
        if !y_raw.is_finite() {
            return Err(GpError::InvalidTrainingSet {
                reason: "non-finite observation".into(),
            });
        }
        let n = self.xs.len();
        let mut k_new = vec![0.0; n];
        for (k, xi) in k_new.iter_mut().zip(&self.xs) {
            // Argument order matches the kernel-matrix build's
            // `eval(xs[i], xs[j])` for row i = n.
            *k = self.kernel.eval(&self.params, &x, xi);
        }
        let sn2 = (2.0 * self.log_noise).exp();
        // Fold noise and the factor's jitter into the diagonal exactly as
        // the kernel-matrix build + factorization would, so the appended
        // row matches a from-scratch factorization bit for bit.
        let diag = (self.kernel.eval(&self.params, &x, &x) + sn2) + self.chol.jitter();
        self.chol.append_row(&k_new, diag)?;
        let y_std = self.standardizer.transform(y_raw);
        self.xs.push(x);
        self.ys_raw.push(y_raw);
        self.ys.push(y_std);
        // Two O(n²) triangular solves refresh α exactly; NLML follows in
        // closed form from the updated factor, using the same `‖L⁻¹y‖²`
        // quadratic form as the training-path NLML so the stored value
        // matches a from-scratch frozen refit.
        self.alpha = self.chol.solve_vec(&self.ys);
        self.nlml = 0.5
            * (self.chol.quad_form(&self.ys)
                + self.chol.log_det()
                + (n + 1) as f64 * crate::nlml::LOG_2PI);
        mfbo_telemetry::counter!("chol_rank1_appends", 1u64);
        Ok(())
    }

    /// Posterior prediction including observation noise (paper eq. 4).
    pub fn predict_with_noise(&self, x: &[f64]) -> Prediction {
        let (m, v) = self.predict_standardized(x);
        let noisy = v + self.noise_var_standardized();
        Prediction {
            mean: self.standardizer.inverse(m),
            var: self.standardizer.inverse_std(noisy.max(0.0).sqrt()).powi(2),
        }
    }

    /// Observation-noise variance `σ_n²` in standardized space.
    pub fn noise_var_standardized(&self) -> f64 {
        (2.0 * self.log_noise).exp()
    }

    /// The training inputs.
    pub fn xs(&self) -> &[Vec<f64>] {
        &self.xs
    }

    /// The raw (de-standardized) training observations.
    pub fn ys_raw(&self) -> &[f64] {
        &self.ys_raw
    }

    /// The standardized training observations.
    pub fn ys_standardized(&self) -> &[f64] {
        &self.ys
    }

    /// The output standardizer fitted at training time.
    pub fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    /// The kernel.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// Optimized kernel log-parameters.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// Optimized `log σ_n`.
    pub fn log_noise(&self) -> f64 {
        self.log_noise
    }

    /// The full hyperparameter vector `[kernel params…, log σ_n]` — feed
    /// this back as [`GpConfig::warm_start`] on the next refit.
    pub fn theta(&self) -> Vec<f64> {
        let mut t = self.params.clone();
        t.push(self.log_noise);
        t
    }

    /// Final negative log marginal likelihood of the trained model.
    pub fn nlml(&self) -> f64 {
        self.nlml
    }

    /// Index of the planned start that won the NLML search (0 = kernel
    /// default, 1 = warm start when one was supplied); `None` for
    /// frozen-hyperparameter builds. The adaptive-restart policy uses this
    /// to detect refits where the warm seed keeps winning.
    pub fn best_start(&self) -> Option<usize> {
        self.best_start
    }

    /// Leave-one-out cross-validation residuals and predictive variances in
    /// *standardized* space, computed in closed form from the full
    /// factorization (Rasmussen & Williams, §5.4.2):
    ///
    /// `μ_{-i} = y_i − α_i / K⁻¹_ii`, `σ²_{-i} = 1 / K⁻¹_ii`.
    ///
    /// Returns one `(residual, variance)` pair per training point, where
    /// `residual = y_i − μ_{-i}`. Large standardized residuals
    /// (`residual/√variance`) flag observations the model cannot explain —
    /// a practical diagnostic for misconverged circuit simulations entering
    /// the training set.
    /// Under [`InferenceMode::Iterative`] the closed form applies to the
    /// *subset* model (the only one with a factorization), so the returned
    /// vector has one pair per subset point, in subset order.
    pub fn loo_residuals(&self) -> Vec<(f64, f64)> {
        let kinv = self.chol.inverse();
        let alpha = match &self.iter_state {
            None => &self.alpha,
            Some(st) => &st.sub_alpha,
        };
        (0..alpha.len())
            .map(|i| {
                let kii = kinv[(i, i)].max(1e-300);
                let var = 1.0 / kii;
                let resid = alpha[i] / kii;
                (resid, var)
            })
            .collect()
    }

    /// Mean negative log predictive density of the leave-one-out folds
    /// (standardized space); lower is better. A robust model-quality score
    /// that, unlike NLML, is comparable across different noise levels.
    pub fn loo_nlpd(&self) -> f64 {
        let loo = self.loo_residuals();
        let n = loo.len() as f64;
        loo.iter()
            .map(|(r, v)| 0.5 * (v.ln() + r * r / v + (2.0 * std::f64::consts::PI).ln()))
            .sum::<f64>()
            / n
    }

    /// Index and raw value of the minimum observation.
    pub fn best_observation(&self) -> (usize, f64) {
        let mut bi = 0;
        for i in 1..self.ys_raw.len() {
            if self.ys_raw[i] < self.ys_raw[bi] {
                bi = i;
            }
        }
        (bi, self.ys_raw[bi])
    }

    /// Indices (ascending, into the training set) of the subset behind the
    /// variance factor when the model was built by
    /// [`InferenceMode::Iterative`]; `None` for exact and subset-of-data
    /// models, which own their factor outright.
    pub fn iterative_subset(&self) -> Option<&[usize]> {
        self.iter_state.as_ref().map(|s| s.subset.as_slice())
    }

    /// Conjugate-gradient iterations spent on the mean solve, when the
    /// model was built by [`InferenceMode::Iterative`].
    pub fn cg_iterations(&self) -> Option<usize> {
        self.iter_state.as_ref().map(|s| s.cg_iters)
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the training set is empty (never true for a constructed GP).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// Scratch of one [`Gp::predict_strata_standardized`] call that lives on
/// the stack (in `f64`s); larger training sets take one heap buffer.
const STRATA_STACK: usize = 512;

impl Gp<NargpKernel> {
    /// Posterior `(mean, var)` in standardized space of the augmented
    /// queries `(x, f)`, one pair per `f` in `strata`, in order — the
    /// stratified rows of paper eq. (10). Bit-identical to
    /// [`Gp::predict_standardized`] (and so to the batch path) on each
    /// explicitly built row `(x, f)`.
    ///
    /// Every row shares the design point `x`, so the design-space factors
    /// `k2(x, x_i)` and `k3(x, x_i)` are evaluated once per training row and
    /// only `k1(f, f_i)` per stratum (see [`NargpKernel::factor_design`]):
    /// S + 2 instead of 3S exponentials per training row, and one prior
    /// variance per call.
    ///
    /// The strata then go through the posterior in groups of
    /// [`mfbo_simd::Backend::lanes`]: the group's cross-covariance rows are
    /// laid out lane-interleaved, and one multi-RHS forward solve
    /// ([`Cholesky::forward_solve_interleaved`]) advances every stratum's
    /// `s -= l·v` chain per instruction. Each lane keeps the single-query
    /// operation sequence of [`Gp::predict_standardized`]: the mean and
    /// `v·v` run in ascending order from `-0.0`, as
    /// [`mfbo_linalg::dot`]'s `.sum()` does, and under iterative inference
    /// every lane is gathered to the subset after its mean, as there. A
    /// lane past the last stratum solves a zero row and is dropped. Counts
    /// `strata.len()` `predict_batch_points`. The scratch, `n·(2 + lanes)`
    /// values, sits on the stack up to 512 values, so at the paper's
    /// training-set sizes a call allocates nothing but the returned `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the kernel's design dimension.
    pub fn predict_strata_standardized(&self, x: &[f64], strata: &[f64]) -> Vec<(f64, f64)> {
        self.predict_strata_with(x, strata.len(), |k| strata[k])
    }

    /// [`Gp::predict_strata_standardized`] at the quantile strata
    /// `f_k = ml + sl · z_k` of a low-fidelity posterior `(ml, sl)`, one per
    /// `z_k` in `quantiles`. Each lane group's strata are formed on the
    /// stack, so no strata slice is allocated; bit-identical to passing the
    /// explicit strata.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the kernel's design dimension.
    pub fn predict_quantile_strata_standardized(
        &self,
        x: &[f64],
        ml: f64,
        sl: f64,
        quantiles: &[f64],
    ) -> Vec<(f64, f64)> {
        self.predict_strata_with(x, quantiles.len(), |k| ml + sl * quantiles[k])
    }

    /// The strata posterior over `count` strata, stratum `k` being
    /// `stratum(k)`, formed once per lane group.
    fn predict_strata_with(
        &self,
        x: &[f64],
        count: usize,
        stratum: impl Fn(usize) -> f64,
    ) -> Vec<(f64, f64)> {
        mfbo_telemetry::counter!("predict_batch_points", count as u64);
        let n = self.xs.len();
        let d = self.kernel.design_dim();
        let be = mfbo_simd::active();
        let lanes = be.lanes();
        let need = n * (2 + lanes);
        let mut stack = [0.0; STRATA_STACK];
        let mut heap = Vec::new();
        let scratch = if need <= STRATA_STACK {
            &mut stack[..need]
        } else {
            heap.resize(need, 0.0);
            &mut heap[..]
        };
        let (k2, rest) = scratch.split_at_mut(n);
        let (k3, ks) = rest.split_at_mut(n);
        let factors = self.kernel.factor_design(&self.params, x, &self.xs, k2, k3);
        let kss = factors.prior();
        let mut out = Vec::with_capacity(count);
        for start in (0..count).step_by(lanes) {
            let mut fs = [0.0; mfbo_simd::MAX_LANES];
            let group = &mut fs[..lanes.min(count - start)];
            for (c, f) in group.iter_mut().enumerate() {
                *f = stratum(start + c);
            }
            for (row, ((z, &a), &b)) in ks
                .chunks_exact_mut(lanes)
                .zip(self.xs.iter().zip(&*k2).zip(&*k3))
            {
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = group.get(c).map_or(0.0, |&f| factors.eval(f, z[d], a, b));
                }
            }
            let mut mean = [-0.0; mfbo_simd::MAX_LANES];
            for (row, &al) in ks.chunks_exact(lanes).zip(&self.alpha) {
                for (m, &k) in mean.iter_mut().zip(row) {
                    *m += k * al;
                }
            }
            if let Some(st) = &self.iter_state {
                // The subset indices ascend, so the gather runs in place.
                for (j, &i) in st.subset.iter().enumerate() {
                    ks.copy_within(i * lanes..(i + 1) * lanes, j * lanes);
                }
            }
            let v = &mut ks[..self.chol.dim() * lanes];
            self.chol.forward_solve_interleaved(be, 0, v);
            let mut vv = [-0.0; mfbo_simd::MAX_LANES];
            for row in v.chunks_exact(lanes) {
                for (s, &vc) in vv.iter_mut().zip(row) {
                    *s += vc * vc;
                }
            }
            for c in 0..group.len() {
                out.push((mean[c], (kss - vv[c]).max(0.0)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Matern52, SquaredExponential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn sine_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (5.0 * x[0]).sin() + 2.0).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points() {
        let (xs, ys) = sine_data(15);
        let gp = Gp::fit(
            SquaredExponential::new(1),
            xs.clone(),
            ys.clone(),
            &GpConfig::default(),
            &mut rng(),
        )
        .unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x);
            assert!((p.mean - y).abs() < 0.05, "at {x:?}: {} vs {y}", p.mean);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let (xs, ys) = sine_data(10);
        let gp = Gp::fit(
            SquaredExponential::new(1),
            xs,
            ys,
            &GpConfig::default(),
            &mut rng(),
        )
        .unwrap();
        let near = gp.predict(&[0.5]);
        let far = gp.predict(&[3.0]);
        assert!(
            far.var > near.var * 5.0,
            "near {} far {}",
            near.var,
            far.var
        );
    }

    #[test]
    fn predictions_are_in_raw_units() {
        // Outputs centered at 1000 — standardization must round-trip.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1000.0 + 5.0 * x[0]).collect();
        let gp = Gp::fit(
            SquaredExponential::new(1),
            xs,
            ys,
            &GpConfig::default(),
            &mut rng(),
        )
        .unwrap();
        let p = gp.predict(&[0.5]);
        assert!((p.mean - 1002.5).abs() < 1.0, "mean = {}", p.mean);
    }

    #[test]
    fn with_params_skips_training() {
        let (xs, ys) = sine_data(8);
        let k = SquaredExponential::new(1);
        let params = k.default_params();
        let gp = Gp::with_params(k, xs.clone(), ys.clone(), params, -3.0, true).unwrap();
        // Still interpolates decently with default hyperparameters.
        let p = gp.predict(&xs[3]);
        assert!((p.mean - ys[3]).abs() < 0.2);
        assert!(gp.nlml().is_finite());
    }

    #[test]
    fn rejects_bad_training_sets() {
        let k = SquaredExponential::new(1);
        let e = Gp::fit(k.clone(), vec![], vec![], &GpConfig::default(), &mut rng());
        assert!(matches!(e, Err(GpError::InvalidTrainingSet { .. })));

        let e = Gp::fit(
            k.clone(),
            vec![vec![0.0]],
            vec![1.0, 2.0],
            &GpConfig::default(),
            &mut rng(),
        );
        assert!(matches!(e, Err(GpError::InvalidTrainingSet { .. })));

        let e = Gp::fit(
            k.clone(),
            vec![vec![0.0, 1.0]],
            vec![1.0],
            &GpConfig::default(),
            &mut rng(),
        );
        assert!(matches!(e, Err(GpError::InvalidTrainingSet { .. })));

        let e = Gp::fit(
            k,
            vec![vec![0.0]],
            vec![f64::NAN],
            &GpConfig::default(),
            &mut rng(),
        );
        assert!(matches!(e, Err(GpError::InvalidTrainingSet { .. })));
    }

    #[test]
    fn fixed_noise_stays_fixed() {
        let (xs, ys) = sine_data(10);
        let config = GpConfig {
            train_noise: false,
            log_noise_init: -4.0,
            ..GpConfig::default()
        };
        let gp = Gp::fit(SquaredExponential::new(1), xs, ys, &config, &mut rng()).unwrap();
        assert!((gp.log_noise() - (-4.0)).abs() < 1e-12);
    }

    #[test]
    fn warm_start_is_used_and_theta_round_trips() {
        let (xs, ys) = sine_data(10);
        let gp1 = Gp::fit(
            SquaredExponential::new(1),
            xs.clone(),
            ys.clone(),
            &GpConfig::default(),
            &mut rng(),
        )
        .unwrap();
        let config = GpConfig {
            restarts: 0,
            warm_start: Some(gp1.theta()),
            ..GpConfig::default()
        };
        let gp2 = Gp::fit(SquaredExponential::new(1), xs, ys, &config, &mut rng()).unwrap();
        // Warm-started training should be at least as good as the default
        // start alone, and close to the original optimum.
        assert!(gp2.nlml() <= gp1.nlml() + 1e-3);
    }

    #[test]
    fn single_point_training_set() {
        let gp = Gp::fit(
            SquaredExponential::new(1),
            vec![vec![0.5]],
            vec![2.0],
            &GpConfig::default(),
            &mut rng(),
        )
        .unwrap();
        let p = gp.predict(&[0.5]);
        assert!((p.mean - 2.0).abs() < 1e-3);
        assert_eq!(gp.len(), 1);
        assert!(!gp.is_empty());
    }

    #[test]
    fn fit_emits_gp_fit_debug_event() {
        let sink = std::sync::Arc::new(mfbo_telemetry::sinks::CollectSink::with_level(
            mfbo_telemetry::Level::Debug,
        ));
        let _g = mfbo_telemetry::scoped_sink(sink.clone());
        let (xs, ys) = sine_data(8);
        let gp = Gp::fit(
            SquaredExponential::new(1),
            xs,
            ys,
            &GpConfig::fast(),
            &mut rng(),
        )
        .unwrap();
        let recs = sink.named("gp_fit");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].field("n"), Some(&mfbo_telemetry::Value::U64(8)));
        match recs[0].field("nlml") {
            Some(mfbo_telemetry::Value::F64(v)) => assert!((v - gp.nlml()).abs() < 1e-12),
            other => panic!("nlml field missing or mistyped: {other:?}"),
        }
        // Health diagnostics ride along on the same event.
        match recs[0].field("bound_hits") {
            Some(&mfbo_telemetry::Value::U64(hits)) => {
                assert!(hits <= 4, "at most one hit per theta component")
            }
            other => panic!("bound_hits field missing or mistyped: {other:?}"),
        }
        match recs[0].field("condition") {
            Some(mfbo_telemetry::Value::F64(c)) => assert!(c.is_finite() && *c >= 1.0),
            other => panic!("condition field missing or mistyped: {other:?}"),
        }
    }

    #[test]
    fn matern_kernel_also_trains() {
        let (xs, ys) = sine_data(12);
        let gp = Gp::fit(
            Matern52::new(1),
            xs.clone(),
            ys.clone(),
            &GpConfig::fast(),
            &mut rng(),
        )
        .unwrap();
        let p = gp.predict(&xs[6]);
        assert!((p.mean - ys[6]).abs() < 0.1);
    }

    #[test]
    fn best_observation_finds_minimum() {
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let ys = vec![3.0, 1.0, 4.0, 0.5, 2.0];
        let gp = Gp::fit(
            SquaredExponential::new(1),
            xs,
            ys,
            &GpConfig::fast(),
            &mut rng(),
        )
        .unwrap();
        let (i, v) = gp.best_observation();
        assert_eq!(i, 3);
        assert_eq!(v, 0.5);
    }

    #[test]
    fn loo_matches_brute_force_refits() {
        let (xs, ys) = sine_data(9);
        let k = SquaredExponential::new(1);
        let params = vec![0.1, -1.0];
        let log_noise = -2.0;
        let gp = Gp::with_params(
            k.clone(),
            xs.clone(),
            ys.clone(),
            params.clone(),
            log_noise,
            false,
        )
        .unwrap();
        let loo = gp.loo_residuals();
        for i in 0..xs.len() {
            // Brute force: refit without point i (same fixed params, no
            // standardization so spaces coincide) and predict at x_i.
            let mut xs2 = xs.clone();
            let mut ys2 = ys.clone();
            xs2.remove(i);
            ys2.remove(i);
            let gp2 =
                Gp::with_params(k.clone(), xs2, ys2, params.clone(), log_noise, false).unwrap();
            let (mu, var) = gp2.predict_standardized(&xs[i]);
            let noise = gp2.noise_var_standardized();
            let (resid, loo_var) = loo[i];
            assert!(
                (resid - (ys[i] - mu)).abs() < 1e-8,
                "point {i}: residual {resid} vs brute {}",
                ys[i] - mu
            );
            assert!(
                (loo_var - (var + noise)).abs() < 1e-8,
                "point {i}: var {loo_var} vs brute {}",
                var + noise
            );
        }
    }

    #[test]
    fn loo_nlpd_prefers_correct_lengthscale() {
        let (xs, ys) = sine_data(15);
        let k = SquaredExponential::new(1);
        let good = Gp::with_params(
            k.clone(),
            xs.clone(),
            ys.clone(),
            vec![0.0, -1.2],
            -3.0,
            true,
        )
        .unwrap();
        // Absurdly long lengthscale = underfit.
        let bad = Gp::with_params(k, xs, ys, vec![0.0, 3.0], -3.0, true).unwrap();
        assert!(good.loo_nlpd() < bad.loo_nlpd());
    }

    #[test]
    fn noise_prediction_is_larger() {
        let (xs, ys) = sine_data(10);
        let gp = Gp::fit(
            SquaredExponential::new(1),
            xs,
            ys,
            &GpConfig::default(),
            &mut rng(),
        )
        .unwrap();
        let latent = gp.predict(&[0.33]);
        let noisy = gp.predict_with_noise(&[0.33]);
        assert!(noisy.var >= latent.var);
        assert_eq!(noisy.mean, latent.mean);
        assert!(latent.std_dev() >= 0.0);
    }

    #[test]
    fn batched_predict_bit_identical_to_pointwise() {
        let (xs, ys) = sine_data(20);
        let gp = Gp::fit(
            SquaredExponential::new(1),
            xs,
            ys,
            &GpConfig::fast(),
            &mut rng(),
        )
        .unwrap();
        let queries: Vec<Vec<f64>> = (0..31).map(|i| vec![i as f64 / 30.0 * 1.4 - 0.2]).collect();
        let batched = gp.predict_batch_standardized(&queries);
        assert_eq!(batched.len(), queries.len());
        for (q, &(m, v)) in queries.iter().zip(&batched) {
            let (pm, pv) = gp.predict_standardized(q);
            assert_eq!(m.to_bits(), pm.to_bits());
            assert_eq!(v.to_bits(), pv.to_bits());
        }
        let raw = gp.predict_batch(&queries);
        for (q, r) in queries.iter().zip(&raw) {
            let p = gp.predict(q);
            assert_eq!(r.mean.to_bits(), p.mean.to_bits());
            assert_eq!(r.var.to_bits(), p.var.to_bits());
        }
        assert!(gp.predict_batch_standardized(&[]).is_empty());
    }

    #[test]
    fn append_observation_matches_frozen_rebuild() {
        // Without standardization the appended model must coincide with a
        // from-scratch frozen refit on the extended data: the appended
        // Cholesky row solves the same recurrence the factorization does.
        let (xs, ys) = sine_data(12);
        let k = SquaredExponential::new(1);
        let params = vec![0.1, -1.0];
        let mut gp = Gp::with_params(
            k.clone(),
            xs[..11].to_vec(),
            ys[..11].to_vec(),
            params.clone(),
            -2.0,
            false,
        )
        .unwrap();
        gp.append_observation(xs[11].clone(), ys[11]).unwrap();
        let rebuilt = Gp::with_params(k, xs.clone(), ys, params, -2.0, false).unwrap();
        assert_eq!(gp.len(), 12);
        assert_eq!(gp.nlml().to_bits(), rebuilt.nlml().to_bits());
        for q in [&[0.17][..], &[0.5], &[0.93]] {
            let (am, av) = gp.predict_standardized(q);
            let (rm, rv) = rebuilt.predict_standardized(q);
            assert_eq!(am.to_bits(), rm.to_bits());
            assert_eq!(av.to_bits(), rv.to_bits());
        }
    }

    #[test]
    fn append_observation_keeps_standardizer_frozen() {
        let (xs, ys) = sine_data(10);
        let mut gp = Gp::fit(
            SquaredExponential::new(1),
            xs[..9].to_vec(),
            ys[..9].to_vec(),
            &GpConfig::fast(),
            &mut rng(),
        )
        .unwrap();
        let before = *gp.standardizer();
        gp.append_observation(xs[9].clone(), ys[9]).unwrap();
        assert_eq!(gp.standardizer().mean(), before.mean());
        assert_eq!(gp.standardizer().std(), before.std());
        // Tolerance contract vs a true frozen refit (which re-standardizes):
        // predictions agree closely but not bitwise.
        let rebuilt = Gp::with_params(
            gp.kernel().clone(),
            xs,
            ys,
            gp.params().to_vec(),
            gp.log_noise(),
            true,
        )
        .unwrap();
        for q in [&[0.25][..], &[0.75]] {
            let a = gp.predict(q);
            let r = rebuilt.predict(q);
            assert!((a.mean - r.mean).abs() < 1e-6, "{} vs {}", a.mean, r.mean);
            assert!((a.var - r.var).abs() < 1e-6);
        }
    }

    #[test]
    fn append_observation_rejects_bad_input() {
        let (xs, ys) = sine_data(8);
        let mut gp = Gp::fit(
            SquaredExponential::new(1),
            xs.clone(),
            ys,
            &GpConfig::fast(),
            &mut rng(),
        )
        .unwrap();
        assert!(matches!(
            gp.append_observation(vec![0.1, 0.2], 1.0),
            Err(GpError::InvalidTrainingSet { .. })
        ));
        assert!(matches!(
            gp.append_observation(vec![0.1], f64::NAN),
            Err(GpError::InvalidTrainingSet { .. })
        ));
        assert_eq!(gp.len(), 8);
    }

    #[test]
    fn subset_of_data_matches_exact_on_selected_points() {
        let (xs, ys) = sine_data(30);
        let k = SquaredExponential::new(1);
        let params = vec![0.1, -1.0];
        let mode = InferenceMode::SubsetOfData { max_points: 10 };
        let gp = Gp::with_params_inference(
            k.clone(),
            xs.clone(),
            ys.clone(),
            params.clone(),
            -2.0,
            true,
            mode,
            Parallelism::Serial,
        )
        .unwrap();
        assert_eq!(gp.len(), 10);
        assert!(gp.iterative_subset().is_none());
        // Byte-identical to an exact model built on the hand-selected subset.
        let keep = mfbo_infer::select_subset(&xs, 10, 0);
        let xs_sub: Vec<Vec<f64>> = keep.iter().map(|&i| xs[i].clone()).collect();
        let ys_sub: Vec<f64> = keep.iter().map(|&i| ys[i]).collect();
        let oracle = Gp::with_params(k, xs_sub, ys_sub, params, -2.0, true).unwrap();
        for q in [&[0.13][..], &[0.5], &[0.88]] {
            let (am, av) = gp.predict_standardized(q);
            let (om, ov) = oracle.predict_standardized(q);
            assert_eq!(am.to_bits(), om.to_bits());
            assert_eq!(av.to_bits(), ov.to_bits());
        }
    }

    #[test]
    fn iterative_mean_matches_exact_and_variance_upper_bounds() {
        let (xs, ys) = sine_data(40);
        let k = SquaredExponential::new(1);
        let params = vec![0.1, -1.0];
        let mode = InferenceMode::Iterative {
            subset: 24,
            max_iters: 400,
        };
        let gp = Gp::with_params_inference(
            k.clone(),
            xs.clone(),
            ys.clone(),
            params.clone(),
            -2.0,
            true,
            mode,
            Parallelism::Serial,
        )
        .unwrap();
        assert_eq!(gp.len(), 40);
        assert_eq!(gp.iterative_subset().map(<[usize]>::len), Some(24));
        assert!(gp.cg_iterations().unwrap() > 0);
        let exact = Gp::with_params(k, xs, ys, params, -2.0, true).unwrap();
        for q in [&[0.07][..], &[0.4], &[0.73], &[0.98]] {
            let (am, av) = gp.predict_standardized(q);
            let (em, ev) = exact.predict_standardized(q);
            // CG solves the same full-data system as the exact path.
            assert!((am - em).abs() < 1e-6, "mean {am} vs exact {em}");
            // Subset variances can only widen the posterior (up to the
            // subset factor's slightly different jitter).
            assert!(av >= ev - 1e-9, "var {av} vs exact {ev}");
        }
    }

    #[test]
    fn iterative_below_cap_is_bitwise_exact_path() {
        let (xs, ys) = sine_data(12);
        let k = SquaredExponential::new(1);
        let params = vec![0.1, -1.0];
        let gp = Gp::with_params_inference(
            k.clone(),
            xs.clone(),
            ys.clone(),
            params.clone(),
            -2.0,
            true,
            InferenceMode::iterative(),
            Parallelism::Serial,
        )
        .unwrap();
        assert!(gp.iterative_subset().is_none());
        let exact = Gp::with_params(k, xs, ys, params, -2.0, true).unwrap();
        assert_eq!(gp.nlml().to_bits(), exact.nlml().to_bits());
        for q in [&[0.2][..], &[0.6]] {
            let (am, av) = gp.predict_standardized(q);
            let (em, ev) = exact.predict_standardized(q);
            assert_eq!(am.to_bits(), em.to_bits());
            assert_eq!(av.to_bits(), ev.to_bits());
        }
    }

    #[test]
    fn iterative_batch_predict_matches_pointwise_bitwise() {
        let (xs, ys) = sine_data(40);
        let gp = Gp::with_params_inference(
            SquaredExponential::new(1),
            xs,
            ys,
            vec![0.1, -1.0],
            -2.0,
            true,
            InferenceMode::Iterative {
                subset: 16,
                max_iters: 200,
            },
            Parallelism::Serial,
        )
        .unwrap();
        let queries: Vec<Vec<f64>> = (0..17).map(|i| vec![i as f64 / 16.0]).collect();
        let batched = gp.predict_batch_standardized(&queries);
        for (q, &(m, v)) in queries.iter().zip(&batched) {
            let (pm, pv) = gp.predict_standardized(q);
            assert_eq!(m.to_bits(), pm.to_bits());
            assert_eq!(v.to_bits(), pv.to_bits());
        }
    }

    #[test]
    fn iterative_threads_match_serial_bitwise() {
        let (xs, ys) = sine_data(40);
        let build = |par: Parallelism| {
            Gp::with_params_inference(
                SquaredExponential::new(1),
                xs.clone(),
                ys.clone(),
                vec![0.1, -1.0],
                -2.0,
                true,
                InferenceMode::Iterative {
                    subset: 16,
                    max_iters: 200,
                },
                par,
            )
            .unwrap()
        };
        let serial = build(Parallelism::Serial);
        let threaded = build(Parallelism::Threads(4));
        for q in [&[0.11][..], &[0.5], &[0.91]] {
            let (sm, sv) = serial.predict_standardized(q);
            let (tm, tv) = threaded.predict_standardized(q);
            assert_eq!(sm.to_bits(), tm.to_bits());
            assert_eq!(sv.to_bits(), tv.to_bits());
        }
    }

    #[test]
    fn iterative_rejects_append_observation() {
        let (xs, ys) = sine_data(40);
        let mut gp = Gp::with_params_inference(
            SquaredExponential::new(1),
            xs,
            ys,
            vec![0.1, -1.0],
            -2.0,
            true,
            InferenceMode::Iterative {
                subset: 16,
                max_iters: 50,
            },
            Parallelism::Serial,
        )
        .unwrap();
        assert!(matches!(
            gp.append_observation(vec![0.5], 1.0),
            Err(GpError::UnsupportedOperation { .. })
        ));
        assert_eq!(gp.len(), 40);
    }

    #[test]
    fn iterative_loo_covers_subset() {
        let (xs, ys) = sine_data(40);
        let gp = Gp::with_params_inference(
            SquaredExponential::new(1),
            xs,
            ys,
            vec![0.1, -1.0],
            -2.0,
            true,
            InferenceMode::Iterative {
                subset: 16,
                max_iters: 200,
            },
            Parallelism::Serial,
        )
        .unwrap();
        let loo = gp.loo_residuals();
        assert_eq!(loo.len(), 16);
        assert!(loo.iter().all(|(r, v)| r.is_finite() && *v > 0.0));
        assert!(gp.loo_nlpd().is_finite());
    }

    #[test]
    fn fit_dispatches_inference_modes() {
        let (xs, ys) = sine_data(40);
        let cfg = GpConfig {
            inference: InferenceMode::Iterative {
                subset: 20,
                max_iters: 200,
            },
            ..GpConfig::fast()
        };
        let gp = Gp::fit(
            SquaredExponential::new(1),
            xs.clone(),
            ys.clone(),
            &cfg,
            &mut rng(),
        )
        .unwrap();
        assert_eq!(gp.len(), 40);
        assert_eq!(gp.iterative_subset().map(<[usize]>::len), Some(20));
        // Interpolation quality survives the approximation.
        for (x, y) in xs.iter().zip(&ys).step_by(7) {
            let p = gp.predict(x);
            assert!((p.mean - y).abs() < 0.1, "at {x:?}: {} vs {y}", p.mean);
        }
        let sod = GpConfig {
            inference: InferenceMode::SubsetOfData { max_points: 20 },
            ..GpConfig::fast()
        };
        let gp = Gp::fit(SquaredExponential::new(1), xs, ys, &sod, &mut rng()).unwrap();
        assert_eq!(gp.len(), 20);
        assert!(gp.iterative_subset().is_none());
    }

    #[test]
    fn two_d_model_learns_anisotropy() {
        // Function varies strongly in x0, weakly in x1: the trained ARD
        // lengthscale for x1 should be longer.
        let mut pts = Vec::new();
        let mut vals = Vec::new();
        for i in 0..7 {
            for j in 0..7 {
                let x0 = i as f64 / 6.0;
                let x1 = j as f64 / 6.0;
                pts.push(vec![x0, x1]);
                vals.push((8.0 * x0).sin() + 0.01 * x1);
            }
        }
        let gp = Gp::fit(
            SquaredExponential::new(2),
            pts,
            vals,
            &GpConfig::default(),
            &mut rng(),
        )
        .unwrap();
        let l0 = gp.params()[1];
        let l1 = gp.params()[2];
        assert!(l1 > l0, "l0 = {l0}, l1 = {l1}");
    }
}

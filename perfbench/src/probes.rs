//! Layer probes over a traced run's own committed data.
//!
//! The history is cut at three checkpoints — after the initial design
//! (`early`), halfway through the BO iterations (`mid`) and at the end
//! (`late`) — and each
//! probe calls one layer's public API on that data with its own seeded
//! RNG, inside a benchmark span:
//!
//! - `gp`: `MfSurrogates::fit_warm_with_cache`, the default refit path;
//! - `opt`: `MultiStart` (24 starts, Nelder–Mead at 90 iterations) over
//!   `wei_high` / `wei_low`, with a call-counting closure;
//! - `linalg`, `core`, `pool`: Cholesky of the late model's largest kernel
//!   matrix, per-call `wei_high`, batched `MfGp::predict_batch`, and the
//!   MSP solve at `Serial` against `Threads(nproc)`.

use crate::trace::{Counted, Tracer};
use crate::{nproc, stats, Report};
use mfbo::problem::{Fidelity, MultiFidelityProblem};
use mfbo::{FidelityData, MfBoConfig, MfSurrogates, Outcome, Parallelism};
use mfbo_gp::kernel::Kernel;
use mfbo_gp::{FitCache, Gp};
use mfbo_linalg::{Cholesky, Matrix};
use mfbo_opt::msp::MultiStart;
use mfbo_opt::neldermead::NelderMead;
use mfbo_opt::{Bounds, OptResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed repetitions of each fit probe (the median is reported).
const FIT_REPS: usize = 3;
/// Minimum time spent on each per-call probe.
const CALL_PROBE: Duration = Duration::from_millis(150);

/// Distinct RNG stream per probe, derived from the run seed.
fn probe_rng(seed: u64, probe: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(probe + 1)))
}

/// Committed data of the first `n` history records, in unit coordinates.
fn data_prefix(o: &Outcome, n: usize, nc: usize, bounds: &Bounds) -> (FidelityData, FidelityData) {
    let mut low = FidelityData::new(nc);
    let mut high = FidelityData::new(nc);
    for r in &o.history[..n] {
        match r.fidelity {
            Fidelity::Low => low.push(r.x.clone(), &r.evaluation),
            Fidelity::High => high.push(r.x.clone(), &r.evaluation),
        }
    }
    (low.to_unit(bounds), high.to_unit(bounds))
}

/// Metric names of each checkpoint: label, fit, MSP over `wei_high`, MSP
/// over `wei_low`.
const CHECKPOINT_NAMES: [(&str, &str, &str, &str); 3] = [
    (
        "early",
        "gp.fit_ms.early",
        "opt.msp_high_ms.early",
        "opt.msp_low_ms.early",
    ),
    (
        "mid",
        "gp.fit_ms.mid",
        "opt.msp_high_ms.mid",
        "opt.msp_low_ms.mid",
    ),
    (
        "late",
        "gp.fit_ms.late",
        "opt.msp_high_ms.late",
        "opt.msp_low_ms.late",
    ),
];

/// History lengths at the three checkpoints: the end of the initial
/// design, halfway from there to the end of the run, and the end. A run
/// that stops inside its initial design has all three at its end.
fn checkpoints(o: &Outcome, cfg: &MfBoConfig) -> [usize; 3] {
    let len = o.history.len();
    let init = (cfg.initial_low + cfg.initial_high).min(len);
    [init, init + (len - init) / 2, len]
}

/// `f` timed once, in milliseconds.
fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64() * 1e3)
}

/// Repeats `f` for at least `min_time` and `min_calls` calls; mean time
/// per call, in microseconds.
fn per_call_us(min_calls: usize, min_time: Duration, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    let mut calls = 0;
    while calls < min_calls || t.elapsed() < min_time {
        f(calls);
        calls += 1;
    }
    t.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// `K + σ_n²·I` of a trained GP, the matrix its fit factorizes.
fn kernel_matrix<K: Kernel>(gp: &Gp<K>) -> Matrix {
    let xs = gp.xs();
    let noise = gp.noise_var_standardized() + 1e-8;
    Matrix::from_fn(xs.len(), xs.len(), |i, j| {
        gp.kernel().eval(gp.params(), &xs[i], &xs[j]) + if i == j { noise } else { 0.0 }
    })
}

fn msp(par: Parallelism) -> MultiStart {
    MultiStart::new(24)
        .with_local_search(NelderMead::new().with_max_iters(90))
        .with_parallelism(par)
}

/// Runs every probe at every checkpoint of `o` and reports the layer
/// metrics (see the module docs).
pub fn run(
    tracer: &Tracer,
    o: &Outcome,
    problem: &dyn MultiFidelityProblem,
    cfg: &MfBoConfig,
    seed: u64,
    report: &mut Report,
) {
    let _probes = tracer.span("probes");
    let bounds = problem.bounds();
    let unit = Bounds::unit(bounds.dim());
    let nc = problem.num_constraints();
    let threads = Parallelism::Threads(nproc());
    let model_cfg = cfg
        .model
        .clone()
        .with_parallelism(threads)
        .with_inference(cfg.gp_inference);
    let mut solves = 0u64;
    let mut acq_calls = 0u64;
    let mut late = None;
    let cuts = checkpoints(o, cfg);
    for (k, (&n, &(label, fit_name, high_name, low_name))) in
        cuts.iter().zip(&CHECKPOINT_NAMES).enumerate()
    {
        let _cp = tracer.span("probe.checkpoint");
        let (low, high) = data_prefix(o, n, nc, &bounds);
        report.note(format!(
            "checkpoint {label}: {} low + {} high observations",
            low.len(),
            high.len()
        ));
        let k = k as u64 * 16;
        // A cold fit supplies the warm-start thetas, as the previous
        // iteration's fit does in the loop.
        let cold = {
            let _g = tracer.span("gp.fit_cold");
            MfSurrogates::fit_with_cache(
                &low,
                &high,
                &model_cfg,
                &mut probe_rng(seed, k),
                &mut FitCache::default(),
            )
        };
        let Some(cold) = report.attempt(cold, format!("cold fit at {label}")) else {
            continue;
        };
        let thetas = cold.thetas();
        let mut fit_ms = Vec::new();
        let mut warm = None;
        for _ in 0..FIT_REPS {
            let _g = tracer.span("gp.fit");
            let (s, ms) = time_ms(|| {
                MfSurrogates::fit_warm_with_cache(
                    &low,
                    &high,
                    &model_cfg,
                    &thetas,
                    &mut probe_rng(seed, k + 1),
                    &mut FitCache::default(),
                )
            });
            fit_ms.push(ms);
            warm = report.attempt(s, format!("warm fit at {label}"));
        }
        let Some(s) = warm else { continue };
        report.metric(fit_name, stats::median(&fit_ms), "ms");

        let tau_l = low
            .best_feasible()
            .or_else(|| low.best_any())
            .map_or(0.0, |b| b.1);
        let tau_h = high
            .best_feasible()
            .or_else(|| high.best_any())
            .map_or(0.0, |b| b.1);
        let wei_high = Counted::new(|x: &[f64]| s.wei_high(x, tau_h));
        let (_, high_ms) = {
            let _g = tracer.span("opt.msp_high");
            time_ms(|| {
                msp(threads).maximize(
                    &|x: &[f64]| wei_high.call(x),
                    &unit,
                    &mut probe_rng(seed, k + 2),
                )
            })
        };
        let wei_low = Counted::new(|x: &[f64]| s.wei_low(x, tau_l));
        let (_, low_ms) = {
            let _g = tracer.span("opt.msp_low");
            time_ms(|| {
                msp(threads).maximize(
                    &|x: &[f64]| wei_low.call(x),
                    &unit,
                    &mut probe_rng(seed, k + 3),
                )
            })
        };
        solves += 2;
        acq_calls += wei_high.calls() + wei_low.calls();
        report.metric(high_name, high_ms, "ms");
        report.metric(low_name, low_ms, "ms");
        late = Some((s, tau_h, low, high, thetas, k + 1));
    }
    report.metric(
        "opt.acq_evals_per_solve",
        acq_calls as f64 / solves.max(1) as f64,
        "count",
    );
    let Some((s, tau_h, low, high, thetas, fit_stream)) = late else {
        return;
    };
    // The same late fit at one thread, bit-identical to the pooled one:
    // inside the loop's MSP every model call runs on one thread (nested
    // pool calls fall back to serial), so per-call costs are taken on it.
    let serial_cfg = model_cfg.with_parallelism(Parallelism::Serial);
    let serial = MfSurrogates::fit_warm_with_cache(
        &low,
        &high,
        &serial_cfg,
        &thetas,
        &mut probe_rng(seed, fit_stream),
        &mut FitCache::default(),
    );
    let Some(serial) = report.attempt(serial, "serial late fit") else {
        return;
    };
    late_probes(tracer, &s, &serial, tau_h, &unit, seed, report);
}

/// Probes on the late model only: `pooled` was fitted at all cores,
/// `serial` is the same model at one thread.
fn late_probes(
    tracer: &Tracer,
    pooled: &MfSurrogates,
    serial: &MfSurrogates,
    tau_h: f64,
    unit: &Bounds,
    seed: u64,
    report: &mut Report,
) {
    // linalg: factorize the largest kernel matrix of the objective model.
    let obj = serial.objective();
    let k = if obj.low().len() >= obj.high().len() {
        kernel_matrix(obj.low())
    } else {
        kernel_matrix(obj.high())
    };
    let chol_ms = {
        let _g = tracer.span("linalg.cholesky");
        let first = Cholesky::new(&k);
        if report
            .attempt(first, "Cholesky of the late kernel matrix")
            .is_none()
        {
            return;
        }
        let mut samples = Vec::new();
        let t = Instant::now();
        while samples.len() < 21 || t.elapsed() < CALL_PROBE {
            let (c, ms) = time_ms(|| Cholesky::new(black_box(&k)));
            black_box(c.is_ok());
            samples.push(ms);
        }
        stats::median(&samples)
    };
    report.note(format!("late kernel matrix: n = {}", k.rows()));
    report.metric("linalg.cholesky_ms.late", chol_ms, "ms");

    let mut rng = probe_rng(seed, 100);
    let points: Vec<Vec<f64>> = (0..288)
        .map(|_| (0..unit.dim()).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let wei_us = {
        let _g = tracer.span("core.wei_high");
        per_call_us(200, CALL_PROBE, |i| {
            black_box(serial.wei_high(black_box(&points[i % points.len()]), tau_h));
        })
    };
    report.metric("core.wei_high_us", wei_us, "us");
    for (b, name) in [
        (1, "core.predict_us_per_point.b1"),
        (12, "core.predict_us_per_point.b12"),
        (288, "core.predict_us_per_point.b288"),
    ] {
        let _g = tracer.span("core.predict_batch");
        let batches = points.len() / b;
        let us = per_call_us(20, CALL_PROBE, |i| {
            let at = (i % batches) * b;
            black_box(obj.predict_batch(black_box(&points[at..at + b])));
        });
        report.metric(name, us / b as f64, "us");
    }

    // pool: the same MSP solve at Serial and at all cores, alternating.
    let mut serial_ms = Vec::new();
    let mut threads_ms = Vec::new();
    let mut results: Vec<OptResult> = Vec::new();
    for rep in 0..3 {
        for par in if rep % 2 == 0 {
            [Parallelism::Serial, Parallelism::Threads(nproc())]
        } else {
            [Parallelism::Threads(nproc()), Parallelism::Serial]
        } {
            let _g = tracer.span("opt.msp_high_pool");
            let model = if par == Parallelism::Serial {
                serial
            } else {
                pooled
            };
            let wei = |x: &[f64]| model.wei_high(x, tau_h);
            let (r, ms) = time_ms(|| msp(par).maximize(&wei, unit, &mut probe_rng(seed, 101)));
            if par == Parallelism::Serial {
                serial_ms.push(ms);
            } else {
                threads_ms.push(ms);
            }
            results.push(r);
        }
    }
    report.check(
        results
            .iter()
            .all(|r| r.x == results[0].x && r.value.to_bits() == results[0].value.to_bits()),
        "MSP probe is bit-identical at Serial and Threads",
    );
    report.metric(
        "pool.msp_speedup",
        stats::median(&serial_ms) / stats::median(&threads_ms),
        "ratio",
    );
}

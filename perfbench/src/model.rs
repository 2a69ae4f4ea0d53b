//! The two model workloads, driven in-process through the ask/tell core:
//!
//! - `pa_mf`: the paper's method on the power amplifier (5 variables, 2
//!   constraints), acquisition-bound;
//! - `forrester_fit`: the paper's method on Forrester, long enough that the
//!   high-fidelity set grows to 50 points, fit-bound.
//!
//! Each sub-seed runs at `Serial`, then `Threads(nproc)`, then `Serial`
//! again; all three histories must be bit-identical. The end-to-end
//! metrics come from the serial runs: on a shared host, CPU steal takes
//! the second core away for minutes at a time, and over ten processes the
//! all-cores `run_s` of `forrester_fit` spread 0.35 (quartile distance
//! over median) against 0.08 at `Serial`. The serial runs, and the set-up
//! batches, are timed on a CPU clock (see `clock.rs`). The all-cores run
//! time is reported by the traced pass as `pool.run_s`.

use crate::clock::Clock;
use crate::trace::{self, span, CountingSink, Tracer};
use crate::{nproc, peak_rss_mb, probes, service, stats, work_dir, Args, Report};
use mfbo::problem::{Fidelity, MultiFidelityProblem};
use mfbo::{AskTellMfbo, MfBoConfig, MfboError, Outcome, Parallelism, RunOptions, Told};
use mfbo_circuits::pa::PowerAmplifier;
use mfbo_circuits::testfns;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

pub type BoxedProblem = Box<dyn MultiFidelityProblem + Send + Sync>;

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Pa,
    Forrester,
}

impl Kind {
    fn problem(self) -> BoxedProblem {
        match self {
            Kind::Pa => Box::new(PowerAmplifier::new()),
            Kind::Forrester => Box::new(testfns::forrester()),
        }
    }

    /// The server's registry name for the same problem.
    fn server_name(self) -> &'static str {
        match self {
            Kind::Pa => "pa",
            Kind::Forrester => "forrester",
        }
    }

    /// Default `MfBoConfig` (10 low + 5 high initial points, 24 MSP
    /// starts, sequential q = 1, no journal), stopped after a fixed number
    /// of BO iterations, so every seed does the same amount of
    /// optimization and the budget never binds first.
    pub fn config(self, parallelism: Parallelism) -> MfBoConfig {
        let iterations = match self {
            Kind::Pa => 25,
            // Forrester picks high fidelity every time: 5 + 45 = 50 high
            // points by the end, and about four seeds fit in 40 s.
            Kind::Forrester => 45,
        };
        MfBoConfig {
            budget: 1000.0,
            max_iterations: iterations,
            parallelism,
            ..MfBoConfig::default()
        }
    }
}

/// One whole run, timed from outside.
pub struct Drive {
    pub outcome: Outcome,
    /// Problem construction to `finish`, seconds.
    pub wall_s: f64,
    /// The same span on the clock the run was timed with.
    pub clock_s: f64,
    /// `tell` of the previous candidate until `ask` returns the next one,
    /// for candidates of BO iterations (ms, on the run's clock).
    pub suggest_ms: Vec<f64>,
    /// The same wait for every candidate, initial design included (ms).
    pub turn_ms: Vec<f64>,
}

/// Drives one run through the ask/tell core with q = 1, evaluating each
/// candidate with `MultiFidelityProblem::evaluate`. With a tracer, every
/// call into the core and the problem gets its own span under a `run` span.
/// The run and its turns are timed on `clock`, and the run on the wall
/// clock too.
pub fn drive(
    make: &dyn Fn() -> BoxedProblem,
    cfg: MfBoConfig,
    seed: u64,
    opts: &mut RunOptions,
    tr: Option<&Tracer>,
    clock: Clock,
) -> Result<Drive, MfboError> {
    let t0 = Instant::now();
    let c0 = clock.now();
    let _run = span(tr, "run");
    let problem = {
        let _g = span(tr, "circuits.problem_new");
        make()
    };
    let mut core = {
        let _g = span(tr, "core.asktell.new");
        AskTellMfbo::new(cfg, &*problem, StdRng::seed_from_u64(seed), opts)?
    };
    let mut next = {
        let _g = span(tr, "core.asktell.ask");
        core.ask(1)?.pop()
    };
    let mut suggest_ms = Vec::new();
    let mut turn_ms = Vec::new();
    while let Some(c) = next {
        let (evaluation, sim) = {
            let _g = span(
                tr,
                match c.fidelity {
                    Fidelity::Low => "circuits.evaluate_low",
                    Fidelity::High => "circuits.evaluate_high",
                },
            );
            let t = Instant::now();
            let e = problem.evaluate(&c.x, c.fidelity);
            (e, t.elapsed())
        };
        let told = if evaluation.is_finite() {
            Told::Evaluated {
                evaluation,
                attempts: 1,
            }
        } else {
            Told::Failed { attempts: 1 }
        };
        let t_tell = clock.now();
        {
            let _g = span(tr, "core.asktell.tell");
            core.tell_timed(c.id, told, sim)?;
        }
        next = {
            let _g = span(tr, "core.asktell.ask");
            core.ask(1)?.pop()
        };
        if let Some(n) = &next {
            let ms = (clock.now() - t_tell) * 1e3;
            turn_ms.push(ms);
            if n.iteration > 0 {
                suggest_ms.push(ms);
            }
        }
    }
    let outcome = {
        let _g = span(tr, "core.asktell.finish");
        core.finish()?
    };
    Ok(Drive {
        outcome,
        wall_s: t0.elapsed().as_secs_f64(),
        clock_s: clock.now() - c0,
        suggest_ms,
        turn_ms,
    })
}

/// Every committed evaluation as raw bits: iteration, fidelity, x,
/// objective, constraints and running cost.
pub fn history_bits(o: &Outcome) -> Vec<u64> {
    let mut out = Vec::new();
    for r in &o.history {
        out.push(r.iteration as u64);
        out.push(u64::from(r.fidelity == Fidelity::High));
        out.extend(r.x.iter().map(|v| v.to_bits()));
        out.push(r.evaluation.objective.to_bits());
        out.extend(r.evaluation.constraints.iter().map(|v| v.to_bits()));
        out.push(r.cost_so_far.to_bits());
    }
    out
}

/// The `i`-th run seed of a measurement started with `--seed base`.
pub fn sub_seed(base: u64, i: u64) -> u64 {
    base.wrapping_mul(1_000_003).wrapping_add(i)
}

/// Fraction of the run's high-fidelity evaluations that meet every
/// constraint.
pub fn feasible_frac(o: &Outcome) -> f64 {
    let high: Vec<_> = o
        .history
        .iter()
        .filter(|r| r.fidelity == Fidelity::High)
        .collect();
    high.iter().filter(|r| r.evaluation.is_feasible()).count() as f64 / high.len().max(1) as f64
}

/// One-line quality summary of a finished run.
pub fn quality_line(label: &str, o: &Outcome) -> String {
    format!(
        "{label}: best_objective={:.6e} cost_to_best={:.2} feasible_frac={:.3} n_low={} n_high={} total_cost={:.2}",
        o.best_objective,
        o.cost_to_best,
        feasible_frac(o),
        o.n_low,
        o.n_high,
        o.total_cost
    )
}

pub fn run(kind: Kind, args: &Args) -> Report {
    let mut report = Report::default();
    warm_up(kind);
    if args.trace {
        traced(kind, args, &mut report);
    } else {
        end_to_end(kind, args, &mut report);
    }
    report
}

/// Fewest seeds a measurement runs, even past `--seconds`: with fewer,
/// one run slowed by a neighbour on the machine moves the median.
const MIN_SEEDS: u64 = 3;
/// Set-ups timed together per sample, so each sample spans far more than
/// the clock's resolution.
const SETUP_BATCH: usize = 50;
/// Batches of set-ups timed after each run; the median over all of them
/// is reported. Taken in one burst of 21 batches, the figure of one
/// process sat either near 18 us or near 28 us, and the median over ten
/// processes could jump between the two.
const SETUP_SAMPLES: usize = 5;

/// Appends [`SETUP_SAMPLES`] samples of the CPU time one set-up takes,
/// each the mean of a batch: problem construction plus `AskTellMfbo::new`
/// to the first `ask`.
fn sample_setup(kind: Kind, seed: u64, samples: &mut Vec<f64>) -> Result<(), MfboError> {
    for _ in 0..SETUP_SAMPLES {
        let t = Clock::ProcessCpu.now();
        for _ in 0..SETUP_BATCH {
            let problem = kind.problem();
            let mut core = AskTellMfbo::new(
                kind.config(Parallelism::Threads(nproc())),
                &*problem,
                StdRng::seed_from_u64(seed),
                &mut RunOptions::default(),
            )?;
            std::hint::black_box(core.ask(1)?);
        }
        samples.push((Clock::ProcessCpu.now() - t) / SETUP_BATCH as f64);
    }
    Ok(())
}

/// One short run per arm before anything is timed, so page-in and lazy
/// initialization land on no measured run.
fn warm_up(kind: Kind) {
    for par in [Parallelism::Threads(nproc()), Parallelism::Serial] {
        let mut cfg = kind.config(par);
        cfg.max_iterations = 2;
        let _ = drive(
            &|| kind.problem(),
            cfg,
            0,
            &mut RunOptions::default(),
            None,
            Clock::Wall,
        );
    }
}

fn end_to_end(kind: Kind, args: &Args, report: &mut Report) {
    let threads = Parallelism::Threads(nproc());
    let need = stats::min_samples(90);
    let t0 = Instant::now();
    let mut par_wall = Vec::new();
    let mut par_suggest = Vec::new();
    let mut ser_cpu = Vec::new();
    let mut setups = Vec::new();
    let mut suggest = Vec::new();
    for i in 0u64.. {
        let seed = sub_seed(args.seed, i);
        // The serial run brackets the all-cores one, so drift hits both
        // arms alike and the serial arm, which the end-to-end metrics
        // report, gets two samples per seed.
        let arms = [Parallelism::Serial, threads, Parallelism::Serial];
        let mut histories = Vec::new();
        for par in arms {
            // A serial run is all on this thread, so its CPU clock times
            // the whole run.
            let clock = if par == Parallelism::Serial {
                Clock::ThreadCpu
            } else {
                Clock::Wall
            };
            let r = drive(
                &|| kind.problem(),
                kind.config(par),
                seed,
                &mut RunOptions::default(),
                None,
                clock,
            );
            let r = report.attempt(r, format!("seed {seed} at {par:?}"));
            let s = sample_setup(kind, seed, &mut setups);
            report.attempt(s, "set-up batches");
            let Some(d) = r else {
                continue;
            };
            report.note(format!(
                "seed {seed}: {par:?} run {:.3} s wall, {:.3} s {clock:?}",
                d.wall_s, d.clock_s
            ));
            if par == Parallelism::Serial {
                ser_cpu.push(d.clock_s);
                suggest.extend(d.suggest_ms);
            } else {
                report.note(quality_line(&format!("seed {seed}"), &d.outcome));
                par_wall.push(d.wall_s);
                par_suggest.extend(d.suggest_ms);
            }
            histories.push(history_bits(&d.outcome));
        }
        report.check(
            histories.len() == arms.len() && histories.iter().all(|h| *h == histories[0]),
            format!("seed {seed}: Serial and Threads histories are bit-identical"),
        );
        let elapsed = t0.elapsed().as_secs_f64();
        let per_seed = elapsed / (i + 1) as f64;
        let enough = i + 1 >= MIN_SEEDS && suggest.len() >= need;
        if report.failed > 0 || (enough && elapsed + per_seed > args.seconds) {
            break;
        }
    }
    report.note(format!(
        "{} runs at Serial, {} BO iterations timed at Serial",
        ser_cpu.len(),
        suggest.len()
    ));
    report.note(format!(
        "all cores, not bounded (CPU steal on a shared host moves it most): {} runs at Threads({}), run_s = {:.4} s, suggest_ms_p50 = {:.3} ms",
        par_wall.len(),
        nproc(),
        stats::median(&par_wall),
        stats::percentile(&par_suggest, 50).unwrap_or(f64::NAN)
    ));
    report.metric("run_s_serial", stats::median(&ser_cpu), "s");
    report.metric(
        "suggest_ms_p50",
        stats::percentile(&suggest, 50).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "suggest_ms_p90",
        stats::percentile(&suggest, 90).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "runs_per_s",
        ser_cpu.len() as f64 / ser_cpu.iter().sum::<f64>(),
        "1/s",
    );
    report.metric("setup_s", stats::median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Ask/tell-loop layer metrics of `runs` from the tracer's spans, plus
/// the two cross-checks against the program's own stage table.
pub fn loop_layers(tracer: &Tracer, runs: &[(u32, &Outcome)], report: &mut Report) {
    let spans = tracer.spans();
    let in_runs = |s: &trace::SpanRec| runs.iter().any(|(r, _)| *r == s.run);
    let totals = trace::totals_by_name(&spans, in_runs);
    let get = |name: &str| totals.get(name).copied().unwrap_or((0, 0, 0));
    let ms = |ns: u64| ns as f64 / 1e6;
    let per_call = |name: &str| {
        let (n, total, _) = get(name);
        ms(total) / n.max(1) as f64
    };
    let wall_ns = get("run").1 as f64;
    let core_ns: u64 = [
        "core.asktell.new",
        "core.asktell.ask",
        "core.asktell.tell",
        "core.asktell.finish",
    ]
    .iter()
    .map(|n| get(n).2)
    .sum();
    let sim_ns = get("circuits.evaluate_low").2 + get("circuits.evaluate_high").2;
    report.metric(
        "circuits.eval_low_ms",
        per_call("circuits.evaluate_low"),
        "ms",
    );
    report.metric(
        "circuits.eval_high_ms",
        per_call("circuits.evaluate_high"),
        "ms",
    );
    report.metric("circuits.busy_share", sim_ns as f64 / wall_ns, "ratio");
    report.metric("core.asktell.tell_ms", per_call("core.asktell.tell"), "ms");
    report.metric("core.asktell.busy_share", core_ns as f64 / wall_ns, "ratio");
    report.metric("core.asktell.new_ms", per_call("core.asktell.new"), "ms");

    for (run, outcome) in runs {
        let of_run: Vec<_> = spans.iter().filter(|s| s.run == *run).collect();
        let root = of_run
            .iter()
            .find(|s| s.name == "run")
            .map_or(0, |s| s.dur_ns());
        // Everything the loop does sits in a span: what the run span's
        // children leave uncovered is loop bookkeeping, which must stay
        // under 2% of the run or 1 us per call.
        let calls: Vec<_> = of_run
            .iter()
            .filter(|s| s.parent.is_some_and(|p| spans[p].name == "run"))
            .collect();
        let covered: u64 = calls.iter().map(|s| s.dur_ns()).sum();
        let gap_ns = root.saturating_sub(covered);
        let ok = gap_ns * 50 <= root || gap_ns <= 1000 * calls.len() as u64;
        report.note(format!(
            "run {run}: loop spans cover {:.4} of the run's wall time ({} ns per call uncovered)",
            covered as f64 / root.max(1) as f64,
            gap_ns / calls.len().max(1) as u64
        ));
        report.check(
            ok,
            format!("run {run}: {gap_ns} ns of {root} ns not covered by loop spans"),
        );
        let tell_us: u64 = of_run
            .iter()
            .filter(|s| s.name == "core.asktell.tell")
            .map(|s| s.dur_ns() / 1000)
            .sum();
        let stage_us: u64 = ["surrogate_fit", "acq_opt"]
            .iter()
            .filter_map(|k| outcome.telemetry.stages.get(k))
            .map(|s| s.total_us)
            .sum();
        report.note(format!(
            "run {run}: tell spans {tell_us} us >= stage table surrogate_fit+acq_opt {stage_us} us"
        ));
        report.check(
            tell_us >= stage_us,
            format!("run {run}: tell spans {tell_us} us < surrogate_fit+acq_opt {stage_us} us"),
        );
    }
}

/// Counters the program emitted during the traced run.
pub fn counter_layers(sink: &CountingSink, runs: f64, report: &mut Report) {
    report.metric("gp.nlml_evals", sink.counter("nlml_evals") as f64, "count");
    report.metric(
        "gp.kernel_matrix_builds",
        sink.counter("kernel_matrix_builds") as f64,
        "count",
    );
    report.metric(
        "gp.diffbatch_builds",
        sink.counter("diffbatch_builds") as f64,
        "count",
    );
    report.metric(
        "core.predict_batch_points",
        sink.counter("predict_batch_points") as f64,
        "count",
    );
    report.metric(
        "telemetry.records_per_run",
        sink.records() as f64 / runs,
        "count",
    );
    report.metric(
        "runstore.journal_flushes",
        sink.counter("journal_flushes") as f64,
        "count",
    );
    report.metric(
        "runstore.journal_group_commits",
        sink.counter("journal_group_commits") as f64,
        "count",
    );
}

/// Quality metrics of a run, deterministic per seed.
pub fn quality_layers(o: &Outcome, report: &mut Report) {
    report.metric("best_objective", o.best_objective, "objective");
    report.metric("cost_to_best", o.cost_to_best, "sims");
    report.metric("feasible_frac", feasible_frac(o), "ratio");
}

fn traced(kind: Kind, args: &Args, report: &mut Report) {
    let threads = Parallelism::Threads(nproc());
    let seed = sub_seed(args.seed, 0);
    let make = || kind.problem();
    let plain = |par| {
        drive(
            &make,
            kind.config(par),
            seed,
            &mut RunOptions::default(),
            None,
            Clock::Wall,
        )
    };

    let untraced = report.attempt(plain(threads), "untraced run");
    let tracer = Tracer::default();
    let sink = Arc::new(CountingSink::default());
    mfbo_telemetry::set_global_sink(sink.clone());
    let traced = drive(
        &make,
        kind.config(threads),
        seed,
        &mut RunOptions::default(),
        Some(&tracer),
        Clock::Wall,
    );
    mfbo_telemetry::clear_global_sink();
    let traced = report.attempt(traced, "traced run");
    let serial = report.attempt(plain(Parallelism::Serial), "serial run");
    let (Some(untraced), Some(traced), Some(serial)) = (untraced, traced, serial) else {
        return;
    };
    let bits = history_bits(&traced.outcome);
    report.check(
        bits == history_bits(&untraced.outcome) && bits == history_bits(&serial.outcome),
        "traced, untraced and Serial histories are bit-identical",
    );
    report.note(quality_line(&format!("seed {seed}"), &traced.outcome));
    report.note(format!(
        "untraced {:.3} s, traced {:.3} s, serial {:.3} s",
        untraced.wall_s, traced.wall_s, serial.wall_s
    ));

    loop_layers(&tracer, &[(0, &traced.outcome)], report);
    counter_layers(&sink, 1.0, report);
    report.metric(
        "telemetry.trace_overhead",
        traced.wall_s / untraced.wall_s,
        "ratio",
    );
    report.metric("pool.run_s", untraced.wall_s, "s");
    report.metric("pool.speedup", serial.wall_s / untraced.wall_s, "ratio");
    quality_layers(&traced.outcome, report);

    let problem = kind.problem();
    let cfg = kind.config(threads);
    tracer.set_run(1);
    probes::run(&tracer, &traced.outcome, &*problem, &cfg, seed, report);
    tracer.set_run(2);
    service::probe(
        &tracer,
        &service::ProbeSpec {
            problem: kind.server_name(),
            init_low: 1,
            init_high: 1,
            budget: 0.01,
            seed,
        },
        report,
    );
    let path = work_dir("spans").join(format!(
        "{}-{}-{}.jsonl",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("could not write spans to {}: {e}", path.display());
    } else {
        report.note(format!("spans written to {}", path.display()));
    }
}

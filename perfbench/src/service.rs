//! The `service_fanout` workload and the service probe every workload's
//! traced pass ends with.
//!
//! `service_fanout` boots an in-process `Server` and drives it over one
//! pipelined connection as a closed loop: [`IN_FLIGHT`] Forrester runs are
//! kept in flight, each new `start` sent as soon as an earlier `wait` is
//! answered, for [`LOOP_RUNS`] runs per measurement. Each run's budget ends
//! inside its 10 + 2 point initial design, so no GP is ever fitted:
//! framing, shard scheduling and the worker pool do the work. Every
//! measurement alternates the default `ServerConfig` (shards = workers =
//! nproc) with a one-shard, one-worker server. The end-to-end metrics come
//! from the one-shard server and the in-process reference runs; the
//! default config's numbers are printed without a bound, as CPU steal on a
//! shared host moves multi-core timings most (see `model.rs`).
//!
//! The one-shard server and the client driving it run pinned to one CPU,
//! and its loops are timed on the process's CPU clock (see `clock.rs`).
//! Left free, its connection, shard and worker threads and the client hand
//! work across two cores, and the wall-clock throughput followed how much
//! of the second core the host gave: on a two-core shared host it ranged
//! from 5700 to 10500 runs/s across five processes of the same build. On
//! one CPU the hand-offs are context switches on one core, the CPU is busy
//! for the whole loop, and its CPU time is the loop's wall time less what
//! the host took away.
//!
//! Only every [`AUDIT_EVERY`]-th run journals; those runs are the audited
//! ones, re-run in-process and resumed from their journals. With every run
//! journaled, the loop's throughput followed the file system's latency,
//! which on a shared virtual disk drifts for tens of seconds at a time:
//! across ten processes the throughput spread (quartile distance over
//! median) was 0.42, against about 0.1 without journals. The journal path
//! is timed by the service probe instead.
//!
//! Audited run `i` always journals into `.bench_work/fanout/r<i>`, in
//! every loop and every process: a fresh run truncates and rewrites its
//! journal, so the disk footprint stays small. Creating and deleting a
//! fresh tree per loop made throughput depend on how much block freeing
//! earlier loops and processes had left behind.

use crate::clock::Clock;
use crate::model::{self, BoxedProblem};
use crate::trace::{span, CountingSink, Tracer};
use crate::{peak_rss_mb, probes, stats, work_dir, Args, Report};
use mfbo::{MfBoConfig, Outcome, RunOptions, RunStore};
use mfbo_circuits::testfns;
use mfbo_server::{Client, Server, ServerConfig};
use mfbo_telemetry::json::{parse, Json};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Runs per closed-loop measurement (enough for a p99 with ten samples
/// beyond it).
const LOOP_RUNS: usize = 2048;
/// Runs kept in flight by the closed loop.
const IN_FLIGHT: usize = 64;
/// Every `AUDIT_EVERY`-th served run is journaled, checked against an
/// in-process run, and resumed from its journal.
const AUDIT_EVERY: usize = 128;
/// One measurement round (a loop on each server plus its audits) per this
/// many seconds of `--seconds`. A round takes about 0.5 s on two cores,
/// and over 1 s when the host is busy; the count is fixed up front.
const ROUND_SECONDS: f64 = 0.75;
/// Runs started by the strict request/reply service probe.
const PROBE_RUNS: usize = 32;

/// What a served run computes.
pub struct ProbeSpec {
    /// Server registry name of the problem.
    pub problem: &'static str,
    pub init_low: usize,
    pub init_high: usize,
    pub budget: f64,
    /// Base of the per-run seeds.
    pub seed: u64,
}

impl ProbeSpec {
    fn config(&self) -> MfBoConfig {
        MfBoConfig {
            initial_low: self.init_low,
            initial_high: self.init_high,
            budget: self.budget,
            ..MfBoConfig::default()
        }
    }

    fn start_req(&self, name: &str, seed: u64, journal: Option<&Path>) -> Json {
        let mut fields = vec![
            ("op", Json::Str("start".into())),
            ("run", Json::Str(name.into())),
            ("problem", Json::Str(self.problem.into())),
            ("seed", Json::Num(seed as f64)),
            ("budget", Json::Num(self.budget)),
            ("init_low", Json::Num(self.init_low as f64)),
            ("init_high", Json::Num(self.init_high as f64)),
        ];
        if let Some(dir) = journal {
            fields.push(("journal", Json::Str(dir.to_string_lossy().into_owned())));
        }
        obj(fields)
    }
}

/// The `service_fanout` run: Forrester, 10 low + 2 high initial points,
/// budget 1.9 (12 journaled evaluations, no fit).
fn fanout_spec(seed: u64) -> ProbeSpec {
    ProbeSpec {
        problem: "forrester",
        init_low: 10,
        init_high: 2,
        budget: 1.9,
        seed,
    }
}

fn forrester() -> BoxedProblem {
    Box::new(testfns::forrester())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn op(name: &str) -> Json {
    obj(vec![("op", Json::Str(name.into()))])
}

/// A server running on its own accept thread.
struct Booted {
    addr: String,
    control: Client,
    accept: JoinHandle<std::io::Result<()>>,
    /// Bind to the first reply, CPU seconds of the process.
    setup_s: f64,
}

fn boot(config: ServerConfig) -> std::io::Result<Booted> {
    let t0 = Clock::ProcessCpu.now();
    let server = Server::bind("127.0.0.1:0", config)?;
    let addr = server.local_addr()?.to_string();
    let accept = std::thread::spawn(move || server.run());
    let mut control = Client::connect(&addr)?;
    control
        .expect_ok(&op("ping"))
        .map_err(std::io::Error::other)?;
    Ok(Booted {
        addr,
        control,
        accept,
        setup_s: Clock::ProcessCpu.now() - t0,
    })
}

fn shutdown(mut b: Booted, report: &mut Report) {
    let r = b.control.expect_ok(&op("shutdown"));
    report.attempt(r, "shutdown request");
    drop(b.control);
    let joined = b
        .accept
        .join()
        .map_err(|_| "accept thread panicked".to_string());
    if let Some(r) = report.attempt(joined, "accept thread") {
        report.attempt(r, "accept loop");
    }
}

/// The two servers every measurement alternates.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    /// The default `ServerConfig`, free to use every CPU.
    AllCores,
    /// One shard and one worker, pinned with the client to one CPU.
    OneCore,
}

impl Arm {
    fn config(self) -> ServerConfig {
        match self {
            Arm::AllCores => ServerConfig::default(),
            Arm::OneCore => ServerConfig {
                workers: 1,
                shards: 1,
                ..ServerConfig::default()
            },
        }
    }
}

/// A Linux `cpu_set_t`: one bit per CPU, 1024 CPUs.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn affinity() -> std::io::Result<CpuSet> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable mask of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc == 0 {
        Ok(set)
    } else {
        Err(std::io::Error::last_os_error())
    }
}

fn set_affinity(set: &CpuSet) -> std::io::Result<()> {
    // SAFETY: `set` is a mask of the size passed; pid 0 is the calling
    // thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Runs `f` with the calling thread, and every thread it spawns meanwhile,
/// on the lowest CPU the thread may use, then restores its mask.
fn on_one_cpu<T>(f: impl FnOnce() -> T) -> std::io::Result<T> {
    let all = affinity()?;
    let (word, bits) = all
        .0
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = CpuSet([0; 16]);
    one.0[word] = 1 << bits.trailing_zeros();
    set_affinity(&one)?;
    let out = f();
    set_affinity(&all)?;
    Ok(out)
}

/// A served run's outcome, as the `wait` reply reports it.
#[derive(Debug, Clone, PartialEq)]
struct Served {
    best_objective: u64,
    total_cost: u64,
    n_low: u64,
    n_high: u64,
}

impl Served {
    fn of(o: &Outcome) -> Served {
        Served {
            best_objective: o.best_objective.to_bits(),
            total_cost: o.total_cost.to_bits(),
            n_low: o.n_low as u64,
            n_high: o.n_high as u64,
        }
    }

    fn from_reply(reply: &Json) -> Option<Served> {
        let num = |k: &str| reply.get(k).and_then(Json::as_f64);
        Some(Served {
            best_objective: num("best_objective")?.to_bits(),
            total_cost: num("total_cost")?.to_bits(),
            n_low: num("n_low")? as u64,
            n_high: num("n_high")? as u64,
        })
    }
}

/// One closed-loop measurement.
struct Loop {
    wall_s: f64,
    /// CPU time of the whole process over the loop.
    cpu_s: f64,
    /// `start` sent to `wait` answered, per run (ms).
    latency_ms: Vec<f64>,
    /// Seed, journal directory and outcome of every audited run.
    audited: Vec<(u64, PathBuf, Served)>,
}

/// Drives `LOOP_RUNS` runs through `addr` with `IN_FLIGHT` in flight over
/// one pipelined connection. Every request is counted in the report.
fn closed_loop(
    addr: &str,
    spec: &ProbeSpec,
    first: u64,
    root: &Path,
    report: &mut Report,
) -> std::io::Result<Loop> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut w = BufWriter::new(stream.try_clone()?);
    let mut r = BufReader::new(stream);
    let name = |i: usize| format!("r{}", first + i as u64);
    let seed = |i: usize| model::sub_seed(spec.seed, first + i as u64);
    let dir = |i: usize| root.join(format!("r{i}"));
    // Only the audited runs journal (see the module docs).
    let start = |i: usize| {
        let journal = i.is_multiple_of(AUDIT_EVERY).then(|| dir(i));
        spec.start_req(&name(i), seed(i), journal.as_deref())
    };
    let wait = |i: usize| {
        obj(vec![
            ("op", Json::Str("wait".into())),
            ("run", Json::Str(name(i))),
        ])
    };

    enum Expect {
        Start(usize),
        Wait(usize),
    }
    let mut expect = VecDeque::new();
    let mut sent_at = vec![None; LOOP_RUNS];
    let mut latency_ms = Vec::with_capacity(LOOP_RUNS);
    let mut audited = Vec::new();
    let t0 = Instant::now();
    let c0 = Clock::ProcessCpu.now();
    let mut next = 0;
    while next < IN_FLIGHT.min(LOOP_RUNS) {
        writeln!(w, "{}", start(next))?;
        sent_at[next] = Some(Instant::now());
        expect.push_back(Expect::Start(next));
        next += 1;
    }
    writeln!(w, "{}", wait(0))?;
    expect.push_back(Expect::Wait(0));
    w.flush()?;
    let mut line = String::new();
    while let Some(e) = expect.pop_front() {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("server closed the connection"));
        }
        let reply = parse(&line).map_err(std::io::Error::other)?;
        let ok = reply.get("ok").and_then(Json::as_bool) == Some(true);
        match e {
            Expect::Start(i) => report.check(ok, format!("start {}: {}", name(i), line.trim())),
            Expect::Wait(i) => {
                let sent = sent_at[i].expect("every waited run was started");
                latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                let done = reply.get("state").and_then(Json::as_str) == Some("done");
                report.check(ok && done, format!("wait {}: {}", name(i), line.trim()));
                if i.is_multiple_of(AUDIT_EVERY) {
                    match Served::from_reply(&reply) {
                        Some(s) => audited.push((seed(i), dir(i), s)),
                        None => report.check(false, format!("wait {} lacks an outcome", name(i))),
                    }
                }
                if next < LOOP_RUNS {
                    writeln!(w, "{}", start(next))?;
                    sent_at[next] = Some(Instant::now());
                    expect.push_back(Expect::Start(next));
                    next += 1;
                }
                if i + 1 < LOOP_RUNS {
                    writeln!(w, "{}", wait(i + 1))?;
                    expect.push_back(Expect::Wait(i + 1));
                }
                w.flush()?;
            }
        }
    }
    Ok(Loop {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: Clock::ProcessCpu.now() - c0,
        latency_ms,
        audited,
    })
}

/// Boots `arm`'s server, runs one closed loop, shuts it down. Returns the
/// loop and the boot's setup time.
fn measure(
    arm: Arm,
    spec: &ProbeSpec,
    first: u64,
    root: &Path,
    report: &mut Report,
) -> Option<(Loop, f64)> {
    match arm {
        Arm::AllCores => measure_with(arm.config(), spec, first, root, report),
        Arm::OneCore => {
            let m = on_one_cpu(|| measure_with(arm.config(), spec, first, root, report));
            report.attempt(m, "pin to one CPU")?
        }
    }
}

fn measure_with(
    config: ServerConfig,
    spec: &ProbeSpec,
    first: u64,
    root: &Path,
    report: &mut Report,
) -> Option<(Loop, f64)> {
    let b = report.attempt(boot(config), "server boot")?;
    let setup_s = b.setup_s;
    let l = closed_loop(&b.addr, spec, first, root, report);
    let l = report.attempt(l, "closed loop");
    shutdown(b, report);
    Some((l?, setup_s))
}

/// The audit of one served run: an in-process run with the same seed and
/// config, journaled into `ref_dir` if one is given, must report the same
/// outcome, and the served journal must resume with zero fresh
/// evaluations. Returns the in-process run.
fn audit(
    spec: &ProbeSpec,
    (seed, served_dir, served): &(u64, PathBuf, Served),
    ref_dir: Option<&Path>,
    tr: Option<&Tracer>,
    report: &mut Report,
) -> Option<model::Drive> {
    let opts = match ref_dir {
        Some(dir) => RunStore::open(dir).map(RunOptions::journaled),
        None => Ok(RunOptions::default()),
    };
    let reference = opts.map_err(|e| e.to_string()).and_then(|mut opts| {
        model::drive(&forrester, spec.config(), *seed, &mut opts, tr, Clock::Wall)
            .map_err(|e| e.to_string())
    });
    let reference = report.attempt(reference, format!("in-process reference seed {seed}"))?;
    report.check(
        Served::of(&reference.outcome) == *served,
        format!("seed {seed}: served outcome equals the in-process run"),
    );
    let resumed = RunStore::open(served_dir)
        .map_err(|e| e.to_string())
        .and_then(|store| {
            model::drive(
                &forrester,
                spec.config(),
                *seed,
                &mut RunOptions::resuming(store),
                None,
                Clock::Wall,
            )
            .map_err(|e| e.to_string())
        });
    if let Some(resumed) = report.attempt(resumed, format!("resume of served journal seed {seed}"))
    {
        let stats = &resumed.outcome.eval_stats;
        report.check(
            stats.fresh == 0 && stats.replayed > 0 && Served::of(&resumed.outcome) == *served,
            format!(
                "seed {seed}: served journal resumes with {} fresh / {} replayed evaluations",
                stats.fresh, stats.replayed
            ),
        );
    }
    Some(reference)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if args.trace {
        traced(args, &mut report);
    } else {
        end_to_end(args, &mut report);
    }
    report
}

fn end_to_end(args: &Args, report: &mut Report) {
    let spec = fanout_spec(args.seed);
    let root = work_dir("fanout");
    let mut lat_default = Vec::new();
    let mut lat_single = Vec::new();
    let mut rps = Vec::new();
    let mut cpu_single = Vec::new();
    let mut rps_single_wall = Vec::new();
    let mut run_ms_single = Vec::new();
    let mut setups = Vec::new();
    let mut turns = Vec::new();
    let mut first = 0u64;
    // A discarded warm-up loop: the first boot pays page-in and allocator
    // growth.
    let _ = measure(Arm::AllCores, &spec, u64::MAX / 2, &root, report);
    // A fixed number of rounds for a given --seconds, so the boots and runs
    // a process makes, and with them its memory, do not depend on how fast
    // the machine is today. Only on a host so busy that the rounds overrun
    // --seconds does the measurement stop early.
    let rounds = ((args.seconds / ROUND_SECONDS) as u64).max(2);
    let t0 = Instant::now();
    for round in 0..rounds {
        let arms = if round % 2 == 0 {
            [Arm::AllCores, Arm::OneCore]
        } else {
            [Arm::OneCore, Arm::AllCores]
        };
        for arm in arms {
            let Some((l, setup_s)) = measure(arm, &spec, first, &root, report) else {
                continue;
            };
            first += LOOP_RUNS as u64;
            setups.push(setup_s);
            if arm == Arm::AllCores {
                rps.push(LOOP_RUNS as f64 / l.wall_s);
                lat_default.extend(&l.latency_ms);
            } else {
                // The CPU busy for the whole loop, a run's latency scales
                // like the loop: by the share of it the host left the CPU
                // to the process.
                let cpu_share = l.cpu_s / l.wall_s;
                cpu_single.push(l.cpu_s);
                rps_single_wall.push(LOOP_RUNS as f64 / l.wall_s);
                run_ms_single.push(stats::median(&l.latency_ms) * cpu_share);
                lat_single.extend(&l.latency_ms);
            }
            // Unjournaled, so the timed turns do not follow the file
            // system's latency (see the module docs).
            for a in &l.audited {
                if let Some(d) = audit(&spec, a, None, None, report) {
                    turns.extend(d.turn_ms);
                }
            }
        }
        if report.failed > 0 || (round >= 1 && t0.elapsed().as_secs_f64() > args.seconds) {
            break;
        }
    }
    report.note(format!(
        "{} runs per arm over {} loops of {rounds} planned; {} in-process turns timed",
        lat_default.len(),
        rps.len(),
        turns.len()
    ));
    report.note(format!(
        "runs_per_s per loop at the default config: {:?}",
        rps.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    report.note(format!(
        "default config, not bounded: run_ms_p50 = {:.3} ms, run_ms_p99 = {:.3} ms ({} runs), runs_per_s = {:.1}",
        stats::percentile(&lat_default, 50).unwrap_or(f64::NAN),
        stats::percentile(&lat_default, 99).unwrap_or(f64::NAN),
        lat_default.len(),
        stats::median(&rps)
    ));
    report.note(format!(
        "one shard + one worker on one CPU, wall clock, not bounded: run_ms_p50 = {:.3} ms, run_ms_p99 = {:.3} ms ({} runs), runs_per_s = {:.1}",
        stats::percentile(&lat_single, 50).unwrap_or(f64::NAN),
        stats::percentile(&lat_single, 99).unwrap_or(f64::NAN),
        lat_single.len(),
        stats::median(&rps_single_wall)
    ));
    // Means over the loops, not medians: the per-loop figures of one
    // process fall into a fast and a slow cluster, for spells of several
    // loops at a time, and a median jumps between the two.
    report.metric("run_s_serial", stats::mean(&run_ms_single) / 1e3, "s");
    report.metric(
        "suggest_ms_p50",
        stats::percentile(&turns, 50).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "suggest_ms_p90",
        stats::percentile(&turns, 90).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "runs_per_s",
        (cpu_single.len() * LOOP_RUNS) as f64 / cpu_single.iter().sum::<f64>(),
        "1/s",
    );
    report.metric("setup_s", stats::median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

fn traced(args: &Args, report: &mut Report) {
    let spec = fanout_spec(args.seed);
    let root = work_dir("fanout");
    let tracer = Tracer::default();
    let _ = measure(Arm::AllCores, &spec, u64::MAX / 2, &root, report);
    // Untraced and traced loops alternate, twice each; the one-shard,
    // one-worker server runs twice too. The first traced loop's audited
    // runs are re-run in-process under the tracer before the journal
    // directories are reused.
    let sink = Arc::new(CountingSink::default());
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut single = Vec::new();
    let mut runs = Vec::new();
    for rep in 0..2u64 {
        let first = rep * LOOP_RUNS as u64;
        untraced.extend(measure(Arm::AllCores, &spec, first, &root, report).map(|m| m.0));
        mfbo_telemetry::set_global_sink(sink.clone());
        let t = {
            let _g = tracer.span("server.closed_loop");
            measure(Arm::AllCores, &spec, first, &root, report)
        };
        mfbo_telemetry::clear_global_sink();
        if let Some((t, _)) = t {
            if rep == 0 {
                for (k, a) in t.audited.iter().enumerate() {
                    let run = 10 + k as u32;
                    tracer.set_run(run);
                    let ref_dir = root.join(format!("ref{k}"));
                    if let Some(d) = audit(&spec, a, Some(&ref_dir), Some(&tracer), report) {
                        runs.push((run, d.outcome));
                    }
                }
                tracer.set_run(0);
            }
            traced.push(t);
        }
        single.extend(measure(Arm::OneCore, &spec, first, &root, report).map(|m| m.0));
    }
    if untraced.len() < 2 || traced.len() < 2 || single.len() < 2 {
        return;
    }
    let wall = |ls: &[Loop]| stats::median(&ls.iter().map(|l| l.wall_s).collect::<Vec<_>>());
    let latency = |ls: &[Loop]| {
        stats::median(
            &ls.iter()
                .flat_map(|l| l.latency_ms.iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    report.note(format!(
        "median loop of {LOOP_RUNS} runs: untraced {:.3} s, traced {:.3} s, one shard + one worker on one CPU {:.3} s",
        wall(&untraced),
        wall(&traced),
        wall(&single)
    ));

    // Ask/tell-loop layers from the in-process audits of the traced loop.
    let Some(first) = runs.first().map(|(_, o)| o.clone()) else {
        return;
    };
    let pairs: Vec<(u32, &Outcome)> = runs.iter().map(|(r, o)| (*r, o)).collect();
    model::loop_layers(&tracer, &pairs, report);
    model::counter_layers(&sink, (traced.len() * LOOP_RUNS) as f64, report);
    report.metric(
        "telemetry.trace_overhead",
        wall(&traced) / wall(&untraced),
        "ratio",
    );
    report.metric("pool.run_s", latency(&untraced) / 1e3, "s");
    report.metric(
        "pool.speedup",
        latency(&single) / latency(&untraced),
        "ratio",
    );
    model::quality_layers(&first, report);

    tracer.set_run(1);
    let problem = forrester();
    probes::run(
        &tracer,
        &first,
        &*problem,
        &spec.config(),
        spec.seed,
        report,
    );
    tracer.set_run(2);
    probe(&tracer, &spec, report);
    let path = work_dir("spans").join(format!(
        "{}-{}-{}.jsonl",
        args.workload,
        args.seed,
        std::process::id()
    ));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// The service probe: a default-config server, [`PROBE_RUNS`] journaled
/// runs of `spec` started and then awaited in strict request/reply, each
/// request in its own span. Reports the start latency, the request rate
/// and the journal bytes per run.
pub fn probe(tracer: &Tracer, spec: &ProbeSpec, report: &mut Report) {
    let _p = tracer.span("server.probe");
    let root = work_dir("probe");
    let Some(mut b) = report.attempt(boot(ServerConfig::default()), "probe server boot") else {
        return;
    };
    let t0 = Instant::now();
    let mut start_us = Vec::new();
    for i in 0..PROBE_RUNS {
        let req = spec.start_req(
            &format!("p{i}"),
            model::sub_seed(spec.seed, i as u64),
            Some(&root.join(format!("p{i}"))),
        );
        let _g = span(Some(tracer), "server.start");
        let t = Instant::now();
        let r = b.control.expect_ok(&req);
        start_us.push(t.elapsed().as_secs_f64() * 1e6);
        report.attempt(r, format!("probe start p{i}"));
    }
    for i in 0..PROBE_RUNS {
        let req = obj(vec![
            ("op", Json::Str("wait".into())),
            ("run", Json::Str(format!("p{i}"))),
        ]);
        let _g = span(Some(tracer), "server.wait");
        if let Some(reply) = report.attempt(b.control.expect_ok(&req), format!("probe wait p{i}")) {
            report.check(
                reply.get("state").and_then(Json::as_str) == Some("done"),
                format!("probe run p{i} finished"),
            );
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    shutdown(b, report);
    let bytes: u64 = (0..PROBE_RUNS)
        .filter_map(|i| std::fs::metadata(root.join(format!("p{i}")).join("journal.jsonl")).ok())
        .map(|m| m.len())
        .sum();
    report.metric(
        "server.start_us_p50",
        stats::percentile(&start_us, 50).unwrap_or(f64::NAN),
        "us",
    );
    report.metric(
        "server.requests_per_s",
        (2 * PROBE_RUNS) as f64 / secs,
        "1/s",
    );
    report.metric(
        "runstore.journal_bytes_per_run",
        bytes as f64 / PROBE_RUNS as f64,
        "bytes",
    );
}

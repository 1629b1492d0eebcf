//! The `fleet` and `durable` workloads: whole fleet runs, each from a
//! fresh plan, driven through the fleet crate's public calls.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

use fleet::{Fleet, FleetConfig, FleetOracle, FleetPlan, FleetReport};
use memcon::engine::MemconEngine;
use store::DurabilityMode;
use telemetry::{Class, Registry};

use crate::probe::{self, Tracer};
use crate::{Args, Outcome};

/// End-to-end runs are single-threaded: on a small shared host a second
/// worker measures the co-tenants, not the program. Parallel speed-up is
/// reported by the traced run only.
const JOBS: usize = 1;

/// `fleet`: 512 content-oracle nodes over 120 s windows at scale 0.05, so
/// each shard sees many PRIL quanta and a real long-interval tail.
fn fleet_config(seed: u64) -> FleetConfig {
    let mut c = FleetConfig::small(512, seed);
    c.scale = 0.05;
    c.window_s = 120.0;
    c.epoch_quanta = 4;
    c.oracle = FleetOracle::Content { rows_per_bank: 32 };
    c
}

/// `durable`: 48 rate-oracle nodes over 128 s windows at scale 0.25,
/// journaling to a store under `dir` and snapshotting every 32 quanta.
/// Every snapshot is a new file plus a new WAL segment, and each run's
/// store is deleted afterwards; on a disk-backed checkout, creating files
/// slows down while many were deleted recently, so the fleet has few, large
/// shards and long epochs: about 700 files a run.
fn durable_config(seed: u64, dir: &Path, mode: DurabilityMode) -> FleetConfig {
    let mut c = FleetConfig::small(48, seed);
    c.scale = 0.25;
    c.window_s = 128.0;
    c.epoch_quanta = 32;
    c.store_dir = Some(dir.to_path_buf());
    c.durability = mode;
    c
}

/// Fleet seed of repetition `rep` of a run with seed `seed`. A fleet's size,
/// and so its run time, depends on which Table-1 workloads its nodes draw;
/// giving each repetition its own draw makes a run's median a median over
/// several fleets rather than one.
fn rep_seed(seed: u64, rep: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(rep)
}

fn log_rep(workload: &str, rep: u64, leg: &Leg) {
    let t = leg.times;
    eprintln!(
        "perfbench: {workload} repetition {rep} (fleet seed {}): wall {:.3} s, expand {:.3} s, \
         new {:.3} s, run {:.3} s, recover {:.3} s, {} events, peak RSS {:.1} MB",
        leg.plan.config.seed,
        t.wall,
        t.expand,
        t.new,
        t.run,
        t.recover,
        leg.events,
        leg.peak_rss_mb
    );
}

/// Host times of one fleet run, seconds.
#[derive(Debug, Default, Clone, Copy)]
struct Times {
    expand: f64,
    new: f64,
    run: f64,
    recover: f64,
    report: f64,
    wall: f64,
}

/// One fleet run: plan, report and timings.
struct Leg {
    plan: FleetPlan,
    fleet: Fleet,
    report: FleetReport,
    times: Times,
    events: u64,
    /// Peak RSS of the process when the run finished (before any check).
    peak_rss_mb: f64,
    /// Index of the run's root span (traced tracers only).
    root: Option<usize>,
}

fn events(plan: &FleetPlan) -> u64 {
    plan.shards.iter().map(|s| s.trace.len() as u64).sum()
}

/// The epoch at which the `durable` run is crashed: half way through.
fn crash_epoch(plan: &FleetPlan) -> u64 {
    let epoch_ns = (plan.config.engine.quantum_ms * 1e6) as u64 * plan.config.epoch_quanta;
    let horizon = plan
        .shards
        .iter()
        .map(|s| s.trace.duration_ns())
        .max()
        .unwrap_or(0);
    (horizon.div_ceil(epoch_ns) / 2).max(1)
}

/// Runs `config` from a fresh plan to its report: `expand` → `new` →
/// `run_epoch` until done → `report`, each call a span. With `crash`, the
/// fleet is dropped at the mid-run barrier and resumed by
/// `Fleet::recover`.
fn run_leg(tr: &mut Tracer, config: &FleetConfig, jobs: usize, crash: bool) -> Result<Leg, String> {
    let root = tr.open("workload");
    let mut t = Times::default();
    let (plan, expand) = tr.time("memtrace.expand", || FleetPlan::expand(config, jobs));
    t.expand = expand;
    let (mut fleet, new) = tr.time("fleet.new", || Fleet::new(&plan));
    t.new = new;
    let mut crash_at = crash.then(|| crash_epoch(&plan));
    loop {
        if crash_at == Some(fleet.epoch()) {
            crash_at = None;
            let span = tr.open("fleet.crash");
            drop(fleet);
            tr.close(span);
            let (recovered, secs) = tr.time("fleet.recover", || Fleet::recover(&plan, jobs));
            t.recover = secs;
            fleet = recovered.map_err(|e| format!("Fleet::recover: {e}"))?.0;
        }
        let (more, secs) = tr.time("fleet.run_epoch", || fleet.run_epoch(jobs));
        t.run += secs;
        if !more {
            break;
        }
    }
    let (report, secs) = tr.time("fleet.report", || fleet.report());
    t.report = secs;
    t.wall = tr.close(root);
    let events = events(&plan);
    Ok(Leg {
        plan,
        fleet,
        report,
        times: t,
        events,
        peak_rss_mb: probe::peak_rss_mb(),
        root: tr.last("workload"),
    })
}

fn check_fleet(out: &mut Outcome, leg: &Leg) {
    let escapes = leg.report.uncorrectable_escapes;
    let result = if escapes > 0 {
        Err(format!("{escapes} uncorrectable escapes"))
    } else {
        leg.fleet.verify_refresh_correctness()
    };
    out.check("fleet run", result);
}

/// A fresh, enabled registry for a traced leg.
fn traced_registry() -> Arc<Registry> {
    let registry = Arc::new(Registry::new());
    registry.set_enabled(true);
    registry
}

fn counter(registry: &Registry, name: &str) -> f64 {
    registry.counter(name, Class::Deterministic).get() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layer metrics every traced fleet leg yields, from its registry.
fn layer_metrics(out: &mut Outcome, registry: &Registry, leg: &Leg, tr: &Tracer) {
    let t = leg.times;
    let events = leg.events as f64;
    let step_s = registry
        .histogram(
            "fleet.step.latency_us",
            Class::Timing,
            &fleet::engine::STEP_LATENCY_EDGES_US,
        )
        .sum() as f64
        / 1e6;
    out.set("memtrace.synth_s", t.expand);
    out.set("memtrace.events", events);
    out.set("memtrace.events_per_s", events / t.expand);
    out.set("memcon.step_s", step_s);
    out.set("memcon.ns_per_event", step_s * 1e9 / events);
    out.set(
        "memcon.step_us_p50",
        leg.report.step_latency.p50_ns as f64 / 1e3,
    );
    out.set(
        "memcon.step_us_p99",
        leg.report.step_latency.p99_ns as f64 / 1e3,
    );
    for name in [
        "memcon.pril.writes",
        "memcon.pril.quanta",
        "memcon.tests.started",
    ] {
        out.set(name, counter(registry, name));
    }
    let transitions: f64 = ["to_hi", "to_lo", "to_testing"]
        .iter()
        .map(|s| counter(registry, &format!("memcon.refresh.{s}")))
        .sum();
    out.set("memcon.refresh.transitions", transitions);
    out.set(
        "memcon.pril.candidate_ratio",
        ratio(
            counter(registry, "memcon.pril.candidates"),
            counter(registry, "memcon.pril.inserted"),
        ),
    );
    // Content shards reach the failure model through the oracle's verdict
    // memo: a miss is one row evaluation, a hit one avoided.
    let misses = counter(registry, "memcon.oracle.memo_misses");
    let hits = counter(registry, "memcon.oracle.memo_hits");
    out.set("failure_model.eval.rows", misses);
    out.set("failure_model.cache.hit_ratio", ratio(hits, hits + misses));
    out.set("fleet.new_s", t.new);
    out.set("fleet.run_s", t.run);
    out.set("fleet.epochs", leg.report.epochs as f64);
    out.set("fleet.barrier_s", t.run - step_s);
    out.set("fleet.report_s", t.report);
    out.set(
        "refresh_reduction_pct",
        leg.report.refresh_reduction * 100.0,
    );
    if let Some(root) = leg.root {
        out.set(
            "trace.coverage_pct",
            100.0 * tr.covered_s(root) / tr.duration_s(root),
        );
    }
}

/// Role of a child process: `rep <fleet|durable> <seed> <rep>` runs one
/// untraced repetition and reports it as `metric <name> <value>` lines and
/// a final `checks <attempted> <failed>` line.
pub const REP: &str = "rep";

/// Untraced `fleet` and `durable` runs: every repetition in a fresh child
/// process, so that each pays what a fresh run pays and reports its own
/// peak RSS.
fn repetitions(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    let mut rep = 0u64;
    while rep == 0 || start.elapsed().as_secs_f64() < args.seconds {
        for (name, value) in rep_child(&args.workload, args.seed, rep, &mut out)? {
            samples.entry(name).or_default().push(value);
        }
        rep += 1;
    }
    for (name, values) in &samples {
        out.set(name, probe::median(values));
    }
    Ok(out)
}

fn rep_child(
    workload: &str,
    seed: u64,
    rep: u64,
    out: &mut Outcome,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([REP, workload, &seed.to_string(), &rep.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running repetition {rep}: {e}"))?;
    if !output.status.success() {
        return Err(format!("repetition {rep} exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let mut metrics = Vec::new();
    let mut checks = None;
    for line in text.lines() {
        let w: Vec<&str> = line.split(' ').collect();
        let num = |s: &str| {
            s.parse::<f64>()
                .map_err(|_| format!("bad line from repetition {rep}: {line}"))
        };
        match w.as_slice() {
            ["metric", name, value] => metrics.push(((*name).to_string(), num(value)?)),
            ["checks", attempted, failed] => checks = Some((num(attempted)?, num(failed)?)),
            _ => return Err(format!("bad line from repetition {rep}: {line}")),
        }
    }
    let (attempted, failed) = checks.ok_or(format!("repetition {rep} reported no checks"))?;
    out.attempted += attempted as u64;
    out.failed += failed as u64;
    Ok(metrics)
}

/// Child role: one untraced repetition of `fleet` or `durable`.
pub fn rep_main(argv: &[String]) -> ExitCode {
    let parsed = (|| -> Option<(&str, u64, u64)> {
        Some((
            argv.first()?.as_str(),
            argv.get(1)?.parse().ok()?,
            argv.get(2)?.parse().ok()?,
        ))
    })();
    let Some((workload, seed, rep)) = parsed else {
        eprintln!("perfbench: usage: {REP} <fleet|durable> <seed> <rep>");
        return ExitCode::from(2);
    };
    let mut out = Outcome::default();
    let result = crate::checkout_root().and_then(|root| match workload {
        "fleet" => fleet_rep(seed, rep, &mut out),
        "durable" => durable_rep(&root, seed, rep, &mut out),
        other => Err(format!("unknown workload '{other}'")),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    for (name, value) in &out.metrics {
        println!("metric {name} {value:?}");
    }
    println!("checks {} {}", out.attempted, out.failed);
    ExitCode::SUCCESS
}

fn fleet_rep(seed: u64, rep: u64, out: &mut Outcome) -> Result<(), String> {
    let config = fleet_config(rep_seed(seed, rep));
    let leg = run_leg(&mut Tracer::new(false), &config, JOBS, false)?;
    log_rep("fleet", rep, &leg);
    out.set("wall_s", leg.times.wall);
    out.set("setup_s", leg.times.expand + leg.times.new);
    out.set("peak_rss_mb", leg.peak_rss_mb);
    check_fleet(out, &leg);
    if rep == 0 {
        // Determinism at jobs 1 vs 2, checked once per invocation, untimed.
        let emit = Fleet::new(&leg.plan)
            .run_to_completion(2)
            .deterministic_emit();
        let same = emit == leg.report.deterministic_emit();
        out.check(
            "fleet report at jobs 1 vs 2",
            if same {
                Ok(())
            } else {
                Err("deterministic_emit differs".into())
            },
        );
    }
    Ok(())
}

fn durable_rep(root: &Path, seed: u64, rep: u64, out: &mut Outcome) -> Result<(), String> {
    let base = store_base(root)?;
    let config = durable_config(
        rep_seed(seed, rep),
        &base.join("run"),
        DurabilityMode::Buffered,
    );
    let leg = durable_leg(out, &mut Tracer::new(false), &config, None, rep == 0);
    let _ = std::fs::remove_dir(&base);
    let (leg, _) = leg?;
    log_rep("durable", rep, &leg);
    out.set("wall_s", leg.times.wall);
    out.set("setup_s", leg.times.expand + leg.times.new);
    out.set("peak_rss_mb", leg.peak_rss_mb);
    Ok(())
}

/// A fresh per-process directory for store roots, inside the checkout.
fn store_base(root: &Path) -> Result<PathBuf, String> {
    let base = crate::out_dir(root).join(format!("store-{}", std::process::id()));
    std::fs::create_dir_all(&base).map_err(|e| format!("{}: {e}", base.display()))?;
    eprintln!(
        "perfbench: store root {} ({})",
        base.display(),
        probe::fs_type(&base)
    );
    Ok(base)
}

/// The `fleet` workload.
pub fn fleet(args: &Args, root: &Path) -> Result<Outcome, String> {
    if !args.trace {
        return repetitions(args);
    }
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut tr = Tracer::new(true);
    let jobs_par = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let config = fleet_config(rep_seed(args.seed, rounds.len() as u64));
        let mut round = Outcome::default();
        // The rate-oracle leg runs first so that the two legs compared for
        // tracing overhead both start from a warm allocator.
        let mut rate_config = config.clone();
        rate_config.oracle = FleetOracle::Rate {
            fail_rate: memcon::engine::DEFAULT_FAIL_RATE,
        };
        let rate = run_leg(&mut Tracer::new(false), &rate_config, JOBS, false)?;
        check_fleet(&mut out, &rate);
        let rate_times = rate.times;
        drop(rate);
        let plain = run_leg(&mut Tracer::new(false), &config, JOBS, false)?;
        check_fleet(&mut out, &plain);
        let plain_times = plain.times;
        round.set("events_per_s", plain.events as f64 / plain_times.wall);
        round.set(
            "failure_model.oracle_s",
            (plain_times.new + plain_times.run) - (rate_times.new + rate_times.run),
        );
        drop(plain);
        let traced = {
            let registry = traced_registry();
            let guard = telemetry::install(Arc::clone(&registry));
            let leg = run_leg(&mut tr, &config, JOBS, false)?;
            drop(guard);
            layer_metrics(&mut round, &registry, &leg, &tr);
            leg
        };
        check_fleet(&mut out, &traced);
        round.set(
            "telemetry.overhead_pct",
            100.0 * (traced.times.wall - plain_times.wall) / plain_times.wall,
        );
        drop(traced);
        let par = run_leg(&mut Tracer::new(false), &config, jobs_par, false)?;
        check_fleet(&mut out, &par);
        round.set("par.speedup", plain_times.run / par.times.run);
        drop(par);
        rounds.push(round);
    }
    crate::medians(&rounds, &mut out);
    eprintln!(
        "perfbench: traced fleet rounds {} (par jobs {jobs_par})",
        rounds.len()
    );
    out.set_error_rate();
    crate::write_spans(&tr, root, args);
    Ok(out)
}

/// Checks a finished durable leg, measures its footprint, and removes its
/// store root. Returns the bytes the store held at run end. With
/// `shard_stores`, every shard store is also reopened, which writes to it:
/// a run checks that once, to keep file churn out of later repetitions.
fn settle_durable(out: &mut Outcome, leg: &Leg, dir: &Path, shard_stores: bool) -> u64 {
    let bytes = probe::dir_bytes(dir);
    check_fleet(out, leg);
    let meta = match leg.fleet.meta_store_error() {
        Some(e) => Err(format!("meta store error latched: {e}")),
        None => Ok(()),
    };
    out.check("fleet meta store", meta);
    // A shard whose store latched an error stops journaling, so its newest
    // snapshot is still mid-run; a clean shard's last snapshot is the
    // finished run.
    let mode = leg.plan.config.durability;
    if shard_stores && mode != DurabilityMode::InMemory {
        let mut shards = Ok(());
        for spec in &leg.plan.shards {
            let shard_dir = fleet::durable::shard_dir(dir, spec.node);
            match MemconEngine::recover(&shard_dir, mode, None) {
                Ok((engine, _)) if !engine.mid_run() => {}
                Ok(_) => shards = Err(format!("shard {} store stopped mid-run", spec.node)),
                Err(e) => shards = Err(format!("shard {} store: {e}", spec.node)),
            }
        }
        out.check("shard stores", shards);
    }
    // An in-memory store never creates its directory.
    let removed = if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))
    } else {
        Ok(())
    }
    .and_then(|()| {
        if dir.exists() {
            Err(format!("{} still exists", dir.display()))
        } else {
            Ok(())
        }
    });
    out.check("store root removed", removed);
    bytes
}

/// The uninterrupted storeless run of `plan`, the reference a recovered
/// run must reproduce.
fn reference_emit(plan: &FleetPlan) -> String {
    let mut plan = plan.clone();
    plan.config.store_dir = None;
    Fleet::new(&plan)
        .run_to_completion(JOBS)
        .deterministic_emit()
}

/// One crashed-and-recovered durable run, fully checked. With `registry`,
/// the run (not its checks) records into that registry.
fn durable_leg(
    out: &mut Outcome,
    tr: &mut Tracer,
    config: &FleetConfig,
    registry: Option<&Arc<Registry>>,
    shard_stores: bool,
) -> Result<(Leg, u64), String> {
    let dir = config
        .store_dir
        .clone()
        .expect("durable configs name a store");
    let guard = registry.map(|r| telemetry::install(Arc::clone(r)));
    let leg = run_leg(tr, config, JOBS, true)?;
    drop(guard);
    let bytes = settle_durable(out, &leg, &dir, shard_stores);
    let same = reference_emit(&leg.plan) == leg.report.deterministic_emit();
    out.check(
        "recovered report vs uninterrupted storeless run",
        if same {
            Ok(())
        } else {
            Err("deterministic_emit differs".into())
        },
    );
    Ok((leg, bytes))
}

/// The `durable` workload.
pub fn durable(args: &Args, root: &Path) -> Result<Outcome, String> {
    if !args.trace {
        return repetitions(args);
    }
    let base = store_base(root)?;
    let mut runs = 0u64;
    let mut fresh_dir = || {
        runs += 1;
        base.join(format!("run-{runs}"))
    };
    let mut out = Outcome::default();
    let result = durable_traced(args, root, &mut out, &mut fresh_dir, Instant::now());
    let _ = std::fs::remove_dir(&base);
    result.map(|()| out)
}

fn durable_traced(
    args: &Args,
    root: &Path,
    out: &mut Outcome,
    fresh_dir: &mut impl FnMut() -> PathBuf,
    start: Instant,
) -> Result<(), String> {
    let mut tr = Tracer::new(true);
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let seed = rep_seed(args.seed, rounds.len() as u64);
        let mut round = Outcome::default();
        // Attribution legs: the same plan, uninterrupted, with no store and
        // in each durability mode. They run first so that the two legs
        // compared for tracing overhead both start from a warm allocator.
        let mut cost = |mode: Option<DurabilityMode>, out: &mut Outcome| -> Result<f64, String> {
            let dir = fresh_dir();
            let mut config = durable_config(seed, &dir, mode.unwrap_or_default());
            if mode.is_none() {
                config.store_dir = None;
            }
            let leg = run_leg(&mut Tracer::new(false), &config, JOBS, false)?;
            if mode.is_some() {
                settle_durable(out, &leg, &dir, false);
            } else {
                check_fleet(out, &leg);
            }
            Ok(leg.times.new + leg.times.run + leg.times.report)
        };
        let none = cost(None, out)?;
        let in_memory = cost(Some(DurabilityMode::InMemory), out)?;
        let buffered = cost(Some(DurabilityMode::Buffered), out)?;
        let strict = cost(Some(DurabilityMode::Strict), out)?;
        round.set("store.journal_s", in_memory - none);
        round.set("store.io_s", buffered - in_memory);
        round.set("store.strict_extra_s", strict - buffered);
        let config = durable_config(seed, &fresh_dir(), DurabilityMode::Buffered);
        let first = rounds.is_empty();
        let (plain, bytes) = durable_leg(out, &mut Tracer::new(false), &config, None, first)?;
        let events = plain.events as f64;
        round.set("events_per_s", events / plain.times.wall);
        round.set("recover_s", plain.times.recover);
        round.set("disk_bytes_per_event", bytes as f64 / events);
        let plain_wall = plain.times.wall;
        drop(plain);
        let config = durable_config(seed, &fresh_dir(), DurabilityMode::Buffered);
        let registry = traced_registry();
        let (leg, _) = durable_leg(out, &mut tr, &config, Some(&registry), false)?;
        layer_metrics(&mut round, &registry, &leg, &tr);
        round.set("store.recover_s", leg.times.recover);
        for name in [
            "store.wal.appends",
            "store.snap.published",
            "store.recovery.replayed_records",
        ] {
            round.set(name, counter(&registry, name));
        }
        round.set(
            "store.wal.bytes_per_event",
            counter(&registry, "store.wal.bytes") / events,
        );
        round.set(
            "telemetry.overhead_pct",
            100.0 * (leg.times.wall - plain_wall) / plain_wall,
        );
        rounds.push(round);
    }
    crate::medians(&rounds, out);
    eprintln!("perfbench: traced durable rounds {}", rounds.len());
    out.set_error_rate();
    crate::write_spans(&tr, root, args);
    Ok(())
}

//! The `paper` workload: every experiment id through `run_experiment` at
//! `RunOptions::quick()`, one figure at a time, in a fresh child process
//! per repetition — a user's `memcon-experiments --quick all` pays process
//! start and cold caches every time, and a process of its own isolates the
//! run's peak RSS.
//!
//! The child speaks a line protocol on stdout: `ready` just before the
//! first figure starts, one `fig` line per figure, `counter` lines when
//! traced, and a final `hwm` line with its peak RSS.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use experiments::{run_experiment, RunOptions, ALL_EXPERIMENTS};

use crate::probe::{self, Tracer};
use crate::{Args, Outcome};

/// First argument that selects the child role.
pub const CHILD: &str = "paper-child";

/// Registry counters the traced child reports.
const COUNTERS: [&str; 7] = [
    "memsim.sim.cycles",
    "failure_model.eval.rows",
    "failure_model.cache.warm_hits",
    "failure_model.cache.cold_fills",
    "memcon.oracle.memo_hits",
    "memcon.oracle.memo_misses",
    "memcon.pril.writes",
];

/// Fig. 6 rows the paper states exactly: (mode, LO-REF ms, MinWriteInterval ms).
const FIG6_EXACT: [(&str, u32, u32); 4] = [
    ("Read", 64, 560),
    ("Copy", 64, 864),
    ("Read", 128, 480),
    ("Read", 256, 448),
];

fn check_fig6(text: &str) -> Result<(), String> {
    let rows: Vec<(String, u32, u32)> = text
        .lines()
        .filter_map(|l| {
            let w: Vec<&str> = l.split_whitespace().collect();
            // "Read and Compare  64 ms   560 ms"
            if w.len() == 7 && w[1] == "and" && w[4] == "ms" && w[6] == "ms" {
                Some((w[0].to_string(), w[3].parse().ok()?, w[5].parse().ok()?))
            } else {
                None
            }
        })
        .collect();
    for (mode, lo, mwi) in FIG6_EXACT {
        let got = rows.iter().find(|r| r.0 == mode && r.1 == lo).map(|r| r.2);
        if got != Some(mwi) {
            return Err(format!("{mode} @ {lo} ms: want {mwi} ms, got {got:?}"));
        }
    }
    Ok(())
}

fn digest(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// Samples `VmRSS` every couple of milliseconds, keeping the maximum since
/// the last reset: per-figure peak RSS inside one process.
struct RssSampler {
    max_kb: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl RssSampler {
    fn start() -> RssSampler {
        let max_kb = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (m, s) = (Arc::clone(&max_kb), Arc::clone(&stop));
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                m.fetch_max((probe::rss_mb() * 1024.0) as u64, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        RssSampler {
            max_kb,
            stop,
            handle,
        }
    }

    /// Peak since the previous call, MB; restarts the window.
    fn take_mb(&self) -> f64 {
        let now = (probe::rss_mb() * 1024.0) as u64;
        self.max_kb.swap(now, Ordering::Relaxed).max(now) as f64 / 1024.0
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("RSS sampler thread panicked");
    }
}

/// Set-up-only launches per invocation: process start is about a
/// millisecond, so `setup_s` is the median of many launches.
const SETUP_LAUNCHES: usize = 15;

/// Child role: `paper-child <seed> <jobs> <trace 0|1> <figures all|none>`.
pub fn child_main(argv: &[String]) -> ExitCode {
    let parsed = (|| -> Option<(u64, usize, bool, bool)> {
        Some((
            argv.first()?.parse().ok()?,
            argv.get(1)?.parse().ok()?,
            argv.get(2)? == "1",
            argv.get(3)? == "all",
        ))
    })();
    let Some((seed, jobs, traced, figures)) = parsed else {
        eprintln!("perfbench: usage: {CHILD} <seed> <jobs> <trace 0|1> <figures all|none>");
        return ExitCode::from(2);
    };
    let ids: &[&str] = if figures { &ALL_EXPERIMENTS } else { &[] };
    let opts = RunOptions {
        seed,
        jobs,
        ..RunOptions::quick()
    };
    let registry = traced.then(|| {
        let r = Arc::new(telemetry::Registry::new());
        r.set_enabled(true);
        r
    });
    let guard = registry.as_ref().map(|r| telemetry::install(Arc::clone(r)));
    let sampler = traced.then(RssSampler::start);
    let mut stdout = std::io::stdout().lock();
    let origin = Instant::now();
    let _ = writeln!(stdout, "ready");
    let _ = stdout.flush();
    for &id in ids {
        if let Some(s) = &sampler {
            s.take_mb();
        }
        let start = origin.elapsed().as_nanos();
        let result = run_experiment(id, &opts);
        let end = origin.elapsed().as_nanos();
        let peak = sampler.as_ref().map_or(0.0, RssSampler::take_mb);
        let (hash, status) = match &result {
            Ok(text) if id == "fig6" => (
                digest(text),
                check_fig6(text).map_or_else(|e| format!("fail {e}"), |()| "ok".into()),
            ),
            Ok(text) => (digest(text), "ok".to_string()),
            Err(e) => (0, format!("fail {e}")),
        };
        let _ = writeln!(stdout, "fig {id} {start} {end} {hash:016x} {peak} {status}");
        let _ = stdout.flush();
    }
    drop(guard);
    if let Some(s) = sampler {
        s.stop();
    }
    if let Some(r) = &registry {
        for name in COUNTERS {
            let v = r.counter(name, telemetry::Class::Deterministic).get();
            let _ = writeln!(stdout, "counter {name} {v}");
        }
    }
    let _ = writeln!(stdout, "hwm {}", probe::peak_rss_mb());
    ExitCode::SUCCESS
}

/// One figure as the child reported it.
#[derive(Debug, Clone)]
struct Fig {
    id: String,
    start_ns: u64,
    end_ns: u64,
    hash: String,
    peak_mb: f64,
    status: String,
}

impl Fig {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// One child run, timed from the parent.
#[derive(Debug, Default)]
struct Run {
    /// Launch to `ready`: process start before the first figure.
    setup_s: f64,
    /// Launch to exit.
    wall_s: f64,
    figs: Vec<Fig>,
    counters: BTreeMap<String, f64>,
    hwm_mb: f64,
}

/// Launches one child and collects its report. With an enabled tracer the
/// child's figures become spans under a `workload` root. Without
/// `figures`, the child stops where the first figure would start.
fn run_child(
    tr: &mut Tracer,
    seed: u64,
    jobs: usize,
    traced: bool,
    figures: bool,
) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let root = tr.open("workload");
    let launch_ns = tr.now_ns();
    let mut child = Command::new(exe)
        .args([
            CHILD,
            &seed.to_string(),
            &jobs.to_string(),
            if traced { "1" } else { "0" },
            if figures { "all" } else { "none" },
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning the paper child: {e}"))?;
    let stdout = child.stdout.take().expect("child stdout is piped");
    let mut run = Run::default();
    let mut ready_ns = None;
    let read = (|| -> Result<(), String> {
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("reading the paper child: {e}"))?;
            let w: Vec<&str> = line.splitn(8, ' ').collect();
            match w.as_slice() {
                ["ready"] => {
                    let now = tr.now_ns();
                    tr.record("process.start", launch_ns, now);
                    run.setup_s = (now - launch_ns) as f64 / 1e9;
                    ready_ns = Some(now);
                }
                ["fig", id, start, end, hash, peak, status @ ..] => {
                    let base = ready_ns.ok_or("figure before ready")?;
                    let fig = Fig {
                        id: (*id).to_string(),
                        start_ns: start.parse().map_err(|_| "bad fig line")?,
                        end_ns: end.parse().map_err(|_| "bad fig line")?,
                        hash: (*hash).to_string(),
                        peak_mb: peak.parse().map_err(|_| "bad fig line")?,
                        status: status.join(" "),
                    };
                    tr.record(
                        &format!("experiments.{id}"),
                        base + fig.start_ns,
                        base + fig.end_ns,
                    );
                    run.figs.push(fig);
                }
                ["counter", name, value] => {
                    let value = value.parse().map_err(|_| "bad counter line")?;
                    run.counters.insert((*name).to_string(), value);
                }
                ["hwm", mb] => run.hwm_mb = mb.parse().map_err(|_| "bad hwm line")?,
                _ => eprintln!("perfbench: paper child: {line}"),
            }
        }
        Ok(())
    })();
    if let Err(e) = read {
        let _ = child.kill();
        let _ = child.wait();
        return Err(e);
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the paper child: {e}"))?;
    run.wall_s = tr.close(root);
    if !status.success() {
        return Err(format!("paper child exited with {status}"));
    }
    let want = if figures { ALL_EXPERIMENTS.len() } else { 0 };
    if ready_ns.is_none() || run.figs.len() != want {
        return Err(format!(
            "paper child reported {} of {} figures",
            run.figs.len(),
            want
        ));
    }
    Ok(run)
}

/// Counts every figure of `run` as one operation: it must succeed and
/// render the same bytes as the reference run of the same seed.
fn check_figures(out: &mut Outcome, run: &Run, reference: &Run) {
    for (fig, want) in run.figs.iter().zip(&reference.figs) {
        let result = if fig.status != "ok" {
            Err(fig.status.clone())
        } else if fig.id != want.id || fig.hash != want.hash {
            Err("rendered output differs from the first run".into())
        } else {
            Ok(())
        };
        out.check(&fig.id, result);
    }
}

/// The `paper` workload.
pub fn paper(args: &Args, root: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let start = Instant::now();
    let first = run_child(&mut Tracer::new(false), args.seed, 1, false, true)?;
    check_figures(&mut out, &first, &first);
    if !args.trace {
        let (mut wall, mut hwm) = (vec![first.wall_s], vec![first.hwm_mb]);
        let mut setup = vec![first.setup_s];
        for _ in 0..SETUP_LAUNCHES {
            setup.push(run_child(&mut Tracer::new(false), args.seed, 1, false, false)?.setup_s);
        }
        while start.elapsed().as_secs_f64() < args.seconds {
            let run = run_child(&mut Tracer::new(false), args.seed, 1, false, true)?;
            check_figures(&mut out, &run, &first);
            wall.push(run.wall_s);
            setup.push(run.setup_s);
            hwm.push(run.hwm_mb);
        }
        out.set("wall_s", probe::median(&wall));
        out.set("setup_s", probe::median(&setup));
        out.set("peak_rss_mb", probe::median(&hwm));
        // Jobs invariance, checked once and untimed.
        let par = run_child(&mut Tracer::new(false), args.seed, 2, false, true)?;
        let same = par
            .figs
            .iter()
            .zip(&first.figs)
            .all(|(a, b)| a.hash == b.hash);
        out.check(
            "paper output at jobs 1 vs 2",
            if same {
                Ok(())
            } else {
                Err("rendered output differs".into())
            },
        );
        eprintln!("perfbench: paper runs {}", wall.len());
        return Ok(out);
    }
    let mut tr = Tracer::new(true);
    let mut rounds: Vec<Outcome> = Vec::new();
    let mut plain = first;
    loop {
        let traced = run_child(&mut tr, args.seed, 1, true, true)?;
        check_figures(&mut out, &traced, &plain);
        let mut round = Outcome::default();
        let secs = |ids: &[&str]| -> f64 {
            traced
                .figs
                .iter()
                .filter(|f| ids.contains(&f.id.as_str()))
                .map(Fig::secs)
                .sum()
        };
        for fig in &traced.figs {
            round.set(&format!("experiments.{}_s", fig.id), fig.secs());
        }
        round.set("failure_model.chip_test_s", secs(&["fig3", "fig4"]));
        let fig3 = traced
            .figs
            .iter()
            .find(|f| f.id == "fig3")
            .map_or(0.0, |f| f.peak_mb);
        round.set("failure_model.fig3_peak_rss_mb", fig3);
        let sim_s = secs(&["fig15", "fig16", "table3"]);
        let c = |name: &str| traced.counters.get(name).copied().unwrap_or(0.0);
        round.set("memsim.sim_s", sim_s);
        round.set("memsim.sim.cycles", c("memsim.sim.cycles"));
        round.set("memsim.cycles_per_s", c("memsim.sim.cycles") / sim_s);
        round.set(
            "failure_model.eval.rows",
            c("failure_model.eval.rows") + c("memcon.oracle.memo_misses"),
        );
        let hits = c("failure_model.cache.warm_hits") + c("memcon.oracle.memo_hits");
        let misses = c("failure_model.cache.cold_fills") + c("memcon.oracle.memo_misses");
        round.set(
            "failure_model.cache.hit_ratio",
            hits / (hits + misses).max(1.0),
        );
        round.set("memcon.pril.writes", c("memcon.pril.writes"));
        round.set(
            "telemetry.overhead_pct",
            100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s,
        );
        let root = tr.last("workload").expect("traced runs record a root span");
        round.set(
            "trace.coverage_pct",
            100.0 * tr.covered_s(root) / tr.duration_s(root),
        );
        rounds.push(round);
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        plain = run_child(&mut Tracer::new(false), args.seed, 1, false, true)?;
        check_figures(&mut out, &plain, &traced);
    }
    crate::medians(&rounds, &mut out);
    out.set_error_rate();
    crate::write_spans(&tr, root, args);
    eprintln!("perfbench: traced paper rounds {}", rounds.len());
    Ok(out)
}

//! End-to-end benchmark of the MEMCON reproduction.
//!
//! ```text
//! perfbench --workload fleet|durable|paper --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is repeated for `--seconds` seconds of host time, every
//! repetition from a fresh plan (or a fresh process, for `paper`), and its
//! outputs are checked. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (telemetry off); with `--trace 1` they
//! are the per-layer ones, from a traced run plus the attribution legs.
//! See `perfbench/README.md` for what each metric means.

mod fleets;
mod paper;
mod probe;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use probe::Tracer;

/// Seed used when `--seed` is omitted.
const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: every traced run reports each of them, with 0 for
/// the layers its workload bypasses. [`per_layer`] adds one
/// `experiments.<id>_s` per experiment id.
const PER_LAYER: &[(&str, &str)] = &[
    ("events_per_s", "1/s"),
    ("recover_s", "s"),
    ("disk_bytes_per_event", "bytes/event"),
    ("refresh_reduction_pct", "%"),
    ("error_rate", "ratio"),
    ("memtrace.synth_s", "s"),
    ("memtrace.events", "count"),
    ("memtrace.events_per_s", "1/s"),
    ("memcon.step_s", "s"),
    ("memcon.ns_per_event", "ns"),
    ("memcon.step_us_p50", "us"),
    ("memcon.step_us_p99", "us"),
    ("memcon.pril.writes", "count"),
    ("memcon.pril.quanta", "count"),
    ("memcon.tests.started", "count"),
    ("memcon.refresh.transitions", "count"),
    ("memcon.pril.candidate_ratio", "ratio"),
    ("failure_model.oracle_s", "s"),
    ("failure_model.eval.rows", "count"),
    ("failure_model.cache.hit_ratio", "ratio"),
    ("failure_model.chip_test_s", "s"),
    ("failure_model.fig3_peak_rss_mb", "MB"),
    ("store.journal_s", "s"),
    ("store.io_s", "s"),
    ("store.strict_extra_s", "s"),
    ("store.recover_s", "s"),
    ("store.wal.appends", "count"),
    ("store.wal.bytes_per_event", "bytes/event"),
    ("store.snap.published", "count"),
    ("store.recovery.replayed_records", "count"),
    ("fleet.new_s", "s"),
    ("fleet.run_s", "s"),
    ("fleet.epochs", "count"),
    ("fleet.barrier_s", "s"),
    ("fleet.report_s", "s"),
    ("memsim.sim_s", "s"),
    ("memsim.sim.cycles", "count"),
    ("memsim.cycles_per_s", "1/s"),
    ("telemetry.overhead_pct", "%"),
    ("par.speedup", "x"),
    ("trace.coverage_pct", "%"),
];

fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u));
    let figures = experiments::ALL_EXPERIMENTS
        .iter()
        .map(|id| (format!("experiments.{id}_s"), "s"));
    fixed.chain(figures).collect()
}

/// Parsed command line of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured: operations attempted and failed (a fleet run
/// or one figure each), plus its metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets `error_rate` (failed / attempted) for the per-layer report.
    pub fn set_error_rate(&mut self) {
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("error_rate", rate);
    }

    /// Counts one operation; a failed check is reported on stderr.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}: {e}");
        }
    }
}

/// Checks the current directory is a checkout of the repository and
/// returns it; every file the benchmark writes lives under it.
pub fn checkout_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    for need in ["Cargo.toml", "crates/fleet", "perfbench"] {
        if !cwd.join(need).exists() {
            return Err(format!(
                "run from the repository root ({need} not found in {})",
                cwd.display()
            ));
        }
    }
    Ok(cwd)
}

/// Directory for the benchmark's own output (spans, store roots).
pub fn out_dir(root: &Path) -> PathBuf {
    root.join(".perfbench")
}

/// Median of each metric over the rounds of a traced run.
pub fn medians(rounds: &[Outcome], into: &mut Outcome) {
    let Some(first) = rounds.first() else {
        return;
    };
    for name in first.metrics.keys() {
        let values: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.metrics.get(name).copied())
            .collect();
        into.set(name, probe::median(&values));
    }
}

pub fn write_spans(tr: &Tracer, root: &Path, args: &Args) {
    let path = out_dir(root).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match tr.write(&path) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Formats the result line. Every listed metric must be finite; a listed
/// end-to-end metric the workload did not produce is an error.
fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let list: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut fields = Vec::with_capacity(list.len());
    for (name, unit) in &list {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("workload produced no {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some(paper::CHILD) => return paper::child_main(&argv[1..]),
        Some(fleets::REP) => return fleets::rep_main(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match checkout_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "fleet" => fleets::fleet(&args, &root),
        "durable" => fleets::durable(&args, &root),
        "paper" => paper::paper(&args, &root),
        other => Err(format!(
            "unknown workload '{other}' (fleet, durable or paper)"
        )),
    };
    let line = outcome.and_then(|out| {
        let correct = out.failed == 0;
        result_line(&out, args.trace).map(|line| (line, correct))
    });
    match line {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Measurement plumbing: the benchmark's own span recorder, peak-RSS
//! readers, and the small statistics the workloads report.

use std::path::Path;
use std::time::Instant;

/// One recorded span: a call into a layer, timed from the benchmark.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records nested spans around public calls. Disabled tracers still time
/// (every workload needs its durations) but keep nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<SpanRec>,
    open: Vec<(usize, u64)>,
}

/// Handle of an open span; closing it returns its duration in seconds.
#[derive(Debug)]
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span measured elsewhere (a child process),
    /// under the innermost open span.
    pub fn record(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let parent = self.open.last().map(|&(i, _)| i);
            self.spans.push(SpanRec {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent,
            });
        }
    }

    pub fn open(&mut self, name: &str) -> Open {
        let start = self.now_ns();
        let parent = self.open.last().map(|&(i, _)| i);
        let id = if self.enabled {
            self.spans.push(SpanRec {
                name: name.to_string(),
                start_ns: start,
                end_ns: start,
                parent,
            });
            self.spans.len() - 1
        } else {
            usize::MAX
        };
        self.open.push((id, start));
        Open(self.open.len() - 1)
    }

    pub fn close(&mut self, span: Open) -> f64 {
        assert_eq!(span.0 + 1, self.open.len(), "spans close innermost first");
        let (id, start) = self.open.pop().expect("an open span");
        let end = self.now_ns();
        if let Some(rec) = self.spans.get_mut(id) {
            rec.end_ns = end;
        }
        (end - start) as f64 / 1e9
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let span = self.open(name);
        let out = f();
        (out, self.close(span))
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Sum of self time (duration minus the part covered by child spans)
    /// over every span whose parent is `root` or below it, as seconds;
    /// with the root's own duration, this is the trace reconciliation.
    pub fn covered_s(&self, root: usize) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let under_root = |mut i: usize| -> bool {
            while let Some(p) = self.spans[i].parent {
                if p == root {
                    return true;
                }
                i = p;
            }
            false
        };
        let self_ns: u64 = (0..self.spans.len())
            .filter(|&i| under_root(i))
            .map(|i| (self.spans[i].end_ns - self.spans[i].start_ns).saturating_sub(child_ns[i]))
            .sum();
        self_ns as f64 / 1e9
    }

    /// Index of the most recent span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    pub fn duration_s(&self, i: usize) -> f64 {
        (self.spans[i].end_ns - self.spans[i].start_ns) as f64 / 1e9
    }

    /// Writes every span as JSON lines: name, start, end, parent.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A `/proc/self/status` field in MB (the kernel reports kB).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Total size of the regular files under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Filesystem type of the mount holding `path` (from
/// `/proc/self/mountinfo`), so a reader can tell RAM-backed store
/// timings from disk-backed ones.
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: (usize, String) = (0, "unknown".into());
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if abs.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), (*fs).to_string());
        }
    }
    best.1
}

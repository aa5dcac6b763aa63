//! Timing and summary helpers: order statistics, the span recorder of
//! the traced run, peak memory, and the result record every workload
//! fills in.

use std::collections::BTreeMap;
use std::time::Instant;

/// Seconds since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, secs_since(t0))
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Host seconds of one rep on a quiet host, from the per-step times of
/// reps that all take the same steps: each step's fastest time across
/// reps, summed over step positions. Other tenants of a shared host only
/// ever add time to a step, so the minimum is the steadiest estimate of
/// what the code itself costs.
pub fn stepwise_min_s(reps: &[Vec<f64>]) -> f64 {
    let steps = reps.iter().map(Vec::len).max().unwrap_or(0);
    (0..steps)
        .map(|i| {
            reps.iter()
                .filter_map(|r| r.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Spans of the traced run. Every span recorded with [`Spans::top`] is a
/// top-level span: the traced wall time they do not cover is reported as
/// `bench.unattributed_share`. [`Spans::nested`] records a duration
/// inside an already-counted top-level span.
pub struct Spans {
    t0: Instant,
    covered: f64,
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// Starts the traced wall clock.
    pub fn start() -> Self {
        Spans {
            t0: Instant::now(),
            covered: 0.0,
            by_name: BTreeMap::new(),
        }
    }

    /// Times `f` as one top-level span named `name`.
    pub fn top<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = timed(f);
        self.covered += secs;
        self.by_name.entry(name).or_default().push(secs);
        out
    }

    /// Records a duration measured inside a top-level span.
    pub fn nested(&mut self, name: &'static str, secs: f64) {
        self.by_name.entry(name).or_default().push(secs);
    }

    /// Every duration recorded under `name`, in seconds.
    pub fn get(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Total seconds recorded under `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    /// Traced wall seconds so far.
    pub fn wall(&self) -> f64 {
        secs_since(self.t0)
    }

    /// Share of the traced wall time no top-level span covers.
    pub fn unattributed_share(&self) -> f64 {
        let wall = self.wall();
        ratio(wall - self.covered, wall)
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (all of them when a gate fails).
    pub failed: u64,
    /// Gate failures, one line each; empty when every check passed.
    pub problems: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed with the result (simulated figures that
    /// are not metrics, rep counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Appends a note.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Appends a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed check.
    pub fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

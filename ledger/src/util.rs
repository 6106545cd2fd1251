//! Host measurements without a PMU, the median, a flat JSON
//! writer, and the benchmark's own span recorder.

use std::collections::BTreeMap;
use std::fs;
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use telemetry::{SpanId, SpanLog};

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`, fixed
/// at 100 by the Linux ABI.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process so far, every thread
/// included (exited threads too), read from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a (comm) field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
    (tick(11) + tick(12)) as f64 / CLOCK_TICKS_PER_S
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}

/// Wall-clock time as nanoseconds since the Unix epoch (comparable
/// across processes, unlike [`Instant`]).
pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos()
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in 0..=1), as `run.py` takes it: an
/// actual sample, no interpolation; 0 for no values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v.get(rank.saturating_sub(1)).copied().unwrap_or(0.0)
}

/// A flat JSON object writer (the workspace carries no serde).
#[derive(Debug, Default)]
pub struct Json {
    fields: Vec<String>,
}

impl Json {
    /// A number; non-finite values become `null`.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let text = if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".into()
        };
        self.raw(key, text)
    }

    /// A string (callers pass text without quotes or backslashes).
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, format!("\"{}\"", v.replace(['"', '\\'], "'")))
    }

    /// A list of numbers.
    pub fn nums(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        let items: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }

    /// A list of strings.
    pub fn strs(&mut self, key: &str, vs: &[String]) -> &mut Self {
        let items: Vec<String> = vs
            .iter()
            .map(|v| format!("\"{}\"", v.replace(['"', '\\'], "'")))
            .collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }

    /// A map of numbers.
    pub fn map(&mut self, key: &str, m: &BTreeMap<String, f64>) -> &mut Self {
        let mut inner = Json::default();
        for (k, v) in m {
            inner.num(k, *v);
        }
        self.raw(key, inner.finish())
    }

    /// A pre-rendered JSON value.
    pub fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push(format!("\"{key}\": {value}"));
        self
    }

    /// The rendered object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }
}

/// Spans recorded by the benchmark around its calls into each layer.
/// Off in the untraced samples, where every call runs bare.
#[derive(Debug)]
pub struct Tracer {
    log: Option<Mutex<SpanLog>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the closures.
    pub fn new(on: bool) -> Self {
        Tracer {
            log: on.then(|| Mutex::new(SpanLog::new())),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.log.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut SpanLog) -> R) -> Option<R> {
        self.log
            .as_ref()
            .map(|l| f(&mut l.lock().expect("span log lock: no span writer panics")))
    }

    /// Reserves an id for a parent span that ends later.
    pub fn reserve(&self) -> Option<SpanId> {
        self.with(SpanLog::reserve)
    }

    /// Records a finished span under a reserved id.
    pub fn record(
        &self,
        id: Option<SpanId>,
        parent: Option<SpanId>,
        name: &str,
        tid: u64,
        start: Instant,
    ) {
        let end = Instant::now();
        if let Some(id) = id {
            self.with(|l| l.record(id, parent, name, tid, start, end));
        }
    }

    /// Records `[start, end)` as a new span and returns its id.
    pub fn push(
        &self,
        parent: Option<SpanId>,
        name: &str,
        tid: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        self.with(|l| l.push(parent, name, tid, start, end))
    }

    /// Runs `f` inside a span named `name` on lane 0.
    pub fn span<R>(&self, parent: Option<SpanId>, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.push(parent, name, 0, start, Instant::now());
        r
    }

    /// Total duration of the spans named `name` whose parent is `parent`.
    pub fn total(&self, parent: Option<SpanId>, name: &str) -> Duration {
        self.with(|l| {
            let ns: u128 = l
                .spans()
                .iter()
                .filter(|s| s.parent == parent && s.name == name)
                .map(|s| s.dur_ns)
                .sum();
            Duration::from_nanos(ns as u64)
        })
        .unwrap_or_default()
    }

    /// Sum of the durations of every child of `parent`.
    pub fn children_total(&self, parent: Option<SpanId>) -> Duration {
        self.with(|l| {
            let ns: u128 = l
                .spans()
                .iter()
                .filter(|s| parent.is_some() && s.parent == parent)
                .map(|s| s.dur_ns)
                .sum();
            Duration::from_nanos(ns as u64)
        })
        .unwrap_or_default()
    }

    /// Merges another log (e.g. an engine's span snapshot) in.
    pub fn merge(&self, other: &SpanLog) {
        self.with(|l| l.merge(other));
    }

    /// The recorded log, if tracing was on.
    pub fn into_log(self) -> Option<SpanLog> {
        self.log.map(|l| {
            l.into_inner()
                .expect("span log lock: no span writer panics")
        })
    }
}

/// Engine activity inside one phase, read from
/// [`harness::Engine::span_snapshot`]: span names are `job{i}.wait`,
/// `job{i}.a{attempt}` and `exec`.
#[derive(Debug, Default)]
pub struct EngineActivity {
    /// Distinct jobs run (first attempts).
    pub jobs: u64,
    /// Attempts after the first.
    pub retries: u64,
    /// Summed queue wait.
    pub queue_wait_s: f64,
    /// Summed execution time.
    pub exec_s: f64,
    /// Host milliseconds of every execution, in completion order.
    pub exec_ms: Vec<f64>,
}

impl EngineActivity {
    /// Tallies the engine spans that started at or after `since`.
    pub fn from_log(log: &SpanLog, since: Instant) -> Self {
        let from_ns = since.saturating_duration_since(log.zero()).as_nanos();
        let mut a = EngineActivity::default();
        for s in log.spans().iter().filter(|s| s.start_ns >= from_ns) {
            let secs = s.dur_ns as f64 * 1e-9;
            if s.name == "exec" {
                a.exec_s += secs;
                a.exec_ms.push(secs * 1e3);
            } else if s.name.ends_with(".wait") {
                a.queue_wait_s += secs;
            } else if let Some((_, attempt)) = s.name.rsplit_once(".a") {
                match attempt.parse::<u64>() {
                    Ok(0) => a.jobs += 1,
                    Ok(_) => a.retries += 1,
                    Err(_) => {}
                }
            }
        }
        a
    }

    /// Writes the `engine.*` per-layer metrics: utilization is
    /// execution time over `workers` × the phase's wall time.
    pub fn layer_metrics(
        &self,
        layers: &mut BTreeMap<String, f64>,
        workers: usize,
        wall_s: f64,
        failed: u64,
    ) {
        layers.insert("engine.jobs".into(), self.jobs as f64);
        layers.insert("engine.retries".into(), self.retries as f64);
        layers.insert("engine.queue_wait_s".into(), self.queue_wait_s);
        layers.insert("engine.exec_s".into(), self.exec_s);
        layers.insert(
            "engine.util".into(),
            self.exec_s / (workers as f64 * wall_s),
        );
        layers.insert("engine.failed".into(), failed as f64);
    }
}

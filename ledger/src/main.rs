//! `ledger`: one sample of one benchmark workload per process.
//!
//! ```text
//! ledger sample <paper-all|l1-sweep|serve-mixed> --seed N
//!               [--output PATH] [--trace PATH]
//! ledger setup paper-all --seed N
//! ```
//!
//! `sample` runs the workload's set-up and timed phase once and prints
//! one JSON line of raw measurements: host wall/CPU time of the phase,
//! set-up time, peak RSS, the simulated L1 access count, every
//! operation's host latency, deterministic simulated counts, and any
//! correctness failures. `--output` writes the workload's simulated
//! output (the digest `run.py` checks). `--trace` additionally records
//! spans around every call into a layer, runs the per-layer probe, adds
//! the per-layer metrics to the JSON line and writes one Chrome trace.
//! `setup` only builds the `paper-all` engine and reports when it was
//! ready. `run.py` starts every sample in a fresh process and reduces
//! them to the benchmark's metrics.

mod l1_sweep;
mod paper_all;
mod probe;
mod serve_mixed;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use util::{Json, Tracer};

/// Engine workers: the 2 vCPUs of the reference box, fewer if the host
/// has fewer.
pub fn workers() -> usize {
    harness::default_parallelism().clamp(1, 2)
}

/// Raw measurements of one sample.
#[derive(Debug, Default)]
pub struct Sample {
    /// In-process set-up time (l1-sweep, serve-mixed).
    pub setup_s: Option<f64>,
    /// Unix time at which the timed phase's inputs were ready.
    pub ready_unix_ns: u128,
    /// Host wall time of the timed phase.
    pub wall_s: f64,
    /// Host user+system CPU time of the timed phase.
    pub cpu_s: f64,
    /// Simulated L1 accesses performed in the timed phase.
    pub sim_accesses: u64,
    /// Operations attempted (engine jobs or served requests).
    pub ops: u64,
    /// Operations that failed, were refused, or returned wrong output.
    pub ops_failed: u64,
    /// Host latency of every operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Correctness failures, one line each.
    pub failures: Vec<String>,
    /// Simulated counts that must repeat exactly for a given seed.
    pub counts: BTreeMap<String, f64>,
    /// Per-layer metrics (traced samples only).
    pub layers: BTreeMap<String, f64>,
}

impl Sample {
    /// Times `phase` (wall and CPU) into this sample.
    pub fn time_phase<R>(&mut self, phase: impl FnOnce() -> R) -> R {
        self.ready_unix_ns = util::unix_ns();
        let cpu0 = util::cpu_seconds();
        let t0 = Instant::now();
        let r = phase();
        self.wall_s = t0.elapsed().as_secs_f64();
        self.cpu_s = util::cpu_seconds() - cpu0;
        r
    }

    /// Records a correctness failure.
    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut j = Json::default();
        j.str("workload", workload)
            .num("seed", seed as f64)
            .num("wall_s", self.wall_s)
            .num("cpu_s", self.cpu_s)
            .raw("ready_unix_ns", self.ready_unix_ns.to_string())
            .num("peak_rss_mb", util::peak_rss_mb())
            .num("sim_accesses", self.sim_accesses as f64)
            .num("ops", self.ops as f64)
            .num("ops_failed", self.ops_failed as f64)
            .nums("latencies_ms", &self.latencies_ms)
            .strs("failures", &self.failures)
            .map("counts", &self.counts)
            .map("layers", &self.layers);
        if let Some(s) = self.setup_s {
            j.num("setup_s", s);
        }
        j.finish()
    }
}

/// Records an engine job's permanent failure, which `Engine::run`
/// re-raised out of `workload`'s timed phase: one failed operation and
/// a correctness failure, so the run reports and exits non-zero.
pub fn engine_failed(s: &mut Sample, workload: &str, payload: &(dyn std::any::Any + Send)) {
    s.ops = s.ops.max(1);
    s.ops_failed += 1;
    s.fail(format!(
        "{workload}: an engine job failed permanently: {}",
        harness::parallel::panic_message(payload)
    ));
}

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    output: Option<String>,
    trace: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, workload) = match argv.as_slice() {
        [m, w, ..] => (m.clone(), w.clone()),
        _ => {
            return Err(
                "usage: ledger sample|setup <workload> --seed N [--output PATH] [--trace PATH]"
                    .into(),
            )
        }
    };
    let mut args = Args {
        mode,
        workload,
        seed: 1,
        output: None,
        trace: None,
    };
    let mut rest = argv[2..].iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--output" => args.output = Some(value),
            "--trace" => args.trace = Some(value),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("ledger: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.mode == "setup" && args.workload == "paper-all" {
        let _engine = paper_all::engine();
        println!("{{\"ready_unix_ns\": {}}}", util::unix_ns());
        return ExitCode::SUCCESS;
    }
    if args.mode != "sample" {
        eprintln!("ledger: unknown mode {}", args.mode);
        return ExitCode::from(2);
    }

    let tracer = Tracer::new(args.trace.is_some());
    let mut sample = Sample::default();
    let output = match args.workload.as_str() {
        "paper-all" => paper_all::sample(args.seed, &tracer, &mut sample),
        "l1-sweep" => l1_sweep::sample(args.seed, &tracer, &mut sample),
        "serve-mixed" => match serve_mixed::sample(args.seed, &tracer, &mut sample) {
            Ok(out) => out,
            Err(msg) => {
                eprintln!("ledger: serve-mixed: {msg}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("ledger: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.output {
        if let Err(e) = std::fs::write(path, &output) {
            eprintln!("ledger: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.trace {
        probe::run(args.seed, &tracer, &mut sample);
        let log = tracer.into_log().expect("tracing is on");
        // Lane 0 holds this program's spans plus the engine's run roots
        // and watchdog; lanes 1.. are engine workers, or the client
        // connections of serve-mixed.
        let (lane, n) = if args.workload == "serve-mixed" {
            ("connection", serve_mixed::CONNECTIONS)
        } else {
            ("engine worker", workers())
        };
        let lanes: Vec<(u64, String)> = std::iter::once((0, "ledger".to_string()))
            .chain((1..=n as u64).map(|t| (t, format!("{lane} {t}"))))
            .collect();
        let json = telemetry::chrome_trace_json(&log, &format!("ledger {}", args.workload), &lanes);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("ledger: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", sample.to_json(&args.workload, args.seed));
    ExitCode::SUCCESS
}

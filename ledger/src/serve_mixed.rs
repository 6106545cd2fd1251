//! `serve-mixed`: two closed-loop client connections to an in-process
//! `serve` over loopback. Each sends `loadgen`'s job cycle (four
//! replays, a windowed profile, a sweep) spread over the 26 SPEC
//! benchmarks and several trace seeds, to a server set up as for the
//! saturation table in EXPERIMENTS.md (default options, no checkpoint).
//! Repeated (benchmark, seed) keys hit the server's warm trace cache;
//! first sightings generate their trace. Every sweep computes its points.

use std::collections::{HashMap, HashSet};
use std::thread;
use std::time::{Duration, Instant};

use harness::profilecmd::{resolve_benchmark, resolve_model};
use harness::run::{replay_config_on, RunLength, Side, SideTrace};
use harness::serve::loadgen::Client;
use harness::serve::protocol::{f64_bits, json_str_field, json_u64_field};
use harness::serve::scheduler::SWEEP_MFS;
use harness::serve::{ServeOptions, Server};
use trace_gen::{profiles, Trace};

use crate::util::{median, Tracer};
use crate::Sample;

/// Closed-loop client connections, each with one request outstanding.
pub const CONNECTIONS: usize = 2;
/// Jobs each connection sends.
const REQUESTS: usize = 1200;
/// Trace records per job (warm-up 10%), as in EXPERIMENTS.md's serve
/// saturation table.
const RECORDS: u64 = 50_000;
/// L1 size the server replays at.
const SIZE_BYTES: usize = 16 * 1024;
/// Server start-ups timed per sample (the last one serves the phase).
const SETUP_REPS: usize = 15;
/// Trace seeds per benchmark. 26 benchmarks × 3 seeds give 78 trace
/// keys for 2400 requests: about one request in 31 generates its trace,
/// close to the reuse `bcache-repro all` shows (2166 engine jobs on 67
/// generator runs).
const TRACE_SEEDS: u64 = 3;
/// Server workers. With one, a single trace cache sees every job, so the
/// cold share is exact and repeats across samples. `run.py` pins the
/// sample process to one vCPU, so the worker, the sessions and the
/// connections share it.
const SERVER_WORKERS: usize = 1;

#[derive(Copy, Clone, Debug)]
enum Kind {
    Replay { model: &'static str },
    Profile { model: &'static str },
    Sweep,
}

/// `loadgen`'s job cycle (`loadgen::job_frame`), indexed by request
/// ordinal: 4 replays : 1 profile : 1 sweep, all on the data side.
const CYCLE: [Kind; 6] = [
    Kind::Replay {
        model: "direct-mapped",
    },
    Kind::Replay {
        model: "bcache-mf8-bas8",
    },
    Kind::Replay { model: "8-way-lru" },
    Kind::Profile {
        model: "bcache-mf8-bas8",
    },
    Kind::Replay { model: "victim16" },
    Kind::Sweep,
];

#[derive(Clone, Debug)]
struct Job {
    id: String,
    benchmark: &'static str,
    trace_seed: u64,
    kind: Kind,
}

impl Job {
    fn frame(&self) -> String {
        let common = format!(
            "{{\"type\": \"submit\", \"id\": \"{}\", \"benchmark\": \"{}\", \"records\": {RECORDS}, \"seed\": {}",
            self.id, self.benchmark, self.trace_seed
        );
        match self.kind {
            Kind::Replay { model } => {
                format!("{common}, \"job\": \"replay\", \"model\": \"{model}\"}}")
            }
            Kind::Profile { model } => {
                format!(
                    "{common}, \"job\": \"profile\", \"model\": \"{model}\", \"window\": 2048}}"
                )
            }
            Kind::Sweep => format!("{common}, \"job\": \"sweep\"}}"),
        }
    }

    fn len(&self) -> RunLength {
        RunLength {
            seed: self.trace_seed,
            ..RunLength::with_records(RECORDS)
        }
    }

    /// The server's trace-cache key: every job replays the data side at
    /// the same length, so (benchmark, trace seed) names its trace.
    fn key(&self) -> (&'static str, u64) {
        (self.benchmark, self.trace_seed)
    }
}

/// SplitMix64: the job mix's deterministic generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Connection `conn`'s job list for `seed`: `CYCLE` by ordinal, each
/// job on a seeded benchmark and one of `TRACE_SEEDS` trace seeds.
fn plan(seed: u64, conn: usize) -> Vec<Job> {
    let benchmarks: Vec<&'static str> = profiles::all().iter().map(|p| p.name).collect();
    let mut rng = Rng(seed.wrapping_mul(0x100_0000_01B3) ^ conn as u64);
    (0..REQUESTS)
        .map(|r| Job {
            id: format!("c{conn}-r{r}"),
            benchmark: benchmarks[(rng.next() % benchmarks.len() as u64) as usize],
            trace_seed: seed
                .wrapping_mul(TRACE_SEEDS)
                .wrapping_add(rng.next() % TRACE_SEEDS),
            kind: CYCLE[r % CYCLE.len()],
        })
        .collect()
}

/// How one request ended, with its client-side frame timestamps.
#[derive(Debug)]
struct Outcome {
    end: End,
    rows: Vec<String>,
    submit: Instant,
    ack: Option<Instant>,
    first_row: Option<Instant>,
    done: Instant,
}

#[derive(Debug, PartialEq)]
enum End {
    Done { cached: u64, dropped: u64 },
    Busy,
    Error(String),
}

/// Submits one job and reads frames until its terminal frame.
fn request(client: &mut Client, job: &Job) -> Result<Outcome, String> {
    let submit = Instant::now();
    client.send(&job.frame())?;
    let (mut ack, mut first_row, mut rows) = (None, None, Vec::new());
    loop {
        let line = client.read_frame()?;
        if json_str_field(&line, "id").as_deref() != Some(job.id.as_str()) {
            continue;
        }
        let end = match json_str_field(&line, "type").as_deref() {
            Some("ack") => {
                ack = Some(Instant::now());
                continue;
            }
            Some("row") => {
                first_row.get_or_insert_with(Instant::now);
                rows.push(line);
                continue;
            }
            Some("done") => End::Done {
                cached: json_u64_field(&line, "cached").unwrap_or(0),
                dropped: json_u64_field(&line, "rows_dropped").unwrap_or(0),
            },
            Some("busy") => End::Busy,
            Some("error") => End::Error(json_str_field(&line, "error").unwrap_or_default()),
            _ => continue,
        };
        return Ok(Outcome {
            end,
            rows,
            submit,
            ack,
            first_row,
            done: Instant::now(),
        });
    }
}

/// Starts a server and waits for its first `pong`; returns the server,
/// its address and the start-to-pong time.
fn start() -> Result<(Server, String, Duration), String> {
    let t0 = Instant::now();
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: SERVER_WORKERS,
        ..ServeOptions::default()
    })?;
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr)?;
    client.send("{\"type\": \"ping\"}")?;
    let pong = client.read_frame()?;
    if json_str_field(&pong, "type").as_deref() != Some("pong") {
        return Err(format!("expected pong, got {pong}"));
    }
    Ok((server, addr, t0.elapsed()))
}

/// Removes a sweep point's `cached` flag, so the output does not depend
/// on whether the server reads points from a checkpoint.
fn canonical_row(row: &str) -> String {
    row.replace(", \"cached\": true", "")
        .replace(", \"cached\": false", "")
}

/// `part / whole`, 0 when `whole` is 0.
fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Runs one sample; returns every job's rows in plan order.
pub fn sample(seed: u64, t: &Tracer, s: &mut Sample) -> Result<String, String> {
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS - 1 {
        let (server, _, setup) = start()?;
        setups.push(setup.as_secs_f64());
        server.shutdown();
    }
    let (server, addr, setup) = start()?;
    setups.push(setup.as_secs_f64());
    s.setup_s = Some(median(&setups));

    let plans: Vec<Vec<Job>> = (0..CONNECTIONS).map(|c| plan(seed, c)).collect();
    let root = t.reserve();
    let start = Instant::now();
    let results: Vec<Result<Vec<Outcome>, String>> = s.time_phase(|| {
        thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .map(|jobs| {
                    let addr = &addr;
                    scope.spawn(move || -> Result<Vec<Outcome>, String> {
                        let mut client = Client::connect(addr)?;
                        jobs.iter().map(|job| request(&mut client, job)).collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        })
    });
    t.record(root, None, "serve-mixed", 0, start);
    let summary = server.shutdown();
    let outcomes: Vec<Vec<Outcome>> = results.into_iter().collect::<Result<_, _>>()?;

    // The one worker runs jobs in turn, so the first request of a key to
    // finish is the one that generated its trace.
    let mut by_done: Vec<(Instant, usize, usize)> = outcomes
        .iter()
        .enumerate()
        .flat_map(|(c, outs)| outs.iter().enumerate().map(move |(r, o)| (o.done, c, r)))
        .filter(|&(_, c, r)| matches!(outcomes[c][r].end, End::Done { .. }))
        .collect();
    by_done.sort();
    let mut seen = HashSet::new();
    let cold: HashSet<(usize, usize)> = by_done
        .into_iter()
        .filter(|&(_, c, r)| seen.insert(plans[c][r].key()))
        .map(|(_, c, r)| (c, r))
        .collect();

    let mut verifier = Verifier::default();
    let mut out = String::new();
    let (mut busy, mut cached, mut sweep_points) = (0u64, 0u64, 0u64);
    let mut session_dropped = vec![0u64; plans.len()];
    let (mut ack_ms, mut first_row_ms, mut exec_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());
    for (conn, (jobs, outs)) in plans.iter().zip(&outcomes).enumerate() {
        for (r, (job, o)) in jobs.iter().zip(outs).enumerate() {
            s.ops += 1;
            match &o.end {
                End::Done {
                    cached: c,
                    dropped: d,
                } => {
                    let latency = ms(o.submit, o.done);
                    s.latencies_ms.push(latency);
                    if cold.contains(&(conn, r)) {
                        cold_ms.push(latency);
                    } else {
                        warm_ms.push(latency);
                    }
                    // A done frame carries its session's running total.
                    session_dropped[conn] = session_dropped[conn].max(*d);
                    let mut computed = 1;
                    if matches!(job.kind, Kind::Sweep) {
                        cached += c;
                        sweep_points += o.rows.len() as u64;
                        computed = (o.rows.len() as u64).saturating_sub(*c);
                    }
                    s.sim_accesses += verifier.accesses(job) * computed;
                    if let Err(msg) = verifier.check(job, &o.rows) {
                        s.ops_failed += 1;
                        s.fail(format!("serve-mixed: {}: {msg}", job.id));
                    }
                }
                End::Busy => {
                    busy += 1;
                    s.ops_failed += 1;
                }
                End::Error(msg) => {
                    s.ops_failed += 1;
                    s.fail(format!("serve-mixed: {}: error frame: {msg}", job.id));
                }
            }
            let ack = o.ack.unwrap_or(o.done);
            let first_row = o.first_row.unwrap_or(o.done);
            ack_ms.push(ms(o.submit, ack));
            first_row_ms.push(ms(ack, first_row));
            exec_ms.push(ms(first_row, o.done));
            if t.on() {
                let tid = conn as u64 + 1;
                let req = t.push(root, &job.id, tid, o.submit, o.done);
                t.push(req, "serve.ack", tid, o.submit, ack);
                t.push(req, "serve.first_row", tid, ack, first_row);
                t.push(req, "serve.exec", tid, first_row, o.done);
            }
            out += &format!("{}\n", job.id);
            for row in &o.rows {
                out += &canonical_row(row);
                out.push('\n');
            }
        }
    }
    // Simulated counts, exact with one server worker: they must repeat.
    let c = &mut s.counts;
    c.insert("sim_accesses".into(), s.sim_accesses as f64);
    c.insert("requests".into(), s.ops as f64);
    c.insert(
        "server.jobs_completed".into(),
        summary.jobs_completed as f64,
    );
    c.insert("serve.cold_frac".into(), share(cold.len() as u64, s.ops));

    if t.on() {
        let l = &mut s.layers;
        l.insert("serve.ack_ms".into(), median(&ack_ms));
        l.insert("serve.first_row_ms".into(), median(&first_row_ms));
        l.insert("serve.exec_ms".into(), median(&exec_ms));
        l.insert("serve.busy_rejects".into(), busy as f64);
        l.insert(
            "serve.rows_dropped".into(),
            session_dropped.iter().sum::<u64>() as f64,
        );
        l.insert("serve.cached_frac".into(), share(cached, sweep_points));
        l.insert("serve.cold_frac".into(), share(cold.len() as u64, s.ops));
        l.insert("serve.cold_ms".into(), median(&cold_ms));
        l.insert("serve.warm_ms".into(), median(&warm_ms));
        // What the requests beyond p99 did: generate their trace, or
        // compute sweep points.
        let p99 = crate::util::percentile(&s.latencies_ms, 0.99);
        let (mut tail, mut tail_cold, mut tail_sweep) = (0u64, 0u64, 0u64);
        for (conn, (jobs, outs)) in plans.iter().zip(&outcomes).enumerate() {
            for (r, (job, o)) in jobs.iter().zip(outs).enumerate() {
                let End::Done { .. } = o.end else {
                    continue;
                };
                if ms(o.submit, o.done) > p99 {
                    tail += 1;
                    tail_cold += u64::from(cold.contains(&(conn, r)));
                    tail_sweep += u64::from(matches!(job.kind, Kind::Sweep));
                }
            }
        }
        l.insert("serve.tail_cold_frac".into(), share(tail_cold, tail));
        l.insert("serve.tail_sweep_frac".into(), share(tail_sweep, tail));
        // The one engine generates each key once.
        l.insert("trace_gen.calls".into(), cold.len() as f64);
        l.insert("trace_gen.dup_frac".into(), 0.0);
        // Client time outside any request, averaged over connections.
        let idle: f64 = outcomes
            .iter()
            .map(|outs| {
                let busy_s: f64 = outs
                    .iter()
                    .map(|o| o.done.saturating_duration_since(o.submit).as_secs_f64())
                    .sum();
                (s.wall_s - busy_s).max(0.0)
            })
            .sum::<f64>()
            / outcomes.len() as f64;
        l.insert("unattributed_s".into(), idle);
    }
    Ok(out)
}

/// Milliseconds from `a` to `b`.
fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Recomputes served results offline: each (benchmark, seed) data-side
/// stream is extracted once, and each model replays it once.
#[derive(Default)]
struct Verifier {
    traces: HashMap<(&'static str, u64), SideTrace>,
    rates: HashMap<(&'static str, u64, &'static str), f64>,
}

impl Verifier {
    fn trace(&mut self, job: &Job) -> &SideTrace {
        let len = job.len();
        self.traces.entry(job.key()).or_insert_with(|| {
            let profile = resolve_benchmark(job.benchmark).expect("plan names known benchmarks");
            SideTrace::extract(
                Trace::new(&profile, len.seed).take(RECORDS as usize),
                Side::Data,
                len.warmup,
            )
        })
    }

    /// Simulated L1 accesses of one model replay of the job's stream.
    fn accesses(&mut self, job: &Job) -> u64 {
        self.trace(job).accesses().len() as u64
    }

    /// Checks the row count, and for replays that the served miss rate
    /// equals `run::replay_config_on` on the same job bit for bit.
    fn check(&mut self, job: &Job, rows: &[String]) -> Result<(), String> {
        match job.kind {
            Kind::Replay { model } => {
                let [row] = rows else {
                    return Err(format!("replay streamed {} rows, expected 1", rows.len()));
                };
                let (benchmark, seed) = job.key();
                let rate = match self.rates.get(&(benchmark, seed, model)) {
                    Some(&rate) => rate,
                    None => {
                        let (_, config) = resolve_model(model)?;
                        let len = job.len();
                        let trace = self.trace(job);
                        let rate = replay_config_on(
                            benchmark,
                            trace,
                            &config,
                            SIZE_BYTES,
                            Side::Data,
                            len,
                        );
                        self.rates.insert((benchmark, seed, model), rate);
                        rate
                    }
                };
                let served = json_str_field(row, "miss_rate_bits").unwrap_or_default();
                if served != f64_bits(rate) {
                    return Err(format!(
                        "served miss_rate_bits {served}, offline {}",
                        f64_bits(rate)
                    ));
                }
            }
            Kind::Sweep if rows.len() != SWEEP_MFS.len() => {
                return Err(format!(
                    "sweep streamed {} rows, expected {}",
                    rows.len(),
                    SWEEP_MFS.len()
                ));
            }
            _ if rows.is_empty() => return Err("no rows".into()),
            _ => {}
        }
        Ok(())
    }
}

//! The per-layer probe of a traced sample: the same records of one
//! benchmark pushed through each layer's public entry point in turn —
//! generate, extract, every L1 model (batched and scalar), L1-only,
//! hierarchy-only and the full `Cpu::run` in `Cpu::run`'s call order,
//! and the energy model. Self times come from subtracting one timed
//! call from the next, so no timer runs inside a kernel. Each timed
//! call repeats [`REPS`] times; host times are medians and every
//! simulated count must repeat exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use cache_sim::{AccessKind, Addr, CacheModel, MemoryHierarchy};
use cpu_model::{Cpu, CpuConfig};
use harness::perf::{self, PerfRow};
use harness::run::{RunLength, Side, SideTrace};
use harness::{job_seed, CacheConfig};
use telemetry::SpanId;
use trace_gen::{profiles, Op, Trace, TraceBuffer};

use crate::util::{median, Tracer};
use crate::Sample;

/// Repetitions of every timed call.
const REPS: usize = 3;
/// The probed benchmark (memory-bound, so the L2 path is busy).
const BENCHMARK: &str = "mcf";
/// L1 size of the probed models (Figs 4 and 8).
const L1_BYTES: usize = 16 * 1024;

/// One representative configuration per model family.
fn models() -> [(&'static str, CacheConfig); 10] {
    [
        ("dm", CacheConfig::DirectMapped),
        ("sa8", CacheConfig::SetAssoc(8)),
        ("victim16", CacheConfig::Victim(16)),
        ("bcache-mf8-bas8", CacheConfig::BCache { mf: 8, bas: 8 }),
        ("column", CacheConfig::ColumnAssoc),
        ("skewed", CacheConfig::SkewedAssoc),
        ("agac", CacheConfig::Agac),
        ("pam", CacheConfig::Pam),
        ("diffbit", CacheConfig::DiffBit),
        ("hac32", CacheConfig::Hac),
    ]
}

/// Times `f` [`REPS`] times inside spans named `name`; returns the
/// median seconds and the last result. `same` must hold between every
/// pair of results (the simulated outcome repeats exactly).
fn timed<R>(
    t: &Tracer,
    parent: Option<SpanId>,
    name: &str,
    s: &mut Sample,
    same: impl Fn(&R, &R) -> bool,
    mut f: impl FnMut() -> R,
) -> (f64, R) {
    let mut secs = Vec::with_capacity(REPS);
    let mut last: Option<R> = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        t.push(parent, name, 0, t0, t1);
        secs.push(t1.duration_since(t0).as_secs_f64());
        if let Some(prev) = &last {
            if !same(prev, &r) {
                s.fail(format!("probe: {name} result changed between repetitions"));
            }
        }
        last = Some(r);
    }
    (median(&secs), last.expect("REPS > 0"))
}

/// Feeds `records` to `access` exactly as `Cpu::run` drives its L1s:
/// one `InstrFetch` per new 32-byte block, then the record's data access.
fn drive_l1s(records: &TraceBuffer, mut access: impl FnMut(Addr, AccessKind)) {
    let mut fetch_line = u64::MAX;
    for rec in records.iter() {
        let line = rec.pc / 32;
        if line != fetch_line {
            fetch_line = line;
            access(Addr::new(rec.pc), AccessKind::InstrFetch);
        }
        match rec.op {
            Op::Load(a) => access(Addr::new(a), AccessKind::Read),
            Op::Store(a) => access(Addr::new(a), AccessKind::Write),
            _ => {}
        }
    }
}

/// Direct-mapped L1s seeded like a Fig 8 job.
fn l1_pair(len: RunLength) -> (Box<dyn CacheModel>, Box<dyn CacheModel>) {
    let build = |side| {
        CacheConfig::DirectMapped
            .build(L1_BYTES, job_seed(len.seed, BENCHMARK, side))
            .expect("direct-mapped 16 kB builds")
    };
    (build(Side::Instruction), build(Side::Data))
}

/// Runs the probe, adding the per-layer metrics to `s.layers`.
pub fn run(seed: u64, t: &Tracer, s: &mut Sample) {
    let len = RunLength {
        seed,
        ..RunLength::default()
    };
    let profile = profiles::by_name(BENCHMARK).expect("probe benchmark exists");
    let root = t.reserve();
    let start = Instant::now();
    let mut l = BTreeMap::new();

    let n = len.records as usize;
    let (gen_s, records) = timed(
        t,
        root,
        "trace_gen",
        s,
        |a, b| a == b,
        || Trace::new(&profile, len.seed).take_buffer(n),
    );
    l.insert("trace_gen.busy_s".into(), gen_s);
    l.insert("trace_gen.records".into(), records.len() as f64);

    let (extract_s, (data, instr)) = timed(
        t,
        root,
        "extract",
        s,
        |a, b| a == b,
        || {
            (
                SideTrace::extract(records.iter(), Side::Data, len.warmup),
                SideTrace::extract(records.iter(), Side::Instruction, len.warmup),
            )
        },
    );
    l.insert("extract.busy_s".into(), extract_s);
    l.insert(
        "extract.accesses".into(),
        (data.accesses().len() + instr.accesses().len()) as f64,
    );

    let accesses = data.accesses();
    let per_access = |secs: f64| secs * 1e9 / accesses.len() as f64;
    for (name, config) in models() {
        let seed = job_seed(len.seed, BENCHMARK, Side::Data);
        let (batch_s, batch_misses) = timed(
            t,
            root,
            &format!("l1.{name}.batch"),
            s,
            |a, b| a == b,
            || {
                let mut m = config.build(L1_BYTES, seed).expect("probe models build");
                m.access_batch(accesses);
                m.stats().total().misses()
            },
        );
        let (scalar_s, scalar_misses) = timed(
            t,
            root,
            &format!("l1.{name}.scalar"),
            s,
            |a, b| a == b,
            || {
                let mut m = config.build(L1_BYTES, seed).expect("probe models build");
                for &(addr, kind) in accesses {
                    m.access(addr, kind);
                }
                m.stats().total().misses()
            },
        );
        if batch_misses != scalar_misses {
            s.fail(format!(
                "probe: {name}: batched {batch_misses} vs scalar {scalar_misses} misses"
            ));
        }
        l.insert(format!("l1.{name}.batch_ns"), per_access(batch_s));
        l.insert(format!("l1.{name}.scalar_ns"), per_access(scalar_s));
        l.insert(format!("l1.{name}.misses"), batch_misses as f64);
    }

    // The CPU path: L1-only, hierarchy-only and the full core on the
    // same records, each with fresh direct-mapped L1s (the Fig 8 baseline).
    let (l1_only_s, _) = timed(
        t,
        root,
        "cpu_path.l1_only",
        s,
        |a, b| a == b,
        || {
            let (mut l1i, mut l1d) = l1_pair(len);
            drive_l1s(&records, |addr, kind| {
                let l1 = if kind == AccessKind::InstrFetch {
                    &mut l1i
                } else {
                    &mut l1d
                };
                l1.access(addr, kind);
            });
            (
                l1i.stats().total().accesses(),
                l1d.stats().total().accesses(),
            )
        },
    );
    let (hier_s, (l2_accesses, memory_accesses)) = timed(
        t,
        root,
        "cpu_path.hierarchy",
        s,
        |a, b| a == b,
        || {
            let (l1i, l1d) = l1_pair(len);
            let mut h = MemoryHierarchy::new(l1i, l1d);
            drive_l1s(&records, |addr, kind| {
                if kind == AccessKind::InstrFetch {
                    h.fetch(addr);
                } else {
                    h.data_access(addr, kind);
                }
            });
            (h.l2_accesses(), h.memory_accesses())
        },
    );
    let (cpu_s, (report, cpu_l2)) = timed(
        t,
        root,
        "cpu_path.cpu",
        s,
        |a, b| a == b,
        || {
            let (l1i, l1d) = l1_pair(len);
            let mut cpu = Cpu::new(CpuConfig::default(), MemoryHierarchy::new(l1i, l1d));
            let report = cpu.run(records.iter());
            let h = cpu.hierarchy();
            (report, (h.l2_accesses(), h.memory_accesses()))
        },
    );
    if cpu_l2 != (l2_accesses, memory_accesses) {
        s.fail(format!(
            "probe: Cpu::run drove the L2 differently from the hierarchy-only pass: {cpu_l2:?} vs {:?}",
            (l2_accesses, memory_accesses)
        ));
    }
    l.insert("hierarchy.busy_s".into(), hier_s);
    l.insert("l2.self_s".into(), hier_s - l1_only_s);
    l.insert("l2.accesses".into(), l2_accesses as f64);
    l.insert("l2.memory_accesses".into(), memory_accesses as f64);
    l.insert("cpu.busy_s".into(), cpu_s);
    l.insert("cpu.self_s".into(), cpu_s - hier_s);
    l.insert(
        "cpu.ns_per_instr".into(),
        cpu_s * 1e9 / report.instructions as f64,
    );
    l.insert("cpu.sim_instructions".into(), report.instructions as f64);
    l.insert("cpu.sim_cycles".into(), report.cycles as f64);

    // The energy model over a Fig 9 row of the probed benchmark.
    // `perf::run_config` regenerates the trace itself, so its cycle
    // count must match the probe's core exactly.
    let outcomes: Vec<_> = [
        CacheConfig::DirectMapped,
        CacheConfig::BCache { mf: 8, bas: 8 },
    ]
    .iter()
    .map(|c| perf::run_config(&profile, c, len))
    .collect();
    if outcomes[0].counts.cycles != report.cycles {
        s.fail(format!(
            "probe: perf::run_config gave {} cycles, the probe's core {}",
            outcomes[0].counts.cycles, report.cycles
        ));
    }
    let row = PerfRow {
        benchmark: BENCHMARK.into(),
        outcomes,
    };
    const ENERGY_REPS: u32 = 1000;
    let (energy_s, _) = timed(
        t,
        root,
        "power",
        s,
        |a: &f64, b: &f64| a.to_bits() == b.to_bits(),
        || {
            let mut acc = 0.0;
            for _ in 0..ENERGY_REPS {
                acc += std::hint::black_box(&row).normalized_energy()[1];
            }
            acc
        },
    );
    l.insert("power.busy_s".into(), energy_s / f64::from(ENERGY_REPS));

    t.record(root, None, "probe", 0, start);
    for (k, v) in l {
        let simulated = [
            "misses",
            "records",
            "accesses",
            "sim_instructions",
            "sim_cycles",
        ];
        if simulated.iter().any(|suffix| k.ends_with(suffix)) {
            s.counts.insert(format!("probe.{k}"), v);
        }
        s.layers.insert(k, v);
    }
}

//! `l1-sweep`: the miss-rate sweeps of Figs 4, 5, 12 and §7.1 on an
//! engine whose side traces were all generated and extracted during
//! set-up, so the timed phase is batched L1 replay plus engine
//! dispatch.

use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use harness::missrate::{self, MissRateFigure};
use harness::run::{RunLength, Side};
use harness::{CacheConfig, Engine};
use trace_gen::{profiles, BenchmarkProfile};

use crate::paper_all::sweep_accesses;
use crate::util::{EngineActivity, Tracer};
use crate::Sample;

/// Every (benchmark, side) stream the four sweeps replay.
fn side_keys() -> Vec<(BenchmarkProfile, Side)> {
    let data = profiles::all().into_iter().map(|p| (p, Side::Data));
    let instr = profiles::icache_reported()
        .into_iter()
        .map(|p| (p, Side::Instruction));
    data.chain(instr).collect()
}

/// Runs one sample; returns every cell's miss rate as exact bits.
pub fn sample(seed: u64, t: &Tracer, s: &mut Sample) -> String {
    let len = RunLength {
        seed,
        ..RunLength::default()
    };
    let setup_start = Instant::now();
    let engine = Engine::new(crate::workers());
    let keys = side_keys();
    let setup_root = t.reserve();
    engine.run(
        keys.iter()
            .map(|(p, side)| {
                let engine = &engine;
                move || engine.side_trace(p, len, *side).accesses().len()
            })
            .collect(),
    );
    t.record(setup_root, None, "setup.side_traces", 0, setup_start);
    s.setup_s = Some(setup_start.elapsed().as_secs_f64());

    let root = t.reserve();
    let start = Instant::now();
    // `Engine::run` re-raises a job's permanent failure; catch it so the
    // sample still reports, with the failure counted.
    let phase = s.time_phase(|| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            let (fp, int) = t.span(root, "exp.fig4", || missrate::figure4_with(&engine, len));
            let fig5 = t.span(root, "exp.fig5", || missrate::figure5_with(&engine, len));
            let fig12 = t.span(root, "exp.fig12", || missrate::figure12_with(&engine, len));
            let related = t.span(root, "exp.related", || {
                missrate::related_work_with(&engine, len)
            });
            crate::paper_all::sided(fp, int, fig5, fig12, related)
        }))
    });
    t.record(root, None, "l1-sweep", 0, start);
    let spans = engine.span_snapshot();
    let activity = EngineActivity::from_log(&spans, start);
    s.ops = activity.jobs;
    s.latencies_ms = activity.exec_ms.clone();
    let figs: Vec<(MissRateFigure, Side)> = match phase {
        Ok(figs) => figs,
        Err(payload) => {
            crate::engine_failed(s, "l1-sweep", payload.as_ref());
            return String::new();
        }
    };

    s.sim_accesses = figs
        .iter()
        .map(|(fig, side)| sweep_accesses(&engine, fig, *side, len))
        .sum();
    s.counts
        .insert("sim_accesses".into(), s.sim_accesses as f64);
    let failed = engine
        .failure_snapshot()
        .counter_value("engine.jobs_failed_permanently");
    s.counts.insert("engine.jobs".into(), activity.jobs as f64);

    spot_check(seed, &engine, len, &figs, s);

    if t.on() {
        let l = &mut s.layers;
        for name in ["fig4", "fig5", "fig12", "related"] {
            l.insert(
                format!("exp.{name}.wall_s"),
                t.total(root, &format!("exp.{name}")).as_secs_f64(),
            );
        }
        l.insert(
            "unattributed_s".into(),
            (s.wall_s - t.children_total(root).as_secs_f64()).max(0.0),
        );
        activity.layer_metrics(l, engine.jobs(), s.wall_s, failed);
        // Set-up asked the cache for each side stream once and never for
        // raw records, so every extraction streamed its own generation:
        // a benchmark needed on both sides was generated twice. This
        // exact count replaces the upper bound.
        let distinct = keys
            .iter()
            .map(|(p, _)| p.name)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        crate::paper_all::trace_cache_metrics(&engine, l);
        l.insert(
            "trace_gen.dup_frac".into(),
            (keys.len() - distinct) as f64 / keys.len() as f64,
        );
        t.merge(&spans);
    }

    let mut out = String::new();
    for (fig, _) in &figs {
        for row in &fig.rows {
            let _ = write!(
                out,
                "{}\t{}\tdm={:016x}",
                fig.title,
                row.benchmark,
                row.baseline_miss_rate.to_bits()
            );
            for o in &row.outcomes {
                let _ = write!(out, "\t{}={:016x}", o.label, o.miss_rate.to_bits());
            }
            out.push('\n');
        }
    }
    out
}

/// Replays one seed-chosen benchmark per side outside the engine, every
/// model of its Fig 4/5 and Fig 12 (8 kB) cells: all models of a cell
/// must see the same access count, and each miss rate must equal the
/// engine's cell bit for bit.
fn spot_check(
    seed: u64,
    engine: &Engine,
    len: RunLength,
    figs: &[(MissRateFigure, Side)],
    s: &mut Sample,
) {
    let data = profiles::all();
    let instr = profiles::icache_reported();
    let picks = [
        (&data[seed as usize % data.len()], Side::Data),
        (&instr[seed as usize % instr.len()], Side::Instruction),
    ];
    for (profile, side) in picks {
        let trace = engine.side_trace(profile, len, side);
        let seed = harness::job_seed(len.seed, profile.name, side);
        let fig4_or_5 = if side == Side::Data {
            "Figure 4"
        } else {
            "Figure 5"
        };
        for (configs, size, prefix, title_part) in [
            (CacheConfig::figure4_set(), 16 * 1024, fig4_or_5, "16 kB"),
            (CacheConfig::figure12_set(), 8 * 1024, "Figure 12", "8 kB"),
        ] {
            let row = figs
                .iter()
                .filter(|(f, fs)| {
                    *fs == side && f.title.starts_with(prefix) && f.title.ends_with(title_part)
                })
                .find_map(|(f, _)| f.rows.iter().find(|r| r.benchmark == profile.name));
            let Some(row) = row else {
                s.fail(format!(
                    "l1-sweep: {} missing from {prefix} ({title_part})",
                    profile.name
                ));
                continue;
            };
            let mut accesses = Vec::new();
            let cells = std::iter::once((CacheConfig::DirectMapped, row.baseline_miss_rate)).chain(
                configs
                    .iter()
                    .copied()
                    .zip(row.outcomes.iter().map(|o| o.miss_rate)),
            );
            for (config, engine_rate) in cells {
                let mut model = config.build(size, seed).expect("figure configs build");
                trace.replay(model.as_mut());
                accesses.push(model.stats().total().accesses());
                if model.stats().miss_rate().to_bits() != engine_rate.to_bits() {
                    s.fail(format!(
                        "l1-sweep: {} {side:?} {} {title_part}: replay {} vs engine {}",
                        profile.name,
                        config.label(),
                        model.stats().miss_rate(),
                        engine_rate
                    ));
                }
            }
            if accesses.windows(2).any(|w| w[0] != w[1]) {
                s.fail(format!(
                    "l1-sweep: {} {side:?} {title_part}: models saw different access counts {accesses:?}",
                    profile.name
                ));
            }
            s.counts.insert(
                format!("check.{}.{side:?}.{title_part}.accesses", profile.name),
                accesses[0] as f64,
            );
        }
    }
}

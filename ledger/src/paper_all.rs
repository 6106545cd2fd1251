//! `paper-all`: the whole evaluation exactly as `bcache-repro all`
//! runs it — every experiment in paper order on one cold [`Engine`] —
//! with its stdout collected in memory instead of printed.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use harness::missrate::MissRateFigure;
use harness::run::{RunLength, Side};
use harness::{
    balance, design_space, extensions, fig3, kernels_exp, missrate, perf, tables, Engine,
};
use trace_gen::profiles;

use crate::util::{EngineActivity, Tracer};
use crate::Sample;

/// The experiments of `all`, as named in the `exp.*` metrics.
pub const EXPERIMENTS: [&str; 11] = [
    "fig4", "fig5", "fig3", "fig8_9", "tab5", "tab7", "fig12", "related", "drowsy", "kernels",
    "tables",
];

/// Trace records per benchmark: `bcache-repro all --records 500000`.
/// A quarter of the CLI default, so a run holds several fresh-process
/// samples and their median, instead of one.
pub const RECORDS: u64 = 500_000;

/// The engine `all` builds (`--jobs` = the worker budget).
pub fn engine() -> Engine {
    Engine::new(crate::workers())
}

/// Simulated L1 accesses of the miss-rate sweeps: every cell replays
/// its benchmark's whole side stream once per column plus the baseline.
pub fn sweep_accesses(engine: &Engine, fig: &MissRateFigure, side: Side, len: RunLength) -> u64 {
    fig.rows
        .iter()
        .map(|row| {
            let p = profiles::by_name(&row.benchmark).expect("figure rows name known profiles");
            let accesses = engine.side_trace(&p, len, side).accesses().len() as u64;
            accesses * (fig.labels.len() as u64 + 1)
        })
        .sum()
}

/// Pairs each sweep figure with the side it replays, in the order
/// `all` runs them (`figure12_with` alternates data and instruction).
pub fn sided(
    fp: MissRateFigure,
    int: MissRateFigure,
    fig5: MissRateFigure,
    fig12: Vec<MissRateFigure>,
    related: MissRateFigure,
) -> Vec<(MissRateFigure, Side)> {
    let mut figs = vec![
        (fp, Side::Data),
        (int, Side::Data),
        (fig5, Side::Instruction),
    ];
    let sides = [Side::Data, Side::Instruction].into_iter().cycle();
    figs.extend(fig12.into_iter().zip(sides));
    figs.push((related, Side::Data));
    figs
}

/// Runs one sample; returns the text `bcache-repro all --records 500000`
/// would print.
pub fn sample(seed: u64, t: &Tracer, s: &mut Sample) -> String {
    let len = RunLength {
        seed,
        ..RunLength::with_records(RECORDS)
    };
    let engine = engine();
    let root = t.reserve();
    let start = Instant::now();
    let mut out = String::new();
    let mut failures = Vec::new();
    // `Engine::run` re-raises a job's permanent failure; catch it so the
    // sample still reports, with the failure counted.
    let phase = s.time_phase(|| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            out += &t.span(root, "exp.tables", tables::render_table4);
            let (fp, int) = t.span(root, "exp.fig4", || missrate::figure4_with(&engine, len));
            out += &t.span(root, "render.fig4", || {
                format!("{}\n{}", fp.render(), int.render())
            });
            let fig5 = t.span(root, "exp.fig5", || missrate::figure5_with(&engine, len));
            out += &t.span(root, "render.fig5", || fig5.render());
            out += &t.span(root, "exp.fig3", || fig3::figure3_with(&engine, len).1);
            out += &t.span(root, "exp.tables", || {
                tables::render_table1() + &tables::render_table2() + &tables::render_table3()
            });
            let rows = t.span(root, "exp.fig8_9", || perf::run_perf_with(&engine, len));
            out += &t.span(root, "render.fig8_9", || {
                perf::render_figure8(&rows) + &perf::render_figure9(&rows)
            });
            let grid = t.span(root, "exp.tab5", || {
                design_space::design_space_grid_with(&engine, len)
            });
            out += &t.span(root, "render.tab5", || {
                design_space::render_tables_5_and_6(&grid)
            });
            match t.span(root, "exp.tab7", || balance::table7_with(&engine, len)) {
                Ok(rows) => out += &t.span(root, "render.tab7", || balance::render_table7(&rows)),
                Err(msg) => failures.push(format!("paper-all: tab7: {msg}")),
            }
            let fig12 = t.span(root, "exp.fig12", || missrate::figure12_with(&engine, len));
            out += &t.span(root, "render.fig12", || {
                fig12.iter().map(|f| f.render() + "\n").collect::<String>()
            });
            let related = t.span(root, "exp.related", || {
                missrate::related_work_with(&engine, len)
            });
            out += &t.span(root, "render.related", || related.render());
            out += &t.span(root, "exp.tables", extensions::render_hac_comparison);
            match t.span(root, "exp.drowsy", || extensions::drowsy_analysis(len)) {
                Ok(rows) => {
                    out += &t.span(root, "render.drowsy", || extensions::render_drowsy(&rows))
                }
                Err(msg) => failures.push(format!("paper-all: drowsy: {msg}")),
            }
            out += &t.span(root, "exp.tables", extensions::render_vp_analysis);
            let kernels = t.span(root, "exp.kernels", || {
                kernels_exp::run_kernels_with(&engine, len.records)
            });
            out += &t.span(root, "render.kernels", || {
                kernels_exp::render_kernels(&kernels)
            });

            (sided(fp, int, fig5, fig12, related), rows)
        }))
    });
    t.record(root, None, "paper-all", 0, start);
    s.failures.extend(failures);
    let spans = engine.span_snapshot();
    let activity = EngineActivity::from_log(&spans, start);
    s.ops = activity.jobs;
    s.latencies_ms = activity.exec_ms.clone();
    let (figs, rows) = match phase {
        Ok(v) => v,
        Err(payload) => {
            crate::engine_failed(s, "paper-all", payload.as_ref());
            return out;
        }
    };
    let sim = figs
        .iter()
        .map(|(fig, side)| sweep_accesses(&engine, fig, *side, len))
        .sum::<u64>()
        + rows
            .iter()
            .flat_map(|r| &r.outcomes)
            .map(|o| o.counts.l1_accesses)
            .sum::<u64>();
    s.sim_accesses = sim;
    s.counts.insert("sim_accesses".into(), sim as f64);

    let failed = engine
        .failure_snapshot()
        .counter_value("engine.jobs_failed_permanently");
    s.counts.insert("engine.jobs".into(), activity.jobs as f64);

    if t.on() {
        let l = &mut s.layers;
        for name in EXPERIMENTS {
            l.insert(
                format!("exp.{name}.wall_s"),
                t.total(root, &format!("exp.{name}")).as_secs_f64(),
            );
        }
        let render: f64 = [
            "fig4", "fig5", "fig8_9", "tab5", "tab7", "fig12", "related", "drowsy", "kernels",
        ]
        .iter()
        .map(|n| t.total(root, &format!("render.{n}")).as_secs_f64())
        .sum();
        l.insert("render.busy_s".into(), render);
        l.insert(
            "unattributed_s".into(),
            (s.wall_s - t.children_total(root).as_secs_f64()).max(0.0),
        );
        activity.layer_metrics(l, engine.jobs(), s.wall_s, failed);
        trace_cache_metrics(&engine, l);
        t.merge(&spans);
    }
    out
}

/// Trace-cache activity the engine exposes: generations
/// (`phase.trace_gen`) and side extractions (`phase.trace_extract`).
/// An extraction streams from the generator unless its records were
/// cached first, so `dup_frac` counts every extraction as a generation
/// and is an upper bound.
pub fn trace_cache_metrics(engine: &Engine, l: &mut std::collections::BTreeMap<String, f64>) {
    let timing = engine.timing_snapshot();
    let (gens, gen_s) = timing
        .timing("phase.trace_gen")
        .map_or((0, 0.0), |t| (t.count, t.total_nanos as f64 * 1e-9));
    let (extracts, extract_s) = timing
        .timing("phase.trace_extract")
        .map_or((0, 0.0), |t| (t.count, t.total_nanos as f64 * 1e-9));
    let generations = gens + extracts;
    let distinct = engine.traces().len() as u64;
    l.insert("trace_gen.in_jobs_s".into(), gen_s);
    l.insert("extract.in_jobs_s".into(), extract_s);
    l.insert("trace_gen.calls".into(), generations as f64);
    l.insert(
        "trace_gen.dup_frac".into(),
        if generations == 0 {
            0.0
        } else {
            generations.saturating_sub(distinct) as f64 / generations as f64
        },
    );
}

//! Command-line plumbing for the telemetry subsystem: the shared
//! `--metrics <path>` / `--trace-events <path>` flags, metric-file
//! writers, and the per-set-usage histogram builder the `run` and
//! `stats` reports share.
//!
//! The flags are stripped from the argument list *before* each
//! subcommand's own option parser runs, so `RunOptions`, `BenchOptions`
//! and `FuzzOptions` stay untouched (and `FuzzOptions` stays `Copy`).

use std::io;

use cache_sim::SetUsage;
use telemetry::{EventRing, Histogram, Recorder};

/// The telemetry output destinations requested on the command line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryFlags {
    /// `--metrics <path>`: write the merged [`Recorder`] as JSON.
    pub metrics: Option<String>,
    /// `--trace-events <path>`: write an [`EventRing`] as JSON Lines.
    pub trace_events: Option<String>,
}

impl TelemetryFlags {
    /// Removes `--metrics <path>` and `--trace-events <path>` from
    /// `args`, returning the requested destinations. Every other
    /// argument is left in place (and in order) for the subcommand's
    /// own parser.
    ///
    /// Scanning stops at a `--` terminator, and a token that is the
    /// *value* of another path/name-taking option (`--out --metrics`
    /// names a file literally called `--metrics`) is skipped, not
    /// stripped — the earlier greedy scan consumed both shapes.
    ///
    /// # Errors
    ///
    /// Returns a message if either flag is missing its path argument.
    pub fn extract(args: &mut Vec<String>) -> Result<TelemetryFlags, String> {
        // Options (of any subcommand parser) whose next token is a
        // value, which must therefore never be interpreted as a
        // telemetry flag.
        const VALUE_OPTS: &[&str] = &[
            "--records",
            "--warmup",
            "--seed",
            "--jobs",
            "--bench",
            "--side",
            "--out",
            "--baseline",
            "--iters",
            "--scenario",
            "--retries",
            "--backoff-ms",
            "--job-timeout-ms",
            "--inject-fault",
            "--checkpoint",
            "--resume",
            "--model",
            "--benchmark",
            "--window",
            "--event-ring-cap",
            "--addr",
            "--queue-cap",
            "--outbuf-cap",
            "--workers",
            "--connections",
            "--requests",
        ];
        let mut flags = TelemetryFlags::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--" => break,
                "--metrics" => {
                    if i + 1 >= args.len() {
                        return Err("--metrics needs a path argument".into());
                    }
                    flags.metrics = Some(args.remove(i + 1));
                    args.remove(i);
                }
                "--trace-events" => {
                    if i + 1 >= args.len() {
                        return Err("--trace-events needs a path argument".into());
                    }
                    flags.trace_events = Some(args.remove(i + 1));
                    args.remove(i);
                }
                opt if VALUE_OPTS.contains(&opt) => i += 2,
                _ => i += 1,
            }
        }
        Ok(flags)
    }

    /// Whether any telemetry output was requested.
    pub fn any(&self) -> bool {
        self.metrics.is_some() || self.trace_events.is_some()
    }
}

/// Writes `rec` to `path` as JSON. `include_timing` controls whether
/// the wall-clock `timing` section (non-deterministic by nature) is
/// part of the file; the determinism golden test writes without it.
pub fn write_metrics(path: &str, rec: &Recorder, include_timing: bool) -> io::Result<()> {
    std::fs::write(path, rec.to_json(include_timing))
}

/// Writes `ring` to `path` as JSON Lines (header line with
/// capacity/pushed/dropped, then one event object per line).
pub fn write_events(path: &str, ring: &EventRing) -> io::Result<()> {
    std::fs::write(path, ring.to_jsonl())
}

/// Renders the degraded-run summary appended to `run`/`stats`/figure
/// reports when any job attempt failed: how many failures of each kind,
/// how many jobs recovered via retry. Results above the line are still
/// exact — retried jobs are pure, so a recovered run is byte-identical
/// to a clean one.
pub fn degraded_summary(metrics: &Recorder) -> String {
    let v = |k: &str| metrics.counter_value(k);
    format!(
        "\nDEGRADED RUN: {} job failure(s) ({} panic, {} timeout, {} corrupt); \
         {} job(s) recovered via retry. Results are exact (retried jobs are pure).\n",
        v("engine.job_failures"),
        v("engine.job_panics"),
        v("engine.job_timeouts"),
        v("engine.job_corrupt_results"),
        v("engine.jobs_recovered"),
    )
}

/// Builds the log2 histogram of per-set access counts — the
/// set-pressure distribution behind the paper's balance argument
/// (Table 7): a direct-mapped cache shows a wide spread (hot sets many
/// buckets above cold ones), a balanced cache concentrates every set
/// into a few adjacent buckets.
pub fn usage_histogram(usage: &SetUsage) -> Histogram {
    let mut h = Histogram::new();
    for set in 0..usage.sets() {
        h.record(usage.accesses(set));
    }
    h
}

/// Records one model's post-replay aggregates into `rec` under
/// `prefix`: access/miss/writeback counters plus the per-set usage
/// histogram when the model tracks one.
pub fn record_model(rec: &mut Recorder, prefix: &str, model: &dyn cache_sim::CacheModel) {
    let total = model.stats().total();
    rec.counter(&format!("{prefix}.accesses"), total.accesses());
    rec.counter(&format!("{prefix}.misses"), total.misses());
    rec.counter(&format!("{prefix}.writebacks"), model.stats().writebacks());
    if let Some(usage) = model.set_usage() {
        for set in 0..usage.sets() {
            rec.observe(&format!("{prefix}.set_accesses"), usage.accesses(set));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extract_strips_only_telemetry_flags() {
        let mut a = args(&[
            "--records",
            "500",
            "--metrics",
            "m.json",
            "--jobs",
            "2",
            "--trace-events",
            "e.jsonl",
        ]);
        let f = TelemetryFlags::extract(&mut a).unwrap();
        assert_eq!(f.metrics.as_deref(), Some("m.json"));
        assert_eq!(f.trace_events.as_deref(), Some("e.jsonl"));
        assert!(f.any());
        assert_eq!(a, args(&["--records", "500", "--jobs", "2"]));
    }

    #[test]
    fn extract_without_flags_is_identity() {
        let mut a = args(&["--records", "500"]);
        let f = TelemetryFlags::extract(&mut a).unwrap();
        assert!(!f.any());
        assert_eq!(a, args(&["--records", "500"]));
    }

    #[test]
    fn extract_rejects_missing_paths() {
        assert!(TelemetryFlags::extract(&mut args(&["--metrics"])).is_err());
        assert!(TelemetryFlags::extract(&mut args(&["--records", "5", "--trace-events"])).is_err());
    }

    #[test]
    fn extract_stops_at_double_dash() {
        // Everything after `--` belongs to the subcommand verbatim.
        let mut a = args(&["--records", "500", "--", "--metrics", "m.json"]);
        let f = TelemetryFlags::extract(&mut a).unwrap();
        assert!(!f.any());
        assert_eq!(a, args(&["--records", "500", "--", "--metrics", "m.json"]));
        // Flags before the terminator are still stripped.
        let mut a = args(&["--metrics", "m.json", "--", "--trace-events", "e.jsonl"]);
        let f = TelemetryFlags::extract(&mut a).unwrap();
        assert_eq!(f.metrics.as_deref(), Some("m.json"));
        assert!(f.trace_events.is_none());
        assert_eq!(a, args(&["--", "--trace-events", "e.jsonl"]));
    }

    #[test]
    fn extract_skips_profile_option_values() {
        // "--metrics" here is the VALUE of profile's --model /
        // --benchmark, not a telemetry flag.
        let mut a = args(&[
            "--model",
            "--metrics",
            "--benchmark",
            "--trace-events",
            "--window",
            "4096",
            "--event-ring-cap",
            "--metrics",
        ]);
        let f = TelemetryFlags::extract(&mut a).unwrap();
        assert!(!f.any());
        assert_eq!(a.len(), 8, "nothing stripped: {a:?}");
    }

    #[test]
    fn extract_skips_values_of_other_options() {
        // "--metrics" here is the VALUE of --out (a file named
        // "--metrics"), not a telemetry flag.
        let mut a = args(&["--out", "--metrics", "--jobs", "2"]);
        let f = TelemetryFlags::extract(&mut a).unwrap();
        assert!(!f.any());
        assert_eq!(a, args(&["--out", "--metrics", "--jobs", "2"]));
        // Same for a benchmark name and a checkpoint path.
        let mut a = args(&[
            "--bench",
            "--trace-events",
            "--checkpoint",
            "--metrics",
            "--metrics",
            "m.json",
        ]);
        let f = TelemetryFlags::extract(&mut a).unwrap();
        assert_eq!(f.metrics.as_deref(), Some("m.json"));
        assert!(f.trace_events.is_none());
        assert_eq!(
            a,
            args(&["--bench", "--trace-events", "--checkpoint", "--metrics"])
        );
    }

    #[test]
    fn extract_leaves_oracle_and_fuzz_flags_for_their_parsers() {
        // The oracle subcommand's value-free flags pass through
        // untouched, with telemetry flags interleaved among them.
        let mut a = args(&["--smoke", "--metrics", "m.json", "--csv", "--seed", "7"]);
        let f = TelemetryFlags::extract(&mut a).unwrap();
        assert_eq!(f.metrics.as_deref(), Some("m.json"));
        assert_eq!(a, args(&["--smoke", "--csv", "--seed", "7"]));
        // "--metrics" as the VALUE of fuzz's --scenario names a scenario
        // literally called "--metrics"; it must be skipped, not stripped.
        let mut a = args(&["--scenario", "--metrics", "--iters", "50"]);
        let f = TelemetryFlags::extract(&mut a).unwrap();
        assert!(!f.any());
        assert_eq!(a, args(&["--scenario", "--metrics", "--iters", "50"]));
    }

    #[test]
    fn degraded_summary_names_every_failure_kind() {
        let mut rec = Recorder::new();
        rec.counter("engine.job_failures", 3);
        rec.counter("engine.job_panics", 1);
        rec.counter("engine.job_timeouts", 2);
        rec.counter("engine.jobs_recovered", 3);
        let s = degraded_summary(&rec);
        assert!(s.contains("3 job failure(s)"), "{s}");
        assert!(s.contains("1 panic, 2 timeout, 0 corrupt"), "{s}");
        assert!(s.contains("3 job(s) recovered"), "{s}");
    }

    #[test]
    fn usage_histogram_counts_every_set() {
        use cache_sim::{AccessKind, Addr, CacheModel, DirectMappedCache};
        let mut dm = DirectMappedCache::new(256, 32).unwrap();
        for _ in 0..10 {
            dm.access(Addr::new(0), AccessKind::Read); // set 0: 10 accesses
        }
        dm.access(Addr::new(32), AccessKind::Read); // set 1: 1 access
        let h = usage_histogram(dm.set_usage().unwrap());
        assert_eq!(h.count(), 8, "one sample per set");
        assert_eq!(h.bucket(Histogram::bucket_index(10)), 1);
        assert_eq!(h.bucket(1), 1); // the single-access set
        assert_eq!(h.bucket(0), 6); // six untouched sets
    }

    #[test]
    fn record_model_writes_counters_and_histogram() {
        use cache_sim::{AccessKind, Addr, CacheModel, DirectMappedCache};
        let mut dm = DirectMappedCache::new(256, 32).unwrap();
        dm.access(Addr::new(0), AccessKind::Write);
        dm.access(Addr::new(0), AccessKind::Read);
        let mut rec = Recorder::new();
        record_model(&mut rec, "dm", &dm);
        assert_eq!(rec.counter_value("dm.accesses"), 2);
        assert_eq!(rec.counter_value("dm.misses"), 1);
        assert_eq!(rec.histogram("dm.set_accesses").unwrap().count(), 8);
    }
}

//! # telemetry — structured observability for the B-Cache reproduction
//!
//! A std-only telemetry layer shared by every crate of the workspace:
//!
//! * [`Recorder`] — named counters, `u64` [`Histogram`]s with log2
//!   buckets, and monotonic span timers. Each shard of a parallel run
//!   records into its own `Recorder`; [`Recorder::merge`] combines them
//!   **in input order**, so the merged counters and histograms are
//!   byte-identical for any `--jobs N`. Wall-clock span timings are kept
//!   in a separate section that is explicitly non-deterministic and can
//!   be excluded from golden comparisons ([`Recorder::to_json`]).
//! * [`Event`] / [`Observer`] — typed simulator events (PD
//!   reprogramming, BAS victim selection, misses, set-index touches)
//!   emitted by the B-Cache, the one model whose events carry what no
//!   counter holds. It takes the observer as a generic parameter
//!   defaulting to [`NullObserver`], whose [`Observer::ENABLED`]` ==
//!   false` compiles every emission site out of its replay kernel. The
//!   conventional models in `cache-sim` report through their
//!   `CacheStats` and `SetUsage` counters alone.
//! * [`EventRing`] — a bounded ring buffer of events with overflow
//!   (drop) accounting and a JSONL rendering for `--trace-events`.
//! * [`WindowSeries`] — a time-resolved view: counters snapshotted
//!   every N accesses into a bounded ring of [`WindowRow`]s (miss
//!   rate, PD churn, writebacks, per-set occupancy heat), fed from
//!   stats deltas (or, as a test reference, as the B-Cache's
//!   [`Observer`]), with an additive
//!   window-aligned merge. Rows are deterministic and render as
//!   JSONL/CSV (`bcache-repro profile`).
//! * [`SpanLog`] / [`chrome_trace_json`] — hierarchical wall-clock
//!   spans (parent/child with [`SpanId`]s) exported as Chrome Trace
//!   Event JSON that opens directly in `ui.perfetto.dev`. Wall-clock,
//!   so excluded from golden comparisons like the `timing` section.
//! * [`tele_error!`] / [`tele_warn!`] / [`tele_info!`] / [`tele_debug!`]
//!   — leveled logging macros to stderr, filtered by the `BCACHE_LOG`
//!   environment variable (`off`, `error`, `warn`, `info`, `debug`;
//!   default `info`).
//!
//! ## Quick start
//!
//! ```
//! use telemetry::{Recorder, tele_info};
//!
//! let mut rec = Recorder::new();
//! rec.counter("replay.misses", 3);
//! rec.observe("set_usage", 17);
//! let json = rec.to_json(false); // deterministic section only
//! assert!(json.contains("replay.misses"));
//! tele_info!("replayed with {} misses", 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod events;
pub mod log;
pub mod recorder;
pub mod spans;
pub mod timeseries;
pub mod trace_export;

pub use events::{Event, EventCounts, EventRing, FailureKind, MissKind, NullObserver, Observer};
pub use log::Level;
pub use recorder::{Histogram, Recorder, SpanStats, SpanTimer};
pub use spans::{SpanId, SpanLog, SpanRecord};
pub use timeseries::{WindowRow, WindowSeries, HEAT_COLUMNS};
pub use trace_export::chrome_trace_json;

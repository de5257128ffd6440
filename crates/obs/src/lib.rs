//! `curare-obs` — the unified tracing + metrics layer.
//!
//! The paper's evaluation is entirely about *shapes of execution*: the
//! §3.1 concurrency formula, the §3.2.1 locking bound, and the §4.1
//! server optimum are all statements about where time goes in a
//! concurrent run. This crate makes those shapes observable on real
//! runs with three pieces:
//!
//! - **event traces** ([`ring`], [`tracer`]): per-server lock-free
//!   ring buffers of timestamped [`event::EventKind`] records (task
//!   start/stop, enqueue, chain, batch flush, future block/resolve,
//!   lock wait begin/end, TLAB refill) on a nanosecond monotonic
//!   clock, read once per lane into nested invocation slices
//!   (`sweep`) and exportable as Chrome `trace_event` JSON
//!   ([`chrome`]) that opens directly in `chrome://tracing` / Perfetto;
//! - **metrics** ([`hist`], [`report`]): lock-free log₂ wait-time
//!   histograms (p50/p95/max) and a schema-versioned run report
//!   assembling pool, heap, and lock sections into one JSON document;
//! - **timelines** ([`timeline`]): busy-servers-over-time derived from
//!   the trace, the measured counterpart of the paper's Figures 6/7/9.
//!
//! The workspace builds with zero external crates, so [`json`]
//! provides the minimal JSON value type, serializer, and parser the
//! exports are written in.
//!
//! # Cost when disabled
//!
//! Recording is always compiled and armed at run time: with no tracer
//! installed, [`record`] is a single relaxed atomic load and a branch
//! (see the `disabled_record_is_cheap` test; the benchmark's
//! `obs.trace_overhead_ratio` is the armed cost). The access journal
//! (`curare_lisp::speclog`, which the sanitizer and speculation read)
//! has the same shape; this crate keeps only its id source
//! ([`sanitize`]).

pub mod chrome;
pub mod clock;
pub mod event;
pub mod hist;
pub mod json;
pub mod profile;
pub mod report;
pub mod ring;
pub mod sanitize;
mod sweep;
pub mod timeline;
pub mod tracer;

pub use clock::now_ns;
pub use event::{Event, EventKind};
pub use hist::{AtomicHistogram, HistogramSummary};
pub use json::Json;
pub use profile::{
    dropped_total, pack_pair, profiling_enabled, set_profiling, trace_health_section, unpack_pair,
    warn_if_dropped, EdgeCounts, PathAttribution, Profile, SCHEMA_PROFILE,
};
pub use report::{validate_keys, SCHEMA_REPORT, SCHEMA_TRACE};
pub use ring::{RingSnapshot, TraceRing};
pub use sanitize::{current_invocation, new_invocation, set_invocation, set_journaling, tick};
pub use timeline::Timeline;
pub use tracer::{install, installed, record, set_lane, Tracer};

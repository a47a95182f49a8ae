//! The per-layer metric catalogue and how each value is filled in.
//!
//! Timed metrics are medians of the spans around one public call. A
//! metric takes its value from the measured window when the workload's ops
//! make that call (or, for `sweep`, from the program's own per-cell stage
//! timings of the window's sweeps), else from the checks run on the
//! window's repositories, else from set-up, else from the post-window
//! probe, and the report says which. Probe values are not tied to the
//! workload's end-to-end figures. Counter metrics are deltas across the
//! measured window, each reported with its numerator and denominator.

use std::collections::HashMap;

use crate::common::{median, ratio};
use crate::trace::{durations, Phase, Span};

/// How a catalogue entry gets its value.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Median duration of the spans with this name, times the scale.
    Span(&'static str, f64),
    /// Set by the workload or the probe from program counters or the
    /// program's own timings.
    Counter,
}

pub const MS: f64 = 1.0;
pub const US: f64 = 1e3;

/// Every per-layer metric: name, unit, source. `BENCHMARK.json` lists the
/// same names.
const CATALOGUE: &[(&str, &str, Source)] = &[
    // storage::buffer
    ("buffer.page_reads_per_op", "count", Source::Counter),
    ("buffer.miss_ratio", "ratio", Source::Counter),
    ("buffer.hits", "count", Source::Counter),
    ("buffer.misses", "count", Source::Counter),
    ("buffer.evictions_per_op", "count", Source::Counter),
    ("buffer.writebacks_per_op", "count", Source::Counter),
    ("buffer.reader_retries", "count", Source::Counter),
    // storage::wal and checkpoint
    ("wal.bytes_per_op", "bytes", Source::Counter),
    ("wal.page_images_per_op", "count", Source::Counter),
    ("wal.fsyncs_per_commit", "ratio", Source::Counter),
    ("wal.group_size", "count", Source::Counter),
    (
        "checkpoint.flush_ms",
        "ms",
        Source::Span("checkpoint.flush", MS),
    ),
    // crimson::loader and crimson::content
    ("loader.load_ms", "ms", Source::Span("loader.load", MS)),
    ("loader.rows_per_s", "1/s", Source::Counter),
    ("content.dedup_ms", "ms", Source::Span("content.dedup", MS)),
    ("content.dedup_hit_ratio", "ratio", Source::Counter),
    ("content.stored_node_ratio", "ratio", Source::Counter),
    // phylo
    ("phylo.parse_ms", "ms", Source::Span("phylo.parse", MS)),
    // crimson::reader
    ("reader.pin_us", "us", Source::Span("reader.pin", US)),
    // crimson::query
    ("query.lca_us", "us", Source::Span("query.lca", US)),
    (
        "query.is_ancestor_us",
        "us",
        Source::Span("query.is_ancestor", US),
    ),
    ("query.clade_us", "us", Source::Span("query.clade", US)),
    ("query.project_us", "us", Source::Span("query.project", US)),
    ("query.pattern_us", "us", Source::Span("query.pattern", US)),
    // crimson::sampling
    (
        "sampling.uniform_us",
        "us",
        Source::Span("sampling.uniform", US),
    ),
    (
        "sampling.frontier_ms",
        "ms",
        Source::Span("sampling.frontier", MS),
    ),
    ("sampling.frontier_page_reads", "count", Source::Counter),
    (
        "sampling.by_time_ms",
        "ms",
        Source::Span("sampling.by_time", MS),
    ),
    // crimson::repository
    (
        "repository.sequences_ms",
        "ms",
        Source::Span("repository.sequences", MS),
    ),
    (
        "repository.leaves_us",
        "us",
        Source::Span("repository.leaves", US),
    ),
    // reconstruction
    (
        "reconstruction.distance_ms",
        "ms",
        Source::Span("reconstruction.distance", MS),
    ),
    (
        "reconstruction.nj_ms",
        "ms",
        Source::Span("reconstruction.nj", MS),
    ),
    (
        "reconstruction.upgma_ms",
        "ms",
        Source::Span("reconstruction.upgma", MS),
    ),
    (
        "reconstruction.rf_ms",
        "ms",
        Source::Span("reconstruction.rf", MS),
    ),
    // crimson::compare, crimson::experiment, crimson::history
    (
        "compare.stored_rf_ms",
        "ms",
        Source::Span("compare.stored_rf", MS),
    ),
    (
        "experiment.run_ms",
        "ms",
        Source::Span("experiment.run", MS),
    ),
    ("experiment.persist_ms", "ms", Source::Counter),
    (
        "history.record_us",
        "us",
        Source::Span("history.record", US),
    ),
    // server
    ("client.ping_rtt_us", "us", Source::Span("client.ping", US)),
    ("client.send_us", "us", Source::Span("client.send", US)),
    (
        "client.recv_wait_us",
        "us",
        Source::Span("client.recv_wait", US),
    ),
    ("server.reads_per_batch", "count", Source::Counter),
    ("server.coalesced_ratio", "ratio", Source::Counter),
    ("server.overloaded", "count", Source::Counter),
    ("server.protocol_rejects", "count", Source::Counter),
    (
        "serve.embedded_us",
        "us",
        Source::Span("serve.embedded", US),
    ),
    ("serve.tax_us", "us", Source::Counter),
    // the benchmark's own tracing
    ("trace.overhead_pct", "%", Source::Counter),
];

#[derive(Debug, Clone)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Where the value came from: `window`, `program` (the program's own
    /// timings of window ops), `check`, `setup`, `probe`, `embedded` or
    /// `none`.
    pub source: &'static str,
    /// Samples behind a median, or the denominator of a ratio.
    pub den: f64,
    /// Numerator of a ratio (0 for medians).
    pub num: f64,
    /// A median of span durations rather than a counter.
    pub spans: bool,
}

impl LayerMetric {
    /// Whether the value comes from the workload's own work (its window,
    /// the checks on its repositories or its set-up) rather than from the
    /// probe, so it bears on the workload's end-to-end figures.
    pub fn tied(&self) -> bool {
        !matches!(self.source, "probe" | "none")
    }
}

/// The per-layer values of one traced run, filled from counters first and
/// spans last.
#[derive(Debug, Default)]
pub struct Layers {
    values: HashMap<&'static str, LayerMetric>,
}

impl Layers {
    fn entry(name: &str) -> (&'static str, &'static str) {
        CATALOGUE
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(n, u, _)| (*n, *u))
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"))
    }

    /// Set a counter metric as `num / den` (keeps an earlier value).
    pub fn ratio(&mut self, name: &str, source: &'static str, num: f64, den: f64) {
        self.put(name, source, ratio(num, den), num, den);
    }

    /// Set a counter metric that is a plain value (keeps an earlier value).
    pub fn value(&mut self, name: &str, source: &'static str, value: f64) {
        self.put(name, source, value, value, 1.0);
    }

    /// Set a metric as the median of `values` (ms) times `scale`, unless
    /// there are none (keeps an earlier value).
    pub fn median(&mut self, name: &str, source: &'static str, values: &[f64], scale: f64) {
        if values.is_empty() {
            return;
        }
        let (name, unit) = Self::entry(name);
        self.values.entry(name).or_insert(LayerMetric {
            name,
            unit,
            value: median(values) * scale,
            source,
            den: values.len() as f64,
            num: 0.0,
            spans: true,
        });
    }

    fn put(&mut self, name: &str, source: &'static str, value: f64, num: f64, den: f64) {
        let (name, unit) = Self::entry(name);
        self.values.entry(name).or_insert(LayerMetric {
            name,
            unit,
            value,
            source,
            den,
            num,
            spans: false,
        });
    }

    /// Buffer-pool and WAL counters across a window of `ops` ops.
    pub fn storage(&mut self, source: &'static str, d: &storage::buffer::BufferStats, ops: f64) {
        let reads = (d.hits + d.misses) as f64;
        self.ratio("buffer.page_reads_per_op", source, reads, ops);
        self.ratio("buffer.miss_ratio", source, d.misses as f64, reads);
        self.value("buffer.hits", source, d.hits as f64);
        self.value("buffer.misses", source, d.misses as f64);
        self.ratio("buffer.evictions_per_op", source, d.evictions as f64, ops);
        self.ratio("buffer.writebacks_per_op", source, d.writebacks as f64, ops);
        self.value("buffer.reader_retries", source, d.reader_retries as f64);
        self.ratio("wal.bytes_per_op", source, d.wal_bytes as f64, ops);
        self.ratio(
            "wal.page_images_per_op",
            source,
            d.wal_page_images as f64,
            ops,
        );
        self.ratio(
            "wal.fsyncs_per_commit",
            source,
            d.wal_syncs as f64,
            d.commits as f64,
        );
        self.ratio(
            "wal.group_size",
            source,
            d.group_commit_members as f64,
            d.group_commits as f64,
        );
    }

    /// Fill every span metric not yet set: window spans first, then
    /// checks, then set-up, then probe. Metrics no phase reached stay
    /// absent.
    pub fn fill_from_spans(&mut self, spans: &[Span]) {
        for (name, unit, source) in CATALOGUE {
            let Source::Span(span, scale) = *source else {
                continue;
            };
            if self.values.contains_key(name) {
                continue;
            }
            for phase in [Phase::Window, Phase::Check, Phase::Setup, Phase::Probe] {
                let d = durations(spans, span, phase);
                if !d.is_empty() {
                    self.values.insert(
                        name,
                        LayerMetric {
                            name,
                            unit,
                            value: median(&d) * scale,
                            source: phase.name(),
                            den: d.len() as f64,
                            num: 0.0,
                            spans: true,
                        },
                    );
                    break;
                }
            }
        }
    }

    /// The catalogue in order; a metric nothing reached is reported as 0
    /// from source `none`.
    pub fn finish(mut self) -> Vec<LayerMetric> {
        CATALOGUE
            .iter()
            .map(|(name, unit, _)| {
                self.values.remove(name).unwrap_or(LayerMetric {
                    name,
                    unit,
                    value: 0.0,
                    source: "none",
                    den: 0.0,
                    num: 0.0,
                    spans: false,
                })
            })
            .collect()
    }
}

/// Apply `f` to every buffer and WAL counter of `a` and `b`.
fn combine(
    a: &storage::buffer::BufferStats,
    b: &storage::buffer::BufferStats,
    f: fn(u64, u64) -> u64,
) -> storage::buffer::BufferStats {
    storage::buffer::BufferStats {
        hits: f(a.hits, b.hits),
        misses: f(a.misses, b.misses),
        evictions: f(a.evictions, b.evictions),
        flushes: f(a.flushes, b.flushes),
        writebacks: f(a.writebacks, b.writebacks),
        wal_appends: f(a.wal_appends, b.wal_appends),
        wal_bytes: f(a.wal_bytes, b.wal_bytes),
        wal_syncs: f(a.wal_syncs, b.wal_syncs),
        wal_page_images: f(a.wal_page_images, b.wal_page_images),
        commits: f(a.commits, b.commits),
        corrupt_pages: f(a.corrupt_pages, b.corrupt_pages),
        repaired_pages: f(a.repaired_pages, b.repaired_pages),
        quarantined_pages: f(a.quarantined_pages, b.quarantined_pages),
        group_commits: f(a.group_commits, b.group_commits),
        group_commit_members: f(a.group_commit_members, b.group_commit_members),
        fsyncs_saved: f(a.fsyncs_saved, b.fsyncs_saved),
        reader_retries: f(a.reader_retries, b.reader_retries),
        version_reads: f(a.version_reads, b.version_reads),
    }
}

/// `after - before` of every buffer and WAL counter.
pub fn stats_delta(
    before: &storage::buffer::BufferStats,
    after: &storage::buffer::BufferStats,
) -> storage::buffer::BufferStats {
    combine(after, before, u64::wrapping_sub)
}

/// `a + b` of every buffer and WAL counter.
pub fn stats_sum(
    a: &storage::buffer::BufferStats,
    b: &storage::buffer::BufferStats,
) -> storage::buffer::BufferStats {
    combine(a, b, u64::wrapping_add)
}

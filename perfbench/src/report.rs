//! The two output lines: a report (configuration, sample counts, the
//! percentile behind each tail, every ratio's base, failures) and, last,
//! the result object the metrics are read from.

use std::path::Path;

use crate::common::{cpu_jiffies, median, peak_rss_mb, ratio, summarize, Outcome, Summary};
use crate::layers::LayerMetric;
use crate::trace::{self_time_per_op, write_spans, Span};
use crate::Args;

/// A JSON number with every digit Rust prints; non-finite values become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn metric(value: f64, unit: &str) -> String {
    format!("{{\"value\":{},\"unit\":{}}}", num(value), string(unit))
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"n\":{},\"p50_ms\":{},\"tail_pct\":{},\"tail_ms\":{}}}",
        s.n,
        num(s.p50),
        num(s.tail_pct),
        num(s.tail)
    )
}

/// The end-to-end metrics: name, unit, value.
fn end_to_end(out: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let op = summarize(&out.op_ms, out.op_tail_pct);
    vec![
        ("setup_s", "s", median(&out.setup_s)),
        (
            "ops_per_s",
            "1/s",
            ratio(out.completed as f64, out.window_s),
        ),
        ("op_p50_ms", "ms", op.p50),
        ("op_tail_ms", "ms", op.tail),
        ("peak_rss_mb", "MiB", peak_rss_mb()),
        (
            "write_amp",
            "ratio",
            ratio(out.wal_bytes, out.wal_user_bytes),
        ),
        (
            "space_amp",
            "ratio",
            ratio(out.file_bytes, out.file_user_bytes),
        ),
    ]
}

/// Print the report and the result. `jiffies` is [`cpu_jiffies`] at the
/// start of the run.
pub fn print(
    args: &Args,
    mut out: Outcome,
    spans: &[Span],
    dropped: u64,
    jiffies: (u64, u64),
) -> Result<(), String> {
    if out.attempted == 0 {
        return Err("no op completed in the window".into());
    }
    let e2e = end_to_end(&out);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let release = !cfg!(debug_assertions);

    let mut report: Vec<(String, String)> = vec![
        ("workload".into(), string(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), num(args.seconds)),
        ("trace".into(), (args.trace as u8).to_string()),
        ("nproc".into(), nproc.to_string()),
        (
            "profile".into(),
            string(if release { "release" } else { "debug" }),
        ),
        ("comparable".into(), release.to_string()),
        ("window_s".into(), num(out.window_s)),
        ("completed_ops".into(), out.completed.to_string()),
        ("host_steal_pct".into(), {
            let (steal, total) = cpu_jiffies();
            num(100.0
                * ratio(
                    steal.saturating_sub(jiffies.0) as f64,
                    total.saturating_sub(jiffies.1) as f64,
                ))
        }),
        (
            "setup_runs_s".into(),
            format!(
                "[{}]",
                out.setup_s
                    .iter()
                    .map(|v| num(*v))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        (
            "ops".into(),
            summary_json(&summarize(&out.op_ms, out.op_tail_pct)),
        ),
        (
            "write_amp_base".into(),
            format!(
                "{{\"wal_bytes\":{},\"user_bytes\":{}}}",
                num(out.wal_bytes),
                num(out.wal_user_bytes)
            ),
        ),
        (
            "space_amp_base".into(),
            format!(
                "{{\"file_bytes\":{},\"user_bytes\":{}}}",
                num(out.file_bytes),
                num(out.file_user_bytes)
            ),
        ),
        (
            "failed_frac".into(),
            format!(
                "{{\"value\":{},\"failed\":{},\"attempted\":{}}}",
                num(ratio(out.failed as f64, out.attempted as f64)),
                out.failed,
                out.attempted
            ),
        ),
        (
            "failures".into(),
            format!(
                "[{}]",
                out.failures
                    .iter()
                    .map(|f| string(f))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    report.append(&mut out.config);

    let metrics: Vec<(String, String)> = if args.trace {
        let path = Path::new(".bench_out").join(format!("spans-{}.tsv", args.workload));
        write_spans(&path, spans).map_err(|e| format!("writing spans: {e}"))?;
        let mut layers = std::mem::take(&mut out.layers);
        let traced = median(&out.traced_op_ms);
        let untraced = median(&out.untraced_op_ms);
        layers.ratio(
            "trace.overhead_pct",
            "window",
            (traced - untraced) * 100.0,
            untraced,
        );
        layers.fill_from_spans(spans);
        let layers: Vec<LayerMetric> = layers.finish();
        report.push(("spans_file".into(), string(&path.to_string_lossy())));
        report.push(("spans".into(), spans.len().to_string()));
        report.push(("spans_dropped".into(), dropped.to_string()));
        report.push((
            "traced_ops".into(),
            format!(
                "{{\"traced\":{},\"untraced\":{},\"traced_p50_ms\":{},\"untraced_p50_ms\":{}}}",
                out.traced_op_ms.len(),
                out.untraced_op_ms.len(),
                num(traced),
                num(untraced)
            ),
        ));
        let self_ms: Vec<(String, String)> = self_time_per_op(spans)
            .into_iter()
            .map(|(k, v)| (k, num(v)))
            .collect();
        report.push(("layer_self_ms_per_op".into(), object(&self_ms)));
        let bases: Vec<(String, String)> = layers
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    if m.spans {
                        format!(
                            "{{\"source\":{},\"tied\":{},\"samples\":{}}}",
                            string(m.source),
                            m.tied(),
                            num(m.den)
                        )
                    } else {
                        format!(
                            "{{\"source\":{},\"tied\":{},\"num\":{},\"den\":{}}}",
                            string(m.source),
                            m.tied(),
                            num(m.num),
                            num(m.den)
                        )
                    },
                )
            })
            .collect();
        report.push(("layer_bases".into(), object(&bases)));
        layers
            .iter()
            .map(|m| (m.name.to_string(), metric(m.value, m.unit)))
            .collect()
    } else {
        e2e.iter()
            .map(|(n, u, v)| (n.to_string(), metric(*v, u)))
            .collect()
    };
    if args.trace {
        let e2e_json: Vec<(String, String)> = e2e
            .iter()
            .map(|(n, u, v)| (n.to_string(), metric(*v, u)))
            .collect();
        report.push(("end_to_end_traced".into(), object(&e2e_json)));
    }

    let failed = out.failed.min(out.attempted);
    println!("{}", object(&[("report".into(), object(&report))]));
    println!(
        "{}",
        object(&[
            ("correct".into(), (out.failed == 0).to_string()),
            ("attempted".into(), out.attempted.to_string()),
            ("failed".into(), failed.to_string()),
            ("metrics".into(), object(&metrics)),
        ])
    );
    Ok(())
}

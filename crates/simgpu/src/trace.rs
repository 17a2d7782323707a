//! Timeline export of command records: Chrome-trace JSON (viewable in
//! `chrome://tracing` / Perfetto) and a terminal Gantt rendering.
//!
//! Useful for eyeballing where a pipeline variant spends its simulated
//! time — the visual counterpart of the paper's Fig. 13 stacked bars.

use std::fmt::Write as _;

use crate::queue::{CommandKind, CommandRecord};
use crate::span::SpanRecord;

/// Lane (trace "thread") a command kind is drawn on.
fn lane(kind: CommandKind) -> (&'static str, u32) {
    match kind {
        CommandKind::Kernel => ("device: kernels", 1),
        CommandKind::WriteBuffer
        | CommandKind::ReadBuffer
        | CommandKind::RectWrite
        | CommandKind::Map => ("bus: transfers", 2),
        CommandKind::HostWork => ("host: cpu work", 3),
        CommandKind::Finish => ("host: sync", 4),
    }
}

/// Gantt bar glyph for a command kind: kernels, transfers, host work and
/// sync get visually distinct bars so a row is identifiable even when its
/// name is truncated.
fn glyph(kind: CommandKind) -> char {
    match kind {
        CommandKind::Kernel => '#',
        CommandKind::WriteBuffer
        | CommandKind::ReadBuffer
        | CommandKind::RectWrite
        | CommandKind::Map => '=',
        CommandKind::HostWork => '~',
        CommandKind::Finish => '+',
    }
}

/// Escapes a string for embedding in a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialises the records as a Chrome-trace "traceEvents" JSON document.
/// Timestamps are microseconds of simulated time.
pub fn to_chrome_json(records: &[CommandRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    write_events(&mut out, records);
    out.push_str("]}");
    out
}

/// Like [`to_chrome_json`], with the hierarchical span tree appended as a
/// second trace process: records stay on pid 1 in **simulated**
/// microseconds; spans render on pid 2 in **wall-clock** microseconds
/// (relative to the ring's epoch), where parent/child scopes genuinely
/// nest. Each span event carries its simulated interval in `args`, so the
/// viewer shows both timebases side by side.
pub fn to_chrome_json_with_spans(records: &[CommandRecord], spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut any = write_events(&mut out, records);
    let mut sep = |out: &mut String| {
        if any {
            out.push(',');
        }
        any = true;
    };
    if !spans.is_empty() {
        sep(&mut out);
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\
             \"args\":{\"name\":\"spans (wall clock)\"}}",
        );
    }
    for s in spans {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":2,\"tid\":1,\"args\":{{\"sim_start_us\":{:.3},\"sim_dur_us\":{:.3},\
             \"depth\":{}}}}}",
            json_escape(&s.name),
            s.kind.tag(),
            s.wall_start_ns as f64 * 1e-3,
            (s.wall_end_ns.saturating_sub(s.wall_start_ns)) as f64 * 1e-3,
            s.sim_start_s * 1e6,
            s.sim_s() * 1e6,
            s.depth,
        );
    }
    out.push_str("]}");
    out
}

/// Writes the duration events for `records` into `out`; returns whether any
/// event was written (callers appending more events need the comma state).
///
/// Records that carry [`crate::cost::CostCounters`] additionally emit a
/// cumulative "global bytes moved" counter track (`ph: "C"`), so the trace
/// viewer plots memory traffic under the command timeline.
fn write_events(out: &mut String, records: &[CommandRecord]) -> bool {
    let mut first = true;
    let mut cum_bytes = 0u64;
    for r in records {
        let (lane_name, tid) = lane(r.kind);
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
            json_escape(&r.name),
            json_escape(lane_name),
            r.start_s * 1e6,
            r.duration_s * 1e6,
            tid,
        );
        if let Some(c) = &r.counters {
            cum_bytes += c.global_bytes();
            let _ = write!(
                out,
                ",{{\"name\":\"global bytes moved\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":1,\
                 \"args\":{{\"bytes\":{cum_bytes}}}}}",
                (r.start_s + r.duration_s) * 1e6,
            );
        }
    }
    !first
}

/// Renders an ASCII Gantt chart of the records, `width` columns wide.
/// Each row is one command; the bar spans its simulated interval.
pub fn gantt(records: &[CommandRecord], width: usize) -> String {
    let total: f64 = records
        .iter()
        .map(|r| r.start_s + r.duration_s)
        .fold(0.0, f64::max);
    if records.is_empty() || total <= 0.0 {
        return String::from("(no commands)\n");
    }
    let width = width.clamp(20, 400);
    let name_w = records
        .iter()
        .map(|r| r.name.chars().count())
        .max()
        .unwrap_or(0)
        .min(28);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_w$} {:>9}  |{}| total {:.1} µs",
        "command",
        "µs",
        "-".repeat(width),
        total * 1e6,
    );
    for r in records {
        let c0 = ((r.start_s / total) * width as f64).floor() as usize;
        let c1 = (((r.start_s + r.duration_s) / total) * width as f64).ceil() as usize;
        let c1 = c1.clamp(c0 + 1, width);
        let g = glyph(r.kind);
        let mut bar = String::with_capacity(width);
        bar.push_str(&" ".repeat(c0));
        bar.extend(std::iter::repeat_n(g, c1 - c0));
        bar.push_str(&" ".repeat(width - c1));
        let name = truncate_name(&r.name, name_w);
        let _ = writeln!(out, "{name:<name_w$} {:>9.1}  |{bar}|", r.duration_s * 1e6);
    }
    out
}

/// Truncates `name` to at most `max` display characters, marking any cut
/// with a trailing `…` so two long names that share a prefix never render
/// as misleadingly identical rows.
fn truncate_name(name: &str, max: usize) -> String {
    if name.chars().count() <= max {
        return name.to_string();
    }
    let keep = max.saturating_sub(1);
    let mut out: String = name.chars().take(keep).collect();
    out.push('…');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<CommandRecord> {
        vec![
            CommandRecord {
                name: "write:padded".into(),
                kind: CommandKind::WriteBuffer,
                start_s: 0.0,
                duration_s: 10e-6,
                counters: None,
            },
            CommandRecord {
                name: "sobel \"v4\"".into(),
                kind: CommandKind::Kernel,
                start_s: 10e-6,
                duration_s: 30e-6,
                counters: None,
            },
            CommandRecord {
                name: "finish".into(),
                kind: CommandKind::Finish,
                start_s: 40e-6,
                duration_s: 5e-6,
                counters: None,
            },
        ]
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let j = to_chrome_json(&records());
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.ends_with("]}"));
        assert_eq!(j.matches("\"ph\":\"X\"").count(), 3);
        // Quote in the kernel name must be escaped.
        assert!(j.contains("sobel \\\"v4\\\""));
        // Balanced braces (crude well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn chrome_json_empty() {
        assert_eq!(to_chrome_json(&[]), "{\"traceEvents\":[]}");
    }

    #[test]
    fn chrome_json_with_spans_adds_second_process() {
        use crate::span::{SpanKind, SpanRing};
        let mut ring = SpanRing::new(16);
        let f = ring.open(SpanKind::Frame, "frame".into(), 0.0);
        ring.leaf(SpanKind::Kernel, "sobel".into(), 0.0, 30e-6);
        ring.close(f, 45e-6);
        let j = to_chrome_json_with_spans(&records(), &ring.snapshot());
        assert!(j.contains("\"spans (wall clock)\""));
        assert!(j.contains("\"pid\":2"));
        assert!(j.contains("\"cat\":\"frame\""));
        assert!(j.contains("\"sim_dur_us\":30.000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // Records still present on pid 1.
        assert!(j.contains("\"pid\":1"));
        // Span-free call degrades to the plain export.
        assert_eq!(
            to_chrome_json_with_spans(&records(), &[]),
            to_chrome_json(&records())
        );
    }

    #[test]
    fn gantt_renders_rows_in_order() {
        let g = gantt(&records(), 40);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 commands
        assert!(lines[1].contains("write:padded"));
        assert!(lines[3].contains("finish"));
        // Last command's bar ends at the right edge.
        assert!(lines[3].trim_end().ends_with('|'));
        // Kinds draw distinct glyphs: transfer '=', kernel '#', sync '+'.
        assert!(lines[1].contains('='), "{}", lines[1]);
        assert!(lines[2].contains('#'), "{}", lines[2]);
        assert!(lines[3].contains('+'), "{}", lines[3]);
    }

    #[test]
    fn gantt_handles_empty() {
        assert_eq!(gantt(&[], 40), "(no commands)\n");
    }

    #[test]
    fn gantt_truncation_marks_cut_names() {
        let long = |tag: &str| CommandRecord {
            name: format!("kernel:with-a-very-long-shared-prefix-{tag}").into(),
            kind: CommandKind::Kernel,
            start_s: 0.0,
            duration_s: 10e-6,
            counters: None,
        };
        let g = gantt(&[long("alpha"), long("beta")], 40);
        let lines: Vec<&str> = g.lines().collect();
        // Both names exceed the 28-char cap: each row ends in an ellipsis
        // and is capped at 28 display chars.
        for l in &lines[1..] {
            let name: String = l.chars().take(28).collect();
            assert!(name.trim_end().ends_with('…'), "{l}");
            assert_eq!(name.chars().count(), 28);
        }
    }

    #[test]
    fn counter_track_accumulates_global_bytes() {
        let mut recs = records();
        let c = crate::cost::CostCounters {
            global_read_scalar: 100,
            global_write_vector: 24,
            ..Default::default()
        };
        recs[1].counters = Some(c);
        let j = to_chrome_json(&recs);
        assert!(j.contains("\"global bytes moved\""));
        assert!(j.contains("\"bytes\":124"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn lanes_partition_kinds() {
        assert_ne!(lane(CommandKind::Kernel).1, lane(CommandKind::Map).1);
        assert_eq!(
            lane(CommandKind::WriteBuffer).0,
            lane(CommandKind::RectWrite).0
        );
    }
}

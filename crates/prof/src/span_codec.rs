//! Text serialization of causal span forests.
//!
//! Companion to the fault-trace codec: line-oriented, tab-separated,
//! versioned by a header line, free-form fields escaped reversibly with
//! the same scheme ([`escape_field`](crate::codec::escape_field)).
//!
//! ```text
//! # dex-spans v1
//! <id>\t<parent>\t<kind>\t<node>\t<task>\t<start_ns>\t<end_ns>\t<label>\t<tag-or-->
//! ```
//!
//! Spans are written in completion order, so children may precede their
//! parents; consumers must index by id before walking the forest.

use dex_core::{Span, SpanId, SpanKind};
use dex_net::NodeId;
use dex_os::Tid;
use dex_sim::SimTime;

use crate::codec::{escape_field, intern_site, unescape_field};

/// Magic header identifying the span format.
pub const SPANS_HEADER: &str = "# dex-spans v1";

/// Serializes `spans` into the versioned text format.
pub fn encode_spans(spans: &[Span]) -> String {
    encode_spans_with_dropped(spans, 0)
}

/// Like [`encode_spans`], additionally recording how many spans the
/// producer left out as a `# dropped N` line.
pub fn encode_spans_with_dropped(spans: &[Span], dropped: u64) -> String {
    let mut out = String::with_capacity(spans.len() * 64 + SPANS_HEADER.len() + 1);
    out.push_str(SPANS_HEADER);
    out.push('\n');
    if dropped > 0 {
        out.push_str(&format!("# dropped {dropped}\n"));
    }
    for s in spans {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            s.id.0,
            s.parent.0,
            s.kind,
            s.node.0,
            s.task.0,
            s.start.as_nanos(),
            s.end.as_nanos(),
            escape_field(s.label),
            match &s.tag {
                Some(tag) => escape_field(tag),
                None => "-".to_string(),
            }
        ));
    }
    out
}

/// Parses the text format produced by [`encode_spans`].
pub fn decode_spans(text: &str) -> Result<Vec<Span>, String> {
    decode_spans_with_dropped(text).map(|(spans, _)| spans)
}

/// Like [`decode_spans`], also returning the dropped-span count
/// recorded by [`encode_spans_with_dropped`] (0 when absent).
pub fn decode_spans_with_dropped(text: &str) -> Result<(Vec<Span>, u64), String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, header)) if header.trim() == SPANS_HEADER => {}
        Some((_, header)) => {
            return Err(format!(
                "unrecognized span header {header:?} (expected {SPANS_HEADER:?})"
            ))
        }
        None => return Err("empty span file".to_string()),
    }
    let mut spans = Vec::new();
    let mut dropped: u64 = 0;
    for (lineno, line) in lines {
        // Strip only the CR of CRLF endings: trailing spaces are field
        // content (the escaping keeps structural characters out).
        let line = line.trim_end_matches('\r');
        if line.is_empty() || line.starts_with('#') {
            if let Some(n) = line.strip_prefix("# dropped ") {
                dropped += n
                    .trim()
                    .parse::<u64>()
                    .map_err(|e| format!("line {}: bad dropped count: {e}", lineno + 1))?;
            }
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 9 {
            return Err(format!(
                "line {}: expected 9 tab-separated fields, got {}",
                lineno + 1,
                fields.len()
            ));
        }
        let parse_u64 = |s: &str, what: &str| -> Result<u64, String> {
            s.parse()
                .map_err(|e| format!("line {}: bad {what}: {e}", lineno + 1))
        };
        let kind = SpanKind::parse(fields[2])
            .ok_or_else(|| format!("line {}: unknown span kind {:?}", lineno + 1, fields[2]))?;
        let node = NodeId(
            fields[3]
                .parse()
                .map_err(|e| format!("line {}: bad node: {e}", lineno + 1))?,
        );
        let label = intern_site(
            &unescape_field(fields[7]).map_err(|e| format!("line {}: label: {e}", lineno + 1))?,
        );
        let tag = match fields[8] {
            "-" => None,
            tag => Some(unescape_field(tag).map_err(|e| format!("line {}: tag: {e}", lineno + 1))?),
        };
        spans.push(Span {
            id: SpanId(parse_u64(fields[0], "id")?),
            parent: SpanId(parse_u64(fields[1], "parent")?),
            kind,
            node,
            task: Tid(parse_u64(fields[4], "task")?),
            start: SimTime::from_nanos(parse_u64(fields[5], "start")?),
            end: SimTime::from_nanos(parse_u64(fields[6], "end")?),
            label,
            tag,
        });
    }
    Ok((spans, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Span> {
        vec![
            Span {
                id: SpanId(2),
                parent: SpanId(1),
                kind: SpanKind::DirectoryHandling,
                node: NodeId(0),
                task: Tid(u64::MAX),
                start: SimTime::from_nanos(1_000),
                end: SimTime::from_nanos(3_000),
                label: "page_request_write",
                tag: None,
            },
            Span {
                id: SpanId(1),
                parent: SpanId::NONE,
                kind: SpanKind::Fault,
                node: NodeId(1),
                task: Tid(3),
                start: SimTime::ZERO,
                end: SimTime::from_nanos(158_800),
                label: "write_fault",
                tag: Some("centroids".into()),
            },
        ]
    }

    #[test]
    fn round_trip_preserves_all_fields() {
        let spans = sample();
        let decoded = decode_spans(&encode_spans(&spans)).unwrap();
        assert_eq!(decoded.len(), 2);
        for (a, b) in spans.iter().zip(&decoded) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.node, b.node);
            assert_eq!(a.task, b.task);
            assert_eq!(a.start, b.start);
            assert_eq!(a.end, b.end);
            assert_eq!(a.label, b.label);
            assert_eq!(a.tag, b.tag);
        }
    }

    #[test]
    fn rejects_bad_header_and_malformed_lines() {
        assert!(decode_spans("").is_err());
        assert!(decode_spans("# dex-trace v1\n").is_err());
        let short = format!("{SPANS_HEADER}\n1\t0\tfault\n");
        assert!(decode_spans(&short).is_err());
        let bad_kind = format!("{SPANS_HEADER}\n1\t0\tzap\t0\t0\t0\t1\tx\t-\n");
        assert!(decode_spans(&bad_kind).is_err());
    }

    #[test]
    fn empty_forest_and_dropped_count_round_trip() {
        let (spans, dropped) = decode_spans_with_dropped(&encode_spans(&[])).unwrap();
        assert!(spans.is_empty());
        assert_eq!(dropped, 0);
        let text = encode_spans_with_dropped(&sample(), 7);
        let (spans, dropped) = decode_spans_with_dropped(&text).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(dropped, 7);
    }

    #[test]
    fn hostile_labels_and_tags_round_trip() {
        for s in ["tab\there", "-", "", "new\nline", "back\\slash"] {
            let mut spans = sample();
            spans[0].label = intern_site(s);
            spans[0].tag = Some(s.to_string());
            let decoded = decode_spans(&encode_spans(&spans)).unwrap();
            assert_eq!(decoded[0].label, s);
            assert_eq!(decoded[0].tag.as_deref(), Some(s));
        }
    }
}

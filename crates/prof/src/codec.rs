//! Text serialization of fault traces.
//!
//! The profiler and the verification tooling (`dex-check races`) share
//! one on-disk trace representation so a trace captured by an
//! application run can be analyzed offline by either tool. The format is
//! line-oriented, tab-separated, versioned by a header line:
//!
//! ```text
//! # dex-trace v1
//! <time_ns>\t<node>\t<task>\t<kind>\t<site>\t<addr_hex>\t<tag-or-->
//! ```
//!
//! Site strings are interned on decode (the live [`FaultEvent`] carries
//! `&'static str` sites); the interner leaks one allocation per distinct
//! site, which is bounded by the number of annotated code sites.
//!
//! Free-form fields (site, tag) are escaped reversibly: `\\`, `\t`, `\n`,
//! `\r` for the structural characters, `\-` for a literal `-` tag (so it
//! is not confused with the "no tag" sentinel), and `\e` for the empty
//! string (so a trailing empty field survives whitespace trimming).
//! A producer that keeps only part of a trace can say how many events it
//! left out: [`encode_trace_with_dropped`] records that count as a
//! `# dropped N` line and [`decode_trace_with_dropped`] surfaces it.

use std::collections::HashMap;
use std::sync::Mutex;

use dex_core::{FaultEvent, FaultKind};
use dex_net::NodeId;
use dex_os::{Tid, VirtAddr};
use dex_sim::SimTime;

/// Magic header identifying the trace format.
pub const TRACE_HEADER: &str = "# dex-trace v1";

/// Escapes a free-form field so it survives the tab-separated,
/// line-oriented container losslessly: [`dex_sim::escape_field`] plus the
/// two whole-field sentinels `\e` (the empty string) and `\-` (a literal
/// `-`, distinct from the "no tag" marker).
pub fn escape_field(s: &str) -> String {
    match s {
        "" => "\\e".to_string(),
        "-" => "\\-".to_string(),
        s => dex_sim::escape_field(s),
    }
}

/// Reverses [`escape_field`]. Errors on truncated or unknown escapes.
pub fn unescape_field(s: &str) -> Result<String, String> {
    match s {
        "\\e" => Ok(String::new()),
        "\\-" => Ok("-".to_string()),
        s => dex_sim::unescape_field(s),
    }
}

/// Serializes `events` into the versioned text format.
pub fn encode_trace(events: &[FaultEvent]) -> String {
    encode_trace_with_dropped(events, 0)
}

/// Like [`encode_trace`], additionally recording how many events the
/// producer left out as a `# dropped N` line so offline analysis knows
/// the trace is partial.
pub fn encode_trace_with_dropped(events: &[FaultEvent], dropped: u64) -> String {
    let mut out = String::with_capacity(events.len() * 48 + TRACE_HEADER.len() + 1);
    out.push_str(TRACE_HEADER);
    out.push('\n');
    if dropped > 0 {
        out.push_str(&format!("# dropped {dropped}\n"));
    }
    for e in events {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{:#x}\t{}\n",
            e.time.as_nanos(),
            e.node.0,
            e.task.0,
            e.kind,
            escape_field(e.site),
            e.addr.as_u64(),
            match &e.tag {
                Some(tag) => escape_field(tag),
                None => "-".to_string(),
            }
        ));
    }
    out
}

/// Interns a site string, returning a `'static` reference.
///
/// Distinct sites are bounded by the number of `set_site` annotations in
/// the program, so the leak is bounded and shared process-wide.
pub fn intern_site(site: &str) -> &'static str {
    static INTERNED: Mutex<Option<HashMap<String, &'static str>>> = Mutex::new(None);
    let mut guard = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
    let map = guard.get_or_insert_with(HashMap::new);
    if let Some(&s) = map.get(site) {
        return s;
    }
    let leaked: &'static str = Box::leak(site.to_string().into_boxed_str());
    map.insert(site.to_string(), leaked);
    leaked
}

/// Parses the text format produced by [`encode_trace`].
pub fn decode_trace(text: &str) -> Result<Vec<FaultEvent>, String> {
    decode_trace_with_dropped(text).map(|(events, _)| events)
}

/// Like [`decode_trace`], also returning the dropped-event count
/// recorded by [`encode_trace_with_dropped`] (0 when absent).
pub fn decode_trace_with_dropped(text: &str) -> Result<(Vec<FaultEvent>, u64), String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, header)) if header.trim() == TRACE_HEADER => {}
        Some((_, header)) => {
            return Err(format!(
                "unrecognized trace header {header:?} (expected {TRACE_HEADER:?})"
            ))
        }
        None => return Err("empty trace file".to_string()),
    }
    let mut events = Vec::new();
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
        if fields.len() != 7 {
            return Err(format!(
                "line {}: expected 7 tab-separated fields, got {}",
                lineno + 1,
                fields.len()
            ));
        }
        let parse_u64 = |s: &str, what: &str| -> Result<u64, String> {
            s.parse()
                .map_err(|e| format!("line {}: bad {what}: {e}", lineno + 1))
        };
        let time = SimTime::from_nanos(parse_u64(fields[0], "time")?);
        let node = NodeId(
            fields[1]
                .parse()
                .map_err(|e| format!("line {}: bad node: {e}", lineno + 1))?,
        );
        let task = Tid(parse_u64(fields[2], "task")?);
        let kind = match fields[3] {
            "read" => FaultKind::Read,
            "write" => FaultKind::Write,
            "invalidate" => FaultKind::Invalidate,
            other => return Err(format!("line {}: unknown kind {other:?}", lineno + 1)),
        };
        let site = intern_site(
            &unescape_field(fields[4]).map_err(|e| format!("line {}: site: {e}", lineno + 1))?,
        );
        let addr_str = fields[5]
            .strip_prefix("0x")
            .ok_or_else(|| format!("line {}: address must be hex (0x…)", lineno + 1))?;
        let addr = VirtAddr::new(
            u64::from_str_radix(addr_str, 16)
                .map_err(|e| format!("line {}: bad address: {e}", lineno + 1))?,
        );
        let tag = match fields[6] {
            "-" => None,
            tag => Some(unescape_field(tag).map_err(|e| format!("line {}: tag: {e}", lineno + 1))?),
        };
        events.push(FaultEvent {
            time,
            node,
            task,
            kind,
            site,
            addr,
            tag,
        });
    }
    Ok((events, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<FaultEvent> {
        vec![
            FaultEvent {
                time: SimTime::from_nanos(1_500),
                node: NodeId(2),
                task: Tid(7),
                kind: FaultKind::Write,
                site: "kmeans.update",
                addr: VirtAddr::new(0x1000_0040),
                tag: Some("centroids".into()),
            },
            FaultEvent {
                time: SimTime::from_nanos(2_000),
                node: NodeId(0),
                task: Tid(u64::MAX),
                kind: FaultKind::Invalidate,
                site: "(protocol)",
                addr: VirtAddr::new(0x1000_0000),
                tag: None,
            },
        ]
    }

    #[test]
    fn round_trip_preserves_all_fields() {
        let events = sample();
        let decoded = decode_trace(&encode_trace(&events)).unwrap();
        assert_eq!(decoded.len(), 2);
        for (a, b) in events.iter().zip(&decoded) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.node, b.node);
            assert_eq!(a.task, b.task);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.site, b.site);
            assert_eq!(a.addr, b.addr);
            assert_eq!(a.tag, b.tag);
        }
    }

    #[test]
    fn rejects_bad_header_and_malformed_lines() {
        assert!(decode_trace("").is_err());
        assert!(decode_trace("# not-a-trace\n").is_err());
        let bad = format!("{TRACE_HEADER}\n1\t2\t3\n");
        assert!(decode_trace(&bad).is_err(), "too few fields");
        let bad_kind = format!("{TRACE_HEADER}\n1\t0\t0\tzap\tsite\t0x10\t-\n");
        assert!(decode_trace(&bad_kind).is_err());
    }

    #[test]
    fn interning_returns_the_same_pointer() {
        let a = intern_site("same.site");
        let b = intern_site("same.site");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn hostile_site_and_tag_strings_round_trip() {
        let hostile = [
            "tab\there",
            "new\nline",
            "back\\slash",
            "cr\rlf",
            "-",
            "",
            "\\e literal",
            "mix\t\n\\-",
        ];
        for s in hostile {
            let events = vec![FaultEvent {
                time: SimTime::from_nanos(1),
                node: NodeId(0),
                task: Tid(0),
                kind: FaultKind::Read,
                site: intern_site(s),
                addr: VirtAddr::new(0x10),
                tag: Some(s.to_string()),
            }];
            let decoded = decode_trace(&encode_trace(&events)).unwrap();
            assert_eq!(decoded[0].site, s, "site {s:?} must survive the codec");
            assert_eq!(
                decoded[0].tag.as_deref(),
                Some(s),
                "tag {s:?} must survive the codec"
            );
        }
    }

    #[test]
    fn escaping_is_reversible_and_unambiguous() {
        assert_eq!(escape_field("-"), "\\-");
        assert_eq!(escape_field(""), "\\e");
        assert_eq!(unescape_field("\\e").unwrap(), "");
        assert_eq!(unescape_field("\\-").unwrap(), "-");
        assert!(unescape_field("bad\\q").is_err());
        assert!(unescape_field("trailing\\").is_err());
    }

    #[test]
    fn dropped_count_survives_the_codec() {
        let text = encode_trace_with_dropped(&sample(), 42);
        assert!(text.contains("# dropped 42"));
        let (events, dropped) = decode_trace_with_dropped(&text).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(dropped, 42);
        let (_, zero) = decode_trace_with_dropped(&encode_trace(&sample())).unwrap();
        assert_eq!(zero, 0);
    }
}

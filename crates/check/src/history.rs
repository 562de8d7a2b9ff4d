//! History files: a replayable on-disk form of recorded executions.
//!
//! A history is the event stream a [`clsm_kv::record::RecordingSession`]
//! captured, serialized one JSON object per line so failing runs can be
//! archived (CI uploads them as artifacts) and re-checked offline with
//! `clsm-check --replay <file>`. Keys and values are hex-encoded —
//! they are arbitrary bytes, and hex keeps the format line-oriented and
//! greppable.
//!
//! The parser is hand-rolled: the workspace vendors no JSON crate, and
//! the grammar we emit is small (objects, arrays, strings, non-negative
//! integers, booleans, null).

use std::fmt::Write as _;
use std::ops::Bound;

use clsm_kv::record::{KvEvent, KvOp, RmwApplied};
use clsm_kv::ScanRange;
use clsm_util::error::{Error, Result};

/// Hex-encodes bytes (lowercase, two digits per byte).
pub(crate) fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Inverse of [`hex`].
pub(crate) fn unhex(s: &str) -> Result<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(Error::corruption("odd-length hex string"));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16)
                .map_err(|_| Error::corruption(format!("bad hex byte at {i}")))
        })
        .collect()
}

fn hex_opt(v: &Option<Vec<u8>>) -> String {
    match v {
        Some(v) => format!("\"{}\"", hex(v)),
        None => "null".to_string(),
    }
}

fn bound_json(b: &Bound<Vec<u8>>) -> String {
    match b {
        Bound::Included(k) => format!("{{\"inc\":\"{}\"}}", hex(k)),
        Bound::Excluded(k) => format!("{{\"exc\":\"{}\"}}", hex(k)),
        Bound::Unbounded => "\"unb\"".to_string(),
    }
}

fn pairs_json(pairs: &[(Vec<u8>, Vec<u8>)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("[\"{}\",\"{}\"]", hex(k), hex(v)))
        .collect();
    format!("[{}]", body.join(","))
}

/// Serializes one event as a single JSON line (no trailing newline).
pub fn event_to_json(e: &KvEvent) -> String {
    let op = match &e.op {
        KvOp::Put { key, value } => {
            format!(
                "{{\"type\":\"put\",\"key\":\"{}\",\"value\":\"{}\"}}",
                hex(key),
                hex(value)
            )
        }
        KvOp::Delete { key } => format!("{{\"type\":\"delete\",\"key\":\"{}\"}}", hex(key)),
        KvOp::Get { key, result } => format!(
            "{{\"type\":\"get\",\"key\":\"{}\",\"result\":{}}}",
            hex(key),
            hex_opt(result)
        ),
        KvOp::PutIfAbsent { key, value, stored } => format!(
            "{{\"type\":\"pia\",\"key\":\"{}\",\"value\":\"{}\",\"stored\":{stored}}}",
            hex(key),
            hex(value)
        ),
        KvOp::Rmw { key, prev, applied } => {
            let applied = match applied {
                RmwApplied::Update(v) => {
                    format!("{{\"type\":\"update\",\"value\":\"{}\"}}", hex(v))
                }
                RmwApplied::Delete => "{\"type\":\"delete\"}".to_string(),
                RmwApplied::Abort => "{\"type\":\"abort\"}".to_string(),
            };
            format!(
                "{{\"type\":\"rmw\",\"key\":\"{}\",\"prev\":{},\"applied\":{applied}}}",
                hex(key),
                hex_opt(prev)
            )
        }
        KvOp::WriteBatch { batch, entries } => {
            let body: Vec<String> = entries
                .iter()
                .map(|(k, v)| format!("[\"{}\",{}]", hex(k), hex_opt(v)))
                .collect();
            format!(
                "{{\"type\":\"batch\",\"batch\":{batch},\"entries\":[{}]}}",
                body.join(",")
            )
        }
        KvOp::SnapshotCreate { snap } => {
            format!("{{\"type\":\"snap_create\",\"snap\":{snap}}}")
        }
        KvOp::SnapshotGet { snap, key, result } => format!(
            "{{\"type\":\"snap_get\",\"snap\":{snap},\"key\":\"{}\",\"result\":{}}}",
            hex(key),
            hex_opt(result)
        ),
        KvOp::Scan {
            snap,
            range,
            limit,
            result,
        } => format!(
            "{{\"type\":\"scan\",\"snap\":{snap},\"start\":{},\"end\":{},\"limit\":{limit},\"result\":{}}}",
            bound_json(&range.start),
            bound_json(&range.end),
            pairs_json(result)
        ),
    };
    format!(
        "{{\"thread\":{},\"invoke\":{},\"response\":{},\"ok\":{},\"op\":{op}}}",
        e.thread, e.invoke, e.response, e.ok
    )
}

/// Serializes a whole history, one event per line.
pub fn history_to_string(events: &[KvEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_to_json(e));
        out.push('\n');
    }
    out
}

/// Parses a history previously produced by [`history_to_string`].
pub fn parse_history(text: &str) -> Result<Vec<KvEvent>> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let value =
            parse_json(line).map_err(|e| Error::corruption(format!("line {}: {e}", lineno + 1)))?;
        events.push(
            event_from_json(&value)
                .map_err(|e| Error::corruption(format!("line {}: {e}", lineno + 1)))?,
        );
    }
    Ok(events)
}

// ---------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------

/// A parsed JSON value (only the shapes the history format uses).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer (the only numbers the format emits).
    Num(u64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> std::result::Result<&'a Json, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}")),
            _ => Err(format!("expected object looking up {key:?}")),
        }
    }

    fn num(&self) -> std::result::Result<u64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            _ => Err(format!("expected number, got {self:?}")),
        }
    }

    fn boolean(&self) -> std::result::Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("expected bool, got {self:?}")),
        }
    }

    fn str(&self) -> std::result::Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("expected string, got {self:?}")),
        }
    }

    fn arr(&self) -> std::result::Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            _ => Err(format!("expected array, got {self:?}")),
        }
    }

    fn bytes(&self) -> std::result::Result<Vec<u8>, String> {
        unhex(self.str()?).map_err(|e| e.to_string())
    }

    fn opt_bytes(&self) -> std::result::Result<Option<Vec<u8>>, String> {
        match self {
            Json::Null => Ok(None),
            _ => Ok(Some(self.bytes()?)),
        }
    }
}

/// Parses one JSON document.
pub(crate) fn parse_json(text: &str) -> std::result::Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> std::result::Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            other => return Err(format!("unsupported escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        // The format only emits ASCII, but pass other
                        // bytes through so hand-edited files survive.
                        s.push(c as char);
                        *pos += 1;
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .unwrap()
                .parse::<u64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number: {e}"))
        }
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}")),
    }
}

fn bound_from_json(v: &Json) -> std::result::Result<Bound<Vec<u8>>, String> {
    match v {
        Json::Str(s) if s == "unb" => Ok(Bound::Unbounded),
        Json::Obj(_) => {
            if let Ok(k) = v.get("inc") {
                Ok(Bound::Included(k.bytes()?))
            } else if let Ok(k) = v.get("exc") {
                Ok(Bound::Excluded(k.bytes()?))
            } else {
                Err("bound object needs inc or exc".to_string())
            }
        }
        other => Err(format!("bad bound {other:?}")),
    }
}

fn event_from_json(v: &Json) -> std::result::Result<KvEvent, String> {
    let opv = v.get("op")?;
    let ty = opv.get("type")?.str()?;
    let op = match ty {
        "put" => KvOp::Put {
            key: opv.get("key")?.bytes()?,
            value: opv.get("value")?.bytes()?,
        },
        "delete" => KvOp::Delete {
            key: opv.get("key")?.bytes()?,
        },
        "get" => KvOp::Get {
            key: opv.get("key")?.bytes()?,
            result: opv.get("result")?.opt_bytes()?,
        },
        "pia" => KvOp::PutIfAbsent {
            key: opv.get("key")?.bytes()?,
            value: opv.get("value")?.bytes()?,
            stored: opv.get("stored")?.boolean()?,
        },
        "rmw" => {
            let applied = opv.get("applied")?;
            let applied = match applied.get("type")?.str()? {
                "update" => RmwApplied::Update(applied.get("value")?.bytes()?),
                "delete" => RmwApplied::Delete,
                "abort" => RmwApplied::Abort,
                other => return Err(format!("bad rmw applied type {other:?}")),
            };
            KvOp::Rmw {
                key: opv.get("key")?.bytes()?,
                prev: opv.get("prev")?.opt_bytes()?,
                applied,
            }
        }
        "batch" => {
            let mut entries = Vec::new();
            for entry in opv.get("entries")?.arr()? {
                let pair = entry.arr()?;
                if pair.len() != 2 {
                    return Err("batch entry must be a [key, value] pair".to_string());
                }
                entries.push((pair[0].bytes()?, pair[1].opt_bytes()?));
            }
            KvOp::WriteBatch {
                batch: opv.get("batch")?.num()?,
                entries,
            }
        }
        "snap_create" => KvOp::SnapshotCreate {
            snap: opv.get("snap")?.num()?,
        },
        "snap_get" => KvOp::SnapshotGet {
            snap: opv.get("snap")?.num()?,
            key: opv.get("key")?.bytes()?,
            result: opv.get("result")?.opt_bytes()?,
        },
        "scan" => {
            let mut result = Vec::new();
            for entry in opv.get("result")?.arr()? {
                let pair = entry.arr()?;
                if pair.len() != 2 {
                    return Err("scan entry must be a [key, value] pair".to_string());
                }
                result.push((pair[0].bytes()?, pair[1].bytes()?));
            }
            KvOp::Scan {
                snap: opv.get("snap")?.num()?,
                range: ScanRange {
                    start: bound_from_json(opv.get("start")?)?,
                    end: bound_from_json(opv.get("end")?)?,
                },
                limit: opv.get("limit")?.num()? as usize,
                result,
            }
        }
        other => return Err(format!("unknown op type {other:?}")),
    };
    Ok(KvEvent {
        thread: v.get("thread")?.num()? as u32,
        invoke: v.get("invoke")?.num()?,
        response: v.get("response")?.num()?,
        ok: v.get("ok")?.boolean()?,
        op,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<KvEvent> {
        vec![
            KvEvent {
                thread: 0,
                invoke: 1,
                response: 2,
                ok: true,
                op: KvOp::Put {
                    key: b"k1".to_vec(),
                    value: vec![0, 255, 17],
                },
            },
            KvEvent {
                thread: 1,
                invoke: 3,
                response: 6,
                ok: true,
                op: KvOp::Rmw {
                    key: b"k1".to_vec(),
                    prev: Some(vec![0, 255, 17]),
                    applied: RmwApplied::Update(b"v2".to_vec()),
                },
            },
            KvEvent {
                thread: 0,
                invoke: 4,
                response: 5,
                ok: true,
                op: KvOp::Scan {
                    snap: 7,
                    range: ScanRange {
                        start: Bound::Included(b"a".to_vec()),
                        end: Bound::Unbounded,
                    },
                    limit: 10,
                    result: vec![(b"k1".to_vec(), vec![0, 255, 17])],
                },
            },
            KvEvent {
                thread: 2,
                invoke: 7,
                response: 9,
                ok: false,
                op: KvOp::WriteBatch {
                    batch: 3,
                    entries: vec![(b"a".to_vec(), Some(b"x".to_vec())), (b"b".to_vec(), None)],
                },
            },
        ]
    }

    #[test]
    fn round_trips() {
        let events = sample();
        let text = history_to_string(&events);
        let parsed = parse_history(&text).unwrap();
        assert_eq!(events, parsed);
    }

    #[test]
    fn hex_round_trips() {
        for v in [vec![], vec![0u8], vec![0xff, 0x00, 0x7f]] {
            assert_eq!(unhex(&hex(&v)).unwrap(), v);
        }
        assert!(unhex("0").is_err());
        assert!(unhex("zz").is_err());
    }
}

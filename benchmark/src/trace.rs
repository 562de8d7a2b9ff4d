//! In-memory spans recorded by the harness around every call it makes
//! into the store or the wire driver. One [`Tracer`] per load thread, no
//! sharing; spans are written out when the benchmark ends.
//!
//! A span is `(kind, thread, start, end, parent)`. Each operation is one
//! root span with children for generating the request, the call into
//! the layer under test, and validating the result; a layer's self time
//! is its span minus the part its children cover. Totals are kept for
//! every span; the span list itself is capped so a long run cannot
//! exhaust memory.

use std::fmt::Write as _;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One whole operation of the load loop (root).
    Op = 0,
    /// Drawing the request from the workload generator.
    Gen,
    /// `Db::get`.
    Get,
    /// `Db::put`.
    Put,
    /// `Db::snapshot`.
    Snapshot,
    /// `Snapshot::scan`.
    Scan,
    /// `Db::read_modify_write`.
    Rmw,
    /// Checking the result.
    Validate,
    /// Encoding and framing a wire request.
    NetEncode,
    /// Writing request bytes to the socket.
    NetSend,
    /// From a request's due time to its decoded response.
    NetRoundTrip,
    /// Decoding a response frame.
    NetDecode,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 12;

impl Kind {
    /// Every kind, in discriminant order.
    pub const ALL: [Kind; KINDS] = [
        Kind::Op,
        Kind::Gen,
        Kind::Get,
        Kind::Put,
        Kind::Snapshot,
        Kind::Scan,
        Kind::Rmw,
        Kind::Validate,
        Kind::NetEncode,
        Kind::NetSend,
        Kind::NetRoundTrip,
        Kind::NetDecode,
    ];

    /// Stable name used in the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Gen => "gen",
            Kind::Get => "db.get",
            Kind::Put => "db.put",
            Kind::Snapshot => "db.snapshot",
            Kind::Scan => "snapshot.scan",
            Kind::Rmw => "db.rmw",
            Kind::Validate => "validate",
            Kind::NetEncode => "net.encode",
            Kind::NetSend => "net.send",
            Kind::NetRoundTrip => "net.round_trip",
            Kind::NetDecode => "net.decode",
        }
    }
}

/// One recorded span; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<u32>,
    /// What the span covers.
    pub kind: Kind,
}

/// Count, total duration and child-covered time of one kind of span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations.
    pub ns: u64,
    /// Part of `ns` covered by child spans; `ns - covered_ns` is the
    /// kind's self time.
    pub covered_ns: u64,
}

impl Total {
    /// Time not covered by any child span.
    pub fn self_ns(&self) -> u64 {
        self.ns.saturating_sub(self.covered_ns)
    }

    fn add(self, other: Total) -> Total {
        Total {
            count: self.count + other.count,
            ns: self.ns + other.ns,
            covered_ns: self.covered_ns + other.covered_ns,
        }
    }
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    thread: u8,
    cap: usize,
    spans: Vec<Span>,
    totals: [Total; KINDS],
}

impl Tracer {
    /// A recorder for `thread` keeping at most `cap` spans in detail;
    /// disabled recorders ignore every call.
    pub fn new(enabled: bool, thread: u8, cap: usize) -> Tracer {
        Tracer {
            enabled,
            thread,
            cap,
            spans: Vec::new(),
            totals: [Total::default(); KINDS],
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one root span `(kind, start, end)` and its children,
    /// which point at it as their parent.
    pub fn record(&mut self, root: (Kind, u64, u64), children: &[(Kind, u64, u64)]) {
        if !self.enabled {
            return;
        }
        let detail = self.spans.len() + 1 + children.len() <= self.cap;
        let root_index = self.spans.len() as u32;
        let mut covered = 0;
        for (i, &(kind, start_ns, end_ns)) in std::iter::once(&root).chain(children).enumerate() {
            let ns = end_ns.saturating_sub(start_ns);
            let total = &mut self.totals[kind as usize];
            total.count += 1;
            total.ns += ns;
            if i > 0 {
                covered += ns;
            }
            if detail {
                self.spans.push(Span {
                    start_ns,
                    end_ns,
                    parent: (i > 0).then_some(root_index),
                    kind,
                });
            }
        }
        self.totals[root.0 as usize].covered_ns += covered;
    }

    /// Totals of `kind` over every span seen.
    pub fn total(&self, kind: Kind) -> Total {
        self.totals[kind as usize]
    }

    /// The spans kept in detail.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Sums `kind` over several tracers.
pub fn total_of<'a>(tracers: impl IntoIterator<Item = &'a Tracer>, kind: Kind) -> Total {
    tracers
        .into_iter()
        .fold(Total::default(), |acc, t| acc.add(t.total(kind)))
}

/// Renders the span file: per-kind totals and self times, then the
/// detailed spans of every thread.
pub fn to_json(workload: &str, tracers: &[Tracer]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"time_unit\":\"ns\",\"totals\":{{"
    );
    let mut seen = 0;
    for (i, kind) in Kind::ALL.iter().enumerate() {
        let t = total_of(tracers, *kind);
        seen += t.count;
        let _ = write!(
            out,
            "{}\"{}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            if i == 0 { "" } else { "," },
            kind.name(),
            t.count,
            t.ns,
            t.self_ns()
        );
    }
    let written: usize = tracers.iter().map(|t| t.spans.len()).sum();
    let _ = write!(
        out,
        "}},\"spans_seen\":{seen},\"spans_written\":{written},\"columns\":[\"kind\",\"thread\",\"start_ns\",\"end_ns\",\"parent\"],\"spans\":["
    );
    let mut first = true;
    for t in tracers {
        for s in &t.spans {
            let _ = write!(
                out,
                "{}[\"{}\",{},{},{},{}]",
                if first { "\n" } else { ",\n" },
                s.kind.name(),
                t.thread,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            );
            first = false;
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_cap_keeps_totals() {
        let mut off = Tracer::new(false, 0, 10);
        off.record((Kind::Op, 0, 5), &[]);
        assert_eq!(off.total(Kind::Op), Total::default());

        let mut on = Tracer::new(true, 1, 2);
        on.record((Kind::Op, 0, 10), &[(Kind::Get, 1, 9)]);
        on.record((Kind::Op, 10, 20), &[(Kind::Get, 11, 15)]);
        assert_eq!(on.spans().len(), 2);
        let op = on.total(Kind::Op);
        assert_eq!((op.count, op.ns, op.self_ns()), (2, 20, 8));
        assert_eq!(on.total(Kind::Get).ns, 12);
        let json = to_json("w", &[on]);
        assert!(json.contains("\"spans_seen\":4,\"spans_written\":2"));
        assert!(json.contains("[\"db.get\",1,1,9,0]"));
    }
}

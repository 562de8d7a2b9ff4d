//! Write-path latency attribution report: a typed view over the
//! `write_path.*` histograms.
//!
//! The report is extracted from a [`MetricsSnapshot`] rather than read
//! from live handles, so one code path serves a live [`crate::Db`] and
//! any snapshot that was serialized to `*.metrics.json` and read back
//! elsewhere.

use clsm_util::metrics::{HistogramSummary, MetricsSnapshot};

/// The write-path stages in commit order: `(short name, metric name)`.
/// A given write visits a subset — `admission` exists only for writes
/// that slept for a pacing slot (or hard-stalled), `durable` only for
/// sync writes — so per-stage counts legitimately differ.
pub const WRITE_PATH_STAGES: &[(&str, &str)] = &[
    ("admission", "write_path.admission_ns"),
    ("stamp", "write_path.stamp_ns"),
    ("memtable", "write_path.memtable_ns"),
    ("wal_enqueue", "write_path.wal_enqueue_ns"),
    ("publish", "write_path.publish_ns"),
    ("durable", "write_path.durable_ns"),
];

/// One stage's latency summary.
#[derive(Debug, Clone)]
pub struct WriteStage {
    /// Short stage name (first column of [`WRITE_PATH_STAGES`]).
    pub name: &'static str,
    /// The stage histogram at snapshot time (nanoseconds).
    pub summary: HistogramSummary,
}

/// Per-stage write-path latency breakdown, built by
/// [`WritePathReport::from_snapshot`].
#[derive(Debug, Clone)]
pub struct WritePathReport {
    /// Stages present in the snapshot, in commit order. Empty for
    /// snapshots of systems that don't register the attribution
    /// histograms (e.g. baseline stores).
    pub stages: Vec<WriteStage>,
    /// End-to-end `Db::write` latency (`write_path.total_ns`).
    pub total: Option<HistogramSummary>,
}

impl WritePathReport {
    /// Extracts the report from any metrics snapshot (a `Db`'s own or
    /// a deserialized `*.metrics.json`).
    pub fn from_snapshot(snap: &MetricsSnapshot) -> WritePathReport {
        WritePathReport {
            stages: WRITE_PATH_STAGES
                .iter()
                .filter_map(|&(name, metric)| {
                    snap.histograms.get(metric).map(|summary| WriteStage {
                        name,
                        summary: summary.clone(),
                    })
                })
                .collect(),
            total: snap.histograms.get("write_path.total_ns").cloned(),
        }
    }

    /// Whether the snapshot carried any write-path samples (stage or
    /// end-to-end).
    pub fn has_samples(&self) -> bool {
        self.stages.iter().any(|s| s.summary.count > 0)
            || self.total.as_ref().is_some_and(|t| t.count > 0)
    }

    /// Renders stable, greppable text lines (the format `clsm-doctor`
    /// and the bench driver print).
    pub fn render(&self) -> String {
        fn line(name: &str, h: &HistogramSummary) -> String {
            format!(
                "  {name:<12} count={} mean={:.0} p50={} p90={} p99={} p999={} max={}\n",
                h.count, h.mean, h.p50, h.p90, h.p99, h.p999, h.max
            )
        }
        let mut out = String::from("write path stages (ns):\n");
        for stage in &self.stages {
            out.push_str(&line(stage.name, &stage.summary));
        }
        if let Some(total) = &self.total {
            out.push_str(&line("total", total));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clsm_util::metrics::MetricsRegistry;

    #[test]
    fn report_extracts_stages() {
        let reg = MetricsRegistry::new();
        reg.histogram("write_path.stamp_ns").record(100);
        reg.histogram("write_path.memtable_ns").record(200);
        reg.histogram("write_path.total_ns").record(400);

        let report = WritePathReport::from_snapshot(&reg.snapshot());
        assert!(report.has_samples());
        // Only registered stages appear, in commit order.
        let names: Vec<_> = report.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["stamp", "memtable"]);
        assert_eq!(report.total.as_ref().unwrap().count, 1);

        let text = report.render();
        assert!(text.contains("stamp"));
        assert!(text.contains("total"));
    }

    #[test]
    fn empty_snapshot_has_no_samples() {
        let report = WritePathReport::from_snapshot(&MetricsRegistry::new().snapshot());
        assert!(!report.has_samples());
        assert!(report.stages.is_empty());
    }
}

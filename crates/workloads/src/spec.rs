//! Workload specifications matching the paper's evaluation setups.

use crate::keygen::KeyDistribution;

/// Operation mix in percent (must sum to 100).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Point reads.
    pub read_pct: u32,
    /// Puts.
    pub write_pct: u32,
    /// Range scans.
    pub scan_pct: u32,
    /// Put-if-absent read-modify-writes.
    pub rmw_pct: u32,
}

impl OpMix {
    /// 100% writes (Figure 5).
    pub(crate) fn write_only() -> OpMix {
        OpMix {
            read_pct: 0,
            write_pct: 100,
            scan_pct: 0,
            rmw_pct: 0,
        }
    }

    /// 100% reads (Figure 6).
    pub(crate) fn read_only() -> OpMix {
        OpMix {
            read_pct: 100,
            write_pct: 0,
            scan_pct: 0,
            rmw_pct: 0,
        }
    }

    /// 1:1 read/write (Figure 7a).
    pub(crate) fn mixed() -> OpMix {
        OpMix {
            read_pct: 50,
            write_pct: 50,
            scan_pct: 0,
            rmw_pct: 0,
        }
    }

    /// Scan/write mix (Figure 7b): scans are 10x rarer than writes so
    /// keys-scanned ≈ keys-written (ranges average 15 keys).
    pub(crate) fn scan_write() -> OpMix {
        OpMix {
            read_pct: 0,
            write_pct: 94,
            scan_pct: 6,
            rmw_pct: 0,
        }
    }

    /// 100% read-modify-write (Figure 9).
    pub(crate) fn rmw_only() -> OpMix {
        OpMix {
            read_pct: 0,
            write_pct: 0,
            scan_pct: 0,
            rmw_pct: 100,
        }
    }

    /// Production read ratio (Figure 10): `read_pct` reads, the rest
    /// writes.
    pub(crate) fn read_heavy(read_pct: u32) -> OpMix {
        OpMix {
            read_pct,
            write_pct: 100 - read_pct,
            scan_pct: 0,
            rmw_pct: 0,
        }
    }

    fn total(&self) -> u32 {
        self.read_pct + self.write_pct + self.scan_pct + self.rmw_pct
    }
}

/// A complete workload description.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Human-readable name for reports.
    pub name: String,
    /// Operation mix.
    pub mix: OpMix,
    /// Number of distinct keys.
    pub key_space: u64,
    /// Key size in bytes.
    pub key_len: usize,
    /// Value size in bytes.
    pub value_len: usize,
    /// Key popularity distribution for reads/writes.
    pub dist: KeyDistribution,
    /// Range-scan length bounds (inclusive), Figure 7b uses 10..=20.
    pub scan_len: (usize, usize),
    /// Keys to insert before timing starts (0 = none).
    pub prefill: u64,
}

impl WorkloadSpec {
    /// §5.1 synthetic base: 8-byte logical keys (16-byte formatted) and
    /// 256-byte values over `key_space` keys.
    pub(crate) fn synthetic(name: &str, mix: OpMix, key_space: u64, dist: KeyDistribution) -> Self {
        assert_eq!(mix.total(), 100, "op mix must sum to 100");
        WorkloadSpec {
            name: name.to_string(),
            mix,
            key_space,
            key_len: 16,
            value_len: 256,
            dist,
            scan_len: (10, 20),
            prefill: 0,
        }
    }

    /// §5.1 write benchmark: uniform keys, no prefill.
    pub fn write_only(key_space: u64) -> Self {
        Self::synthetic(
            "write-100",
            OpMix::write_only(),
            key_space,
            KeyDistribution::Uniform,
        )
    }

    /// §5.1 read benchmark: skewed reads over a prefilled store.
    pub fn read_only(key_space: u64) -> Self {
        let mut s = Self::synthetic(
            "read-100",
            OpMix::read_only(),
            key_space,
            KeyDistribution::PopularBlocks {
                popular_pct: 0.9,
                popular_space_pct: 0.1,
                blocks: 64,
            },
        );
        s.prefill = key_space;
        s
    }

    /// §5.1 mixed benchmark (Figure 7a).
    pub fn mixed(key_space: u64) -> Self {
        let mut s = Self::synthetic(
            "mixed-50-50",
            OpMix::mixed(),
            key_space,
            KeyDistribution::PopularBlocks {
                popular_pct: 0.9,
                popular_space_pct: 0.1,
                blocks: 64,
            },
        );
        s.prefill = key_space / 2;
        s
    }

    /// §5.1 scan/write benchmark (Figure 7b).
    pub fn scan_write(key_space: u64) -> Self {
        let mut s = Self::synthetic(
            "scan-write",
            OpMix::scan_write(),
            key_space,
            KeyDistribution::PopularBlocks {
                popular_pct: 0.9,
                popular_space_pct: 0.1,
                blocks: 64,
            },
        );
        s.prefill = key_space / 2;
        s
    }

    /// §5.1 RMW benchmark (Figure 9): put-if-absent with locality.
    pub fn rmw(key_space: u64) -> Self {
        let mut s = Self::synthetic(
            "rmw-100",
            OpMix::rmw_only(),
            key_space,
            KeyDistribution::PopularBlocks {
                popular_pct: 0.9,
                popular_space_pct: 0.1,
                blocks: 64,
            },
        );
        s.prefill = key_space / 4;
        s
    }

    /// §5.3 disk-bound update benchmark: 10-byte keys (16 formatted),
    /// 400-byte values, uniform updates over a sequentially filled
    /// store.
    pub fn disk_bound(key_space: u64) -> Self {
        WorkloadSpec {
            name: "disk-bound-update".to_string(),
            mix: OpMix::write_only(),
            key_space,
            key_len: 16,
            value_len: 400,
            dist: KeyDistribution::Uniform,
            scan_len: (10, 20),
            prefill: key_space,
        }
    }
}

/// §5.2 production datasets: four representative read ratios with
/// heavy-tail popularity, 40-byte keys and 1 KiB values.
pub fn production_dataset(index: usize, key_space: u64) -> WorkloadSpec {
    // Read percentages of the four datasets in Figure 10.
    let read_pcts = [93, 85, 96, 86];
    let read_pct = read_pcts[index % read_pcts.len()];
    let mut s = WorkloadSpec {
        name: format!("production-{} ({}% reads)", index + 1, read_pct),
        mix: OpMix::read_heavy(read_pct),
        key_space,
        key_len: 40,
        value_len: 1024,
        dist: KeyDistribution::HeavyTail { theta: 0.99 },
        scan_len: (10, 20),
        prefill: 0,
    };
    s.prefill = key_space / 2;
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_100() {
        for m in [
            OpMix::write_only(),
            OpMix::read_only(),
            OpMix::mixed(),
            OpMix::scan_write(),
            OpMix::rmw_only(),
            OpMix::read_heavy(93),
        ] {
            assert_eq!(m.total(), 100);
        }
    }

    #[test]
    fn production_specs_match_paper_parameters() {
        let s = production_dataset(0, 1000);
        assert_eq!(s.key_len, 40);
        assert_eq!(s.value_len, 1024);
        assert_eq!(s.mix.read_pct, 93);
        let s = production_dataset(3, 1000);
        assert_eq!(s.mix.read_pct, 86);
    }

    #[test]
    #[should_panic(expected = "op mix must sum to 100")]
    fn bad_mix_rejected() {
        let bad = OpMix {
            read_pct: 50,
            write_pct: 10,
            scan_pct: 0,
            rmw_pct: 0,
        };
        let _ = WorkloadSpec::synthetic("bad", bad, 10, KeyDistribution::Uniform);
    }
}

//! The one observability clock: nanoseconds since a process-wide
//! epoch. The shared-exclusive lock's hold stamp, admission, stall
//! events and the write-stage timings all read it, so their
//! timestamps live on one axis.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process epoch (monotonic, never zero; the
/// epoch is fixed by the first call from any thread).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos())
        .unwrap_or(u64::MAX)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::now_ns;

    #[test]
    fn now_ns_is_monotone_and_nonzero() {
        let a = now_ns();
        let b = now_ns();
        assert!(a >= 1);
        assert!(b >= a);
    }
}

//! Error type shared across the workspace.

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Result alias used throughout the cLSM crates.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the data store and its substrates.
///
/// I/O errors are wrapped in an [`Arc`] so that `Error` stays `Clone`;
/// a failed background flush must be reportable to every waiting writer.
#[derive(Debug, Clone)]
pub enum Error {
    /// An operating-system I/O failure.
    Io(Arc<io::Error>),
    /// On-disk data failed a checksum or structural validation.
    Corruption(String),
    /// A write-ahead log ends in a damaged or incomplete record.
    ///
    /// Unlike [`Error::Corruption`], a truncated WAL tail is *expected*
    /// after a crash: with asynchronous logging the last records may
    /// never have reached disk, and even a synchronous log can tear
    /// mid-`fsync`. Recovery treats everything before `offset` as valid
    /// and everything after it as lost.
    WalTruncated {
        /// Path of the damaged log file.
        file: PathBuf,
        /// Byte offset of the first damaged fragment; all records that
        /// end at or before this offset were recovered intact.
        offset: u64,
    },
    /// The manifest (or the `CURRENT` pointer naming it) failed
    /// structural validation during open.
    ///
    /// Distinct from [`Error::Corruption`] so that tooling can tell
    /// version-state damage (recoverable by manifest surgery or a
    /// backup `CURRENT`) from table/block damage (data loss).
    ManifestCorrupt {
        /// The damaged manifest or `CURRENT` file.
        file: PathBuf,
        /// What failed to validate.
        detail: String,
    },
    /// The caller passed an argument the store cannot honor.
    InvalidArgument(String),
    /// An internal invariant was violated; indicates a bug.
    Internal(String),
    /// A network peer violated the wire protocol (bad frame length,
    /// unknown opcode, malformed payload). The connection that
    /// produced it is closed; other connections are unaffected.
    Protocol(String),
    /// An error reported by a remote server over the wire.
    ///
    /// Carries the remote error's [`ErrorKind`] (transported as its
    /// stable [`ErrorKind::code`]), its rendered message, and whether
    /// the remote side judged it retryable — [`Error::is_retryable`]
    /// needs the original `io::ErrorKind`, which does not cross the
    /// wire, so the verdict is computed server-side and shipped.
    Remote {
        /// The remote error's classification.
        kind: ErrorKind,
        /// The remote error's rendered message.
        message: String,
        /// The remote side's `is_retryable()` verdict.
        retryable: bool,
    },
}

/// Coarse classification of an [`Error`], for callers that dispatch on
/// the failure class rather than the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// An operating-system I/O failure ([`Error::Io`]).
    Io,
    /// Checksum or structural validation failure ([`Error::Corruption`]).
    Corruption,
    /// Benign torn log tail ([`Error::WalTruncated`]).
    WalTruncated,
    /// Manifest or `CURRENT` damage ([`Error::ManifestCorrupt`]).
    ManifestCorrupt,
    /// Caller error ([`Error::InvalidArgument`]).
    InvalidArgument,
    /// Internal invariant violation ([`Error::Internal`]).
    Internal,
    /// Wire-protocol violation ([`Error::Protocol`]).
    Protocol,
}

impl ErrorKind {
    /// The stable wire code for this kind.
    ///
    /// These codes are part of the network protocol: a server maps an
    /// [`Error`] to `error.kind().code()` before shipping it, and the
    /// client reconstructs the kind with `ErrorKind::from_code`.
    /// Codes are append-only — never renumber or reuse one. Code 6
    /// named a shutdown kind no store reports any more; it stays
    /// unused, and a peer that sends it degrades to `Internal`.
    pub fn code(self) -> u16 {
        match self {
            ErrorKind::Io => 1,
            ErrorKind::Corruption => 2,
            ErrorKind::WalTruncated => 3,
            ErrorKind::InvalidArgument => 4,
            ErrorKind::Internal => 5,
            ErrorKind::ManifestCorrupt => 7,
            ErrorKind::Protocol => 8,
        }
    }

    /// The kind a stable wire code names, if any ([`ErrorKind::code`]'s
    /// inverse). Unknown codes — a newer peer's kinds — return `None`;
    /// callers degrade them to [`ErrorKind::Internal`] or reject.
    pub(crate) fn from_code(code: u16) -> Option<ErrorKind> {
        match code {
            1 => Some(ErrorKind::Io),
            2 => Some(ErrorKind::Corruption),
            3 => Some(ErrorKind::WalTruncated),
            4 => Some(ErrorKind::InvalidArgument),
            5 => Some(ErrorKind::Internal),
            7 => Some(ErrorKind::ManifestCorrupt),
            8 => Some(ErrorKind::Protocol),
            _ => None,
        }
    }
}

impl Error {
    /// Builds a corruption error with the given human-readable detail.
    pub fn corruption(msg: impl Into<String>) -> Self {
        Error::Corruption(msg.into())
    }

    /// Builds an invalid-argument error with the given detail.
    pub fn invalid_argument(msg: impl Into<String>) -> Self {
        Error::InvalidArgument(msg.into())
    }

    /// Builds a torn-log-tail error for `file` at byte `offset`.
    pub fn wal_truncated(file: impl Into<PathBuf>, offset: u64) -> Self {
        Error::WalTruncated {
            file: file.into(),
            offset,
        }
    }

    /// Builds a manifest-damage error for `file`.
    pub fn manifest_corrupt(file: impl Into<PathBuf>, detail: impl Into<String>) -> Self {
        Error::ManifestCorrupt {
            file: file.into(),
            detail: detail.into(),
        }
    }

    /// Builds a wire-protocol-violation error.
    pub fn protocol(msg: impl Into<String>) -> Self {
        Error::Protocol(msg.into())
    }

    /// Reconstructs a remote error from its wire form: the stable kind
    /// code ([`ErrorKind::code`]), the rendered message, and the remote
    /// side's retryability verdict. Unknown codes degrade to
    /// [`ErrorKind::Internal`] rather than failing the decode.
    pub fn from_wire(code: u16, message: impl Into<String>, retryable: bool) -> Self {
        Error::Remote {
            kind: ErrorKind::from_code(code).unwrap_or(ErrorKind::Internal),
            message: message.into(),
            retryable,
        }
    }

    /// Returns the coarse classification of this error.
    pub fn kind(&self) -> ErrorKind {
        match self {
            Error::Io(_) => ErrorKind::Io,
            Error::Corruption(_) => ErrorKind::Corruption,
            Error::WalTruncated { .. } => ErrorKind::WalTruncated,
            Error::ManifestCorrupt { .. } => ErrorKind::ManifestCorrupt,
            Error::InvalidArgument(_) => ErrorKind::InvalidArgument,
            Error::Internal(_) => ErrorKind::Internal,
            Error::Protocol(_) => ErrorKind::Protocol,
            Error::Remote { kind, .. } => *kind,
        }
    }

    /// Whether retrying the failed operation could plausibly succeed.
    ///
    /// Transient OS-level I/O failures (interrupted syscalls, momentary
    /// resource exhaustion) are retryable; corruption, torn logs, caller
    /// errors and internal bugs are not.
    pub fn is_retryable(&self) -> bool {
        match self {
            Error::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::Interrupted
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::ResourceBusy
            ),
            Error::Remote { retryable, .. } => *retryable,
            _ => false,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Corruption(m) => write!(f, "corruption: {m}"),
            Error::WalTruncated { file, offset } => {
                write!(f, "WAL truncated: {} at offset {offset}", file.display())
            }
            Error::ManifestCorrupt { file, detail } => {
                write!(f, "manifest corrupt: {}: {detail}", file.display())
            }
            Error::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            Error::Internal(m) => write!(f, "internal error: {m}"),
            Error::Protocol(m) => write!(f, "protocol error: {m}"),
            Error::Remote { kind, message, .. } => {
                write!(f, "remote error ({kind:?}): {message}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(Arc::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = Error::corruption("bad block");
        assert_eq!(e.to_string(), "corruption: bad block");
        let e = Error::invalid_argument("empty key");
        assert_eq!(e.to_string(), "invalid argument: empty key");
        let e = Error::from(io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        let e = Error::wal_truncated("000007.log", 4096);
        assert_eq!(e.to_string(), "WAL truncated: 000007.log at offset 4096");
    }

    #[test]
    fn error_is_cloneable_and_sourced() {
        let e = Error::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        let e2 = e.clone();
        assert!(std::error::Error::source(&e2).is_some());
        assert!(std::error::Error::source(&Error::Internal("x".into())).is_none());
    }

    #[test]
    fn kinds_and_retryability() {
        assert_eq!(Error::corruption("x").kind(), ErrorKind::Corruption);
        assert_eq!(
            Error::wal_truncated("a.log", 0).kind(),
            ErrorKind::WalTruncated
        );
        assert_eq!(Error::Internal("x".into()).kind(), ErrorKind::Internal);

        let interrupted = Error::from(io::Error::new(io::ErrorKind::Interrupted, "eintr"));
        assert!(interrupted.is_retryable());
        let missing = Error::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(!missing.is_retryable());
        assert_eq!(missing.kind(), ErrorKind::Io);
        assert!(!Error::corruption("x").is_retryable());
        assert!(!Error::wal_truncated("a.log", 0).is_retryable());
    }

    #[test]
    fn retryability_covers_every_kind() {
        // One representative error per kind: exactly the transient I/O
        // class (and a remote error that says so) is retryable.
        let by_kind: Vec<(Error, bool)> = vec![
            (
                Error::from(io::Error::new(io::ErrorKind::TimedOut, "slow")),
                true,
            ),
            (Error::from(io::Error::other("disk on fire")), false),
            (Error::corruption("bad block"), false),
            (Error::wal_truncated("a.log", 10), false),
            (Error::manifest_corrupt("MANIFEST-000001", "bad tag"), false),
            (Error::invalid_argument("empty key"), false),
            (Error::Internal("bug".into()), false),
            (Error::protocol("bad opcode"), false),
            (
                Error::from_wire(ErrorKind::Io.code(), "remote eintr", true),
                true,
            ),
            (
                Error::from_wire(ErrorKind::Io.code(), "remote enospc", false),
                false,
            ),
        ];
        for (e, want) in by_kind {
            assert_eq!(e.is_retryable(), want, "{e}");
        }
    }

    #[test]
    fn wire_codes_round_trip_every_kind() {
        const ALL: &[ErrorKind] = &[
            ErrorKind::Io,
            ErrorKind::Corruption,
            ErrorKind::WalTruncated,
            ErrorKind::ManifestCorrupt,
            ErrorKind::InvalidArgument,
            ErrorKind::Internal,
            ErrorKind::Protocol,
        ];
        for &kind in ALL {
            assert_eq!(ErrorKind::from_code(kind.code()), Some(kind), "{kind:?}");
        }
        // Codes are distinct (the round-trip above implies it, but make
        // the append-only contract explicit).
        let mut codes: Vec<u16> = ALL.iter().map(|k| k.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), ALL.len());
        // Unknown codes never panic and never alias a real kind.
        assert_eq!(ErrorKind::from_code(0), None);
        assert_eq!(ErrorKind::from_code(6), None, "retired, never reused");
        assert_eq!(ErrorKind::from_code(u16::MAX), None);
    }

    #[test]
    fn remote_errors_carry_kind_message_and_verdict() {
        let original = Error::corruption("block checksum mismatch");
        let wired = Error::from_wire(
            original.kind().code(),
            original.to_string(),
            original.is_retryable(),
        );
        assert_eq!(wired.kind(), ErrorKind::Corruption);
        assert!(!wired.is_retryable());
        assert!(wired.to_string().contains("block checksum mismatch"));
        // A code from a newer peer degrades to Internal, not a panic.
        let future = Error::from_wire(999, "unknown failure", false);
        assert_eq!(future.kind(), ErrorKind::Internal);
    }

    #[test]
    fn manifest_corrupt_is_typed() {
        let e = Error::manifest_corrupt("db/CURRENT", "not valid UTF-8");
        assert_eq!(e.kind(), ErrorKind::ManifestCorrupt);
        assert_eq!(
            e.to_string(),
            "manifest corrupt: db/CURRENT: not valid UTF-8"
        );
    }
}

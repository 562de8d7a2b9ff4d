//! Store-directory file naming, LevelDB style.

use std::path::{Path, PathBuf};

/// The kinds of files living in a store directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Write-ahead log (`NNNNNN.log`).
    Wal(u64),
    /// Sorted string table (`NNNNNN.sst`).
    Table(u64),
    /// Version-edit manifest (`MANIFEST-NNNNNN`).
    Manifest(u64),
    /// Pointer to the live manifest (`CURRENT`).
    Current,
    /// Temporary file used for atomic renames (`NNNNNN.tmp`).
    Temp(u64),
}

/// Path of the WAL with the given number.
pub fn wal_path(dir: &Path, number: u64) -> PathBuf {
    dir.join(format!("{number:06}.log"))
}

/// Path of the table with the given number.
pub fn table_path(dir: &Path, number: u64) -> PathBuf {
    dir.join(format!("{number:06}.sst"))
}

/// Path of the manifest with the given number.
pub(crate) fn manifest_path(dir: &Path, number: u64) -> PathBuf {
    dir.join(format!("MANIFEST-{number:06}"))
}

/// Path of the CURRENT pointer file.
pub(crate) fn current_path(dir: &Path) -> PathBuf {
    dir.join("CURRENT")
}

/// Path of a temporary file with the given number.
pub(crate) fn temp_path(dir: &Path, number: u64) -> PathBuf {
    dir.join(format!("{number:06}.tmp"))
}

/// Parses a directory-entry name into a [`FileKind`].
pub fn parse_file_name(name: &str) -> Option<FileKind> {
    if name == "CURRENT" {
        return Some(FileKind::Current);
    }
    if let Some(rest) = name.strip_prefix("MANIFEST-") {
        return rest.parse().ok().map(FileKind::Manifest);
    }
    if let Some(stem) = name.strip_suffix(".log") {
        return stem.parse().ok().map(FileKind::Wal);
    }
    if let Some(stem) = name.strip_suffix(".sst") {
        return stem.parse().ok().map(FileKind::Table);
    }
    if let Some(stem) = name.strip_suffix(".tmp") {
        return stem.parse().ok().map(FileKind::Temp);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_and_parsing_roundtrip() {
        let dir = Path::new("/db");
        assert_eq!(wal_path(dir, 7), Path::new("/db/000007.log"));
        assert_eq!(table_path(dir, 123456), Path::new("/db/123456.sst"));
        assert_eq!(manifest_path(dir, 1), Path::new("/db/MANIFEST-000001"));
        assert_eq!(current_path(dir), Path::new("/db/CURRENT"));

        assert_eq!(parse_file_name("000007.log"), Some(FileKind::Wal(7)));
        assert_eq!(parse_file_name("123456.sst"), Some(FileKind::Table(123456)));
        assert_eq!(
            parse_file_name("MANIFEST-000001"),
            Some(FileKind::Manifest(1))
        );
        assert_eq!(parse_file_name("CURRENT"), Some(FileKind::Current));
        assert_eq!(parse_file_name("000009.tmp"), Some(FileKind::Temp(9)));
    }

    #[test]
    fn parse_rejects_foreign_names() {
        assert_eq!(parse_file_name("LOCK"), None);
        assert_eq!(parse_file_name("foo.sst2"), None);
        assert_eq!(parse_file_name("x.log"), None);
        assert_eq!(parse_file_name("MANIFEST-"), None);
        assert_eq!(parse_file_name(""), None);
    }

    #[test]
    fn large_numbers_still_parse() {
        // Numbers wider than the 6-digit padding must roundtrip.
        let name = format!("{:06}.sst", 10_000_000u64);
        assert_eq!(parse_file_name(&name), Some(FileKind::Table(10_000_000)));
    }
}

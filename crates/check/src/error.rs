//! Errors of the lint engine itself (I/O, malformed manifests).

use std::fmt;
use std::path::PathBuf;

/// Failure to run the lint (not a lint finding — those are
/// [`crate::lint::Diagnostic`]s).
#[derive(Debug)]
pub enum CheckError {
    /// Reading a file or directory failed.
    Io {
        /// The path being read.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A crate manifest has no `[package] name`.
    MissingCrateName {
        /// The manifest path.
        path: PathBuf,
    },
    /// No enclosing workspace root (a `Cargo.toml` with `[workspace]`) was
    /// found walking up from the start directory.
    NoWorkspaceRoot {
        /// The directory the search started from.
        start: PathBuf,
    },
}

// `?` and `Box<dyn Error>` need it: a missing impl fails here with E0277.
const _: fn(&CheckError) -> &dyn std::error::Error = |e| e;

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Io { path, source } => {
                write!(f, "failed to read {}: {source}", path.display())
            }
            CheckError::MissingCrateName { path } => {
                write!(f, "no [package] name in {}", path.display())
            }
            CheckError::NoWorkspaceRoot { start } => write!(
                f,
                "no workspace root ([workspace] in Cargo.toml) above {}",
                start.display()
            ),
        }
    }
}

impl std::error::Error for CheckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

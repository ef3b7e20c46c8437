//! Typed runtime errors for the matcher's fallible APIs.
//!
//! Compile-time problems (bad patterns, state-budget overflow) surface as
//! [`CompileError`](sfa_automata::CompileError) from the builders; this
//! module covers the *usage* errors that can only occur after a
//! successful compile: encoding a lazy automaton as an artifact, loading
//! a compiled-automaton artifact that is stale or damaged, and
//! addressing an unregistered tenant namespace in a multi-tenant service
//! built on this crate.

use sfa_serialize::ArtifactError;
use std::fmt;

/// A runtime usage error: returned by
/// [`Regex::to_artifact`](crate::Regex::to_artifact), the artifact
/// loaders ([`Regex::from_artifact`](crate::Regex::from_artifact),
/// [`Regex::load_artifact`](crate::Regex::load_artifact)) and services
/// that look tenants up by name.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A compiled-automaton artifact was written by a different format
    /// version. Rebuild the artifact with this toolchain (see
    /// [`Regex::to_artifact`](crate::Regex::to_artifact)).
    ArtifactVersionMismatch {
        /// The version stored in the artifact header.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// A compiled-automaton artifact failed validation — truncated,
    /// checksum mismatch, or an out-of-range table entry. Corrupt
    /// artifacts fail closed: no automaton is produced, nothing panics,
    /// and no wrong-answer matcher can be constructed from damaged
    /// tables.
    ArtifactCorrupt {
        /// Byte offset of the section that failed validation.
        offset: usize,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A compiled-automaton artifact could not be read from disk.
    ArtifactIo(
        /// The rendered I/O error (kept as text so [`Error`] stays
        /// `Clone + PartialEq`).
        String,
    ),
    /// A request addressed a tenant namespace that was never registered
    /// (or was already dropped). Raised by multi-tenant services built on
    /// this crate, such as `sfa-server`.
    TenantUnknown {
        /// The tenant name the request carried.
        tenant: String,
    },
    /// An artifact can only be encoded from an **eager** D-SFA backend;
    /// this regex runs on a lazy or borrowed backend, which has no
    /// complete table set to serialize. Recompile with
    /// [`BackendChoice::Eager`](crate::BackendChoice) to produce an
    /// artifact.
    ArtifactRequiresEagerBackend,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ArtifactVersionMismatch { found, supported } => write!(
                f,
                "artifact format version {found} is not readable by this build \
                 (which reads version {supported}); rebuild the artifact"
            ),
            Error::ArtifactCorrupt { offset, reason } => {
                write!(f, "corrupt artifact at byte {offset}: {reason}")
            }
            Error::ArtifactIo(message) => write!(f, "artifact io error: {message}"),
            Error::TenantUnknown { tenant } => {
                write!(f, "unknown tenant {tenant:?}: register its patterns first")
            }
            Error::ArtifactRequiresEagerBackend => write!(
                f,
                "artifacts serialize the eager D-SFA tables: this regex runs on a lazy or \
                 borrowed backend; recompile with BackendChoice::Eager to encode an artifact"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<ArtifactError> for Error {
    fn from(err: ArtifactError) -> Error {
        match err {
            ArtifactError::VersionMismatch { found, supported } => {
                Error::ArtifactVersionMismatch { found, supported }
            }
            ArtifactError::Corrupt { offset, reason } => Error::ArtifactCorrupt { offset, reason },
            ArtifactError::Io(io) => Error::ArtifactIo(io.to_string()),
            // `ArtifactError` is non_exhaustive; future variants degrade
            // to a corrupt report at offset 0 rather than a panic.
            other => Error::ArtifactCorrupt { offset: 0, reason: other.to_string() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_a_std_error() {
        let err: Box<dyn std::error::Error> = Box::new(Error::ArtifactRequiresEagerBackend);
        assert!(err.source().is_none());
    }

    #[test]
    fn artifact_errors_convert_with_their_payloads() {
        let err: Error = ArtifactError::VersionMismatch { found: 3, supported: 1 }.into();
        assert_eq!(err, Error::ArtifactVersionMismatch { found: 3, supported: 1 });
        assert!(err.to_string().contains("version 3"));

        let err: Error =
            ArtifactError::Corrupt { offset: 96, reason: "checksum".to_string() }.into();
        assert_eq!(err, Error::ArtifactCorrupt { offset: 96, reason: "checksum".to_string() });
        assert!(err.to_string().contains("byte 96"));

        let err: Error = ArtifactError::Io(std::io::Error::other("gone")).into();
        assert!(matches!(&err, Error::ArtifactIo(m) if m.contains("gone")));

        let err = Error::TenantUnknown { tenant: "acme".to_string() };
        assert!(err.to_string().contains("\"acme\""));
    }
}

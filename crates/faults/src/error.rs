//! The workspace-wide typed error taxonomy.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Every way the plan-bouquet stack can fail without panicking.
///
/// Payloads are plain strings / integers so the type stays `Clone + Eq`-able
/// and serializable — error values travel inside run traces and chaos-campaign
/// reports, which must round-trip through JSON.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PbError {
    /// A caller handed an object whose dimensionality does not match the ESS.
    DimensionMismatch { expected: usize, got: usize },
    /// Filesystem-level failure while persisting or loading an artefact.
    Io { path: String, message: String },
    /// An artefact file parsed but its contents are inconsistent, or failed
    /// to parse at all (truncated / corrupt).
    Corrupt { path: String, message: String },
    /// A configuration value is outside its legal range.
    InvalidConfig(String),
    /// Bouquet identification failed (degenerate cost span, empty contours…).
    Identification(String),
    /// The runtime monitor observed spend inconsistent with the granted
    /// budget, or the compile-time PIC monotonicity check failed — the PCM
    /// assumption underlying the MSO guarantee is broken.
    MonotonicityViolation(String),
    /// A plan demanded an index scan over a column with no index.
    UnindexedColumn(String),
    /// An operator faulted mid-execution (injected or real).
    OperatorFailure { site: String },
    /// A spill (partial-result reuse) could not be written or read back.
    SpillFailure { site: String },
    /// A named entity (table, column, relation…) is missing from a catalog
    /// or schema.
    MissingEntity { kind: String, name: String },
    /// The execution was cooperatively cancelled (client cancel RPC or a
    /// per-request deadline). Work already checkpointed survives: a resubmit
    /// resumes instead of restarting.
    Cancelled(String),
    /// An internal invariant was violated; carries a diagnostic message.
    Internal(String),
}

impl fmt::Display for PbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PbError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            PbError::Io { path, message } => write!(f, "i/o error on {path}: {message}"),
            PbError::Corrupt { path, message } => {
                write!(f, "corrupt artefact {path}: {message}")
            }
            PbError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            PbError::Identification(m) => write!(f, "bouquet identification failed: {m}"),
            PbError::MonotonicityViolation(m) => write!(f, "monotonicity violation: {m}"),
            PbError::UnindexedColumn(m) => write!(f, "index scan over unindexed column: {m}"),
            PbError::OperatorFailure { site } => write!(f, "operator failure at {site}"),
            PbError::SpillFailure { site } => write!(f, "spill failure at {site}"),
            PbError::MissingEntity { kind, name } => write!(f, "missing {kind}: {name}"),
            PbError::Cancelled(m) => write!(f, "execution cancelled: {m}"),
            PbError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for PbError {}

impl From<std::io::Error> for PbError {
    fn from(e: std::io::Error) -> Self {
        PbError::Io {
            path: String::new(),
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        let e = PbError::DimensionMismatch {
            expected: 3,
            got: 2,
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected 3, got 2");
        let e = PbError::OperatorFailure {
            site: "hash-join".into(),
        };
        assert_eq!(e.to_string(), "operator failure at hash-join");
    }

    #[test]
    fn errors_round_trip_through_json() {
        let errs = vec![
            PbError::DimensionMismatch {
                expected: 4,
                got: 1,
            },
            PbError::Corrupt {
                path: "b.json".into(),
                message: "eof".into(),
            },
            PbError::MonotonicityViolation("spend 3 > budget 2".into()),
            PbError::SpillFailure {
                site: "executor".into(),
            },
        ];
        for e in errs {
            let s = serde_json::to_string(&e).unwrap();
            let back: PbError = serde_json::from_str(&s).unwrap();
            assert_eq!(back, e);
        }
    }
}

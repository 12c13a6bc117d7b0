//! Error type of the service layer.

use std::fmt;

use planartest_core::CoreError;
use planartest_graph::generators::spec::SpecError;
use planartest_graph::io::ParseGraphError;

/// Errors surfaced by the service layer.
///
/// Reject verdicts are *results*, never errors — this type covers ingest
/// failures, unresolvable references and engine infrastructure errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A query referenced a graph that is not resident.
    UnknownGraph {
        /// The name or fingerprint that failed to resolve.
        graph: String,
    },
    /// An ingest tried to rebind an existing name to different content.
    NameTaken {
        /// The contested name.
        name: String,
    },
    /// An edge-list document failed to parse.
    EdgeList(ParseGraphError),
    /// A generator spec failed to parse or instantiate.
    Spec(SpecError),
    /// The underlying engine pass failed (infrastructure, not verdict).
    Engine(CoreError),
    /// The engine pass panicked. Every query of its group gets this;
    /// the server keeps serving.
    PassPanicked {
        /// The panic's message.
        message: String,
    },
    /// The persistence tier failed (CSR spill, certificate log).
    Persist(crate::persist::PersistError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownGraph { graph } => {
                write!(f, "graph `{graph}` is not in the registry")
            }
            ServiceError::NameTaken { name } => {
                write!(f, "name `{name}` is already bound to a different graph")
            }
            ServiceError::EdgeList(e) => write!(f, "edge list: {e}"),
            ServiceError::Spec(e) => write!(f, "generator spec: {e}"),
            ServiceError::Engine(e) => write!(f, "engine: {e}"),
            ServiceError::PassPanicked { message } => {
                write!(f, "engine pass panicked: {message}")
            }
            ServiceError::Persist(e) => write!(f, "persistence: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::EdgeList(e) => Some(e),
            ServiceError::Spec(e) => Some(e),
            ServiceError::Engine(e) => Some(e),
            ServiceError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Engine(e)
    }
}

impl From<crate::persist::PersistError> for ServiceError {
    fn from(e: crate::persist::PersistError) -> Self {
        ServiceError::Persist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServiceError::UnknownGraph { graph: "g9".into() };
        assert!(e.to_string().contains("g9"));
        assert!(std::error::Error::source(&e).is_none());
        let e = ServiceError::Spec(SpecError::Malformed);
        assert!(std::error::Error::source(&e).is_some());
        let e = ServiceError::NameTaken { name: "a".into() };
        assert!(e.to_string().contains("already bound"));
    }
}

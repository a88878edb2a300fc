//! The workspace-wide error type.
//!
//! Every fallible public operation in the VulnDS system — graph
//! construction and I/O (`ugraph`), configuration validation, engine
//! queries, and the CLI — funnels into [`VulnError`], so callers handle
//! one enum instead of per-layer stringly errors.

use std::fmt;
use ugraph::GraphError;

use crate::config::ConfigError;

/// Unified error for the VulnDS workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum VulnError {
    /// Graph construction, validation or I/O failed (wraps
    /// [`ugraph::GraphError`], including its parse and I/O variants).
    Graph(GraphError),
    /// A configuration parameter was invalid (wraps
    /// [`ConfigError`]).
    Config(ConfigError),
    /// `k` was zero or exceeded the number of nodes.
    InvalidK {
        /// The requested `k`.
        k: usize,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// A request parameter other than `k` was out of range (e.g. the
    /// bottom-k parameter below 2).
    InvalidParameter(String),
    /// A candidate hint referenced a node outside the graph.
    CandidateOutOfBounds {
        /// The offending node id.
        node: u32,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// A graph file could not be read or written; carries the path the
    /// underlying [`GraphError`] lacks.
    File {
        /// Path of the file involved.
        path: String,
        /// The underlying graph/I-O error.
        error: GraphError,
    },
    /// A command-line invocation could not be parsed or executed.
    Usage(String),
    /// Durable state failed an integrity check (a WAL record or
    /// snapshot with a bad checksum or torn frame). Kept distinct from
    /// [`VulnError::Usage`] so tooling can exit with a dedicated
    /// status: corruption is a property of the data, not the command.
    Corrupt(String),
    /// The query was cancelled (deadline or explicit token) before any
    /// samples were drawn, so not even a degraded answer exists. A
    /// cancellation that lands *after* some samples were drawn is not an
    /// error: the query succeeds with `degraded = true`.
    Cancelled,
}

impl fmt::Display for VulnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VulnError::Graph(e) => write!(f, "{e}"),
            VulnError::Config(e) => write!(f, "{e}"),
            VulnError::InvalidK { k, n } => {
                write!(f, "k = {k} out of range: must be in 1..={n}")
            }
            VulnError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            VulnError::CandidateOutOfBounds { node, n } => {
                write!(f, "candidate node {node} out of bounds for graph with {n} nodes")
            }
            VulnError::File { path, error } => write!(f, "{path}: {error}"),
            VulnError::Usage(msg) => f.write_str(msg),
            VulnError::Corrupt(msg) => write!(f, "corrupt: {msg}"),
            VulnError::Cancelled => f.write_str("query cancelled before any samples were drawn"),
        }
    }
}

impl std::error::Error for VulnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VulnError::Graph(e) => Some(e),
            VulnError::Config(e) => Some(e),
            VulnError::File { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<GraphError> for VulnError {
    fn from(e: GraphError) -> Self {
        VulnError::Graph(e)
    }
}

impl From<ConfigError> for VulnError {
    fn from(e: ConfigError) -> Self {
        VulnError::Config(e)
    }
}

impl From<std::io::Error> for VulnError {
    fn from(e: std::io::Error) -> Self {
        VulnError::Graph(GraphError::from(e))
    }
}

/// Convenience result alias for engine and CLI code.
pub type Result<T> = std::result::Result<T, VulnError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = VulnError::InvalidK { k: 9, n: 5 };
        assert!(e.to_string().contains("1..=5"), "{e}");
        let e = VulnError::CandidateOutOfBounds { node: 7, n: 3 };
        assert!(e.to_string().contains("node 7"), "{e}");
        let e = VulnError::InvalidParameter("hint smaller than k".into());
        assert!(e.to_string().contains("hint"), "{e}");
    }

    #[test]
    fn wraps_layer_errors() {
        let g: VulnError = GraphError::SelfLoop { node: 3 }.into();
        assert!(matches!(g, VulnError::Graph(_)));
        assert!(std::error::Error::source(&g).is_some());

        let c: VulnError = ConfigError("epsilon".into()).into();
        assert!(matches!(c, VulnError::Config(_)));

        let io: VulnError = std::io::Error::new(std::io::ErrorKind::NotFound, "nope").into();
        assert!(matches!(io, VulnError::Graph(GraphError::Io(_))));
    }

    #[test]
    fn file_variant_names_the_path() {
        let e = VulnError::File {
            path: "graphs/g.txt".into(),
            error: GraphError::Io("No such file".into()),
        };
        assert!(e.to_string().contains("graphs/g.txt"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }
}

//! Error types for graph construction and I/O.

use std::fmt;

/// Errors produced while building or loading an uncertain graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A probability was outside the closed interval `[0, 1]` or not finite.
    InvalidProbability {
        /// Human-readable description of where the probability was used.
        context: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A node id referenced a node that does not exist.
    NodeOutOfBounds {
        /// The offending node id.
        node: u32,
        /// Number of nodes in the graph.
        len: u32,
    },
    /// An edge id referenced an edge that does not exist.
    EdgeOutOfBounds {
        /// The offending canonical edge id.
        edge: u32,
        /// Number of edges in the graph.
        len: u32,
    },
    /// A self-loop `(v, v)` was inserted; a node's default cannot diffuse to
    /// itself under the paper's model.
    SelfLoop {
        /// The node with the attempted self-loop.
        node: u32,
    },
    /// A duplicate edge was inserted while the builder policy was
    /// [`DuplicateEdgePolicy::Error`](crate::builder::DuplicateEdgePolicy::Error).
    DuplicateEdge {
        /// Source of the duplicate edge.
        source: u32,
        /// Target of the duplicate edge.
        target: u32,
    },
    /// The number of nodes or edges would exceed the `u32` index space.
    CapacityExceeded {
        /// What overflowed (the builder reports "edges").
        what: &'static str,
    },
    /// A parse error while reading a graph from text.
    Parse {
        /// 1-based line number of the malformed input.
        line: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// An underlying I/O error, stringified to keep the error type `Clone`.
    Io(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidProbability { context, value } => {
                write!(f, "invalid probability {value} for {context}: must be in [0, 1]")
            }
            GraphError::NodeOutOfBounds { node, len } => {
                write!(f, "node id {node} out of bounds for graph with {len} nodes")
            }
            GraphError::EdgeOutOfBounds { edge, len } => {
                write!(f, "edge id {edge} out of bounds for graph with {len} edges")
            }
            GraphError::SelfLoop { node } => {
                write!(f, "self-loop on node {node} is not allowed")
            }
            GraphError::DuplicateEdge { source, target } => {
                write!(f, "duplicate edge ({source}, {target})")
            }
            GraphError::CapacityExceeded { what } => {
                write!(f, "number of {what} exceeds u32 index space")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Validates that `value` is a finite probability in `[0, 1]`.
pub(crate) fn check_probability(value: f64, context: &'static str) -> Result<f64> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(GraphError::InvalidProbability { context, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_probabilities() {
        assert_eq!(check_probability(0.0, "t").unwrap(), 0.0);
        assert_eq!(check_probability(1.0, "t").unwrap(), 1.0);
        assert_eq!(check_probability(0.5, "t").unwrap(), 0.5);
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(check_probability(-0.1, "t").is_err());
        assert!(check_probability(1.1, "t").is_err());
    }

    #[test]
    fn rejects_non_finite() {
        assert!(check_probability(f64::NAN, "t").is_err());
        assert!(check_probability(f64::INFINITY, "t").is_err());
        assert!(check_probability(f64::NEG_INFINITY, "t").is_err());
    }

    #[test]
    fn display_is_informative() {
        let e = GraphError::InvalidProbability { context: "edge (1, 2)", value: 1.5 };
        let s = e.to_string();
        assert!(s.contains("1.5"));
        assert!(s.contains("edge (1, 2)"));

        let e = GraphError::Parse { line: 7, message: "bad token".into() };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::Io(_)));
    }
}

//! Plain-text edge-list serialization.
//!
//! Format: a header line `n m`, then one `u v` line per edge.
//!
//! - Blank lines, and lines starting with `#`, are skipped.
//! - The header and each edge line contribute their first two
//!   integers; further tokens on the line are ignored.
//! - The header's `n` must fit the `u32` node ids (`n ≤ 2³²`).
//! - The document needs at least `m` edge lines. Surplus lines are
//!   edges too, and repeated edges collapse.
//! - Every edge names two distinct nodes below `n`.
//!
//! [`EdgeList`] is the one reader of this format.
//! [`from_edge_list`] materializes it and
//! [`crate::disk::stream_to_disk`] streams it, so both ingest routes
//! accept the same documents, build the same graph and report the same
//! error.

use std::fmt::Write as _;
use std::str::FromStr;

use crate::{Graph, GraphBuilder, GraphError};

/// Error parsing an edge-list document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseGraphError {
    /// The header line was missing or malformed.
    BadHeader,
    /// An edge line did not contain two integers.
    BadEdgeLine {
        /// 1-based line number.
        line: usize,
    },
    /// The edges were structurally invalid.
    Graph(GraphError),
    /// Fewer edge lines than the header promised.
    MissingEdges {
        /// Number promised by the header.
        expected: usize,
        /// Number actually present.
        found: usize,
    },
}

impl std::fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseGraphError::BadHeader => write!(f, "missing or malformed `n m` header"),
            ParseGraphError::BadEdgeLine { line } => write!(f, "malformed edge on line {line}"),
            ParseGraphError::Graph(e) => write!(f, "invalid edge: {e}"),
            ParseGraphError::MissingEdges { expected, found } => {
                write!(f, "expected {expected} edges, found {found}")
            }
        }
    }
}

impl std::error::Error for ParseGraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseGraphError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ParseGraphError {
    fn from(e: GraphError) -> Self {
        ParseGraphError::Graph(e)
    }
}

/// Serializes `g` as an edge-list document.
pub fn to_edge_list(g: &Graph) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{} {}", g.n(), g.m());
    for (u, v) in g.edges() {
        let _ = writeln!(s, "{} {}", u.index(), v.index());
    }
    s
}

/// An edge-list document whose header has been read; its edge lines
/// are read on each [`for_each_edge`](Self::for_each_edge) pass, straight
/// from the text.
#[derive(Debug, Clone, Copy)]
pub struct EdgeList<'a> {
    text: &'a str,
    n: usize,
    m: usize,
}

impl<'a> EdgeList<'a> {
    /// Reads the header of `text` (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// [`ParseGraphError::BadHeader`] when the header is missing, lacks
    /// two integers, or declares more than 2³² nodes.
    pub fn parse(text: &'a str) -> Result<Self, ParseGraphError> {
        let (_, header) = content_lines(text)
            .next()
            .ok_or(ParseGraphError::BadHeader)?;
        let (n, m) = leading_pair(header)
            .filter(|&(n, _)| n as u64 <= crate::graph::MAX_NODES)
            .ok_or(ParseGraphError::BadHeader)?;
        Ok(EdgeList { text, n, m })
    }

    /// Number of nodes the header declares.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Passes each edge line's pair to `emit` in document order, then
    /// checks that there were at least as many as the header declares.
    /// `emit` checks the endpoints, as [`GraphBuilder::add_edge`] does.
    ///
    /// # Errors
    ///
    /// [`ParseGraphError::BadEdgeLine`] or
    /// [`ParseGraphError::MissingEdges`], or the first error of `emit`.
    pub fn for_each_edge<E: From<ParseGraphError>>(
        &self,
        mut emit: impl FnMut(usize, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut found = 0usize;
        for (line, l) in content_lines(self.text).skip(1) {
            let (u, v) = leading_pair(l).ok_or(ParseGraphError::BadEdgeLine { line })?;
            emit(u, v)?;
            found += 1;
        }
        if found < self.m {
            return Err(ParseGraphError::MissingEdges {
                expected: self.m,
                found,
            }
            .into());
        }
        Ok(())
    }
}

/// The header and edge lines, with their 1-based line numbers.
fn content_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
}

/// The first two whitespace-separated tokens of `line`, as integers.
fn leading_pair(line: &str) -> Option<(usize, usize)> {
    let mut it = line.split_whitespace().map(usize::from_str);
    Some((it.next()?.ok()?, it.next()?.ok()?))
}

/// Parses an edge-list document produced by [`to_edge_list`] (or by hand).
///
/// # Errors
///
/// Returns [`ParseGraphError`] on malformed input.
pub fn from_edge_list(text: &str) -> Result<Graph, ParseGraphError> {
    let list = EdgeList::parse(text)?;
    let mut b = GraphBuilder::new(list.n());
    list.for_each_edge(|u, v| b.add_edge(u, v).map_err(ParseGraphError::Graph))?;
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let text = to_edge_list(&g);
        let h = from_edge_list(&text).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let g = from_edge_list("# a comment\n\n3 2\n0 1\n# another\n1 2\n").unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn bad_header() {
        assert_eq!(from_edge_list(""), Err(ParseGraphError::BadHeader));
        assert_eq!(from_edge_list("x y\n"), Err(ParseGraphError::BadHeader));
    }

    #[test]
    fn bad_edge_line() {
        let e = from_edge_list("2 1\n0 x\n").unwrap_err();
        assert_eq!(e, ParseGraphError::BadEdgeLine { line: 2 });
    }

    #[test]
    fn missing_edges() {
        let e = from_edge_list("3 2\n0 1\n").unwrap_err();
        assert_eq!(
            e,
            ParseGraphError::MissingEdges {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn invalid_edge_propagates() {
        let e = from_edge_list("2 1\n0 5\n").unwrap_err();
        assert!(matches!(e, ParseGraphError::Graph(_)));
        assert!(e.to_string().contains("invalid edge"));
    }
}

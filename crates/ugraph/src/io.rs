//! Plain-text serialization of uncertain graphs.
//!
//! Format (whitespace-separated, `#`-prefixed comment lines allowed):
//!
//! ```text
//! # optional comments
//! n m
//! <node_id> <self_risk>          (n lines)
//! <source> <target> <diffusion>  (m lines)
//! ```
//!
//! Node lines may appear in any order but each of `0..n` must appear
//! exactly once.

use crate::builder::{DuplicateEdgePolicy, GraphBuilder};
use crate::error::{GraphError, Result};
use crate::graph::UncertainGraph;
use crate::ids::NodeId;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

fn parse_err(line: usize, message: impl Into<String>) -> GraphError {
    GraphError::Parse { line, message: message.into() }
}

/// Reads a graph in the crate's text format from any buffered reader.
pub fn read_graph<R: BufRead>(reader: R) -> Result<UncertainGraph> {
    let mut lines = reader.lines().enumerate().map(|(i, l)| (i + 1, l)).filter(|(_, l)| match l {
        Ok(s) => {
            let t = s.trim();
            !t.is_empty() && !t.starts_with('#')
        }
        Err(_) => true,
    });

    let (lineno, header) = lines.next().ok_or_else(|| parse_err(0, "missing header"))?;
    let header = header?;
    let mut it = header.split_whitespace();
    let n: usize = it
        .next()
        .ok_or_else(|| parse_err(lineno, "missing node count"))?
        .parse()
        .map_err(|_| parse_err(lineno, "node count is not an integer"))?;
    let m: usize = it
        .next()
        .ok_or_else(|| parse_err(lineno, "missing edge count"))?
        .parse()
        .map_err(|_| parse_err(lineno, "edge count is not an integer"))?;
    if it.next().is_some() {
        return Err(parse_err(lineno, "trailing tokens in header"));
    }
    // Node and edge ids are u32, so larger counts describe no graph.
    if n > u32::MAX as usize || m > u32::MAX as usize {
        return Err(parse_err(lineno, format!("counts n = {n}, m = {m} exceed the u32 id range")));
    }

    // Collect the node section before allocating anything sized by `n`:
    // memory follows the lines actually read, so a header cannot make
    // the loader reserve more than the file holds.
    let mut nodes = Vec::new();
    for _ in 0..n {
        let (lineno, line) =
            lines.next().ok_or_else(|| parse_err(0, "unexpected EOF in node section"))?;
        let line = line?;
        let mut it = line.split_whitespace();
        let id: u32 = it
            .next()
            .ok_or_else(|| parse_err(lineno, "missing node id"))?
            .parse()
            .map_err(|_| parse_err(lineno, "node id is not an integer"))?;
        let ps: f64 = it
            .next()
            .ok_or_else(|| parse_err(lineno, "missing self-risk"))?
            .parse()
            .map_err(|_| parse_err(lineno, "self-risk is not a number"))?;
        if it.next().is_some() {
            return Err(parse_err(lineno, "trailing tokens in node line"));
        }
        if (id as usize) >= n {
            return Err(parse_err(lineno, format!("node id {id} >= n = {n}")));
        }
        nodes.push((lineno, id, ps));
    }
    let mut builder = GraphBuilder::new(n);
    let mut seen = vec![false; n];
    for (lineno, id, ps) in nodes {
        if seen[id as usize] {
            return Err(parse_err(lineno, format!("node id {id} repeated")));
        }
        seen[id as usize] = true;
        builder.set_self_risk(NodeId(id), ps).map_err(|e| parse_err(lineno, e.to_string()))?;
    }

    for _ in 0..m {
        let (lineno, line) =
            lines.next().ok_or_else(|| parse_err(0, "unexpected EOF in edge section"))?;
        let line = line?;
        let mut it = line.split_whitespace();
        let u: u32 = it
            .next()
            .ok_or_else(|| parse_err(lineno, "missing edge source"))?
            .parse()
            .map_err(|_| parse_err(lineno, "edge source is not an integer"))?;
        let v: u32 = it
            .next()
            .ok_or_else(|| parse_err(lineno, "missing edge target"))?
            .parse()
            .map_err(|_| parse_err(lineno, "edge target is not an integer"))?;
        let p: f64 = it
            .next()
            .ok_or_else(|| parse_err(lineno, "missing edge probability"))?
            .parse()
            .map_err(|_| parse_err(lineno, "edge probability is not a number"))?;
        if it.next().is_some() {
            return Err(parse_err(lineno, "trailing tokens in edge line"));
        }
        builder.add_edge(NodeId(u), NodeId(v), p).map_err(|e| parse_err(lineno, e.to_string()))?;
    }

    if let Some((lineno, _)) = lines.next() {
        return Err(parse_err(lineno, "trailing content after edge section"));
    }
    builder.build()
}

/// Writes a graph in the crate's text format.
pub fn write_graph<W: Write>(g: &UncertainGraph, mut writer: W) -> Result<()> {
    writeln!(writer, "# vulnds uncertain graph v1")?;
    writeln!(writer, "{} {}", g.num_nodes(), g.num_edges())?;
    for v in g.nodes() {
        writeln!(writer, "{} {}", v.0, g.self_risk(v))?;
    }
    for e in g.edges() {
        let (u, v) = g.edge_endpoints(e);
        writeln!(writer, "{} {} {}", u.0, v.0, g.edge_prob(e))?;
    }
    Ok(())
}

/// Loads a graph from a file path.
pub fn load_from_path(path: impl AsRef<Path>) -> Result<UncertainGraph> {
    let file = std::fs::File::open(path)?;
    read_graph(BufReader::new(file))
}

/// Saves a graph to a file path, overwriting any existing file.
pub fn save_to_path(g: &UncertainGraph, path: impl AsRef<Path>) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_graph(g, std::io::BufWriter::new(file))
}

/// Reads a bare `u v` edge list (e.g. a SNAP download) and assigns every
/// node self-risk `default_self_risk` and every edge probability
/// `default_edge_prob`. Node ids are compacted to `0..n` in first-seen
/// order. Duplicate edges are merged with [`DuplicateEdgePolicy::KeepMax`].
pub fn read_edge_list<R: BufRead>(
    reader: R,
    default_self_risk: f64,
    default_edge_prob: f64,
) -> Result<UncertainGraph> {
    let mut remap: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let lineno = i + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let u: u64 = it
            .next()
            .ok_or_else(|| parse_err(lineno, "missing source"))?
            .parse()
            .map_err(|_| parse_err(lineno, "source is not an integer"))?;
        let v: u64 = it
            .next()
            .ok_or_else(|| parse_err(lineno, "missing target"))?
            .parse()
            .map_err(|_| parse_err(lineno, "target is not an integer"))?;
        let next_id = remap.len() as u32;
        let iu = *remap.entry(u).or_insert(next_id);
        let next_id = remap.len() as u32;
        let iv = *remap.entry(v).or_insert(next_id);
        if iu != iv {
            edges.push((iu, iv));
        }
    }
    let n = remap.len();
    let mut b = GraphBuilder::new(n).with_duplicate_policy(DuplicateEdgePolicy::KeepMax);
    for v in 0..n as u32 {
        b.set_self_risk(NodeId(v), default_self_risk)?;
    }
    for (u, v) in edges {
        b.add_edge(NodeId(u), NodeId(v), default_edge_prob)?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_parts;

    fn sample() -> UncertainGraph {
        from_parts(
            &[0.1, 0.2, 0.3],
            &[(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.75)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_through_text() {
        let g = sample();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn roundtrip_through_file() {
        let g = sample();
        let dir = std::env::temp_dir().join("ugraph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        save_to_path(&g, &path).unwrap();
        let g2 = load_from_path(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# header comment\n\n3 1\n0 0.1\n# node comment\n1 0.2\n2 0.3\n\n0 1 0.5\n";
        let g = read_graph(std::io::Cursor::new(text)).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn node_lines_in_any_order() {
        let text = "3 0\n2 0.3\n0 0.1\n1 0.2\n";
        let g = read_graph(std::io::Cursor::new(text)).unwrap();
        assert_eq!(g.self_risk(NodeId(2)), 0.3);
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in [
            "",                             // no header
            "2\n",                          // missing edge count
            "2 0\n0 0.1\n",                 // missing node line
            "1 0\n0 0.1 extra\n",           // trailing token
            "1 0\n0 nope\n",                // bad float
            "2 0\n0 0.1\n0 0.2\n",          // duplicate node id
            "2 0\n0 0.1\n5 0.2\n",          // node id out of range
            "2 1\n0 0.1\n1 0.2\n0 1 2.0\n", // probability out of range
            "1 0\n0 0.1\nleftover\n",       // trailing content
            "4611686018427387904 0",        // n past the u32 id range
            "0 4611686018427387904",        // m past the u32 id range
            "4294967295 0",                 // a u32::MAX header with no body
        ] {
            assert!(read_graph(std::io::Cursor::new(bad)).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn parse_error_reports_line_number() {
        let text = "2 1\n0 0.1\n1 0.2\n0 1 notafloat\n";
        match read_graph(std::io::Cursor::new(text)) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn edge_list_import_compacts_ids() {
        let text = "# snap style\n100 200\n200 300\n100 300\n100 100\n";
        let g = read_edge_list(std::io::Cursor::new(text), 0.1, 0.2).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3); // self-loop dropped
        assert_eq!(g.self_risk(NodeId(0)), 0.1);
    }

    #[test]
    fn edge_list_merges_duplicates() {
        let text = "1 2\n1 2\n";
        let g = read_edge_list(std::io::Cursor::new(text), 0.0, 0.5).unwrap();
        assert_eq!(g.num_edges(), 1);
    }
}

//! Compact binary serialization — for large graphs where text parsing
//! dominates load time (the paper's P2P graph is 4 MB as text, loads
//! ~10× faster in the binary form).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   [u8; 8]  = b"VULNDSG1"
//! n       u64
//! m       u64
//! risks   n × f64
//! sources m × u32     (canonical edge order)
//! targets m × u32
//! probs   m × f64
//! version u8       = 2            (format revision, v2 trailer)
//! crc32   u32 LE                  (over every preceding byte)
//! ```
//!
//! The 5-byte trailer was added in format revision 2 so corrupt or
//! torn snapshot files are rejected instead of silently loading
//! garbage — a prerequisite for WAL compaction, where a snapshot
//! written during a crash window must be detectably incomplete.
//! Readers still accept trailer-less v1 files; any other trailing
//! length is an error.

use crate::builder::{DuplicateEdgePolicy, GraphBuilder};
use crate::crc32::Crc32;
use crate::error::{GraphError, Result};
use crate::graph::UncertainGraph;
use crate::ids::NodeId;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"VULNDSG1";

/// Current format revision, written in the trailer's version byte.
pub const BINARY_FORMAT_VERSION: u8 = 2;

/// Trailer length in bytes: version byte + CRC-32.
const TRAILER_LEN: usize = 5;

fn bad(message: impl Into<String>) -> GraphError {
    GraphError::Parse { line: 0, message: message.into() }
}

/// A writer shim that folds every written byte into a CRC-32.
struct ChecksumWriter<W: Write> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> ChecksumWriter<W> {
    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.crc.update(bytes);
        self.inner.write_all(bytes)
    }
}

/// Writes the binary form (current revision, with the v2 trailer).
pub fn write_binary<W: Write>(g: &UncertainGraph, w: W) -> Result<()> {
    let mut w = ChecksumWriter { inner: w, crc: Crc32::new() };
    w.write_all(MAGIC)?;
    w.write_all(&(g.num_nodes() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    for v in g.nodes() {
        w.write_all(&g.self_risk(v).to_le_bytes())?;
    }
    for e in g.edges() {
        let (u, _) = g.edge_endpoints(e);
        w.write_all(&u.0.to_le_bytes())?;
    }
    for e in g.edges() {
        let (_, v) = g.edge_endpoints(e);
        w.write_all(&v.0.to_le_bytes())?;
    }
    for e in g.edges() {
        w.write_all(&g.edge_prob(e).to_le_bytes())?;
    }
    w.write_all(&[BINARY_FORMAT_VERSION])?;
    let crc = w.crc.finish();
    w.inner.write_all(&crc.to_le_bytes())?;
    Ok(())
}

/// A reader shim that folds every read byte into a CRC-32.
struct ChecksumReader<R: Read> {
    inner: R,
    crc: Crc32,
}

impl<R: Read> ChecksumReader<R> {
    fn read_exact(&mut self, buf: &mut [u8]) -> std::io::Result<()> {
        self.inner.read_exact(buf)?;
        self.crc.update(buf);
        Ok(())
    }
}

/// Reads the binary form, validating magic, counts, probabilities, and
/// — for revision-2 files — the trailing checksum. Trailer-less v1
/// files are still accepted; any other trailing length is an error.
pub fn read_binary<R: Read>(r: R) -> Result<UncertainGraph> {
    let mut r = ChecksumReader { inner: r, crc: Crc32::new() };
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("bad magic: not a vulnds binary graph"));
    }
    let n = read_u64(&mut r)?;
    let m = read_u64(&mut r)?;
    // Node and edge ids are u32, so larger counts describe no graph.
    if n > u64::from(u32::MAX) || m > u64::from(u32::MAX) {
        return Err(bad(format!("implausible header: n = {n}, m = {m}")));
    }

    // Every buffer grows with the bytes actually read, never from the
    // header alone: a short file fails at EOF before anything sized by
    // `n` or `m` is reserved.
    let mut risks = Vec::new();
    for _ in 0..n {
        risks.push(read_f64(&mut r)?);
    }
    let mut b = GraphBuilder::new(risks.len()).with_duplicate_policy(DuplicateEdgePolicy::Error);
    for (v, ps) in (0..).zip(risks) {
        b.set_self_risk(NodeId(v), ps).map_err(|e| bad(e.to_string()))?;
    }
    let mut sources = Vec::new();
    for _ in 0..m {
        sources.push(read_u32(&mut r)?);
    }
    let mut targets = Vec::new();
    for _ in 0..m {
        targets.push(read_u32(&mut r)?);
    }
    for (u, v) in sources.into_iter().zip(targets) {
        let p = read_f64(&mut r)?;
        b.add_edge(NodeId(u), NodeId(v), p).map_err(|e| bad(e.to_string()))?;
    }
    // Everything after the edge section must be absent (legacy v1) or
    // exactly the 5-byte trailer. Read up to one byte more than the
    // trailer so concatenated files are caught too.
    let mut tail = [0u8; TRAILER_LEN + 1];
    let mut got = 0;
    loop {
        let k = r.inner.read(&mut tail[got..])?;
        if k == 0 {
            break;
        }
        got += k;
        if got == tail.len() {
            break;
        }
    }
    match got {
        0 => b.build(),
        TRAILER_LEN => {
            let version = tail[0];
            if version != BINARY_FORMAT_VERSION {
                return Err(bad(format!("unsupported binary format version {version}")));
            }
            r.crc.update(&tail[..1]);
            let stored = u32::from_le_bytes([tail[1], tail[2], tail[3], tail[4]]);
            if r.crc.finish() != stored {
                return Err(bad("checksum mismatch: snapshot is corrupt or truncated"));
            }
            b.build()
        }
        _ => Err(bad("trailing bytes after edge section")),
    }
}

/// Saves to a file path in binary form.
pub fn save_binary(g: &UncertainGraph, path: impl AsRef<Path>) -> Result<()> {
    let f = std::fs::File::create(path)?;
    write_binary(g, std::io::BufWriter::new(f))
}

/// Loads from a file path in binary form.
pub fn load_binary(path: impl AsRef<Path>) -> Result<UncertainGraph> {
    let f = std::fs::File::open(path)?;
    read_binary(std::io::BufReader::new(f))
}

fn read_u64<R: Read>(r: &mut ChecksumReader<R>) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_u32<R: Read>(r: &mut ChecksumReader<R>) -> Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_f64<R: Read>(r: &mut ChecksumReader<R>) -> Result<f64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_le_bytes(buf))
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
    fn roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn roundtrip_empty_graph() {
        let g = UncertainGraph::builder(0).build().unwrap();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(std::io::Cursor::new(buf)).unwrap(), g);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_binary(std::io::Cursor::new(b"NOTAMAGC".to_vec())).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn rejects_truncation() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        for cut in [9, 20, buf.len() - 1] {
            assert!(
                read_binary(std::io::Cursor::new(buf[..cut].to_vec())).is_err(),
                "accepted truncation at {cut}"
            );
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.push(0xFF);
        let err = read_binary(std::io::Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_corrupted_probability() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Overwrite the last f64 (an edge probability) with 7.0.
        let last = buf.len() - TRAILER_LEN - 8;
        buf[last..last + 8].copy_from_slice(&7.0f64.to_le_bytes());
        assert!(read_binary(std::io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn checksum_catches_silent_bit_rot() {
        let g = sample();
        let mut clean = Vec::new();
        write_binary(&g, &mut clean).unwrap();
        // Flip the lowest mantissa bit of the first self-risk: still a
        // perfectly valid probability, only the CRC can catch it.
        let mut buf = clean.clone();
        buf[24] ^= 1;
        let err = read_binary(std::io::Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        assert!(matches!(err, GraphError::Parse { line: 0, .. }));
        // A corrupted stored CRC is caught the same way.
        let mut buf = clean;
        let last = buf.len() - 1;
        buf[last] ^= 0x80;
        assert!(read_binary(std::io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn accepts_legacy_v1_files_without_trailer() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - TRAILER_LEN);
        assert_eq!(read_binary(std::io::Cursor::new(buf)).unwrap(), g);
    }

    #[test]
    fn rejects_unknown_format_version() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let version_at = buf.len() - TRAILER_LEN;
        buf[version_at] = 9;
        let err = read_binary(std::io::Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    fn header(n: u64, m: u64) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&m.to_le_bytes());
        buf
    }

    #[test]
    fn rejects_implausible_header() {
        // Ids are u32: larger counts are refused before any body byte.
        for (n, m) in [(u64::MAX, 0), ((1 << 32) + 1, 0), (0, (1 << 32) + 1), (0, 1 << 35)] {
            let mut buf = header(n, m);
            buf.extend_from_slice(&[0; 5]);
            let err = read_binary(std::io::Cursor::new(buf)).unwrap_err();
            assert!(err.to_string().contains("implausible"), "{err}");
        }
    }

    #[test]
    fn huge_counts_with_a_short_body_fail_at_eof() {
        // Headers the u32 cap lets through must still fail on the bytes,
        // not by reserving 2^32 slots up front.
        for (n, m) in [(0, u64::from(u32::MAX)), (u64::from(u32::MAX), 0), (1, 1 << 31)] {
            let mut buf = header(n, m);
            buf.extend_from_slice(&0.5f64.to_le_bytes());
            buf.extend_from_slice(&[0; 6]);
            let err = read_binary(std::io::Cursor::new(buf)).unwrap_err();
            assert!(matches!(err, GraphError::Io(_)), "n = {n}, m = {m}: {err}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let g = sample();
        let dir = std::env::temp_dir().join("ugraph_bin_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        save_binary(&g, &path).unwrap();
        assert_eq!(load_binary(&path).unwrap(), g);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn binary_is_smaller_than_text_for_large_graphs() {
        let edges: Vec<(u32, u32, f64)> = (0..999u32).map(|v| (v, v + 1, 0.123456789)).collect();
        let g = from_parts(&vec![0.5; 1000], &edges, DuplicateEdgePolicy::Error).unwrap();
        let mut bin = Vec::new();
        write_binary(&g, &mut bin).unwrap();
        let mut txt = Vec::new();
        crate::io::write_graph(&g, &mut txt).unwrap();
        assert!(bin.len() < txt.len(), "binary {} !< text {}", bin.len(), txt.len());
    }
}

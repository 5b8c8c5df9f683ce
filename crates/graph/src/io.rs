//! Graph serialization: edge-list text, adjacency-graph text, and a
//! compact binary format.
//!
//! * **Edge list** — one `u v` pair per line, `#`-prefixed comments;
//!   the interchange format of SNAP and most graph repositories. The
//!   reader streams through [`StreamBuilder`] in bounded shards and
//!   understands SNAP `# Nodes: n Edges: m` and KONECT `% m n1 n2`
//!   header hints.
//! * **Adjacency graph** — the Ligra/GBBS `AdjacencyGraph` text format
//!   (header, n, m, offsets, edges), so graphs generated here can be fed
//!   to the original GBBS/Julienne binaries and vice versa.
//! * **`KCOREGR1` binary** — a little-endian dump of the plain CSR
//!   arrays: a 24-byte header, then `u64` offsets and `u32` edges.
//!
//! File bytes are untrusted: every reader returns an `InvalidData` (or
//! `UnexpectedEof`) error instead of a graph that breaks the
//! [`CsrGraph`] invariants.

use crate::builder::StreamBuilder;
use crate::csr::{CsrGraph, VertexId};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const BINARY_MAGIC: &[u8; 8] = b"KCOREGR1";

/// Writes `g` as an edge list (`u v` per line, each undirected edge once).
pub fn write_edge_list<W: Write>(g: &CsrGraph, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "# undirected graph: {} vertices, {} edges", g.num_vertices(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Parses SNAP (`# Nodes: n Edges: m`) and KONECT (`% m n1 n2`) comment
/// headers for a vertex-count hint; returns `None` for ordinary
/// comments.
fn header_vertex_hint(comment: &str) -> Option<usize> {
    let body = comment.trim_start_matches(['#', '%']).trim();
    if comment.starts_with('#') {
        // SNAP: "... Nodes: 75879 Edges: 508837 ..."
        let mut it = body.split_whitespace();
        while let Some(tok) = it.next() {
            if tok.eq_ignore_ascii_case("nodes:") {
                return it.next()?.parse().ok();
            }
        }
        None
    } else {
        // KONECT size line: "% m n1 n2" (edge count, then the two
        // dimension sizes; for undirected graphs both are n).
        let nums: Vec<usize> =
            body.split_whitespace().map(str::parse).collect::<Result<_, _>>().ok()?;
        match nums[..] {
            [_m, n1, n2] => Some(n1.max(n2)),
            _ => None,
        }
    }
}

/// Reads an edge list, streaming through [`StreamBuilder`] in bounded
/// shards — peak transient memory is one shard, not the whole arc list.
///
/// Lines starting with `#` or `%` are comments; SNAP `# Nodes: n` and
/// KONECT `% m n1 n2` headers pre-size the vertex count. Blank lines
/// are skipped. `n` is inferred as `max id + 1` unless the header hint
/// or `min_vertices` is larger.
pub fn read_edge_list<R: Read>(r: R, min_vertices: usize) -> io::Result<CsrGraph> {
    let r = BufReader::new(r);
    let mut b = StreamBuilder::growable();
    b.reserve_vertices(min_vertices);
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if t.starts_with('#') || t.starts_with('%') {
            if let Some(n) = header_vertex_hint(t) {
                if n > VertexId::MAX as usize {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("header at line {} declares {n} vertices", lineno + 1),
                    ));
                }
                b.reserve_vertices(n);
            }
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |s: Option<&str>| -> io::Result<VertexId> {
            s.and_then(|x| x.parse().ok()).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed edge at line {}", lineno + 1),
                )
            })
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        b.push_edge(u, v);
    }
    Ok(b.build())
}

/// Writes `g` in the Ligra/GBBS `AdjacencyGraph` text format.
pub fn write_adjacency_graph<W: Write>(g: &CsrGraph, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "AdjacencyGraph")?;
    writeln!(w, "{}", g.num_vertices())?;
    writeln!(w, "{}", g.num_arcs())?;
    let mut offset = 0usize;
    for v in g.vertices() {
        writeln!(w, "{offset}")?;
        offset += g.degree(v);
    }
    for v in g.vertices() {
        for &u in g.neighbors(v) {
            writeln!(w, "{u}")?;
        }
    }
    w.flush()
}

/// Reads the Ligra/GBBS `AdjacencyGraph` text format.
pub fn read_adjacency_graph<R: Read>(r: R) -> io::Result<CsrGraph> {
    let r = BufReader::new(r);
    let mut tokens = Vec::new();
    for line in r.lines() {
        let line = line?;
        let t = line.trim();
        if !t.is_empty() {
            tokens.push(t.to_string());
        }
    }
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if tokens.first().map(String::as_str) != Some("AdjacencyGraph") {
        return Err(bad("missing AdjacencyGraph header"));
    }
    let n: usize = tokens.get(1).and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad n"))?;
    let m: usize = tokens.get(2).and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad m"))?;
    if n.checked_add(m).and_then(|x| x.checked_add(3)) != Some(tokens.len()) {
        return Err(bad("token count mismatch"));
    }
    let mut offsets = Vec::with_capacity(n + 1);
    for t in &tokens[3..3 + n] {
        offsets.push(t.parse::<usize>().map_err(|_| bad("bad offset"))?);
    }
    offsets.push(m);
    let mut edges = Vec::with_capacity(m);
    for t in &tokens[3 + n..] {
        edges.push(t.parse::<VertexId>().map_err(|_| bad("bad edge"))?);
    }
    CsrGraph::try_from_parts(offsets, edges).map_err(|e| bad(&e))
}

/// Writes `g` in the compact binary format: `KCOREGR1` magic, u64 n and
/// m, (n+1) u64 offsets, m u32 edges; little-endian.
pub fn write_binary<W: Write>(g: &CsrGraph, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_arcs() as u64).to_le_bytes())?;
    let mut off = 0u64;
    for v in g.vertices() {
        w.write_all(&off.to_le_bytes())?;
        off += g.degree(v) as u64;
    }
    w.write_all(&off.to_le_bytes())?;
    for v in g.vertices() {
        for &u in g.neighbors(v) {
            w.write_all(&u.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Reads the compact binary format written by [`write_binary`].
pub fn read_binary<R: Read>(r: R) -> io::Result<CsrGraph> {
    let mut r = BufReader::new(r);
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(bad("bad magic"));
    }
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b8)?;
    let n = u64::from_le_bytes(b8);
    r.read_exact(&mut b8)?;
    let m = u64::from_le_bytes(b8);
    // The header is untrusted: the arrays grow as the bytes arrive, so
    // a short file claiming a huge graph fails at its end instead of
    // reserving what it claims.
    let mut offsets = Vec::new();
    for _ in 0..=n {
        r.read_exact(&mut b8)?;
        offsets.push(u64::from_le_bytes(b8) as usize);
    }
    let mut edges = Vec::new();
    let mut b4 = [0u8; 4];
    for _ in 0..m {
        r.read_exact(&mut b4)?;
        edges.push(VertexId::from_le_bytes(b4));
    }
    CsrGraph::try_from_parts(offsets, edges).map_err(|e| bad(&e))
}

/// Convenience: writes the binary format to a file path.
pub fn save_binary<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    write_binary(g, std::fs::File::create(path)?)
}

/// Convenience: reads the binary format from a file path.
pub fn load_binary<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    read_binary(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn sample() -> CsrGraph {
        gen::mesh(7, 9)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("kcore_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn edge_list_round_trip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..], g.num_vertices()).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn edge_list_reader_handles_comments_and_blanks() {
        let text = "# comment\n\n0 1\n% another comment\n1 2\n";
        let g = read_edge_list(text.as_bytes(), 0).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_reader_rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes(), 0).is_err());
        assert!(read_edge_list("0\n".as_bytes(), 0).is_err());
    }

    #[test]
    fn edge_list_snap_header_sizes_vertices() {
        // SNAP-style header declares more vertices than the edges touch.
        let text = "# Directed graph (each unordered pair of nodes is saved once)\n\
                    # Nodes: 7 Edges: 2\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes(), 0).unwrap();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_konect_header_sizes_vertices() {
        let text = "% sym unweighted\n% 2 6 6\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes(), 0).unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_rejects_headers_beyond_the_id_space() {
        for text in ["# Nodes: 5000000000 Edges: 1\n0 1\n", "% 1 5000000000 5000000000\n0 1\n"] {
            let err = read_edge_list(text.as_bytes(), 0).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}");
        }
    }

    #[test]
    fn adjacency_graph_round_trip() {
        let g = sample();
        let mut buf = Vec::new();
        write_adjacency_graph(&g, &mut buf).unwrap();
        let h = read_adjacency_graph(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn adjacency_graph_rejects_bad_header() {
        assert!(read_adjacency_graph("NotAGraph\n1\n0\n0\n".as_bytes()).is_err());
    }

    #[test]
    fn adjacency_graph_rejects_malformed_arrays() {
        for (text, why) in [
            ("AdjacencyGraph\n2\n1\n0\n1\n1\n", "symmetric"),
            ("AdjacencyGraph\n3\n2\n0\n5\n2\n1\n0\n", "non-decreasing"),
            ("AdjacencyGraph\n1\n1\n0\n0\n", "self-loop"),
            ("AdjacencyGraph\n18446744073709551615\n1\n", "token count"),
        ] {
            let err = read_adjacency_graph(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}");
            assert!(err.to_string().contains(why), "{text:?}: {err}");
        }
    }

    #[test]
    fn binary_round_trip() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let h = read_binary(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn binary_rejects_truncation_without_trusting_the_header() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        let err = read_binary(&buf[..buf.len() - 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // A bare header claiming 2^40 vertices must fail on the missing
        // offsets, not try to reserve them.
        let mut huge = BINARY_MAGIC.to_vec();
        huge.extend((1u64 << 40).to_le_bytes());
        huge.extend(0u64.to_le_bytes());
        let err = read_binary(&huge[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn binary_rejects_malformed_arrays() {
        // Path 0-1-2: offsets 0/1/3/4 from byte 24, edges 1/0/2/1 from
        // byte 56. Push vertex 1's offset past vertex 2's, or move
        // vertex 2's neighbor out of range (still increasing, so only
        // the range check catches it).
        let mut good = Vec::new();
        write_binary(&gen::path(3), &mut good).unwrap();
        let path = temp_path("malformed.bin");
        for (at, bytes, why) in [
            (32, 4u64.to_le_bytes().to_vec(), "non-decreasing"),
            (68, 1000u32.to_le_bytes().to_vec(), "out of range"),
        ] {
            let mut buf = good.clone();
            buf[at..at + bytes.len()].copy_from_slice(&bytes);
            std::fs::write(&path, &buf).unwrap();
            let err = load_binary(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(why), "{err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn binary_file_round_trip() {
        let g = sample();
        let path = temp_path("mesh.bin");
        save_binary(&g, &path).unwrap();
        let h = load_binary(&path).unwrap();
        assert_eq!(g, h);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn binary_layout_is_pinned() {
        // Files written by earlier builds must keep loading: path 0-1-2
        // is the magic, n = 3 and m = 4 as u64, offsets 0/1/3/4 as u64,
        // then edges 1/0/2/1 as u32, all little-endian.
        let mut expected = b"KCOREGR1".to_vec();
        for x in [3u64, 4, 0, 1, 3, 4] {
            expected.extend(x.to_le_bytes());
        }
        for e in [1u32, 0, 2, 1] {
            expected.extend(e.to_le_bytes());
        }
        let mut buf = Vec::new();
        write_binary(&gen::path(3), &mut buf).unwrap();
        assert_eq!(buf, expected);
    }

    /// Feeds `read` every single-byte mutation of `bytes` (each position
    /// XORed with 0x01, 0x80 and 0xFF) and every truncation of it; each
    /// must come back as an error or as a graph that passes
    /// [`CsrGraph::validate`].
    fn assert_mutants_fail_or_validate(bytes: &[u8], read: impl Fn(&[u8]) -> io::Result<CsrGraph>) {
        let check = |input: &[u8], what: &str| {
            if let Ok(g) = read(input) {
                if let Err(e) = g.check() {
                    panic!("{what} read as an invalid graph: {e}");
                }
            }
        };
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut mutant = bytes.to_vec();
                mutant[i] ^= mask;
                check(&mutant, &format!("byte {i} ^ {mask:#04x}"));
            }
        }
        for len in 0..bytes.len() {
            check(&bytes[..len], &format!("truncation to {len} bytes"));
        }
    }

    #[test]
    fn binary_mutants_fail_or_validate() {
        let mut buf = Vec::new();
        write_binary(&gen::mesh(3, 3), &mut buf).unwrap();
        assert_mutants_fail_or_validate(&buf, |b| read_binary(b));
    }

    #[test]
    fn adjacency_graph_mutants_fail_or_validate() {
        let mut buf = Vec::new();
        write_adjacency_graph(&gen::mesh(3, 3), &mut buf).unwrap();
        assert_mutants_fail_or_validate(&buf, |b| read_adjacency_graph(b));
    }

    /// The edge list carries no `Nodes:` header and its ids have one
    /// digit, so no single-byte mutation reaches the reader's header
    /// hint, which reserves whatever vertex count a header declares up
    /// to the id space; this test does not cover that allocation.
    #[test]
    fn edge_list_mutants_fail_or_validate() {
        let mut buf = Vec::new();
        write_edge_list(&gen::mesh(3, 3), &mut buf).unwrap();
        assert_mutants_fail_or_validate(&buf, |b| read_edge_list(b, 0));
    }
}

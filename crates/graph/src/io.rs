//! Graph serialization: edge-list text, adjacency-graph text, and a
//! binary format with zero-copy mmap loading.
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
//!   arrays. The layout is mmap-friendly: the 24-byte header leaves the
//!   `u64` offsets and `u32` edges on their natural alignment, so
//!   [`map_binary`] serves the file bytes directly as a [`CsrGraph`]
//!   with no decode or copy.

use crate::builder::StreamBuilder;
use crate::csr::{CsrGraph, VertexId};
use crate::mmap::{MmapRegion, RawSlice};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

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
/// m, (n+1) u64 offsets, m u32 edges; little-endian. The 24-byte header
/// keeps both arrays naturally aligned for [`map_binary`].
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

/// Memory-maps a `KCOREGR1` file as a zero-copy [`CsrGraph`].
///
/// The CSR arrays point straight into the read-only mapping: nothing is
/// decoded or copied, pages fault in lazily, and the OS can evict them
/// under pressure — datasets larger than RAM stay loadable. On targets
/// where the on-disk `u64` arrays cannot alias `usize` (non-64-bit or
/// big-endian) or without `mmap` (non-Unix), this transparently falls
/// back to the copying [`load_binary`].
pub fn map_binary<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    map_binary_impl(path.as_ref())
}

#[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
fn map_binary_impl(path: &Path) -> io::Result<CsrGraph> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let region = Arc::new(MmapRegion::map_file(&std::fs::File::open(path)?)?);
    let bytes = region.bytes();
    if bytes.len() < 24 || &bytes[..8] != BINARY_MAGIC {
        return Err(bad("bad magic"));
    }
    let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let m = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    // On-disk u64 aliases usize here (the cfg gate above); RawSlice
    // checks bounds and alignment, turning truncation into an error.
    let offsets = RawSlice::<usize>::from_bytes(bytes, 24, n + 1)
        .ok_or_else(|| bad("truncated offset section"))?;
    let edges = RawSlice::<VertexId>::from_bytes(bytes, 24 + 8 * (n + 1), m)
        .ok_or_else(|| bad("truncated edge section"))?;
    if offsets.as_slice().last() != Some(&m) {
        return Err(bad("offset/edge count mismatch"));
    }
    Ok(CsrGraph::from_mapped(region, offsets, edges))
}

#[cfg(not(all(unix, target_pointer_width = "64", target_endian = "little")))]
fn map_binary_impl(path: &Path) -> io::Result<CsrGraph> {
    load_binary(path)
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
        // Path 0-1-2 with vertex 1's offset pushed past vertex 2's.
        let g = gen::path(3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let offset_1 = 24 + 8;
        buf[offset_1..offset_1 + 8].copy_from_slice(&4u64.to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("non-decreasing"), "{err}");
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
    fn mapped_binary_equals_loaded() {
        let g = gen::barabasi_albert(400, 3, 9);
        let path = temp_path("mapped.bin");
        save_binary(&g, &path).unwrap();
        let mapped = map_binary(&path).unwrap();
        assert_eq!(mapped, g);
        #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
        assert!(mapped.is_mapped());
        mapped.validate();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapped_binary_rejects_truncation_and_bad_magic() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let full = temp_path("trunc_full.bin");
        std::fs::write(&full, &buf).unwrap();
        assert!(map_binary(&full).is_ok());

        let truncated = temp_path("trunc_cut.bin");
        std::fs::write(&truncated, &buf[..buf.len() - 3]).unwrap();
        assert!(map_binary(&truncated).is_err(), "truncated edge section must fail");

        let header_only = temp_path("trunc_header.bin");
        std::fs::write(&header_only, &buf[..10]).unwrap();
        assert!(map_binary(&header_only).is_err(), "truncated header must fail");

        let mut corrupt = buf.clone();
        corrupt[0] = b'X';
        let bad_magic = temp_path("trunc_magic.bin");
        std::fs::write(&bad_magic, &corrupt).unwrap();
        assert!(map_binary(&bad_magic).is_err(), "corrupt magic must fail");

        for p in [full, truncated, header_only, bad_magic] {
            let _ = std::fs::remove_file(p);
        }
    }
}

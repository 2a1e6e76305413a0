//! Integration coverage for the `.rfcg` binary CSR format.
//!
//! The unit tests in `disk.rs` pin the writer/spool contracts; these tests treat
//! the format as a black box across a spread of graph shapes: every fixture must
//! round-trip byte-deterministically through [`write_rfcg`] → [`DiskCsr`] →
//! [`DiskCsr::to_graph`] in both streaming and resident modes, the two open modes
//! must agree with the in-memory [`GraphStore`] view vertex by vertex, the header
//! must decode to the documented little-endian layout, and any structural damage
//! to the file — truncation at every section boundary, trailing garbage, magic /
//! version / length corruption — must surface as a clean [`RfcgError`] instead of
//! a bad graph.

use rfc_graph::disk::{write_rfcg, DiskCsr, RfcgError, RFCG_MAGIC, RFCG_VERSION};
use rfc_graph::store::GraphStore;
use rfc_graph::{fixtures, AttributedGraph, GraphBuilder, VertexId};

use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rfcg_format_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}_{name}", std::process::id()))
}

/// Graph shapes covering the structural corners of the format.
fn sample_graphs() -> Vec<(&'static str, AttributedGraph)> {
    let mut graphs = vec![
        ("fig1", fixtures::fig1_graph()),
        ("fig2", fixtures::fig2_graph()),
        ("balanced_clique_9", fixtures::balanced_clique(9)),
        (
            "two_cliques_bridge",
            fixtures::two_cliques_with_bridge(5, 4),
        ),
        ("path_7", fixtures::path_graph(7)),
        ("empty", GraphBuilder::new(0).build().unwrap()),
        ("isolated_only", GraphBuilder::new(5).build().unwrap()),
    ];
    // Isolated vertices interleaved with real adjacency: ids 0, 3 and 6 have
    // edges, the rest are padding that the offsets array must still cover.
    let mut b = GraphBuilder::new(7);
    b.add_edges([(0, 3), (3, 6), (0, 6)]);
    graphs.push(("sparse_with_isolated", b.build().unwrap()));
    graphs
}

#[test]
fn every_sample_round_trips_in_both_modes() {
    for (name, g) in sample_graphs() {
        let path = temp_path(&format!("rt_{name}.rfcg"));
        let summary = write_rfcg(&g, &path).unwrap();
        assert_eq!(summary.num_vertices, g.num_vertices(), "{name}");
        assert_eq!(summary.num_edges, g.num_edges(), "{name}");
        assert_eq!(
            summary.file_bytes,
            std::fs::metadata(&path).unwrap().len(),
            "{name}"
        );

        for (mode, store) in [
            ("streaming", DiskCsr::open(&path).unwrap()),
            ("resident", DiskCsr::open_resident(&path).unwrap()),
        ] {
            assert_eq!(store.is_resident(), mode == "resident", "{name}/{mode}");
            let back = store.to_graph().unwrap();
            assert_eq!(back, g, "{name}/{mode}: round-trip changed the graph");
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn disk_store_matches_in_memory_store_view() {
    for (name, g) in sample_graphs() {
        let path = temp_path(&format!("view_{name}.rfcg"));
        write_rfcg(&g, &path).unwrap();
        for store in [
            DiskCsr::open(&path).unwrap(),
            DiskCsr::open_resident(&path).unwrap(),
        ] {
            assert_eq!(store.num_vertices(), g.num_vertices(), "{name}");
            assert_eq!(store.num_edges(), g.num_edges(), "{name}");
            assert_eq!(store.attribute_counts(), g.attribute_counts(), "{name}");
            let mut buf: Vec<VertexId> = Vec::new();
            for v in g.vertices() {
                assert_eq!(store.attribute(v), g.attribute(v), "{name}: attr({v})");
                assert_eq!(store.degree(v), g.degree(v), "{name}: degree({v})");
                buf.clear(); // neighbors_into appends by contract
                store.neighbors_into(v, &mut buf).unwrap();
                assert_eq!(buf.as_slice(), g.neighbors(v), "{name}: neighbors({v})");
            }
            // The sequential scan visits every vertex exactly once, in order,
            // including isolated ones, with the same slices as random access.
            let mut visited: Vec<(VertexId, Vec<VertexId>)> = Vec::new();
            store
                .scan_adjacency(&mut |v, nbrs| visited.push((v, nbrs.to_vec())))
                .unwrap();
            assert_eq!(visited.len(), g.num_vertices(), "{name}: scan coverage");
            for (v, nbrs) in &visited {
                assert_eq!(nbrs.as_slice(), g.neighbors(*v), "{name}: scan({v})");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn writes_are_deterministic_and_header_is_little_endian() {
    let g = fixtures::fig1_graph();
    let p1 = temp_path("det1.rfcg");
    let p2 = temp_path("det2.rfcg");
    write_rfcg(&g, &p1).unwrap();
    write_rfcg(&g, &p2).unwrap();
    let bytes = std::fs::read(&p1).unwrap();
    assert_eq!(
        bytes,
        std::fs::read(&p2).unwrap(),
        "writes are deterministic"
    );

    // Documented layout: magic, version u32, n u64, m u64 — all little-endian.
    assert_eq!(&bytes[0..4], &RFCG_MAGIC);
    assert_eq!(
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        RFCG_VERSION
    );
    let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let m = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    assert_eq!(n, g.num_vertices() as u64);
    assert_eq!(m, g.num_edges() as u64);
    assert_eq!(bytes.len() as u64, 24 + (n + 1) * 8 + 2 * m * 4 + n);
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p2).ok();
}

#[test]
fn truncation_at_every_section_boundary_is_rejected() {
    let g = fixtures::fig1_graph();
    let path = temp_path("trunc_src.rfcg");
    write_rfcg(&g, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let n = g.num_vertices() as u64;
    let m = g.num_edges() as u64;
    let header_end = 24u64;
    let offsets_end = header_end + (n + 1) * 8;
    let neighbors_end = offsets_end + 2 * m * 4;
    // Mid-header, each section boundary, one byte short, and one byte long.
    let cuts = [
        0,
        10,
        header_end,
        offsets_end,
        neighbors_end,
        bytes.len() as u64 - 1,
    ];
    for cut in cuts {
        let p = temp_path(&format!("trunc_{cut}.rfcg"));
        std::fs::write(&p, &bytes[..cut as usize]).unwrap();
        let err = DiskCsr::open(&p).unwrap_err();
        assert!(
            matches!(err, RfcgError::Format(_)),
            "cut at {cut}: expected a format error, got {err}"
        );
        std::fs::remove_file(&p).ok();
    }
    // Trailing garbage changes the expected length and must also be rejected.
    let p = temp_path("trailing.rfcg");
    let mut padded = bytes.clone();
    padded.push(0);
    std::fs::write(&p, &padded).unwrap();
    assert!(matches!(DiskCsr::open(&p), Err(RfcgError::Format(_))));
    std::fs::remove_file(&p).ok();
}

#[test]
fn corrupt_magic_version_and_counts_are_rejected() {
    let g = fixtures::balanced_clique(6);
    let path = temp_path("corrupt_src.rfcg");
    write_rfcg(&g, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    type Corruption = fn(&mut Vec<u8>);
    let corruptions: [(&str, Corruption); 5] = [
        ("magic", |b| b[0] = b'X'),
        ("version", |b| b[4] = 99),
        // Flipping n desynchronizes the declared and actual section sizes.
        ("vertex count", |b| b[8] ^= 1),
        // Flipping m does the same for the neighbor section.
        ("edge count", |b| b[16] ^= 1),
        // An edge count whose section size overflows a u64.
        ("edge count overflow", |b| {
            b[16..24].copy_from_slice(&(1u64 << 62).to_le_bytes())
        }),
    ];
    for (what, corrupt) in corruptions {
        let p = temp_path(&format!("corrupt_{}.rfcg", what.replace(' ', "_")));
        let mut damaged = bytes.clone();
        corrupt(&mut damaged);
        std::fs::write(&p, &damaged).unwrap();
        let err = DiskCsr::open(&p).unwrap_err();
        assert!(
            matches!(err, RfcgError::Format(_)),
            "{what}: expected a format error, got {err}"
        );
        std::fs::remove_file(&p).ok();
    }
}

#[test]
fn empty_and_isolated_graphs_have_minimal_files() {
    let empty = GraphBuilder::new(0).build().unwrap();
    let p = temp_path("empty.rfcg");
    let summary = write_rfcg(&empty, &p).unwrap();
    // Header + one offset entry + zero neighbors + zero attributes.
    assert_eq!(summary.file_bytes, 24 + 8);
    let store = DiskCsr::open(&p).unwrap();
    assert_eq!(store.num_vertices(), 0);
    assert_eq!(store.num_edges(), 0);
    assert_eq!(store.to_graph().unwrap(), empty);
    std::fs::remove_file(&p).ok();

    let isolated = GraphBuilder::new(3).build().unwrap();
    let p = temp_path("isolated.rfcg");
    let summary = write_rfcg(&isolated, &p).unwrap();
    assert_eq!(summary.file_bytes, 24 + 4 * 8 + 3);
    let store = DiskCsr::open_resident(&p).unwrap();
    assert_eq!(store.to_graph().unwrap(), isolated);
    for v in 0..3 {
        assert_eq!(store.degree(v), 0);
    }
    std::fs::remove_file(&p).ok();
}

/// One streaming store shared by two threads: both start together and read
/// every list through `neighbors_into` and `visit_adjacency`, and every list
/// must equal the resident store's. Reads that went through a shared file
/// cursor (seek, then read) could pick up the other thread's position.
#[test]
fn one_streaming_store_serves_two_threads_at_once() {
    // Degrees 2 to 8 spread over 30k vertices, so the two threads' reads land at
    // many different positions.
    let n: VertexId = 30_000;
    let mut b = GraphBuilder::new(n as usize);
    for v in 0..n {
        for &step in &[1, 7, 131, 4099][..1 + v as usize % 4] {
            b.add_edge(v, (v + step) % n);
        }
    }
    let g = b.build().unwrap();
    let path = temp_path("shared.rfcg");
    write_rfcg(&g, &path).unwrap();
    let shared = DiskCsr::open(&path).unwrap();
    let resident = DiskCsr::open_resident(&path).unwrap();
    let all: Vec<VertexId> = (0..n).collect();
    let start = std::sync::Barrier::new(2);

    let wrong_lists = || {
        start.wait();
        let mut wrong = 0usize;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for _pass in 0..3 {
            for &v in &all {
                got.clear();
                want.clear();
                resident.neighbors_into(v, &mut want).unwrap();
                if shared.neighbors_into(v, &mut got).is_err() || got != want {
                    wrong += 1;
                }
            }
        }
        let mut visited = 0;
        let visit = shared.visit_adjacency(&all, &mut |v, nbrs| {
            want.clear();
            resident.neighbors_into(v, &mut want).unwrap();
            if nbrs != want.as_slice() {
                wrong += 1;
            }
            visited += 1;
        });
        if visit.is_err() || visited != all.len() {
            wrong += 1;
        }
        wrong
    };
    std::thread::scope(|s| {
        let threads = [s.spawn(wrong_lists), s.spawn(wrong_lists)];
        for t in threads {
            assert_eq!(t.join().unwrap(), 0, "lists read wrong under sharing");
        }
    });
    std::fs::remove_file(&path).ok();
}

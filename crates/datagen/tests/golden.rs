//! Golden digests of every seeded generator's output.
//!
//! The benchmark's inputs, the pinned counters in `witness_purity.rs` and
//! the `repro` tables are all functions of these bytes, so a change to how
//! the generators draw (a faster sampler, a reordered loop) must leave
//! them identical. Each constant is the FNV-1a-64 hash of one output: the
//! `write_tsv` text of an in-memory graph, or the `stream_tsv` text of a
//! streamed preset. On a mismatch the failure lists the digests the code
//! produces now, one table row per line.

use fairsqg_datagen::{
    citations_graph, movies_graph, social_graph, stream_tsv, CitationsConfig, DatasetKind,
    MoviesConfig, SocialConfig,
};
use fairsqg_graph::write_tsv;

/// `(dataset, output nodes, seed, digest)` of an in-memory graph.
const GRAPHS: [(DatasetKind, usize, u64, u64); 18] = [
    (DatasetKind::Dbp, 50, 1, 0xa2c5b45d8cfc81be),
    (DatasetKind::Dbp, 50, 2022, 0x7dbf34f1b11a0571),
    (DatasetKind::Dbp, 400, 1, 0x86d7b55b08019098),
    (DatasetKind::Dbp, 400, 2022, 0xf2274aeb287e66f9),
    (DatasetKind::Dbp, 1200, 1, 0x000d3210a419a1d8),
    (DatasetKind::Dbp, 1200, 2022, 0xe83649742d7495f7),
    (DatasetKind::Lki, 50, 1, 0x1cd0c8dfdee27f50),
    (DatasetKind::Lki, 50, 2022, 0x3894199c0c67b738),
    (DatasetKind::Lki, 400, 1, 0x4a4289c465087515),
    (DatasetKind::Lki, 400, 2022, 0xab5806fe470ef1f6),
    (DatasetKind::Lki, 1200, 1, 0x994d88f1c9e6cd5a),
    (DatasetKind::Lki, 1200, 2022, 0x7cb4a06aef797651),
    (DatasetKind::Cite, 50, 1, 0x59526ea32e5514a5),
    (DatasetKind::Cite, 50, 2022, 0x35274e9125a63862),
    (DatasetKind::Cite, 400, 1, 0xc652e2c835175f8d),
    (DatasetKind::Cite, 400, 2022, 0x382a7c4e98356476),
    (DatasetKind::Cite, 1200, 1, 0x26a2923d5ca01f6a),
    (DatasetKind::Cite, 1200, 2022, 0xb83d2c6f9c0a6c40),
];

/// `(dataset, digest)` of `stream_tsv` at scale 5 000, seed 7.
const STREAMS: [(DatasetKind, u64); 3] = [
    (DatasetKind::Dbp, 0xb3ca8aa0c8b3058c),
    (DatasetKind::Lki, 0xd5299c897e61eae8),
    (DatasetKind::Cite, 0x5ad69c9d5efbd4ed),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn graph_tsv(kind: DatasetKind, scale: usize, seed: u64) -> Vec<u8> {
    let graph = match kind {
        DatasetKind::Dbp => movies_graph(MoviesConfig {
            movies: scale,
            seed,
        }),
        DatasetKind::Lki => social_graph(SocialConfig {
            directors: scale,
            seed,
            ..SocialConfig::default()
        }),
        DatasetKind::Cite => citations_graph(CitationsConfig {
            papers: scale,
            seed,
        }),
    };
    let mut out = Vec::new();
    write_tsv(&graph, &mut out).unwrap();
    out
}

#[test]
fn in_memory_graphs_match_their_golden_digests() {
    let moved: Vec<String> = GRAPHS
        .iter()
        .filter_map(|&(kind, scale, seed, want)| {
            let got = fnv1a64(&graph_tsv(kind, scale, seed));
            (got != want).then(|| format!("(DatasetKind::{kind:?}, {scale}, {seed}, {got:#018x}),"))
        })
        .collect();
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}

#[test]
fn streamed_presets_match_their_golden_digests() {
    let moved: Vec<String> = STREAMS
        .iter()
        .filter_map(|&(kind, want)| {
            let mut out = Vec::new();
            stream_tsv(kind, 5_000, 7, &mut out).unwrap();
            let got = fnv1a64(&out);
            (got != want).then(|| format!("(DatasetKind::{kind:?}, {got:#018x}),"))
        })
        .collect();
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}

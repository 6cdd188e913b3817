//! Storage integration: the binary container must be a drop-in
//! replacement for TSV text end to end — same graphs through the full
//! accessor surface on the existing presets, bit-identical generation
//! archives through the service, and registry stats that tell the two
//! load paths apart.

use fairsqg::datagen::{citations_graph, movies_graph, social_graph};
use fairsqg::datagen::{CitationsConfig, MoviesConfig, SocialConfig};
use fairsqg::graph::{AttrId, Graph, LabelId};
use fairsqg::service::{
    AlgoKind, Engine, EngineConfig, GraphRegistry, JobSpec, JobState, LoadKind,
};
use fairsqg::store::{convert_tsv_path, open_path, write_graph, write_graph_to_path};
use fairsqg::wire::Value;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const TEMPLATE: &str = "node u0 : director\nnode u1 : user\nedge u1 -recommend-> u0\n\
                        where u1.yearsOfExp >= ?\noutput u0\n";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fairsqg-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Semantic equality through the public accessor surface (nodes, tuples,
/// adjacency, label index, postings, domains).
fn assert_same_graph(a: &Graph, b: &Graph) {
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.edge_count(), b.edge_count());
    for v in a.nodes() {
        assert_eq!(a.label(v), b.label(v));
        assert_eq!(a.tuple(v), b.tuple(v));
        assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
        assert_eq!(a.in_neighbors(v), b.in_neighbors(v));
    }
    for l in 0..a.schema().node_label_count() {
        let l = LabelId(l as u16);
        assert_eq!(a.nodes_with_label(l), b.nodes_with_label(l));
        for at in 0..a.schema().attr_count() {
            let at = AttrId(at as u16);
            assert_eq!(a.domains().for_label(l, at), b.domains().for_label(l, at));
            match (
                a.attr_index().postings(l, at),
                b.attr_index().postings(l, at),
            ) {
                (Some(pa), Some(pb)) => assert_eq!(pa.entries(), pb.entries()),
                (None, None) => {}
                other => panic!("postings presence mismatch: {other:?}"),
            }
        }
    }
}

#[test]
fn existing_presets_survive_the_container_roundtrip() {
    let dir = temp_dir("presets");
    let presets: Vec<(&str, Graph)> = vec![
        (
            "dbp",
            movies_graph(MoviesConfig {
                movies: 400,
                seed: 21,
            }),
        ),
        (
            "lki",
            social_graph(SocialConfig {
                directors: 300,
                majority_share: 0.65,
                seed: 22,
            }),
        ),
        (
            "cite",
            citations_graph(CitationsConfig {
                papers: 400,
                seed: 23,
            }),
        ),
    ];
    for (name, graph) in presets {
        // In-memory write path and the streaming TSV converter must emit
        // the same container bytes.
        let tsv = dir.join(format!("{name}.tsv"));
        let fsg = dir.join(format!("{name}.fsg"));
        {
            let mut text = Vec::new();
            fairsqg::graph::write_tsv(&graph, &mut text).unwrap();
            std::fs::write(&tsv, text).unwrap();
        }
        convert_tsv_path(&tsv, &fsg).unwrap();
        let converted = std::fs::read(&fsg).unwrap();
        let mut direct = Vec::new();
        // The TSV text is the source of truth for both paths: interning
        // order follows the file, so compare against the parsed graph.
        let parsed = {
            let file = std::fs::File::open(&tsv).unwrap();
            fairsqg::graph::read_tsv(std::io::BufReader::new(file)).unwrap()
        };
        write_graph(&parsed, &mut direct).unwrap();
        // Identical streams, except the header digest: the streaming
        // converter patches the whole-file digest into the finished file,
        // while the in-memory writer targets non-seekable sinks and
        // leaves the "absent" zero placeholder.
        let off = fairsqg::store::format::DIGEST_OFFSET;
        assert_eq!(
            direct[off..off + 8],
            [0u8; 8],
            "{name}: stream writer must leave a zero digest placeholder"
        );
        assert_ne!(
            converted[off..off + 8],
            [0u8; 8],
            "{name}: converter must stamp a digest"
        );
        let mut unstamped = converted.clone();
        unstamped[off..off + 8].fill(0);
        assert_eq!(direct, unstamped, "{name}: converter bytes diverge");

        let loaded = open_path(&fsg).unwrap();
        assert!(loaded.mapped, "{name}: expected an mmap load");
        assert_same_graph(&parsed, &loaded.graph);
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn run_jobs(registry: Arc<GraphRegistry>, lambdas: &[f64]) -> Vec<String> {
    let engine = Engine::start(
        registry,
        EngineConfig {
            workers: 1,
            cache_entries: 0,
            warm_state: false,
            coalesce: false,
            ..EngineConfig::default()
        },
    );
    let archives = lambdas
        .iter()
        .map(|&lambda| {
            let id = engine
                .submit(JobSpec {
                    graph: "g".into(),
                    template: TEMPLATE.into(),
                    group_attr: "gender".into(),
                    cover: 4,
                    algo: AlgoKind::BiQGen,
                    threads: 1,
                    eps: 0.05,
                    lambda,
                    deadline_ms: None,
                    budget: fairsqg::algo::MatchBudget::UNLIMITED,
                    request_key: None,
                    priority: fairsqg::service::DEFAULT_PRIORITY,
                    client: None,
                    subscribe: false,
                })
                .unwrap();
            let result = loop {
                match engine.status(id).unwrap().state {
                    JobState::Done => break engine.result(id).unwrap(),
                    JobState::Failed | JobState::Cancelled => panic!("job did not complete"),
                    _ => std::thread::sleep(Duration::from_millis(1)),
                }
            };
            // Entries + ε + truncation describe the archive; stats differ
            // legitimately between runs.
            format!(
                "{};{};{}",
                fairsqg::wire::to_string_pretty(result.get("eps").unwrap()),
                fairsqg::wire::to_string_pretty(result.get("truncated").unwrap()),
                fairsqg::wire::to_string_pretty(result.get("entries").unwrap()),
            )
        })
        .collect();
    engine.shutdown();
    archives
}

#[test]
fn generation_archives_are_bit_identical_across_load_paths() {
    let dir = temp_dir("archives");
    let graph = social_graph(SocialConfig {
        directors: 250,
        majority_share: 0.65,
        seed: 31,
    });
    let tsv = dir.join("g.tsv");
    let fsg = dir.join("g.fsg");
    {
        let mut text = Vec::new();
        fairsqg::graph::write_tsv(&graph, &mut text).unwrap();
        std::fs::write(&tsv, text).unwrap();
    }
    convert_tsv_path(&tsv, &fsg).unwrap();

    let lambdas = [0.3, 0.5, 0.8];
    let via_tsv = {
        let registry = Arc::new(GraphRegistry::new());
        let (_, kind) = registry.load_path("g", tsv.to_str().unwrap()).unwrap();
        assert_eq!(kind, LoadKind::Parse);
        run_jobs(registry, &lambdas)
    };
    let via_mmap = {
        let registry = Arc::new(GraphRegistry::new());
        let (_, kind) = registry.load_path("g", fsg.to_str().unwrap()).unwrap();
        assert_eq!(kind, LoadKind::MmapSwap);
        run_jobs(registry, &lambdas)
    };
    assert_eq!(via_tsv, via_mmap);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_stats_distinguish_mmap_swap_from_parse() {
    let dir = temp_dir("stats");
    let graph = social_graph(SocialConfig {
        directors: 120,
        majority_share: 0.65,
        seed: 41,
    });
    let tsv = dir.join("g.tsv");
    let fsg = dir.join("g.fsg");
    {
        let mut text = Vec::new();
        fairsqg::graph::write_tsv(&graph, &mut text).unwrap();
        std::fs::write(&tsv, text).unwrap();
    }
    write_graph_to_path(&graph, &fsg).unwrap();

    let registry = Arc::new(GraphRegistry::new());
    registry.load_path("g", tsv.to_str().unwrap()).unwrap();
    let after_parse = registry.stats();
    assert_eq!(
        (after_parse.parse_loads, after_parse.mmap_loads),
        (1, 0),
        "a TSV load is a parse"
    );
    assert_eq!(after_parse.mapped_bytes, 0);

    // Reload the same name from the container: epoch bumps, the swap is
    // counted separately, and the entry's bytes move to the mapping.
    let (epoch, kind) = registry.load_path("g", fsg.to_str().unwrap()).unwrap();
    assert_eq!((epoch, kind), (2, LoadKind::MmapSwap));
    let after_swap = registry.stats();
    assert_eq!((after_swap.parse_loads, after_swap.mmap_loads), (1, 1));
    assert!(after_swap.mapped_bytes > 0);
    assert!(after_swap.heap_bytes < after_parse.heap_bytes);

    // The same split is visible over the engine's stats surface.
    let engine = Engine::start(Arc::clone(&registry), EngineConfig::default());
    let stats = engine.stats_value();
    let block = stats.get("registry").expect("stats has a registry block");
    assert_eq!(block.get("graphs").and_then(Value::as_u64), Some(1));
    assert_eq!(block.get("parse_loads").and_then(Value::as_u64), Some(1));
    assert_eq!(block.get("mmap_loads").and_then(Value::as_u64), Some(1));
    assert!(block.get("mapped_bytes").and_then(Value::as_u64).unwrap() > 0);
    engine.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

//! Streaming TSV emitters for million-node presets.
//!
//! The in-memory generators ([`crate::movies_graph`] and friends) build a
//! full [`fairsqg_graph::Graph`] before anything can be written out, and
//! keep preferential-attachment pools proportional to the edge count. At
//! the million-node scale the storage pipeline targets, that is exactly
//! the memory spike the binary container exists to avoid — so these
//! emitters write the TSV text directly to a writer in **bounded
//! memory**: node lines first (dense ids, section order matching the
//! in-memory generators), then edge lines, never materializing a graph.
//!
//! Determinism without state: every node's attributes are computed from a
//! per-node RNG (`seed`, class, index), so the edge pass can re-derive
//! any node's attributes in O(1) instead of keeping them around. Two
//! deliberate simplifications versus the in-memory generators, both
//! documented per dataset: preferential attachment is approximated by
//! [`zipf_approx`] over the node index (early nodes are popular), and
//! Cite's `numberOfCitations` is synthesized from the same skew instead
//! of counting actual in-edges. Group induction (genres, genders,
//! topics) works unchanged on the loaded graphs.

use crate::presets::DatasetKind;
use crate::util::{log_uniform, rng, zipf_approx, Zipf};
use rand::Rng;
use rand_pcg::Pcg64Mcg;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::citations::TOPICS;
use crate::movies::{COUNTRIES, GENRES};
use crate::social::MAJORS;

/// What a streaming emission produced (before TSV-level edge dedup:
/// loading collapses duplicate `(src, dst, label)` lines, so the loaded
/// edge count can be slightly below `edges`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Node lines written.
    pub nodes: u64,
    /// Edge lines written.
    pub edges: u64,
}

/// Per-(class, index) deterministic RNG: both passes recompute a node's
/// draws from scratch instead of storing them.
fn sub_rng(seed: u64, class: u64, index: u64) -> Pcg64Mcg {
    rng(seed
        ^ class.wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Emits the TSV for `kind` at `scale` output-label nodes to `out`.
///
/// The text parses with [`fairsqg_graph::read_tsv`] and converts with the
/// store's converter, which reads it one line at a time; chaining the two
/// never holds the text in memory, only the graph's own columns.
pub fn stream_tsv<W: Write>(
    kind: DatasetKind,
    scale: usize,
    seed: u64,
    out: &mut W,
) -> io::Result<StreamStats> {
    match kind {
        DatasetKind::Dbp => stream_dbp(scale, seed, out),
        DatasetKind::Lki => stream_lki(scale, seed, out),
        DatasetKind::Cite => stream_cite(scale, seed, out),
    }
}

/// [`stream_tsv`] to a file path (buffered, synced).
pub fn stream_tsv_to_path(
    kind: DatasetKind,
    scale: usize,
    seed: u64,
    path: &Path,
) -> io::Result<StreamStats> {
    let file = std::fs::File::create(path)?;
    let mut out = BufWriter::new(file);
    let stats = stream_tsv(kind, scale, seed, &mut out)?;
    out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    Ok(stats)
}

fn node_header<W: Write>(out: &mut W) -> io::Result<()> {
    writeln!(out, "# nodes: id\tlabel\tattr=value ...")
}

fn edge_header<W: Write>(out: &mut W) -> io::Result<()> {
    writeln!(out)?;
    writeln!(out, "# edges: src\tlabel\tdst")
}

/// DBP-like movie graph, schema-compatible with [`crate::movies_graph`]
/// (labels `country`/`director`/`actor`/`movie`, genre and country
/// symbols, the genre–rating correlation). Director/actor popularity is
/// index-skewed instead of pool-based.
fn stream_dbp<W: Write>(scale: usize, seed: u64, out: &mut W) -> io::Result<StreamStats> {
    let n_movies = scale.max(1);
    let n_directors = (n_movies / 5).max(2);
    let n_actors = (n_movies * 2).max(4);
    let n_countries = COUNTRIES.len();
    // Dense id layout, in emission order.
    let country_id = |i: usize| i as u64;
    let director_id = |i: usize| (n_countries + i) as u64;
    let actor_id = |i: usize| (n_countries + n_directors + i) as u64;
    let movie_id = |i: usize| (n_countries + n_directors + n_actors + i) as u64;
    let director_awards = Zipf::new(11, 1.2);
    let actor_awards = Zipf::new(8, 1.5);
    let genre_of = Zipf::new(GENRES.len(), 0.8);
    let country_of = Zipf::new(n_countries, 0.9);

    node_header(out)?;
    for (i, name) in COUNTRIES.iter().enumerate() {
        writeln!(
            out,
            "{}\tcountry\tgdpRank={}\tname=s:{name}",
            country_id(i),
            i + 1
        )?;
    }
    for i in 0..n_directors {
        let r = &mut sub_rng(seed, 1, i as u64);
        let awards = director_awards.sample(r);
        let years = r.gen_range(1..40i64);
        writeln!(
            out,
            "{}\tdirector\tawards={awards}\tyearsActive={years}",
            director_id(i)
        )?;
    }
    for i in 0..n_actors {
        let r = &mut sub_rng(seed, 2, i as u64);
        let age = r.gen_range(18..80i64);
        let awards = actor_awards.sample(r);
        writeln!(out, "{}\tactor\tage={age}\tawards={awards}", actor_id(i))?;
    }
    for i in 0..n_movies {
        let r = &mut sub_rng(seed, 3, i as u64);
        let genre_idx = genre_of.sample(r);
        let genre_bias = match genre_idx {
            0 => -8,
            4 => 10,
            g => (g as i64 % 5) * 3 - 6,
        };
        let rating: i64 =
            ((0..4).map(|_| r.gen_range(0..=25i64)).sum::<i64>() + genre_bias).clamp(0, 100);
        let year = r.gen_range(1950..=2023i64);
        let votes = log_uniform(r, 10, 2_000_000) as i64 + if genre_idx == 0 { 50_000 } else { 0 };
        writeln!(
            out,
            "{}\tmovie\tgenre=s:{}\trating={rating}\tyear={year}\tvotes={votes}",
            movie_id(i),
            GENRES[genre_idx]
        )?;
    }

    edge_header(out)?;
    let mut edges = 0u64;
    for i in 0..n_movies {
        let r = &mut sub_rng(seed, 4, i as u64);
        let d = zipf_approx(r, n_directors, 0.7);
        writeln!(out, "{}\tdirected\t{}", director_id(d), movie_id(i))?;
        let c = country_of.sample(r);
        writeln!(out, "{}\tproducedIn\t{}", movie_id(i), country_id(c))?;
        edges += 2;
        for _ in 0..3 + (i % 4) {
            let a = zipf_approx(r, n_actors, 0.6);
            writeln!(out, "{}\tactedIn\t{}", actor_id(a), movie_id(i))?;
            edges += 1;
        }
    }
    for i in 0..n_actors {
        let r = &mut sub_rng(seed, 5, i as u64);
        let c = country_of.sample(r);
        writeln!(out, "{}\tbornIn\t{}", actor_id(i), country_id(c))?;
        edges += 1;
    }
    Ok(StreamStats {
        nodes: (n_countries + n_directors + n_actors + n_movies) as u64,
        edges,
    })
}

/// LKI-like professional network, schema-compatible with
/// [`crate::social_graph`] (65% majority gender, experience-biased
/// recommendations toward the minority group). The edge pass re-derives
/// each director's gender and each user's seniority from their per-node
/// RNGs; minority targets are rejection-sampled.
fn stream_lki<W: Write>(scale: usize, seed: u64, out: &mut W) -> io::Result<StreamStats> {
    const MAJORITY_SHARE: f64 = 0.65;
    let n_dir = scale.max(2);
    let n_users = n_dir * 3;
    let n_orgs = (n_dir / 10).max(5);
    let director_id = |i: usize| i as u64;
    let user_id = |i: usize| (n_dir + i) as u64;
    let org_id = |i: usize| (n_dir + n_users + i) as u64;

    // First draw of a director's RNG; the edge pass repeats it.
    let gender_of = |i: usize| -> i64 {
        if sub_rng(seed, 1, i as u64).gen_bool(MAJORITY_SHARE) {
            0
        } else {
            1
        }
    };
    // First draw of a user's RNG.
    let exp_of = |i: usize| -> i64 { sub_rng(seed, 2, i as u64).gen_range(0..31i64) };
    let endorsements_of = Zipf::new(50, 1.1);
    let fanout_of = Zipf::new(5, 1.0);

    node_header(out)?;
    for i in 0..n_dir {
        let r = &mut sub_rng(seed, 1, i as u64);
        let gender: i64 = if r.gen_bool(MAJORITY_SHARE) { 0 } else { 1 };
        let major = r.gen_range(0..MAJORS);
        let exp = r.gen_range(0..35i64);
        writeln!(
            out,
            "{}\tdirector\tgender={gender}\tmajor={major}\tyearsOfExp={exp}",
            director_id(i)
        )?;
    }
    for i in 0..n_users {
        let r = &mut sub_rng(seed, 2, i as u64);
        let exp = r.gen_range(0..31i64);
        let endorsements = endorsements_of.sample(r);
        writeln!(
            out,
            "{}\tuser\tyearsOfExp={exp}\tendorsements={endorsements}",
            user_id(i)
        )?;
    }
    for i in 0..n_orgs {
        let r = &mut sub_rng(seed, 3, i as u64);
        let employees = log_uniform(r, 10, 20_000);
        let founded = r.gen_range(1950..=2020i64);
        writeln!(
            out,
            "{}\torg\temployees={employees}\tfounded={founded}",
            org_id(i)
        )?;
    }

    edge_header(out)?;
    let mut edges = 0u64;
    for i in 0..n_users {
        let r = &mut sub_rng(seed, 4, i as u64);
        let senior = exp_of(i) >= 15;
        let fanout = 2 + fanout_of.sample(r);
        for _ in 0..fanout {
            let mut d = zipf_approx(r, n_dir, 0.8);
            if senior && r.gen_bool(0.6) {
                // Rejection-sample a minority-gender director (~35% of the
                // population, so a handful of tries almost always lands).
                for _ in 0..16 {
                    if gender_of(d) == 1 {
                        break;
                    }
                    d = r.gen_range(0..n_dir);
                }
            }
            writeln!(out, "{}\trecommend\t{}", user_id(i), director_id(d))?;
            edges += 1;
        }
        let o = zipf_approx(r, n_orgs, 0.8);
        writeln!(out, "{}\tworksAt\t{}", user_id(i), org_id(o))?;
        edges += 1;
        if i % 3 == 0 {
            let v = r.gen_range(0..n_users);
            if v != i {
                writeln!(out, "{}\tcoReview\t{}", user_id(i), user_id(v))?;
                edges += 1;
            }
        }
    }
    Ok(StreamStats {
        nodes: (n_dir + n_users + n_orgs) as u64,
        edges,
    })
}

/// Cite-like citation graph, schema-compatible with
/// [`crate::citations_graph`] (topic symbols, backward-in-time `cites`
/// edges, head-topic citation boost). `numberOfCitations` is synthesized
/// from the same index skew the edge pass samples with, not counted from
/// actual in-edges — the topic correlation survives, the exact in-degree
/// invariant does not.
fn stream_cite<W: Write>(scale: usize, seed: u64, out: &mut W) -> io::Result<StreamStats> {
    let n_papers = scale.max(2);
    let n_authors = (n_papers / 2).max(2);
    let author_id = |i: usize| i as u64;
    let paper_id = |i: usize| (n_authors + i) as u64;

    let topic_table = Zipf::new(TOPICS.len(), 0.7);
    let h_index_of = Zipf::new(60, 1.1);
    let papers_of = Zipf::new(30, 1.0);
    let refs_of = Zipf::new(8, 1.0);
    let byline_of = Zipf::new(4, 1.0);
    // First draw of a paper's RNG; the edge pass repeats it.
    let topic_of = |i: usize| -> usize { topic_table.sample(&mut sub_rng(seed, 2, i as u64)) };

    node_header(out)?;
    for i in 0..n_authors {
        let r = &mut sub_rng(seed, 1, i as u64);
        let h = h_index_of.sample(r);
        let np = 1 + papers_of.sample(r);
        writeln!(out, "{}\tauthor\thIndex={h}\tpapers={np}", author_id(i))?;
    }
    for i in 0..n_papers {
        let r = &mut sub_rng(seed, 2, i as u64);
        let topic = topic_table.sample(r);
        let year = 1980 + (i as i64 * 44) / n_papers as i64;
        // Early papers accumulate citations (the edge pass skews toward
        // low indices); the head topic gets the same boost its targets do.
        let age_rank = n_papers - i;
        let mut citations = log_uniform(r, 1, (age_rank as u64 / 8).max(2)) as i64 - 1;
        if topic == 0 {
            citations += citations / 2 + 1;
        }
        writeln!(
            out,
            "{}\tpaper\ttopic=s:{}\tyear={year}\tnumberOfCitations={citations}",
            paper_id(i),
            TOPICS[topic]
        )?;
    }

    edge_header(out)?;
    let mut edges = 0u64;
    for i in 0..n_papers {
        let r = &mut sub_rng(seed, 3, i as u64);
        if i > 0 {
            let refs = 2 + refs_of.sample(r);
            for _ in 0..refs {
                let mut t = if r.gen_bool(0.3) {
                    r.gen_range(0..i)
                } else {
                    // Preferential-attachment proxy: early papers are the
                    // popular ones.
                    zipf_approx(r, i, 0.8)
                };
                if r.gen_bool(0.25) {
                    // Head-topic boost, rejection-sampled (the head topic
                    // holds roughly a third of the Zipf mass).
                    for _ in 0..16 {
                        if topic_of(t) == 0 {
                            break;
                        }
                        t = r.gen_range(0..i);
                    }
                }
                writeln!(out, "{}\tcites\t{}", paper_id(i), paper_id(t))?;
                edges += 1;
            }
        }
        let k = 1 + byline_of.sample(r);
        for _ in 0..k {
            let a = zipf_approx(r, n_authors, 0.8);
            writeln!(out, "{}\tauthored\t{}", author_id(a), paper_id(i))?;
            edges += 1;
        }
    }
    Ok(StreamStats {
        nodes: (n_authors + n_papers) as u64,
        edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gender_groups, genre_groups, topic_groups};
    use fairsqg_graph::read_tsv;
    use std::io::BufReader;

    fn emit(kind: DatasetKind, scale: usize, seed: u64) -> (Vec<u8>, StreamStats) {
        let mut buf = Vec::new();
        let stats = stream_tsv(kind, scale, seed, &mut buf).unwrap();
        (buf, stats)
    }

    #[test]
    fn emitted_tsv_parses_and_matches_stats() {
        for kind in [DatasetKind::Dbp, DatasetKind::Lki, DatasetKind::Cite] {
            let (buf, stats) = emit(kind, 300, 7);
            let g = read_tsv(BufReader::new(buf.as_slice())).unwrap();
            assert_eq!(g.node_count() as u64, stats.nodes, "{}", kind.name());
            // TSV-level duplicate edges collapse on load.
            assert!(g.edge_count() as u64 <= stats.edges);
            assert!(
                g.edge_count() as u64 > stats.edges / 2,
                "{}: {} of {} edge lines survived dedup",
                kind.name(),
                g.edge_count(),
                stats.edges
            );
            let out_label = g.schema().find_node_label(kind.output_label()).unwrap();
            assert_eq!(g.label_population(out_label), 300);
        }
    }

    #[test]
    fn emission_is_deterministic() {
        for kind in [DatasetKind::Dbp, DatasetKind::Lki, DatasetKind::Cite] {
            let (a, _) = emit(kind, 120, 11);
            let (b, _) = emit(kind, 120, 11);
            assert_eq!(a, b, "{}", kind.name());
            let (c, _) = emit(kind, 120, 12);
            assert_ne!(a, c, "{}: seed must matter", kind.name());
        }
    }

    #[test]
    fn group_induction_works_on_streamed_graphs() {
        let (buf, _) = emit(DatasetKind::Dbp, 500, 3);
        let g = read_tsv(BufReader::new(buf.as_slice())).unwrap();
        let groups = genre_groups(&g, 3);
        assert_eq!(groups.len(), 3);
        for i in 0..3 {
            assert!(groups.size(fairsqg_graph::GroupId(i)) > 0);
        }

        let (buf, _) = emit(DatasetKind::Lki, 500, 3);
        let g = read_tsv(BufReader::new(buf.as_slice())).unwrap();
        let groups = gender_groups(&g);
        let a = groups.size(fairsqg_graph::GroupId(0)) as f64;
        let b = groups.size(fairsqg_graph::GroupId(1)) as f64;
        let share = a / (a + b);
        assert!((share - 0.65).abs() < 0.07, "gender share {share}");

        let (buf, _) = emit(DatasetKind::Cite, 500, 3);
        let g = read_tsv(BufReader::new(buf.as_slice())).unwrap();
        let groups = topic_groups(&g, 3);
        assert_eq!(groups.len(), 3);
    }

    #[test]
    fn citations_point_backwards_in_time() {
        let (buf, _) = emit(DatasetKind::Cite, 250, 5);
        let g = read_tsv(BufReader::new(buf.as_slice())).unwrap();
        let year = g.schema().find_attr("year").unwrap();
        let cites = g.schema().find_edge_label("cites").unwrap();
        for v in g.nodes() {
            for a in g.out_neighbors(v) {
                if a.label() == cites {
                    assert!(g.attr(a.to(), year).unwrap() <= g.attr(v, year).unwrap());
                }
            }
        }
    }

    #[test]
    fn senior_recommendations_favor_the_minority_group() {
        let (buf, _) = emit(DatasetKind::Lki, 1000, 13);
        let g = read_tsv(BufReader::new(buf.as_slice())).unwrap();
        let s = g.schema();
        let user = s.find_node_label("user").unwrap();
        let gender = s.find_attr("gender").unwrap();
        let exp = s.find_attr("yearsOfExp").unwrap();
        let recommend = s.find_edge_label("recommend").unwrap();
        let mut senior = (0u32, 0u32);
        let mut junior = (0u32, 0u32);
        for &u in g.nodes_with_label(user) {
            let is_senior = g.attr(u, exp).unwrap().as_int().unwrap() >= 15;
            for a in g.out_neighbors(u) {
                if a.label() != recommend {
                    continue;
                }
                if let Some(val) = g.attr(a.to(), gender) {
                    let slot = if is_senior { &mut senior } else { &mut junior };
                    slot.1 += 1;
                    if val == fairsqg_graph::AttrValue::Int(1) {
                        slot.0 += 1;
                    }
                }
            }
        }
        let senior_share = senior.0 as f64 / senior.1 as f64;
        let junior_share = junior.0 as f64 / junior.1 as f64;
        assert!(
            senior_share > junior_share + 0.15,
            "senior minority share {senior_share} vs junior {junior_share}"
        );
    }
}

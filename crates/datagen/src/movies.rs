//! DBP-like synthetic movie knowledge graph.
//!
//! Stand-in for the DBpedia movie graph the paper evaluates on (1M nodes /
//! 3.18M edges, genre/country groups). The generator reproduces the
//! *structural knobs* the experiments depend on — labeled node types,
//! skewed genre/country distributions, numeric attributes with non-trivial
//! active domains — at a configurable scale.

use crate::util::{log_uniform, rng, Zipf};
use fairsqg_graph::{AttrValue, Graph, GraphBuilder, GroupSet, NodeId};
use rand::Rng;

/// Genres used for group induction (skewed by a Zipf law, like real
/// catalogs: lots of drama/romance, few westerns).
pub const GENRES: [&str; 10] = [
    "Romance",
    "Drama",
    "Action",
    "Comedy",
    "Horror",
    "Thriller",
    "SciFi",
    "Animation",
    "Documentary",
    "Western",
];

/// Production countries (also usable for groups).
pub const COUNTRIES: [&str; 8] = ["US", "UK", "FR", "IN", "JP", "KR", "DE", "BR"];

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct MoviesConfig {
    /// Number of movie nodes (the output-label population).
    pub movies: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MoviesConfig {
    fn default() -> Self {
        Self {
            movies: 2000,
            seed: 0xDB,
        }
    }
}

/// Generates the movie knowledge graph.
///
/// Node types: `movie` (rating 0–100, year, genre, votes), `director`
/// (awards, yearsActive), `actor` (age, awards), `country` (gdpRank).
/// Edge types: `directed` (director→movie), `actedIn` (actor→movie),
/// `producedIn` (movie→country), `bornIn` (actor→country).
pub fn movies_graph(cfg: MoviesConfig) -> Graph {
    let mut r = rng(cfg.seed);
    let mut b = GraphBuilder::new();

    let n_movies = cfg.movies.max(1);
    let n_directors = (n_movies / 5).max(2);
    let n_actors = (n_movies * 2).max(4);

    let mut genres_syms = Vec::new();
    let mut country_syms = Vec::new();
    {
        let s = b.schema_mut();
        for g in GENRES {
            genres_syms.push(s.symbol(g));
        }
        for c in COUNTRIES {
            country_syms.push(s.symbol(c));
        }
    }

    // Countries first (few, referenced by everything).
    let countries: Vec<NodeId> = (0..COUNTRIES.len())
        .map(|i| {
            b.add_named_node(
                "country",
                &[
                    ("gdpRank", AttrValue::Int(i as i64 + 1)),
                    ("name", AttrValue::Str(country_syms[i])),
                ],
            )
        })
        .collect();

    let director_awards = Zipf::new(11, 1.2);
    let directors: Vec<NodeId> = (0..n_directors)
        .map(|_| {
            let awards = director_awards.sample(&mut r) as i64;
            let years = r.gen_range(1..40);
            b.add_named_node(
                "director",
                &[
                    ("awards", AttrValue::Int(awards)),
                    ("yearsActive", AttrValue::Int(years)),
                ],
            )
        })
        .collect();

    let actor_awards = Zipf::new(8, 1.5);
    let actors: Vec<NodeId> = (0..n_actors)
        .map(|_| {
            let age = r.gen_range(18..80);
            let awards = actor_awards.sample(&mut r) as i64;
            b.add_named_node(
                "actor",
                &[
                    ("age", AttrValue::Int(age)),
                    ("awards", AttrValue::Int(awards)),
                ],
            )
        })
        .collect();

    let genre_of = Zipf::new(GENRES.len(), 0.8);
    let movies: Vec<NodeId> = (0..n_movies)
        .map(|_| {
            let genre_idx = genre_of.sample(&mut r);
            let genre = genres_syms[genre_idx];
            // Ratings on a 0–100 scale (paper case study: "rating > 7"
            // corresponds to 70 here), roughly bell-shaped — with a
            // genre-dependent shift. The correlation matters: it is what
            // lets a revised rating threshold *rebalance* genre coverage
            // (the paper's Fig. 12 narrative), instead of shrinking every
            // genre proportionally.
            let genre_bias = match genre_idx {
                0 => -8, // Romance skews lower-rated
                4 => 10, // Horror skews higher-rated
                i => (i as i64 % 5) * 3 - 6,
            };
            let rating: i64 =
                ((0..4).map(|_| r.gen_range(0..=25i64)).sum::<i64>() + genre_bias).clamp(0, 100);
            let year = r.gen_range(1950..=2023i64);
            let votes =
                log_uniform(&mut r, 10, 2_000_000) as i64 + if genre_idx == 0 { 50_000 } else { 0 };
            b.add_named_node(
                "movie",
                &[
                    ("genre", AttrValue::Str(genre)),
                    ("rating", AttrValue::Int(rating)),
                    ("year", AttrValue::Int(year)),
                    ("votes", AttrValue::Int(votes)),
                ],
            )
        })
        .collect();

    // Edges. Directors, actors and countries get Zipf-skewed popularity.
    let director_of = Zipf::new(directors.len(), 0.7);
    let country_of = Zipf::new(countries.len(), 0.9);
    let actor_of = Zipf::new(actors.len(), 0.6);
    for (i, &m) in movies.iter().enumerate() {
        let d = directors[director_of.sample(&mut r)];
        b.add_named_edge(d, m, "directed");
        let c = countries[country_of.sample(&mut r)];
        b.add_named_edge(m, c, "producedIn");
        let cast = 3 + (i % 4);
        for _ in 0..cast {
            let a = actors[actor_of.sample(&mut r)];
            b.add_named_edge(a, m, "actedIn");
        }
    }
    for &a in &actors {
        let c = countries[country_of.sample(&mut r)];
        b.add_named_edge(a, c, "bornIn");
    }

    b.finish()
}

/// Induces up to `m ≤ 5` disjoint genre groups over the movies, using the
/// `m` most common genres (the paper induces 2–5 movie groups by genre).
pub fn genre_groups(graph: &Graph, m: usize) -> GroupSet {
    let genre = graph
        .schema()
        .find_attr("genre")
        .expect("movies graph has a genre attribute");
    let values: Vec<AttrValue> = GENRES
        .iter()
        .take(m)
        .map(|g| AttrValue::Str(graph.schema().find_symbol(g).expect("genre symbol")))
        .collect();
    GroupSet::by_attribute(graph, genre, &values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_has_expected_shape() {
        let g = movies_graph(MoviesConfig {
            movies: 300,
            seed: 1,
        });
        let movie = g.schema().find_node_label("movie").unwrap();
        assert_eq!(g.label_population(movie), 300);
        assert!(g.edge_count() > 300 * 3);
        assert!(g.schema().find_edge_label("directed").is_some());
        assert!(g.avg_attrs_per_node() > 1.5);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = movies_graph(MoviesConfig {
            movies: 100,
            seed: 5,
        });
        let b = movies_graph(MoviesConfig {
            movies: 100,
            seed: 5,
        });
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let rating = a.schema().find_attr("rating").unwrap();
        for v in a.nodes() {
            assert_eq!(a.attr(v, rating), b.attr(v, rating));
        }
    }

    #[test]
    fn genre_groups_are_disjoint_and_nonempty() {
        let g = movies_graph(MoviesConfig {
            movies: 500,
            seed: 2,
        });
        let groups = genre_groups(&g, 3);
        assert_eq!(groups.len(), 3);
        for i in 0..3 {
            assert!(
                groups.size(fairsqg_graph::GroupId(i)) > 0,
                "group {i} empty"
            );
        }
        // The Zipf head group should dominate the tail group.
        assert!(groups.size(fairsqg_graph::GroupId(0)) > groups.size(fairsqg_graph::GroupId(2)));
    }

    #[test]
    fn rating_correlates_with_genre() {
        // Horror must skew higher-rated than Romance so that rating
        // thresholds can rebalance genre coverage.
        let g = movies_graph(MoviesConfig {
            movies: 2000,
            seed: 4,
        });
        let genre = g.schema().find_attr("genre").unwrap();
        let rating = g.schema().find_attr("rating").unwrap();
        let romance = AttrValue::Str(g.schema().find_symbol("Romance").unwrap());
        let horror = AttrValue::Str(g.schema().find_symbol("Horror").unwrap());
        let mean = |target: AttrValue| -> f64 {
            let vals: Vec<i64> = g
                .nodes()
                .filter(|&v| g.attr(v, genre) == Some(target))
                .filter_map(|v| g.attr(v, rating).and_then(|x| x.as_int()))
                .collect();
            vals.iter().sum::<i64>() as f64 / vals.len() as f64
        };
        assert!(
            mean(horror) > mean(romance) + 5.0,
            "horror {} vs romance {}",
            mean(horror),
            mean(romance)
        );
    }

    #[test]
    fn ratings_span_a_wide_active_domain() {
        let g = movies_graph(MoviesConfig {
            movies: 500,
            seed: 3,
        });
        let rating = g.schema().find_attr("rating").unwrap();
        let dom = g.domains().global(rating);
        assert!(dom.len() > 30, "rating domain too small: {}", dom.len());
    }
}

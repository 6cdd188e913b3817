//! LKI-like synthetic professional network (talent search, Example 1).
//!
//! Stand-in for the LinkedIn-style graph the paper uses (3M nodes / 26M
//! edges, synthetic gender groups). Produces `director` nodes (the search
//! targets, with skewed genders and diverse majors), `user` recommenders,
//! and `org` employers, wired with `recommend`, `worksAt`, and `coReview`
//! edges under preferential attachment.

use crate::util::{log_uniform, rng, Zipf};
use fairsqg_graph::{AttrValue, Graph, GraphBuilder, GroupSet, NodeId};
use rand::Rng;

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SocialConfig {
    /// Number of director nodes (the output-label population).
    pub directors: usize,
    /// Fraction of directors in the majority gender group (the paper's
    /// motivating query returns a 375:173 ≈ 0.68 split).
    pub majority_share: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SocialConfig {
    fn default() -> Self {
        Self {
            directors: 1500,
            majority_share: 0.65,
            seed: 0x11C1,
        }
    }
}

/// Number of distinct majors directors can have (diversity axis of the
/// talent-search case study: "candidates that span 10 majors").
pub const MAJORS: i64 = 20;

/// Generates the professional network.
///
/// Node types: `director` (gender 0/1, major, yearsOfExp), `user`
/// (yearsOfExp, endorsements), `org` (employees, founded).
/// Edge types: `recommend` (user→director), `worksAt` (user→org),
/// `coReview` (user→user).
pub fn social_graph(cfg: SocialConfig) -> Graph {
    let mut r = rng(cfg.seed);
    let mut b = GraphBuilder::new();

    let n_dir = cfg.directors.max(2);
    let n_users = n_dir * 3;
    let n_orgs = (n_dir / 10).max(5);

    let mut director_genders: Vec<i64> = Vec::with_capacity(n_dir);
    let directors: Vec<NodeId> = (0..n_dir)
        .map(|_| {
            let gender = if r.gen_bool(cfg.majority_share) { 0 } else { 1 };
            director_genders.push(gender);
            let major = r.gen_range(0..MAJORS);
            let exp = r.gen_range(0..35i64);
            b.add_named_node(
                "director",
                &[
                    ("gender", AttrValue::Int(gender)),
                    ("major", AttrValue::Int(major)),
                    ("yearsOfExp", AttrValue::Int(exp)),
                ],
            )
        })
        .collect();
    let minority_directors: Vec<NodeId> = directors
        .iter()
        .zip(&director_genders)
        .filter(|&(_, &g)| g == 1)
        .map(|(&d, _)| d)
        .collect();

    let mut user_exp: Vec<i64> = Vec::with_capacity(n_users);
    let endorsements_of = Zipf::new(50, 1.1);
    let users: Vec<NodeId> = (0..n_users)
        .map(|_| {
            let exp = r.gen_range(0..31i64);
            user_exp.push(exp);
            let endorsements = endorsements_of.sample(&mut r) as i64;
            b.add_named_node(
                "user",
                &[
                    ("yearsOfExp", AttrValue::Int(exp)),
                    ("endorsements", AttrValue::Int(endorsements)),
                ],
            )
        })
        .collect();

    let orgs: Vec<NodeId> = (0..n_orgs)
        .map(|_| {
            let employees = log_uniform(&mut r, 10, 20_000) as i64;
            let founded = r.gen_range(1950..=2020i64);
            b.add_named_node(
                "org",
                &[
                    ("employees", AttrValue::Int(employees)),
                    ("founded", AttrValue::Int(founded)),
                ],
            )
        })
        .collect();

    // Preferential attachment on recommendation targets: popular directors
    // accumulate recommendations (dense social structure, like LKI).
    //
    // Recommendations are *experience-biased*: senior recommenders
    // (yearsOfExp ≥ 15) disproportionately recommend minority-group
    // directors. This correlation is what lets a revised experience
    // threshold *rebalance* the answer's gender mix (the paper's
    // Example 1: changing the recommender predicate changes the gender
    // distribution of the candidates), instead of shrinking both groups
    // proportionally.
    let mut pa_pool: Vec<NodeId> = directors.clone();
    let fanout_of = Zipf::new(5, 1.0);
    let org_of = Zipf::new(orgs.len(), 0.8);
    for (ui, &u) in users.iter().enumerate() {
        let senior = user_exp[ui] >= 15;
        let fanout = 2 + fanout_of.sample(&mut r);
        for _ in 0..fanout {
            let d = if senior && !minority_directors.is_empty() && r.gen_bool(0.6) {
                minority_directors[r.gen_range(0..minority_directors.len())]
            } else {
                pa_pool[r.gen_range(0..pa_pool.len())]
            };
            b.add_named_edge(u, d, "recommend");
            pa_pool.push(d);
        }
        let o = orgs[org_of.sample(&mut r)];
        b.add_named_edge(u, o, "worksAt");
    }
    // Sparse co-review ties between users.
    for (i, &u) in users.iter().enumerate() {
        if i % 3 == 0 {
            let v = users[r.gen_range(0..users.len())];
            if v != u {
                b.add_named_edge(u, v, "coReview");
            }
        }
    }

    b.finish()
}

/// Induces the two gender groups over directors (the paper synthesizes
/// genders with inference tools \[14\]; here they are generated directly
/// with a configurable skew).
pub fn gender_groups(graph: &Graph) -> GroupSet {
    let gender = graph
        .schema()
        .find_attr("gender")
        .expect("social graph has a gender attribute");
    GroupSet::by_attribute(graph, gender, &[AttrValue::Int(0), AttrValue::Int(1)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsqg_graph::GroupId;

    #[test]
    fn graph_shape() {
        let g = social_graph(SocialConfig {
            directors: 200,
            majority_share: 0.65,
            seed: 9,
        });
        let director = g.schema().find_node_label("director").unwrap();
        let user = g.schema().find_node_label("user").unwrap();
        assert_eq!(g.label_population(director), 200);
        assert_eq!(g.label_population(user), 600);
        assert!(g.edge_count() > 600 * 2);
    }

    #[test]
    fn gender_groups_reflect_skew() {
        let g = social_graph(SocialConfig {
            directors: 2000,
            majority_share: 0.7,
            seed: 4,
        });
        let groups = gender_groups(&g);
        let a = groups.size(GroupId(0)) as f64;
        let b = groups.size(GroupId(1)) as f64;
        let share = a / (a + b);
        assert!((share - 0.7).abs() < 0.05, "observed share {share}");
    }

    #[test]
    fn senior_recommendations_favor_the_minority_group() {
        let g = social_graph(SocialConfig {
            directors: 1000,
            majority_share: 0.7,
            seed: 13,
        });
        let s = g.schema();
        let user = s.find_node_label("user").unwrap();
        let gender = s.find_attr("gender").unwrap();
        let exp = s.find_attr("yearsOfExp").unwrap();
        let recommend = s.find_edge_label("recommend").unwrap();
        let mut senior = (0u32, 0u32); // (minority, total)
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
                    if val == AttrValue::Int(1) {
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

    #[test]
    fn recommendations_are_skewed() {
        let g = social_graph(SocialConfig {
            directors: 300,
            majority_share: 0.6,
            seed: 11,
        });
        let director = g.schema().find_node_label("director").unwrap();
        let degs: Vec<usize> = g
            .nodes_with_label(director)
            .iter()
            .map(|&v| g.in_degree(v))
            .collect();
        let max = *degs.iter().max().unwrap();
        let mean = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        assert!(
            (max as f64) > mean * 3.0,
            "preferential attachment should create hubs (max {max}, mean {mean})"
        );
    }
}

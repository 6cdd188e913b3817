//! Bring your own graph: load a TSV graph, write the query template in the
//! text DSL, and generate fair + diverse query suggestions.
//!
//! ```text
//! cargo run --example custom_graph_dsl
//! ```

use fairsqg::graph::read_tsv;
use fairsqg::prelude::*;
use fairsqg::query::{parse_template, render_instance};
use std::io::BufReader;

/// An inline TSV graph: a small citation network. In practice this comes
/// from a file (`read_tsv(BufReader::new(File::open(path)?))`).
const GRAPH_TSV: &str = "\
# nodes: id\tlabel\tattr=value ...
0\tpaper\ttopic=s:ML\tcitations=120\tyear=2015
1\tpaper\ttopic=s:ML\tcitations=80\tyear=2017
2\tpaper\ttopic=s:DB\tcitations=95\tyear=2016
3\tpaper\ttopic=s:DB\tcitations=30\tyear=2019
4\tpaper\ttopic=s:ML\tcitations=15\tyear=2021
5\tpaper\ttopic=s:DB\tcitations=10\tyear=2022
6\tauthor\thIndex=25
7\tauthor\thIndex=12

# edges: src\tlabel\tdst
1\tcites\t0
2\tcites\t0
3\tcites\t2
4\tcites\t1
5\tcites\t2
5\tcites\t3
6\tauthored\t0
6\tauthored\t2
6\tauthored\t4
7\tauthored\t1
7\tauthored\t3
7\tauthored\t5
";

/// The query template in the DSL: papers by some author, with a
/// parameterized citation threshold and an optional requirement of being
/// cited by another paper.
const TEMPLATE_DSL: &str = "\
node p  : paper
node a  : author
node c  : paper
edge a -authored-> p
optional c -cites-> p
where p.citations >= ?
output p
";

fn main() {
    let graph = read_tsv(BufReader::new(GRAPH_TSV.as_bytes())).expect("valid TSV");
    println!(
        "loaded graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    let template = parse_template(graph.schema(), TEMPLATE_DSL).expect("valid DSL");

    // Fairness across the two topics: at least one paper of each.
    let s = graph.schema();
    let topic = s.find_attr("topic").unwrap();
    let ml = AttrValue::Str(s.find_symbol("ML").unwrap());
    let db = AttrValue::Str(s.find_symbol("DB").unwrap());
    let groups = GroupSet::by_attribute(&graph, topic, &[ml, db]);
    let spec = CoverageSpec::equal_opportunity(2, 1);

    let fair = FairSqg::new(&graph).epsilon(0.25);
    let domains = fair.domains_for(&template);
    let result = fair.generate(&template, &groups, &spec, Algorithm::BiQGen);

    println!(
        "\n{} suggested queries (of {} possible instantiations):",
        result.entries.len(),
        domains.instance_space_size()
    );
    let mut entries = result.entries.clone();
    entries.sort_by(|a, b| {
        b.objectives()
            .fcov
            .partial_cmp(&a.objectives().fcov)
            .unwrap()
    });
    for e in &entries {
        println!(
            "  (ML={}, DB={})  δ={:.2} f={:.0}  {}",
            e.result.counts[0],
            e.result.counts[1],
            e.result.objectives.delta,
            e.result.objectives.fcov,
            render_instance(s, &template, &domains, &e.inst),
        );
    }
}

//! The library workloads: `gen-div`, `gen-match` and `gen-par`.
//!
//! A *panel* is a list of (case, algorithm) members. One repetition — one
//! job — runs every member from a cold `Configuration` to its
//! `Generated`; the timed phase repeats the panel for `--seconds`.

use crate::check::{self, ArchiveKey};
use crate::inputs::{self, Case};
use crate::load::sub_seed;
use crate::metrics::Report;
use crate::replay::{self, Sweep};
use crate::span::{self, Tracer};
use crate::stats::{median, ratio, Summary};
use crate::{proc, Ctx};
use fairsqg_algo::{
    biqgen, enum_qgen, par_enum_qgen, rfqgen, BiQGenOptions, GenStats, Generated, RfQGenOptions,
};
use fairsqg_query::{parse_template, DomainConfig, RefinementDomains};
use fairsqg_wire::Value;
use std::time::Instant;

/// `gen-div` sizes. The dense pairwise-distance cache of
/// `fairsqg-measures` stops at a population of 1024: half the members sit
/// above it (hash-map cache), half below (dense table).
const DIV_ABOVE_CAP: usize = 1200;
const DIV_BELOW_CAP: usize = 800;
/// Constants per range variable on `gen-div`/`gen-par`:
/// `|I(Q)| = (3+1)² · 2 = 32`, which keeps one panel pass near a second.
const DIV_RANGE_VALUES: usize = 3;
/// `gen-match`: `|V_uo|`, constants per range variable
/// (`|I(Q)| = 9² · 2 = 162`), and how many citation graphs are drawn. The
/// cost of matching on one preferential-attachment graph swings by a
/// fifth with the draw; sixteen draws bring the panel's swing to a
/// twentieth.
const MATCH_PAPERS: usize = 1000;
const MATCH_RANGE_VALUES: usize = 8;
const MATCH_DRAWS: usize = 16;
/// Set-up is cheap here, so it is repeated to report a median.
const SETUP_REPS: usize = 3;
const MIN_REPS: usize = 3;
/// Untimed multi-threaded passes before `gen-par`'s timed ones.
const PAR_WARM_S: f64 = 1.5;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Div,
    Match,
    Par,
}

#[derive(Clone, Copy)]
enum Algo {
    Rf,
    Bi,
    Enum,
    Par(usize),
}

impl Algo {
    fn name(self) -> String {
        match self {
            Algo::Rf => "rfqgen".into(),
            Algo::Bi => "biqgen".into(),
            Algo::Enum => "enum_qgen".into(),
            Algo::Par(t) => format!("par_enum_qgen/{t}"),
        }
    }

    /// Whether the search offers every feasible instance to its archive.
    fn exhaustive(self) -> bool {
        matches!(self, Algo::Enum | Algo::Par(_))
    }

    fn run(self, case: &Case) -> Generated {
        let cfg = case.config();
        match self {
            Algo::Rf => rfqgen(cfg, RfQGenOptions::default()),
            Algo::Bi => biqgen(cfg, BiQGenOptions::default()),
            Algo::Enum => enum_qgen(cfg, false),
            Algo::Par(threads) => par_enum_qgen(cfg, threads),
        }
    }
}

struct Panel {
    cases: Vec<Case>,
    /// (index into `cases`, algorithm).
    members: Vec<(usize, Algo)>,
    /// Members (by index) that are timed together, back to back.
    groups: Vec<Vec<usize>>,
}

fn lki_case(directors: usize, seed: u64) -> Case {
    let g = inputs::lki(directors, seed);
    let groups = inputs::lki_groups(&g);
    Case::build(
        format!("LKI-{directors}"),
        g,
        inputs::LKI_5,
        groups,
        DIV_RANGE_VALUES,
    )
}

fn dbp_case(movies: usize, seed: u64) -> Case {
    let g = inputs::dbp(movies, seed);
    let groups = inputs::dbp_groups(&g);
    Case::build(
        format!("DBP-{movies}"),
        g,
        inputs::DBP_5,
        groups,
        DIV_RANGE_VALUES,
    )
}

fn build_panel(workload: Workload, seed: u64, nproc: usize) -> Panel {
    match workload {
        Workload::Div => Panel {
            // Eight independent draws, so that one graph's luck does not
            // set the panel's time.
            cases: vec![
                lki_case(DIV_ABOVE_CAP, sub_seed(seed, 1)),
                lki_case(DIV_ABOVE_CAP, sub_seed(seed, 2)),
                dbp_case(DIV_ABOVE_CAP, sub_seed(seed, 3)),
                dbp_case(DIV_ABOVE_CAP, sub_seed(seed, 4)),
                lki_case(DIV_BELOW_CAP, sub_seed(seed, 5)),
                lki_case(DIV_BELOW_CAP, sub_seed(seed, 6)),
                dbp_case(DIV_BELOW_CAP, sub_seed(seed, 7)),
                dbp_case(DIV_BELOW_CAP, sub_seed(seed, 8)),
            ],
            members: vec![
                (0, Algo::Rf),
                (1, Algo::Bi),
                (2, Algo::Rf),
                (3, Algo::Bi),
                (4, Algo::Rf),
                (5, Algo::Bi),
                (6, Algo::Rf),
                (7, Algo::Bi),
            ],
            groups: vec![(0..8).collect()],
        },
        Workload::Match => {
            let cases: Vec<Case> = (0..MATCH_DRAWS)
                .map(|k| {
                    let g = inputs::cite(MATCH_PAPERS, sub_seed(seed, k as u64 + 1));
                    let groups = inputs::cite_groups(&g);
                    Case::build(
                        format!("Cite-{MATCH_PAPERS}#{k}"),
                        g,
                        inputs::CITE_7,
                        groups,
                        MATCH_RANGE_VALUES,
                    )
                })
                .collect();
            let members = (0..MATCH_DRAWS)
                .flat_map(|c| [(c, Algo::Enum), (c, Algo::Rf)])
                .collect();
            Panel {
                cases,
                members,
                groups: vec![(0..2 * MATCH_DRAWS).collect()],
            }
        }
        // gen-div's two above-cap LKI draws, at `nproc` threads and at
        // one. The two settings are timed apart: threads that start
        // between single-threaded stretches mostly share one core here.
        Workload::Par => Panel {
            cases: vec![
                lki_case(DIV_ABOVE_CAP, sub_seed(seed, 1)),
                lki_case(DIV_ABOVE_CAP, sub_seed(seed, 2)),
            ],
            members: vec![
                (0, Algo::Par(nproc)),
                (1, Algo::Par(nproc)),
                (0, Algo::Par(1)),
                (1, Algo::Par(1)),
            ],
            groups: vec![vec![0, 1], vec![2, 3]],
        },
    }
}

fn add_stats(total: &mut GenStats, s: &GenStats) {
    total.spawned += s.spawned;
    total.verified += s.verified;
    total.cache_hits += s.cache_hits;
    total.pruned_infeasible += s.pruned_infeasible;
    total.pruned_sandwich += s.pruned_sandwich;
    total.index_candidates += s.index_candidates;
    total.scan_fallbacks += s.scan_fallbacks;
    total.shard_skips += s.shard_skips;
    total.distance_cache_hits += s.distance_cache_hits;
    total.distance_cache_misses += s.distance_cache_misses;
    total.order_replans += s.order_replans;
    total.pruned_candidates += s.pruned_candidates;
    total.cand_memo_hits += s.cand_memo_hits;
}

pub fn run(workload: Workload, name: &str, ctx: &Ctx) -> Report {
    let mut report = Report::default();

    // Set-up: draw the graphs, parse the templates, build the domains.
    let mut setup_s = Vec::new();
    let mut panel = None;
    for _ in 0..SETUP_REPS {
        // One panel resident at a time, so that peak memory is a panel's
        // and not two.
        drop(panel.take());
        let t = Instant::now();
        panel = Some(build_panel(workload, ctx.seed, ctx.host.nproc));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let panel = panel.expect("at least one set-up");
    report.set("setup_s", median(&setup_s));
    report.set("datagen.build_s", median(&setup_s));
    for case in &panel.cases {
        report.note(case.describe());
    }

    // One untimed pass: page the code in and take the reference outputs
    // every later repetition must reproduce.
    let reference: Vec<Generated> = panel
        .members
        .iter()
        .map(|&(c, algo)| algo.run(&panel.cases[c]))
        .collect();
    let reference_keys: Vec<ArchiveKey> = reference
        .iter()
        .map(|out| check::archive_key(&out.entries))
        .collect();

    // Timed phase: each group of members is repeated back to back for its
    // share of `--seconds`; a job is one pass over every group.
    let mut member_ms: Vec<Vec<f64>> = vec![Vec::new(); panel.members.len()];
    let mut job_ms = 0.0;
    let mut job_mean_ms = 0.0;
    let mut job_cpu_ms = Some(0.0);
    let share_s = ctx.seconds / panel.groups.len() as f64;
    for (g, group) in panel.groups.iter().enumerate() {
        let mut pass = |report: &mut Report, timed: bool| {
            for &m in group {
                let (c, algo) = panel.members[m];
                let t = Instant::now();
                let out = std::hint::black_box(algo.run(&panel.cases[c]));
                if timed {
                    member_ms[m].push(t.elapsed().as_secs_f64() * 1e3);
                }
                report.check(
                    !out.truncated
                        && !out.entries.is_empty()
                        && check::archive_key(&out.entries) == reference_keys[m],
                );
            }
        };
        if workload == Workload::Par && g == 0 {
            // This box hands a second hardware thread to a process only
            // after about a second of demand for it.
            let warm = Instant::now();
            while warm.elapsed().as_secs_f64() < PAR_WARM_S {
                pass(&mut report, false);
            }
        }
        let cpu_before = proc::cpu_ms(None);
        let phase = Instant::now();
        let mut pass_ms = Vec::new();
        while pass_ms.len() < MIN_REPS || phase.elapsed().as_secs_f64() < share_s {
            let t = Instant::now();
            pass(&mut report, true);
            pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let passes = pass_ms.len() as f64;
        let cpu = proc::cpu_ms(None)
            .zip(cpu_before)
            .map(|(a, b)| (a - b) / passes);
        job_cpu_ms = job_cpu_ms.zip(cpu).map(|(a, b)| a + b);
        let s = Summary::of(&pass_ms).expect("at least one pass");
        job_ms += s.median;
        job_mean_ms += phase.elapsed().as_secs_f64() * 1e3 / passes;
        report.note(format!(
            "group {g}: n={} q1={:.2} median={:.2} q3={:.2} ms",
            s.n, s.q1, s.median, s.q3
        ));
    }
    report.set("lat_p50_ms", job_ms);
    report.set("gen_ms", job_ms);
    report.set("jobs_per_s", 1e3 / job_mean_ms);
    report.set_opt("cpu_ms_per_job", job_cpu_ms);
    for (m, &(c, algo)) in panel.members.iter().enumerate() {
        report.note(format!(
            "  {}/{}: median {:.2} ms, {} entries, {} verified",
            panel.cases[c].name,
            algo.name(),
            median(&member_ms[m]),
            reference[m].entries.len(),
            reference[m].stats.verified,
        ));
    }
    if workload == Workload::Par {
        let total = |group: &[usize]| -> f64 { group.iter().map(|&m| median(&member_ms[m])).sum() };
        let speedup = ratio(total(&panel.groups[1]), total(&panel.groups[0]));
        let threads = reference[0].stats.threads_used.max(1) as f64;
        report.set("algo.par_speedup", speedup);
        report.set("algo.par_efficiency", speedup / threads);
    }

    // The program's own counters, over one pass of the panel.
    let mut total = GenStats::default();
    for out in &reference {
        add_stats(&mut total, &out.stats);
    }
    report.set("algo.verified", total.verified as f64);
    report.set("algo.spawned", total.spawned as f64);
    report.set(
        "algo.pruned_share",
        ratio(
            (total.pruned_infeasible + total.pruned_sandwich) as f64,
            total.spawned as f64,
        ),
    );
    report.set("algo.eval_cache_hits", total.cache_hits as f64);
    report.set(
        "measures.distance_hit_rate",
        ratio(
            total.distance_cache_hits as f64,
            (total.distance_cache_hits + total.distance_cache_misses) as f64,
        ),
    );
    report.set("matcher.pruned_candidates", total.pruned_candidates as f64);
    report.set("matcher.cand_memo_hits", total.cand_memo_hits as f64);
    report.set("matcher.order_replans", total.order_replans as f64);
    report.set("graph.index_candidates", total.index_candidates as f64);
    report.set("graph.scan_fallbacks", total.scan_fallbacks as f64);
    report.set("graph.shard_skips", total.shard_skips as f64);

    // Output check, and with `--trace 1` the layer attribution: replay
    // each case's lattice sweep, compare it with `enum_qgen` bit for bit,
    // and hold every member's archive against the evaluated universe.
    let mut tracer = Tracer::new(ctx.trace);
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut enum_wall_ms = 0.0;
    for (c, case) in panel.cases.iter().enumerate() {
        let req = c as u64 + 1;
        tracer.time("query.parse", req, || {
            std::hint::black_box(parse_template(case.graph.schema(), case.dsl)).is_ok()
        });
        tracer.time("query.domains", req, || {
            std::hint::black_box(RefinementDomains::build(
                &case.template,
                &case.graph,
                DomainConfig::default(),
            ));
        });
        let sweep = replay::sweep(case, &mut tracer, req);
        let t = Instant::now();
        let enumerated = enum_qgen(case.config(), false);
        enum_wall_ms += t.elapsed().as_secs_f64() * 1e3;
        let same = check::bit_identical(&sweep.archive, &enumerated.entries);
        if !same {
            report.note(format!(
                "{}: replay archive differs from enum_qgen",
                case.name
            ));
        }
        report.check(same);
        sweeps.push(sweep);
    }
    for (m, &(c, algo)) in panel.members.iter().enumerate() {
        let verdict = check::check_case_archive(
            &panel.cases[c],
            &sweeps[c],
            &reference[m].entries,
            algo.exhaustive(),
        );
        if let Err(e) = &verdict {
            report.note(format!("archive check failed: {e}"));
        }
        report.check(verdict.is_ok());
    }
    check::validation_input(&mut report, ctx.seed);

    if ctx.trace {
        let spans = tracer.spans();
        let own = span::self_ms_by_name(spans);
        let ms = |name: &str| own.get(name).copied().unwrap_or(0.0);
        let sweep_ms: f64 = spans
            .iter()
            .filter(|s| s.name == replay::SWEEP)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum();
        let diversity = ms(replay::DIVERSITY) + ms(replay::MEASURE_NEW);
        let matcher = ms(replay::MATCH) + ms(replay::PLAN);
        report.set("measures.diversity_ms", diversity);
        report.set("measures.diversity_share", ratio(diversity, sweep_ms));
        report.set("measures.coverage_ms", ms(replay::COVERAGE));
        report.set("matcher.plan_us", ms(replay::PLAN) * 1e3);
        report.set("matcher.match_ms", ms(replay::MATCH));
        report.set("matcher.share", ratio(matcher, sweep_ms));
        report.set("query.parse_us", ms("query.parse") * 1e3);
        report.set("query.domains_us", ms("query.domains") * 1e3);
        report.set("query.materialize_us", ms(replay::MATERIALIZE) * 1e3);
        report.set("algo.archive_us", ms(replay::ARCHIVE) * 1e3);
        report.set(
            "algo.driver_self_ms",
            ms(replay::SWEEP) + ms(replay::ENUMERATE),
        );
        let wall_ms: f64 = sweeps.iter().map(|s| s.wall_ms).sum();
        // Self times partition each sweep span, so the spans account for
        // exactly `sweep_ms`; what is left of the wall time is the clock
        // reads between the outer timer and the span's own edges.
        report.set(
            "trace.sum_gap_share",
            ratio((wall_ms - sweep_ms).abs(), wall_ms),
        );
        report.set(
            "trace.overhead_share",
            ratio(wall_ms - enum_wall_ms, enum_wall_ms),
        );
        report.note(format!(
            "replay: {wall_ms:.2} ms traced over {} spans, enum_qgen {enum_wall_ms:.2} ms untraced",
            spans.len()
        ));
        ctx.write_trace(
            name,
            vec![(
                "cases",
                Value::Array(
                    panel
                        .cases
                        .iter()
                        .map(|c| Value::from(c.describe()))
                        .collect(),
                ),
            )],
            spans,
        );
    }

    report.set("fail_share", report.fail_share());
    report.set_opt("peak_rss_mb", proc::peak_rss_mb(None));
    report
}

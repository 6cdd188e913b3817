//! The `store-load` workload: the storage write and read paths, and the
//! cold start a restart pays, on a large LKI graph.
//!
//! A job is one cycle from a TSV file to the first served result:
//! `convert_tsv_path`, then `fairsqg serve --load` on the fresh `.fsg`
//! (open + full validation) until the first job's result arrives. Each
//! cycle also times, outside that latency, the TSV parse, repeated
//! `open_path` calls, and one generation on the mapped against the
//! heap-resident graph.

use crate::load::sub_seed;
use crate::metrics::Report;
use crate::serve::{job, Reference, ServerChild};
use crate::span::{self, Tracer};
use crate::stats::median;
use crate::{inputs, proc, Ctx};
use fairsqg_datagen::{stream_tsv_to_path, DatasetKind};
use fairsqg_graph::read_tsv_path;
use fairsqg_store::{convert_tsv_path, open_path};
use std::time::{Duration, Instant};

/// `|V_uo|`: directors of the LKI graph (4.1 nodes and ~13.5 edges per
/// director).
const DIRECTORS: usize = 100_000;
const OPENS_PER_CYCLE: usize = 10;
const MIN_CYCLES: u64 = 2;
const SETUP_REPS: usize = 3;
const WAIT: Duration = Duration::from_secs(120);

const CYCLE: &str = "cycle";
const TO_FIRST_RESULT: &str = "tsv_to_first_result";
const CONVERT: &str = "store.convert_tsv_path";
const FIRST_RESULT: &str = "serve.spawn_to_first_result";
const STOP: &str = "serve.stop";
const PARSE: &str = "graph.read_tsv_path";
const OPEN: &str = "store.open_path";
const GEN_MAPPED: &str = "generate.mapped";
const GEN_HEAP: &str = "generate.heap";
const DROP: &str = "drop";

pub fn run(name: &str, ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let bin = ctx.server_binary()?;
    let dir = ctx.scratch_dir();
    let (tsv, fsg) = (dir.join("g.tsv"), dir.join("g.fsg"));
    let seed = sub_seed(ctx.seed, 1);

    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        stream_tsv_to_path(DatasetKind::Lki, DIRECTORS, seed, &tsv).map_err(|e| e.to_string())?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setup_s));
    report.set("datagen.build_s", median(&setup_s));
    let tsv_bytes = std::fs::metadata(&tsv).map_err(|e| e.to_string())?.len();

    // The first job every restarted server is asked, at the cover its
    // root instance supports.
    let heap = read_tsv_path(&tsv).map_err(|e| e.to_string())?;
    let dsl = inputs::LKI_FIRST_JOB;
    let cover = {
        let plan = fairsqg_service::plan_spec(&heap, &job(0, dsl, 1, 0.5))?;
        inputs::half_root_cover(&heap, &plan.template, &plan.domains, &plan.groups)
    };
    let spec = job(0, dsl, cover, 0.5);
    let expected = Reference::new([&heap]).entries(&spec)?;
    drop(heap);

    // Every step of a cycle runs inside a span; the metrics are read off
    // the spans, and `--trace 1` writes them out.
    let mut tracer = Tracer::new(true);
    let cpu_before = proc::cpu_ms(None);
    let mut child_cpu_ms = Some(0.0);
    let phase = Instant::now();
    let mut cycles = 0u64;
    let mut fsg_bytes = 0;
    while cycles < MIN_CYCLES || phase.elapsed().as_secs_f64() < ctx.seconds {
        cycles += 1;
        let req = cycles;
        tracer.enter(CYCLE, req);

        // The timed path: TSV → .fsg → serving process → first result.
        tracer.enter(TO_FIRST_RESULT, req);
        fsg_bytes = tracer
            .time(CONVERT, req, || convert_tsv_path(&tsv, &fsg))
            .map_err(|e| e.to_string())?
            .bytes;
        let (server, client, outcome) = tracer.time(FIRST_RESULT, req, || {
            let server = ServerChild::spawn(&bin, std::slice::from_ref(&fsg), ctx.host.nproc)?;
            let client = server.connect()?;
            let outcome = client
                .submit_streaming(&spec)
                .and_then(|sub| sub.wait(WAIT))
                .map_err(|e| format!("first job: {e}"))?;
            Ok::<_, String>((server, client, outcome))
        })?;
        tracer.exit();
        let served = outcome.result.as_ref().and_then(|r| r.get("entries"));
        report.check(outcome.state == "done" && !outcome.truncated && served == Some(&expected));
        child_cpu_ms = child_cpu_ms
            .zip(proc::cpu_ms(Some(server.pid())))
            .map(|(a, b)| a + b);
        tracer.time(STOP, req, || server.stop(&client))?;

        // Beside it: the parse the `.fsg` replaces, the open a reload
        // pays, and what the mapped layout costs a query.
        let heap = tracer
            .time(PARSE, req, || read_tsv_path(&tsv))
            .map_err(|e| e.to_string())?;
        let mut mapped = None;
        for _ in 0..OPENS_PER_CYCLE {
            mapped = Some(
                tracer
                    .time(OPEN, req, || open_path(&fsg))
                    .map_err(|e| e.to_string())?,
            );
        }
        let mapped = mapped.expect("at least one open");
        for (graph, span) in [(&mapped.graph, GEN_MAPPED), (&heap, GEN_HEAP)] {
            let entries = tracer.time(span, req, || Reference::new([graph]).entries(&spec))?;
            report.check(entries == expected);
        }
        let footprint = mapped.graph.storage();
        report.set("store.mapped_mb", footprint.mapped_bytes as f64 / 1e6);
        report.set("store.heap_mb", footprint.heap_bytes as f64 / 1e6);
        tracer.time(DROP, req, || drop((heap, mapped)));
        tracer.exit();
    }
    let elapsed_s = phase.elapsed().as_secs_f64();
    let spans = tracer.spans();
    let ms = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    };

    report.set("lat_p50_ms", median(&ms(TO_FIRST_RESULT)));
    report.set("jobs_per_s", cycles as f64 / elapsed_s);
    report.set_opt(
        "cpu_ms_per_job",
        cpu_before
            .zip(proc::cpu_ms(None))
            .zip(child_cpu_ms)
            .map(|((b, a), child)| (a - b + child) / cycles as f64),
    );
    report.set_opt("peak_rss_mb", proc::peak_rss_mb(None));
    let convert_s = median(&ms(CONVERT)) / 1e3;
    report.set("convert_s", convert_s);
    report.set("parse_s", median(&ms(PARSE)) / 1e3);
    report.set("open_ms", median(&ms(OPEN)));
    report.set("first_result_ms", median(&ms(FIRST_RESULT)));
    report.set("bytes_per_tsv_byte", fsg_bytes as f64 / tsv_bytes as f64);
    report.set("store.write_mb_per_s", fsg_bytes as f64 / 1e6 / convert_s);
    let (gen_mapped, gen_heap) = (median(&ms(GEN_MAPPED)), median(&ms(GEN_HEAP)));
    report.set("store.mmap_gen_ratio", gen_mapped / gen_heap);
    report.note(format!(
        "LKI-{DIRECTORS}: TSV {:.1} MB, .fsg {:.1} MB, cover {cover}, {cycles} cycles of {OPENS_PER_CYCLE} opens",
        tsv_bytes as f64 / 1e6,
        fsg_bytes as f64 / 1e6,
    ));
    report.note(format!(
        "generation: mapped {gen_mapped:.1} ms, heap {gen_heap:.1} ms"
    ));
    if ctx.trace {
        let in_cycles: f64 = ms(CYCLE).iter().sum();
        report.set(
            "trace.sum_gap_share",
            (elapsed_s * 1e3 - in_cycles).abs() / (elapsed_s * 1e3),
        );
        // The spans here wrap calls of milliseconds to seconds; what
        // recording them costs is measured on empty spans.
        report.set(
            "trace.overhead_share",
            span::empty_span_ns() * spans.len() as f64 / (elapsed_s * 1e9),
        );
        ctx.write_trace(name, Vec::new(), spans);
    }

    crate::check::validation_input(&mut report, ctx.seed);
    report.set("fail_share", report.fail_share());
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

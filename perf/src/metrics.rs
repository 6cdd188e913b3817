//! The benchmark's vocabulary — workload and metric names with their
//! units — and the report one workload run fills in. `BENCHMARK.json`
//! lists the same names; a test keeps the two in step.

use std::collections::BTreeMap;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "gen-div",
        why: "rfqgen+biqgen, large match sets on DBP/LKI above and below the dense distance-cache cap: diversity scoring dominates",
    },
    WorkloadDef {
        name: "gen-match",
        why: "enum_qgen+rfqgen on Cite with a 7-edge template: small match sets, deep backtracking, the matcher dominates",
    },
    WorkloadDef {
        name: "gen-par",
        why: "par_enum_qgen at nproc threads and at 1 on gen-div's above-cap LKI input: the same layers used concurrently",
    },
    WorkloadDef {
        name: "serve-hot",
        why: "closed loop through the real mux server, 32 specs drawn Zipf(1), cache pre-filled: wire/aio/mux/engine overhead, generation near 0",
    },
    WorkloadDef {
        name: "serve-open",
        why: "open loop, Poisson arrivals at three fixed rates, every job a unique lambda: generation inside the server and queue wait dominate",
    },
    WorkloadDef {
        name: "store-load",
        why: "TSV to .fsg to first served result on a large LKI graph: store write and read paths and the cold start a restart pays",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Reported by every workload with tracing off. A *job* is the
/// workload's unit of work: one pass over the panel (`gen-*`), one served
/// request (`serve-*`), one TSV-to-first-result cycle (`store-load`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("lat_p50_ms", "ms"),
    m("jobs_per_s", "1/s"),
    m("cpu_ms_per_job", "ms"),
    m("peak_rss_mb", "MB"),
];

/// Reported by every workload with tracing on; a layer the workload does
/// not enter reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end numbers that only some workloads have.
    m("gen_ms", "ms"),
    m("lat_p99_ms", "ms"),
    m("max_rate_ok", "1/s"),
    m("fail_share", "ratio"),
    m("convert_s", "s"),
    m("parse_s", "s"),
    m("open_ms", "ms"),
    m("first_result_ms", "ms"),
    m("bytes_per_tsv_byte", "ratio"),
    // Lattice-sweep replay (gen-*).
    m("measures.diversity_ms", "ms"),
    m("measures.diversity_share", "ratio"),
    m("measures.coverage_ms", "ms"),
    m("measures.distance_hit_rate", "ratio"),
    m("matcher.plan_us", "us"),
    m("matcher.match_ms", "ms"),
    m("matcher.share", "ratio"),
    m("matcher.pruned_candidates", "count"),
    m("matcher.cand_memo_hits", "count"),
    m("matcher.order_replans", "count"),
    m("graph.index_candidates", "count"),
    m("graph.scan_fallbacks", "count"),
    m("graph.shard_skips", "count"),
    m("query.parse_us", "us"),
    m("query.domains_us", "us"),
    m("query.materialize_us", "us"),
    m("algo.archive_us", "us"),
    m("algo.driver_self_ms", "ms"),
    m("algo.verified", "count"),
    m("algo.spawned", "count"),
    m("algo.pruned_share", "ratio"),
    m("algo.eval_cache_hits", "count"),
    m("algo.par_speedup", "ratio"),
    m("algo.par_efficiency", "ratio"),
    // Job-path replay and live server (serve-*).
    m("service.spec_us", "us"),
    m("service.plan_cold_us", "us"),
    m("service.plan_warm_us", "us"),
    m("service.generate_us", "us"),
    m("service.render_us", "us"),
    m("wire.decode_us", "us"),
    m("wire.encode_us", "us"),
    m("mux.ping_us", "us"),
    m("mux.hit_overhead_us", "us"),
    m("engine.queue_wait_ms", "ms"),
    m("engine.generate_ms", "ms"),
    m("engine.plan_ms", "ms"),
    m("engine.render_ms", "ms"),
    m("engine.cache_hit_rate", "ratio"),
    m("engine.coalesced_share", "ratio"),
    m("engine.rejected", "count"),
    m("engine.brownout_jobs", "count"),
    m("engine.rss_kb_per_kjob", "kB"),
    m("warm.plan_hit_rate", "ratio"),
    m("warm.diversity_hit_rate", "ratio"),
    m("stream.deltas_per_job", "ratio"),
    m("open.r1.p99_ms", "ms"),
    m("open.r2.p99_ms", "ms"),
    m("open.r3.p99_ms", "ms"),
    m("open.r1.queue_wait_ms", "ms"),
    m("open.r2.queue_wait_ms", "ms"),
    m("open.r3.queue_wait_ms", "ms"),
    m("open.late_p99_ms", "ms"),
    m("open.backlog_end", "count"),
    // Storage (store-load).
    m("store.write_mb_per_s", "MB/s"),
    m("store.mapped_mb", "MB"),
    m("store.heap_mb", "MB"),
    m("store.mmap_gen_ratio", "ratio"),
    // Set-up and the tracer itself.
    m("datagen.build_s", "s"),
    m("trace.overhead_share", "ratio"),
    m("trace.sum_gap_share", "ratio"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Of those: failed, rejected, truncated, lossy, brownout-marked or
    /// with a wrong output.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Sizes, sample counts and quartiles, for the human reader.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unregistered metric '{name}'");
        assert!(value.is_finite(), "metric '{name}' is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Sets a metric that a `/proc` reader may have failed to produce.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Every registered metric measured in this run, by name with unit.
    pub fn lines(&self) -> Vec<String> {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter_map(|d| {
                self.get(d.name)
                    .map(|v| format!("{:<28} {v:>14.4} {}", d.name, d.unit))
            })
            .collect()
    }

    /// The result object the driver reads: with tracing off every
    /// end-to-end metric (one missing is an error — a `/proc` reader
    /// failed), with tracing on every per-layer metric.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let mut metrics = Vec::new();
        for d in if trace { PER_LAYER } else { END_TO_END } {
            let value = match self.get(d.name) {
                Some(v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric '{}' is absent", d.name)),
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsqg_wire::Value;

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|e| {
                let field = |k| e.get(k).and_then(Value::as_str).unwrap().to_string();
                (
                    field("name"),
                    e.get("unit")
                        .map_or_else(|| field("why"), |_| field("unit")),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names_and_units() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = fairsqg_wire::parse(&text).expect("valid JSON");
        let defs = |list: &[MetricDef]| -> Vec<(String, String)> {
            list.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(names(&json, "end_to_end"), defs(END_TO_END));
        assert_eq!(names(&json, "per_layer"), defs(PER_LAYER));
        let workloads: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(names(&json, "workloads"), workloads);
    }

    #[test]
    fn names_are_unique_and_within_the_schema_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let mut r = Report::default();
        r.check(true);
        for d in END_TO_END {
            r.set(d.name, 1.25);
        }
        let v = fairsqg_wire::parse(&r.result_line(false).unwrap()).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = v.get("metrics").unwrap();
        let lat = metrics.get("lat_p50_ms").unwrap();
        assert_eq!(lat.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(lat.get("unit").and_then(Value::as_str), Some("ms"));
    }

    #[test]
    fn an_absent_end_to_end_metric_is_an_error_not_a_zero() {
        let mut r = Report::default();
        r.check(true);
        r.set_opt("peak_rss_mb", None);
        assert!(r.result_line(false).is_err());
        // Per-layer metrics of layers the workload never enters read 0.
        let v = fairsqg_wire::parse(&r.result_line(true).unwrap()).unwrap();
        let ping = v.get("metrics").unwrap().get("mux.ping_us").unwrap();
        assert_eq!(ping.get("value").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true);
        r.check(false);
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.fail_share(), 0.5);
        assert!(r
            .result_line(true)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}

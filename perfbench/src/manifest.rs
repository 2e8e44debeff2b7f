//! The benchmark's vocabulary — workloads, end-to-end metrics, per-layer
//! metrics — and the `BENCHMARK.json` rendered from it, so the names the
//! binary prints and the names the manifest promises cannot drift apart.

/// How long one run measures; frozen in `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 15;

/// The ten deterministic-arm shapes of `scan_det`.
pub const S10: [&str; 10] = [
    "filter_count",
    "filter_fetch",
    "distinct",
    "distinct_multi",
    "topn",
    "groupby_max",
    "groupby_sum",
    "having",
    "join",
    "skyline",
];

/// The five shapes every `pipelines` arm runs.
pub const S5: [&str; 5] = [
    "join",
    "having",
    "distinct_multi",
    "groupby_sum",
    "filter_fetch",
];

/// The threaded arms of `pipelines`.
pub const PIPELINE_ARMS: [&str; 3] = ["threaded", "sharded", "distributed"];

/// Shapes whose master-side remainder (`execute` − replayed layers) is
/// reported on its own.
pub const OTHER_SHAPES: [&str; 5] = [
    "distinct_multi",
    "join",
    "having",
    "filter_fetch",
    "groupby_sum",
];

/// Shapes replayed on the metered PISA backend.
pub const PISA_SHAPES: [&str; 3] = ["filter_count", "distinct", "topn"];

/// One workload and the reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "scan_det",
        why: "Ten query shapes on the single-threaded switch path with high pruning: gather, fingerprint, prune and master finish do all the work; threads, wire and serving do none.",
    },
    WorkloadDef {
        name: "low_prune_wide",
        why: "Same path on a 120-column table where the switch prunes almost nothing: master sink, survivor materialisation and row fetch dominate, per-block prune upkeep shows as pure cost.",
    },
    WorkloadDef {
        name: "pipelines",
        why: "Threaded, sharded and lossy-wire distributed arms over five shapes on 2 workers/shards: channels, watermarks, tree merge and encode/ship/decode/retry run only here.",
    },
    WorkloadDef {
        name: "serve_repeat",
        why: "One served batch of 32 cycling six repeated queries on a warm filter cache: admission, packing, spill, solo pool and cache hits; the only place sharing and coalescing can pay.",
    },
    WorkloadDef {
        name: "serve_unique",
        why: "One served batch of 32 with no two queries alike and the cache cleared before each batch: every lookup is a miss-and-populate, the cost side of caching and coalescing.",
    },
];

/// One end-to-end metric with its regression bound (share of the
/// parent's median).
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEndDef; 6] = [
    EndToEndDef {
        name: "round_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "shape_geomean_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "cpu_ms_per_query",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "master_frac",
        unit: "ratio",
        better: "lower",
        bound: 0.02,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// One per-layer metric.
pub struct LayerDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn layer(name: impl Into<String>, unit: &'static str, better: &'static str) -> LayerDef {
    LayerDef {
        name: name.into(),
        unit,
        better,
    }
}

/// Every per-layer metric a traced run prints, in manifest order. A
/// workload whose cells never exercise a layer reports 0 for it.
pub fn per_layer() -> Vec<LayerDef> {
    let mut out = Vec::new();
    for s in S10.iter().chain(&["filter_fetch_proj"]) {
        out.push(layer(format!("cheetah.execute_ms.{s}"), "ms", "lower"));
    }
    for arm in PIPELINE_ARMS {
        for s in S5 {
            out.push(layer(format!("{arm}.execute_ms.{s}"), "ms", "lower"));
        }
    }
    out.push(layer("serve.batch_ms", "ms", "lower"));
    out.push(layer("stream.gather_ms", "ms", "lower"));
    out.push(layer("stream.gather_rows_per_s", "1/s", "higher"));
    out.push(layer("stream.fingerprint_ms", "ms", "lower"));
    for s in S10 {
        out.push(layer(format!("core.prune_ms.{s}"), "ms", "lower"));
    }
    for s in S10 {
        out.push(layer(format!("core.forwarded_frac.{s}"), "ratio", "lower"));
    }
    out.push(layer("table.fetch_ms", "ms", "lower"));
    out.push(layer("table.fetch_rows", "count", "lower"));
    out.push(layer("table.fetch_bytes", "bytes", "lower"));
    for s in OTHER_SHAPES {
        out.push(layer(format!("cheetah.other_ms.{s}"), "ms", "lower"));
    }
    out.push(layer("cheetah.other_frac", "ratio", "lower"));
    for s in PISA_SHAPES {
        out.push(layer(format!("pisa.prune_ms.{s}"), "ms", "lower"));
    }
    out.push(layer("spark.round_ms", "ms", "lower"));
    out.push(layer("reference.round_ms", "ms", "lower"));
    out.push(layer("threaded.pass_ms", "ms", "lower"));
    out.push(layer("threaded.outside_pass_ms", "ms", "lower"));
    out.push(layer("sharded.pass_ms", "ms", "lower"));
    out.push(layer("sharded.pass_skew", "ratio", "lower"));
    out.push(layer("sharded.merge_ms", "ms", "lower"));
    out.push(layer("sharded.combine_ms", "ms", "lower"));
    out.push(layer("distributed.wire_ms", "ms", "lower"));
    for c in [
        "ship_attempts",
        "retries",
        "retransmissions",
        "losses",
        "degraded",
    ] {
        out.push(layer(format!("distributed.{c}"), "count", "lower"));
    }
    out.push(layer("distributed.codec_encode_ms", "ms", "lower"));
    out.push(layer("distributed.codec_decode_ms", "ms", "lower"));
    out.push(layer("distributed.codec_words", "count", "lower"));
    out.push(layer("net.encode_ms", "ms", "lower"));
    out.push(layer("net.decode_ms", "ms", "lower"));
    out.push(layer("net.session_ms", "ms", "lower"));
    out.push(layer("net.session_retransmissions", "count", "lower"));
    out.push(layer("serve.packed_frac", "ratio", "higher"));
    out.push(layer("serve.solo_frac", "ratio", "lower"));
    out.push(layer("serve.spilled_frac", "ratio", "lower"));
    out.push(layer("serve.shared_scans", "count", "higher"));
    out.push(layer("serve.cache_hit_rate", "ratio", "higher"));
    out.push(layer("serve.cache_misses", "count", "lower"));
    out.push(layer("serve.solo_sum_ms", "ms", "lower"));
    out.push(layer("serve.speedup_vs_solo", "ratio", "higher"));
    out.push(layer("plan.plan_ms", "ms", "lower"));
    out.push(layer("plan.execute_ms", "ms", "lower"));
    out.push(layer("plan.misprediction_geomean", "ratio", "lower"));
    out.push(layer("plan.misprediction_max", "ratio", "lower"));
    out.push(layer("plan.candidates", "count", "lower"));
    out.push(layer("plan.infeasible", "count", "lower"));
    out.push(layer("workloads.generate_s", "s", "lower"));
    out.push(layer("table.build_s", "s", "lower"));
    out.push(layer("reference.eval_s", "s", "lower"));
    out.push(layer("harness.round_p50_ms", "ms", "lower"));
    out.push(layer("harness.round_p90_ms", "ms", "lower"));
    out.push(layer("harness.round_max_ms", "ms", "lower"));
    out.push(layer("harness.rounds", "count", "higher"));
    out.push(layer("harness.cpu_util", "ratio", "higher"));
    out.push(layer("harness.trace_overhead_frac", "ratio", "lower"));
    out.push(layer("harness.input_checksum", "hash32", "lower"));
    out
}

/// `BENCHMARK.json` as the driver contract wants it: exactly `command`,
/// `paths`, `run_seconds`, `workloads`, `end_to_end`, `per_layer`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}\n",
            w.name,
            w.why,
            sep(i, WORKLOADS.len())
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}\n",
            m.name,
            m.unit,
            m.better,
            m.bound,
            sep(i, END_TO_END.len())
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}\n",
            m.name,
            m.unit,
            m.better,
            sep(i, layers.len())
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn sep(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn manifest_respects_the_driver_limits() {
        let layers = per_layer();
        assert_eq!(layers.len(), 107);
        let mut names: Vec<&str> = layers.iter().map(|l| l.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_matches_the_source() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `perfbench --manifest`"
        );
    }
}

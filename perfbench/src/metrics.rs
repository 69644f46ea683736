//! The declared metric tables. `BENCHMARK.json` at the repository root
//! lists exactly these names, units, directions and bounds (a self-test
//! compares the two), and a run reports exactly these names.

/// One end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload with `--trace 0`.
///
/// `failed_share` is not in this list: it is 0 on every accepted run, and
/// a bound relative to a median of 0 says nothing. Failures are reported
/// through the result line's `correct` / `attempted` / `failed` fields
/// instead, and any failure makes the run exit non-zero.
///
/// The timing bounds are the widest the benchmark contract allows (25 %)
/// because the host needs them: across sets of ten identical runs the
/// interquartile range of the whole-window figures reached 9–25 % of the
/// median, whole minutes of the host being 20–45 % slower for every
/// workload at once (the A/A evidence is in the README).
///
/// `key_bytes` is exact (a pure function of parameters and plan), so any
/// positive bound acts as "must not grow"; 1 % is far below the smallest
/// step key material can move by (one Galois key).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_min_ms",
        unit: "ms",
        higher_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_inf_per_s",
        unit: "1/s",
        higher_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_inf",
        unit: "s",
        higher_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_better: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "key_bytes",
        unit: "bytes",
        higher_better: false,
        bound: 0.01,
    },
];

/// One per-layer metric, named `<layer>.<metric>`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_better: bool,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_better: false,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_better: true,
    }
}

/// The per-layer metrics, reported by every workload with `--trace 1`.
/// A metric that does not apply to a workload (`pack_ms` where the plan
/// has no Pack step) is reported as 0, never omitted.
pub const PER_LAYER: &[PerLayer] = &[
    // core.session — the serving front end, seen from the caller.
    lo("core.session.request_traced_ms", "ms"),
    lo("core.session.trace_overhead_pct", "pct"),
    lo("core.session.overhead_ms", "ms"),
    lo("core.session.latency_p50_ms", "ms"),
    lo("core.session.latency_p90_ms", "ms"),
    hi("core.session.samples", "count"),
    hi("core.session.cache_hits", "count"),
    lo("core.session.cache_misses", "count"),
    lo("core.session.arena_reserved_bytes", "bytes"),
    lo("core.session.max_logit_dev", "logit"),
    hi("core.session.argmax_match_share", "share"),
    // core.plan — compile, keygen, and the plan's exact op counts.
    lo("core.plan.engine_new_ms", "ms"),
    lo("core.plan.compile_ms", "ms"),
    lo("core.plan.keygen_ms", "ms"),
    lo("core.plan.steps", "count"),
    lo("core.plan.galois_keys", "count"),
    lo("core.plan.ops_pmult", "count"),
    lo("core.plan.ops_cmult", "count"),
    lo("core.plan.ops_smult", "count"),
    lo("core.plan.ops_hadd", "count"),
    lo("core.plan.ops_hrot", "count"),
    lo("core.plan.ops_sample_extract", "count"),
    lo("core.plan.ops_mod_switch", "count"),
    lo("core.plan.ops_mismatch", "count"),
    lo("core.plan.model_ms", "ms"),
    lo("core.plan.model_residual_pct", "pct"),
    // core.pipeline — step spans summed per request, and calls per request.
    lo("core.pipeline.encrypt_ms", "ms"),
    lo("core.pipeline.linear_ms", "ms"),
    lo("core.pipeline.mod_switch_ms", "ms"),
    lo("core.pipeline.extract_ms", "ms"),
    lo("core.pipeline.dim_switch_ms", "ms"),
    lo("core.pipeline.residual_add_ms", "ms"),
    lo("core.pipeline.avg_reduce_ms", "ms"),
    lo("core.pipeline.pack_ms", "ms"),
    lo("core.pipeline.fbs_ms", "ms"),
    lo("core.pipeline.s2c_ms", "ms"),
    lo("core.pipeline.output_ms", "ms"),
    lo("core.pipeline.encrypt_calls", "count"),
    lo("core.pipeline.linear_calls", "count"),
    lo("core.pipeline.mod_switch_calls", "count"),
    lo("core.pipeline.extract_calls", "count"),
    lo("core.pipeline.dim_switch_calls", "count"),
    lo("core.pipeline.residual_add_calls", "count"),
    lo("core.pipeline.avg_reduce_calls", "count"),
    lo("core.pipeline.pack_calls", "count"),
    lo("core.pipeline.fbs_calls", "count"),
    lo("core.pipeline.s2c_calls", "count"),
    lo("core.pipeline.output_calls", "count"),
    lo("core.pipeline.step_sum_ms", "ms"),
    // fhe.bfv — unit costs of single evaluator ops, and per-inference counts.
    lo("fhe.bfv.cmult_relin_us", "us"),
    lo("fhe.bfv.tensor_lift_us", "us"),
    lo("fhe.bfv.relinearize_us", "us"),
    lo("fhe.bfv.pmult_us", "us"),
    lo("fhe.bfv.smult_us", "us"),
    lo("fhe.bfv.hadd_us", "us"),
    lo("fhe.bfv.hrot_eager_us", "us"),
    lo("fhe.bfv.hoist_us", "us"),
    lo("fhe.bfv.hrot_hoisted_us", "us"),
    lo("fhe.bfv.encrypt_us", "us"),
    lo("fhe.bfv.decrypt_us", "us"),
    lo("fhe.bfv.rot_eager_per_inf", "count"),
    lo("fhe.bfv.rot_hoisted_per_inf", "count"),
    lo("fhe.bfv.decompose_per_inf", "count"),
    lo("fhe.bfv.lift_computed_per_inf", "count"),
    hi("fhe.bfv.lift_reused_per_inf", "count"),
    // fhe.fbs / fhe.pack / fhe.linear / fhe.extract / fhe.lwe.
    lo("fhe.fbs.lut_interpolate_us", "us"),
    lo("fhe.fbs.cmult_per_call", "count"),
    lo("fhe.fbs.smult_per_call", "count"),
    lo("fhe.fbs.hadd_per_call", "count"),
    lo("fhe.pack.pack_us", "us"),
    lo("fhe.pack.key_bytes", "bytes"),
    lo("fhe.linear.s2c_us", "us"),
    lo("fhe.linear.s2c_rotations", "count"),
    lo("fhe.extract.mod_switch_us", "us"),
    lo("fhe.extract.sample_extract_us", "us"),
    lo("fhe.lwe.keyswitch_us", "us"),
    lo("fhe.lwe.ksk_bytes", "bytes"),
    // math.* — kernels under everything above.
    lo("math.ntt.fwd_us", "us"),
    lo("math.ntt.inv_us", "us"),
    lo("math.ntt.fwd_per_inf", "count"),
    lo("math.ntt.inv_per_inf", "count"),
    lo("math.rns.to_eval_us", "us"),
    lo("math.rns.to_coeff_us", "us"),
    lo("math.rns.base_convert_us", "us"),
    lo("math.rns.pointwise_mul_us", "us"),
    lo("math.rns.scale_round_us", "us"),
    lo("math.arena.takes_per_inf", "count"),
    lo("math.arena.fresh_per_inf", "count"),
    hi("math.arena.pooled_share", "share"),
    hi("math.par.threads", "count"),
    lo("math.par.latency_1thread_ms", "ms"),
    lo("math.par.sys_cpu_share", "share"),
    // nn.qmodel — the plaintext baseline of the same model and input.
    lo("nn.qmodel.plain_forward_us", "us"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(valid_name(name, 64, "_.-"), "bad metric name {name}");
            assert!(valid_name(unit, 16, "_/%.-"), "bad unit {unit}");
            assert!(seen.insert(name), "duplicate metric {name}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` declares exactly the tables above and exactly the
    /// workloads the binary knows.
    #[test]
    fn benchmark_json_matches_the_declared_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let better = |h: bool| if h { "higher" } else { "lower" };
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();

        let declared: Vec<_> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let expected: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better(m.higher_better).to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(declared, expected);

        let declared: Vec<_> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better(m.higher_better).to_string(),
                )
            })
            .collect();
        assert_eq!(declared, expected);

        let declared: Vec<_> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<_> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, expected);
        assert!(declared
            .iter()
            .all(|(n, why)| valid_name(n, 64, "_.-") && why.len() <= 200));
    }
}

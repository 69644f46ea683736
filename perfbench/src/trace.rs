//! The traced pass (`--trace 1`): per-layer metrics measured from
//! outside, by timing calls into each layer's public functions.
//!
//! Three sources, as the README describes: *step spans* from a
//! benchmark-local walker over the public plan IR, *unit costs* of single
//! public ops at the workload's parameters, and *exact counts* from the
//! plan and the crates' counter brackets. Spans inside the program are a
//! later change; nothing here needs one.

use std::time::Instant;

use athena_core::pipeline::{AthenaEngine, AthenaEvalKeys, AthenaSecrets, PipelineStats};
use athena_core::plan::{self, ExecutionPlan, PlanStep, StepOp};
use athena_fhe::bfv::{BfvCiphertext, BfvEvaluator};
use athena_fhe::encoder::encode_coeff;
use athena_fhe::extract::SmallRlwe;
use athena_fhe::fbs::Lut;
use athena_fhe::lwe::LweCiphertext;
use athena_math::par;
use athena_math::prng::Prng;
use athena_math::rns::RnsBasis;
use athena_math::sampler::Sampler;
use athena_math::stats::{alloc_stats, lift_stats, ntt_stats, rot_stats};
use athena_nn::tensor::ITensor;

use crate::json::Json;
use crate::run::{timed_window, Accuracy, Bench, PassResult};
use crate::stats::{cpu_seconds, median, time_best_us, Summary};
use crate::workload::Workload;

/// One span: a named interval caused by `parent` (an index into the same
/// span list), all spans of one request sharing `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans are kept in memory for the whole pass and only aggregated (and,
/// with `--spans`, written out) when it ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, request: usize, parent: Option<usize>, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// One JSON object per line: name, request, parent, start, end.
    pub fn to_json_lines(&self) -> String {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("request", Json::Num(s.request as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
                .to_line()
                    + "\n"
            })
            .collect()
    }
}

/// One row per step label the walker knows, in pipeline order: the label
/// (`StepOp::label`, plus `encrypt` for the input encryption the plan
/// executor performs before step 0), its span name, and its two metrics.
struct StepKind {
    label: &'static str,
    span: &'static str,
    ms_metric: &'static str,
    calls_metric: &'static str,
}

macro_rules! step_kinds {
    ($($label:literal),*) => {
        [$(StepKind {
            label: $label,
            span: concat!("step.", $label),
            ms_metric: concat!("core.pipeline.", $label, "_ms"),
            calls_metric: concat!("core.pipeline.", $label, "_calls"),
        }),*]
    };
}

const STEP_KINDS: [StepKind; 11] = step_kinds!(
    "encrypt",
    "linear",
    "mod_switch",
    "extract",
    "dim_switch",
    "residual_add",
    "avg_reduce",
    "pack",
    "fbs",
    "s2c",
    "output"
);

fn span_name(label: &str) -> &'static str {
    STEP_KINDS
        .iter()
        .find(|k| k.label == label)
        .unwrap_or_else(|| panic!("the walker has no step {label}"))
        .span
}

/// The plan's steps in execution order.
fn plan_steps(plan: &ExecutionPlan) -> impl Iterator<Item = &PlanStep> {
    plan.layers.iter().flat_map(|l| &l.steps)
}

/// Executes `plan` on one input by calling the public `AthenaEngine`
/// per-step primitives in the order `plan::execute` does, with a span
/// `request → step.<label>` around each step. It supports exactly the step
/// vocabulary the four workloads compile to (no max-pool), performs the
/// same exact modular arithmetic, and draws on `sampler` only for the
/// input encryption — so its logits are bit-identical to `plan::execute`
/// under the same sampler seed, which the traced pass asserts.
#[allow(clippy::too_many_arguments)]
pub fn walk(
    engine: &AthenaEngine,
    secrets: &AthenaSecrets,
    keys: &AthenaEvalKeys,
    plan: &ExecutionPlan,
    input: &ITensor,
    sampler: &mut Sampler,
    tracer: &mut Tracer,
    request: usize,
) -> Vec<f64> {
    assert_eq!(input.shape(), &plan.input_shape[..], "input shape mismatch");
    let root = tracer.open(request, None, "request");
    let mut stats = PipelineStats::default();

    let mut values: Vec<Option<BfvCiphertext>> = vec![None; plan.layers.len() + 1];
    let mut cur: Option<BfvCiphertext> = None;
    let mut small: Option<SmallRlwe> = None;
    let mut big: Vec<LweCiphertext> = Vec::new();
    let mut acc: Vec<LweCiphertext> = Vec::new();
    let mut slots: Vec<Option<LweCiphertext>> = Vec::new();
    let mut packed: Option<BfvCiphertext> = None;
    let mut boot: Option<BfvCiphertext> = None;
    let mut logits: Vec<f64> = Vec::new();

    let dim_switch = |big: &[LweCiphertext], drop_to_t: bool| {
        let sw = engine.dim_switch(big, keys);
        if drop_to_t {
            engine.lwes_to_t(&sw)
        } else {
            sw
        }
    };

    let id = tracer.open(request, Some(root), span_name("encrypt"));
    let mut coeffs = vec![0i64; plan.n];
    for (flat, &pos) in plan.input_positions.iter().enumerate() {
        coeffs[pos] = input.data()[flat];
    }
    let all: Vec<usize> = (0..plan.n).collect();
    values[0] = Some(engine.encrypt_at(&coeffs, &all, secrets, sampler));
    tracer.close(id);

    for step in plan_steps(plan) {
        let id = tracer.open(request, Some(root), span_name(step.op.label()));
        match &step.op {
            StepOp::Linear {
                value,
                kernel,
                bias,
            } => {
                let ct = values[*value].as_ref().expect("producer stored");
                cur = Some(engine.linear(ct, kernel, bias, &mut stats));
            }
            StepOp::ModSwitch { value } => {
                let src = match value {
                    Some(i) => values[*i].as_ref().expect("value stored"),
                    None => cur.as_ref().expect("pending linear output"),
                };
                small = Some(engine.mod_switch_mid(src));
            }
            StepOp::ExtractLwes { positions } => {
                let s = small.as_ref().expect("mod-switched ciphertext");
                big = engine.sample_extract(s, positions, &mut stats);
            }
            StepOp::DimSwitch { drop_to_t } => {
                acc.extend(dim_switch(&std::mem::take(&mut big), *drop_to_t));
            }
            StepOp::ResidualAdd {
                skip,
                positions,
                mult,
                drop_to_t,
            } => {
                let ct = values[*skip].as_ref().expect("skip stored");
                let s = engine.mod_switch_mid(ct);
                let b = engine.sample_extract(&s, positions, &mut stats);
                let sw = dim_switch(&b, *drop_to_t);
                assert_eq!(sw.len(), acc.len(), "skip shape mismatch");
                for (a, s) in acc.iter_mut().zip(&sw) {
                    *a = engine.lwe_add_scaled(a, s, *mult);
                }
            }
            StepOp::AvgReduce { k, shape } => {
                let lwes = std::mem::take(&mut acc);
                let [c, h, w] = *shape;
                for ci in 0..c {
                    for oy in 0..h / k {
                        for ox in 0..w / k {
                            let mut sum: Option<LweCiphertext> = None;
                            for ky in 0..*k {
                                for kx in 0..*k {
                                    let e = &lwes[(ci * h + oy * k + ky) * w + ox * k + kx];
                                    sum = Some(match sum {
                                        None => e.clone(),
                                        Some(a) => engine.lwe_add_scaled(&a, e, 1),
                                    });
                                }
                            }
                            acc.push(sum.expect("k >= 1"));
                        }
                    }
                }
            }
            StepOp::Pack { slot_of } => {
                let lwes = std::mem::take(&mut acc);
                slots = slot_of.iter().map(|f| f.map(|f| lwes[f].clone())).collect();
                packed = Some(engine.pack(&slots, keys, &mut stats));
            }
            StepOp::Fbs { lut } => {
                let p = packed.take().expect("packed ciphertext");
                boot = Some(engine.fbs(&p, lut, &slots, keys, &mut stats));
            }
            StepOp::S2C { value, .. } => {
                let b = boot.take().expect("bootstrapped ciphertext");
                values[*value] = Some(engine.s2c(&b, keys, &mut stats));
                slots.clear();
            }
            StepOp::Output { scale } => {
                logits = engine
                    .decrypt_lwes(&acc, secrets)
                    .iter()
                    .map(|&v| v as f64 * scale)
                    .collect();
            }
            StepOp::MaxReduce { .. } => panic!("the walker has no step max_reduce"),
        }
        tracer.close(id);
    }
    tracer.close(root);
    logits
}

/// The spans of one request, summed per step kind.
#[derive(Default)]
struct RequestSpans {
    ms: [f64; STEP_KINDS.len()],
    calls: [usize; STEP_KINDS.len()],
    step_sum_ms: f64,
    request_ms: f64,
}

fn aggregate(tracer: &Tracer) -> Vec<RequestSpans> {
    let mut out: Vec<RequestSpans> = Vec::new();
    for span in &tracer.spans {
        if out.len() <= span.request {
            out.resize_with(span.request + 1, RequestSpans::default);
        }
        let r = &mut out[span.request];
        match STEP_KINDS.iter().position(|k| k.span == span.name) {
            None => r.request_ms = span.ms(),
            Some(i) => {
                r.ms[i] += span.ms();
                r.calls[i] += 1;
                r.step_sum_ms += span.ms();
            }
        }
    }
    out
}

/// Best-of-k unit costs of single public ops at the workload's
/// parameters, in microseconds. A full `engine.keygen` key set is used so
/// every op can be timed on every workload, including ops its plan never
/// runs (their cost is what adding them to the plan would pay).
fn unit_costs(w: &Workload, plan: &ExecutionPlan) -> Vec<(&'static str, f64)> {
    let engine = w.new_engine();
    let ctx = engine.context();
    let ev = BfvEvaluator::new(ctx);
    let (n, t) = (ctx.n(), ctx.t());
    let mut sampler = Sampler::from_seed(0x756e_6974_636f_7374);
    let (secrets, keys) = engine.keygen(&mut sampler);
    let mut rng = Prng::seed_from_u64(0x756e_6974_7661_6c73);
    let a_max = w.model().cfg.a_max();
    let mut small_coeffs =
        || -> Vec<i64> { (0..n).map(|_| rng.next_i64_in(-a_max, a_max)).collect() };
    let all: Vec<usize> = (0..n).collect();
    let time = |f: &mut dyn FnMut()| time_best_us(w.scaled(5), w.scaled(2000) as f64, f);

    let plain = encode_coeff(&small_coeffs(), t, n);
    let ct_a = engine.encrypt_at(&small_coeffs(), &all, &secrets, &mut sampler);
    let ct_b = engine.encrypt_at(&small_coeffs(), &all, &secrets, &mut sampler);
    let ct3 = ev.mul_no_relin(&ct_a, &ct_b);
    let g = *keys.gk.elements().first().expect("S2C needs Galois keys");
    let hoisted = ev.hoist(&ct_a);
    let mid = engine.mod_switch_mid(&ct_a);
    let mut stats = PipelineStats::default();
    let big = engine.sample_extract(&mid, &all, &mut stats);
    let tm = athena_math::modops::Modulus::new(t);
    let slots: Vec<Option<LweCiphertext>> = (0..n)
        .map(|i| {
            let m = tm.from_i64(i as i64 % (2 * a_max + 1) - a_max);
            Some(LweCiphertext::encrypt(m, &secrets.lwe_sk, &mut sampler))
        })
        .collect();
    let lut = plan_steps(plan)
        .find_map(|s| match &s.op {
            StepOp::Fbs { lut } => Some(lut.clone()),
            _ => None,
        })
        .unwrap_or_else(|| Lut::from_signed_fn(t, |x| x.max(0)));

    let qb = ctx.q_basis();
    let aux = RnsBasis::new(&w.params.aux_primes(), n);
    let coeff = qb.poly_to_coeff(&ct_a.parts()[1]);
    let eval = qb.poly_to_eval(&coeff);
    let eval_b = qb.poly_to_eval(&qb.poly_to_coeff(&ct_b.parts()[1]));
    let ntt = qb.ring(0).ntt();
    let mut limb: Vec<u64> = coeff.limbs()[0].values().to_vec();
    let values = small_coeffs();
    let input = &w.case.input;

    vec![
        (
            "fhe.bfv.cmult_relin_us",
            time(&mut || drop(ev.mul(&ct_a, &ct_b, &keys.rlk))),
        ),
        (
            "fhe.bfv.tensor_lift_us",
            time(&mut || drop(ev.lift_for_mul(&ct_a))),
        ),
        (
            "fhe.bfv.relinearize_us",
            time(&mut || drop(ev.relinearize(&ct3, &keys.rlk))),
        ),
        (
            "fhe.bfv.pmult_us",
            time(&mut || drop(ev.mul_plain(&ct_a, &plain))),
        ),
        (
            "fhe.bfv.smult_us",
            time(&mut || drop(ev.mul_scalar(&ct_a, 3))),
        ),
        ("fhe.bfv.hadd_us", time(&mut || drop(ev.add(&ct_a, &ct_b)))),
        (
            "fhe.bfv.hrot_eager_us",
            time(&mut || drop(ev.apply_galois(&ct_a, g, &keys.gk))),
        ),
        ("fhe.bfv.hoist_us", time(&mut || drop(ev.hoist(&ct_a)))),
        (
            "fhe.bfv.hrot_hoisted_us",
            time(&mut || drop(hoisted.apply_galois(ctx, g, &keys.gk))),
        ),
        (
            "fhe.bfv.encrypt_us",
            time(&mut || drop(engine.encrypt_at(&values, &all, &secrets, &mut sampler))),
        ),
        (
            "fhe.bfv.decrypt_us",
            time(&mut || drop(ev.decrypt(&ct_a, &secrets.sk))),
        ),
        (
            "fhe.fbs.lut_interpolate_us",
            time(&mut || drop(lut.interpolate())),
        ),
        (
            "fhe.pack.pack_us",
            time(&mut || drop(engine.pack(&slots, &keys, &mut stats))),
        ),
        (
            "fhe.linear.s2c_us",
            time(&mut || drop(engine.s2c(&ct_a, &keys, &mut stats))),
        ),
        (
            "fhe.extract.mod_switch_us",
            time(&mut || drop(engine.mod_switch_mid(&ct_a))),
        ),
        (
            "fhe.extract.sample_extract_us",
            time(&mut || drop(engine.sample_extract(&mid, &all, &mut stats))) / n as f64,
        ),
        (
            "fhe.lwe.keyswitch_us",
            time(&mut || drop(engine.dim_switch(&big, &keys))) / n as f64,
        ),
        ("math.ntt.fwd_us", time(&mut || ntt.forward(&mut limb))),
        ("math.ntt.inv_us", time(&mut || ntt.inverse(&mut limb))),
        (
            "math.rns.to_eval_us",
            time(&mut || drop(qb.poly_to_eval(&coeff))),
        ),
        (
            "math.rns.to_coeff_us",
            time(&mut || drop(qb.poly_to_coeff(&eval))),
        ),
        (
            "math.rns.base_convert_us",
            time(&mut || drop(qb.fast_base_convert(&coeff, &aux))),
        ),
        (
            "math.rns.pointwise_mul_us",
            time(&mut || drop(qb.mul_poly(&eval, &eval_b))),
        ),
        (
            "math.rns.scale_round_us",
            time(&mut || drop(qb.scale_round(&coeff, engine.q_mid(), engine.q_mid()))),
        ),
        (
            "nn.qmodel.plain_forward_us",
            time(&mut || drop(w.model().forward(input))),
        ),
    ]
}

/// The `--trace 1` pass: every per-layer metric.
pub fn per_layer(
    w: &Workload,
    seed: u64,
    threads: usize,
    spans_out: Option<&str>,
) -> Result<PassResult, String> {
    let name = w.spec.name;
    let n_req = w.traced_requests();
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // -- core.plan: set-up split into its three public calls.
    let mut engine_ms = Vec::new();
    let mut compile_ms = Vec::new();
    let mut keygen_ms = Vec::new();
    let mut built = None;
    for _ in 0..5 {
        drop(built.take());
        let t0 = Instant::now();
        let engine = w.new_engine();
        engine_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let plan = plan::compile(&engine, w.model(), w.input_shape());
        compile_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let key_material = engine.keygen_for_plan(&plan, &mut Sampler::from_seed(seed));
        keygen_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        built = Some((engine, plan, key_material));
    }
    let (engine, plan, (secrets, keys)) = built.expect("five constructions");
    m.push(("core.plan.engine_new_ms", median(&engine_ms)));
    m.push(("core.plan.compile_ms", median(&compile_ms)));
    m.push(("core.plan.keygen_ms", median(&keygen_ms)));
    m.push(("core.plan.steps", plan.step_count() as f64));
    m.push((
        "core.plan.galois_keys",
        plan.required_keys().galois.len() as f64,
    ));

    // -- the served session. Per input, back to back so that host drift
    // lands on all four alike: (1) an untraced `run_encrypted` — what
    // tracing overhead and the cost model are measured against; (2) the
    // walker, for the step spans; (3) `plan::execute` under the walker's
    // sampler seed, whose logits must equal the walker's bit for bit (the
    // first one also carries the counter brackets: one request, one driver
    // thread, so the process-global counters are attributable); (4) when
    // the pass runs with more than one worker, the untraced request again
    // with one.
    let mut bench = Bench::start(w, seed)?;
    let singles: Vec<ITensor> = bench
        .pool
        .iter()
        .flat_map(|r| r.inputs.clone())
        .take(n_req)
        .collect();
    let serve_single = |bench: &mut Bench, x: &ITensor| -> Result<(f64, Vec<f64>), String> {
        let t0 = Instant::now();
        let r = bench
            .session
            .run_encrypted(w.model(), x, &mut bench.sampler)
            .map_err(|e| format!("{name}: {e}"))?;
        Ok((t0.elapsed().as_secs_f64() * 1e3, r.logits))
    };
    let mut tracer = Tracer::new();
    let mut counted = None;
    let mut untraced_ms = Vec::new();
    let mut one_thread_ms = Vec::new();
    let (mut user_s, mut sys_s) = (0.0, 0.0);
    let (mut attempted, mut failed) = (0, 0);
    let mut accuracy = Accuracy::default();
    for (i, x) in singles.iter().enumerate() {
        let want = w.model().forward(x);
        let (u0, s0) = cpu_seconds();
        let (ms, logits) = serve_single(&mut bench, x)?;
        let (u1, s1) = cpu_seconds();
        untraced_ms.push(ms);
        user_s += u1 - u0;
        sys_s += s1 - s0;

        let enc_seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64);
        let mut s = Sampler::from_seed(enc_seed);
        let walked = walk(&engine, &secrets, &keys, &plan, x, &mut s, &mut tracer, i);
        let mut s = Sampler::from_seed(enc_seed);
        let mut execute = || plan::execute(&engine, &secrets, &keys, &plan, x, &mut s);
        let run = if counted.is_none() {
            let ((((run, alloc), lift), rot), ntt) = ntt_stats::measure(|| {
                rot_stats::measure(|| lift_stats::measure(|| alloc_stats::measure(execute)))
            });
            counted = Some((run.steps.clone(), run.stats, alloc, lift, rot, ntt));
            run
        } else {
            execute()
        };
        if walked != run.logits {
            return Err(format!(
                "{name}: walker logits {walked:?} differ from plan::execute {:?}",
                run.logits
            ));
        }
        for answer in [&logits, &walked] {
            attempted += 1;
            if w.within_tolerance(answer, &want) {
                accuracy.record(answer, &want);
            } else {
                failed += 1;
            }
        }

        if threads == 1 {
            one_thread_ms.push(ms);
        } else {
            par::set_threads(1);
            let one = serve_single(&mut bench, x);
            par::set_threads(threads);
            one_thread_ms.push(one?.0);
        }
    }
    let untraced = Summary::of(&untraced_ms);
    // Latency percentiles are of the workload's own request kind.
    let own_kind = if w.spec.batch > 1 {
        let win = timed_window(&mut bench, f64::INFINITY, w.scaled(6));
        attempted += win.inferences;
        failed += win.failed;
        Summary::of(&win.latencies_ms)
    } else {
        untraced
    };
    if let Some(path) = spans_out {
        std::fs::write(path, tracer.to_json_lines()).map_err(|e| format!("{path}: {e}"))?;
    }
    // The step spans reported are those of the fastest traced request —
    // one coherent decomposition of a request the host left alone (see
    // `run::end_to_end` for why the fastest, not the median) — and it is held
    // against the fastest untraced request.
    let per_request = aggregate(&tracer);
    let quiet = per_request
        .iter()
        .min_by(|a, b| a.request_ms.total_cmp(&b.request_ms))
        .expect("at least one traced request");
    let (traced_ms, step_sum_ms) = (quiet.request_ms, quiet.step_sum_ms);
    for (i, kind) in STEP_KINDS.iter().enumerate() {
        m.push((kind.ms_metric, quiet.ms[i]));
        m.push((kind.calls_metric, quiet.calls[i] as f64));
    }
    m.push(("core.pipeline.step_sum_ms", step_sum_ms));

    let stats = bench.session.stats();
    m.push(("core.session.request_traced_ms", traced_ms));
    m.push((
        "core.session.trace_overhead_pct",
        100.0 * (traced_ms - untraced.min) / untraced.min,
    ));
    m.push(("core.session.overhead_ms", untraced.min - step_sum_ms));
    m.push(("core.session.latency_p50_ms", own_kind.median));
    m.push(("core.session.latency_p90_ms", own_kind.p90));
    m.push(("core.session.samples", own_kind.n as f64));
    m.push(("core.session.cache_hits", stats.hits as f64));
    m.push(("core.session.cache_misses", stats.misses as f64));
    m.push((
        "core.session.arena_reserved_bytes",
        stats.arena_reserved as f64,
    ));
    m.push(("core.session.max_logit_dev", accuracy.max_dev));
    m.push(("core.session.argmax_match_share", accuracy.argmax_share()));

    // -- exact counts of one inference.
    let (steps, pipeline, alloc, lift, rot, ntt) = counted.expect("at least one traced request");
    let mut ops = athena_core::trace::OpCounts::default();
    for s in &steps {
        ops.add(&s.measured);
    }
    // Without the `counters` feature nothing is measured; only a run that
    // counted can disagree with the plan's analytic accounting.
    let counting = cfg!(feature = "counters");
    let mismatch = steps
        .iter()
        .filter(|s| counting && s.analytic != s.measured)
        .count();
    m.push(("core.plan.ops_pmult", ops.pmult as f64));
    m.push(("core.plan.ops_cmult", ops.cmult as f64));
    m.push(("core.plan.ops_smult", ops.smult as f64));
    m.push(("core.plan.ops_hadd", ops.hadd as f64));
    m.push(("core.plan.ops_hrot", ops.hrot as f64));
    m.push(("core.plan.ops_sample_extract", ops.sample_extract as f64));
    m.push(("core.plan.ops_mod_switch", ops.mod_switch as f64));
    m.push(("core.plan.ops_mismatch", mismatch as f64));
    m.push(("fhe.bfv.rot_eager_per_inf", rot.eager as f64));
    m.push(("fhe.bfv.rot_hoisted_per_inf", rot.hoisted as f64));
    m.push(("fhe.bfv.decompose_per_inf", rot.decompose as f64));
    m.push(("fhe.bfv.lift_computed_per_inf", lift.computed as f64));
    m.push(("fhe.bfv.lift_reused_per_inf", lift.reused as f64));
    let fbs_calls = pipeline.fbs_calls.max(1) as f64;
    m.push((
        "fhe.fbs.cmult_per_call",
        pipeline.fbs.cmult as f64 / fbs_calls,
    ));
    m.push((
        "fhe.fbs.smult_per_call",
        pipeline.fbs.smult as f64 / fbs_calls,
    ));
    m.push((
        "fhe.fbs.hadd_per_call",
        pipeline.fbs.hadd as f64 / fbs_calls,
    ));
    let ctx = engine.context();
    let pack_bytes = keys.pack.bytes(ctx) + keys.pack_bsgs.as_ref().map_or(0, |k| k.bytes(ctx));
    m.push(("fhe.pack.key_bytes", pack_bytes as f64));
    m.push((
        "fhe.linear.s2c_rotations",
        engine.slot_to_coeff().rotation_count() as f64,
    ));
    m.push(("fhe.lwe.ksk_bytes", keys.lwe_ksk.bytes() as f64));
    m.push(("math.ntt.fwd_per_inf", ntt.forward as f64));
    m.push(("math.ntt.inv_per_inf", ntt.inverse as f64));
    m.push(("math.arena.takes_per_inf", alloc.takes as f64));
    m.push(("math.arena.fresh_per_inf", alloc.fresh as f64));
    m.push((
        "math.arena.pooled_share",
        if alloc.takes == 0 {
            0.0
        } else {
            alloc.pooled() as f64 / alloc.takes as f64
        },
    ));
    if mismatch != 0 {
        return Err(format!(
            "{name}: {mismatch} steps whose measured op counts differ from the plan's"
        ));
    }

    m.push(("math.par.threads", threads as f64));
    let one_thread_ms = one_thread_ms.into_iter().fold(f64::MAX, f64::min);
    m.push(("math.par.latency_1thread_ms", one_thread_ms));
    let cpu_s = user_s + sys_s;
    m.push((
        "math.par.sys_cpu_share",
        if cpu_s > 0.0 { sys_s / cpu_s } else { 0.0 },
    ));

    // -- unit costs, and the cost model they feed: Σ count × unit cost over
    // the plan's analytic counts (available without counters). Pack and
    // S2C are priced as whole calls (their PMults run on pre-lifted
    // plaintexts and hoisted rotations, unlike the stand-alone ops); every
    // other step is priced op by op. A CMult is a tensor product plus a
    // relinearisation plus *at most* two operand lifts — the FBS schedule
    // reuses lifted powers, so lifts are priced by their measured count.
    let units = unit_costs(w, &plan);
    let unit = |n: &str| units.iter().find(|(k, _)| *k == n).expect("unit cost").1;
    let a = plan.analytic_total();
    let count = |pred: &dyn Fn(&StepOp) -> bool| -> f64 {
        plan_steps(&plan).filter(|s| pred(&s.op)).count() as f64
    };
    let fbs_hadd: u64 = plan_steps(&plan)
        .filter(|s| matches!(s.op, StepOp::Fbs { .. }))
        .map(|s| s.analytic.hadd)
        .sum();
    let lifts = if counting { lift.computed } else { 2 * a.cmult };
    let lift_us = unit("fhe.bfv.tensor_lift_us");
    let model_us = unit("fhe.bfv.encrypt_us")
        + count(&|op| matches!(op, StepOp::Linear { .. })) * unit("fhe.bfv.pmult_us")
        + a.mod_switch as f64 * unit("fhe.extract.mod_switch_us")
        + a.sample_extract as f64
            * (unit("fhe.extract.sample_extract_us") + unit("fhe.lwe.keyswitch_us"))
        + count(&|op| matches!(op, StepOp::Pack { .. })) * unit("fhe.pack.pack_us")
        + count(&|op| matches!(op, StepOp::Fbs { .. })) * unit("fhe.fbs.lut_interpolate_us")
        + a.cmult as f64 * (unit("fhe.bfv.cmult_relin_us") - 2.0 * lift_us)
        + lifts as f64 * lift_us
        + a.smult as f64 * unit("fhe.bfv.smult_us")
        + fbs_hadd as f64 * unit("fhe.bfv.hadd_us")
        + count(&|op| matches!(op, StepOp::S2C { .. })) * unit("fhe.linear.s2c_us");
    m.push(("core.plan.model_ms", model_us / 1e3));
    m.push((
        "core.plan.model_residual_pct",
        100.0 * (untraced.min - model_us / 1e3) / untraced.min,
    ));
    m.extend(units);

    let detail = Json::obj(vec![
        ("traced_requests", Json::Num(n_req as f64)),
        ("untraced_single_ms", untraced.to_json()),
        ("own_kind_ms", own_kind.to_json()),
        ("spans", Json::Num(tracer.spans.len() as f64)),
        ("accuracy", accuracy.to_json()),
    ]);
    Ok(PassResult {
        attempted,
        failed,
        accurate: w.accuracy_ok(&accuracy),
        metrics: m,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The walker is only a trace source if it computes what the program
    /// computes: same sampler seed, same logits, bit for bit — on the
    /// workload that exercises the most step kinds.
    #[test]
    fn walker_logits_equal_plan_execute() {
        let w = Workload::load("batch_res_t257").unwrap();
        let engine = w.new_engine();
        let plan = plan::compile(&engine, w.model(), w.input_shape());
        let (secrets, keys) = engine.keygen_for_plan(&plan, &mut Sampler::from_seed(1));
        let mut tracer = Tracer::new();
        for (i, x) in w.inputs(9, 2).iter().enumerate() {
            let walked = walk(
                &engine,
                &secrets,
                &keys,
                &plan,
                x,
                &mut Sampler::from_seed(77),
                &mut tracer,
                i,
            );
            let run = plan::execute(
                &engine,
                &secrets,
                &keys,
                &plan,
                x,
                &mut Sampler::from_seed(77),
            );
            assert_eq!(walked, run.logits);
        }
        let per_request = aggregate(&tracer);
        assert_eq!(per_request.len(), 2);
        let steps: usize = per_request[0].calls.iter().sum();
        assert_eq!(
            steps,
            plan.step_count() + 1,
            "every step plus the encryption has a span"
        );
        assert!(per_request[0].step_sum_ms <= per_request[0].request_ms);
        assert_eq!(tracer.to_json_lines().lines().count(), tracer.spans.len());
    }
}

//! The untraced pass of one workload: set-up timing, warm-up with the
//! start-up correctness assertions, and the closed-loop timed window that
//! produces the end-to-end metrics.

use std::sync::Arc;
use std::time::Instant;

use athena_core::plan::{ExecutionPlan, InferenceSession, RunPolicy};
use athena_core::util::argmax;
use athena_math::sampler::Sampler;
use athena_nn::tensor::ITensor;

use crate::json::Json;
use crate::stats::{cpu_seconds, peak_rss_mb, Summary};
use crate::workload::Workload;

/// Plans a session may cache; the benchmark serves one model per process.
const CACHE_CAPACITY: usize = 4;
/// Seed of the session's key-generation sampler. Key material is part of
/// the system under test, not of the workload, so `--seed` never moves it.
const KEY_SEED: u64 = 42;
/// Fresh constructions timed for `setup_s`.
const SETUP_REPEATS: usize = 7;
/// Distinct requests in the input pool the closed loop cycles through.
const POOL_REQUESTS: usize = 32;

/// One request of the workload's kind: `batch` inputs with their reference
/// logits from the plaintext integer model.
pub struct Request {
    pub inputs: Vec<ITensor>,
    pub references: Vec<Vec<f64>>,
}

/// Outcome of serving one request.
pub struct Served {
    pub wall_ms: f64,
    /// Per input: the logits, or `None` when the request returned `Err`.
    pub logits: Vec<Option<Vec<f64>>>,
}

/// A served, warm session plus the seeded request pool.
pub struct Bench<'w> {
    pub w: &'w Workload,
    pub session: InferenceSession,
    pub plan: Arc<ExecutionPlan>,
    pub pool: Vec<Request>,
    pub sampler: Sampler,
    /// Seconds of each timed fresh construction (engine + session + first
    /// `plan_for`, i.e. compile + keygen).
    pub setup_samples: Vec<f64>,
}

fn fresh_session(w: &Workload) -> (InferenceSession, Arc<ExecutionPlan>) {
    let mut session = InferenceSession::new(w.new_engine(), CACHE_CAPACITY, KEY_SEED);
    let plan = session.plan_for(w.model(), w.input_shape());
    (session, plan)
}

impl<'w> Bench<'w> {
    /// Times set-up, generates the request pool from `seed`, and warms the
    /// session up. The first request runs under the noise probe (a typed
    /// `NoiseExhausted` error if the parameter set has no margin), and a
    /// batched workload asserts one `run_batch` bit-identical to the same
    /// inputs served sequentially under the same sampler.
    pub fn start(w: &'w Workload, seed: u64) -> Result<Bench<'w>, String> {
        let mut setup_samples = Vec::with_capacity(SETUP_REPEATS);
        let mut built = None;
        for _ in 0..SETUP_REPEATS {
            // Drop the previous construction first so each one starts from
            // the same released-arena state.
            drop(built.take());
            let t0 = Instant::now();
            built = Some(fresh_session(w));
            setup_samples.push(t0.elapsed().as_secs_f64());
        }
        let (session, plan) = built.expect("SETUP_REPEATS > 0");

        let batch = w.spec.batch;
        let inputs = w.inputs(seed, POOL_REQUESTS * batch);
        let pool = inputs
            .chunks(batch)
            .map(|chunk| Request {
                inputs: chunk.to_vec(),
                references: chunk.iter().map(|x| w.model().forward(x)).collect(),
            })
            .collect();
        let mut bench = Bench {
            w,
            session,
            plan,
            pool,
            sampler: Sampler::from_seed(seed ^ 0x7265_7175_6573_7421),
            setup_samples,
        };
        if !w.quick {
            bench.warm_up()?;
        }
        Ok(bench)
    }

    fn warm_up(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        let w = self.w;
        let first = &self.pool[0];
        let probed = self
            .session
            .run_encrypted_with(
                w.model(),
                &first.inputs[0],
                &mut self.sampler,
                &RunPolicy::default().with_probe(),
            )
            .map_err(|e| format!("{}: noise-probed first request failed: {e}", w.spec.name))?;
        if !w.within_tolerance(&probed.logits, &first.references[0]) {
            return Err(format!("{}: first request out of tolerance", w.spec.name));
        }
        if w.spec.batch > 1 {
            let pair_seed = self.sampler.next_u64();
            let mut s_batch = Sampler::from_seed(pair_seed);
            let mut s_seq = Sampler::from_seed(pair_seed);
            let batched = self
                .session
                .run_batch(w.model(), &first.inputs, &mut s_batch)
                .map_err(|e| e.to_string())?;
            for (input, b) in first.inputs.iter().zip(batched) {
                let seq = self
                    .session
                    .run_encrypted(w.model(), input, &mut s_seq)
                    .map_err(|e| e.to_string())?;
                if b.map_err(|e| e.to_string())?.logits != seq.logits {
                    return Err(format!(
                        "{}: run_batch differs from sequential run_encrypted",
                        w.spec.name
                    ));
                }
            }
        }
        // Let the arena and the allocator reach steady state: keep serving
        // until warm-up as a whole has lasted half a second.
        let mut i = 1;
        while t0.elapsed().as_secs_f64() < 0.5 {
            self.serve(i);
            i += 1;
        }
        Ok(())
    }

    /// Serves request `i` of the pool (cyclically) the way the workload is
    /// served: one `run_encrypted`, or one `run_batch`.
    pub fn serve(&mut self, i: usize) -> Served {
        let req = &self.pool[i % self.pool.len()];
        let model = self.w.model();
        let t0 = Instant::now();
        let logits = if req.inputs.len() == 1 {
            let r = self
                .session
                .run_encrypted(model, &req.inputs[0], &mut self.sampler);
            vec![r.ok().map(|r| r.logits)]
        } else {
            match self
                .session
                .run_batch(model, &req.inputs, &mut self.sampler)
            {
                Ok(items) => items
                    .into_iter()
                    .map(|r| r.ok().map(|r| r.logits))
                    .collect(),
                Err(_) => vec![None; req.inputs.len()],
            }
        };
        Served {
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            logits,
        }
    }

    /// Holds the answers of request `i` against the plaintext model:
    /// returns how many are missing or out of tolerance and records the
    /// deviation of the rest in `accuracy`.
    pub fn check(&self, i: usize, served: &Served, accuracy: &mut Accuracy) -> usize {
        let req = &self.pool[i % self.pool.len()];
        let mut failed = 0;
        for (got, want) in served.logits.iter().zip(&req.references) {
            match got {
                Some(g) if self.w.within_tolerance(g, want) => accuracy.record(g, want),
                _ => failed += 1,
            }
        }
        failed
    }

    /// Bytes of evaluation-key material a client uploads for this plan.
    /// The session does not expose its keys, so generate the plan's key
    /// set once more; the size does not depend on the randomness.
    pub fn key_bytes(&self) -> usize {
        let engine = self.session.engine();
        let (_, keys) = engine.keygen_for_plan(&self.plan, &mut Sampler::from_seed(KEY_SEED));
        keys.bytes(engine.context())
    }
}

/// How far a pass's in-tolerance answers are from the plaintext model's.
/// The per-request tolerance is a worst-case bound several times wider
/// than the logit range at `t = 257`, so it only catches gross failure;
/// these statistics, held to limits pinned per workload
/// ([`Workload::accuracy_ok`]), catch a numerical change that stays inside
/// it.
#[derive(Default)]
pub struct Accuracy {
    pub inferences: usize,
    /// Largest |logit − reference logit| of any inference.
    pub max_dev: f64,
    sum_dev: f64,
    argmax_hits: usize,
}

impl Accuracy {
    pub fn record(&mut self, logits: &[f64], reference: &[f64]) {
        let dev = Workload::max_dev(logits, reference);
        self.inferences += 1;
        self.max_dev = self.max_dev.max(dev);
        self.sum_dev += dev;
        self.argmax_hits += usize::from(argmax(logits) == argmax(reference));
    }

    /// Mean over the inferences of each one's largest logit deviation.
    pub fn mean_dev(&self) -> f64 {
        self.sum_dev / self.inferences.max(1) as f64
    }

    /// Share of the inferences that keep the plaintext model's arg-max.
    pub fn argmax_share(&self) -> f64 {
        self.argmax_hits as f64 / self.inferences.max(1) as f64
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("inferences", Json::Num(self.inferences as f64)),
            ("max_logit_dev", Json::Num(self.max_dev)),
            ("mean_logit_dev", Json::Num(self.mean_dev())),
            ("argmax_match_share", Json::Num(self.argmax_share())),
        ])
    }
}

/// A closed-loop timed window: requests served back to back by one caller
/// until `seconds` have passed or `max_requests` were served (the request
/// in flight at the deadline is completed and counted).
pub struct Window {
    pub latencies_ms: Vec<f64>,
    pub inferences: usize,
    pub failed: usize,
    pub accuracy: Accuracy,
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
}

impl Window {
    /// Correct inferences completed per second of the whole window.
    pub fn throughput_inf_per_s(&self) -> f64 {
        (self.inferences - self.failed) as f64 / self.wall_s
    }

    /// Process CPU seconds per inference over the whole window.
    pub fn cpu_s_per_inf(&self) -> f64 {
        (self.user_s + self.sys_s) / self.inferences as f64
    }
}

pub fn timed_window(bench: &mut Bench, seconds: f64, max_requests: usize) -> Window {
    let mut win = Window {
        latencies_ms: Vec::new(),
        inferences: 0,
        failed: 0,
        accuracy: Accuracy::default(),
        wall_s: 0.0,
        user_s: 0.0,
        sys_s: 0.0,
    };
    let (u0, s0) = cpu_seconds();
    let t0 = Instant::now();
    let mut i = 0;
    while i == 0 || (t0.elapsed().as_secs_f64() < seconds && i < max_requests) {
        let served = bench.serve(i);
        win.failed += bench.check(i, &served, &mut win.accuracy);
        win.inferences += served.logits.len();
        win.latencies_ms.push(served.wall_ms);
        i += 1;
    }
    win.wall_s = t0.elapsed().as_secs_f64();
    let (u1, s1) = cpu_seconds();
    win.user_s = u1 - u0;
    win.sys_s = s1 - s0;
    win
}

/// What a pass hands back to `main`: the driver-facing result plus the
/// distributions behind the medians.
pub struct PassResult {
    pub attempted: usize,
    pub failed: usize,
    /// Whether the pass's answers met the workload's accuracy limits.
    pub accurate: bool,
    pub metrics: Vec<(&'static str, f64)>,
    /// Distributions and counts for the suite record (`#detail` line).
    pub detail: Json,
}

/// The `--trace 0` pass: the end-to-end metrics.
///
/// Throughput and CPU time are whole-window figures, so anything that
/// slows some of the requests — a tail, a periodic stall, a retry — moves
/// them. `latency_min_ms` is the one best-case figure, what a request
/// costs when the host leaves it alone: on the shared 2-vCPU host this was
/// sized on, interference from other tenants only ever slows a request
/// down and comes in phases of seconds to minutes, so over identical 20 s
/// windows the fastest request moves by 5–21 % (interquartile range over
/// median) where the window's median moves by 8–26 %. The median and p90
/// are in the `#detail` line, unbounded.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<PassResult, String> {
    let mut bench = Bench::start(w, seed)?;
    let win = timed_window(&mut bench, seconds, usize::MAX);
    let latency = Summary::of(&win.latencies_ms);
    let setup = Summary::of(&bench.setup_samples);
    let metrics = vec![
        ("setup_s", setup.median),
        ("latency_min_ms", latency.min),
        ("throughput_inf_per_s", win.throughput_inf_per_s()),
        ("cpu_s_per_inf", win.cpu_s_per_inf()),
        ("peak_rss_mb", peak_rss_mb()),
        ("key_bytes", bench.key_bytes() as f64),
    ];
    let detail = Json::obj(vec![
        ("requests", Json::Num(latency.n as f64)),
        ("inferences", Json::Num(win.inferences as f64)),
        ("window_s", Json::Num(win.wall_s)),
        (
            "failed_share",
            Json::Num(win.failed as f64 / win.inferences as f64),
        ),
        ("latency_ms", latency.to_json()),
        ("latency_p90_ms", Json::Num(latency.p90)),
        ("accuracy", win.accuracy.to_json()),
        ("setup_s", setup.to_json()),
    ]);
    Ok(PassResult {
        attempted: win.inferences,
        failed: win.failed,
        accurate: w.accuracy_ok(&win.accuracy),
        metrics,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--quick` skips the warm-up, so the start-up gates it holds — the
    /// noise-probed first request and `run_batch` equal to sequential
    /// `run_encrypted` — are exercised here, on the batched workload.
    #[test]
    fn start_passes_the_noise_probe_and_the_batch_identity() {
        let w = Workload::load("batch_res_t257").unwrap();
        assert!(!w.quick);
        let mut bench = Bench::start(&w, 11).unwrap();
        assert_eq!(bench.setup_samples.len(), SETUP_REPEATS);
        let served = bench.serve(0);
        let mut accuracy = Accuracy::default();
        assert_eq!(bench.check(0, &served, &mut accuracy), 0);
        assert_eq!(accuracy.inferences, w.spec.batch);
    }

    #[test]
    fn accuracy_limits_apply_to_large_passes_only() {
        let w = Workload::load("fc_nofbs_t257").unwrap();
        let reference = [1.0, 4.0, -2.0];
        let mut drifted = Accuracy::default();
        for _ in 0..99 {
            drifted.record(&[1.0, -4.0, 2.0], &reference);
        }
        assert_eq!(
            (drifted.max_dev, drifted.mean_dev(), drifted.argmax_share()),
            (8.0, 8.0, 0.0)
        );
        assert!(w.accuracy_ok(&drifted), "99 inferences are not judged");
        drifted.record(&[1.0, -4.0, 2.0], &reference);
        assert!(!w.accuracy_ok(&drifted));

        let mut exact = Accuracy::default();
        for _ in 0..100 {
            exact.record(&reference, &reference);
        }
        assert_eq!((exact.mean_dev(), exact.argmax_share()), (0.0, 1.0));
        assert!(w.accuracy_ok(&exact));
    }
}

//! Process-pool shard execution (DESIGN.md §11).
//!
//! The core shard layer ([`xai_core::shard`], re-exported here) cuts an
//! estimator's draw grid into self-contained [`ShardDescriptor`]s and
//! merges [`ShardResult`]s bit-identically to the unsharded run. This
//! module adds the pieces only the facade can provide — it knows every
//! method and every persistable model:
//!
//! - [`shardable`] — the method factory: taxonomy card name + canonical
//!   config JSON → a boxed [`ShardableExplainer`].
//! - [`PersistedModel`] / [`resolve_model`] — rebuild any persisted
//!   workspace model from its descriptor JSON, usable as a
//!   [`ModelOracle`].
//! - [`explain_process_pool`] — a thin convenience over
//!   [`xai_core::backend::ProcessPoolBackend`]: up to `max_procs` worker
//!   processes, each a persistent framed session on its stdin and
//!   stdout, typed errors for every worker failure mode and a deadline
//!   on every frame exchange so a stuck worker can never hang the caller.
//! - [`run_worker`] — the worker side, wrapped by the
//!   `xai-shard-worker` binary: the same session loop as the TCP daemon
//!   ([`xai_core::transport::serve_connection`]) over stdin and stdout.
//!   Typed failures travel in error envelopes; the worker exits 0 when
//!   its stdin closes.
//!
//! ```no_run
//! use xai::prelude::*;
//! use xai::shard::{explain_process_pool, PoolConfig};
//!
//! let data = xai::data::synth::german_credit(80, 7);
//! let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
//! let row = data.row(0).to_vec();
//! let req = ExplainRequest::new(&data)
//!     .instance(&row)
//!     .plan(RunConfig::seeded(7).with_workers(2));
//! let method = KernelShapMethod::default();
//! let pool = PoolConfig::new("target/debug/xai-shard-worker");
//! let sharded = explain_process_pool(&method, &model, &req, 4, &pool).unwrap();
//! let local = method.explain(&model, &req).unwrap();
//! assert_eq!(sharded.to_json_string(), local.to_json_string());
//! ```

use std::path::PathBuf;
use std::time::Duration;

use xai_core::backend::{BackendJob, ExecutionBackend, ProcessPoolBackend};
use xai_core::transport::serve_connection;
use xai_core::{ExplainRequest, Explanation, Json, ModelOracle, XaiError, XaiResult};
use xai_models::Persist;

pub use xai_core::backend::PoolConfig;
pub use xai_core::shard::*;

use xai_counterfactual::DiceMethod;
use xai_datavalue::{BanzhafMethod, LooMethod, TmcMethod};
use xai_rules::AnchorsMethod;
use xai_shapley::{KernelShapMethod, PermutationShapleyMethod};
use xai_surrogate::{LimeMethod, SpLimeMethod};

// ---------------------------------------------------------------------------
// Method factory
// ---------------------------------------------------------------------------

/// Rebuilds a shardable method from its taxonomy card name and canonical
/// config JSON — the worker-side counterpart of
/// [`ShardableExplainer::config_json`]. Unknown methods and malformed
/// configs are typed [`XaiError::Parse`] errors.
pub fn shardable(method: &str, config: &Json) -> XaiResult<Box<dyn ShardableExplainer>> {
    Ok(match method {
        "Permutation sampling Shapley" => {
            Box::new(PermutationShapleyMethod::from_config_json(config)?)
        }
        "Kernel SHAP" => Box::new(KernelShapMethod::from_config_json(config)?),
        "LIME" => Box::new(LimeMethod::from_config_json(config)?),
        "SP-LIME" => Box::new(SpLimeMethod::from_config_json(config)?),
        "Anchors" => Box::new(AnchorsMethod::from_config_json(config)?),
        "DiCE" => Box::new(DiceMethod::from_config_json(config)?),
        "Leave-one-out" => Box::new(LooMethod::from_config_json(config)?),
        "Data Shapley (TMC)" => Box::new(TmcMethod::from_config_json(config)?),
        "Data Banzhaf" => Box::new(BanzhafMethod::from_config_json(config)?),
        other => {
            return Err(wire_error(format!("shard method: '{other}' is not shardable")));
        }
    })
}

// ---------------------------------------------------------------------------
// Model resolution
// ---------------------------------------------------------------------------

/// Any workspace model that can travel in a descriptor: the [`Persist`]
/// implementors, rebuilt from their persisted JSON and usable as a
/// [`ModelOracle`] by delegation.
pub enum PersistedModel {
    /// Ordinary least squares / ridge regression.
    Linear(xai_models::LinearRegression),
    /// Binary logistic regression.
    Logistic(xai_models::LogisticRegression),
    /// A single CART decision tree.
    Tree(xai_models::DecisionTree),
    /// Gradient-boosted decision trees.
    Gbdt(xai_models::Gbdt),
}

impl PersistedModel {
    fn oracle(&self) -> &dyn ModelOracle {
        match self {
            PersistedModel::Linear(m) => m,
            PersistedModel::Logistic(m) => m,
            PersistedModel::Tree(m) => m,
            PersistedModel::Gbdt(m) => m,
        }
    }

    /// The persisted JSON form (round-trips through [`resolve_model`]).
    pub fn save(&self) -> Json {
        match self {
            PersistedModel::Linear(m) => m.save(),
            PersistedModel::Logistic(m) => m.save(),
            PersistedModel::Tree(m) => m.save(),
            PersistedModel::Gbdt(m) => m.save(),
        }
    }
}

impl ModelOracle for PersistedModel {
    fn n_features(&self) -> usize {
        self.oracle().n_features()
    }
    fn predict(&self, x: &[f64]) -> f64 {
        self.oracle().predict(x)
    }
    fn predict_batch(&self, rows: &xai_linalg::Matrix) -> Vec<f64> {
        self.oracle().predict_batch(rows)
    }
    fn predict_masked(
        &self,
        instance: &[f64],
        background: &xai_linalg::Matrix,
        masks: &[u64],
        out: &mut Vec<f64>,
    ) {
        self.oracle().predict_masked(instance, background, masks, out)
    }
    fn gradient(&self, x: &[f64]) -> Option<Vec<f64>> {
        self.oracle().gradient(x)
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.oracle().as_any()
    }
}

/// Rebuilds a model from descriptor JSON, dispatching on its persisted
/// `"kind"` tag. Unknown kinds and malformed payloads are typed
/// [`XaiError::Parse`] errors.
pub fn resolve_model(json: &Json) -> XaiResult<PersistedModel> {
    const WHAT: &str = "shard model";
    Ok(match str_field(json, "kind", WHAT)?.as_str() {
        "linear_regression" => PersistedModel::Linear(Persist::load(json)?),
        "logistic_regression" => PersistedModel::Logistic(Persist::load(json)?),
        "decision_tree" => PersistedModel::Tree(Persist::load(json)?),
        "gbdt" => PersistedModel::Gbdt(Persist::load(json)?),
        other => return Err(wire_error(format!("{WHAT}: unknown model kind '{other}'"))),
    })
}

// ---------------------------------------------------------------------------
// Process pool
// ---------------------------------------------------------------------------

/// Runs a shard plan across OS processes — a thin convenience over
/// [`ProcessPoolBackend`] for callers holding a typed [`Persist`] model.
/// The backend cuts the request into descriptors, ships them to at most
/// [`PoolConfig::max_procs`] worker processes over their stdin/stdout
/// sessions, then merges the partials — bit-identical to
/// `explainer.explain(model, req)` on the parallel path, at any shard
/// count. The pool lives for this one call; keep a [`ProcessPoolBackend`]
/// to reuse its workers. Worker failure modes all surface as typed
/// errors, never a hang; see the backend docs for the full taxonomy.
pub fn explain_process_pool<M: ModelOracle + Persist>(
    explainer: &dyn ShardableExplainer,
    model: &M,
    req: &ExplainRequest<'_>,
    n_shards: usize,
    pool: &PoolConfig,
) -> XaiResult<Explanation> {
    let backend = ProcessPoolBackend::new(pool.clone());
    let job = BackendJob::new(explainer, model, req, n_shards).with_model_json(model.save());
    Ok(backend.execute(&job)?.explanation)
}

// ---------------------------------------------------------------------------
// The worker side
// ---------------------------------------------------------------------------

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "shard worker panicked".into())
}

/// Executes one wire-form descriptor end to end: parse, rebuild the
/// model (verifying the fingerprint), rebuild the method, run the chunk
/// range.
pub fn execute_wire_text(input: &str) -> XaiResult<ShardResult> {
    let desc = ShardDescriptor::from_json_str(input)?;
    let model = resolve_model(&desc.model)?;
    let fingerprint = fingerprint_hex(model.save().to_json().as_bytes());
    if fingerprint != desc.fingerprint {
        return Err(wire_error(format!(
            "ShardDescriptor: model fingerprint mismatch (descriptor {}, model {fingerprint})",
            desc.fingerprint
        )));
    }
    let explainer = shardable(&desc.method, &desc.config)?;
    execute_descriptor(&desc, explainer.as_ref(), &model)
}

/// The executor the stdin/stdout worker and the TCP daemon both hand to
/// [`serve_connection`]; a caught panic is [`XaiError::WorkerPanic`].
/// `fault` is an injected `XAI_SHARD_FAULT` mode: `panic`, `garbage` (a
/// reply that is not JSON), `exit` (status 3, no reply) or `hang`.
pub(crate) fn answer_frame(text: &str, fault: &str) -> XaiResult<String> {
    match fault {
        "garbage" => return Ok("this is not shard JSON {".into()),
        "exit" => std::process::exit(3),
        "hang" => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
        _ => {}
    }
    std::panic::catch_unwind(|| {
        if fault == "panic" {
            panic!("injected shard worker fault");
        }
        execute_wire_text(text)
    })
    .unwrap_or_else(|payload| Err(XaiError::WorkerPanic { task: 0, message: panic_message(payload) }))
    .map(|result| result.to_json_string())
}

/// The `xai-shard-worker` entry point with no arguments: serve one
/// framed session on stdin and stdout with the TCP daemon's loop
/// ([`serve_connection`]) and return the exit code: 0 once stdin closes,
/// so no worker outlives its coordinator, 1 on a broken pipe. Typed
/// failures travel in envelopes. `XAI_SHARD_FAULT` (`panic`, `garbage`,
/// `exit`, `hang`) injects failure modes for the supervision tests.
pub fn run_worker() -> i32 {
    let fault = std::env::var("XAI_SHARD_FAULT").unwrap_or_default();
    let execute = |text: &str| answer_frame(text, &fault);
    match serve_connection(std::io::stdin().lock(), std::io::stdout().lock(), &execute) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("xai-shard-worker: session failed: {e}");
            1
        }
    }
}

/// Locates the sibling `xai-shard-worker` binary next to the current
/// executable — the layout `cargo` produces for examples and test
/// binaries. Returns `None` when it is not built, so callers can skip
/// gracefully instead of failing.
pub fn sibling_worker_exe() -> Option<PathBuf> {
    let mut dir = std::env::current_exe().ok()?;
    dir.pop();
    // Test and example binaries live one level deeper (deps/, examples/).
    for candidate in [dir.clone(), dir.parent()?.to_path_buf()] {
        let exe = candidate.join(format!("xai-shard-worker{}", std::env::consts::EXE_SUFFIX));
        if exe.is_file() {
            return Some(exe);
        }
    }
    None
}

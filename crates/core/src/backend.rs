//! Unified execution backends (DESIGN.md §14).
//!
//! Every runner — the in-process shard runner
//! ([`crate::shard::explain_sharded`]), the OS-process pool (the facade's
//! `explain_process_pool`), and the TCP cluster
//! ([`crate::transport::ClusterRunner`]) — does the same "cut the request
//! into [`ShardDescriptor`](crate::shard::ShardDescriptor)s, execute them
//! somewhere, merge the partials bit-identically" job. This module owns
//! that contract once: [`ExecutionBackend`] is an object-safe trait over a
//! [`BackendJob`] (explainer + model + request + shard count), and
//! [`LocalBackend`], [`ProcessPoolBackend`] and [`ClusterBackend`] are
//! its three implementations. The legacy entry points are thin
//! constructors over these types; the serving engine
//! ([`crate::serve::ExplanationService`]) routes requests through the
//! same trait, selected by the typed [`BackendChoice`] travelling inside
//! every [`crate::explainer::RunConfig`].
//!
//! The invariant every backend upholds: **the explanation bytes are
//! identical to the unsharded `Explainer::explain` run** (on the
//! `workers > 1` parallel path, which shares the chunk grid) for every
//! shard count, every backend, and every fault schedule. Where work runs
//! is an operational choice; what it computes never is. That determinism
//! is also what makes the [`ShardCache`] possible: a shard's result is a
//! pure function of its descriptor bytes, so a hedged, retried, or
//! repeated shard can be answered from cache. The shard cache is one
//! exact-LRU [`Cache`] keyed on 64-bit FNV-1a hashes of the model
//! fingerprint and the encoded descriptor ([`descriptor_cache_key`]); it
//! keeps no descriptor bytes, so it trusts those hashes not to collide.
//!
//! Both remote backends run on one [`ClusterRunner`] and one dispatch
//! core ([`execute_cluster`]): the cluster's endpoints are TCP daemons,
//! the pool's one endpoint spawns worker processes and keeps them as
//! persistent stdin/stdout sessions. Either way a descriptor travels in
//! the same frame, through the same round trip, to the same worker loop
//! ([`crate::transport::serve_connection`]).
//!
//! Failure semantics per backend:
//!
//! - [`LocalBackend`]: errors surface exactly as `explain` would raise
//!   them; there is no transport to degrade.
//! - [`ProcessPoolBackend`]: worker failures are typed
//!   ([`XaiError::WorkerPanic`], [`XaiError::ModelFault`] for an
//!   abnormal exit, [`XaiError::Parse`], [`XaiError::BudgetExceeded`]
//!   when one frame exchange outlives [`PoolConfig::deadline`]) and never
//!   retried or degraded — a pool lives on one machine, so a failure
//!   would only repeat. The failed worker is killed and reaped, and the
//!   job's shards not yet started are skipped. Only a kept worker found
//!   dead before it replied is replaced by a fresh one.
//! - [`ClusterBackend`]: transport failures are retried, hedged and
//!   breaker-routed by the [`ClusterRunner`]; when the whole cluster is
//!   unreachable and [`FallbackPolicy::InProcess`] allows, the job
//!   degrades to [`LocalBackend`] semantics and the outcome carries
//!   `degraded: true`. Execution failures (typed envelopes from a worker
//!   that *ran* the shard) are deterministic and are never retried or
//!   degraded; one ends the job, skipping its shards not yet started.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use crate::cache::{Cache, CacheStats};
use crate::error::{XaiError, XaiResult};
use crate::explainer::{ExplainRequest, Explanation, ModelOracle};
use crate::report::Json;
use crate::serve::fingerprint_bytes;
use crate::shard::{
    build_descriptors, merge_shard_results, shard_chunk_ranges, wire_error, ShardResult,
    ShardableExplainer,
};
use crate::transport::{
    ClusterConfig, ClusterRunner, ClusterStats, Endpoint, FallbackPolicy, RetryPolicy,
    ShardFailure,
};
use xai_rand::parallel::try_par_map_seeded;

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

/// The three execution substrates, as a plain discriminant (used as the
/// key under which backends register with the serving engine).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BackendKind {
    /// Threads in this process.
    Local,
    /// `xai-shard-worker` OS processes on this machine.
    ProcessPool,
    /// `xai-shard-worker --listen` daemons over TCP.
    Cluster,
}

impl BackendKind {
    /// The wire name (`"local"`, `"process_pool"`, `"cluster"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Local => "local",
            BackendKind::ProcessPool => "process_pool",
            BackendKind::Cluster => "cluster",
        }
    }
}

/// Where a run should execute, as carried by
/// [`crate::explainer::RunConfig::backend`]. `Local` is the default and
/// the only choice that needs no shard count; the remote choices name
/// how many [`ShardDescriptor`](crate::shard::ShardDescriptor)s the plan
/// is cut into.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// Run in-process (threads); the historical behaviour.
    #[default]
    Local,
    /// Fan out across `shards` worker processes on this machine.
    ProcessPool {
        /// Number of shard descriptors (>= 1).
        shards: usize,
    },
    /// Fan out across `shards` descriptors shipped to TCP daemons.
    Cluster {
        /// Number of shard descriptors (>= 1).
        shards: usize,
    },
}

impl BackendChoice {
    /// A process-pool choice over `shards` descriptors (>= 1).
    pub fn process_pool(shards: usize) -> Self {
        assert!(shards >= 1, "process-pool backend needs at least one shard");
        BackendChoice::ProcessPool { shards }
    }

    /// A cluster choice over `shards` descriptors (>= 1).
    pub fn cluster(shards: usize) -> Self {
        assert!(shards >= 1, "cluster backend needs at least one shard");
        BackendChoice::Cluster { shards }
    }

    /// The substrate this choice names.
    pub fn kind(&self) -> BackendKind {
        match self {
            BackendChoice::Local => BackendKind::Local,
            BackendChoice::ProcessPool { .. } => BackendKind::ProcessPool,
            BackendChoice::Cluster { .. } => BackendKind::Cluster,
        }
    }

    /// The shard count for remote choices; `None` for `Local`.
    pub fn shards(&self) -> Option<usize> {
        match self {
            BackendChoice::Local => None,
            BackendChoice::ProcessPool { shards } | BackendChoice::Cluster { shards } => {
                Some(*shards)
            }
        }
    }

    /// Whether this is the in-process default.
    pub fn is_local(&self) -> bool {
        matches!(self, BackendChoice::Local)
    }

    /// Canonical wire form: `{"kind": "...", "shards": N|null}`.
    pub fn to_json(&self) -> Json {
        let shards = match self.shards() {
            Some(n) => Json::Num(n as f64),
            None => Json::Null,
        };
        Json::obj(vec![("kind", Json::str(self.kind().as_str())), ("shards", shards)])
    }

    /// Strict parse of the wire form: unknown fields and kinds are typed
    /// [`XaiError::Parse`] errors; `local` must not carry a shard count;
    /// remote kinds require an integer `shards >= 1`.
    pub fn from_json(json: &Json) -> XaiResult<Self> {
        const WHAT: &str = "ExecPlan backend";
        let Json::Obj(fields) = json else {
            return Err(wire_error(format!("{WHAT}: expected an object")));
        };
        for (key, _) in fields {
            if !matches!(key.as_str(), "kind" | "shards") {
                return Err(wire_error(format!("{WHAT}: unknown field '{key}'")));
            }
        }
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| wire_error(format!("{WHAT}: missing string field 'kind'")))?;
        let shards = match json.get("shards") {
            None | Some(Json::Null) => None,
            Some(Json::Num(n)) => {
                if n.fract() != 0.0 || *n < 1.0 || *n > u32::MAX as f64 {
                    return Err(wire_error(format!(
                        "{WHAT}: 'shards' must be an integer >= 1, got {n}"
                    )));
                }
                Some(*n as usize)
            }
            Some(_) => {
                return Err(wire_error(format!("{WHAT}: 'shards' must be a number or null")));
            }
        };
        match (kind, shards) {
            ("local", None) => Ok(BackendChoice::Local),
            ("local", Some(_)) => {
                Err(wire_error(format!("{WHAT}: 'local' does not take a shard count")))
            }
            ("process_pool", Some(shards)) => Ok(BackendChoice::ProcessPool { shards }),
            ("cluster", Some(shards)) => Ok(BackendChoice::Cluster { shards }),
            ("process_pool" | "cluster", None) => {
                Err(wire_error(format!("{WHAT}: '{kind}' requires 'shards'")))
            }
            (other, _) => Err(wire_error(format!("{WHAT}: unknown kind '{other}'"))),
        }
    }
}

// ---------------------------------------------------------------------------
// The job and its outcome
// ---------------------------------------------------------------------------

/// Everything a backend needs to execute one explanation: the shardable
/// method, the live model oracle (used for merging and for in-process
/// execution), the request, the model's persisted JSON (required by the
/// remote backends, whose workers rebuild the model from it), and the
/// shard count.
pub struct BackendJob<'a> {
    /// The method to run.
    pub explainer: &'a dyn ShardableExplainer,
    /// The live model (merge epilogues and local execution call it).
    pub model: &'a dyn ModelOracle,
    /// The request, including its [`crate::explainer::RunConfig`].
    pub req: &'a ExplainRequest<'a>,
    /// The model's persisted JSON, when available. Remote backends
    /// require it; [`LocalBackend`] ignores it.
    pub model_json: Option<Json>,
    /// How many shard descriptors to cut the plan into (>= 1).
    pub n_shards: usize,
}

impl<'a> BackendJob<'a> {
    /// A job over the given method, model and request.
    pub fn new(
        explainer: &'a dyn ShardableExplainer,
        model: &'a dyn ModelOracle,
        req: &'a ExplainRequest<'a>,
        n_shards: usize,
    ) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        BackendJob { explainer, model, req, model_json: None, n_shards }
    }

    /// Attaches the model's persisted JSON (enables remote backends).
    pub fn with_model_json(mut self, model_json: Json) -> Self {
        self.model_json = Some(model_json);
        self
    }

    fn require_model_json(&self) -> XaiResult<Json> {
        self.model_json.clone().ok_or_else(|| XaiError::Unsupported {
            context: "remote backends need the model's persisted JSON; \
                      attach it with BackendJob::with_model_json"
                .into(),
        })
    }
}

/// What a backend produced: the merged explanation (bit-identical across
/// backends), whether the run degraded to in-process execution, and how
/// the shard cache fared during this job.
#[derive(Clone, Debug)]
pub struct BackendOutcome {
    /// The merged explanation.
    pub explanation: Explanation,
    /// True when a cluster job fell back to the in-process runner under
    /// [`FallbackPolicy::InProcess`]. The bytes are identical either way.
    pub degraded: bool,
    /// Shards answered from the shard-level result cache.
    pub shard_cache_hits: u64,
    /// Shards that missed the cache and executed for real.
    pub shard_cache_misses: u64,
}

impl BackendOutcome {
    fn fresh(explanation: Explanation) -> Self {
        BackendOutcome { explanation, degraded: false, shard_cache_hits: 0, shard_cache_misses: 0 }
    }
}

/// The one execution contract: take a job, run its shard plan somewhere,
/// merge bit-identically. Object-safe so the serving engine can hold a
/// heterogeneous registry of `Arc<dyn ExecutionBackend>`.
pub trait ExecutionBackend: Send + Sync {
    /// Which substrate this backend runs on.
    fn kind(&self) -> BackendKind;

    /// Executes the job to a merged explanation. Implementations must
    /// keep the bytes identical to the unsharded `explain` at the same
    /// plan (`workers > 1`), for any shard count and fault schedule.
    fn execute(&self, job: &BackendJob<'_>) -> XaiResult<BackendOutcome>;
}

// ---------------------------------------------------------------------------
// Shard-level result cache
// ---------------------------------------------------------------------------

/// An LRU cache of [`ShardResult`]s keyed on
/// `(fingerprint hash, descriptor hash)` — see [`descriptor_cache_key`].
/// Because shard execution is deterministic, a cached result is exactly
/// what a worker would recompute, so retried, hedged, or repeated shards
/// can be answered without touching the network. A capacity of zero
/// disables caching entirely.
pub type ShardCache = Cache<(u64, u64), ShardResult>;

/// The cache key for a descriptor: the FNV-1a hash of its model
/// fingerprint and the FNV-1a hash of its canonical JSON bytes (the same
/// bytes that travel to the worker). The descriptor bytes embed the
/// method, config, request, plan, and chunk range, so distinct work gets
/// distinct bytes. The cache stores only the two 64-bit hashes, not the
/// bytes: two descriptors whose hashes both collide would share one
/// cached result, and nothing detects it.
pub fn descriptor_cache_key(fingerprint: &str, descriptor_bytes: &[u8]) -> (u64, u64) {
    (fingerprint_bytes(fingerprint.as_bytes()), fingerprint_bytes(descriptor_bytes))
}

// ---------------------------------------------------------------------------
// Local backend: threads in this process
// ---------------------------------------------------------------------------

/// The shared dispatch core of the in-process runner: cut the draw grid
/// into `n_shards` ranges, run `explain_chunks` per shard on the seeded
/// fork-join executor, merge in shard order. This *is* the historical
/// `explain_sharded` body; the public function is now a thin delegate.
pub fn dispatch_local(
    explainer: &dyn ShardableExplainer,
    model: &dyn ModelOracle,
    req: &ExplainRequest<'_>,
    n_shards: usize,
) -> XaiResult<Explanation> {
    assert!(n_shards >= 1, "need at least one shard");
    let grid = explainer.draw_grid(req)?;
    let bounds = shard_chunk_ranges(grid.n_chunks(), n_shards);
    let shard_results = try_par_map_seeded(n_shards, 0, req.plan.workers, |s, _rng| {
        let (start, end) = bounds[s];
        explainer.explain_chunks(model, req, start..end)
    })
    .map_err(XaiError::from)?;
    // Sequence in shard order so the lowest-indexed failing shard wins,
    // independent of scheduling.
    let partials = shard_results.into_iter().collect::<XaiResult<Vec<Json>>>()?;
    explainer.merge_chunks(model, req, partials)
}

/// In-process execution: shards become tasks on the fork-join executor.
/// No transport, no cache, no degradation — errors surface exactly as
/// `explain` would raise them.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalBackend;

impl ExecutionBackend for LocalBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Local
    }

    fn execute(&self, job: &BackendJob<'_>) -> XaiResult<BackendOutcome> {
        dispatch_local(job.explainer, job.model, job.req, job.n_shards).map(BackendOutcome::fresh)
    }
}

// ---------------------------------------------------------------------------
// Process-pool backend: xai-shard-worker OS processes
// ---------------------------------------------------------------------------

/// How the process pool launches and supervises its workers.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Path to the `xai-shard-worker` executable.
    pub worker_exe: PathBuf,
    /// Maximum worker processes alive at once.
    pub max_procs: usize,
    /// Wall-clock bound on each frame exchange with a worker; a worker
    /// past it is killed and the run fails with
    /// [`XaiError::BudgetExceeded`]. `None` waits indefinitely for
    /// well-behaved workers.
    pub deadline: Option<Duration>,
    /// Extra environment variables for every worker (used by the
    /// fault-injection tests; empty in normal operation).
    pub env: Vec<(String, String)>,
}

impl PoolConfig {
    /// A pool over the given worker executable: workers capped at the
    /// executor's default parallelism, a generous 60 s exchange deadline.
    pub fn new(worker_exe: impl Into<PathBuf>) -> Self {
        PoolConfig {
            worker_exe: worker_exe.into(),
            max_procs: xai_rand::parallel::default_workers(),
            deadline: Some(Duration::from_secs(60)),
            env: Vec::new(),
        }
    }
}

/// OS-process execution on this machine: a [`ClusterRunner`] whose one
/// endpoint spawns `xai-shard-worker` processes, at most
/// [`PoolConfig::max_procs`] alive at once, and keeps each as a
/// persistent stdin/stdout session for later shards and jobs. Dropping
/// the backend kills and reaps them. A panicking worker is
/// [`XaiError::WorkerPanic`], garbage output is [`XaiError::Parse`], an
/// abnormal exit is [`XaiError::ModelFault`], and an exchange past
/// [`PoolConfig::deadline`] kills the worker and is
/// [`XaiError::BudgetExceeded`]. A failure would only repeat on the same
/// machine, so the runner makes one attempt per shard, never hedges,
/// never trips a breaker (a fresh process is how the pool recovers) and
/// never degrades. An optional [`ShardCache`] answers repeated
/// descriptors without touching a worker.
pub struct ProcessPoolBackend {
    pool: PoolConfig,
    runner: ClusterRunner,
}

impl ProcessPoolBackend {
    /// A backend over the given pool configuration, uncached.
    pub fn new(pool: PoolConfig) -> Self {
        // No addresses and no connect time: the pool spawns, it never
        // connects, so neither may widen the round-trip bound.
        let config = ClusterConfig {
            connect_timeout: Duration::ZERO,
            io_timeout: pool.deadline.unwrap_or(Duration::MAX),
            retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
            breaker_threshold: usize::MAX,
            fallback: FallbackPolicy::Fail,
            shard_cache_capacity: 0,
            ..ClusterConfig::new(Vec::<String>::new())
        };
        let endpoint = Endpoint::Spawn { exe: pool.worker_exe.clone(), env: pool.env.clone() };
        let runner = ClusterRunner::over(config, vec![endpoint], pool.max_procs, pool.max_procs);
        ProcessPoolBackend { pool, runner }
    }

    /// Attaches a shard-level result cache.
    pub fn with_cache(mut self, cache: Arc<ShardCache>) -> Self {
        self.runner.shard_cache = Some(cache);
        self
    }

    /// The pool configuration.
    pub fn pool(&self) -> &PoolConfig {
        &self.pool
    }

    /// Counter snapshot of the attached cache, if any.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.runner.shard_cache.as_ref().map(|c| c.stats())
    }

    /// The pool runner's counters; `connections_opened` counts worker
    /// processes spawned.
    pub fn stats(&self) -> ClusterStats {
        self.runner.stats()
    }
}

impl ExecutionBackend for ProcessPoolBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::ProcessPool
    }

    fn execute(&self, job: &BackendJob<'_>) -> XaiResult<BackendOutcome> {
        execute_cluster(&self.runner, job)
    }
}

// ---------------------------------------------------------------------------
// Cluster backend: TCP daemons behind the ClusterRunner
// ---------------------------------------------------------------------------

/// TCP execution across `xai-shard-worker --listen` daemons, supervised
/// by a shared [`ClusterRunner`] (retry, hedging, circuit breakers,
/// persistent sessions, shard cache). Cloning the `Arc` lets the serving
/// engine and direct callers share one set of connections, breakers and
/// cache.
pub struct ClusterBackend {
    runner: Arc<ClusterRunner>,
}

impl ClusterBackend {
    /// A backend over an existing (possibly shared) runner.
    pub fn new(runner: Arc<ClusterRunner>) -> Self {
        ClusterBackend { runner }
    }

    /// Builds a fresh runner from `config`.
    pub fn from_config(config: crate::transport::ClusterConfig) -> XaiResult<Self> {
        Ok(ClusterBackend::new(Arc::new(ClusterRunner::new(config)?)))
    }

    /// The underlying runner (for health/stats inspection).
    pub fn runner(&self) -> &Arc<ClusterRunner> {
        &self.runner
    }
}

impl ExecutionBackend for ClusterBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cluster
    }

    fn execute(&self, job: &BackendJob<'_>) -> XaiResult<BackendOutcome> {
        execute_cluster(&self.runner, job)
    }
}

/// The dispatch/merge core of both remote backends: build descriptors,
/// ship them through the runner's supervision (retry/hedging/breakers/
/// sessions/cache), merge bit-identically — and degrade to
/// [`dispatch_local`] with a `degraded` marker when the whole cluster is
/// unreachable and [`FallbackPolicy::InProcess`] allows. Execution
/// failures (typed envelopes from a worker that ran the shard, abnormal
/// worker exits) are deterministic and are returned as-is, never retried
/// or degraded. The outcome's shard-cache counts are this job's own
/// lookups.
pub fn execute_cluster(runner: &ClusterRunner, job: &BackendJob<'_>) -> XaiResult<BackendOutcome> {
    let model_json = job.require_model_json()?;
    let descs = build_descriptors(job.explainer, job.req, model_json, job.n_shards)?;
    let (results, (shard_cache_hits, shard_cache_misses)) = runner.run_classified(&descs);
    let (explanation, degraded) = match results {
        Ok(results) => (merge_shard_results(job.explainer, job.model, job.req, results)?, false),
        Err(failure @ ShardFailure::Execution(_)) => return Err(failure.into_error()),
        Err(failure) if runner.config().fallback == FallbackPolicy::Fail => {
            return Err(failure.into_error())
        }
        Err(_) => {
            runner.mark_degraded();
            (dispatch_local(job.explainer, job.model, job.req, job.n_shards)?, true)
        }
    };
    Ok(BackendOutcome { explanation, degraded, shard_cache_hits, shard_cache_misses })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json_parse::parse_json;
    use crate::shard::ShardDescriptor;

    #[test]
    fn backend_choice_wire_round_trips() {
        for choice in [
            BackendChoice::Local,
            BackendChoice::process_pool(4),
            BackendChoice::cluster(2),
        ] {
            let json = choice.to_json();
            assert_eq!(BackendChoice::from_json(&json).unwrap(), choice, "{}", json.to_json());
        }
    }

    #[test]
    fn backend_choice_parse_is_strict() {
        for bad in [
            r#"{"kind": "warp", "shards": 2}"#,
            r#"{"kind": "local", "shards": 2}"#,
            r#"{"kind": "cluster"}"#,
            r#"{"kind": "cluster", "shards": 0}"#,
            r#"{"kind": "cluster", "shards": 1.5}"#,
            r#"{"kind": "cluster", "shards": 2, "turbo": true}"#,
            r#"{"shards": 2}"#,
            r#"["cluster", 2]"#,
        ] {
            let json = parse_json(bad).unwrap();
            let err = BackendChoice::from_json(&json).unwrap_err();
            assert!(matches!(err, XaiError::Parse { .. }), "{bad}: {err:?}");
        }
    }

    #[test]
    fn shard_cache_is_lru_with_counters() {
        fn result(shard: usize) -> ShardResult {
            ShardResult {
                method: "test".into(),
                fingerprint: format!("{shard:016x}"),
                shard,
                n_shards: 8,
                partial: Json::obj(vec![("chunks", Json::Arr(vec![]))]),
            }
        }
        fn desc(shard: usize) -> ShardDescriptor {
            ShardDescriptor {
                method: "test".into(),
                config: Json::obj(vec![]),
                fingerprint: "00".into(),
                shard,
                n_shards: 8,
                chunk_start: shard,
                chunk_end: shard + 1,
                total_draws: 8,
                chunk_size: 1,
                model: Json::obj(vec![]),
                dataset: Json::obj(vec![]),
                instance: None,
                feature: None,
                plan: crate::explainer::RunConfig::default(),
            }
        }
        fn key(shard: usize) -> (u64, u64) {
            let desc = desc(shard);
            descriptor_cache_key(&desc.fingerprint, desc.to_json_string().as_bytes())
        }
        let cache = ShardCache::new(2);
        assert!(cache.get(&key(0)).is_none());
        cache.insert(key(0), result(0));
        cache.insert(key(1), result(1));
        assert_eq!(cache.get(&key(0)).unwrap().shard, 0);
        // 1 is now least recently used; inserting 2 evicts it.
        cache.insert(key(2), result(2));
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.get(&key(2)).unwrap().shard, 2);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = ShardCache::new(0);
        let desc = ShardDescriptor {
            method: "test".into(),
            config: Json::obj(vec![]),
            fingerprint: "00".into(),
            shard: 0,
            n_shards: 1,
            chunk_start: 0,
            chunk_end: 1,
            total_draws: 1,
            chunk_size: 1,
            model: Json::obj(vec![]),
            dataset: Json::obj(vec![]),
            instance: None,
            feature: None,
            plan: crate::explainer::RunConfig::default(),
        };
        let result = ShardResult {
            method: "test".into(),
            fingerprint: "00".into(),
            shard: 0,
            n_shards: 1,
            partial: Json::obj(vec![("chunks", Json::Arr(vec![]))]),
        };
        let key = descriptor_cache_key(&desc.fingerprint, desc.to_json_string().as_bytes());
        cache.insert(key, result);
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}

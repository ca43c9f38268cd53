//! The three workloads: seeded request generators and the service each
//! one runs against.
//!
//! Every run replays a fixed request sequence: request `i` is a pure
//! function of `(workload, seed, i)`, so the method mix of any prefix of
//! whole passes is identical from run to run and seed to seed.

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Arc;

use xai::data::Dataset;
use xai::models::persisted_bytes;
use xai::prelude::*;
use xai::serve::{register_persist, workspace_service};
use xai::transport::DaemonHandle;

use crate::trace::TimedOracle;

/// Seed of the registered 200-row dataset every model is fitted on.
const DATA_SEED: u64 = 7;
const DATA_ROWS: usize = 200;
/// `local-hot`: rows × variants = 1024 distinct requests, 8× the
/// default result-cache capacity of 128.
const HOT_ROWS: usize = 64;
const HOT_VARIANTS: usize = 16;
const HOT_KEYS: usize = HOT_ROWS * HOT_VARIANTS;
/// Seeds are carried as JSON numbers, so plan seeds stay below 2^53.
const SEED_MASK: u64 = (1 << 53) - 1;
/// Requests in warm-up come from this index onward (cold and remote) or
/// from a separate draw stream (hot), never from the timed sequence.
const WARMUP_BASE: u64 = 1 << 48;
/// Keys of the memo pre-conditioning requests of `local-cold`.
const PRECONDITION_BASE: u64 = 1 << 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LocalCold,
    LocalHot,
    RemoteSharded,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "local-cold" => Some(Workload::LocalCold),
            "local-hot" => Some(Workload::LocalHot),
            "remote-sharded" => Some(Workload::RemoteSharded),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalCold => "local-cold",
            Workload::LocalHot => "local-hot",
            Workload::RemoteSharded => "remote-sharded",
        }
    }

    /// Requests in one pass; a run stops only at a pass boundary.
    pub fn pass_len(self) -> u64 {
        match self {
            Workload::LocalCold => COLD_BLOCK.len() as u64,
            Workload::LocalHot => 4096,
            Workload::RemoteSharded => REMOTE_BLOCK.len() as u64,
        }
    }

    /// Warm-up requests sent during set-up: one pass in a fixed order
    /// (so set-up costs the same at every seed), or on `local-hot`
    /// enough Zipf draws to fill the result cache.
    pub fn warmup_len(self) -> u64 {
        match self {
            Workload::LocalHot => 2048,
            _ => self.pass_len(),
        }
    }

    /// Batched Kernel SHAP requests sent after set-up and before the
    /// timed run. On `local-cold` the coalition memo's hash table grows
    /// once, by about 6 MB, after roughly 1.2 million evictions: about
    /// 2 300 of these requests, or 5 500 of the timed mix. 3 072 of them
    /// take it past that point, so the timed run sees the memo at its
    /// steady-state size whatever the throughput.
    pub fn precondition_len(self) -> u64 {
        match self {
            Workload::LocalCold => 3072,
            _ => 0,
        }
    }

    /// Share of distinct requests checked against a direct reference
    /// run, as a mask on the request's key hash (0 checks every one).
    pub fn reference_mask(self) -> u64 {
        match self {
            Workload::LocalCold => 7,
            Workload::LocalHot => 0,
            Workload::RemoteSharded => 3,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    Logistic,
    Gbdt,
}

impl ModelKind {
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Logistic => "logistic",
            ModelKind::Gbdt => "gbdt",
        }
    }
}

/// One kind of request: method, model and the plan shape.
#[derive(Clone, Copy, Debug)]
struct Spec {
    method: &'static str,
    model: ModelKind,
    batched: bool,
    backend: BackendChoice,
}

const KERNEL: &str = "Kernel SHAP";
const PERMUTATION: &str = "Permutation sampling Shapley";
const LIME: &str = "LIME";
const ANCHORS: &str = "Anchors";
const TREE: &str = "TreeSHAP";

const fn local(method: &'static str, model: ModelKind, batched: bool) -> Spec {
    Spec {
        method,
        model,
        batched,
        backend: BackendChoice::Local,
    }
}

const fn remote(method: &'static str, backend: BackendChoice) -> Spec {
    Spec {
        method,
        model: ModelKind::Logistic,
        batched: false,
        backend,
    }
}

const fn repeat<const N: usize>(spec: Spec) -> [Spec; N] {
    [spec; N]
}

/// The `local-cold` pass: 64 requests. The counts weight each coalition
/// method so that one pass takes a few tenths of a second on two
/// workers, and the GBDT requests (about 80–100 ms each) form the
/// latency tail.
static COLD_BLOCK: std::sync::LazyLock<Vec<Spec>> = std::sync::LazyLock::new(|| {
    use ModelKind::{Gbdt, Logistic};
    [
        &repeat::<12>(local(KERNEL, Logistic, false))[..],
        &repeat::<16>(local(KERNEL, Logistic, true)),
        &repeat::<2>(local(KERNEL, Gbdt, false)),
        &repeat::<2>(local(KERNEL, Gbdt, true)),
        &repeat::<8>(local(PERMUTATION, Logistic, true)),
        &repeat::<1>(local(PERMUTATION, Gbdt, true)),
        &repeat::<10>(local(LIME, Logistic, false)),
        &repeat::<4>(local(LIME, Gbdt, false)),
        &repeat::<6>(local(ANCHORS, Logistic, false)),
        &repeat::<3>(local(ANCHORS, Gbdt, false)),
    ]
    .concat()
});

/// The `remote-sharded` pass: each method 3× on a 4-shard cluster plan
/// and 1× on a 2-process pool plan.
static REMOTE_BLOCK: std::sync::LazyLock<Vec<Spec>> = std::sync::LazyLock::new(|| {
    let mut block = Vec::new();
    for method in [KERNEL, LIME, PERMUTATION] {
        block.extend(repeat::<3>(remote(
            method,
            BackendChoice::Cluster { shards: 4 },
        )));
        block.push(remote(method, BackendChoice::ProcessPool { shards: 2 }));
    }
    block
});

/// SplitMix64 finalizer: the counter-based generator behind every draw.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The data and models every workload serves, fitted once per set-up.
pub struct Fixture {
    pub data: Dataset,
    pub logistic: LogisticRegression,
    pub gbdt: Gbdt,
}

impl Fixture {
    pub fn fit() -> Fixture {
        let data = xai::data::synth::german_credit(DATA_ROWS, DATA_SEED);
        let logistic = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let gbdt = Gbdt::fit(data.x(), data.y(), GbdtConfig::default());
        Fixture {
            data,
            logistic,
            gbdt,
        }
    }

    pub fn model(&self, kind: ModelKind) -> &dyn ModelOracle {
        match kind {
            ModelKind::Logistic => &self.logistic,
            ModelKind::Gbdt => &self.gbdt,
        }
    }
}

/// The seeded request sequence of one workload.
pub struct Sequence {
    pub workload: Workload,
    seed: u64,
    /// Base of the per-request plan seeds (cold, remote): request `i`
    /// runs at `plan_base + i`, so no two requests are equal.
    plan_base: u64,
    /// `local-hot`: the canonical text of each distinct request, and the
    /// cumulative Zipf(s = 1) distribution over ranks with the key of
    /// each rank.
    hot_requests: Vec<ServeRequest>,
    hot_texts: Vec<String>,
    zipf_cdf: Vec<f64>,
    rank_key: Vec<u64>,
}

impl Sequence {
    pub fn new(workload: Workload, seed: u64, data: &Dataset) -> Sequence {
        let plan_base = mix(seed ^ 0x3) & (SEED_MASK >> 1);
        let mut seq = Sequence {
            workload,
            seed,
            plan_base,
            hot_requests: Vec::new(),
            hot_texts: Vec::new(),
            zipf_cdf: Vec::new(),
            rank_key: Vec::new(),
        };
        if workload == Workload::LocalHot {
            seq.build_hot(data);
        }
        seq
    }

    fn build_hot(&mut self, data: &Dataset) {
        let rows = shuffled(data.n_rows(), mix(self.seed ^ 0x4));
        let seeds: Vec<u64> = (0..8)
            .map(|v| mix(self.seed ^ 0x5 ^ (v << 8)) & SEED_MASK)
            .collect();
        for &row in &rows[..HOT_ROWS] {
            for v in 0..HOT_VARIANTS {
                // 4 TreeSHAP/GBDT, 4 LIME/logistic, 8 batched Kernel SHAP/logistic.
                let (spec, plan_seed) = match v {
                    0..=3 => (local(TREE, ModelKind::Gbdt, false), seeds[v]),
                    4..=7 => (local(LIME, ModelKind::Logistic, false), seeds[v - 4]),
                    _ => (local(KERNEL, ModelKind::Logistic, true), seeds[v - 8]),
                };
                self.hot_requests
                    .push(request(spec, data.row(row), plan_seed));
            }
        }
        self.hot_texts = self
            .hot_requests
            .iter()
            .map(ServeRequest::to_json_string)
            .collect();
        let mut distinct = self.hot_texts.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            HOT_KEYS,
            "local-hot keys must be distinct requests"
        );
        self.rank_key = shuffled(HOT_KEYS, mix(self.seed ^ 0x6))
            .into_iter()
            .map(|k| k as u64)
            .collect();
        let weights: Vec<f64> = (1..=HOT_KEYS).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        self.zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
    }

    fn zipf_key(&self, stream: u64, i: u64) -> u64 {
        let u = unit(mix(self.seed ^ stream ^ mix(i)));
        let rank = self.zipf_cdf.partition_point(|&c| c <= u).min(HOT_KEYS - 1);
        self.rank_key[rank]
    }

    /// Timed request `i`: its key (equal keys are equal requests) and
    /// its canonical JSON text.
    pub fn request(&self, i: u64) -> (u64, Cow<'_, str>) {
        match self.workload {
            Workload::LocalHot => {
                let key = self.zipf_key(0x7, i);
                (key, Cow::Borrowed(self.hot_texts[key as usize].as_str()))
            }
            _ => (i, Cow::Owned(self.key_request(i).to_json_string())),
        }
    }

    /// Warm-up request `i`, disjoint from every timed request on the
    /// cold and remote workloads.
    pub fn warmup(&self, i: u64) -> Cow<'_, str> {
        match self.workload {
            Workload::LocalHot => {
                Cow::Borrowed(self.hot_texts[self.zipf_key(0x8, i) as usize].as_str())
            }
            _ => Cow::Owned(self.key_request(WARMUP_BASE + i).to_json_string()),
        }
    }

    /// Memo pre-conditioning request `i` (see
    /// [`Workload::precondition_len`]), disjoint from every other request.
    pub fn precondition(&self, i: u64) -> String {
        let key = PRECONDITION_BASE + i;
        let spec = local(KERNEL, ModelKind::Logistic, true);
        request(
            spec,
            &self.instance(key),
            (self.plan_base + key) & SEED_MASK,
        )
        .to_json_string()
    }

    /// The request behind a key.
    pub fn key_request(&self, key: u64) -> ServeRequest {
        if self.workload == Workload::LocalHot {
            return self.hot_requests[key as usize].clone();
        }
        let block: &[Spec] = match self.workload {
            Workload::LocalCold => &COLD_BLOCK,
            _ => &REMOTE_BLOCK,
        };
        let n = block.len() as u64;
        let spec = if key >= WARMUP_BASE {
            block[((key - WARMUP_BASE) % n) as usize]
        } else {
            let order = shuffled(block.len(), mix(self.seed ^ 0x9 ^ mix(key / n)));
            block[order[(key % n) as usize]]
        };
        request(
            spec,
            &self.instance(key),
            (self.plan_base + key) & SEED_MASK,
        )
    }

    /// A fresh instance for every key: one German-credit row drawn at a
    /// seed of its own, never the registered dataset's seed.
    fn instance(&self, key: u64) -> Vec<f64> {
        let seed = match mix(self.seed ^ 0x1 ^ mix(key)) & SEED_MASK {
            DATA_SEED => DATA_SEED + 1,
            s => s,
        };
        xai::data::synth::german_credit(1, seed).row(0).to_vec()
    }

    /// Whether the request behind `key` is checked against a reference.
    pub fn sampled(&self, key: u64) -> bool {
        mix(self.seed ^ 0xa ^ key) & self.workload.reference_mask() == 0
    }
}

fn request(spec: Spec, row: &[f64], seed: u64) -> ServeRequest {
    let workers = if spec.backend.is_local() { 1 } else { 2 };
    let plan = RunConfig::seeded(seed)
        .with_workers(workers)
        .with_batched(spec.batched)
        .with_backend(spec.backend);
    ServeRequest::new(spec.method, spec.model.name())
        .with_instance(row)
        .with_plan(plan)
}

/// A seeded Fisher–Yates permutation of `0..n`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Where the models are registered: plainly, or wrapped in a timing
/// oracle for the traced run.
pub enum Registration {
    Plain,
    Timed {
        logistic: Arc<TimedOracle<LogisticRegression>>,
        gbdt: Arc<TimedOracle<Gbdt>>,
    },
}

/// A service ready for load, with the cluster runner it routes to.
pub struct Harness {
    pub service: ExplanationService,
    pub runner: Option<Arc<ClusterRunner>>,
}

/// The two loopback shard daemons of `remote-sharded`; killed on drop.
pub struct Daemons {
    pub worker_exe: PathBuf,
    pub handles: Vec<DaemonHandle>,
}

impl Daemons {
    pub fn spawn() -> Result<Daemons, String> {
        let worker_exe = xai::shard::sibling_worker_exe().ok_or(
            "xai-shard-worker is not built next to the benchmark binary (build both in one profile)",
        )?;
        let handles = (0..2)
            .map(|_| {
                DaemonHandle::spawn(&worker_exe, &[]).map_err(|e| format!("spawning daemon: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Daemons {
            worker_exe,
            handles,
        })
    }

    pub fn addrs(&self) -> Vec<String> {
        self.handles.iter().map(|d| d.addr().to_string()).collect()
    }
}

/// A cluster configuration that fails loudly: a dead daemon surfaces as
/// failed requests, never as a fast in-process fallback.
pub fn cluster_config(daemons: &Daemons) -> ClusterConfig {
    ClusterConfig {
        fallback: FallbackPolicy::Fail,
        ..ClusterConfig::new(daemons.addrs())
    }
}

impl Harness {
    pub fn build(
        fixture: &Fixture,
        registration: &Registration,
        daemons: Option<&Daemons>,
    ) -> Result<Harness, String> {
        let service = workspace_service(ServiceConfig::default());
        match registration {
            Registration::Plain => {
                register_persist(
                    &service,
                    "logistic",
                    fixture.logistic.clone(),
                    fixture.data.clone(),
                );
                register_persist(&service, "gbdt", fixture.gbdt.clone(), fixture.data.clone());
            }
            Registration::Timed { logistic, gbdt } => {
                // The real persisted bytes: fingerprints and cache keys
                // are those of the plain registration.
                service.register_model(
                    "logistic",
                    Arc::clone(logistic) as Arc<dyn ModelOracle + Send + Sync>,
                    fixture.data.clone(),
                    &persisted_bytes(&fixture.logistic),
                );
                service.register_model(
                    "gbdt",
                    Arc::clone(gbdt) as Arc<dyn ModelOracle + Send + Sync>,
                    fixture.data.clone(),
                    &persisted_bytes(&fixture.gbdt),
                );
            }
        }
        let mut runner = None;
        if let Some(daemons) = daemons {
            let cluster = ClusterBackend::from_config(cluster_config(daemons))
                .map_err(|e| format!("building the cluster runner: {e}"))?;
            runner = Some(Arc::clone(cluster.runner()));
            service.set_backend(Arc::new(cluster));
            service.set_backend(Arc::new(ProcessPoolBackend::new(PoolConfig::new(
                &daemons.worker_exe,
            ))));
        }
        Ok(Harness { service, runner })
    }
}

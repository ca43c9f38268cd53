//! End-to-end benchmark of the explanation-serving path.
//!
//! ```sh
//! bash servebench/run.sh --workload local-hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Drives an `ExplanationService` with two closed-loop clients over one
//! of three seeded workloads (see `README.md` in this directory), checks
//! replies against reference bytes from a direct `Explainer::explain`,
//! and prints one JSON line: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics of a traced replay with `--trace 1`.

mod check;
mod drive;
mod replay;
mod trace;
mod workload;

use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use xai::prelude::*;

use check::{reference_keys, references, traced_references, verify, ReplayModels};
use drive::{Length, Quantiles, Run, CLIENTS};
use replay::{replay_request, RemoteLayers};
use trace::{median, now_ns, write_spans, RequestSpans, Span, TimedOracle};
use workload::{cluster_config, Daemons, Fixture, Harness, Registration, Sequence, Workload};

/// Set-ups per untraced run, all but the last in child processes;
/// `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Remote requests replayed layer by layer in the traced run.
const REMOTE_REPLAYS: usize = 32;
/// Requests whose serve-layer spans go to the span file.
const SERVE_SPANS_WRITTEN: u64 = 10_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: set up once, print the set-up time and exit.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return Err(format!("expected '--flag value' pairs, got {pair:?}")),
        }
    }
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = take("workload")?;
    let args = Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload '{workload}'"))?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
        },
        setup_only: flags.remove("setup-only").is_some(),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag --{flag}"));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one set-up builds. Fields drop in order: the service
/// first, then the daemons it routes to.
struct Setup {
    harness: Harness,
    daemons: Option<Daemons>,
    fixture: Fixture,
    seq: Sequence,
}

fn set_up(args: &Args) -> Result<Setup, String> {
    let fixture = Fixture::fit();
    let seq = Sequence::new(args.workload, args.seed, &fixture.data);
    let daemons = match args.workload {
        Workload::RemoteSharded => Some(Daemons::spawn()?),
        _ => None,
    };
    let harness = Harness::build(&fixture, &Registration::Plain, daemons.as_ref())?;
    warm_up(&harness.service, &seq)?;
    Ok(Setup {
        harness,
        daemons,
        fixture,
        seq,
    })
}

/// Sends the warm-up requests.
fn warm_up(service: &ExplanationService, seq: &Sequence) -> Result<(), String> {
    send_all(service, seq.workload.warmup_len(), |i| {
        seq.warmup(i).into_owned()
    })
}

/// Sends `n` untimed requests from [`CLIENTS`] threads; any error is
/// returned.
fn send_all(
    service: &ExplanationService,
    n: u64,
    text: impl Fn(u64) -> String + Sync,
) -> Result<(), String> {
    let text = &text;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                scope.spawn(move || {
                    (c..n).step_by(CLIENTS).try_for_each(|i| {
                        service
                            .submit_json(&text(i))
                            .map(drop)
                            .map_err(|e| format!("untimed request {i}: {e}"))
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("untimed client panicked"))
    })
}

/// Brings the coalition memo to its steady-state size; not part of
/// `setup_s` (see [`Workload::precondition_len`]).
fn precondition(service: &ExplanationService, seq: &Sequence) -> Result<(), String> {
    send_all(service, seq.workload.precondition_len(), |i| {
        seq.precondition(i)
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Median over whole passes of requests per second: robust to a burst
/// of load from outside the benchmark in one part of the run.
fn throughput(run: &Run) -> f64 {
    median(&mut run.pass_rps.clone())
}

/// Median over latency windows of one window quantile, in ms: like the
/// pass median behind throughput, robust to a burst of outside load in
/// one part of the run.
fn window_median(run: &Run, quantile: fn(&Quantiles) -> u64) -> f64 {
    median(
        &mut run
            .windows
            .iter()
            .map(|q| quantile(q) as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

/// Generator guarantees and harness conditions a run must meet; each
/// broken one makes the run incorrect.
fn harness_problems(
    workload: Workload,
    before: &ServeStats,
    after: &ServeStats,
    run: &Run,
) -> Vec<String> {
    let mut problems = Vec::new();
    if workload == Workload::LocalCold && after.cache_hits != before.cache_hits {
        problems.push(format!(
            "local-cold hit the result cache {} times",
            after.cache_hits - before.cache_hits
        ));
    }
    if after.degraded != before.degraded {
        problems.push(format!(
            "{} requests degraded to in-process execution",
            after.degraded - before.degraded
        ));
    }
    if after.submitted - before.submitted + after.rejected - before.rejected != run.sent {
        problems.push("the service did not see every request sent".into());
    }
    problems
}

struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

/// Times one set-up in a child process of this benchmark, so that the
/// measured process's peak memory holds its own set-up only.
fn set_up_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let output = std::process::Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
            "--setup-only",
            "1",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running a set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    match text.trim().parse::<f64>() {
        Ok(seconds) if output.status.success() => Ok(seconds),
        _ => Err(format!(
            "set-up child failed ({}): {}",
            output.status,
            text.trim()
        )),
    }
}

fn untraced(args: &Args) -> Result<Outcome, String> {
    let registry = runnable_registry();
    let mut setup_s = (1..SETUP_REPS)
        .map(|_| set_up_in_child(args))
        .collect::<Result<Vec<_>, _>>()?;
    let t = Instant::now();
    let setup = set_up(args)?;
    setup_s.push(t.elapsed().as_secs_f64());
    let Setup {
        harness,
        fixture,
        seq,
        ..
    } = &setup;
    precondition(&harness.service, seq)?;

    let before = harness.service.stats();
    let run = drive::run(
        &harness.service,
        seq,
        Length::Timed {
            seconds: args.seconds,
        },
        false,
    );
    let after = harness.service.stats();
    let peak_rss = peak_rss_mb()?;

    let refs = references(fixture, &registry, seq, &reference_keys(&run.replies));
    let verdict = verify(seq, &run.replies, &refs);
    let mut problems = harness_problems(args.workload, &before, &after, &run);
    problems.extend(verdict.problems);

    eprintln!(
        "{} seed {}: {} requests in {:.2} s, {} latency windows of {} requests, {} referenced, set-ups {:?} s",
        args.workload.name(),
        args.seed,
        run.sent,
        run.wall_s,
        run.windows.len(),
        run.sent / run.windows.len().max(1) as u64,
        refs.len(),
        setup_s
    );
    Ok(Outcome {
        attempted: run.sent,
        failed: verdict.failed,
        problems,
        metrics: vec![
            metric("throughput_rps", throughput(&run), "req/s"),
            metric("latency_p50_ms", window_median(&run, |q| q.p50), "ms"),
            metric("latency_p99_ms", window_median(&run, |q| q.p99), "ms"),
            metric("setup_s", median(&mut setup_s), "s"),
            metric("peak_rss_mb", peak_rss, "MB"),
        ],
    })
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let registry = runnable_registry();
    let setup = set_up(args)?;
    let Setup {
        harness,
        fixture,
        seq,
        daemons,
    } = &setup;
    precondition(&harness.service, seq)?;

    // The untraced run sets the sequence length and the baseline the
    // tracing overhead is measured against. Both runs take half the run
    // time (the traced one somewhat more), so a traced run costs about
    // as much as an untraced one.
    let plain = drive::run(
        &harness.service,
        seq,
        Length::Timed {
            seconds: args.seconds / 2.0,
        },
        false,
    );

    // The traced run: a fresh service whose models are wrapped in timing
    // oracles, warmed up the same way, replaying the same requests.
    let oracles = (
        Arc::new(TimedOracle::new(fixture.logistic.clone())),
        Arc::new(TimedOracle::new(fixture.gbdt.clone())),
    );
    let registration = Registration::Timed {
        logistic: Arc::clone(&oracles.0),
        gbdt: Arc::clone(&oracles.1),
    };
    let timed = Harness::build(fixture, &registration, daemons.as_ref())?;
    for name in ["logistic", "gbdt"] {
        if timed.service.model_fingerprint(name) != harness.service.model_fingerprint(name) {
            return Err(format!(
                "the timing oracle changed the fingerprint of '{name}'"
            ));
        }
    }
    warm_up(&timed.service, seq)?;
    precondition(&timed.service, seq)?;
    oracles.0.take();
    oracles.1.take();
    let before = timed.service.stats();
    let cluster_before = timed.runner.as_ref().map(|r| r.stats()).unwrap_or_default();
    let mut run = drive::run(&timed.service, seq, Length::Requests(plain.sent), true);
    let after = timed.service.stats();
    let cluster_after = timed.runner.as_ref().map(|r| r.stats()).unwrap_or_default();
    let served_oracle = (oracles.0.take(), oracles.1.take());
    let memo_entries = timed.service.memo_len();

    // Explainer and oracle layers: the references, replayed on timing
    // oracles. Remote layers: a sample replayed call by call.
    let keys: Vec<u64> = reference_keys(&plain.replies)
        .into_iter()
        .chain(reference_keys(&run.replies))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let replay_models = ReplayModels::new(fixture, ServiceConfig::default().memo_capacity);
    let refs = traced_references(
        fixture,
        &registry,
        seq,
        &run.replies,
        &keys,
        &replay_models,
        &mut run.spans,
    );
    let mut replay_failures = 0;
    if let Some(daemons) = daemons {
        let runner = ClusterRunner::new(ClusterConfig {
            shard_cache_capacity: 0,
            ..cluster_config(daemons)
        })
        .map_err(|e| format!("building the replay runner: {e}"))?;
        let pool = ProcessPoolBackend::new(PoolConfig::new(&daemons.worker_exe));
        let layers = RemoteLayers {
            runner: &runner,
            pool: &pool,
        };
        let answered = keys.iter().filter_map(|key| match refs.get(key) {
            Some(Ok(reference)) => Some((*key, reference)),
            _ => None,
        });
        for (key, reference) in answered.take(REMOTE_REPLAYS) {
            let first = run.replies.by_key.get(&key).map_or(key, |r| r.first);
            let request = seq.key_request(key);
            let mut rs = RequestSpans::new(&mut run.spans, first);
            replay_failures += replay_request(
                &layers,
                &registry,
                &fixture.logistic,
                &fixture.data,
                &request,
                reference,
                &mut rs,
            )
            .unwrap_or_else(|e| {
                eprintln!("remote replay of key {key} failed: {e}");
                1
            });
        }
    }

    let plain_verdict = verify(seq, &plain.replies, &refs);
    let verdict = verify(seq, &run.replies, &refs);
    let mismatched = check::payload_mismatches(&plain.replies, &run.replies, seq);
    let mut problems = harness_problems(args.workload, &before, &after, &run);
    problems.extend(plain_verdict.problems);
    problems.extend(verdict.problems);
    if mismatched > 0 {
        problems.push(format!(
            "{mismatched} traced replies differ from the untraced run's payloads"
        ));
    }
    if replay_failures > 0 {
        problems.push(format!(
            "{replay_failures} remote-layer replays differ from the reference"
        ));
    }
    let attempted = plain.sent + run.sent;
    let failed = plain_verdict.failed + verdict.failed + mismatched + replay_failures;

    let executed = (after.cache_misses - before.cache_misses).max(1) as f64;
    let submitted = (after.submitted - before.submitted).max(1) as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let d = |f: fn(&ServeStats) -> u64| f(&after) - f(&before);
    let c = |f: fn(&ClusterStats) -> u64| f(&cluster_after) - f(&cluster_before);
    let (lo, go) = served_oracle;
    let layers = SpanStats::new(&run.spans);
    let metrics = vec![
        metric("serve.parse_us", layers.median_us("serve.parse"), "us"),
        metric("serve.key_us", layers.median_us("serve.key"), "us"),
        metric("serve.hit_us", layers.median_us("serve.hit"), "us"),
        metric("serve.miss_us", layers.median_us("serve.miss"), "us"),
        metric(
            "serve.envelope_us",
            layers.median_us("serve.envelope"),
            "us",
        ),
        metric(
            "serve.cache_hit_ratio",
            ratio(
                d(|s| s.cache_hits),
                d(|s| s.cache_hits) + d(|s| s.cache_misses),
            ),
            "ratio",
        ),
        metric(
            "serve.cache_evictions_per_req",
            d(|s| s.cache_evictions) as f64 / submitted,
            "1/req",
        ),
        metric(
            "serve.rejected_ratio",
            ratio(d(|s| s.rejected), d(|s| s.rejected) + d(|s| s.submitted)),
            "ratio",
        ),
        metric(
            "memo.hit_ratio",
            ratio(
                d(|s| s.memo_hits),
                d(|s| s.memo_hits) + d(|s| s.memo_misses),
            ),
            "ratio",
        ),
        metric(
            "memo.evictions_per_req",
            d(|s| s.memo_evictions) as f64 / submitted,
            "1/req",
        ),
        metric("memo.entries", memo_entries as f64, "count"),
        metric(
            "oracle.scalar_calls",
            (lo.scalar_calls + go.scalar_calls) as f64 / executed,
            "1/req",
        ),
        metric(
            "oracle.batch_rows",
            (lo.batch_rows + go.batch_rows) as f64 / executed,
            "rows/req",
        ),
        metric(
            "oracle.masked_rows",
            (lo.masked_rows + go.masked_rows) as f64 / executed,
            "rows/req",
        ),
        metric(
            "oracle.ms",
            (lo.busy_ns + go.busy_ns) as f64 / 1e6 / executed,
            "ms",
        ),
        metric("oracle.share", layers.oracle_share(), "ratio"),
        metric("explain.ms", layers.median_ms_prefix("explain."), "ms"),
        metric(
            "explain.shapley_ms",
            layers.median_ms("explain.shapley"),
            "ms",
        ),
        metric(
            "explain.surrogate_ms",
            layers.median_ms("explain.surrogate"),
            "ms",
        ),
        metric("explain.rules_ms", layers.median_ms("explain.rules"), "ms"),
        metric("explain.self_ms", layers.explain_self_ms(), "ms"),
        metric(
            "explanation.encode_us",
            layers.median_us("explanation.encode"),
            "us",
        ),
        metric(
            "explanation.bytes",
            layers.median_attr("explanation.encode", "bytes"),
            "B",
        ),
        metric("shard.build_us", layers.median_us("shard.build"), "us"),
        metric("shard.encode_us", layers.median_us("shard.encode"), "us"),
        metric(
            "shard.descriptor_bytes",
            layers.median_attr("shard.encode", "bytes"),
            "B",
        ),
        metric("shard.exec_ms", layers.median_ms("shard.exec"), "ms"),
        metric("shard.decode_us", layers.median_us("shard.decode"), "us"),
        metric(
            "shard.result_bytes",
            layers.median_attr("shard.decode", "bytes"),
            "B",
        ),
        metric("shard.merge_us", layers.median_us("shard.merge"), "us"),
        metric(
            "transport.round_trip_ms",
            layers.median_ms("transport.round_trip"),
            "ms",
        ),
        metric(
            "transport.overhead_ms",
            layers.median_attr("transport.round_trip", "overhead_us") / 1e3,
            "ms",
        ),
        metric(
            "transport.attempts_per_shard",
            ratio(c(|s| s.attempts), c(|s| s.shard_cache_misses)),
            "1/shard",
        ),
        metric("transport.retries", c(|s| s.retries) as f64, "count"),
        metric(
            "transport.failures",
            c(|s| s.transport_failures) as f64,
            "count",
        ),
        metric(
            "transport.connections_opened",
            c(|s| s.connections_opened) as f64,
            "count",
        ),
        metric(
            "transport.sessions_reused_ratio",
            ratio(c(|s| s.sessions_reused), c(|s| s.attempts)),
            "ratio",
        ),
        metric("backend.pool_ms", layers.median_ms("backend.pool"), "ms"),
        metric("backend.local_ms", layers.median_ms("backend.local"), "ms"),
        metric(
            "backend.pool_overhead_ms",
            layers.median_attr("backend.pool", "overhead_us") / 1e3,
            "ms",
        ),
        metric(
            "backend.shard_cache_hit_ratio",
            ratio(
                d(|s| s.shard_cache_hits),
                d(|s| s.shard_cache_hits) + d(|s| s.shard_cache_misses),
            ),
            "ratio",
        ),
        metric("backend.degraded", d(|s| s.degraded) as f64, "count"),
        metric(
            "trace.overhead_ratio",
            throughput(&plain) / throughput(&run) - 1.0,
            "ratio",
        ),
        metric("failed_ratio", failed as f64 / attempted as f64, "ratio"),
    ];

    let dir = trace_dir();
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"requests\":{},\"spans\":{},\"serve_spans_written_for_requests_below\":{SERVE_SPANS_WRITTEN}}}",
        args.workload.name(),
        args.seed,
        run.sent,
        run.spans.len()
    );
    let spans_path = dir.join(format!("{stem}.spans.jsonl"));
    write_spans(&spans_path, &header, &run.spans, SERVE_SPANS_WRITTEN)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let summary_path = dir.join(format!("{stem}.layers.json"));
    std::fs::write(&summary_path, layers.summary_json(&metrics, run.sent))
        .map_err(|e| format!("writing {}: {e}", summary_path.display()))?;
    eprintln!(
        "{} seed {}: traced {} requests ({} executed); spans in {}, per-layer medians in {}",
        args.workload.name(),
        args.seed,
        run.sent,
        executed,
        spans_path.display(),
        summary_path.display()
    );
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
    })
}

/// Where the traced run writes its files: next to the benchmark binary,
/// inside the build directory.
fn trace_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("servebench-trace")))
        .unwrap_or_else(|| PathBuf::from("servebench-trace"))
}

/// Span durations and attributes grouped by span name.
struct SpanStats<'a> {
    spans: &'a [Span],
    by_name: HashMap<&'static str, Vec<&'a Span>>,
}

impl<'a> SpanStats<'a> {
    fn new(spans: &'a [Span]) -> Self {
        let mut by_name: HashMap<&'static str, Vec<&Span>> = HashMap::new();
        for s in spans {
            by_name.entry(s.name).or_default().push(s);
        }
        SpanStats { spans, by_name }
    }

    fn named(&self, name: &str) -> &[&'a Span] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    fn median_ns(&self, spans: impl Iterator<Item = &'a Span>) -> f64 {
        median(&mut spans.map(|s| s.duration_ns() as f64).collect::<Vec<_>>())
    }

    fn median_us(&self, name: &str) -> f64 {
        self.median_ns(self.named(name).iter().copied()) / 1e3
    }

    fn median_ms(&self, name: &str) -> f64 {
        self.median_ns(self.named(name).iter().copied()) / 1e6
    }

    fn median_ms_prefix(&self, prefix: &str) -> f64 {
        self.median_ns(self.spans.iter().filter(|s| s.name.starts_with(prefix))) / 1e6
    }

    fn median_attr(&self, name: &str, attr: &str) -> f64 {
        median(
            &mut self
                .named(name)
                .iter()
                .filter_map(|s| s.attr(attr))
                .collect::<Vec<_>>(),
        )
    }

    /// Oracle busy time of each explain span, keyed by the span's id.
    fn oracle_busy_ns(&self) -> HashMap<u64, f64> {
        self.named("oracle")
            .iter()
            .filter_map(|s| Some((s.parent?, s.attr("busy_us")? * 1e3)))
            .collect()
    }

    fn explains(&self) -> impl Iterator<Item = &'a Span> + '_ {
        self.spans.iter().filter(|s| s.name.starts_with("explain."))
    }

    /// Median explain self time: the span minus its oracle children's
    /// busy time (equal to the time they cover when the plan runs on one
    /// worker; with two, concurrent calls can overlap, hence the clamp).
    fn explain_self_ms(&self) -> f64 {
        let busy = self.oracle_busy_ns();
        let mut selves: Vec<f64> = self
            .explains()
            .map(|s| (s.duration_ns() as f64 - busy.get(&s.id).copied().unwrap_or(0.0)).max(0.0))
            .collect();
        median(&mut selves) / 1e6
    }

    /// Oracle busy time over explain time, summed over the replay.
    fn oracle_share(&self) -> f64 {
        let busy: f64 = self.oracle_busy_ns().values().sum();
        let total: f64 = self.explains().map(|s| s.duration_ns() as f64).sum();
        if total == 0.0 {
            0.0
        } else {
            busy / total
        }
    }

    /// The per-layer metrics with the number of spans behind each median.
    fn summary_json(&self, metrics: &[Metric], requests: u64) -> String {
        let mut counts: Vec<(&str, usize)> =
            self.by_name.iter().map(|(k, v)| (*k, v.len())).collect();
        counts.sort();
        let counts: Vec<String> = counts.iter().map(|(k, n)| format!("\"{k}\":{n}")).collect();
        format!(
            "{{\"requests\":{requests},\"metrics\":{},\"span_counts\":{{{}}}}}\n",
            metrics_json(metrics),
            counts.join(",")
        )
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    now_ns();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: servebench --workload <local-cold|local-hot|remote-sharded> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if args.setup_only {
        let t = Instant::now();
        match set_up(&args) {
            Ok(setup) => {
                let seconds = t.elapsed().as_secs_f64();
                drop(setup);
                println!("{seconds}");
                return;
            }
            Err(e) => {
                eprintln!("servebench: {e}");
                std::process::exit(1);
            }
        }
    }
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match outcome {
        Ok(o) => {
            for p in &o.problems {
                eprintln!("servebench: {p}");
            }
            println!(
                "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
                o.problems.is_empty() && o.failed == 0,
                o.attempted,
                o.failed,
                metrics_json(&o.metrics)
            );
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}

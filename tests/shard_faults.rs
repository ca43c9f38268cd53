//! Fault injection for the shard process pool (DESIGN.md §11): worker
//! panics, garbage output, abnormal exits and hangs must each surface
//! as the matching typed `XaiError` — never as a hang or a crash of the
//! coordinating process. Faults are injected through the worker's
//! `XAI_SHARD_FAULT` environment hook, so the real binary and the real
//! wire path are exercised end to end.

use std::time::{Duration, Instant};

use xai::models::Persist;
use xai::prelude::*;
use xai::shard::{explain_process_pool, PoolConfig};

fn fixture() -> (Dataset, LogisticRegression) {
    let data = xai::data::synth::german_credit(12, 41);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    (data, model)
}

fn faulty_pool(mode: &str) -> PoolConfig {
    let mut pool = PoolConfig::new(env!("CARGO_BIN_EXE_xai-shard-worker"));
    pool.env.push(("XAI_SHARD_FAULT".into(), mode.into()));
    pool
}

fn run(pool: &PoolConfig) -> XaiResult<Explanation> {
    let (data, model) = fixture();
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    explain_process_pool(&LooMethod, &model, &req, 3, pool)
}

#[test]
fn a_panicking_worker_is_a_typed_worker_panic() {
    match run(&faulty_pool("panic")) {
        Err(XaiError::WorkerPanic { task, message }) => {
            assert!(task < 3, "task should be the shard index, got {task}");
            assert!(
                message.contains("injected shard worker fault"),
                "panic payload should survive the wire: {message}"
            );
        }
        other => panic!("expected XaiError::WorkerPanic, got {other:?}"),
    }
}

#[test]
fn garbage_worker_output_is_a_typed_parse_error() {
    match run(&faulty_pool("garbage")) {
        Err(XaiError::Parse { context }) => {
            assert!(
                context.contains("unparseable"),
                "context should say the output was unparseable: {context}"
            );
        }
        other => panic!("expected XaiError::Parse, got {other:?}"),
    }
}

#[test]
fn an_abnormal_worker_exit_is_a_typed_model_fault() {
    match run(&faulty_pool("exit")) {
        Err(XaiError::ModelFault { context }) => {
            assert!(
                context.contains("exited abnormally"),
                "context should carry the exit status: {context}"
            );
        }
        other => panic!("expected XaiError::ModelFault, got {other:?}"),
    }
}

#[test]
fn a_hung_worker_is_killed_at_the_deadline_not_awaited_forever() {
    let mut pool = faulty_pool("hang");
    pool.deadline = Some(Duration::from_millis(300));
    let started = Instant::now();
    match run(&pool) {
        Err(XaiError::BudgetExceeded { context, completed }) => {
            assert!(context.contains("deadline"), "context should name the deadline: {context}");
            assert_eq!(completed, 0, "no hung shard should count as completed");
        }
        other => panic!("expected XaiError::BudgetExceeded, got {other:?}"),
    }
    // The coordinator must abort stragglers promptly rather than wait
    // out the children; well under the test harness timeout.
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "deadline abort took {:?}",
        started.elapsed()
    );
}

#[test]
fn a_missing_worker_binary_is_a_typed_io_error() {
    let pool = PoolConfig::new("/nonexistent/xai-shard-worker");
    assert!(matches!(run(&pool), Err(XaiError::Io { .. })));
}

#[test]
fn a_healthy_pool_still_matches_the_unsharded_run() {
    // Guard: the fault hook must be inert when the variable is unset.
    let (data, model) = fixture();
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let reference = LooMethod.explain(&model, &req).unwrap().to_json_string();
    let pool = PoolConfig::new(env!("CARGO_BIN_EXE_xai-shard-worker"));
    let pooled = run(&pool).unwrap().to_json_string();
    assert_eq!(pooled, reference);
}

#[test]
fn a_stdio_worker_serves_frames_and_exits_cleanly_when_its_stdin_closes() {
    use std::process::{Command, Stdio};
    let (data, model) = fixture();
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let descs = xai::shard::build_descriptors(&LooMethod, &req, model.save(), 2).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_xai-shard-worker"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = child.stdout.take().expect("piped stdout");
    for desc in &descs {
        xai::transport::write_frame(&mut stdin, desc.to_json_string().as_bytes(), "test")
            .expect("request frame");
        let reply = xai::transport::read_frame(&mut stdout, "test").expect("reply frame");
        let result = ShardResult::from_json_str(std::str::from_utf8(&reply).unwrap()).unwrap();
        assert_eq!((result.shard, result.n_shards), (desc.shard, 2));
    }
    drop(stdin);
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if started.elapsed() > Duration::from_secs(10) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("the worker outlived its closed stdin");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "a closed stdin must end the session cleanly: {status}");
}

/// Processes whose parent is this test process and whose command name
/// is `comm`, alive or exited but not yet reaped. `None` without a Linux
/// `/proc`.
fn children_named(comm: &str) -> Option<usize> {
    let me = std::process::id().to_string();
    let entries = std::fs::read_dir("/proc").ok()?;
    let count = entries
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("stat")).ok())
        .filter(|stat| {
            // "pid (comm) state ppid ..."; comm may itself hold ") ".
            let Some((head, tail)) = stat.rsplit_once(')') else { return false };
            let name = head.split_once('(').map(|(_, name)| name);
            name == Some(comm) && tail.split_whitespace().nth(1) == Some(me.as_str())
        })
        .count();
    Some(count)
}

#[test]
fn a_dropped_pool_has_reaped_its_workers() {
    // A uniquely named link to the worker, so that workers spawned by
    // tests running alongside are not counted.
    let name = format!("xpw{}", std::process::id());
    let exe = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(&name);
    let _ = std::fs::remove_file(&exe);
    let worker = env!("CARGO_BIN_EXE_xai-shard-worker");
    std::fs::hard_link(worker, &exe)
        .or_else(|_| std::fs::copy(worker, &exe).map(|_| ()))
        .expect("link the worker");
    let Some(before) = children_named(&name) else {
        eprintln!("no /proc: skipping the reaping check");
        return;
    };
    assert_eq!(before, 0);
    let (data, model) = fixture();
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let pool = ProcessPoolBackend::new(PoolConfig { max_procs: 2, ..PoolConfig::new(&exe) });
    let job = BackendJob::new(&LooMethod, &model, &req, 3).with_model_json(model.save());
    pool.execute(&job).expect("pool run");
    let kept = children_named(&name).unwrap();
    assert!((1..=2).contains(&kept), "idle workers stay alive for reuse, got {kept}");
    drop(pool);
    assert_eq!(children_named(&name), Some(0), "workers outlived the dropped pool, or were not reaped");
    let _ = std::fs::remove_file(&exe);
}

#[test]
fn a_failed_job_starts_no_further_workers() {
    // One worker slot and four hanging shards: once the first shard blows
    // its deadline, the three waiting shards must not be started.
    let deadline = Duration::from_secs(1);
    let pool = PoolConfig { max_procs: 1, deadline: Some(deadline), ..faulty_pool("hang") };
    let pool = ProcessPoolBackend::new(pool);
    let (data, model) = fixture();
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let job = BackendJob::new(&LooMethod, &model, &req, 4).with_model_json(model.save());
    let started = Instant::now();
    match pool.execute(&job) {
        Err(XaiError::BudgetExceeded { completed: 0, .. }) => {}
        other => panic!("expected XaiError::BudgetExceeded, got {:?}", other.map(|_| ())),
    }
    let elapsed = started.elapsed();
    assert!(elapsed < 2 * deadline, "a failed job took {elapsed:?}, not one deadline");
    assert_eq!(pool.stats().connections_opened, 1, "{:?}", pool.stats());
}

#[test]
fn a_slow_shard_on_a_kept_worker_is_killed_once_not_rerun() {
    let deadline = Duration::from_secs(1);
    let pool = PoolConfig {
        max_procs: 1,
        deadline: Some(deadline),
        ..PoolConfig::new(env!("CARGO_BIN_EXE_xai-shard-worker"))
    };
    let pool = ProcessPoolBackend::new(pool);
    let (data, model) = fixture();
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let warm = BackendJob::new(&LooMethod, &model, &req, 1).with_model_json(model.save());
    pool.execute(&warm).expect("warm-up job");
    assert_eq!(pool.stats().connections_opened, 1);

    // A legitimately slow shard (far more permutations than one deadline
    // allows) on the kept worker: it must cost one deadline and no spawn.
    let slow = TmcMethod {
        config: TmcConfig { permutations: 1_000_000, truncation_tolerance: 0.0, seed: 0 },
    };
    let job = BackendJob::new(&slow, &model, &req, 1).with_model_json(model.save());
    let started = Instant::now();
    match pool.execute(&job) {
        Err(XaiError::BudgetExceeded { context, completed: 0 }) => {
            assert!(context.contains("deadline"), "{context}")
        }
        other => panic!("expected XaiError::BudgetExceeded, got {:?}", other.map(|_| ())),
    }
    let elapsed = started.elapsed();
    assert!(elapsed < 2 * deadline, "the slow shard took {elapsed:?}, more than one deadline");
    let stats = pool.stats();
    assert_eq!(stats.connections_opened, 1, "no second worker for a late reply: {stats:?}");
    assert_eq!(stats.attempts, 2, "one attempt per job: {stats:?}");
}

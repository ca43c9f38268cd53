//! Benchmark-side tracing: spans recorded around calls into each layer's
//! public entry point, and a model oracle that counts and times calls.
//! Nothing inside the program is instrumented.

use std::any::Any;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use xai::linalg::Matrix;
use xai::prelude::ModelOracle;

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed interval. Spans of one request share `req`; `parent` is
/// the `id` of the span that caused it. Ids are unique in the process.
#[derive(Clone, Debug)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// Where a recorded span sits in its log.
#[derive(Clone, Copy, Debug)]
pub struct Handle(usize);

/// Records the spans of one request into a log.
pub struct RequestSpans<'a> {
    out: &'a mut Vec<Span>,
    req: u64,
}

impl<'a> RequestSpans<'a> {
    pub fn new(out: &'a mut Vec<Span>, req: u64) -> Self {
        RequestSpans { out, req }
    }

    /// Opens a span now; [`RequestSpans::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<Handle>) -> Handle {
        let now = now_ns();
        self.push(name, parent, now, now)
    }

    pub fn close(&mut self, h: Handle) {
        self.out[h.0].end_ns = now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<Handle>,
        f: impl FnOnce() -> T,
    ) -> (T, Handle) {
        let h = self.open(name, parent);
        let value = f();
        self.close(h);
        (value, h)
    }

    /// Records a span measured elsewhere.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<Handle>,
        start_ns: u64,
        end_ns: u64,
    ) -> Handle {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = parent.map(|p| self.out[p.0].id);
        self.out.push(Span {
            req: self.req,
            id,
            parent,
            name,
            start_ns,
            end_ns,
            attrs: Vec::new(),
        });
        Handle(self.out.len() - 1)
    }

    pub fn span(&mut self, h: Handle) -> &mut Span {
        &mut self.out[h.0]
    }
}

/// Call counters of a [`TimedOracle`].
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleTally {
    pub scalar_calls: u64,
    pub batch_rows: u64,
    pub masked_rows: u64,
    pub busy_ns: u64,
    /// First call start and last call end, as [`now_ns`] readings.
    pub first_ns: u64,
    pub last_ns: u64,
}

/// A transparent model wrapper that counts and times every prediction
/// call. All six `ModelOracle` methods forward to the wrapped model:
/// `predict_masked` so the model's own masked kernel still runs (the
/// trait default would gather rows instead), and `as_any` so methods
/// that downcast (TreeSHAP) still see the concrete model.
pub struct TimedOracle<M> {
    inner: M,
    scalar_calls: AtomicU64,
    batch_rows: AtomicU64,
    masked_rows: AtomicU64,
    busy_ns: AtomicU64,
    first_ns: AtomicU64,
    last_ns: AtomicU64,
}

impl<M> TimedOracle<M> {
    pub fn new(inner: M) -> Self {
        TimedOracle {
            inner,
            scalar_calls: AtomicU64::new(0),
            batch_rows: AtomicU64::new(0),
            masked_rows: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            first_ns: AtomicU64::new(u64::MAX),
            last_ns: AtomicU64::new(0),
        }
    }

    /// Returns the counters accumulated since the last call and resets
    /// them. Counters are statistics only, so `Relaxed` suffices.
    pub fn take(&self) -> OracleTally {
        let take = |c: &AtomicU64| c.swap(0, Ordering::Relaxed);
        OracleTally {
            scalar_calls: take(&self.scalar_calls),
            batch_rows: take(&self.batch_rows),
            masked_rows: take(&self.masked_rows),
            busy_ns: take(&self.busy_ns),
            first_ns: self.first_ns.swap(u64::MAX, Ordering::Relaxed),
            last_ns: self.last_ns.swap(0, Ordering::Relaxed),
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = now_ns();
        let value = f();
        let end = now_ns();
        self.busy_ns.fetch_add(end - start, Ordering::Relaxed);
        self.first_ns.fetch_min(start, Ordering::Relaxed);
        self.last_ns.fetch_max(end, Ordering::Relaxed);
        value
    }
}

impl<M: ModelOracle> ModelOracle for TimedOracle<M> {
    fn n_features(&self) -> usize {
        self.inner.n_features()
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.scalar_calls.fetch_add(1, Ordering::Relaxed);
        self.timed(|| self.inner.predict(x))
    }

    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        self.batch_rows
            .fetch_add(rows.rows() as u64, Ordering::Relaxed);
        self.timed(|| self.inner.predict_batch(rows))
    }

    fn predict_masked(
        &self,
        instance: &[f64],
        background: &Matrix,
        masks: &[u64],
        out: &mut Vec<f64>,
    ) {
        self.masked_rows
            .fetch_add((masks.len() * background.rows()) as u64, Ordering::Relaxed);
        self.timed(|| self.inner.predict_masked(instance, background, masks, out))
    }

    fn gradient(&self, x: &[f64]) -> Option<Vec<f64>> {
        self.timed(|| self.inner.gradient(x))
    }

    fn as_any(&self) -> Option<&dyn Any> {
        self.inner.as_any()
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Writes the spans as JSON lines after a header line. Serve-layer spans
/// are written for the first `serve_requests` request ids only (the hot
/// workload records about a million of them); every other span is
/// written in full. All spans feed the metrics either way.
pub fn write_spans(
    path: &Path,
    header: &str,
    spans: &[Span],
    serve_requests: u64,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans
        .iter()
        .filter(|s| s.req < serve_requests || !s.name.starts_with("serve."))
    {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{{\"req\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}",
            s.req,
            s.id,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        )?;
        for (k, v) in &s.attrs {
            write!(out, ",\"{k}\":{v}")?;
        }
        writeln!(out, "}}")?;
    }
    out.flush()
}

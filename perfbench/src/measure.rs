//! Measurement helpers shared by every workload: sample statistics with the
//! percentile guard, the benchmark's span tracer, a seeded RNG, result digests,
//! peak RSS and the host fingerprint stamped on every result file.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

/// A percentile is reported only when at least this many samples lie beyond
/// it; otherwise it would be (close to) the run's maximum.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0..=1) of `samples`, or `None` when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `samples` (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// SplitMix64: the benchmark's only randomness, so a seed fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed` (independent sub-streams).
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut base = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        Rng(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a 64 over the concatenation of `parts`.
pub fn digest(parts: &[&[u8]]) -> u64 {
    let mut h = wrsn::sim::store::Fnv1a::new();
    for part in parts {
        h.update(part);
    }
    h.finish()
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and on what a result was produced: CPU count, source revision and
/// the load average when the run started.
pub fn host_fingerprint() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load: Vec<Value> = load
        .split_whitespace()
        .take(3)
        .filter_map(|f| f.parse::<f64>().ok())
        .map(Value::F64)
        .collect();
    Value::Map(vec![
        ("nproc".to_string(), Value::U64(nproc as u64)),
        ("git_rev".to_string(), Value::Str(git_rev())),
        ("loadavg_at_start".to_string(), Value::Seq(load)),
    ])
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout). Reads nothing above the checkout.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => read(&format!(".git/{name}"))
            .map(|rev| rev.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
            }),
    };
    rev.map_or_else(|| "unknown".to_string(), |r| r.chars().take(12).collect())
}

/// One span recorded by the benchmark around a public call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by direct children.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration per occurrence, milliseconds (0 when never entered).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// In-memory span recorder. Disabled tracers record nothing and never read
/// the clock, so the untraced pass pays nothing for the call sites.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans entered from now on with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let idx = self.open.pop().expect("span exit without a matching enter");
        self.spans[idx].end_ns = now;
    }

    /// Records a finished span measured elsewhere (e.g. on another thread).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, op: u64) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent: None,
            op,
        });
    }

    /// Runs `f` inside span `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Per-name totals with self time.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let dur = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += dur;
            entry.self_ns += dur.saturating_sub(children);
        }
        totals
    }

    /// Every span as `[name, start_ns, end_ns, parent, op]`, for the report.
    pub fn to_value(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Seq(vec![
                    Value::Str(s.name.to_string()),
                    Value::U64(s.start_ns),
                    Value::U64(s.end_ns),
                    s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    Value::U64(s.op),
                ])
            })
            .collect();
        Value::Seq(spans)
    }

    /// Per-name totals as a report value.
    pub fn totals_value(&self) -> Value {
        Value::Map(
            self.totals()
                .into_iter()
                .map(|(name, t)| {
                    (
                        name.to_string(),
                        Value::Map(vec![
                            ("count".to_string(), Value::U64(t.count)),
                            ("total_ms".to_string(), Value::F64(t.total_ns as f64 / 1e6)),
                            ("self_ms".to_string(), Value::F64(t.self_ns as f64 / 1e6)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Some(990.0));
        assert_eq!(percentile(&samples[..999], 0.99), None);
        assert_eq!(percentile(&samples[..20], 0.5), Some(10.0));
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.enter("outer");
        tr.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.exit();
        let totals = tr.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.total_ns - outer.self_ns, inner.total_ns);
    }
}

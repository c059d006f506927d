//! End-to-end and per-layer benchmark of the wrsn workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign_mix|service_mix|all> --seed <n> --seconds <s> --trace <0|1> [--pin]
//! ```
//!
//! The workloads and their fixed parameters are in `perfbench/workloads.json`.
//! With `--trace 0` the run measures the end-to-end metrics; with `--trace 1`
//! it repeats the untraced pass, then runs a traced pass (program spans and
//! counters through `obs::StatsRecorder`, benchmark spans around every public
//! call) and reports the per-layer metrics. The last stdout line is one JSON
//! object `{"correct","attempted","failed","metrics"}`; the full result,
//! stamped with the host fingerprint, goes to
//! `.perfbench_results/<workload>-seed<seed>-trace<t>.json`. The process exits
//! 1 when any output check fails. `--pin` rewrites the workload's pinned
//! per-op digests (`perfbench/digests/`) from this run; use it only at the
//! default seed, after a deliberate output change.

mod campaign;
mod layers;
mod measure;
mod service_mix;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde::Value;

/// Fixed workload parameters, shared with the documentation.
const SPEC_JSON: &str = include_str!("../workloads.json");

/// Per-op digests of the default seed, `<op id> <16 hex>` per line.
fn pinned_text(workload: &str) -> &'static str {
    match workload {
        "campaign_mix" => include_str!("../digests/campaign_mix.txt"),
        "service_mix" => include_str!("../digests/service_mix.txt"),
        _ => "",
    }
}

/// The parameters of one workload from `workloads.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub default_seed: u64,
    pub nominal_ops_per_s: f64,
    pub offered_rate_per_s: f64,
    pub latency_limit_ms: f64,
    pub late_limit_ms: f64,
    pub cache_cap_bytes: u64,
    pub queue_cap: usize,
}

impl Spec {
    fn load(workload: &str) -> Result<Spec, String> {
        let root: Value = serde_json::from_str(SPEC_JSON).map_err(|e| e.to_string())?;
        let workloads = root
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "workloads"))
            .and_then(|(_, v)| v.as_map())
            .ok_or("workloads.json: no `workloads` object")?;
        let entry = workloads
            .iter()
            .find(|(k, _)| k == workload)
            .and_then(|(_, v)| v.as_map())
            .ok_or_else(|| format!("unknown workload `{workload}`"))?;
        let num = |key: &str| -> f64 {
            match entry.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
                Some(Value::U64(u)) => *u as f64,
                Some(Value::F64(x)) => *x,
                _ => 0.0,
            }
        };
        Ok(Spec {
            default_seed: num("default_seed") as u64,
            nominal_ops_per_s: num("nominal_ops_per_s"),
            offered_rate_per_s: num("offered_rate_per_s"),
            latency_limit_ms: num("latency_limit_ms"),
            late_limit_ms: num("late_limit_ms"),
            cache_cap_bytes: num("cache_cap_bytes") as u64,
            queue_cap: num("queue_cap") as usize,
        })
    }
}

/// One run's settings.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spec: Spec,
    /// Private scratch directory inside the checkout (checkpoints, caches).
    pub scratch_dir: PathBuf,
}

impl RunConfig {
    /// Pinned `(op id, digest)` pairs, when this run uses the default seed.
    pub fn pinned(&self) -> BTreeMap<u64, u64> {
        if self.seed != self.spec.default_seed {
            return BTreeMap::new();
        }
        pinned_text(&self.workload)
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let (id, hex) = l.split_once(' ')?;
                Some((id.parse().ok()?, u64::from_str_radix(hex.trim(), 16).ok()?))
            })
            .collect()
    }
}

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    /// A metric; a non-finite value (no successful op to measure) reads 0,
    /// and the run is already marked incorrect.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        let value = if value.is_finite() { value } else { 0.0 };
        Metric { name, value, unit }
    }
}

/// What a workload hands back to `main`.
pub struct WorkloadResult {
    pub attempted: usize,
    pub failed: usize,
    /// Throughput, p50 and p99 (untraced) or every per-layer metric (traced).
    pub metrics: Vec<Metric>,
    pub setups_s: Vec<f64>,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// `(op id, result digest)` of the untraced pass.
    pub digests: Vec<(u64, Option<u64>)>,
    /// Per-layer metrics this workload has no source for.
    pub not_exercised: Vec<&'static str>,
    /// Extra sections of the result file.
    pub report: Vec<(String, Value)>,
}

impl WorkloadResult {
    pub fn new(attempted: usize) -> Self {
        WorkloadResult {
            attempted,
            failed: 0,
            metrics: Vec::new(),
            setups_s: Vec::new(),
            failures: Vec::new(),
            digests: Vec::new(),
            not_exercised: Vec::new(),
            report: Vec::new(),
        }
    }
}

/// Every per-layer metric in catalogue order; those missing from `values`
/// read 0 and are recorded as not exercised.
pub fn per_layer_metrics(
    values: &BTreeMap<&'static str, f64>,
    result: &mut WorkloadResult,
) -> Vec<Metric> {
    layers::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).copied().unwrap_or_else(|| {
                result.not_exercised.push(name);
                0.0
            });
            Metric::new(name, value, unit)
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut pin) = (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--pin" => pin = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        pin,
    })
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Map(vec![
                        ("value".to_string(), Value::F64(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Workloads `--workload all` runs, one child process each.
const ALL: [&str; 2] = ["campaign_mix", "service_mix"];

/// Runs every workload in a child process and prints its metrics by name
/// with units; fails if any child's output checks failed.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_correct = true;
    for workload in ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let last = out.as_ref().ok().and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .map(str::to_string)
        });
        let parsed = last.and_then(|l| serde_json::from_str::<Value>(&l).ok());
        let Some(Value::Map(fields)) = parsed else {
            println!("{workload}: no result");
            all_correct = false;
            continue;
        };
        let field = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let correct = matches!(field("correct"), Some(Value::Bool(true)));
        all_correct &= correct && out.is_ok_and(|o| o.status.success());
        println!("{workload}: correct={correct}");
        let number = |v: &Value| match v {
            Value::F64(x) => Some(*x),
            Value::U64(u) => Some(*u as f64),
            _ => None,
        };
        for (name, m) in field("metrics").and_then(Value::as_map).unwrap_or(&[]) {
            let get = |k: &str| m.as_map()?.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            if let (Some(v), Some(Value::Str(unit))) = (get("value").and_then(number), get("unit"))
            {
                println!("  {name:32} {v:>16.6} {unit}");
            }
        }
    }
    println!("large_world: not run (dropped; see perfbench/workloads.json)");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    // The engine's execution strategy is fixed here, never derived from the
    // host: one worker thread, one shard.
    std::env::set_var(wrsn::sim::parallel::THREADS_ENV, "1");
    std::env::set_var(wrsn::sim::parallel::SHARDS_ENV, "1");
    let host = measure::host_fingerprint();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--pin]"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let spec = match Spec::load(&args.workload) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        spec,
        scratch_dir: PathBuf::from(".perfbench_run").join(std::process::id().to_string()),
    };
    let mut result = match cfg.workload.as_str() {
        "campaign_mix" => campaign::run_workload(&cfg, started),
        "service_mix" => service_mix::run_workload(&cfg, started),
        other => {
            eprintln!("perfbench: workload `{other}` is not implemented");
            return ExitCode::from(2);
        }
    };
    std::fs::remove_dir_all(&cfg.scratch_dir).ok();
    std::fs::remove_dir(".perfbench_run").ok();

    if !cfg.trace {
        let ok = result.attempted - result.failed;
        let setup_s = if result.setups_s.is_empty() {
            0.0
        } else {
            measure::median(&result.setups_s)
        };
        result.metrics.push(Metric::new("setup_s", setup_s, "s"));
        result
            .metrics
            .push(Metric::new("peak_rss_mb", measure::peak_rss_mb(), "MB"));
        result.metrics.push(Metric::new(
            "ok_frac",
            ok as f64 / result.attempted as f64,
            "frac",
        ));
    }
    let correct = result.failed == 0 && result.failures.is_empty();
    for failure in result.failures.iter().take(20) {
        eprintln!("perfbench: check failed: {failure}");
    }

    let digests: Vec<Value> = result
        .digests
        .iter()
        .map(|(id, d)| {
            Value::Seq(vec![
                Value::U64(*id),
                d.map_or(Value::Null, |d| Value::Str(format!("{d:016x}"))),
            ])
        })
        .collect();
    let mut report = vec![
        ("host".to_string(), host),
        ("workload".to_string(), Value::Str(cfg.workload.clone())),
        ("seed".to_string(), Value::U64(cfg.seed)),
        ("seconds".to_string(), Value::F64(cfg.seconds)),
        ("trace".to_string(), Value::Bool(cfg.trace)),
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(result.attempted as u64)),
        ("failed".to_string(), Value::U64(result.failed as u64)),
        ("metrics".to_string(), metrics_value(&result.metrics)),
        (
            "setups_s".to_string(),
            Value::Seq(result.setups_s.iter().map(|&s| Value::F64(s)).collect()),
        ),
        (
            "failures".to_string(),
            Value::Seq(
                result
                    .failures
                    .iter()
                    .map(|f| Value::Str(f.clone()))
                    .collect(),
            ),
        ),
        (
            "not_exercised".to_string(),
            Value::Map(
                result
                    .not_exercised
                    .iter()
                    .map(|&n| {
                        let why = layers::not_exercised_reason(&cfg.workload, n);
                        (n.to_string(), Value::Str(why.to_string()))
                    })
                    .collect(),
            ),
        ),
        ("digests".to_string(), Value::Seq(digests)),
    ];
    report.append(&mut result.report);
    let out_dir = PathBuf::from(".perfbench_results");
    let out_path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    ));
    let written = std::fs::create_dir_all(&out_dir).and_then(|()| {
        std::fs::write(
            &out_path,
            serde_json::to_string(&Value::Map(report)).expect("report serializes"),
        )
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", out_path.display());
    }
    if args.pin {
        let path = PathBuf::from("perfbench/digests").join(format!("{}.txt", cfg.workload));
        let mut text = format!(
            "# {} per-op result digests at seed {}, --seconds {}\n",
            cfg.workload, cfg.seed, cfg.seconds
        );
        for (id, d) in &result.digests {
            if let Some(d) = d {
                text.push_str(&format!("{id} {d:016x}\n"));
            }
        }
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    let line = Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(result.attempted as u64)),
        ("failed".to_string(), Value::U64(result.failed as u64)),
        ("metrics".to_string(), metrics_value(&result.metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("result line serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

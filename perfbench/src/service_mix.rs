//! `service_mix`: open-loop traffic against an in-process `wrsnd`.
//!
//! The daemon (`server::serve`, one worker, a bounded result cache smaller
//! than the unique-result working set) listens on loopback. Two client
//! connections send a seeded request list at Poisson arrival times of a fixed
//! rate: fresh scenario campaigns (cache misses), repeats of recent and of
//! old payloads (hits, and misses again after eviction), near-simultaneous
//! duplicates on both connections (coalesced), streamed and
//! detector-equipped requests, and a few `{"exp":"fig9"}` requests. Latency
//! is timed from each request's due time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use serde::Value;
use wrsn::scenario::Scenario;
use wrsn::sim::obs::StatsRecorder;
use wrsn_bench::service::cache::{CacheLookup, ResultCache};
use wrsn_bench::service::request::{self, Payload, RequestKind};
use wrsn_bench::service::server::{self, ServeConfig};

use crate::campaign::{self, Mode, Op, Posture, PRESETS};
use crate::layers::LayerAcc;
use crate::measure::{self, digest, Rng, Tracer};
use crate::{Metric, RunConfig, WorkloadResult};

/// Scenario sizes of fresh requests.
const SIZES: [usize; 3] = [40, 60, 80];
const DEPLOYMENTS: [&str; 3] = ["uniform", "clustered", "corridor"];
/// Client connections.
const CONNS: usize = 2;
/// Requests per stratified block: 9 fresh, 6 repeats of a recent payload,
/// 3 repeats of an old one, and one fresh payload sent twice at once.
const BLOCK: usize = 20;
/// A repeat of one of this many most recent distinct payloads is "recent".
const RECENT: usize = 24;
/// One `{"exp":"fig9"}` request per this many blocks.
const EXP_EVERY_BLOCKS: usize = 10;
/// The shortest request list, so `latency_ms_p99` has ten samples beyond it.
const MIN_REQUESTS: usize = 1000;
/// Set-ups per run (daemon start, connect, warm-up); `setup_s` is their
/// median.
const SETUP_REPS: usize = 5;
/// Pings timed in the traced run.
const PINGS: usize = 200;
/// Distinct scenario payloads replayed in-process for the engine layers.
const REPLAYS: usize = 300;
/// The warm-up request, the same in every run.
const WARMUP_LINE: &str = r#"{"id":"warmup","scenario":{"nodes":60,"seed":4242}}"#;
/// Client read timeout: a daemon silent this long fails the run.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Fresh,
    Recent,
    Old,
    Duplicate,
    Exp,
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Planned {
    due_s: f64,
    conn: usize,
    line: String,
    payload: Payload,
    digest: String,
    /// Detector preset the request carries, if any.
    detector: Option<&'static str>,
    kind: Kind,
}

fn scenario_line(id: usize, body: &str, extra: &str) -> String {
    format!(r#"{{"id":"q{id}","scenario":{body}{extra}}}"#)
}

/// The seeded request list of `count` requests at `rate_per_s`.
fn plan(seed: u64, count: usize, rate_per_s: f64) -> Vec<Planned> {
    // Payloads and arrival times draw from separate streams, so request `i`
    // does not depend on `count`.
    let mut rng = Rng::derive(seed, 7);
    // The `scenario` body of every distinct payload so far.
    let mut distinct: Vec<String> = Vec::new();
    let mut fresh = 0usize;
    let mut kinds: Vec<Kind> = Vec::with_capacity(count + BLOCK);
    for block in 0..count.div_ceil(BLOCK) {
        let mut slots = vec![Kind::Fresh; 9];
        slots.extend([Kind::Recent; 6]);
        slots.extend([Kind::Old; 3]);
        if block % EXP_EVERY_BLOCKS == EXP_EVERY_BLOCKS - 1 {
            slots[0] = Kind::Exp;
        }
        slots.push(Kind::Duplicate);
        Rng::derive(seed, block as u64).shuffle(&mut slots);
        for kind in slots {
            kinds.push(kind);
            if kind == Kind::Duplicate {
                // A duplicate is a fresh leader plus its twin.
                kinds.push(Kind::Duplicate);
            }
        }
    }
    kinds.truncate(count);

    // Poisson arrivals conditioned on `count` events in `count / rate`
    // seconds: sorted uniform draws over the window.
    let span_s = count as f64 / rate_per_s;
    let mut due_rng = Rng::derive(seed, 8);
    let mut dues: Vec<f64> = (0..count).map(|_| due_rng.unit() * span_s).collect();
    dues.sort_by(f64::total_cmp);

    let mut out: Vec<Planned> = Vec::with_capacity(count);
    let mut i = 0;
    while i < kinds.len() {
        let kind = kinds[i];
        let mut detector = None;
        let line = match kind {
            Kind::Exp => format!(r#"{{"id":"q{i}","exp":"fig9"}}"#),
            Kind::Fresh | Kind::Duplicate => {
                let body = format!(
                    r#"{{"nodes":{},"seed":{},"deployment":"{}"}}"#,
                    SIZES[fresh % SIZES.len()],
                    rng.next_u64() >> 40,
                    DEPLOYMENTS[(fresh / SIZES.len()) % DEPLOYMENTS.len()]
                );
                let extra = match fresh % 4 {
                    1 if kind == Kind::Fresh => r#","stream":true"#.to_string(),
                    3 => {
                        let preset = PRESETS[(fresh / 4) % PRESETS.len()];
                        detector = Some(preset);
                        format!(r#","detector":"{preset}""#)
                    }
                    _ => String::new(),
                };
                fresh += 1;
                distinct.push(body.clone());
                scenario_line(i, &body, &extra)
            }
            Kind::Recent | Kind::Old => {
                let n = distinct.len();
                let pick = if n == 0 {
                    None
                } else if kind == Kind::Recent || n <= RECENT {
                    Some(n - 1 - rng.below(n.min(RECENT)))
                } else {
                    Some(rng.below(n - RECENT))
                };
                match pick {
                    Some(k) => scenario_line(i, &distinct[k], ""),
                    None => {
                        let body = format!(r#"{{"nodes":40,"seed":{}}}"#, rng.next_u64() >> 40);
                        distinct.push(body.clone());
                        scenario_line(i, &body, "")
                    }
                }
            }
        };
        let parsed = request::parse_line(&line, i as u64).expect("planned requests are valid");
        let RequestKind::Work(payload) = parsed.kind else {
            unreachable!("planned requests are work requests")
        };
        let digest = payload.digest();
        let conn = i % CONNS;
        out.push(Planned {
            due_s: dues[i],
            conn,
            line,
            payload: payload.clone(),
            digest: digest.clone(),
            detector,
            kind,
        });
        if kind == Kind::Duplicate && i + 1 < kinds.len() {
            // The twin: same payload, same due time, the other connection.
            // (A leader whose twin falls past `count` is a plain fresh
            // request.)
            let twin = scenario_line(i + 1, &distinct[distinct.len() - 1], "");
            out.push(Planned {
                due_s: dues[i],
                conn: (conn + 1) % CONNS,
                line: twin,
                payload,
                digest,
                detector: None,
                kind,
            });
            i += 1;
        }
        i += 1;
    }
    out
}

/// An in-process daemon and the client connections to it.
struct Daemon {
    conns: Vec<TcpStream>,
    handle: thread::JoinHandle<Result<(), wrsn_bench::BenchError>>,
}

fn start_daemon(store_dir: &Path, cfg: &RunConfig) -> Result<Daemon, String> {
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("pick a loopback port: {e}"))?
        .port();
    let addr = format!("127.0.0.1:{port}");
    let config = ServeConfig {
        listen: Some(addr.clone()),
        store_dir: store_dir.to_path_buf(),
        workers: 1,
        default_deadline: Duration::from_secs(60),
        max_requests: None,
        queue_cap: cfg.spec.queue_cap,
        cache_cap_bytes: Some(cfg.spec.cache_cap_bytes),
        idle_timeout: None,
    };
    let handle = thread::spawn(move || server::serve(&config));
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut conns = Vec::with_capacity(CONNS);
    while conns.len() < CONNS {
        match TcpStream::connect(&addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
                conns.push(stream);
            }
            Err(_) if Instant::now() < deadline && !handle.is_finished() => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(format!("connect to the daemon at {addr}: {e}")),
        }
    }
    Ok(Daemon { conns, handle })
}

impl Daemon {
    /// Sends one line on connection 0 and reads until the final reply.
    fn call(&self, line: &str) -> Result<String, String> {
        let mut stream = &self.conns[0];
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reader = BufReader::new(&self.conns[0]);
        loop {
            let mut reply = String::new();
            match reader.read_line(&mut reply) {
                Ok(0) => return Err("daemon closed the connection".to_string()),
                Ok(_) => {
                    let parsed = request::parse_response(reply.trim_end())?;
                    if parsed.is_final() {
                        return Ok(reply.trim_end().to_string());
                    }
                }
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn stats(&self) -> Result<BTreeMap<String, f64>, String> {
        let reply = self.call(r#"{"id":"stats","op":"stats"}"#)?;
        let value: Value = serde_json::from_str(&reply).map_err(|e| e.to_string())?;
        let result = value
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "result"))
            .and_then(|(_, v)| v.as_map())
            .ok_or("stats reply has no result")?;
        Ok(result
            .iter()
            .filter_map(|(k, v)| match v {
                Value::U64(u) => Some((k.clone(), *u as f64)),
                _ => None,
            })
            .collect())
    }

    fn stop(self) -> Result<(), String> {
        let _ = self.call(r#"{"id":"bye","op":"shutdown"}"#);
        drop(self.conns);
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// A final response as the client saw it.
#[derive(Debug, Clone)]
struct Response {
    recv: Instant,
    status: String,
    cache: Option<String>,
    digest: Option<String>,
    /// The `result` bytes exactly as sent.
    result: Option<String>,
    frames: u64,
}

/// The raw `result` bytes of an ok response line (`result` is the last
/// envelope field and is embedded verbatim).
fn raw_result(line: &str) -> Option<String> {
    let at = line.find("\"result\":")?;
    let body = line.get(at + 9..line.len().checked_sub(1)?)?;
    line.ends_with('}').then(|| body.to_string())
}

/// One open-loop pass: per request, its response (if any) and how late the
/// sender wrote it, seconds.
struct LoadRun {
    t0: Instant,
    responses: Vec<Option<Response>>,
    late_s: Vec<f64>,
}

fn drive(daemon: &Daemon, plan: &[Planned]) -> Result<LoadRun, String> {
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut responses: Vec<Option<Response>> = vec![None; plan.len()];
    let mut late_s = vec![0.0; plan.len()];
    thread::scope(|scope| -> Result<(), String> {
        let mut senders = Vec::new();
        let mut readers = Vec::new();
        for (c, conn) in daemon.conns.iter().enumerate() {
            let mine: Vec<usize> = (0..plan.len()).filter(|&i| plan[i].conn == c).collect();
            let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
            let reader = conn.try_clone().map_err(|e| e.to_string())?;
            let sends = mine.clone();
            senders.push(scope.spawn(move || -> Result<Vec<(usize, f64)>, String> {
                let mut late = Vec::with_capacity(sends.len());
                for i in sends {
                    let due = t0 + Duration::from_secs_f64(plan[i].due_s);
                    let now = Instant::now();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    writer
                        .write_all(format!("{}\n", plan[i].line).as_bytes())
                        .map_err(|e| format!("send q{i}: {e}"))?;
                    late.push((i, sent.saturating_duration_since(due).as_secs_f64()));
                }
                Ok(late)
            }));
            readers.push(scope.spawn(move || -> Vec<(usize, Response)> {
                let mut got = Vec::with_capacity(mine.len());
                let mut frames: BTreeMap<usize, u64> = BTreeMap::new();
                let mut lines = BufReader::new(reader);
                let mut line = String::new();
                while got.len() < mine.len() {
                    line.clear();
                    match lines.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    let recv = Instant::now();
                    let text = line.trim_end();
                    let Ok(parsed) = request::parse_response(text) else {
                        continue;
                    };
                    let Some(i) = parsed
                        .id
                        .strip_prefix('q')
                        .and_then(|n| n.parse::<usize>().ok())
                    else {
                        continue;
                    };
                    if !parsed.is_final() {
                        *frames.entry(i).or_default() += 1;
                        continue;
                    }
                    got.push((
                        i,
                        Response {
                            recv,
                            result: (parsed.status == "ok").then(|| raw_result(text)).flatten(),
                            status: parsed.status,
                            cache: parsed.cache,
                            digest: parsed.digest,
                            frames: frames.remove(&i).unwrap_or(0),
                        },
                    ));
                }
                got
            }));
        }
        for sender in senders {
            for (i, late) in sender.join().map_err(|_| "sender panicked".to_string())?? {
                late_s[i] = late;
            }
        }
        for reader in readers {
            for (i, response) in reader.join().map_err(|_| "reader panicked".to_string())? {
                if i < responses.len() {
                    responses[i] = Some(response);
                }
            }
        }
        Ok(())
    })?;
    Ok(LoadRun {
        t0,
        responses,
        late_s,
    })
}

/// Checks and end-to-end numbers of one pass.
struct Scored {
    latencies_ms: Vec<f64>,
    digests: Vec<Option<u64>>,
    goodput_per_s: f64,
    late_ms_p99: Option<f64>,
    failures: Vec<String>,
}

fn score(
    plan: &[Planned],
    run: &LoadRun,
    expected: &BTreeMap<String, String>,
    pinned: &BTreeMap<u64, u64>,
    limit_ms: f64,
) -> Scored {
    let mut out = Scored {
        latencies_ms: Vec::with_capacity(plan.len()),
        digests: vec![None; plan.len()],
        goodput_per_s: 0.0,
        late_ms_p99: None,
        failures: Vec::new(),
    };
    let mut first: BTreeMap<&str, &str> = BTreeMap::new();
    let mut good = 0usize;
    let mut last = run.t0;
    for (i, (p, response)) in plan.iter().zip(&run.responses).enumerate() {
        let Some(r) = response else {
            out.failures.push(format!("q{i}: no response"));
            continue;
        };
        last = last.max(r.recv);
        let why = if r.status != "ok" {
            Some(format!("status {}", r.status))
        } else if r.digest.as_deref() != Some(p.digest.as_str()) {
            Some(format!("digest {:?} != {}", r.digest, p.digest))
        } else {
            match &r.result {
                None => Some("ok response without result bytes".to_string()),
                Some(bytes) => {
                    out.digests[i] = Some(digest(&[bytes.as_bytes()]));
                    let seen = first.entry(p.digest.as_str()).or_insert(bytes.as_str());
                    if *seen != bytes.as_str() {
                        Some("result differs from an earlier response with its digest".to_string())
                    } else if expected.get(&p.digest).is_some_and(|e| e != bytes) {
                        Some("result differs from in-process request::execute".to_string())
                    } else {
                        match pinned.get(&(i as u64)) {
                            Some(&want) if Some(want) != out.digests[i] => {
                                Some(format!("result digest != pinned {want:016x}"))
                            }
                            _ => None,
                        }
                    }
                }
            }
        };
        if let Some(why) = why {
            out.failures.push(format!("q{i} ({:?}): {why}", p.kind));
            continue;
        }
        let due = run.t0 + Duration::from_secs_f64(p.due_s);
        let latency_ms = r.recv.saturating_duration_since(due).as_secs_f64() * 1e3;
        out.latencies_ms.push(latency_ms);
        if latency_ms <= limit_ms {
            good += 1;
        }
    }
    let wall_s = last.saturating_duration_since(run.t0).as_secs_f64();
    out.goodput_per_s = if wall_s > 0.0 {
        good as f64 / wall_s
    } else {
        0.0
    };
    let late_ms: Vec<f64> = run.late_s.iter().map(|s| s * 1e3).collect();
    out.late_ms_p99 = measure::percentile(&late_ms, 0.99);
    out
}

/// The in-process `request::execute` result bytes of every distinct
/// payload, and how long each took, ms.
struct Expected {
    bytes: BTreeMap<String, String>,
    exec_ms: BTreeMap<String, f64>,
}

fn execute_all(plan: &[Planned], tr: &mut Tracer) -> Result<Expected, String> {
    let mut out = Expected {
        bytes: BTreeMap::new(),
        exec_ms: BTreeMap::new(),
    };
    for p in plan {
        if out.bytes.contains_key(&p.digest) {
            continue;
        }
        let started = Instant::now();
        let bytes = tr
            .span("request.execute", || request::execute(&p.payload))
            .map_err(|e| format!("in-process execute of {}: {e:?}", p.digest))?;
        out.exec_ms
            .insert(p.digest.clone(), started.elapsed().as_secs_f64() * 1e3);
        out.bytes.insert(p.digest.clone(), bytes);
    }
    Ok(out)
}

/// Set-up: request list, cache directory, daemon start, connections and one
/// warm-up request.
fn set_up(cfg: &RunConfig, count: usize, dir: &Path) -> Result<(Vec<Planned>, Daemon), String> {
    let plan = plan(cfg.seed, count, cfg.spec.offered_rate_per_s);
    std::fs::remove_dir_all(dir).ok();
    let daemon = start_daemon(dir, cfg)?;
    let reply = daemon.call(WARMUP_LINE)?;
    if request::parse_response(&reply)?.status != "ok" {
        return Err(format!("warm-up request failed: {reply}"));
    }
    Ok((plan, daemon))
}

pub fn run_workload(cfg: &RunConfig, started: Instant) -> WorkloadResult {
    match run_inner(cfg, started) {
        Ok(result) => result,
        Err(e) => {
            let mut result = WorkloadResult::new(1);
            result.failed = 1;
            result.failures.push(e);
            result
        }
    }
}

fn run_inner(cfg: &RunConfig, started: Instant) -> Result<WorkloadResult, String> {
    let count = ((cfg.seconds * cfg.spec.offered_rate_per_s).ceil() as usize).max(MIN_REQUESTS);
    let cache_dir = |k: usize| -> PathBuf { cfg.scratch_dir.join(format!("cache{k}")) };
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 { started } else { Instant::now() };
        let (plan, daemon) = set_up(cfg, count, &cache_dir(rep))?;
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            daemon.stop()?;
        } else {
            ready = Some((plan, daemon));
        }
    }
    let (plan, daemon) = ready.expect("at least one set-up");
    let limit_ms = cfg.spec.latency_limit_ms;
    let pinned = cfg.pinned();

    let load = drive(&daemon, &plan)?;
    daemon.stop()?;
    let mut tr = Tracer::new(cfg.trace);
    let expected = execute_all(&plan, &mut tr)?;
    let plain = score(&plan, &load, &expected.bytes, &pinned, limit_ms);
    let mut failures = plain.failures.clone();
    let late_ms_p99 = plain.late_ms_p99.unwrap_or(f64::INFINITY);
    if late_ms_p99 > cfg.spec.late_limit_ms {
        failures.push(format!(
            "run invalid: the load generator ran late (loadgen.late_ms_p99 {late_ms_p99:.3} ms > {} ms)",
            cfg.spec.late_limit_ms
        ));
    }

    let mut result = WorkloadResult::new(plan.len());
    result
        .report
        .push(("requests".to_string(), requests_value(&plan, &load)));
    result.failed = plan.len() - plain.latencies_ms.len();
    result.setups_s = setups;
    result.digests = (0..plan.len() as u64)
        .zip(plain.digests.iter().copied())
        .collect();
    if cfg.trace {
        let mut acc = LayerAcc::default();
        let (_, daemon) = set_up(cfg, count, &cache_dir(SETUP_REPS))?;
        let load_traced = drive(&daemon, &plan)?;
        let stats = daemon.stats()?;
        let mut rtts = Vec::with_capacity(PINGS);
        for _ in 0..PINGS {
            let sent = Instant::now();
            daemon.call(r#"{"id":"ping","op":"ping"}"#)?;
            rtts.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        daemon.stop()?;
        let traced = score(&plan, &load_traced, &expected.bytes, &pinned, limit_ms);
        failures.extend(traced.failures);
        for (i, (a, b)) in plain.digests.iter().zip(&traced.digests).enumerate() {
            if a != b {
                failures.push(format!("q{i}: traced result digest differs from untraced"));
            }
        }
        for (i, r) in load_traced.responses.iter().enumerate() {
            if let Some(r) = r {
                let due = load_traced.t0 + Duration::from_secs_f64(plan[i].due_s);
                tr.record("wrsnd.request", due, r.recv, i as u64);
            }
        }
        probe_service(
            cfg,
            &plan,
            &expected,
            &load_traced,
            &stats,
            &rtts,
            &mut tr,
            &mut acc,
        )?;
        replay_engine(&plan, &cfg.scratch_dir, &mut tr, &mut acc)?;
        acc.direct.insert("loadgen.late_ms_p99", late_ms_p99);
        acc.direct.insert(
            "trace.overhead_frac",
            1.0 - traced.goodput_per_s / plain.goodput_per_s,
        );
        acc.finish();
        result.metrics = crate::per_layer_metrics(&acc.metrics(&tr), &mut result);
        result.report.push(("spans".to_string(), tr.to_value()));
        result
            .report
            .push(("span_totals".to_string(), tr.totals_value()));
    } else {
        let p99 = measure::percentile(&plain.latencies_ms, 0.99);
        if p99.is_none() {
            failures.push("latency_ms_p99: fewer than 10 samples beyond it".to_string());
        }
        result.metrics = vec![
            Metric::new("throughput_per_s", plain.goodput_per_s, "1/s"),
            Metric::new(
                "latency_ms_p50",
                measure::percentile(&plain.latencies_ms, 0.5).unwrap_or(0.0),
                "ms",
            ),
            Metric::new("latency_ms_p99", p99.unwrap_or(0.0), "ms"),
        ];
        result.report.push((
            "loadgen_late_ms_p99".to_string(),
            Value::F64(if late_ms_p99.is_finite() {
                late_ms_p99
            } else {
                -1.0
            }),
        ));
    }
    result.failures = failures;
    Ok(result)
}

/// Per request: kind, cache outcome, latency from its due time (ms) and how
/// late it was sent (ms), for the result file.
fn requests_value(plan: &[Planned], load: &LoadRun) -> Value {
    let rows = plan
        .iter()
        .zip(&load.responses)
        .zip(&load.late_s)
        .map(|((p, r), late)| {
            let due = load.t0 + Duration::from_secs_f64(p.due_s);
            let (cache, latency) = match r {
                Some(r) => (
                    r.cache.clone().unwrap_or_default(),
                    r.recv.saturating_duration_since(due).as_secs_f64() * 1e3,
                ),
                None => (String::new(), -1.0),
            };
            Value::Seq(vec![
                Value::Str(format!("{:?}", p.kind)),
                Value::Str(cache),
                Value::F64(latency),
                Value::F64(late * 1e3),
            ])
        })
        .collect();
    Value::Seq(rows)
}

/// The service-layer probes of the traced run.
#[allow(clippy::too_many_arguments)]
fn probe_service(
    cfg: &RunConfig,
    plan: &[Planned],
    expected: &Expected,
    load: &LoadRun,
    stats: &BTreeMap<String, f64>,
    rtts_us: &[f64],
    tr: &mut Tracer,
    acc: &mut LayerAcc,
) -> Result<(), String> {
    for p in plan {
        black_box(tr.span("request.parse_line", || request::parse_line(&p.line, 0)))?;
        black_box(tr.span("payload.digest", || p.payload.digest()));
    }
    let scratch = cfg.scratch_dir.join("probe-cache");
    let cache = ResultCache::open(&scratch).map_err(|e| format!("open probe cache: {e}"))?;
    for (digest, bytes) in &expected.bytes {
        tr.span("cache.save", || cache.save(digest, bytes))
            .map_err(|e| format!("probe cache save: {e}"))?;
    }
    for (digest, bytes) in &expected.bytes {
        match tr.span("cache.lookup", || cache.lookup(digest)) {
            CacheLookup::Hit(stored) if &stored == bytes => {}
            other => return Err(format!("probe cache lookup of {digest}: {other:?}")),
        }
    }
    std::fs::remove_dir_all(&scratch).ok();

    let totals = tr.totals();
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ms());
    let rtt_us = measure::median(rtts_us);
    acc.direct
        .insert("service.parse_us", mean("request.parse_line") * 1e3);
    acc.direct
        .insert("service.digest_us", mean("payload.digest") * 1e3);
    acc.direct
        .insert("service.execute_ms", mean("request.execute"));
    acc.direct
        .insert("service.cache_lookup_us", mean("cache.lookup") * 1e3);
    acc.direct
        .insert("service.cache_save_ms", mean("cache.save"));
    acc.direct.insert("service.ping_rtt_us", rtt_us);

    // Queue wait: what a miss waited beyond its own execution and the
    // socket round trip.
    let waits: Vec<f64> = plan
        .iter()
        .zip(&load.responses)
        .filter_map(|(p, r)| {
            let r = r.as_ref()?;
            (r.cache.as_deref() == Some("miss")).then(|| {
                let due = load.t0 + Duration::from_secs_f64(p.due_s);
                r.recv.saturating_duration_since(due).as_secs_f64() * 1e3
                    - expected.exec_ms[&p.digest]
                    - rtt_us / 1e3
            })
        })
        .collect();
    acc.direct
        .insert("service.queue_wait_ms", measure::mean(&waits));

    let stat = |k: &str| stats.get(k).copied().unwrap_or(0.0);
    for (metric, key) in [
        ("service.cache_hits", "cache_hits"),
        ("service.cache_misses", "cache_misses"),
        ("service.coalesced", "coalesced"),
        ("service.cache_evictions", "cache_evictions"),
        ("service.shed", "requests_shed"),
        ("service.queue_high_watermark", "queue_high_watermark"),
        ("service.stream_frames", "stream_frames"),
    ] {
        acc.direct.insert(metric, stat(key));
    }
    let lookups = stat("cache_hits") + stat("cache_misses");
    acc.direct.insert(
        "service.hit_ratio",
        if lookups > 0.0 {
            stat("cache_hits") / lookups
        } else {
            0.0
        },
    );
    let frames: u64 = load.responses.iter().flatten().map(|r| r.frames).sum();
    if frames as f64 != stat("stream_frames") {
        return Err(format!(
            "client saw {frames} stream frames, daemon reports {}",
            stat("stream_frames")
        ));
    }
    Ok(())
}

/// Replays distinct scenario payloads in-process through the engine's
/// public calls, for the net, sim, core and charge layers of this traffic.
fn replay_engine(
    plan: &[Planned],
    dir: &Path,
    tr: &mut Tracer,
    acc: &mut LayerAcc,
) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut replays = 0;
    for p in plan {
        let Payload::Scenario(spec) = &p.payload else {
            continue;
        };
        if replays >= REPLAYS || !seen.insert(p.digest.clone()) {
            continue;
        }
        replays += 1;
        let scenario: Scenario = spec.scenario();
        let op = Op {
            id: replays as u64,
            nodes: spec.nodes,
            deployment: scenario.deployment,
            posture: Posture::Naive,
            mode: match p.detector {
                Some(preset) => Mode::Audited {
                    preset,
                    intensity: 0,
                },
                None => Mode::Plain,
            },
            world_seed: spec.seed,
            horizon_s: spec.horizon_s,
        };
        let mut stats = StatsRecorder::new();
        tr.set_op(op.id);
        tr.enter("replay");
        let ran = campaign::run(&op, dir, tr, &mut stats, None);
        tr.exit();
        let ran = ran.map_err(|e| format!("replay of {}: {e}", p.digest))?;
        acc.fold(&stats, false);
        campaign::probe(&op, &ran, dir, tr, acc);
    }
    Ok(())
}

//! `campaign_mix`: a closed loop of small seeded CSA and benign campaigns.
//!
//! Each op builds a world, runs it under one posture and evaluates it; a
//! stratified share runs with an online audit and injected faults, and a
//! share are checkpointed free-runs that resume from disk. The op list is a
//! fixed, seeded sequence: every block of [`BLOCK`] ops holds the same
//! multiset of op kinds in a seeded order, so two seeds differ in worlds and
//! order but not in the mix.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use wrsn::core::attack::{evaluate_attack, CsaAttackPolicy};
use wrsn::core::detect;
use wrsn::core::tide::TideInstance;
use wrsn::net::prelude::{keynode, routing, RoutingTree};
use wrsn::scenario::{Deployment, Scenario};
use wrsn::sim::obs::{NullRecorder, Recorder, StatsRecorder};
use wrsn::sim::{
    store, AuditConfig, ChargerPolicy, Checkpoint, CheckpointPolicy, Checkpointer, FaultConfig,
    FaultPlan, World,
};

use crate::layers::LayerAcc;
use crate::measure::{self, digest, Rng, Tracer};
use crate::{Metric, RunConfig, WorkloadResult};

pub const SIZES: [usize; 3] = [40, 80, 160];
pub const DEPLOYMENTS: [Deployment; 3] = [
    Deployment::Uniform,
    Deployment::Clustered {
        count: 4,
        sigma: 15.0,
    },
    Deployment::Corridor,
];
pub const PRESETS: [&str; 3] = ["lax", "default", "aggressive"];
pub const FAULT_INTENSITIES: [usize; 2] = [1, 4];
/// Partial-power fraction of the stealth posture.
pub const STEALTH_FRACTION: f64 = 0.35;
/// Round period of the periodic-tour posture, seconds.
pub const TSP_PERIOD_S: f64 = 50_000.0;
/// Simulated length of a checkpointed free-run, its checkpoint cadence, and
/// how far the resumed and the uninterrupted world then advance.
pub const FREE_RUN_S: f64 = 1.0e6;
pub const CHECKPOINT_EVERY_S: f64 = 2.5e5;
pub const RESUME_S: f64 = 5.0e5;
/// Per (size, deployment) pair: 5 postures twice plain, 5 postures audited,
/// one checkpointed free-run.
const PER_PAIR: usize = 16;
/// Ops per stratified block.
pub const BLOCK: usize = PER_PAIR * SIZES.len() * DEPLOYMENTS.len();
/// Blocks in the shortest op list: 1008 ops, so `latency_ms_p99` has at
/// least ten samples beyond it.
pub const MIN_BLOCKS: usize = 7;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// World seed of the warm-up op (the same in every run).
const WARMUP_SEED: u64 = 0x5741_524d;
/// Execution strategy of the sharded re-run check.
pub const SHARDED: (usize, usize) = (8, 2);

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Posture {
    Naive,
    Stealth,
    Edf,
    Njnp,
    PeriodicTsp,
}

pub const POSTURES: [Posture; 5] = [
    Posture::Naive,
    Posture::Stealth,
    Posture::Edf,
    Posture::Njnp,
    Posture::PeriodicTsp,
];

impl Posture {
    fn is_attack(self) -> bool {
        matches!(self, Posture::Naive | Posture::Stealth)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    Plain,
    /// Online audit preset plus a generated fault plan (`intensity` 0 = no
    /// faults).
    Audited {
        preset: &'static str,
        intensity: usize,
    },
    /// Free-run with a checkpointer, then load, restore and re-advance.
    Checkpointed,
}

/// The charger an op runs: the CSA (kept concrete for `evaluate_attack`) or
/// a benign policy.
enum Policy {
    Attack(Box<CsaAttackPolicy>),
    Benign(Box<dyn ChargerPolicy>),
}

impl Policy {
    fn as_dyn(&mut self) -> &mut dyn ChargerPolicy {
        match self {
            Policy::Attack(p) => p.as_mut(),
            Policy::Benign(p) => p.as_mut(),
        }
    }
}

/// One campaign.
#[derive(Debug, Clone)]
pub struct Op {
    pub id: u64,
    pub nodes: usize,
    pub deployment: Deployment,
    pub posture: Posture,
    pub mode: Mode,
    pub world_seed: u64,
    pub horizon_s: f64,
}

impl Op {
    pub fn scenario(&self) -> Scenario {
        let mut scenario =
            Scenario::paper_scale(self.nodes, self.world_seed).with_deployment(self.deployment);
        scenario.horizon_s = self.horizon_s;
        scenario
    }

    fn policy(&self, scenario: &Scenario) -> Policy {
        match self.posture {
            Posture::Naive => {
                Policy::Attack(Box::new(CsaAttackPolicy::new(scenario.tide_config())))
            }
            Posture::Stealth => Policy::Attack(Box::new(
                CsaAttackPolicy::new(scenario.tide_config()).with_stealth(STEALTH_FRACTION),
            )),
            Posture::Edf => Policy::Benign(Box::new(wrsn::charge::EarliestDeadlineFirst::new())),
            Posture::Njnp => Policy::Benign(Box::new(wrsn::charge::Njnp::new())),
            Posture::PeriodicTsp => Policy::Benign(Box::new(wrsn::charge::PeriodicTsp::new(
                scenario.sink(),
                TSP_PERIOD_S,
            ))),
        }
    }

    /// The generated fault plan of an audited op with faults.
    fn fault_plan(&self) -> Option<FaultPlan> {
        match self.mode {
            Mode::Audited { intensity, .. } if intensity > 0 => Some(FaultPlan::generate(
                self.world_seed,
                self.nodes,
                self.horizon_s,
                &FaultConfig::uniform(intensity),
            )),
            _ => None,
        }
    }

    fn is_benign_run(&self) -> bool {
        !self.posture.is_attack() && self.mode != Mode::Checkpointed
    }

    /// `nodes/deployment/posture/mode`, for reports.
    pub fn label(&self) -> String {
        let dep = match self.deployment {
            Deployment::Uniform => "uniform",
            Deployment::Clustered { .. } => "clustered",
            Deployment::Corridor => "corridor",
        };
        let mode = match self.mode {
            Mode::Plain => "plain".to_string(),
            Mode::Audited { preset, intensity } => format!("audit-{preset}-f{intensity}"),
            Mode::Checkpointed => "checkpointed".to_string(),
        };
        format!("{}/{dep}/{:?}/{mode}", self.nodes, self.posture)
    }
}

/// The op kinds of one block, before shuffling.
fn block_template() -> Vec<(usize, Deployment, Posture, Mode)> {
    let mut kinds = Vec::with_capacity(BLOCK);
    let mut audited = 0;
    for nodes in SIZES {
        for deployment in DEPLOYMENTS {
            for posture in POSTURES {
                kinds.push((nodes, deployment, posture, Mode::Plain));
                kinds.push((nodes, deployment, posture, Mode::Plain));
                let mode = Mode::Audited {
                    preset: PRESETS[audited % PRESETS.len()],
                    intensity: FAULT_INTENSITIES[(audited / PRESETS.len()) % 2],
                };
                audited += 1;
                kinds.push((nodes, deployment, posture, mode));
            }
            kinds.push((nodes, deployment, Posture::Naive, Mode::Checkpointed));
        }
    }
    kinds
}

/// The first `count` ops of `seed`'s list. Op `i` does not depend on
/// `count`, so a longer list extends a shorter one.
pub fn op_list(seed: u64, count: usize) -> Vec<Op> {
    let template = block_template();
    let mut ops = Vec::with_capacity(count);
    for block in 0..count.div_ceil(BLOCK) {
        let mut kinds = template.clone();
        Rng::derive(seed, block as u64).shuffle(&mut kinds);
        for (k, (nodes, deployment, posture, mode)) in kinds.into_iter().enumerate() {
            let id = (block * BLOCK + k) as u64;
            ops.push(Op {
                id,
                nodes,
                deployment,
                posture,
                mode,
                world_seed: Rng::derive(seed, (1 << 40) | id).next_u64() >> 32,
                horizon_s: Scenario::paper_scale(nodes, 0).horizon_s,
            });
        }
    }
    ops.truncate(count);
    ops
}

fn warmup_op() -> Op {
    Op {
        id: u64::MAX,
        nodes: 80,
        deployment: Deployment::Uniform,
        posture: Posture::Naive,
        mode: Mode::Plain,
        world_seed: WARMUP_SEED,
        horizon_s: Scenario::paper_scale(80, 0).horizon_s,
    }
}

/// What a timed op leaves for the checks and probes.
pub struct Ran {
    pub world: World,
    /// The world restored from the call-boundary checkpoint and re-advanced
    /// (checkpointed ops only).
    resumed: Option<World>,
    /// The latest periodic checkpoint and the call-boundary one
    /// (checkpointed ops only).
    checkpoints: Option<(Checkpoint, Checkpoint)>,
    /// Canonical bytes of the report, attack outcome and detector verdict.
    summary: String,
    /// Seconds spent in `World::run_with`.
    pub run_s: f64,
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("simulation state serializes")
}

/// Runs one op: build, run (or free-run with checkpoints, load, restore and
/// re-advance) and evaluate. `strategy` overrides the engine's (shards,
/// threads).
pub fn run(
    op: &Op,
    dir: &Path,
    tr: &mut Tracer,
    rec: &mut dyn Recorder,
    strategy: Option<(usize, usize)>,
) -> Result<Ran, String> {
    let scenario = op.scenario();
    let mut world = tr.span("scenario.build", || scenario.build());
    if let Some((shards, threads)) = strategy {
        world.set_shards(shards);
        world.set_threads(threads);
    }
    match op.mode {
        Mode::Plain => {}
        Mode::Audited { preset, .. } => {
            let audit = AuditConfig::preset(preset).ok_or("unknown audit preset")?;
            world.set_audit(Some(audit.with_seed(op.world_seed)));
            if let Some(plan) = op.fault_plan() {
                world.set_fault_plan(plan);
            }
        }
        Mode::Checkpointed => {
            let path = dir.join(format!("op{}.ckpt", op.id));
            let mut resumed = world.clone();
            world.set_checkpointer(Some(Checkpointer::new(
                &path,
                CheckpointPolicy::every(CHECKPOINT_EVERY_S),
            )));
            tr.span("world.advance_by", || {
                world.advance_by_with(FREE_RUN_S, rec)
            })
            .map_err(|e| format!("free-run: {e}"))?;
            world.set_checkpointer(None);
            // The latest periodic checkpoint, written mid-advance.
            let periodic = tr
                .span("store.load", || store::load(&path))
                .map_err(|e| format!("load: {e}"))?;
            // A checkpoint at the call boundary, resumed and re-advanced
            // beside the uninterrupted world.
            let boundary = tr.span("world.snapshot", || world.snapshot());
            tr.span("store.save", || store::save(&path, &boundary))
                .map_err(|e| format!("save: {e}"))?;
            let thawed = tr
                .span("store.load", || store::load(&path))
                .map_err(|e| format!("load: {e}"))?;
            tr.span("world.restore", || resumed.restore(&thawed));
            tr.span("world.advance_by", || world.advance_by_with(RESUME_S, rec))
                .map_err(|e| format!("continue: {e}"))?;
            tr.span("world.advance_by", || {
                resumed.advance_by_with(RESUME_S, rec)
            })
            .map_err(|e| format!("re-advance: {e}"))?;
            return Ok(Ran {
                world,
                resumed: Some(resumed),
                checkpoints: Some((periodic, boundary)),
                summary: String::new(),
                run_s: 0.0,
            });
        }
    }
    let mut policy = op.policy(&scenario);
    let started = Instant::now();
    let report = tr
        .span("world.run_with", || world.run_with(policy.as_dyn(), rec))
        .map_err(|e| format!("run: {e}"))?;
    let run_s = started.elapsed().as_secs_f64();
    let outcome = match &policy {
        Policy::Attack(attack) => {
            Some(tr.span("attack.evaluate_attack", || evaluate_attack(&world, attack)))
        }
        Policy::Benign(_) => None,
    };
    let verdict = tr.span("detect.run_suite", || detect::run_suite(&world));
    let summary = format!(
        "{}\n{}\n{}",
        json(&report),
        outcome.as_ref().map(json).unwrap_or_default(),
        json(&verdict)
    );
    Ok(Ran {
        world,
        resumed: None,
        checkpoints: None,
        summary,
        run_s,
    })
}

/// The output checks of one op.
pub struct Checked {
    pub digest: u64,
    pub failure: Option<String>,
    /// Checkpointed ops: whether resuming the latest periodic (mid-advance)
    /// checkpoint and re-advancing to the free-run's nominal end reproduced
    /// the uninterrupted world byte for byte. Reported, not failed: the
    /// engine only guarantees byte-identical resumes from call boundaries.
    pub mid_advance_resume_identical: Option<bool>,
}

/// The op's result digest and, for a checkpointed op, whether the resumed
/// world is byte-identical to the uninterrupted one.
pub fn check(ran: &Ran) -> Checked {
    let state = json(&ran.world);
    let Some(resumed) = &ran.resumed else {
        // The world's serialization carries its trace.
        return Checked {
            digest: digest(&[ran.summary.as_bytes(), state.as_bytes()]),
            failure: None,
            mid_advance_resume_identical: None,
        };
    };
    let failure = (json(resumed) != state)
        .then(|| "checkpoint resume differs from the uninterrupted world".to_string());
    let mid_advance = ran.checkpoints.as_ref().map(|(periodic, boundary)| {
        let mut world = resumed.clone();
        world.restore(periodic);
        let left = FREE_RUN_S - periodic.world().time_s();
        world.advance_by(left).is_ok() && json(&world) == json(boundary.world())
    });
    Checked {
        digest: digest(&[state.as_bytes()]),
        failure,
        mid_advance_resume_identical: mid_advance,
    }
}

/// Untimed per-layer probes on a traced op: the from-outside costs the op's
/// own calls hide or replace.
pub fn probe(op: &Op, ran: &Ran, dir: &Path, tr: &mut Tracer, acc: &mut LayerAcc) {
    tr.enter("probe");
    let scenario = op.scenario();
    let initial = scenario.build();
    let config = scenario.tide_config();
    black_box(tr.span("keynode.identify", || {
        keynode::identify(initial.network(), &config.keynode)
    }));
    black_box(tr.span("tide.from_network", || {
        TideInstance::from_network(initial.network(), &config)
    }));
    let net = ran.world.network();
    let mask = net.alive_mask();
    let tree = tr.span("routing.shortest_path", || {
        RoutingTree::shortest_path(net, &mask)
    });
    black_box(tr.span("routing.traffic_load", || {
        routing::traffic_load(net, &tree, &mask)
    }));
    match op.mode {
        Mode::Audited { .. } => {
            // Same faults, no audit.
            let mut world = scenario.build();
            if let Some(plan) = op.fault_plan() {
                world.set_fault_plan(plan);
            }
            let mut policy = op.policy(&scenario);
            let started = Instant::now();
            tr.span("probe.run_unaudited", || world.run(policy.as_dyn()))
                .expect("unaudited re-run of a completed op");
            acc.audited_pairs
                .push((ran.run_s, started.elapsed().as_secs_f64()));
        }
        Mode::Checkpointed => {
            let path = dir.join(format!("op{}.ckpt", op.id));
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            acc.checkpoint_bytes.push(bytes as f64);
        }
        Mode::Plain => {}
    }
    tr.exit();
}

/// One pass over the op list.
struct Pass {
    /// Latencies of the ops that completed and passed their checks, ms.
    latencies_ms: Vec<f64>,
    /// `(op id, latency ms)` of every op that completed.
    per_op_ms: Vec<(u64, f64)>,
    digests: Vec<Option<u64>>,
    failures: Vec<String>,
    /// Checkpointed ops whose mid-advance resume was not byte-identical.
    mid_advance_mismatches: usize,
}

impl Pass {
    fn throughput_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / (self.latencies_ms.iter().sum::<f64>() / 1e3)
    }
}

fn pass(
    ops: &[Op],
    dir: &Path,
    pinned: &std::collections::BTreeMap<u64, u64>,
    tr: &mut Tracer,
    acc: &mut LayerAcc,
) -> Pass {
    let traced = tr.enabled();
    let mut out = Pass {
        latencies_ms: Vec::with_capacity(ops.len()),
        per_op_ms: Vec::with_capacity(ops.len()),
        digests: Vec::with_capacity(ops.len()),
        failures: Vec::new(),
        mid_advance_mismatches: 0,
    };
    for op in ops {
        tr.set_op(op.id);
        let mut stats = StatsRecorder::new();
        let mut null = NullRecorder;
        let rec: &mut dyn Recorder = if traced { &mut stats } else { &mut null };
        let started = Instant::now();
        tr.enter("op");
        let ran = run(op, dir, tr, rec, None);
        tr.exit();
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        out.per_op_ms.push((op.id, latency_ms));
        let ran = match ran {
            Ok(ran) => ran,
            Err(e) => {
                out.failures
                    .push(format!("op {} ({}): {e}", op.id, op.label()));
                out.digests.push(None);
                continue;
            }
        };
        let Checked {
            digest,
            mut failure,
            mid_advance_resume_identical,
        } = check(&ran);
        if let Some(&want) = pinned.get(&op.id) {
            if want != digest {
                failure = Some(format!("digest {digest:016x} != pinned {want:016x}"));
            }
        }
        if mid_advance_resume_identical == Some(false) {
            out.mid_advance_mismatches += 1;
        }
        match failure {
            Some(why) => out
                .failures
                .push(format!("op {} ({}): {why}", op.id, op.label())),
            None => out.latencies_ms.push(latency_ms),
        }
        out.digests.push(Some(digest));
        if traced {
            acc.fold(&stats, op.is_benign_run());
            probe(op, &ran, dir, tr, acc);
        }
        if let Mode::Checkpointed = op.mode {
            std::fs::remove_file(dir.join(format!("op{}.ckpt", op.id))).ok();
        }
    }
    out
}

/// The op the sharded re-run check repeats: the first plain naive campaign
/// on the largest size.
fn sharded_op(ops: &[Op]) -> Option<usize> {
    ops.iter().position(|op| {
        op.nodes == SIZES[SIZES.len() - 1] && op.posture == Posture::Naive && op.mode == Mode::Plain
    })
}

pub fn run_workload(cfg: &RunConfig, started: Instant) -> WorkloadResult {
    let dir = cfg.scratch_dir.join("campaign");
    std::fs::create_dir_all(&dir).expect("create checkpoint directory");
    let blocks = ((cfg.seconds * cfg.spec.nominal_ops_per_s) / BLOCK as f64).ceil() as usize;
    let count = blocks.max(MIN_BLOCKS) * BLOCK;

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut ops = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 { started } else { Instant::now() };
        ops = op_list(cfg.seed, count);
        let warm = run(
            &warmup_op(),
            &dir,
            &mut Tracer::new(false),
            &mut NullRecorder,
            None,
        )
        .expect("warm-up op");
        black_box(warm);
        setups.push(t0.elapsed().as_secs_f64());
    }

    let pinned = cfg.pinned();
    let mut acc = LayerAcc::default();
    let mut untraced_tr = Tracer::new(false);
    let plain = pass(&ops, &dir, &pinned, &mut untraced_tr, &mut acc);
    let mut failures = plain.failures.clone();

    // Sharded re-run: same bytes at (shards, threads) = SHARDED.
    let mut tr = Tracer::new(cfg.trace);
    if let Some(i) = sharded_op(&ops) {
        let mut stats = StatsRecorder::new();
        tr.set_op(ops[i].id);
        tr.enter("probe.run_sharded");
        let ran = run(&ops[i], &dir, &mut tr, &mut stats, Some(SHARDED));
        tr.exit();
        match ran.map(|r| check(&r).digest) {
            Ok(d) if Some(d) == plain.digests[i] => {}
            Ok(d) => failures.push(format!(
                "op {}: digest {d:016x} at shards {} threads {} differs from shards 1",
                ops[i].id, SHARDED.0, SHARDED.1
            )),
            Err(e) => failures.push(format!("op {} sharded re-run: {e}", ops[i].id)),
        }
        let execute = stats
            .spans()
            .iter()
            .find(|s| s.path == "world_run.execute")
            .map_or(0.0, |s| s.total_s * 1e3);
        acc.direct.insert("sim.execute_ms_sharded", execute);
    }

    let mut result = WorkloadResult::new(ops.len());
    let mut metrics = Vec::new();
    if cfg.trace {
        let traced = pass(&ops, &dir, &pinned, &mut tr, &mut acc);
        failures.extend(traced.failures.iter().cloned());
        for (op, (a, b)) in ops.iter().zip(plain.digests.iter().zip(&traced.digests)) {
            if a != b {
                failures.push(format!("op {}: traced digest differs from untraced", op.id));
            }
        }
        acc.finish();
        acc.direct.insert(
            "trace.overhead_frac",
            1.0 - traced.throughput_per_s() / plain.throughput_per_s(),
        );
        metrics = crate::per_layer_metrics(&acc.metrics(&tr), &mut result);
        result.report.push(("spans".to_string(), tr.to_value()));
        result
            .report
            .push(("span_totals".to_string(), tr.totals_value()));
    } else {
        let p99 = measure::percentile(&plain.latencies_ms, 0.99);
        if p99.is_none() {
            failures.push("latency_ms_p99: fewer than 10 samples beyond it".to_string());
        }
        metrics.push(Metric::new(
            "throughput_per_s",
            plain.throughput_per_s(),
            "1/s",
        ));
        metrics.push(Metric::new(
            "latency_ms_p50",
            measure::percentile(&plain.latencies_ms, 0.5).unwrap_or(0.0),
            "ms",
        ));
        metrics.push(Metric::new("latency_ms_p99", p99.unwrap_or(0.0), "ms"));
    }
    result.failed = ops.len() - plain.latencies_ms.len();
    result.setups_s = setups;
    result.failures = failures;
    result.metrics = metrics;
    result.digests = ops.iter().map(|op| op.id).zip(plain.digests).collect();
    let rows = plain
        .per_op_ms
        .iter()
        .map(|&(id, ms)| serde::Value::Seq(vec![serde::Value::U64(id), serde::Value::F64(ms)]))
        .collect();
    result
        .report
        .push(("op_latencies_ms".to_string(), serde::Value::Seq(rows)));
    let checkpointed = ops
        .iter()
        .filter(|op| op.mode == Mode::Checkpointed)
        .count();
    result.report.push((
        "known_defects".to_string(),
        serde::Value::Map(vec![(
            "mid_advance_resume_mismatches".to_string(),
            serde::Value::Seq(vec![
                serde::Value::U64(plain.mid_advance_mismatches as u64),
                serde::Value::U64(checkpointed as u64),
            ]),
        )]),
    ));
    std::fs::remove_dir_all(&dir).ok();
    result
}

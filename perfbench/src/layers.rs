//! The per-layer metric catalogue and the accumulator that turns the
//! program's own spans and counters (`obs::StatsRecorder`) plus the benchmark's
//! own spans into those metrics.

use std::collections::BTreeMap;

use wrsn::sim::obs::{Counter, StatsRecorder};

use crate::measure::Tracer;

/// Every per-layer metric, in report order, with its unit. Each traced run
/// reports all of them; a metric whose layer the workload does not exercise
/// reads 0 and is listed under `not_exercised` in the result file.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.build_ms", "ms"),
    ("net.keynode_identify_ms", "ms"),
    ("net.shortest_path_ms", "ms"),
    ("net.traffic_load_ms", "ms"),
    ("net.routing_repairs", "count"),
    ("net.routing_repair_relaxed", "count"),
    ("net.routing_full_builds", "count"),
    ("net.power_recomputes_skipped", "count"),
    ("sim.run_ms", "ms"),
    ("sim.execute_ms", "ms"),
    ("sim.policy_decide_ms", "ms"),
    ("sim.execute_ms_per_refresh", "ms"),
    ("sim.topology_refreshes", "count"),
    ("sim.node_deaths", "count"),
    ("sim.advance_segments", "count"),
    ("sim.requests_issued", "count"),
    ("sim.request_scans_skipped", "count"),
    ("sim.execute_ms_sharded", "ms"),
    ("sim.audit_probes", "count"),
    ("sim.audit_probe_failures", "count"),
    ("sim.audit_convictions", "count"),
    ("sim.faults_injected", "count"),
    ("sim.run_ms_audited", "ms"),
    ("sim.run_ms_unaudited", "ms"),
    ("sim.snapshot_ms", "ms"),
    ("sim.restore_ms", "ms"),
    ("sim.checkpoint_save_ms", "ms"),
    ("sim.checkpoint_load_ms", "ms"),
    ("sim.checkpoint_bytes", "bytes"),
    ("sim.checkpoints_written", "count"),
    ("core.csa_plan_ms", "ms"),
    ("core.tide_instance_ms", "ms"),
    ("core.planner_runs", "count"),
    ("core.candidate_probes", "count"),
    ("core.insertions", "count"),
    ("core.insertions_per_probe", "ratio"),
    ("core.evaluate_attack_ms", "ms"),
    ("core.detect_suite_ms", "ms"),
    ("charge.policy_decide_ms", "ms"),
    ("charge.tour_two_opt_moves", "count"),
    ("charge.honest_sessions", "count"),
    ("service.parse_us", "us"),
    ("service.digest_us", "us"),
    ("service.execute_ms", "ms"),
    ("service.cache_lookup_us", "us"),
    ("service.cache_save_ms", "ms"),
    ("service.ping_rtt_us", "us"),
    ("service.queue_wait_ms", "ms"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.coalesced", "count"),
    ("service.cache_evictions", "count"),
    ("service.shed", "count"),
    ("service.queue_high_watermark", "count"),
    ("service.stream_frames", "count"),
    ("service.hit_ratio", "ratio"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Why `workload` has no measurement for `metric`.
pub fn not_exercised_reason(workload: &str, metric: &str) -> &'static str {
    match (workload, metric.split('.').next().unwrap_or("")) {
        ("campaign_mix", "service" | "loadgen") => {
            "campaign_mix is a closed in-process loop: no daemon and no open-loop sender"
        }
        ("service_mix", "sim") if metric == "sim.execute_ms_sharded" => {
            "the sharded re-run is a campaign_mix check"
        }
        ("service_mix", "sim") if metric == "sim.execute_ms_per_refresh" => {
            "no node dies within the service's default 50000 s horizon, so no refresh runs"
        }
        ("service_mix", "sim") => "service traffic takes no checkpoints",
        ("service_mix", "charge") => "every service campaign runs the CSA, no benign policy",
        _ => "the workload does not reach this layer",
    }
}

/// Program counters summed into per-layer count metrics.
const COUNTERS: &[(&str, Counter)] = &[
    ("net.routing_repairs", Counter::RoutingRepairs),
    ("net.routing_repair_relaxed", Counter::RoutingRepairRelaxed),
    ("net.routing_full_builds", Counter::RoutingFullBuilds),
    (
        "net.power_recomputes_skipped",
        Counter::PowerRecomputesSkipped,
    ),
    ("sim.topology_refreshes", Counter::TopologyRefreshes),
    ("sim.node_deaths", Counter::NodeDeaths),
    ("sim.advance_segments", Counter::AdvanceSegments),
    ("sim.requests_issued", Counter::RequestsIssued),
    ("sim.request_scans_skipped", Counter::RequestScansSkipped),
    ("sim.audit_probes", Counter::AuditProbes),
    ("sim.audit_probe_failures", Counter::AuditProbeFailures),
    ("sim.audit_convictions", Counter::AuditConvictions),
    ("sim.faults_injected", Counter::FaultsInjected),
    ("sim.checkpoints_written", Counter::CheckpointsWritten),
    ("core.planner_runs", Counter::PlannerRuns),
    ("core.candidate_probes", Counter::CandidateProbes),
    ("core.insertions", Counter::Insertions),
    ("charge.tour_two_opt_moves", Counter::TourTwoOptMoves),
    ("charge.honest_sessions", Counter::HonestSessions),
];

/// Sum and occurrence count of one program span over a pass.
#[derive(Debug, Clone, Copy, Default)]
struct ProgramSpan {
    total_s: f64,
    runs: u64,
}

impl ProgramSpan {
    fn mean_ms(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.total_s * 1e3 / self.runs as f64
        }
    }
}

/// Accumulates the program's spans and counters over the traced ops.
#[derive(Debug, Default)]
pub struct LayerAcc {
    counters: BTreeMap<&'static str, u64>,
    spans: BTreeMap<String, ProgramSpan>,
    benign_decide: ProgramSpan,
    /// Metrics measured directly by the workload (probes, daemon stats).
    pub direct: BTreeMap<&'static str, f64>,
    /// `World::run_with` seconds of each audited op and of its unaudited
    /// re-run.
    pub audited_pairs: Vec<(f64, f64)>,
    /// Sizes of the probe checkpoints, bytes.
    pub checkpoint_bytes: Vec<f64>,
}

impl LayerAcc {
    /// Folds one op's recorder. `benign` marks ops run by an honest charging
    /// policy, whose decision time is the `charge` layer's.
    pub fn fold(&mut self, rec: &StatsRecorder, benign: bool) {
        for &(name, counter) in COUNTERS {
            *self.counters.entry(name).or_default() += rec.counter(counter);
        }
        for span in rec.spans() {
            let entry = self.spans.entry(span.path.clone()).or_default();
            entry.total_s += span.total_s;
            entry.runs += 1;
            if benign && span.path == "world_run.policy_decide" {
                self.benign_decide.total_s += span.total_s;
                self.benign_decide.runs += 1;
            }
        }
    }

    /// Turns the collected samples into direct metrics.
    pub fn finish(&mut self) {
        if !self.audited_pairs.is_empty() {
            let n = self.audited_pairs.len() as f64;
            let (audited, unaudited) = self
                .audited_pairs
                .iter()
                .fold((0.0, 0.0), |(a, u), &(x, y)| (a + x, u + y));
            self.direct.insert("sim.run_ms_audited", audited * 1e3 / n);
            self.direct
                .insert("sim.run_ms_unaudited", unaudited * 1e3 / n);
        }
        if !self.checkpoint_bytes.is_empty() {
            self.direct.insert(
                "sim.checkpoint_bytes",
                crate::measure::mean(&self.checkpoint_bytes),
            );
        }
    }

    fn program(&self, path: &str) -> ProgramSpan {
        self.spans.get(path).copied().unwrap_or_default()
    }

    /// Every per-layer metric the program's spans and counters and the
    /// benchmark's spans (`tr`) provide, merged with [`LayerAcc::direct`].
    pub fn metrics(&self, tr: &Tracer) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (&name, &v) in &self.counters {
            out.insert(name, v as f64);
        }
        let spans = tr.totals();
        let own = |name: &str| spans.get(name).copied().unwrap_or_default();
        for (metric, span) in [
            ("net.build_ms", "scenario.build"),
            ("net.keynode_identify_ms", "keynode.identify"),
            ("net.shortest_path_ms", "routing.shortest_path"),
            ("net.traffic_load_ms", "routing.traffic_load"),
            ("sim.run_ms", "world.run_with"),
            ("sim.snapshot_ms", "world.snapshot"),
            ("sim.restore_ms", "world.restore"),
            ("sim.checkpoint_save_ms", "store.save"),
            ("sim.checkpoint_load_ms", "store.load"),
            ("core.tide_instance_ms", "tide.from_network"),
            ("core.evaluate_attack_ms", "attack.evaluate_attack"),
            ("core.detect_suite_ms", "detect.run_suite"),
        ] {
            if own(span).count > 0 {
                out.insert(metric, own(span).mean_ms());
            }
        }
        let execute = self.program("world_run.execute");
        if execute.runs > 0 {
            out.insert("sim.execute_ms", execute.mean_ms());
            out.insert(
                "sim.policy_decide_ms",
                self.program("world_run.policy_decide").mean_ms(),
            );
            let refreshes = self
                .counters
                .get("sim.topology_refreshes")
                .copied()
                .unwrap_or(0);
            if refreshes > 0 {
                out.insert(
                    "sim.execute_ms_per_refresh",
                    execute.total_s * 1e3 / refreshes as f64,
                );
            }
        }
        let plan = self.program("world_run.policy_decide.csa_plan");
        if plan.runs > 0 {
            out.insert("core.csa_plan_ms", plan.mean_ms());
        }
        let probes = self
            .counters
            .get("core.candidate_probes")
            .copied()
            .unwrap_or(0);
        if probes > 0 {
            let insertions = self.counters.get("core.insertions").copied().unwrap_or(0);
            out.insert(
                "core.insertions_per_probe",
                insertions as f64 / probes as f64,
            );
        }
        if self.benign_decide.runs > 0 {
            out.insert("charge.policy_decide_ms", self.benign_decide.mean_ms());
        }
        for (&name, &v) in &self.direct {
            out.insert(name, v);
        }
        out
    }
}

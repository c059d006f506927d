//! The fused integration-segment kernel.
//!
//! [`apply_segment`] is the one body `World::advance` runs per segment: the
//! unsharded path calls it once over `alive_idx`, and the sharded path calls
//! it once per shard, in ascending shard order, over the shard's members.
//! Every battery update goes through the [`wrsn_net::EnergyColumnsMut`]
//! column ops, and the sharded path re-sorts its effect lists into the
//! ascending index order the unsharded call produces — so the trajectory is
//! byte-identical at any shard count. The `shard_determinism` proptests pin
//! this.

use wrsn_net::{EnergyColumnsMut, NodeId};

use crate::world::DEATH_EPS;

/// Per-segment inputs shared by every shard: the current power/drain columns
/// and the injection applied over the segment.
pub(crate) struct SegmentCtx<'a> {
    /// Gross per-node power draw, watts (for saturation bookkeeping).
    pub power_w: &'a [f64],
    /// Net battery drain per node, watts (negative = charging).
    pub net_w: &'a [f64],
    /// The node receiving wireless charge, if any.
    pub inject_node: Option<NodeId>,
    /// Effective injected power, watts (after fault degradation).
    pub eff_w: f64,
    /// Segment length, seconds.
    pub step: f64,
}

/// Applies one integration segment to the nodes listed in `members`: drains
/// (or charges, for the injected node) each battery over `step` seconds,
/// detects deaths and warning-threshold crossings, folds the next event
/// horizon into `t_next`, and returns the energy stored in `inject_node`'s
/// battery. The unsharded path passes `alive_idx` with no mask; shards pass
/// their (static) member lists with the live mask, which filters to exactly
/// the same node set. Per-node updates touch only that node's column entries,
/// so any partition of the members applies bitwise-identical updates.
pub(crate) fn apply_segment(
    cols: &mut EnergyColumnsMut<'_>,
    members: &[usize],
    alive: Option<&[bool]>,
    ctx: &SegmentCtx<'_>,
    t_next: &mut f64,
    dead: &mut Vec<NodeId>,
    crossed: &mut Vec<usize>,
) -> f64 {
    let mut stored = 0.0;
    for &i in members {
        if let Some(alive) = alive {
            if !alive[i] {
                continue;
            }
        }
        let w = ctx.net_w[i];
        let nid = NodeId(i);
        if w == 0.0 && ctx.inject_node != Some(nid) {
            // Zero drain, no injection: the battery cannot move.
            continue;
        }
        let was_low = cols.needs_charging(i);
        if w > 0.0 {
            cols.discharge(i, w * ctx.step);
            // Snap float residue: if the remaining charge lasts under a
            // nanosecond at this drain, the node is dead now.
            if cols.level_j[i] <= w * DEATH_EPS {
                cols.set_level(i, 0.0);
            }
            if cols.depleted[i] {
                // `members` ascends, so deaths come out sorted. Dead nodes
                // get a full request scan during the topology refresh, so
                // none is queued here.
                dead.push(nid);
            } else {
                let level = cols.level_j[i];
                let warning = cols.warning_j[i];
                *t_next = t_next.min(level / w);
                if level > warning {
                    *t_next = t_next.min((level - warning) / w);
                }
                if cols.needs_charging(i) != was_low {
                    crossed.push(i);
                }
            }
            if ctx.inject_node == Some(nid) {
                // Net drain positive means no saturation: the battery
                // absorbed the full injected inflow.
                stored += ctx.eff_w * ctx.step;
            }
        } else {
            let gained = cols.charge(i, -w * ctx.step);
            if cols.needs_charging(i) != was_low {
                crossed.push(i);
            }
            if ctx.inject_node == Some(nid) {
                // Saturated batteries absorb less than injected.
                stored += gained + ctx.power_w[i] * ctx.step;
            }
        }
    }
    stored
}

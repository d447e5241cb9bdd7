#include "sm/reconfig_journal.hpp"

#include <algorithm>
#include <string>

#include "routing/graph.hpp"
#include "sm/topology_txn.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/expect.hpp"
#include "util/log.hpp"

namespace ibvs::sm {

namespace {

struct JournalMetrics {
  telemetry::Counter& begun;
  telemetry::Counter& topology_begun;
  telemetry::Counter& replays_forward;
  telemetry::Counter& replays_back;

  static JournalMetrics& get() {
    auto& reg = telemetry::Registry::global();
    static JournalMetrics m{
        reg.counter("ibvs_journal_records_total", {},
                    "Migration records opened in the reconfiguration journal"),
        reg.counter("ibvs_journal_topology_records_total", {},
                    "Topology records opened in the reconfiguration journal"),
        reg.counter("ibvs_journal_replays_total", {{"action", "roll_forward"}},
                    "In-flight journal records resolved during recovery"),
        reg.counter("ibvs_journal_replays_total", {{"action", "roll_back"}}),
    };
    return m;
  }
};

/// Route repair after a topology rollback performed by a *recovering* SM.
///
/// A standby promoted mid-delta sweeps the half-mutated fabric before it
/// replays the journal, so its master tables describe the cabling as it was
/// at takeover. Rolling the record back then changes the cabling again —
/// re-plugging a detach subject the sweep saw severed (its LID column is
/// all-drop) or severing attach cables the sweep routed through. The
/// recorded inverse deltas cannot fix that: they were taken against the
/// *dying* master's tables. Recompute exactly the affected columns from BFS
/// on the restored graph. Roll-forward needs no such pass (the journaled
/// deltas are valid for the fully-mutated fabric), so the common recovery
/// path stays free of route recomputation.
void repair_rolled_back_routes(
    SubnetManager& sm, const std::vector<const TopologyIntent*>& rolled) {
  if (rolled.empty()) return;
  Fabric& fabric = sm.fabric();
  const auto& result = sm.routing_result();
  const auto& g = result.graph;
  const auto hops = routing::switch_hop_matrix(g);
  for (const TopologyIntent* r : rolled) {
    if (r->adds_cables()) {
      // Any column still egressing into a now-unplugged port is recomputed
      // wholesale; untouched columns never routed through the cables.
      for (const Lid lid : sm.lids().assigned_lids()) {
        bool stale = false;
        for (const CableSpec& c : r->cables) {
          const routing::SwitchIdx sa = g.dense(c.a);
          const routing::SwitchIdx sb = g.dense(c.b);
          if ((sa != routing::kNoSwitch &&
               result.lfts[sa].get(lid) == c.port_a) ||
              (sb != routing::kNoSwitch &&
               result.lfts[sb].get(lid) == c.port_b)) {
            stale = true;
            break;
          }
        }
        if (!stale) continue;
        const auto att = sm.lids().attachment(fabric, lid);
        if (!att) continue;
        const routing::SwitchIdx t = g.dense(att->first);
        if (t == routing::kNoSwitch) continue;
        const auto column = repair_route_column(g, hops, t, att->second);
        for (routing::SwitchIdx s = 0; s < g.num_switches(); ++s) {
          sm.update_master_entry(s, lid, column[s]);
        }
      }
      // The released attach LID must not linger in any table.
      if (r->op == TopologyOp::kAttachSwitch && r->subject_lid.valid() &&
          !sm.lids().assigned(r->subject_lid)) {
        for (routing::SwitchIdx s = 0; s < g.num_switches(); ++s) {
          sm.update_master_entry(s, r->subject_lid, kDropPort);
        }
      }
    } else if (r->op == TopologyOp::kDetachSwitch) {
      // The re-plugged subject: route its restored LID everywhere and fill
      // its own table (the takeover sweep computed both against a fabric
      // where it was severed). Re-plugging only *adds* paths, so existing
      // non-drop entries still deliver — fill exactly the kDropPort gaps and
      // the recovery stays byte-identical when the tables were never stale
      // (a master rolling back its own abandoned detach).
      const routing::SwitchIdx me = g.dense(r->subject);
      if (me == routing::kNoSwitch || !r->subject_lid.valid() ||
          !sm.lids().assigned(r->subject_lid)) {
        continue;
      }
      const auto column = repair_route_column(g, hops, me, /*delivery=*/0);
      for (routing::SwitchIdx s = 0; s < g.num_switches(); ++s) {
        if (result.lfts[s].get(r->subject_lid) == kDropPort) {
          sm.update_master_entry(s, r->subject_lid, column[s]);
        }
      }
      for (const auto& target : g.targets) {
        if (result.lfts[me].get(target.lid) != kDropPort) continue;
        const PortNum port = target.sw == me
                                 ? target.port
                                 : repair_port_toward(g, hops, me, target.sw);
        sm.update_master_entry(me, target.lid, port);
      }
    }
    // kRemoveLink rolled back: the restored cable only adds capacity; the
    // routes the takeover sweep computed without it remain valid.
  }
}

}  // namespace

const char* to_string(RecordState state) {
  switch (state) {
    case RecordState::kInFlight:
      return "in-flight";
    case RecordState::kCommitted:
      return "committed";
    case RecordState::kRolledBack:
      return "rolled-back";
  }
  return "?";
}

const char* to_string(TopologyOp op) {
  switch (op) {
    case TopologyOp::kAttachSwitch:
      return "attach-switch";
    case TopologyOp::kDetachSwitch:
      return "detach-switch";
    case TopologyOp::kAddLink:
      return "add-link";
    case TopologyOp::kRemoveLink:
      return "remove-link";
  }
  return "?";
}

std::vector<routing::SwitchIdx> undo_deltas(
    SubnetManager& sm, const std::vector<LftDelta>& deltas) {
  const auto& graph = sm.routing_result().graph;
  std::vector<routing::SwitchIdx> touched;
  std::vector<bool> seen(graph.num_switches(), false);
  for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) {
    const routing::SwitchIdx s = graph.dense(it->switch_node);
    if (s == routing::kNoSwitch) continue;
    sm.update_master_entry(s, it->lid, it->old_port);
    if (!seen[s]) {
      seen[s] = true;
      touched.push_back(s);
    }
  }
  return touched;
}

std::uint64_t restore_source_addresses(SubnetManager& sm,
                                       const MigrationIntent& m,
                                       SmpRouting routing, double& time_us) {
  Fabric& fabric = sm.fabric();
  auto& transport = sm.transport();
  sm.lids().move(fabric, m.vm_lid, m.src_vf, 1);
  if (m.swapped_lid.valid()) sm.lids().move(fabric, m.swapped_lid, m.dst_vf, 1);
  fabric.node(m.src_vf).alias_guid = m.vguid;
  fabric.node(m.dst_vf).alias_guid = m.swap_pair ? m.peer_vguid : kInvalidGuid;
  const auto src_slot = static_cast<PortNum>(m.src_vf_index);
  const auto dst_slot = static_cast<PortNum>(m.dst_vf_index);
  transport.begin_batch();
  transport.send_vf_lid_assign(m.src_pf, src_slot, m.vm_lid, routing);
  transport.send_vf_lid_assign(
      m.dst_pf, dst_slot,
      m.swapped_lid.valid() ? m.swapped_lid : kInvalidLid, routing);
  transport.send_guid_info(m.src_pf, src_slot, m.vguid, routing);
  std::uint64_t smps = 3;
  if (m.swap_pair) {
    // The peer's vGUID moved too; restore it to the destination VF.
    transport.send_guid_info(m.dst_pf, dst_slot, m.peer_vguid, routing);
    ++smps;
  }
  time_us += transport.end_batch();
  return smps;
}

namespace {

/// Replays `deltas` onto the master tables oldest-first (old -> new); the
/// forward counterpart of undo_deltas.
void replay_deltas(SubnetManager& sm, const std::vector<LftDelta>& deltas) {
  const auto& graph = sm.routing_result().graph;
  for (const LftDelta& d : deltas) {
    const routing::SwitchIdx s = graph.dense(d.switch_node);
    if (s == routing::kNoSwitch) continue;
    sm.update_master_entry(s, d.lid, d.new_port);
  }
}

void validate(const MigrationIntent& m) {
  IBVS_REQUIRE(m.vm_lid.valid(), "journal record needs the VM LID");
  IBVS_REQUIRE(m.src_vf != kInvalidNode && m.dst_vf != kInvalidNode,
               "journal record needs both VF nodes");
}

void validate(const TopologyIntent& t) {
  const bool switch_op = t.op == TopologyOp::kAttachSwitch ||
                         t.op == TopologyOp::kDetachSwitch;
  IBVS_REQUIRE(!switch_op || t.subject != kInvalidNode,
               "switch delta needs its subject node");
  IBVS_REQUIRE(!t.cables.empty(), "topology record needs its cable set");
}

/// The node a record must still be able to program to roll forward:
/// kInvalidNode when nothing beyond the master tables is needed.
NodeId must_reach(const MigrationIntent& m) { return m.dst_pf; }
NodeId must_reach(const TopologyIntent& t) {
  // A switch that died mid-attach is rolled back out of the fabric, never
  // committed half-routed.
  return t.op == TopologyOp::kAttachSwitch ? t.subject : kInvalidNode;
}

/// Assigns a switch's management LID and announces it. Directed-route
/// PortInfo: the LID may not be installed anywhere yet.
void assign_switch_lid(SubnetManager& sm, NodeId sw, Lid lid,
                       RecoveryReport& report) {
  auto& transport = sm.transport();
  sm.lids().assign(sm.fabric(), sw, 0, lid);
  transport.begin_batch();
  transport.send_port_info_set(sw, 0, SmpRouting::kDirected);
  report.address_smps += 1;
  report.address_time_us += transport.end_batch();
}

/// Address effects of resolving a migration record; the master tables are
/// replayed by the caller. Forward finishes the LID/vGUID bookkeeping at
/// the destination (its SMPs went out before the crash); back restores and
/// re-announces the addresses at the source if they ever left it.
void migration_effects(SubnetManager& sm, const MigrationIntent& m,
                       bool forward, bool started, RecoveryReport& report,
                       SmpRouting routing) {
  if (!forward) {
    if (started) {
      report.address_smps += restore_source_addresses(
          sm, m, routing, report.address_time_us);
    }
    return;
  }
  Fabric& fabric = sm.fabric();
  sm.lids().move(fabric, m.vm_lid, m.dst_vf, 1);
  if (m.swapped_lid.valid()) sm.lids().move(fabric, m.swapped_lid, m.src_vf, 1);
  fabric.node(m.dst_vf).alias_guid = m.vguid;
  fabric.node(m.src_vf).alias_guid = m.swap_pair ? m.peer_vguid : kInvalidGuid;
}

/// Cabling and subject-LID effects of resolving a topology record: forward
/// finishes the subject's addressing, back un-plugs / re-plugs the recorded
/// cables and restores the subject's LID.
void topology_effects(SubnetManager& sm, const TopologyIntent& t,
                      bool forward, RecoveryReport& report) {
  Fabric& fabric = sm.fabric();
  const bool switch_op = t.op == TopologyOp::kAttachSwitch ||
                         t.op == TopologyOp::kDetachSwitch;
  const bool lid_held = switch_op && t.subject_lid.valid() &&
                        sm.lids().assigned(t.subject_lid) &&
                        sm.lids().owner(t.subject_lid).node == t.subject;
  const bool lid_free = switch_op && t.subject_lid.valid() &&
                        !sm.lids().assigned(t.subject_lid);
  // The subject's LID belongs to it after a committed attach or a
  // rolled-back detach, and nowhere after the other two outcomes.
  const bool subject_keeps_lid =
      forward == (t.op == TopologyOp::kAttachSwitch);
  if (!forward) {
    // Un-plug whatever an attach/add managed to cable before dying, or
    // re-plug exactly what a detach/remove severed; tolerate cables the
    // mutation never reached or that something else (a chaos cut) took
    // down meanwhile.
    for (const CableSpec& c : t.cables) {
      if (t.adds_cables()) {
        const auto peer = fabric.peer(c.a, c.port_a);
        if (peer && peer->first == c.b && peer->second == c.port_b) {
          fabric.disconnect(c.a, c.port_a);
        }
      } else if (!fabric.peer(c.a, c.port_a) && !fabric.peer(c.b, c.port_b)) {
        fabric.connect(c.a, c.port_a, c.b, c.port_b);
      }
    }
    sm.transport().invalidate_topology();
  }
  if (subject_keeps_lid && lid_free) {
    // A committed attach whose crash hit between the mutation and the LID
    // assignment, or a rolled-back detach: (re)address the subject.
    assign_switch_lid(sm, t.subject, t.subject_lid, report);
  } else if (!subject_keeps_lid && lid_held) {
    sm.lids().release(fabric, t.subject_lid);
  }
}

std::string describe(const MigrationIntent& m) {
  return "vm " + std::to_string(m.vm_id);
}
std::string describe(const TopologyIntent& t) { return to_string(t.op); }

}  // namespace

std::uint64_t ReconfigJournal::begin(ReconfigIntent intent) {
  std::visit([](const auto& i) { validate(i); }, intent);
  auto& metrics = JournalMetrics::get();
  (std::holds_alternative<MigrationIntent>(intent) ? metrics.begun
                                                   : metrics.topology_begun)
      .inc();
  truncate_reconciled();
  ReconfigRecord& r = records_.emplace_back();
  r.id = next_id_++;
  r.intent = std::move(intent);
  return r.id;
}

ReconfigRecord* ReconfigJournal::find(std::uint64_t id) {
  for (ReconfigRecord& r : records_) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

const ReconfigRecord* ReconfigJournal::find(std::uint64_t id) const {
  for (const ReconfigRecord& r : records_) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

ReconfigRecord& ReconfigJournal::in_flight_record(std::uint64_t id) {
  ReconfigRecord* r = find(id);
  IBVS_REQUIRE(r != nullptr, "unknown journal record");
  IBVS_REQUIRE(r->state == RecordState::kInFlight,
               "record is no longer in flight");
  return *r;
}

void ReconfigJournal::record_started(std::uint64_t id) {
  in_flight_record(id).started = true;
}

void ReconfigJournal::record_deltas(std::uint64_t id,
                                    std::vector<LftDelta> deltas) {
  in_flight_record(id).deltas = std::move(deltas);
}

void ReconfigJournal::record_topology_lid(std::uint64_t id, Lid lid) {
  auto* t = std::get_if<TopologyIntent>(&in_flight_record(id).intent);
  IBVS_REQUIRE(t != nullptr, "not a topology record");
  t->subject_lid = lid;
}

void ReconfigJournal::commit(std::uint64_t id) {
  in_flight_record(id).state = RecordState::kCommitted;
}

void ReconfigJournal::roll_back(std::uint64_t id) {
  in_flight_record(id).state = RecordState::kRolledBack;
}

std::size_t ReconfigJournal::in_flight() const {
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(), [](const auto& r) {
        return r.state == RecordState::kInFlight;
      }));
}

std::size_t ReconfigJournal::truncate_reconciled() {
  return std::erase_if(records_, [](const ReconfigRecord& r) {
    return r.state != RecordState::kInFlight && r.reconciled;
  });
}

RecoveryReport ReconfigJournal::recover(SubnetManager& sm,
                                        std::size_t max_rounds,
                                        SmpRouting routing) {
  RecoveryReport report;
  report.in_flight = in_flight();
  if (report.in_flight == 0) return report;
  IBVS_REQUIRE(sm.has_routing(),
               "recovery needs master tables (sweep the subnet first)");

  auto span = telemetry::Tracer::global().span(
      "journal.recover",
      {{"in_flight", std::to_string(report.in_flight)}});
  auto& transport = sm.transport();

  // An in-flight topology delta means the cabling the recovering SM swept
  // may already be mid-mutation: adopt the current structure first so dense
  // lookups, reachability and redistribution all see the fabric as cabled
  // right now. Append-stable dense indices make this safe for migration
  // records too.
  const bool topology_in_flight =
      std::any_of(records_.begin(), records_.end(), [](const auto& r) {
        return r.state == RecordState::kInFlight &&
               std::holds_alternative<TopologyIntent>(r.intent);
      });
  if (topology_in_flight) sm.adopt_topology_change();

  std::vector<const TopologyIntent*> rolled_back_topology;
  for (ReconfigRecord& r : records_) {
    if (r.state != RecordState::kInFlight) continue;
    // Roll forward only when the write-ahead marks prove the change got
    // past its first fabric-visible step with the full delta set recorded,
    // AND the node it must reach can still be programmed; everything else
    // is undone. The table replay is a pure master-table fixup —
    // redistribution below turns it into SMPs.
    const NodeId reach =
        std::visit([](const auto& i) { return must_reach(i); }, r.intent);
    const bool forward = r.started && !r.deltas.empty() &&
                         (reach == kInvalidNode ||
                          transport.hops_to(reach).has_value());
    if (forward) {
      replay_deltas(sm, r.deltas);
    } else {
      undo_deltas(sm, r.deltas);
    }
    if (const auto* m = std::get_if<MigrationIntent>(&r.intent)) {
      migration_effects(sm, *m, forward, r.started, report, routing);
    } else {
      const auto& t = std::get<TopologyIntent>(r.intent);
      topology_effects(sm, t, forward, report);
      r.reconciled = true;  // recovery is the only bookkeeper for these
      if (!forward) rolled_back_topology.push_back(&t);
    }
    r.state = forward ? RecordState::kCommitted : RecordState::kRolledBack;
    auto& metrics = JournalMetrics::get();
    (forward ? metrics.replays_forward : metrics.replays_back).inc();
    ++(forward ? report.rolled_forward : report.rolled_back);
    const std::string what =
        std::visit([](const auto& i) { return describe(i); }, r.intent);
    IBVS_INFO("journal") << "record " << r.id << " (" << what << ") rolled "
                         << (forward ? "forward" : "back")
                         << ": " << r.deltas.size() << " deltas replayed";
  }
  // Rolling a topology record back (or forward past a partial mutation) can
  // change the cabling again; re-adopt so redistribution programs exactly
  // the switches that are really there.
  if (topology_in_flight) sm.adopt_topology_change();
  repair_rolled_back_routes(sm, rolled_back_topology);

  // The master tables now describe exactly one consistent outcome per
  // record; push the diffs until the installed fabric agrees. Only a
  // rolled-back topology delta triggers a (column-scoped) recomputation
  // above — the migration paths and topology roll-forward stay PCt-free.
  sm.refresh_targets();
  sm.bump_generation();
  report.redistribution = sm.redistribute(max_rounds, routing);
  span.set_attr("rolled_forward", std::to_string(report.rolled_forward));
  span.set_attr("rolled_back", std::to_string(report.rolled_back));
  span.set_attr("smps", std::to_string(report.redistribution.smps));
  return report;
}

}  // namespace ibvs::sm

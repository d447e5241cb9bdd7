// Write-ahead reconfiguration journal for live migrations and topology
// deltas.
//
// The paper's migration (§V-C, Algorithm 1) rewrites LFT entries on up to n
// switches; a master-SM death mid-batch leaves the fabric half-reconfigured
// with no record of what was in flight. OpenSM solves the analogous problem
// for LID assignments with guid2lid cache files; this journal does the same
// for reconfiguration deltas: before the vSwitch layer moves any address or
// sends any swap/copy SMP it records the full per-switch delta set
// (switch, lid, old_port, new_port), so a recovering SM — the same instance
// after an aborted batch, or a *new* master elected via SmElection — can
// deterministically replay the in-flight record to completion or roll it
// back, then redistribute diffs until the fabric is provably un-mixed.
// A live topology delta (switch attach/detach, link add/remove) is the same
// object — a write-ahead delta set plus a few identities — so both kinds
// share one record type, one API and one recovery rule.
//
// Records are keyed by durable identities only (NodeId, Lid, PortNum — never
// SwitchIdx, which is an artifact of one routing run), and replay is
// idempotent: applying a delta that is already in place marks nothing dirty
// and sends nothing.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "sm/subnet_manager.hpp"

namespace ibvs::sm {

/// One LFT entry rewrite, recorded before it is sent. `switch_node` is the
/// fabric NodeId of the physical switch (durable across SM failovers).
struct LftDelta {
  NodeId switch_node = kInvalidNode;
  Lid lid;
  PortNum old_port = 0;
  PortNum new_port = 0;

  [[nodiscard]] LftDelta inverse() const noexcept {
    return {switch_node, lid, new_port, old_port};
  }
};

enum class RecordState : std::uint8_t {
  kInFlight,    ///< begun, neither committed nor rolled back
  kCommitted,   ///< reconfiguration completed (possibly by replay)
  kRolledBack,  ///< inverse deltas applied, addresses restored
};

[[nodiscard]] const char* to_string(RecordState state);

/// Durable identities of one migration or destination swap. The
/// hypervisor indices are opaque orchestrator-side tags: the SM never
/// interprets them, but carrying them lets the vSwitch layer reconcile its
/// slot bookkeeping with whatever outcome recovery chose.
struct MigrationIntent {
  std::uint32_t vm_id = 0;  ///< orchestrator tag
  Lid vm_lid;
  /// The second LID of the record: the destination VF's prepopulated LID
  /// for a plain migration, or the peer VM's LID when swap_pair is set.
  Lid swapped_lid;
  Guid vguid;
  /// Destination-swap pair: two live VMs trading slots in one record. The
  /// peer's identity rides along so recovery can restore *both* VMs'
  /// addresses (the dst VF holds peer_vguid, not kInvalidGuid, on undo).
  bool swap_pair = false;
  std::uint32_t peer_vm_id = 0;  ///< orchestrator tag
  Guid peer_vguid = kInvalidGuid;
  NodeId src_vf = kInvalidNode;
  NodeId dst_vf = kInvalidNode;
  NodeId src_pf = kInvalidNode;
  NodeId dst_pf = kInvalidNode;
  std::size_t src_hypervisor = 0;  ///< orchestrator tag
  std::size_t dst_hypervisor = 0;  ///< orchestrator tag
  /// VF index on its hypervisor — also the VF slot number on the PF, which
  /// is what the VF LID/GUID SMPs address.
  std::size_t src_vf_index = 0;
  std::size_t dst_vf_index = 0;
};

/// Which structural change a topology record describes.
enum class TopologyOp : std::uint8_t {
  kAttachSwitch,  ///< new switch cabled in, LID assigned, routes grown
  kDetachSwitch,  ///< switch drained, cables severed, routes repaired
  kAddLink,       ///< one new cable between existing switches
  kRemoveLink,    ///< one cable removed, affected routes repaired
};

[[nodiscard]] const char* to_string(TopologyOp op);

/// Durable identities of one topology delta. The cable list carries exact
/// endpoints so a rolled-back detach re-plugs precisely what was severed,
/// and a rolled-back attach unplugs precisely what was added.
struct TopologyIntent {
  TopologyOp op = TopologyOp::kAddLink;
  /// The switch being attached or detached (kInvalidNode for link ops).
  NodeId subject = kInvalidNode;
  /// The subject switch's management LID: assigned on attach, released on
  /// detach, restored verbatim when the delta rolls back.
  Lid subject_lid{};
  /// Cables this delta adds (attach/add_link) or removes
  /// (detach/remove_link).
  std::vector<CableSpec> cables;

  /// Whether the delta plugs cables in (attach/add_link) or pulls them.
  [[nodiscard]] bool adds_cables() const noexcept {
    return op == TopologyOp::kAttachSwitch || op == TopologyOp::kAddLink;
  }
};

using ReconfigIntent = std::variant<MigrationIntent, TopologyIntent>;

/// One reconfiguration — a migration, a destination swap or a topology
/// delta — as the journal keeps it: a common write-ahead header plus the
/// kind's durable identities. Keyed by durable identities only (NodeId,
/// Lid, PortNum — never SwitchIdx).
struct ReconfigRecord {
  std::uint64_t id = 0;
  RecordState state = RecordState::kInFlight;
  /// Write-ahead mark, set *before* the first fabric-visible change: the
  /// address-move SMPs of a migration, the first plug/unplug of a delta.
  bool started = false;
  std::vector<LftDelta> deltas;  ///< the full planned LFT delta set
  /// Set once the record's outcome is folded into every bookkeeper: the
  /// transaction path that committed / rolled it back, the vSwitch layer's
  /// reconcile_with_journal for migrations recovery resolved, or recovery
  /// itself for topology deltas (it is their only bookkeeper).
  bool reconciled = false;
  ReconfigIntent intent;
};

/// What ReconfigJournal::recover() did to the in-flight records.
struct RecoveryReport {
  std::size_t in_flight = 0;       ///< records that needed a decision
  std::size_t rolled_forward = 0;  ///< replayed to completion
  std::size_t rolled_back = 0;     ///< undone via inverse deltas
  std::uint64_t address_smps = 0;  ///< VF LID/GUID SMPs sent restoring
  double address_time_us = 0.0;    ///< batch makespan of those restores
  SubnetManager::ReconvergeReport redistribution;
};

/// Replays the inverse of `deltas` onto the master tables newest-first,
/// which restores the exact bytes in place before they were applied.
/// Deltas for switches missing from the routing graph are skipped. Returns
/// the dense indices of the switches touched, in first-touch order — the
/// order callers push their dirty blocks in.
std::vector<routing::SwitchIdx> undo_deltas(
    SubnetManager& sm, const std::vector<LftDelta>& deltas);

/// Puts a migration's addresses back at the source — LID owners and vGUIDs
/// (a swap pair's peer back at the destination) — and re-announces them
/// with the VF LID/GUID SMPs, the reverse of §V-C step (a), priced as one
/// batch whose makespan is added to `time_us`. Returns the SMPs sent.
std::uint64_t restore_source_addresses(SubnetManager& sm,
                                       const MigrationIntent& m,
                                       SmpRouting routing, double& time_us);

class ReconfigJournal {
 public:
  /// Opens a record; assigns and returns its id. State starts kInFlight.
  /// Terminal records that are already reconciled are dropped first, so
  /// the journal holds at most the in-flight records plus the resolved
  /// ones still awaiting reconcile_with_journal().
  std::uint64_t begin(ReconfigIntent intent);

  /// Write-ahead mark: record `id`'s first fabric-visible change (address
  /// SMPs of a migration, cabling of a topology delta) is about to happen.
  void record_started(std::uint64_t id);

  /// Write-ahead mark: the LFT delta set for record `id`, recorded before
  /// any LFT SMP goes out.
  void record_deltas(std::uint64_t id, std::vector<LftDelta> deltas);

  /// Write-ahead mark: the subject's LID for topology record `id`, recorded
  /// before the PortInfo SMP goes out (an attach learns the LID only
  /// mid-flight).
  void record_topology_lid(std::uint64_t id, Lid lid);

  void commit(std::uint64_t id);
  void roll_back(std::uint64_t id);

  [[nodiscard]] ReconfigRecord* find(std::uint64_t id);
  [[nodiscard]] const ReconfigRecord* find(std::uint64_t id) const;
  /// Every retained record, in id order.
  [[nodiscard]] const std::vector<ReconfigRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t in_flight() const;

  /// Drops terminal records whose outcome is reconciled. Returns how many
  /// were dropped. begin() runs it, so callers rarely need to.
  std::size_t truncate_reconciled();

  /// Crash-consistent replay, run by whichever SM owns the subnet now (a
  /// standby promoted by SmElection after the master died mid-batch, or the
  /// surviving instance after an aborted transaction). Resolves every
  /// in-flight record in id order by one rule: roll forward iff the record
  /// started, its delta set was recorded, and the node it must reach — the
  /// destination PF of a migration, the subject of an attach — can still be
  /// programmed. Forward re-applies the deltas to the master tables and
  /// finishes the addressing; back applies the inverse deltas and undoes the
  /// address move (VF LID/GUID SMPs priced on the batch clock) or the
  /// cabling. Then redistributes master/installed diffs until convergence.
  /// Only a rolled-back topology delta recomputes (affected) route columns;
  /// migrations and topology roll-forward stay PCt-free (§VI). Idempotent —
  /// a second call finds nothing in flight and sends nothing.
  RecoveryReport recover(SubnetManager& sm, std::size_t max_rounds = 64,
                         SmpRouting routing = SmpRouting::kLidRouted);

 private:
  ReconfigRecord& in_flight_record(std::uint64_t id);

  std::vector<ReconfigRecord> records_;
  std::uint64_t next_id_ = 1;
};

}  // namespace ibvs::sm

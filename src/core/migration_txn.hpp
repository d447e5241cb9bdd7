// The per-migration transaction state machine.
//
// Algorithm 1 (§V-C) as an abortable, journaled transaction instead of an
// assumed-atomic call:
//
//   kPrepared ──> kDetached ──> kCopied ──> kReconfiguring ──> kAttached
//       │             │            │              │                │
//       └─────────────┴────────────┴──────┬───────┴────────────────┤
//                                         v                        v
//                                   kRolledBack              kCommitted
//
// The vSwitch layer owns the IB-visible phases (address move, LFT updates,
// rollback); the orchestrator owns the wall-clock phases (detach, memory
// copy, attach) plus retry/backoff/re-placement policy. Every transaction
// is backed by a write-ahead record in the SM's ReconfigJournal, so a crash
// at any arrow above is recoverable to exactly one of the two terminal
// states.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/vswitch.hpp"
#include "sm/reconfig_journal.hpp"

namespace ibvs::core {

enum class TxnState : std::uint8_t {
  kPrepared,       ///< validated, journal record opened, nothing sent
  kDetached,       ///< VF detached at the source (orchestrator step 1)
  kCopied,         ///< memory pre-copy done (orchestrator step 2)
  kReconfiguring,  ///< addresses moved and/or LFT updates in flight
  kAttached,       ///< VF attach at the destination initiated
  kCommitted,      ///< bookkeeping final; journal record committed
  kRolledBack,     ///< inverse deltas applied, VF re-attached at source
};

[[nodiscard]] std::string to_string(TxnState state);

/// One in-flight migration. Created by VSwitchFabric::begin_migration and
/// threaded through the phase calls; the struct is the unit the chaos
/// harness kills against and the journal recovers.
struct MigrationTxn {
  std::uint64_t id = 0;  ///< journal record id
  TxnState state = TxnState::kPrepared;
  /// The identities the journal record holds. For a destination swap
  /// (begin_swap, intent.swap_pair) the transaction moves *two* live VMs,
  /// trading their slots with one fused LFT delta set: src_* then describes
  /// the VM's slot and dst_* the peer's.
  sm::MigrationIntent intent;
  MigrationOptions options;
  bool addresses_moved = false;
  bool intra_leaf = false;
  std::size_t minimal_set_size = 0;
  ReconfigStats stats;
  /// Deltas actually applied to the master tables so far, in application
  /// order (includes §VI-C drain writes). Rollback replays their inverses
  /// in reverse, which restores the pre-transaction bytes exactly.
  std::vector<sm::LftDelta> applied;
  std::uint64_t rollback_smps = 0;  ///< LFT SMPs the rollback cost
  double rollback_time_us = 0.0;

  [[nodiscard]] bool terminal() const noexcept {
    return state == TxnState::kCommitted || state == TxnState::kRolledBack;
  }
};

}  // namespace ibvs::core

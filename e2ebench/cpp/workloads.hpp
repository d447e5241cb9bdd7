// The benchmark's three workloads, each a closed loop of one client thread
// driving the library's public API: one op starts only after the previous
// one finished, the way one orchestrator drives one master SM.
//
//   bringup          — cold VSwitchFabric::boot() of a fresh prepopulated
//                      paper tree (routing PCt + full LFT distribution),
//   vm-churn         — create / destroy / migrate / swap on the largest
//                      prepopulated tree (PCt-free swap reconfiguration),
//   rack-maintenance — PerfMgr poll, leaf evacuation, uplink remove/add,
//                      refill and light sweep on a dynamic-LID tree.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/virtualizer.hpp"
#include "core/vswitch.hpp"
#include "harness.hpp"
#include "sm/subnet_manager.hpp"
#include "topology/fat_tree.hpp"

namespace e2e {

/// One virtualized paper tree with its SM, built from the public API.
struct Subnet {
  ibvs::Fabric fabric;
  ibvs::topology::Built built;
  ibvs::NodeId sm_leaf = ibvs::kInvalidNode;  ///< leaf the SM node hangs off
  std::unique_ptr<ibvs::sm::SubnetManager> sm;
  std::unique_ptr<ibvs::core::VSwitchFabric> vsf;
};

struct WorkloadParams {
  ibvs::topology::PaperFatTree tree = ibvs::topology::PaperFatTree::k5832;
  std::uint64_t seed = 1;
  std::size_t ops = 1;     ///< fixed, seeded op count of the timed loop
  std::size_t setups = 3;  ///< full set-ups; setup_s is their median
  /// vm-churn: VMs populated before the loop (the steady-state level).
  std::size_t churn_vms = 0;
  /// Traced run: benchmark spans + the library Tracer on every other op,
  /// default-pool versus pool-size-1 probes after the loop, per-layer
  /// metrics instead of the end-to-end ones.
  bool trace = false;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_path;
  /// Test hook, called before each timed op with the op index (the
  /// self-test attaches a lossy fault model to one early boot here).
  std::function<void(Subnet&, std::size_t)> before_op;
  /// Test hook, called on the final state right before the closing checks
  /// (the self-test pushes a wrong LFT entry here to prove the gates trip).
  std::function<void(Subnet&)> before_final_check;
};

struct WorkloadRun {
  Result result;
  Gates gates;
  Digest digest;
};

WorkloadRun run_bringup(const WorkloadParams& params);
WorkloadRun run_vm_churn(const WorkloadParams& params);
WorkloadRun run_rack_maintenance(const WorkloadParams& params);

}  // namespace e2e

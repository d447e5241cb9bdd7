// Topology delta vs heavy sweep: expanding a running fat-tree by one pod.
//
// The paper's reconfiguration argument (§VI) is that a vSwitch event should
// cost a handful of targeted SMPs, not a subnet sweep. The same argument
// applies to *structural* growth: cabling new leaf switches into a running
// fabric. Twin fabrics run the same expansion two ways:
//
//   delta — one journaled TopologyTxn per new leaf: no discovery, no
//           routing run, a BFS-column plan applied through dirty-block
//           pushes and verified by diff-redistribution,
//   sweep — cable everything, then react the way a trap-driven OpenSM
//           does: full discovery, LID assignment, route recomputation
//           (PCt) and a diff distribution.
//
// Reported per paper tree: SMPs (the delta column separates LFT writes,
// addressing and the verification tail; the sweep column separates
// discovery from distribution) and convergence time — both sides measured
// as the SM transport's simulated clock across their whole reaction, the
// sweep additionally paying its measured PCt. The acceptance bar is delta
// < sweep on BOTH total SMPs and time. `--json-out <file>` writes the
// rows as JSON (schema "topology_delta") for the bench-smoke CI gate.
#include <benchmark/benchmark.h>

#include <sstream>
#include <vector>

#include "bench/common.hpp"
#include "inject/checker.hpp"
#include "sm/topology_txn.hpp"

namespace {

using namespace ibvs;

constexpr std::size_t kHyps = 18;
constexpr std::size_t kPodLeaves = 2;  ///< leaves one expansion adds
constexpr std::size_t kPodUplinks = 4; ///< uplink cables per new leaf (max)

/// A booted, virtualized subnet on the requested paper tree (Min-Hop: the
/// expansion changes the topology mid-run, which the fat-tree engine does
/// not promise to survive).
bench::VirtualBench make_tree(topology::PaperFatTree which) {
  bench::VirtualBench b;
  b.built = topology::build_paper_fat_tree(b.fabric, which);
  std::vector<topology::HostSlot> spread;
  const std::size_t per_leaf =
      b.built.host_slots.size() / b.built.leaves.size();
  for (std::size_t i = 0; spread.size() < kHyps + 1; ++i) {
    const std::size_t leaf = i / 2;
    const std::size_t idx = leaf * per_leaf + (i % 2);
    if (idx >= b.built.host_slots.size()) break;
    spread.push_back(b.built.host_slots[idx]);
  }
  b.hyps = core::attach_hypervisors(b.fabric, spread, /*num_vfs=*/2, kHyps);
  const auto& slot = spread.at(kHyps);
  const NodeId sm_node = b.fabric.add_ca("sm-node");
  b.fabric.connect(sm_node, 1, slot.leaf, slot.port);
  b.sm = std::make_unique<sm::SubnetManager>(
      b.fabric, sm_node, routing::make_engine(routing::EngineKind::kMinHop));
  b.vsf = std::make_unique<core::VSwitchFabric>(
      *b.sm, b.hyps, core::LidScheme::kDynamic);
  b.vsf->boot();
  return b;
}

/// The pod's cabling, deterministic across twin fabrics: each new leaf
/// uplinks to the first `kPodUplinks` switches that still have a free port,
/// spines (then cores) preferred over leaves.
std::vector<CableSpec> pod_cables(const Fabric& fabric,
                                  const topology::Built& built, NodeId leaf) {
  std::vector<NodeId> prefer;
  prefer.insert(prefer.end(), built.spines.begin(), built.spines.end());
  prefer.insert(prefer.end(), built.cores.begin(), built.cores.end());
  prefer.insert(prefer.end(), built.leaves.begin(), built.leaves.end());
  std::vector<CableSpec> cables;
  PortNum next = 1;
  for (const NodeId peer : prefer) {
    if (cables.size() >= kPodUplinks) break;
    const auto port = fabric.free_port(peer);
    if (!port) continue;
    cables.push_back({leaf, next++, peer, *port});
  }
  return cables;
}

struct Row {
  std::string topology;
  std::size_t switches = 0;      ///< before the expansion
  std::size_t cables = 0;        ///< uplinks the pod added
  std::uint64_t delta_lft_smps = 0;
  std::uint64_t delta_addr_smps = 0;
  std::uint64_t delta_verify_smps = 0;
  double delta_time_us = 0.0;    ///< transport clock across both txns
  std::size_t delta_switches_touched = 0;
  std::uint64_t sweep_discovery_smps = 0;
  std::uint64_t sweep_lft_smps = 0;
  double sweep_time_us = 0.0;    ///< transport clock across the sweep + PCt
  bool clean = true;             ///< both twins checker-clean

  [[nodiscard]] std::uint64_t delta_smps() const {
    return delta_lft_smps + delta_addr_smps + delta_verify_smps;
  }
  [[nodiscard]] std::uint64_t sweep_smps() const {
    return sweep_discovery_smps + sweep_lft_smps;
  }
};

Row run_expansion(topology::PaperFatTree which) {
  Row row;
  row.topology = topology::to_string(which);

  // Delta twin: one journaled transaction per new leaf.
  {
    auto b = make_tree(which);
    row.switches = b.fabric.switch_ids().size();
    sm::TopologyTxnManager topo(*b.sm, b.vsf->journal());
    const double clock_before = b.sm->transport().total_time_us();
    for (std::size_t i = 0; i < kPodLeaves; ++i) {
      const NodeId leaf =
          b.fabric.add_switch("pod-leaf" + std::to_string(i), kPodUplinks + 8);
      const auto cables = pod_cables(b.fabric, b.built, leaf);
      row.cables += cables.size();
      const auto txn = topo.attach_switch(leaf, cables);
      row.delta_lft_smps += txn.stats.lft_smps;
      row.delta_addr_smps += txn.stats.addressing_smps;
      row.delta_verify_smps += txn.stats.verify.smps;
      row.delta_switches_touched =
          std::max(row.delta_switches_touched, txn.stats.switches_updated);
    }
    row.delta_time_us = b.sm->transport().total_time_us() - clock_before;
    const inject::FabricChecker checker(*b.sm);
    row.clean = checker.check(b.vsf.get()).clean() && row.clean;
  }

  // Sweep twin: identical cabling, then the trap-driven heavy sweep.
  {
    auto b = make_tree(which);
    for (std::size_t i = 0; i < kPodLeaves; ++i) {
      const NodeId leaf =
          b.fabric.add_switch("pod-leaf" + std::to_string(i), kPodUplinks + 8);
      for (const CableSpec& c : pod_cables(b.fabric, b.built, leaf)) {
        b.fabric.connect(c.a, c.port_a, c.b, c.port_b);
      }
    }
    b.sm->transport().invalidate_topology();
    const double clock_before = b.sm->transport().total_time_us();
    const auto sweep = b.sm->full_sweep();
    row.sweep_discovery_smps = sweep.discovery.smps;
    row.sweep_lft_smps = sweep.distribution.smps;
    row.sweep_time_us = (b.sm->transport().total_time_us() - clock_before) +
                        sweep.path_computation_seconds * 1e6;
    const inject::FabricChecker checker(*b.sm);
    row.clean = checker.check(b.vsf.get()).clean() && row.clean;
  }
  return row;
}

void print_table(const std::optional<std::string>& json_out) {
  std::vector<Row> rows;
  for (const auto which : bench::selected_paper_trees()) {
    rows.push_back(run_expansion(which));
  }

  std::printf(
      "\nPod expansion (%zu new leaves, up to %zu uplinks each): journaled "
      "topology deltas vs trap-driven heavy sweep\n",
      kPodLeaves, kPodUplinks);
  std::printf("%-28s %4s %6s %9s %9s %10s %12s %10s %9s %12s %8s\n", "tree",
              "sw", "cables", "delta_lft", "delta_smp", "delta_us",
              "sweep_disc", "sweep_lft", "sweep_smp", "sweep_us", "save");
  bench::rule(128);
  for (const auto& r : rows) {
    const double save =
        r.sweep_smps() > 0
            ? 100.0 * (1.0 - static_cast<double>(r.delta_smps()) /
                                 static_cast<double>(r.sweep_smps()))
            : 0.0;
    std::printf(
        "%-28s %4zu %6zu %9llu %9llu %10.1f %12llu %10llu %9llu %12.1f "
        "%7.1f%%%s\n",
        r.topology.c_str(), r.switches, r.cables,
        static_cast<unsigned long long>(r.delta_lft_smps),
        static_cast<unsigned long long>(r.delta_smps()), r.delta_time_us,
        static_cast<unsigned long long>(r.sweep_discovery_smps),
        static_cast<unsigned long long>(r.sweep_lft_smps),
        static_cast<unsigned long long>(r.sweep_smps()), r.sweep_time_us,
        save, r.clean ? "" : "  (!clean)");
  }
  bench::rule(128);
  std::printf(
      "The delta pays only the new columns plus one PortInfo per leaf and "
      "verifies with a zero-send round;\nthe sweep re-walks every node "
      "(sweep_disc) and recomputes every route before it can distribute.\n"
      "Times are the SM transport's simulated clock over each reaction; "
      "the sweep adds its measured\npath-computation cost (PCt).\n\n");

  if (json_out) {
    std::ostringstream os;
    os << "{\n  \"bench\": \"topology_delta\",\n  \"schema_version\": 1,\n"
       << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      os << "    {\"topology\": \"" << r.topology
         << "\", \"switches\": " << r.switches << ", \"cables\": " << r.cables
         << ", \"delta_lft_smps\": " << r.delta_lft_smps
         << ", \"delta_addressing_smps\": " << r.delta_addr_smps
         << ", \"delta_verify_smps\": " << r.delta_verify_smps
         << ", \"delta_smps\": " << r.delta_smps()
         << ", \"delta_time_us\": " << r.delta_time_us
         << ", \"delta_switches_touched\": " << r.delta_switches_touched
         << ", \"sweep_discovery_smps\": " << r.sweep_discovery_smps
         << ", \"sweep_lft_smps\": " << r.sweep_lft_smps
         << ", \"sweep_smps\": " << r.sweep_smps()
         << ", \"sweep_time_us\": " << r.sweep_time_us
         << ", \"clean\": " << (r.clean ? "true" : "false") << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    bench::dump_json(json_out, os.str(), "topology delta rows");
  }
}

/// Steady-state cost of one attach+detach cycle on the 324-node tree: each
/// iteration cables a fresh leaf in through a transaction and detaches it
/// again (both committed, checker-clean by the tests).
void BM_AttachDetachCycle(benchmark::State& state) {
  auto b = make_tree(topology::PaperFatTree::k324);
  sm::TopologyTxnManager topo(*b.sm, b.vsf->journal());
  const NodeId leaf = b.fabric.add_switch("cycle-leaf", kPodUplinks + 8);
  for (auto _ : state) {
    const auto cables = pod_cables(b.fabric, b.built, leaf);
    const auto in = topo.attach_switch(leaf, cables);
    const auto out = topo.detach_switch(leaf);
    benchmark::DoNotOptimize(in.stats.lft_smps + out.stats.lft_smps);
  }
}
BENCHMARK(BM_AttachDetachCycle)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto metrics_out = ibvs::bench::consume_metrics_out(argc, argv);
  const auto trace_out = ibvs::bench::consume_trace_out(argc, argv);
  const auto json_out =
      ibvs::bench::consume_flag_value(argc, argv, "--json-out");
  ibvs::bench::consume_threads(argc, argv);
  print_table(json_out);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ibvs::bench::dump_metrics(metrics_out);
  ibvs::bench::dump_trace(trace_out);
  return 0;
}

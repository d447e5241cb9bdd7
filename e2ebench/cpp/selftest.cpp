// Self-test of the benchmark itself, on the 324-node paper tree with a
// handful of ops: the statistics rules, failure accounting, the
// determinism digest across pool sizes, and correctness gates that must
// trip when a wrong LFT entry is pushed to a switch or when an early boot
// needed an SMP retry.
#include "selftest.hpp"

#include <atomic>
#include <cstdio>
#include <string>

#include "fabric/fault.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using ibvs::topology::PaperFatTree;

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++total_;
    if (!ok) {
      ++failed_;
      std::printf("self-test FAILED: %s\n", what.c_str());
    }
  }
  [[nodiscard]] int exit_code() const {
    std::printf("self-test: %d/%d checks passed\n", total_ - failed_, total_);
    return failed_ == 0 ? 0 : 1;
  }

 private:
  int total_ = 0;
  int failed_ = 0;
};

double metric(const Result& result, const std::string& name) {
  for (const auto& m : result.metrics) {
    if (m.name == name) return m.value;
  }
  return -1.0;
}

void test_tail_rule(Checks& checks) {
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  Tail tail;
  checks.expect(!tail_of(v, tail), "10 samples leave no tail percentile");
  v.push_back(11);
  checks.expect(tail_of(v, tail) && tail.value == 1.0 && tail.beyond == 10,
                "11 samples: the tail is the minimum, 10 beyond");
  v.clear();
  for (int i = 100; i >= 1; --i) v.push_back(i);  // order must not matter
  checks.expect(tail_of(v, tail) && tail.value == 90.0 &&
                    tail.percentile == 90.0 && tail.samples == 100 &&
                    tail.beyond == 10,
                "100 samples: p90 with exactly 10 samples beyond");
  checks.expect(value_at_rank(v, 89) == 90.0, "rank lookup on another series");
  // A stall of 20 slow ops in one slice of a long run leaves its tail alone.
  std::vector<double> wall(kTailSlices * kMinSliceOps, 1.0);
  for (std::size_t i = 0; i < 20; ++i) wall[2 * kMinSliceOps + 7 + i] = 100.0;
  RunTail run;
  checks.expect(run_tail(wall, wall, run) && run.slices == kTailSlices &&
                    run.wall.value == 1.0 && run.sim == 1.0 &&
                    run.wall.samples == kMinSliceOps,
                "a long run's tail is the median over its slices");
  wall.pop_back();
  checks.expect(run_tail(wall, wall, run) && run.slices == 1 &&
                    run.wall.value == 100.0,
                "a shorter run's tail is taken over the whole run");
  checks.expect(median({3.0, 1.0, 2.0}) == 2.0 &&
                    median({4.0, 1.0, 2.0, 3.0}) == 2.5,
                "median of odd and even counts");
}

void test_failure_accounting(Checks& checks) {
  std::vector<OpSample> ops(40);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].wall_ms = 1.0 + static_cast<double>(i);
    ops[i].sim_us = 2.0;
    ops[i].smps = 3;
    ops[i].failed = i % 8 == 0;  // 5 of 40
  }
  Result result;
  add_end_to_end(result, ops, 2.0, 0.5);
  checks.expect(result.attempted == 40 && result.failed == 5,
                "attempted and failed op counts");
  checks.expect(metric(result, "completed_op_ratio") == 35.0 / 40.0,
                "completed_op_ratio counts failed ops against attempts");
  checks.expect(metric(result, "ops_per_s") == 20.0, "ops per loop second");
  checks.expect(metric(result, "smps_per_op") == 3.0, "mean SMPs per op");
  checks.expect(metric(result, "op_wall_tail_ms") == 30.0,
                "wall tail at rank N-11");
}

WorkloadParams small(std::uint64_t seed, std::size_t ops) {
  WorkloadParams p;
  p.tree = PaperFatTree::k324;
  p.seed = seed;
  p.ops = ops;
  p.setups = 1;
  p.churn_vms = 120;
  return p;
}

using Runner = WorkloadRun (*)(const WorkloadParams&);

void test_determinism(Checks& checks, const char* name, Runner runner,
                      std::size_t ops) {
  const auto first = runner(small(7, ops));
  const auto again = runner(small(7, ops));
  ibvs::ThreadPool::set_global_threads(1);
  const auto serial = runner(small(7, ops));
  ibvs::ThreadPool::set_global_threads(0);
  const auto other = runner(small(8, ops));
  const std::string w = name;
  checks.expect(first.gates.passed() && again.gates.passed() &&
                    serial.gates.passed(),
                w + ": every gate passes on a healthy run");
  checks.expect(first.result.failed == 0, w + ": no failed ops");
  checks.expect(first.digest.value() == again.digest.value(),
                w + ": digest repeats for one seed");
  checks.expect(first.digest.value() == serial.digest.value(),
                w + ": digest equal at pool size 1 and default");
  checks.expect(first.digest.value() != other.digest.value(),
                w + ": another seed gives another op stream");
}

void test_traced_run(Checks& checks) {
  auto p = small(7, 4);
  p.trace = true;
  const auto traced = run_rack_maintenance(p);
  p.trace = false;
  const auto plain = run_rack_maintenance(p);
  checks.expect(traced.gates.passed() && traced.result.attempted == 4,
                "a traced run counts its ops and passes its gates");
  checks.expect(traced.digest.value() == plain.digest.value(),
                "tracing leaves the op stream unchanged");
  checks.expect(metric(traced.result, "cloud.moves_per_plan") > 0.0 &&
                    metric(traced.result, "perf.sweep_mads") > 0.0 &&
                    metric(traced.result, "ops_per_s") < 0.0,
                "a traced run reports per-layer metrics only");
}

void test_gate_trips(Checks& checks) {
  auto p = small(7, 20);
  p.before_final_check = [](Subnet& net) {
    // Point one VM's LID at the wrong port of the leaf that delivers it.
    auto& sm = *net.sm;
    const auto& vsf = *net.vsf;
    const ibvs::core::VmHandle vm{vsf.active_vm_ids().front()};
    const ibvs::Lid lid = vsf.vm(vm).lid;
    const auto attach = net.fabric.physical_attachment(vsf.vm_node(vm));
    const auto& routing = sm.routing_result();
    const auto s = routing.graph.dense(attach->first);
    const std::size_t ports = net.fabric.node(attach->first).num_ports();
    const auto wrong =
        static_cast<ibvs::PortNum>(routing.lfts[s].get(lid) % ports + 1);
    sm.update_master_entry(s, lid, wrong);
    sm.push_dirty_blocks(s, ibvs::SmpRouting::kDirected);
  };
  const auto run = run_vm_churn(p);
  checks.expect(!run.gates.passed(),
                "a wrong LFT entry pushed to a switch fails the checker gate");
}

/// Loses the first MAD traversal it is asked about and nothing after, so
/// the transport resends exactly once.
class DropFirst : public ibvs::fabric::LinkFaultModel {
 public:
  bool drop_on_link(ibvs::NodeId, ibvs::PortNum, ibvs::NodeId,
                    ibvs::PortNum) override {
    return !dropped_.exchange(true);
  }
  double jitter_us(ibvs::NodeId, ibvs::PortNum, ibvs::NodeId,
                   ibvs::PortNum) override {
    return 0.0;
  }

 private:
  std::atomic<bool> dropped_{false};
};

void test_early_retry_trips(Checks& checks) {
  DropFirst fault;
  auto p = small(7, 3);
  p.before_op = [&](Subnet& net, std::size_t op) {
    if (op == 0) net.sm->transport().set_fault_model(&fault);
  };
  const auto run = run_bringup(p);
  bool named = false;
  for (const auto& failure : run.gates.failures()) {
    named = named || failure.rfind("op 0:", 0) == 0;
  }
  checks.expect(!run.gates.passed() && named,
                "a retry in the first of three boots fails the transport gate");
}

}  // namespace

int run_self_test() {
  Checks checks;
  test_tail_rule(checks);
  test_failure_accounting(checks);
  test_determinism(checks, "bringup", run_bringup, 3);
  test_determinism(checks, "vm-churn", run_vm_churn, 60);
  test_determinism(checks, "rack-maintenance", run_rack_maintenance, 3);
  test_traced_run(checks);
  test_gate_trips(checks);
  test_early_retry_trips(checks);
  return checks.exit_code();
}

}  // namespace e2e

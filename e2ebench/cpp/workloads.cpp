#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>
#include <unordered_map>

#include "cloud/orchestrator.hpp"
#include "cloud/planner.hpp"
#include "inject/checker.hpp"
#include "perf/perf_mgr.hpp"
#include "routing/engine.hpp"
#include "sm/topology_txn.hpp"
#include "telemetry/trace.hpp"
#include "util/thread_pool.hpp"

namespace e2e {
namespace {

using namespace ibvs;

// --- Per-layer metric catalogue ------------------------------------------

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run prints, in print order. Layers a
/// workload does not exercise report 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"routing.pct_ms", "ms"},
    {"routing.pct_pool_ms", "ms"},
    {"routing.pct_t1_ms", "ms"},
    {"sm.boot_rest_ms", "ms"},
    {"sm.boot_lft_smps", "count"},
    {"sm.boot_sim_us", "us"},
    {"sm.refresh_targets_ms", "ms"},
    {"sm.light_sweep_ms", "ms"},
    {"sm.light_sweep_pool_ms", "ms"},
    {"sm.light_sweep_t1_ms", "ms"},
    {"sm.topology_txn_ms", "ms"},
    {"sm.topology_lft_smps", "count"},
    {"sm.topology_verify_rounds", "count"},
    {"sm.topology_switches_updated", "count"},
    {"core.create_vm_ms", "ms"},
    {"core.migrate_vm_ms", "ms"},
    {"core.swap_vms_ms", "ms"},
    {"core.destroy_vm_ms", "ms"},
    {"core.migrate_switches_updated", "count"},
    {"core.migrate_lft_smps", "count"},
    {"core.migrate_sim_us", "us"},
    {"fabric.smps.lft_block_writes", "count"},
    {"fabric.smps.discovery", "count"},
    {"fabric.smps.port_info", "count"},
    {"fabric.smps.guid_info", "count"},
    {"fabric.smps.vf_lid_assign", "count"},
    {"fabric.smps.perf_mgmt", "count"},
    {"fabric.lid_routed_share", "ratio"},
    {"fabric.retries", "count"},
    {"fabric.undeliverable", "count"},
    {"inject.check_ms", "ms"},
    {"inject.check_pool_ms", "ms"},
    {"inject.check_t1_ms", "ms"},
    {"inject.paths_traced", "count"},
    {"perf.sweep_ms", "ms"},
    {"perf.sweep_mads", "count"},
    {"cloud.plan_ms", "ms"},
    {"cloud.plan_pool_ms", "ms"},
    {"cloud.plan_t1_ms", "ms"},
    {"cloud.execute_ms", "ms"},
    {"cloud.moves_per_plan", "count"},
    {"cloud.batches_per_plan", "count"},
    {"cloud.commit_ratio", "ratio"},
    {"cloud.replans", "count"},
    {"topology.build_ms", "ms"},
    {"telemetry.tracing_overhead_pct", "%"},
    {"bench.self_ms_per_op", "ms"},
    {"sm.self_ms_per_op", "ms"},
    {"core.self_ms_per_op", "ms"},
    {"cloud.self_ms_per_op", "ms"},
    {"inject.self_ms_per_op", "ms"},
    {"perf.self_ms_per_op", "ms"},
    {"topology.self_ms_per_op", "ms"},
};

/// Span layers whose self time is reported per op.
constexpr const char* kSelfLayers[] = {"bench", "sm",     "core",    "cloud",
                                       "inject", "perf", "topology"};

class LayerTable {
 public:
  void set(const std::string& name, double value) {
    const bool known =
        std::any_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                    [&](const LayerMetric& m) { return name == m.name; });
    if (!known) {
      std::fprintf(stderr, "internal error: unknown layer metric %s\n",
                   name.c_str());
      std::abort();
    }
    values_[name] = value;
  }
  void emit(Result& result) const {
    for (const auto& m : kLayerMetrics) {
      const auto it = values_.find(m.name);
      result.add(m.name, it == values_.end() ? 0.0 : it->second, m.unit);
    }
  }

 private:
  std::map<std::string, double> values_;
};

// --- Shared plumbing ------------------------------------------------------

/// Where the SM node sits: a host slot drawn from the seed, or the first.
enum class SmSlot { kSeeded, kFirst };

/// Paper tree with `vfs` VFs on every host slot but `absent_hosts + 1`: one
/// slot hosts the SM node, the others stay empty (hosts powered off); the
/// empty ones are drawn from `rng`.
std::unique_ptr<Subnet> build_subnet(topology::PaperFatTree tree,
                                     std::size_t vfs, core::LidScheme scheme,
                                     Rng& rng, SmSlot sm = SmSlot::kSeeded,
                                     std::size_t absent_hosts = 0) {
  auto net = std::make_unique<Subnet>();
  net->built = topology::build_paper_fat_tree(net->fabric, tree);
  auto slots = net->built.host_slots;
  const std::size_t sm_slot =
      sm == SmSlot::kSeeded ? rng.below(slots.size()) : 0;
  const topology::HostSlot sm_at = slots[sm_slot];
  slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(sm_slot));
  for (std::size_t i = 0; i < absent_hosts; ++i) {
    slots.erase(slots.begin() +
                static_cast<std::ptrdiff_t>(rng.below(slots.size())));
  }
  auto hyps = core::attach_hypervisors(net->fabric, slots, vfs);
  const NodeId sm_node = net->fabric.add_ca("sm-node");
  net->fabric.connect(sm_node, 1, sm_at.leaf, sm_at.port);
  net->sm_leaf = sm_at.leaf;
  net->sm = std::make_unique<sm::SubnetManager>(
      net->fabric, sm_node,
      routing::make_engine(routing::EngineKind::kFatTree));
  net->vsf = std::make_unique<core::VSwitchFabric>(*net->sm, std::move(hyps),
                                                   scheme);
  return net;
}

/// Hands pages freed by a torn-down fabric back to the OS, so peak RSS
/// measures the live fabric rather than what the allocator kept from the
/// previous one (pool threads allocate from their own arenas).
void release_freed_memory() { malloc_trim(0); }

/// Field-wise a - b of monotone counters.
SmpCounters counters_delta(const SmpCounters& a, const SmpCounters& b) {
  SmpCounters d;
  d.total = a.total - b.total;
  d.lft_block_writes = a.lft_block_writes - b.lft_block_writes;
  d.mft_block_writes = a.mft_block_writes - b.mft_block_writes;
  d.port_info = a.port_info - b.port_info;
  d.guid_info = a.guid_info - b.guid_info;
  d.vf_lid_assign = a.vf_lid_assign - b.vf_lid_assign;
  d.discovery = a.discovery - b.discovery;
  d.perf_mgmt = a.perf_mgmt - b.perf_mgmt;
  d.directed = a.directed - b.directed;
  d.lid_routed = a.lid_routed - b.lid_routed;
  d.retries = a.retries - b.retries;
  d.timeouts = a.timeouts - b.timeouts;
  d.undeliverable = a.undeliverable - b.undeliverable;
  return d;
}

/// Transport state at an op boundary; two of them give the op's SMPs and
/// simulated time.
struct Snap {
  SmpCounters counters;
  double sim_us = 0.0;
};

Snap snap(Subnet& net) {
  auto& transport = net.sm->transport();
  return {transport.counters(), transport.total_time_us()};
}

/// No fault model is attached, so every SMP must arrive on its first try.
void require_healthy(Gates& gates, const SmpCounters& c,
                     const std::string& where) {
  if (c.retries == 0 && c.timeouts == 0 && c.undeliverable == 0) return;
  gates.require(false, where + ": transport reported " +
                           std::to_string(c.retries) + " retries, " +
                           std::to_string(c.timeouts) + " timeouts, " +
                           std::to_string(c.undeliverable) +
                           " undeliverable SMPs with no fault model attached");
}

template <typename F>
double median_of(std::size_t times, F&& call) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < times; ++i) {
    Stopwatch sw;
    call();
    ms.push_back(sw.ms());
  }
  return median(std::move(ms));
}

constexpr std::size_t kProbeRepeats = 7;

/// Mutable state of one workload run shared by the helpers below.
struct Ctx {
  const WorkloadParams& params;
  WorkloadRun run;
  SpanRecorder spans;
  LayerTable layers;
  std::vector<OpSample> ops;
  std::vector<char> traced;  ///< per op: ran with tracing on
  SmpCounters loop_counters;
  std::vector<double> check_ms, check_paths;

  explicit Ctx(const WorkloadParams& p) : params(p) {}

  /// Benchmark spans and the library Tracer, both on or both off.
  void set_tracing(bool on) {
    spans.set_enabled(on);
    telemetry::Tracer::global().set_enabled(on);
  }
  /// Traced runs trace every other op, so the untraced half measures the
  /// overhead against the same workload.
  bool trace_op(std::size_t i) const { return params.trace && i % 2 == 0; }

  /// Runs the checker on the live state and gates on a clean report.
  void check(Subnet& net, const std::string& where) {
    const inject::FabricChecker checker(*net.sm);
    Stopwatch sw;
    inject::CheckReport report;
    {
      auto span = spans.span("inject.check");
      report = checker.check(net.vsf.get());
    }
    check_ms.push_back(sw.ms());
    check_paths.push_back(static_cast<double>(report.paths_traced));
    if (!report.clean() && run.gates.passed()) {
      run.gates.require(false, where + ": checker violation: " +
                                   report.violations.front());
    }
  }

  /// Records op `i`; `delta` is what the transport counted during it.
  void record_op(std::size_t i, OpSample sample, const SmpCounters& delta) {
    sample.smps = delta.total;
    ops.push_back(sample);
    traced.push_back(trace_op(i) ? 1 : 0);
    run.digest.add(sample.smps, sample.sim_us);
    loop_counters += delta;
    require_healthy(run.gates, delta, "op " + std::to_string(i));
  }

  /// Times one parallel call at the default pool size and at pool size 1,
  /// kProbeRepeats times each and interleaved, with tracing off, on state
  /// the caller keeps fixed. `call` returns the ms to count. Sets
  /// `<name>_pool_ms` and `<name>_t1_ms` to the two medians.
  template <typename F>
  void probe_pool_vs_serial(const std::string& name, F&& call) {
    set_tracing(false);
    std::vector<double> pool_ms, t1_ms;
    for (std::size_t r = 0; r < kProbeRepeats; ++r) {
      (void)ThreadPool::global();  // pools start outside the timed call
      pool_ms.push_back(call());
      ThreadPool::set_global_threads(1);
      (void)ThreadPool::global();
      t1_ms.push_back(call());
      ThreadPool::set_global_threads(0);
    }
    layers.set(name + "_pool_ms", median(pool_ms));
    layers.set(name + "_t1_ms", median(t1_ms));
  }
};

/// Wall ms of one call.
template <typename F>
double wall_ms_of(F&& call) {
  Stopwatch sw;
  call();
  return sw.ms();
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Closing steps shared by every workload: the test hook, the final
/// checker gate and transport-health gate, fabric counters, and either the
/// end-to-end or the per-layer metrics.
void finish(Ctx& ctx, Subnet& net, const char* workload,
            const std::vector<double>& setup_seconds) {
  auto& run = ctx.run;
  const auto& p = ctx.params;
  ctx.set_tracing(false);
  ctx.spans.set_op(ctx.ops.size());  // closing spans belong to no op
  if (p.before_final_check) p.before_final_check(net);

  ctx.spans.set_enabled(p.trace);
  ctx.check(net, "final state");
  ctx.spans.set_enabled(false);
  if (p.trace) {
    ctx.layers.set("inject.check_ms", median(ctx.check_ms));
    ctx.layers.set("inject.paths_traced", median(ctx.check_paths));
    const inject::FabricChecker checker(*net.sm);
    ctx.probe_pool_vs_serial("inject.check", [&] {
      return wall_ms_of([&] { (void)checker.check(net.vsf.get()); });
    });
  }
  // The final fabric's whole life: its set-up, the ops, the closing checks.
  require_healthy(run.gates, net.sm->transport().counters(), "final fabric");

  auto& result = run.result;
  result.note("workload", workload);
  result.note("tree", topology::to_string(p.tree));
  result.note("seed", std::to_string(p.seed));
  result.note("ops", std::to_string(ctx.ops.size()));
  result.note("setups", std::to_string(setup_seconds.size()));
  result.note("hardware_threads",
              std::to_string(std::thread::hardware_concurrency()));
  result.note("pool_threads",
              std::to_string(ThreadPool::global_thread_count()));
  result.note("build_type", E2EBENCH_BUILD_TYPE);
  result.note("load", "closed loop, 1 client thread");
  result.note("determinism_digest", ctx.run.digest.hex());

  double loop_seconds = 0.0;
  for (const auto& op : ctx.ops) loop_seconds += op.wall_ms / 1e3;

  add_end_to_end(result, ctx.ops, loop_seconds, median(setup_seconds));
  if (!p.trace) return;
  result.metrics.clear();  // a traced run reports the per-layer metrics

  const auto& c = ctx.loop_counters;
  const double n = static_cast<double>(ctx.ops.size());
  auto per_op = [&](std::uint64_t v) { return static_cast<double>(v) / n; };
  auto& layers = ctx.layers;
  layers.set("fabric.smps.lft_block_writes", per_op(c.lft_block_writes));
  layers.set("fabric.smps.discovery", per_op(c.discovery));
  layers.set("fabric.smps.port_info", per_op(c.port_info));
  layers.set("fabric.smps.guid_info", per_op(c.guid_info));
  layers.set("fabric.smps.vf_lid_assign", per_op(c.vf_lid_assign));
  layers.set("fabric.smps.perf_mgmt", per_op(c.perf_mgmt));
  layers.set("fabric.lid_routed_share",
             c.total == 0 ? 0.0
                          : static_cast<double>(c.lid_routed) /
                                static_cast<double>(c.total));
  layers.set("fabric.retries", per_op(c.retries));
  layers.set("fabric.undeliverable", per_op(c.undeliverable));

  // Overhead: traced against untraced ops of the same kind, each kind's
  // mean weighted by its op count, so the mix of the two halves cancels.
  struct Halves {
    double sum[2] = {0.0, 0.0};  ///< [untraced, traced] wall ms
    std::size_t n[2] = {0, 0};
  };
  std::map<std::uint8_t, Halves> by_kind;
  for (std::size_t i = 0; i < ctx.ops.size(); ++i) {
    Halves& h = by_kind[ctx.ops[i].kind];
    const std::size_t half = ctx.traced[i] != 0 ? 1 : 0;
    h.sum[half] += ctx.ops[i].wall_ms;
    ++h.n[half];
  }
  double traced_ms = 0.0, plain_ms = 0.0;
  for (const auto& [kind, h] : by_kind) {
    if (h.n[0] == 0 || h.n[1] == 0) continue;
    const double weight = static_cast<double>(h.n[0] + h.n[1]);
    plain_ms += weight * h.sum[0] / static_cast<double>(h.n[0]);
    traced_ms += weight * h.sum[1] / static_cast<double>(h.n[1]);
  }
  if (plain_ms > 0.0) {
    layers.set("telemetry.tracing_overhead_pct",
               100.0 * (traced_ms / plain_ms - 1.0));
  }

  std::size_t traced_ops = 0;
  for (const char t : ctx.traced) traced_ops += t != 0 ? 1 : 0;
  const auto self = ctx.spans.self_ms_by_layer(ctx.ops.size());
  for (const char* layer : kSelfLayers) {
    const auto it = self.find(layer);
    const double total = it == self.end() ? 0.0 : it->second;
    layers.set(std::string(layer) + ".self_ms_per_op",
               traced_ops == 0 ? 0.0
                               : total / static_cast<double>(traced_ops));
  }
  layers.emit(result);

  if (!p.trace_path.empty()) {
    if (ctx.spans.write_jsonl(p.trace_path)) {
      result.note("spans_written", p.trace_path);
    } else {
      run.gates.require(false, "cannot write spans to " + p.trace_path);
    }
  }
  telemetry::Tracer::global().clear();
}

}  // namespace

// --- bringup --------------------------------------------------------------

/// Each boot leaves 0..kMaxAbsentHosts seeded host slots empty. A full boot
/// of the symmetric tree costs the same simulated time wherever the SM
/// sits, so this is what makes the boot's SMP stream depend on the seed;
/// 8 absent hosts (32 LIDs) keep the top LID in Table I's last LFT block.
constexpr std::size_t kMaxAbsentHosts = 8;

WorkloadRun run_bringup(const WorkloadParams& p) {
  Ctx ctx(p);
  Rng rng(p.seed);
  std::vector<double> build_ms, pct_ms, rest_ms, boot_lft, boot_sim;
  std::unique_ptr<Subnet> net;

  for (std::size_t i = 0; i < p.ops; ++i) {
    ctx.set_tracing(ctx.trace_op(i));
    ctx.spans.set_op(i);
    net.reset();  // one fabric alive at a time
    release_freed_memory();
    {
      Stopwatch sw;
      auto span = ctx.spans.span("topology.build");
      net = build_subnet(p.tree, 3, core::LidScheme::kPrepopulated, rng,
                         SmSlot::kSeeded, rng.below(kMaxAbsentHosts + 1));
      build_ms.push_back(sw.ms());
    }
    if (p.before_op) p.before_op(*net, i);
    Stopwatch sw;
    sm::SweepReport report;
    {
      auto root = ctx.spans.span("bench.op");
      auto span = ctx.spans.span("sm.boot");
      report = net->vsf->boot();
    }
    OpSample sample;
    sample.wall_ms = sw.ms();
    const Snap after = snap(*net);
    sample.sim_us = after.sim_us;
    ctx.record_op(i, sample, after.counters);

    // Table I: a cold boot distributes every block of every switch.
    const std::uint64_t n = net->fabric.num_switches(true);
    const std::uint64_t top = net->sm->lids().top_lid().value();
    const std::uint64_t expected = n * ((top + 1 + 63) / 64);
    if (report.distribution.smps != expected) {
      ctx.run.gates.require(
          false, "boot " + std::to_string(i) + " sent " +
                     std::to_string(report.distribution.smps) +
                     " LFT SMPs, Table I full distribution is " +
                     std::to_string(expected));
    }
    pct_ms.push_back(report.path_computation_seconds * 1e3);
    rest_ms.push_back(sample.wall_ms - pct_ms.back());
    boot_lft.push_back(static_cast<double>(report.distribution.smps));
    boot_sim.push_back(sample.sim_us);
  }

  if (p.trace) {
    auto& layers = ctx.layers;
    layers.set("routing.pct_ms", median(pct_ms));
    layers.set("sm.boot_rest_ms", median(rest_ms));
    layers.set("sm.boot_lft_smps", median(boot_lft));
    layers.set("sm.boot_sim_us", mean(boot_sim));
    layers.set("topology.build_ms", median(build_ms));
    // Cold boots of one and the same fabric, rebuilt for each boot.
    ctx.probe_pool_vs_serial("routing.pct", [&] {
      Rng probe_rng(p.seed);
      auto probe =
          build_subnet(p.tree, 3, core::LidScheme::kPrepopulated, probe_rng);
      return probe->vsf->boot().path_computation_seconds * 1e3;
    });
  }
  // Set-up of this workload is building the fabric objects, once per op.
  std::vector<double> setup_s;
  for (const double ms : build_ms) setup_s.push_back(ms / 1e3);
  finish(ctx, *net, "bringup", setup_s);
  return std::move(ctx.run);
}

// --- vm-churn -------------------------------------------------------------

namespace {

enum class ChurnOp : std::uint8_t { kCreate, kDestroy, kMigrate, kSwap };
constexpr std::uint8_t kIntraLeafMigrate = 4;  ///< OpSample::kind

/// The op mix in exact proportions: every block of 20 ops holds 5 creates,
/// 5 destroys, 7 migrations and 3 swaps, in seeded order. Exact counts keep
/// the VM population steady and the mix identical across seeds.
std::vector<ChurnOp> churn_sequence(std::size_t ops, Rng& rng) {
  std::vector<ChurnOp> seq;
  std::vector<ChurnOp> block;
  block.insert(block.end(), 5, ChurnOp::kCreate);
  block.insert(block.end(), 5, ChurnOp::kDestroy);
  block.insert(block.end(), 7, ChurnOp::kMigrate);
  block.insert(block.end(), 3, ChurnOp::kSwap);
  while (seq.size() < ops) {
    for (std::size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[rng.below(i + 1)]);
    }
    seq.insert(seq.end(), block.begin(), block.end());
  }
  seq.resize(ops);
  return seq;
}

std::size_t random_free_host(core::VSwitchFabric& vsf, Rng& rng) {
  const std::size_t hosts = vsf.hypervisors().size();
  for (;;) {
    const std::size_t h = rng.below(hosts);
    if (vsf.free_vf_count(h) > 0) return h;
  }
}

}  // namespace

WorkloadRun run_vm_churn(const WorkloadParams& p) {
  Ctx ctx(p);
  std::unique_ptr<Subnet> net;
  std::vector<core::VmHandle> live;
  std::vector<double> setup_s, build_ms;
  for (std::size_t k = 0; k < p.setups; ++k) {
    net.reset();
    release_freed_memory();
    live.clear();
    Stopwatch sw;
    Rng rng(p.seed);  // every set-up builds the same state
    net = build_subnet(p.tree, 3, core::LidScheme::kPrepopulated, rng);
    build_ms.push_back(sw.ms());
    net->vsf->boot();
    while (live.size() < p.churn_vms) {
      live.push_back(net->vsf->create_vm(random_free_host(*net->vsf, rng)).vm);
    }
    setup_s.push_back(sw.seconds());
    require_healthy(ctx.run.gates, net->sm->transport().counters(),
                    "set-up " + std::to_string(k));
  }
  auto& vsf = *net->vsf;
  const auto& hyps = vsf.hypervisors();
  std::unordered_map<NodeId, std::vector<std::size_t>> by_leaf;
  for (std::size_t h = 0; h < hyps.size(); ++h) {
    by_leaf[hyps[h].leaf].push_back(h);
  }

  Rng rng(p.seed ^ 0x6f70732d6368726eULL);
  const auto sequence = churn_sequence(p.ops, rng);
  std::vector<double> mig_switches, mig_lft, mig_sim;
  std::size_t migrations = 0;

  for (std::size_t i = 0; i < sequence.size(); ++i) {
    ctx.set_tracing(ctx.trace_op(i));
    ctx.spans.set_op(i);
    const ChurnOp op = sequence[i];

    // Draw the op's inputs before the timer starts.
    std::size_t host = 0, victim = 0, peer = 0;
    bool intra = false;
    if (op == ChurnOp::kCreate) {
      host = random_free_host(vsf, rng);
    } else if (op == ChurnOp::kDestroy) {
      victim = rng.below(live.size());
    } else if (op == ChurnOp::kMigrate) {
      victim = rng.below(live.size());
      const std::size_t src = vsf.vm(live[victim]).hypervisor;
      // One migration in five stays under its source leaf (§VI-D).
      intra = migrations++ % 5 == 0;
      std::vector<std::size_t> local;
      if (intra) {
        for (const std::size_t h : by_leaf[hyps[src].leaf]) {
          if (h != src && vsf.free_vf_count(h) > 0) local.push_back(h);
        }
      }
      if (!local.empty()) {
        host = local[rng.below(local.size())];
      } else {
        intra = false;
        do {
          host = random_free_host(vsf, rng);
        } while (hyps[host].leaf == hyps[src].leaf);
      }
    } else {
      victim = rng.below(live.size());
      const std::size_t src = vsf.vm(live[victim]).hypervisor;
      do {
        peer = rng.below(live.size());
      } while (vsf.vm(live[peer]).hypervisor == src);
    }

    OpSample sample;
    // Intra-leaf migrations cost far less than the others: a kind of their own.
    sample.kind = intra ? kIntraLeafMigrate : static_cast<std::uint8_t>(op);
    const Snap before = snap(*net);
    Stopwatch sw;
    try {
      auto root = ctx.spans.span("bench.op");
      switch (op) {
        case ChurnOp::kCreate: {
          auto span = ctx.spans.span("core.create_vm");
          live.push_back(vsf.create_vm(host).vm);
          break;
        }
        case ChurnOp::kDestroy: {
          auto span = ctx.spans.span("core.destroy_vm");
          vsf.destroy_vm(live[victim]);
          live[victim] = live.back();
          live.pop_back();
          break;
        }
        case ChurnOp::kMigrate: {
          auto span = ctx.spans.span("core.migrate_vm");
          const auto report = vsf.migrate_vm(live[victim], host);
          span.end();
          mig_switches.push_back(
              static_cast<double>(report.reconfig.switches_updated));
          mig_lft.push_back(static_cast<double>(report.reconfig.lft_smps));
          break;
        }
        case ChurnOp::kSwap: {
          auto span = ctx.spans.span("core.swap_vms");
          vsf.swap_vms(live[victim], live[peer]);
          break;
        }
      }
    } catch (const std::exception& e) {
      sample.failed = true;
      std::fprintf(stderr, "vm-churn op %zu failed: %s\n", i, e.what());
    }
    sample.wall_ms = sw.ms();
    const Snap after = snap(*net);
    sample.sim_us = after.sim_us - before.sim_us;
    if (op == ChurnOp::kMigrate && !sample.failed) {
      mig_sim.push_back(sample.sim_us);
    }
    ctx.record_op(i, sample, counters_delta(after.counters, before.counters));
  }

  if (p.trace) {
    auto& layers = ctx.layers;
    layers.set("topology.build_ms", median(build_ms));
    layers.set("core.create_vm_ms", ctx.spans.median_ms("core.create_vm"));
    layers.set("core.destroy_vm_ms", ctx.spans.median_ms("core.destroy_vm"));
    layers.set("core.migrate_vm_ms", ctx.spans.median_ms("core.migrate_vm"));
    layers.set("core.swap_vms_ms", ctx.spans.median_ms("core.swap_vms"));
    layers.set("core.migrate_switches_updated", median(mig_switches));
    layers.set("core.migrate_lft_smps", median(mig_lft));
    layers.set("core.migrate_sim_us", mean(mig_sim));
    layers.set("sm.refresh_targets_ms", median_of(kProbeRepeats, [&] {
                 net->sm->refresh_targets();
               }));
  }
  finish(ctx, *net, "vm-churn", setup_s);
  return std::move(ctx.run);
}

// --- rack-maintenance -----------------------------------------------------

namespace {

/// A booted dynamic-LID subnet with one VM per hypervisor and the cloud,
/// PerfMgr and topology-transaction layers attached.
struct Rack {
  std::unique_ptr<Subnet> net;
  std::unique_ptr<cloud::CloudOrchestrator> cloud;
  std::unique_ptr<perf::PerfMgr> perf;
  std::unique_ptr<sm::TopologyTxnManager> topo;
};

std::unique_ptr<Rack> build_rack(const WorkloadParams& p,
                                 std::vector<double>& build_ms) {
  auto rack = std::make_unique<Rack>();
  Rng rng(p.seed);
  Stopwatch sw;
  // The SM's slot sets the LID numbering, and with it how many of an
  // evacuation's copied entries already hold the right port: a seeded slot
  // moved the SMPs per cycle by ~5% from seed to seed. The seed still picks
  // the leaves and uplinks.
  rack->net = build_subnet(p.tree, 2, core::LidScheme::kDynamic, rng,
                           SmSlot::kFirst);
  build_ms.push_back(sw.ms());
  auto& net = *rack->net;
  net.vsf->boot();
  const std::size_t hosts = net.vsf->hypervisors().size();
  for (std::size_t h = 0; h < hosts; ++h) net.vsf->create_vm(h);
  rack->cloud = std::make_unique<cloud::CloudOrchestrator>(
      *net.vsf, cloud::Placement::kFirstFit);
  rack->perf = std::make_unique<perf::PerfMgr>(*net.sm);
  rack->perf->sweep();  // baseline sample: every timed poll is a delta poll
  rack->topo =
      std::make_unique<sm::TopologyTxnManager>(*net.sm, net.vsf->journal());
  return rack;
}

}  // namespace

WorkloadRun run_rack_maintenance(const WorkloadParams& p) {
  Ctx ctx(p);
  std::unique_ptr<Rack> rack;
  std::vector<double> setup_s, build_ms;
  for (std::size_t k = 0; k < p.setups; ++k) {
    rack.reset();  // ~Rack frees the layers before the subnet they use
    release_freed_memory();
    Stopwatch sw;
    rack = build_rack(p, build_ms);
    setup_s.push_back(sw.seconds());
    require_healthy(ctx.run.gates, rack->net->sm->transport().counters(),
                    "set-up " + std::to_string(k));
  }
  auto& net = *rack->net;
  auto& vsf = *net.vsf;
  const auto& hyps = vsf.hypervisors();
  const cloud::MigrationPlanner planner(*rack->cloud);
  cloud::PlanExecutor executor(*rack->cloud);

  std::vector<NodeId> leaves;
  for (const NodeId leaf : net.built.leaves) {
    if (leaf != net.sm_leaf) leaves.push_back(leaf);
  }

  Rng rng(p.seed ^ 0x7261636b2d6d6e74ULL);
  std::vector<double> topo_lft, topo_rounds, topo_switches, sweep_mads;
  std::vector<double> moves, batches, replans, mig_switches, mig_lft;
  std::size_t committed = 0, attempted_moves = 0;

  // Cycles walk a seeded permutation of the leaves, so a run services as
  // many distinct racks as it has cycles (up to the leaf count).
  for (std::size_t i = leaves.size() - 1; i > 0; --i) {
    std::swap(leaves[i], leaves[rng.below(i + 1)]);
  }
  for (std::size_t i = 0; i < p.ops; ++i) {
    ctx.set_tracing(ctx.trace_op(i));
    ctx.spans.set_op(i);
    const NodeId leaf = leaves[i % leaves.size()];
    std::vector<CableSpec> uplinks;
    for (const CableSpec& c : net.fabric.cables_of(leaf)) {
      if (net.fabric.node(c.b).is_physical_switch()) uplinks.push_back(c);
    }
    const CableSpec uplink = uplinks[rng.below(uplinks.size())];
    std::vector<std::size_t> drained;
    for (std::size_t h = 0; h < hyps.size(); ++h) {
      if (hyps[h].leaf == leaf && vsf.free_vf_count(h) < hyps[h].vfs.size()) {
        drained.push_back(h);
      }
    }
    std::vector<core::VmHandle> evacuees;
    for (const std::uint32_t id : vsf.active_vm_ids()) {
      const core::VmHandle vm{id};
      if (hyps[vsf.vm(vm).hypervisor].leaf == leaf) evacuees.push_back(vm);
    }
    const std::string where = "cycle " + std::to_string(i);

    OpSample sample;
    const Snap before = snap(net);
    Stopwatch sw;
    try {
      auto root = ctx.spans.span("bench.op");
      // 1. Health poll.
      {
        auto span = ctx.spans.span("perf.sweep");
        sweep_mads.push_back(static_cast<double>(rack->perf->sweep().mads));
      }
      // 2. Leaf evacuation through the fleet planner.
      cloud::FleetGoal goal;
      goal.kind = cloud::FleetGoalKind::kEvacuateLeaf;
      goal.leaf = leaf;
      cloud::MigrationPlan plan;
      {
        auto span = ctx.spans.span("cloud.plan");
        plan = planner.plan(goal);
      }
      cloud::FleetExecution exec;
      {
        auto span = ctx.spans.span("cloud.execute");
        exec = executor.execute(planner, plan);
      }
      for (const auto& batch : exec.batches) {
        for (const auto& member : batch.reports) {
          if (member.outcome != cloud::TxnOutcome::kCommitted) continue;
          mig_switches.push_back(
              static_cast<double>(member.reconfig.switches_updated));
          mig_lft.push_back(static_cast<double>(member.reconfig.lft_smps));
        }
      }
      moves.push_back(static_cast<double>(plan.total_moves()));
      batches.push_back(static_cast<double>(plan.batches.size()));
      replans.push_back(static_cast<double>(exec.replans));
      committed += exec.committed;
      attempted_moves +=
          exec.committed + exec.rolled_back + exec.failed + exec.skipped;
      if (exec.rolled_back + exec.failed + exec.skipped > 0) {
        sample.failed = true;
      }
      ctx.check(net, where + " after evacuation");
      // 3. Uplink maintenance as two journaled topology transactions.
      for (int step = 0; step < 2; ++step) {
        sm::TopologyTxn txn;
        {
          auto span = ctx.spans.span("sm.topology_txn");
          txn = step == 0 ? rack->topo->remove_link(uplink.a, uplink.port_a)
                          : rack->topo->add_link(uplink);
        }
        topo_lft.push_back(static_cast<double>(txn.stats.lft_smps));
        topo_rounds.push_back(static_cast<double>(txn.stats.verify.rounds));
        topo_switches.push_back(
            static_cast<double>(txn.stats.switches_updated));
        ctx.check(net, where + (step == 0 ? " after remove_link"
                                          : " after add_link"));
      }
      // 4. The evacuees retire and fresh VMs refill the drained hosts, so
      //    every cycle starts from one VM per hypervisor.
      for (const core::VmHandle vm : evacuees) {
        auto span = ctx.spans.span("core.destroy_vm");
        vsf.destroy_vm(vm);
      }
      for (const std::size_t h : drained) {
        auto span = ctx.spans.span("core.create_vm");
        vsf.create_vm(h);
      }
      ctx.check(net, where + " after refill");
      // 5. Light sweep: nothing may be left to send.
      sm::SubnetManager::ReconvergeReport light;
      {
        auto span = ctx.spans.span("sm.light_sweep");
        light = net.sm->redistribute();
      }
      if (light.smps != 0 || !light.converged) {
        ctx.run.gates.require(false, where + ": light sweep sent " +
                                         std::to_string(light.smps) +
                                         " SMPs");
      }
    } catch (const std::exception& e) {
      sample.failed = true;
      std::fprintf(stderr, "rack-maintenance cycle %zu failed: %s\n", i,
                   e.what());
    }
    sample.wall_ms = sw.ms();
    const Snap after = snap(net);
    sample.sim_us = after.sim_us - before.sim_us;
    ctx.record_op(i, sample, counters_delta(after.counters, before.counters));
  }

  if (p.trace) {
    auto& layers = ctx.layers;
    const auto& spans = ctx.spans;
    layers.set("perf.sweep_ms", spans.median_ms("perf.sweep"));
    layers.set("perf.sweep_mads", median(sweep_mads));
    layers.set("cloud.plan_ms", spans.median_ms("cloud.plan"));
    layers.set("cloud.execute_ms", spans.median_ms("cloud.execute"));
    layers.set("cloud.moves_per_plan", median(moves));
    layers.set("cloud.batches_per_plan", median(batches));
    layers.set("cloud.commit_ratio",
               attempted_moves == 0
                   ? 0.0
                   : static_cast<double>(committed) /
                         static_cast<double>(attempted_moves));
    double replan_sum = 0.0;
    for (const double r : replans) replan_sum += r;
    layers.set("cloud.replans",
               replan_sum / static_cast<double>(std::max<std::size_t>(
                                1, replans.size())));
    layers.set("sm.topology_txn_ms", spans.median_ms("sm.topology_txn"));
    layers.set("sm.topology_lft_smps", median(topo_lft));
    layers.set("sm.topology_verify_rounds", median(topo_rounds));
    layers.set("sm.topology_switches_updated", median(topo_switches));
    layers.set("sm.light_sweep_ms", spans.median_ms("sm.light_sweep"));
    layers.set("topology.build_ms", median(build_ms));
    layers.set("core.create_vm_ms", spans.median_ms("core.create_vm"));
    layers.set("core.destroy_vm_ms", spans.median_ms("core.destroy_vm"));
    // The executor's copy migrations report n' and their LFT SMPs.
    layers.set("core.migrate_switches_updated", median(mig_switches));
    layers.set("core.migrate_lft_smps", median(mig_lft));

    // The parallel calls at both pool sizes, on the final state.
    ctx.probe_pool_vs_serial("sm.light_sweep", [&] {
      return wall_ms_of([&] { net.sm->redistribute(); });
    });
    cloud::FleetGoal goal;
    goal.kind = cloud::FleetGoalKind::kEvacuateLeaf;
    goal.leaf = leaves[rng.below(leaves.size())];
    ctx.probe_pool_vs_serial("cloud.plan", [&] {
      return wall_ms_of([&] { (void)planner.plan(goal); });
    });
    layers.set("sm.refresh_targets_ms", median_of(kProbeRepeats, [&] {
                 net.sm->refresh_targets();
               }));
  }
  finish(ctx, net, "rack-maintenance", setup_s);
  return std::move(ctx.run);
}

}  // namespace e2e

// End-to-end benchmark of the vSwitch reproduction.
//
//   e2ebench --workload <bringup|vm-churn|rack-maintenance> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-dir <dir>]
//   e2ebench --self-test
//
// Each workload runs a fixed, seeded number of ops: `--seconds` times the
// workload's nominal rate (ops per second on a 4-core x86 host at the time
// the benchmark was written). The count depends only on the arguments, so
// the tail percentile and its sample count are the same on every commit.
// `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
// ones; the last line of standard output is always the JSON verdict.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "selftest.hpp"
#include "telemetry/trace.hpp"
#include "workloads.hpp"

namespace {

using ibvs::topology::PaperFatTree;

struct WorkloadSpec {
  const char* name;
  e2e::WorkloadRun (*run)(const e2e::WorkloadParams&);
  PaperFatTree tree;
  double ops_per_second;  ///< nominal rate that sizes the fixed op count
  std::size_t setups;  ///< bringup instead builds a fabric per op
  std::size_t churn_vms;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"bringup", e2e::run_bringup, PaperFatTree::k5832, 2.5, 0, 0},
    {"vm-churn", e2e::run_vm_churn, PaperFatTree::k11664, 400.0, 3, 2000},
    {"rack-maintenance", e2e::run_rack_maintenance, PaperFatTree::k5832, 6.0,
     3, 0},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n"
               "       e2ebench --self-test\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0') usage((flag + " wants an integer").c_str());
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_dir;
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      ibvs::telemetry::Tracer::global().set_enabled(false);
      return e2e::run_self_test();
    }
    if (i + 1 >= argc) usage((arg + " needs a value").c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = parse_uint(arg, value);
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = parse_uint(arg, value);
    } else if (arg == "--trace") {
      trace = parse_uint(arg, value);
    } else if (arg == "--trace-dir") {
      trace_dir = value;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_seed || seconds == 0 || trace > 1) {
    usage("--seed, --seconds (> 0) and --trace <0|1> are required");
  }
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr) usage(("unknown workload '" + workload + "'").c_str());

  // The tracer is on by default and buffers every span without bound;
  // end-to-end runs measure with it off, traced runs toggle it per op.
  ibvs::telemetry::Tracer::global().set_enabled(false);

  e2e::WorkloadParams params;
  params.tree = spec->tree;
  params.seed = seed;
  params.ops = static_cast<std::size_t>(
      std::ceil(spec->ops_per_second * static_cast<double>(seconds)));
  params.setups = spec->setups;
  params.churn_vms = spec->churn_vms;
  params.trace = trace == 1;
  if (params.trace && !trace_dir.empty()) {
    std::filesystem::create_directories(trace_dir);
    params.trace_path = trace_dir + "/" + workload + "-seed" +
                        std::to_string(seed) + ".spans.jsonl";
  }
  const e2e::WorkloadRun run = spec->run(params);
  e2e::print_result(run.result, run.gates);
  return run.gates.passed() ? 0 : 1;
}

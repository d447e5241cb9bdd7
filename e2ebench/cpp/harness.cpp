#include "harness.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace e2e {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool tail_of(std::vector<double> values, Tail& out) {
  const std::size_t n = values.size();
  if (n <= kTailBeyond) return false;
  std::sort(values.begin(), values.end());
  const std::size_t rank = n - 1 - kTailBeyond;
  out.value = values[rank];
  out.percentile = 100.0 * static_cast<double>(rank + 1) /
                   static_cast<double>(n);
  out.samples = n;
  out.beyond = n - 1 - rank;
  return true;
}

double value_at_rank(std::vector<double> values, std::size_t rank) {
  if (rank >= values.size()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[rank];
}

bool run_tail(const std::vector<double>& wall,
              const std::vector<double>& sim, RunTail& out) {
  const std::size_t n = wall.size();
  const std::size_t slices =
      n >= kTailSlices * kMinSliceOps ? kTailSlices : 1;
  std::vector<double> wall_tails, sim_tails;
  for (std::size_t s = 0; s < slices; ++s) {
    const auto begin = static_cast<std::ptrdiff_t>(s * n / slices);
    const auto end = static_cast<std::ptrdiff_t>((s + 1) * n / slices);
    Tail tail;
    if (!tail_of({wall.begin() + begin, wall.begin() + end}, tail)) {
      return false;
    }
    if (s == 0) out.wall = tail;
    wall_tails.push_back(tail.value);
    sim_tails.push_back(value_at_rank({sim.begin() + begin, sim.begin() + end},
                                      tail.samples - 1 - kTailBeyond));
  }
  out.wall.value = median(std::move(wall_tails));
  out.sim = median(std::move(sim_tails));
  out.slices = slices;
  return true;
}

void Gates::require(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Digest::mix(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xffU;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::add(std::uint64_t smps, double sim_us) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &sim_us, sizeof bits);
  mix(smps);
  mix(bits);
}

std::string Digest::hex() const {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, hash_);
  return buf;
}

double SpanRecorder::now_us() const { return epoch_.seconds() * 1e6; }

SpanRecorder::Scope SpanRecorder::span(std::string_view name) {
  if (!enabled_) return Scope(nullptr, 0);
  SpanRecord rec;
  rec.name = std::string(name);
  rec.id = static_cast<std::uint32_t>(spans_.size() + 1);
  rec.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  rec.op = op_;
  rec.start_us = now_us();
  rec.end_us = rec.start_us;
  spans_.push_back(std::move(rec));
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

void SpanRecorder::Scope::end() {
  if (rec_ == nullptr) return;
  rec_->spans_[index_].end_us = rec_->now_us();
  // Scopes close innermost first (RAII), so this is the top of the stack.
  if (!rec_->open_.empty() && rec_->open_.back() == index_) {
    rec_->open_.pop_back();
  }
  rec_ = nullptr;
}

double SpanRecorder::median_ms(std::string_view name) const {
  std::vector<double> values;
  for (const auto& s : spans_) {
    if (s.name == name) values.push_back(s.ms());
  }
  return median(std::move(values));
}

std::map<std::string, double> SpanRecorder::self_ms_by_layer(
    std::uint64_t ops) const {
  // Children of one parent never overlap (one client thread, strictly
  // nested scopes), so the covered part is the sum of their durations.
  std::vector<double> child_ms(spans_.size() + 1, 0.0);
  for (const auto& s : spans_) {
    if (s.parent != 0) child_ms[s.parent] += s.ms();
  }
  std::map<std::string, double> self;
  for (const auto& s : spans_) {
    if (s.op >= ops) continue;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, s.ms() - child_ms[s.id]);
  }
  return self;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char line[256];
  for (const auto& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,\"op\":%" PRIu64
                  ",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  s.name.c_str(), s.id, s.parent, s.op, s.start_us, s.end_us);
    out << line;
  }
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void add_end_to_end(Result& result, const std::vector<OpSample>& ops,
                    double loop_seconds, double setup_seconds) {
  std::vector<double> wall, sim;
  std::uint64_t smps = 0, failed = 0;
  for (const auto& op : ops) {
    wall.push_back(op.wall_ms);
    sim.push_back(op.sim_us);
    smps += op.smps;
    failed += op.failed ? 1 : 0;
  }
  result.attempted = ops.size();
  result.failed = failed;
  const double n = static_cast<double>(ops.size());
  double sim_total = 0.0;
  for (const double v : sim) sim_total += v;
  RunTail tail;
  const bool has_tail = run_tail(wall, sim, tail);

  result.add("setup_s", setup_seconds, "s");
  result.add("ops_per_s", n / loop_seconds, "1/s");
  result.add("op_wall_p50_ms", median(wall), "ms");
  result.add("op_wall_tail_ms", has_tail ? tail.wall.value : 0.0, "ms");
  result.add("op_sim_mean_us", sim_total / n, "us");
  result.add("smps_per_op", static_cast<double>(smps) / n, "count");
  result.add("completed_op_ratio", (n - static_cast<double>(failed)) / n,
             "ratio");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");

  char buf[96];
  if (has_tail && tail.slices > 1) {
    std::snprintf(buf, sizeof buf,
                  "p%.2f (%zu samples, %zu beyond) per slice, median of %zu",
                  tail.wall.percentile, tail.wall.samples, tail.wall.beyond,
                  tail.slices);
  } else if (has_tail) {
    std::snprintf(buf, sizeof buf, "p%.2f (%zu samples, %zu beyond)",
                  tail.wall.percentile, tail.wall.samples, tail.wall.beyond);
  } else {
    std::snprintf(buf, sizeof buf, "none (%zu samples, need > %zu)",
                  ops.size(), kTailBeyond);
  }
  result.note("tail_percentile", buf);
  // The sim clock is quantized (SMP latency is a function of hop count), so
  // its order statistics repeat exactly across seeds; they are printed for
  // reading, and the mean carries the sim clock into the metrics.
  std::snprintf(buf, sizeof buf, "%.3f us", median(sim));
  result.note("op_sim_p50", buf);
  if (has_tail) {
    std::snprintf(buf, sizeof buf, "%.3f us (same percentile as wall)",
                  tail.sim);
    result.note("op_sim_tail", buf);
  }
  std::snprintf(buf, sizeof buf, "%.6f", static_cast<double>(failed) / n);
  result.note("failed_op_ratio", buf);
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void print_result(const Result& result, const Gates& gates) {
  for (const auto& [key, value] : result.info) {
    std::printf("# %-24s %s\n", key.c_str(), value.c_str());
  }
  for (const auto& failure : gates.failures()) {
    std::printf("# GATE FAILED: %s\n", failure.c_str());
  }
  if (gates.passed()) {
    std::printf("# %-36s %16s  %s\n", "metric", "value", "unit");
    for (const auto& m : result.metrics) {
      std::printf("# %-36s %16.6g  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += gates.passed() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  if (gates.passed()) {
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const auto& m = result.metrics[i];
      if (i > 0) json += ", ";
      json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace e2e

// Measurement plumbing of the end-to-end benchmark: clocks, statistics,
// correctness gates, the determinism digest, the benchmark's own span
// recorder, and the result printer.
//
// Everything here is independent of the library under test; the workloads
// (workloads.cpp) call into the library's public API and report through
// these types.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Wall clock of the benchmark: host time, monotonic.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  [[nodiscard]] double ms() const { return seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// SplitMix64: the benchmark's own generator, so workload inputs depend on
/// the seed alone and never on library internals.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  std::size_t below(std::size_t bound) {
    return static_cast<std::size_t>(next() % bound);
  }

 private:
  std::uint64_t state_;
};

// --- Statistics -----------------------------------------------------------

/// Median (mean of the two middle values for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile that still has at least `kTailBeyond` samples
/// strictly above its rank: rank N-1-kTailBeyond of the ascending order.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< 100 * (rank + 1) / N
  std::size_t samples = 0;  ///< N
  std::size_t beyond = 0;   ///< samples ranked above the tail value
};
inline constexpr std::size_t kTailBeyond = 10;
/// Needs more than kTailBeyond samples; returns false otherwise.
[[nodiscard]] bool tail_of(std::vector<double> values, Tail& out);
/// Value at the rank `tail_of` picked for another series of the same length
/// (the sim clock reports the wall clock's percentile).
[[nodiscard]] double value_at_rank(std::vector<double> values,
                                   std::size_t rank);

/// A run of at least kTailSlices * kMinSliceOps ops is cut into kTailSlices
/// equal slices of consecutive ops; its tail is the median over the slices
/// of each slice's `tail_of`. A host stall of a few hundred ms then sets
/// the tail of one slice instead of the run's. Shorter runs have one slice.
inline constexpr std::size_t kTailSlices = 5;
inline constexpr std::size_t kMinSliceOps = 1000;
struct RunTail {
  Tail wall;         ///< value: median over slices; the rest: first slice
  double sim = 0.0;  ///< median over slices of the sim value at wall's rank
  std::size_t slices = 0;
};
/// False when a slice has no tail (kTailBeyond or fewer ops).
[[nodiscard]] bool run_tail(const std::vector<double>& wall,
                            const std::vector<double>& sim, RunTail& out);

// --- Correctness ----------------------------------------------------------

/// Collected gate failures. A run with any failure prints no metrics.
class Gates {
 public:
  void require(bool ok, const std::string& what);
  [[nodiscard]] bool passed() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

/// FNV-1a over the per-op (SMPs, simulated µs) sequence. Equal digests mean
/// the management-plane stream the workload produced is the same.
class Digest {
 public:
  void add(std::uint64_t smps, double sim_us);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }
  [[nodiscard]] std::string hex() const;

 private:
  void mix(std::uint64_t word);
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// --- Ops ------------------------------------------------------------------

/// One timed operation of the closed loop.
struct OpSample {
  double wall_ms = 0.0;
  double sim_us = 0.0;     ///< transport total_time_us() delta
  std::uint64_t smps = 0;  ///< transport counters().total delta
  bool failed = false;
  /// Op type within the workload's mix; the tracing overhead compares
  /// traced and untraced ops of the same type.
  std::uint8_t kind = 0;
};

// --- Spans ----------------------------------------------------------------

/// The benchmark's own spans, recorded around each public call it makes.
/// Kept in memory and written out as JSON lines when the run ends.
struct SpanRecord {
  std::string name;  ///< "<layer>.<call>", e.g. "core.migrate_vm"
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< op index the span belongs to
  double start_us = 0.0;     ///< relative to the recorder's epoch
  double end_us = 0.0;

  [[nodiscard]] double ms() const { return (end_us - start_us) / 1e3; }
};

class SpanRecorder {
 public:
  /// RAII span; closing records it. Inert when the recorder is disabled.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::size_t index) : rec_(rec), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { end(); }
    void end();

   private:
    SpanRecorder* rec_;
    std::size_t index_;
  };

  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  [[nodiscard]] Scope span(std::string_view name);

  /// Median duration (ms) of the spans named `name`; 0 when none.
  [[nodiscard]] double median_ms(std::string_view name) const;
  /// Self time per layer (span duration minus the part covered by its
  /// direct children), summed over the spans of ops below `ops`, keyed by
  /// the layer prefix of the span name ("bench" for the per-op roots).
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer(
      std::uint64_t ops) const;
  /// Writes every span as one JSON object per line. Returns success.
  bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] double now_us() const;

  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  ///< indices of open spans, innermost last
  Stopwatch epoch_;
};

// --- Results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Run facts printed beside the table (pool size, build type, seed, ...).
  std::vector<std::pair<std::string, std::string>> info;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
};

/// Prints the human-readable table, then the one-line JSON verdict as the
/// last line of standard output. Failed gates replace the metrics.
void print_result(const Result& result, const Gates& gates);

/// Peak resident set of this process, MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// The end-to-end metrics every workload reports, from the timed loop; also
/// sets the attempted and failed op counts.
void add_end_to_end(Result& result, const std::vector<OpSample>& ops,
                    double loop_seconds, double setup_seconds);

}  // namespace e2e

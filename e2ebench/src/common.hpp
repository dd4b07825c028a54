// Shared pieces of the end-to-end benchmark: the clock, the in-memory span
// log of the traced run, exact percentiles, and the result record every
// workload fills in.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string why;            // the workload's reason, from BENCHMARK.json
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Seconds each measured phase of a closed loop runs for. A traced run
/// measures an untraced and a traced phase, so each gets half of
/// --seconds and the run takes as long as an untraced one.
inline double phase_seconds(const Args& args) {
  return args.trace ? args.seconds / 2 : args.seconds;
}

// ------------------------------------------------------------------ spans --

/// One timed call into a layer (or, for the synthetic "request" and
/// "ingest.queue" spans, one measured interval between two such calls).
/// `request` is the trace index of the request the span serves, -1 when
/// the call serves a whole batch or no single request.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::int64_t request = -1;
  std::uint32_t thread = 0;
};

/// Process-wide span log of the traced run. Each recording thread appends
/// to its own buffer, so recording takes no lock. The log keeps the first
/// kCap spans and counts the rest as dropped; the layer table is computed
/// from counters kept beside the spans, not from the stored spans, so
/// dropping only shortens the span file.
class SpanLog {
 public:
  static constexpr std::size_t kCap = 50'000;

  static SpanLog& global();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  std::uint32_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const Span& span);

  /// All stored spans, sorted by start. Call only while no thread records.
  [[nodiscard]] std::vector<Span> collect() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Small dense id of the calling thread (first call assigns it).
  static std::uint32_t thread_id() noexcept;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::uint64_t dropped = 0;
  };
  Buffer& local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_id_{1};
  std::atomic<std::size_t> stored_{0};
  mutable std::mutex mutex_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records [start, now] under `name` when the span log is enabled.
inline void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                        std::uint32_t parent = 0, std::int64_t request = -1) {
  SpanLog& log = SpanLog::global();
  if (!log.enabled()) return;
  log.record(Span{name, start_ns, end_ns, log.next_id(), parent, request,
                  SpanLog::thread_id()});
}

// ------------------------------------------------------------ statistics --

/// Nearest-rank percentile of exact samples (sorts a copy).
template <typename T>
double percentile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return static_cast<double>(values[rank]);
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

/// Percentile of per-batch values charged to every request of the batch:
/// `samples` are (value, weight) pairs.
double weighted_percentile(std::vector<std::pair<double, std::uint64_t>> samples,
                           double q);

// ---------------------------------------------------------------- result --

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  /// Scheduler rejections plus admission refusals; every attempted
  /// request counts as failed when a correctness check fails.
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks
  std::vector<Metric> end_to_end;
  /// End-to-end figures printed and recorded with the result but left out
  /// of the gated metrics, because their run-to-run spread on the recording
  /// host exceeds any usable bound (see NOTES.md).
  std::vector<Metric> ungated_end_to_end;
  std::vector<Metric> per_layer;
  /// Workload facts recorded with every result (flush policy, threads,
  /// sample counts, per-rung rows), as "key": value JSON members.
  std::vector<std::pair<std::string, std::string>> facts;
  /// Human-readable tables printed before the final line.
  std::string tables;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void ungated(const std::string& name, double value, const std::string& unit) {
    ungated_end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void fact(const std::string& key, const std::string& json_value) {
    facts.emplace_back(key, json_value);
  }
};

std::string json_string(const std::string& text);
std::string json_number(double value);

/// Prints the run's tables and provenance, writes the result file (and, for
/// a traced run, the span file and layer table) under args.out_dir, and
/// prints the final JSON line.
void emit(const Args& args, Result& result);

Result run_hotspot_closed(const Args& args);
Result run_fullstack_closed(const Args& args);
Result run_fullstack_openloop(const Args& args);
Result run_durable_closed(const Args& args);

}  // namespace e2e

// Output of one run: the provenance block, the human-readable tables, the
// result and span files under the output directory, and the final JSON line.
#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "telemetry/registry.hpp"
#include "util/probe_group.hpp"

namespace e2e {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : "null";
}

namespace {

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& metric : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(metric.name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}";
}

std::string provenance_json(const Args& args, const Result& result) {
  std::string out = "{";
  out += "\"workload\": " + json_string(args.workload);
  out += ", \"why\": " + json_string(args.why);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + json_number(args.seconds);
  out += ", \"trace\": " + std::string(args.trace ? "true" : "false");
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"commit\": " + json_string(args.commit);
  out += ", \"source_sha256\": " + json_string(args.source_digest);
  out += ", \"compiler\": " + json_string(E2E_COMPILER);
  out += ", \"RS_TELEM_COMPILED\": " + std::to_string(RS_TELEM_COMPILED);
  out += ", \"probe_backend\": " + json_string(reasched::probe::kBackendName);
  for (const auto& [key, value] : result.facts) out += ", " + json_string(key) + ": " + value;
  out += ", \"errors\": [";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    out += (i ? ", " : "") + json_string(result.errors[i]);
  }
  return out + "]}";
}

/// Chrome trace-event format (chrome://tracing, Perfetto): one complete
/// event per span, with the span id, causing span and request index.
void write_span_file(const std::string& path) {
  std::ofstream out(path);
  const std::vector<Span> spans = SpanLog::global().collect();
  const std::uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"displayTimeUnit\": \"ns\", \"dropped_spans\": " << SpanLog::global().dropped()
      << ", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << span.name << "\", \"ph\": \"X\", \"pid\": 1"
        << ", \"tid\": " << span.thread
        << ", \"ts\": " << json_number(static_cast<double>(span.start_ns - origin) / 1e3)
        << ", \"dur\": " << json_number(static_cast<double>(span.end_ns - span.start_ns) / 1e3)
        << ", \"args\": {\"id\": " << span.id << ", \"parent\": " << span.parent
        << ", \"request\": " << span.request << "}}";
  }
  out << "\n]}\n";
}

}  // namespace

void emit(const Args& args, Result& result) {
  if (!result.correct) result.failed = result.attempted;
  result.ungated("failed_frac",
                 static_cast<double>(result.failed) /
                     static_cast<double>(std::max<std::uint64_t>(result.attempted, 1)),
                 "ratio");
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + (args.trace ? "-traced" : "");
  const std::string provenance = provenance_json(args, result);
  const std::vector<Metric>& metrics = args.trace ? result.per_layer : result.end_to_end;

  std::printf("%s", result.tables.c_str());
  std::printf("end-to-end:\n");
  for (const Metric& metric : result.end_to_end) {
    std::printf("  %-32s %18.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("end-to-end, not gated:\n");
  for (const Metric& metric : result.ungated_end_to_end) {
    std::printf("  %-32s %18.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  if (args.trace) {
    std::printf("per-layer (traced phase):\n");
    for (const Metric& metric : result.per_layer) {
      std::printf("  %-32s %18.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
    }
    write_span_file(stem + "-spans.json");
    std::ofstream(stem + "-layers.txt") << result.tables;
  }
  for (const std::string& error : result.errors) std::printf("CHECK FAILED: %s\n", error.c_str());
  std::printf("provenance: %s\n", provenance.c_str());

  std::ofstream(stem + "-result.json")
      << "{\"provenance\": " << provenance
      << ", \"end_to_end\": " << metrics_json(result.end_to_end)
      << ", \"end_to_end_not_gated\": " << metrics_json(result.ungated_end_to_end)
      << ", \"per_layer\": " << metrics_json(result.per_layer) << "}\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics_json(metrics).c_str());
  std::fflush(stdout);
}

}  // namespace e2e

#include "common.hpp"

namespace e2e {

// ---------------------------------------------------------------- SpanLog --

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

std::uint32_t SpanLog::thread_id() noexcept {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

SpanLog::Buffer& SpanLog::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    buffer = owned.get();
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void SpanLog::record(const Span& span) {
  Buffer& buffer = local();
  if (stored_.fetch_add(1, std::memory_order_relaxed) < kCap) {
    buffer.spans.push_back(span);
  } else {
    ++buffer.dropped;
  }
}

std::vector<Span> SpanLog::collect() const {
  std::vector<Span> all;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return all;
}

std::uint64_t SpanLog::dropped() const {
  std::uint64_t total = 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) total += buffer->dropped;
  return total;
}

double weighted_percentile(std::vector<std::pair<double, std::uint64_t>> samples,
                           double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  std::uint64_t total = 0;
  for (const auto& sample : samples) total += sample.second;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (const auto& sample : samples) {
    seen += sample.second;
    if (seen > rank) return sample.first;
  }
  return samples.back().first;
}

}  // namespace e2e

// trace.hpp — the benchmark's own measurement helpers: nearest-rank
// percentiles with the "ten samples beyond" rule, and an in-memory span
// tracer whose spans are recorded around each call the benchmark makes into
// a layer of the program.
//
// Spans are written in begin order; a span's parent is the span open on the
// same tracer when it began.  A span's self time is its duration minus the
// part of its interval that its child spans cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// 1-based nearest rank of the `pct`-th percentile (pct in 1..100) among n
/// samples: ceil(pct * n / 100), at least 1.  Integer arithmetic, so the
/// rank never depends on how 0.99 rounds.
inline std::size_t percentile_rank(std::size_t n, unsigned pct) {
  const std::size_t r = (static_cast<std::size_t>(pct) * n + 99) / 100;
  return r == 0 ? 1 : r;
}

/// Samples that lie strictly beyond the `pct`-th percentile.
inline std::size_t samples_beyond(std::size_t n, unsigned pct) {
  return n == 0 ? 0 : n - percentile_rank(n, pct);
}

/// A percentile is reported only when at least `k` samples lie beyond it.
inline bool tail_supported(std::size_t n, unsigned pct, std::size_t k = 10) {
  return samples_beyond(n, pct) >= k;
}

/// Nearest-rank percentile of `v` (sorted in place); 0 for no samples.
inline double percentile(std::vector<double>& v, unsigned pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[percentile_rank(v.size(), pct) - 1];
}

struct Span {
  std::uint32_t name = 0;  // index into Tracer::names()
  std::int32_t parent = -1;
  std::uint64_t job = 0;  // spans of one job share this id
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to its own.  `spans` must be well formed (parents
/// precede children).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t a = std::max(s.t0, p.t0);
    const std::int64_t b = std::min(s.t1, p.t1);
    if (a < b) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t end = spans[i].t0;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, end);
      if (b > from) {
        covered += b - from;
        end = b;
      }
    }
    self[i] = (spans[i].t1 - spans[i].t0) - covered;
  }
  return self;
}

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }
  /// Toggle recording between phases (never while a span is open).
  void set_on(bool on) { on_ = on; }

  std::uint32_t intern(const std::string& name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    names_.push_back(name);
    const auto id = static_cast<std::uint32_t>(names_.size() - 1);
    ids_.emplace(name, id);
    return id;
  }

  /// Open a span; returns its index, or -1 when tracing is off.
  int begin(std::uint32_t name, std::uint64_t job) {
    if (!on_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, parent, job, now_ns(), 0});
    const int idx = static_cast<int>(spans_.size() - 1);
    open_.push_back(idx);
    return idx;
  }

  void end(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].t1 = now_ns();
    open_.pop_back();
  }

  /// Durations in microseconds of every span named `name`.
  std::vector<double> durations_us(const std::string& name) const {
    std::vector<double> out;
    const auto it = ids_.find(name);
    if (it == ids_.end()) return out;
    for (const Span& s : spans_) {
      if (s.name == it->second) out.push_back((s.t1 - s.t0) / 1e3);
    }
    return out;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, std::uint32_t name, std::uint64_t job)
      : t_(t), idx_(t.begin(name, job)) {}
  ~Scope() { t_.end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

/// Client-side latency not accounted for by the server's own queue and
/// execution clocks: admission-to-worker handoff, report publish and (over
/// TCP) the wire.  The server's clocks start after the client's submit call
/// begins and stop before the report is handed back, so this is never
/// negative (selftest.cpp checks it on real reports).
inline double residual_ms(double latency_ms, double queue_ms, double exec_ms) {
  return latency_ms - queue_ms - exec_ms;
}

}  // namespace perfbench

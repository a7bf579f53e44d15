#pragma once
// Span tracer of the benchmark. Spans are recorded around calls into the
// library's public functions from the benchmark's own code (the library is
// not instrumented); each carries a name, start, end, its enclosing span on
// the same thread and a point/request id. Spans live in per-thread buffers
// in memory and are written out once, when the workload ends.
//
// Layers are named by span prefix: "sim.run" and "sim.batch" both belong to
// layer "sim". A span's self time is its duration minus the time covered by
// its direct children (children on one thread nest strictly, so that is the
// sum of their durations).

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::uint32_t name = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int32_t parent = -1;  ///< index in the same thread's buffer, -1 = top
  std::uint64_t id = 0;      ///< point / request id
};

/// Aggregated view of one traced window.
struct Ledger {
  double window_s = 0.0;      ///< wall time of the window
  std::size_t executors = 0;  ///< threads that may run spans concurrently
  std::size_t max_concurrency = 0;  ///< most top-level spans open at once
  std::map<std::string, double> self_s;  ///< by span name
  std::map<std::string, std::vector<double>> durations_s;  ///< by span name
  double top_s = 0.0;           ///< sum of top-level span durations
  double idle_s = 0.0;          ///< executor time outside top-level spans
  double clipped_s = 0.0;       ///< negative self time clipped to 0
  std::size_t spans = 0;

  /// Sum of self time over spans whose layer (prefix before '.') is `layer`.
  double layer_self(const std::string& layer) const;
  /// Sum of self time of spans named exactly `name` (0 if none).
  double self(const std::string& name) const;
};

class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_; }
  void enable(bool on) { enabled_ = on; }

  /// Stable small id for a span name (thread-safe; call once per site).
  std::uint32_t intern(const std::string& name);

  /// Open a span on the calling thread; returns its slot for close().
  std::int32_t open(std::uint32_t name, std::uint64_t id);
  void close(std::int32_t slot);
  /// Record an already-finished top-level span on the calling thread.
  void record(std::uint32_t name, std::int64_t t0, std::int64_t t1,
              std::uint64_t id);

  /// Drop every recorded span (the names stay interned).
  void clear();

  /// Aggregate the spans recorded in [w0, w1] for `executors` threads.
  Ledger ledger(std::int64_t w0, std::int64_t w1, std::size_t executors) const;

  /// Write every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::uint32_t tid = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::int32_t> stack;
  };
  ThreadBuffer& local();

  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span; a no-op when tracing is off.
class Span {
 public:
  Span(std::uint32_t name, std::uint64_t id = 0) {
    Tracer& t = Tracer::instance();
    if (t.enabled()) slot_ = t.open(name, id);
  }
  ~Span() {
    if (slot_ >= 0) Tracer::instance().close(slot_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t slot_ = -1;
};

/// Interned name, resolved once per call site.
#define PB_SPAN_NAME(literal)                                           \
  ([]() -> std::uint32_t {                                              \
    static const std::uint32_t id =                                     \
        ::perfbench::Tracer::instance().intern(literal);                \
    return id;                                                          \
  }())

}  // namespace perfbench

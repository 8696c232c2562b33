// Request tracing: trace contexts, RAII spans, and a bounded collector.
//
// A `TraceContext` names the current trace (trace_id), the span that any
// child work should parent under (span_id), and whether the trace is
// sampled. The context is propagated through a thread-local slot: install
// it with `ScopedTraceContext`, read it with `CurrentContext()`. Worker
// lambdas that hop threads (Executor::ParallelFor bodies) capture the
// context by value at the call site and install it inside the lambda.
//
// `Span` is the RAII recorder: on construction it reads the thread-local
// context and, when the trace is sampled, allocates a span id, installs
// itself as the current parent, and stamps the start time; on destruction
// it restores the previous context and pushes a `SpanRecord` into a
// `SpanCollector`. When the trace is NOT sampled the constructor reads one
// thread-local flag and does nothing else — no clock read, no allocation —
// so tracing costs nothing on untraced requests.
//
// `SpanCollector` is a lock-striped fixed-size ring (drop-oldest with a
// drop counter). Recording takes one short striped mutex and never
// allocates beyond moving the record in, so the hot path never blocks on
// exporters. `SpanCollector::Global()` is the process-wide instance used
// by default; tests can pass their own collector.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dust {
namespace obs {

// ---------------------------------------------------------------------------
// Trace context.
// ---------------------------------------------------------------------------

struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  // Span that new child spans parent under.
  bool sampled = false;
};

/// Returns the calling thread's current trace context (all-zero when no
/// trace is installed).
const TraceContext& CurrentContext();

/// Installs `ctx` as the calling thread's trace context for the scope's
/// lifetime and restores the previous context on destruction.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// Process-unique non-zero 64-bit ids (SplitMix64 over a pid/time seed and
/// a global counter; distinct processes draw from distinct streams).
uint64_t NewTraceId();
uint64_t NewSpanId();

/// True iff `rate` is a finite value in [0, 1].
bool ValidSampleRate(double rate);

/// Deterministic rate-based sampler: the n-th call samples iff
/// floor((n+1)*rate) > floor(n*rate), so exactly round(n*rate) of the
/// first n decisions sample regardless of timing. Thread-safe.
class Sampler {
 public:
  explicit Sampler(double rate);

  /// Returns true when this decision is sampled.
  bool Sample();

  double rate() const { return rate_; }

 private:
  double rate_;
  std::atomic<uint64_t> n_{0};
};

// ---------------------------------------------------------------------------
// Span records and the bounded collector.
// ---------------------------------------------------------------------------

struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 = root span of its process.
  std::string name;
  int64_t start_us = 0;     // steady-clock microseconds (machine-wide base).
  int64_t duration_us = 0;  // >= 0
  uint64_t thread_id = 0;   // hashed std::thread::id
  std::string tags;         // "key=value" pairs, comma separated; may be "".
};

/// Steady-clock microseconds. CLOCK_MONOTONIC shares one base across
/// processes on a machine, so timelines from several processes line up.
int64_t SteadyNowMicros();

class SpanCollector {
 public:
  static constexpr size_t kDefaultCapacity = 16384;
  static constexpr size_t kDefaultStripes = 8;

  explicit SpanCollector(size_t capacity = kDefaultCapacity,
                         size_t stripes = kDefaultStripes);
  ~SpanCollector();  // out of line: Stripe is incomplete here

  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// Appends one record; when the caller's stripe is full the oldest
  /// record in that stripe is overwritten and the drop counter bumped.
  void Record(SpanRecord record);

  /// All retained records, sorted by start time (ties by span id).
  std::vector<SpanRecord> Snapshot() const;

  /// Retained records belonging to `trace_id`, sorted by start time.
  std::vector<SpanRecord> CollectTrace(uint64_t trace_id) const;

  uint64_t recorded_total() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t dropped_total() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return stripes_.size() * per_stripe_capacity_; }

  /// Discards retained records and resets both counters (tests).
  void Clear();

  /// Process-wide collector used by `Span` by default.
  static SpanCollector& Global();

 private:
  struct Stripe;

  Stripe& StripeForThisThread() const;

  size_t per_stripe_capacity_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
};

// ---------------------------------------------------------------------------
// RAII span.
// ---------------------------------------------------------------------------

class Span {
 public:
  /// Starts a span under the calling thread's context. No-op (no clock
  /// read) when the current trace is unsampled. The name is only copied
  /// when recording.
  explicit Span(const char* name, SpanCollector* collector = nullptr);
  explicit Span(const std::string& name, SpanCollector* collector = nullptr);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool recording() const { return recording_; }
  /// This span's id (0 when not recording). Children started while this
  /// span is current parent under this id.
  uint64_t span_id() const { return record_.span_id; }

  /// Appends a "key=value" tag. No-op when not recording.
  void AddTag(const char* key, const std::string& value);
  void AddTag(const char* key, uint64_t value);

 private:
  void Start(const char* name, SpanCollector* collector);

  bool recording_ = false;
  SpanCollector* collector_ = nullptr;
  TraceContext saved_;
  SpanRecord record_;
};

/// Records a span with explicit endpoints (for intervals whose start
/// predates any scope, e.g. queue wait measured at dispatch). `span_id`
/// of 0 allocates a fresh id. Returns the recorded span id.
uint64_t RecordSpan(uint64_t trace_id, uint64_t span_id,
                    uint64_t parent_span_id, const char* name,
                    int64_t start_us, int64_t end_us,
                    SpanCollector* collector = nullptr);

}  // namespace obs
}  // namespace dust

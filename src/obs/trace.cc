#include "obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <thread>

#include "util/rng.h"

namespace dust {
namespace obs {
namespace {

thread_local TraceContext tls_context;

uint64_t HashedThreadId() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

uint64_t NewId() {
  // Distinct processes seed distinct SplitMix64 streams (pid + clock at
  // first use), so trace files from several processes never share ids in
  // practice.
  static const uint64_t seed =
      (static_cast<uint64_t>(::getpid()) << 32) ^
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count());
  static std::atomic<uint64_t> counter{0};
  uint64_t id = 0;
  while (id == 0) {
    id = SplitMix64(seed + counter.fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

}  // namespace

const TraceContext& CurrentContext() { return tls_context; }

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx)
    : saved_(tls_context) {
  tls_context = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { tls_context = saved_; }

uint64_t NewTraceId() { return NewId(); }
uint64_t NewSpanId() { return NewId(); }

bool ValidSampleRate(double rate) {
  return std::isfinite(rate) && rate >= 0.0 && rate <= 1.0;
}

Sampler::Sampler(double rate) : rate_(ValidSampleRate(rate) ? rate : 0.0) {}

bool Sampler::Sample() {
  if (rate_ <= 0.0) return false;
  if (rate_ >= 1.0) return true;
  const uint64_t n = n_.fetch_add(1, std::memory_order_relaxed);
  const double before = std::floor(static_cast<double>(n) * rate_);
  const double after = std::floor(static_cast<double>(n + 1) * rate_);
  return after > before;
}

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// SpanCollector.
// ---------------------------------------------------------------------------

struct SpanCollector::Stripe {
  mutable std::mutex mu;
  std::vector<SpanRecord> ring;  // sized to capacity up front
  size_t next = 0;               // next write slot
  size_t count = 0;              // filled slots, <= ring.size()
};

SpanCollector::SpanCollector(size_t capacity, size_t stripes) {
  if (stripes == 0) stripes = 1;
  if (capacity < stripes) capacity = stripes;
  per_stripe_capacity_ = capacity / stripes;
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    auto stripe = std::make_unique<Stripe>();
    stripe->ring.resize(per_stripe_capacity_);
    stripes_.push_back(std::move(stripe));
  }
}

SpanCollector::~SpanCollector() = default;

SpanCollector::Stripe& SpanCollector::StripeForThisThread() const {
  return *stripes_[HashedThreadId() % stripes_.size()];
}

void SpanCollector::Record(SpanRecord record) {
  Stripe& stripe = StripeForThisThread();
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    if (stripe.count == stripe.ring.size()) {
      // Full: `next` points at the oldest slot; overwrite it.
      dropped_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++stripe.count;
    }
    stripe.ring[stripe.next] = std::move(record);
    stripe.next = (stripe.next + 1) % stripe.ring.size();
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SpanRecord> SpanCollector::Snapshot() const {
  std::vector<SpanRecord> out;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    const size_t size = stripe->ring.size();
    // Oldest retained record sits `count` slots behind `next`.
    size_t pos = (stripe->next + size - stripe->count) % size;
    for (size_t i = 0; i < stripe->count; ++i) {
      out.push_back(stripe->ring[pos]);
      pos = (pos + 1) % size;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.span_id < b.span_id;
            });
  return out;
}

std::vector<SpanRecord> SpanCollector::CollectTrace(uint64_t trace_id) const {
  std::vector<SpanRecord> all = Snapshot();
  std::vector<SpanRecord> out;
  for (auto& record : all) {
    if (record.trace_id == trace_id) out.push_back(std::move(record));
  }
  return out;
}

void SpanCollector::Clear() {
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->next = 0;
    stripe->count = 0;
  }
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

SpanCollector& SpanCollector::Global() {
  // Leaked on purpose: spans may be recorded from detached threads during
  // process teardown, after static destructors would have run.
  static SpanCollector* global = new SpanCollector();
  return *global;
}

// ---------------------------------------------------------------------------
// Span.
// ---------------------------------------------------------------------------

void Span::Start(const char* name, SpanCollector* collector) {
  const TraceContext& ctx = tls_context;
  if (!ctx.sampled) return;
  recording_ = true;
  collector_ = collector != nullptr ? collector : &SpanCollector::Global();
  saved_ = ctx;
  record_.trace_id = ctx.trace_id;
  record_.span_id = NewSpanId();
  record_.parent_span_id = ctx.span_id;
  record_.name = name;
  record_.thread_id = HashedThreadId();
  tls_context = TraceContext{ctx.trace_id, record_.span_id, true};
  record_.start_us = SteadyNowMicros();
}

Span::Span(const char* name, SpanCollector* collector) {
  Start(name, collector);
}

Span::Span(const std::string& name, SpanCollector* collector) {
  // The temporary `name` outlives this constructor call; Start() copies it
  // into the record only when the trace is sampled.
  Start(name.c_str(), collector);
}

Span::~Span() {
  if (!recording_) return;
  const int64_t end_us = SteadyNowMicros();
  record_.duration_us = end_us > record_.start_us ? end_us - record_.start_us
                                                  : 0;
  tls_context = saved_;
  collector_->Record(std::move(record_));
}

void Span::AddTag(const char* key, const std::string& value) {
  if (!recording_) return;
  if (!record_.tags.empty()) record_.tags += ',';
  record_.tags += key;
  record_.tags += '=';
  record_.tags += value;
}

void Span::AddTag(const char* key, uint64_t value) {
  if (!recording_) return;
  AddTag(key, std::to_string(value));
}

uint64_t RecordSpan(uint64_t trace_id, uint64_t span_id,
                    uint64_t parent_span_id, const char* name,
                    int64_t start_us, int64_t end_us,
                    SpanCollector* collector) {
  SpanRecord record;
  record.trace_id = trace_id;
  record.span_id = span_id != 0 ? span_id : NewSpanId();
  record.parent_span_id = parent_span_id;
  record.name = name;
  record.start_us = start_us;
  record.duration_us = end_us > start_us ? end_us - start_us : 0;
  record.thread_id = HashedThreadId();
  const uint64_t id = record.span_id;
  (collector != nullptr ? collector : &SpanCollector::Global())
      ->Record(std::move(record));
  return id;
}

}  // namespace obs
}  // namespace dust

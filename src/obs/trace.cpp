#include "obs/trace.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

#include "common/rng.hpp"
#include "obs/span.hpp"

namespace pwx::obs {

namespace detail {
std::atomic<bool> g_tracing{false};
}  // namespace detail

namespace {

/// Single-producer (owning thread) / single-consumer (drain under the
/// registry mutex) bounded ring. Capacity is a power of two; a full ring
/// drops the incoming span and counts it.
struct Lane {
  Lane(std::size_t capacity_pow2, std::uint32_t thread_index)
      : slots(capacity_pow2), mask(capacity_pow2 - 1), thread(thread_index) {}

  std::vector<SpanRecord> slots;
  std::size_t mask;
  std::uint32_t thread;
  std::atomic<std::size_t> head{0};  ///< producer: next write index
  std::atomic<std::size_t> tail{0};  ///< consumer: next read index

  bool try_push(SpanRecord&& record) {
    const std::size_t h = head.load(std::memory_order_relaxed);
    const std::size_t t = tail.load(std::memory_order_acquire);
    if (h - t > mask) {
      return false;  // full: drop the newest, keep history contiguous
    }
    slots[h & mask] = std::move(record);
    head.store(h + 1, std::memory_order_release);
    return true;
  }
};

/// One in-flight span on the owning thread's stack.
struct Frame {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  bool sampled = false;
  double start_s = 0.0;
  std::string name;
  std::vector<SpanAttr> attrs;
};

struct ThreadState {
  std::uint64_t session = 0;  ///< session the cached lane belongs to
  std::shared_ptr<Lane> lane;
  std::vector<Frame> stack;
};

thread_local ThreadState t_state;  // NOLINT: intentional thread-local state

/// Shared tracer state. The mutex guards lane registration, drain, and
/// session transitions; everything producers touch per-span is atomic.
struct TracerCore {
  std::mutex mutex;
  std::vector<std::shared_ptr<Lane>> lanes;
  std::atomic<std::uint64_t> session{0};
  std::atomic<bool> session_active{false};
  std::atomic<void (*)(const SpanRecord&)> flight_tap{nullptr};

  // Session parameters, written under the mutex at start(); producers read
  // them racily but a session change bumps `session` first, so a stale read
  // only affects spans already straddling the transition.
  std::size_t ring_capacity = 2048;
  std::uint64_t id_seed = 0;
  std::uint64_t sample_every = 1;
  std::function<double()> clock;

  std::atomic<std::uint64_t> id_counter{0};
  std::atomic<std::uint64_t> trace_counter{0};
  std::atomic<std::uint64_t> traces_started{0};
  std::atomic<std::uint64_t> traces_sampled{0};
  std::atomic<std::uint64_t> spans_recorded{0};
  std::atomic<std::uint64_t> spans_dropped{0};
};

TracerCore& core() {
  static TracerCore instance;  // NOLINT: intentional process lifetime
  return instance;
}

void update_gate(TracerCore& c) {
  detail::g_tracing.store(
      c.session_active.load(std::memory_order_relaxed) ||
          c.flight_tap.load(std::memory_order_relaxed) != nullptr,
      std::memory_order_relaxed);
}

double clock_now(TracerCore& c) {
  return c.clock ? c.clock() : monotonic_s();
}

/// Seeded deterministic id: the n-th id drawn is a pure function of
/// (id_seed, n), never 0 so 0 stays the "no parent / no trace" sentinel.
std::uint64_t next_id(TracerCore& c) {
  const std::uint64_t n = c.id_counter.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t state = c.id_seed + (n + 1) * 0x9e3779b97f4a7c15ULL;
  const std::uint64_t id = pwx::splitmix64(state);
  return id == 0 ? 0x1d5ad5e1ULL : id;
}

Lane* lane_for(TracerCore& c, ThreadState& ts) {
  const std::uint64_t session = c.session.load(std::memory_order_acquire);
  if (ts.lane && ts.session == session) {
    return ts.lane.get();
  }
  const std::lock_guard<std::mutex> lock(c.mutex);
  auto lane = std::make_shared<Lane>(
      c.ring_capacity, static_cast<std::uint32_t>(c.lanes.size()));
  c.lanes.push_back(lane);
  ts.lane = std::move(lane);
  ts.session = c.session.load(std::memory_order_relaxed);
  return ts.lane.get();
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) {
    p <<= 1U;
  }
  return p;
}

}  // namespace

void Tracer::start(TracerConfig config) {
  TracerCore& c = core();
  const std::lock_guard<std::mutex> lock(c.mutex);
  // Bump the session first: thread-cached lanes from the previous session
  // stop matching and re-register on their next record.
  c.session.fetch_add(1, std::memory_order_release);
  c.lanes.clear();
  c.ring_capacity = round_up_pow2(config.ring_capacity == 0 ? 2 : config.ring_capacity);
  c.id_seed = config.id_seed;
  c.sample_every = config.sample_every == 0 ? 1 : config.sample_every;
  c.clock = config.clock;
  c.id_counter.store(0, std::memory_order_relaxed);
  c.trace_counter.store(0, std::memory_order_relaxed);
  c.traces_started.store(0, std::memory_order_relaxed);
  c.traces_sampled.store(0, std::memory_order_relaxed);
  c.spans_recorded.store(0, std::memory_order_relaxed);
  c.spans_dropped.store(0, std::memory_order_relaxed);
  c.session_active.store(true, std::memory_order_relaxed);
  update_gate(c);
  config_ = std::move(config);
  session_ = c.session.load(std::memory_order_relaxed);
}

void Tracer::stop() {
  TracerCore& c = core();
  const std::lock_guard<std::mutex> lock(c.mutex);
  c.session_active.store(false, std::memory_order_relaxed);
  update_gate(c);
}

std::vector<SpanRecord> Tracer::drain() {
  TracerCore& c = core();
  const std::lock_guard<std::mutex> lock(c.mutex);
  std::vector<SpanRecord> out;
  for (const auto& lane : c.lanes) {
    const std::size_t head = lane->head.load(std::memory_order_acquire);
    std::size_t tail = lane->tail.load(std::memory_order_relaxed);
    while (tail != head) {
      out.push_back(std::move(lane->slots[tail & lane->mask]));
      ++tail;
    }
    lane->tail.store(tail, std::memory_order_release);
  }
  return out;
}

TracerStats Tracer::stats() const {
  TracerCore& c = core();
  TracerStats stats;
  stats.traces_started = c.traces_started.load(std::memory_order_relaxed);
  stats.traces_sampled = c.traces_sampled.load(std::memory_order_relaxed);
  stats.spans_recorded = c.spans_recorded.load(std::memory_order_relaxed);
  stats.spans_dropped = c.spans_dropped.load(std::memory_order_relaxed);
  return stats;
}

double Tracer::now() const { return clock_now(core()); }

Tracer& tracer() {
  static Tracer instance;  // NOLINT: intentional process lifetime
  return instance;
}

std::uint64_t current_trace_id() {
  const ThreadState& ts = t_state;
  if (ts.stack.empty() || !ts.stack.back().sampled) {
    return 0;
  }
  return ts.stack.back().trace_id;
}

std::uint64_t current_span_id() {
  const ThreadState& ts = t_state;
  if (ts.stack.empty() || !ts.stack.back().sampled) {
    return 0;
  }
  return ts.stack.back().span_id;
}

void span_attr(std::string_view key, std::string_view value) {
  ThreadState& ts = t_state;
  if (ts.stack.empty() || !ts.stack.back().sampled) {
    return;
  }
  ts.stack.back().attrs.push_back(
      SpanAttr{std::string(key), std::string(value)});
}

void span_attr(std::string_view key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%g", value);
  span_attr(key, std::string_view(buf));
}

void span_attr(std::string_view key, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  span_attr(key, std::string_view(buf));
}

double monotonic_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Span::Span(std::string_view name) {
  if (tracing_active()) {
    traced_ = trace_detail::begin_span(name);
  }
}

Span::~Span() {
  if (traced_) {
    trace_detail::end_span();
  }
}

std::string format_span_id(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, id);
  return std::string(buf);
}

namespace trace_detail {

bool begin_span(std::string_view name) {
  if (!tracing_active()) {
    return false;
  }
  TracerCore& c = core();
  ThreadState& ts = t_state;
  Frame frame;
  if (ts.stack.empty()) {
    c.traces_started.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t n = c.trace_counter.fetch_add(1, std::memory_order_relaxed);
    frame.sampled = c.sample_every <= 1 || n % c.sample_every == 0;
    if (frame.sampled) {
      c.traces_sampled.fetch_add(1, std::memory_order_relaxed);
      frame.trace_id = next_id(c);
      frame.span_id = next_id(c);
    }
  } else {
    const Frame& parent = ts.stack.back();
    frame.sampled = parent.sampled;
    if (frame.sampled) {
      frame.trace_id = parent.trace_id;
      frame.parent_id = parent.span_id;
      frame.span_id = next_id(c);
    }
  }
  if (frame.sampled) {
    frame.name.assign(name.data(), name.size());
    frame.start_s = clock_now(c);
  }
  ts.stack.push_back(std::move(frame));
  return true;
}

void end_span() {
  ThreadState& ts = t_state;
  if (ts.stack.empty()) {
    return;
  }
  Frame frame = std::move(ts.stack.back());
  ts.stack.pop_back();
  if (!frame.sampled) {
    return;
  }
  TracerCore& c = core();
  SpanRecord record;
  record.trace_id = frame.trace_id;
  record.span_id = frame.span_id;
  record.parent_id = frame.parent_id;
  record.name = std::move(frame.name);
  record.start_s = frame.start_s;
  record.end_s = clock_now(c);
  record.attrs = std::move(frame.attrs);
  // The flight recorder taps every completed span independently of the
  // collector, so a post-mortem dump never competes with drain().
  if (auto* tap = c.flight_tap.load(std::memory_order_relaxed)) {
    tap(record);
  }
  if (!c.session_active.load(std::memory_order_relaxed)) {
    return;  // flight-only mode: no collector session, nothing to ring
  }
  Lane* lane = lane_for(c, ts);
  record.thread = lane->thread;
  if (lane->try_push(std::move(record))) {
    c.spans_recorded.fetch_add(1, std::memory_order_relaxed);
  } else {
    c.spans_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void set_flight_tap(void (*tap)(const SpanRecord&)) {
  TracerCore& c = core();
  const std::lock_guard<std::mutex> lock(c.mutex);
  c.flight_tap.store(tap, std::memory_order_relaxed);
  update_gate(c);
}

}  // namespace trace_detail

}  // namespace pwx::obs

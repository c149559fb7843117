// Cross-process span buffer for the traced benchmark run.
//
// The harness maps one MAP_SHARED region before it constructs a Force, so
// thread members, os-fork children (pooled or not) and cluster peers all
// write into the same pages. Each member owns one slot and is its only
// writer; the thread calling Force::run owns the last slot. Only spans
// travel through this mapping: a cluster program's data still goes over
// the wire.
//
// Spans are recorded in the benchmark's own code, around each call into a
// Force layer (Force::run, selfsched_do, barrier, reduce_into, Askfor
// work/put, produce/consume). A span's child_ns holds the time of the
// benchmark code it wraps (loop bodies, task bodies), so a layer's self
// time is the span minus its children.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/timing.hpp"

namespace perfbench {

inline std::int64_t now() { return force::util::now_ns(); }

enum class Kind : std::uint32_t {
  kBody,     ///< a member's whole program body (caller slot: Force::run)
  kDoall,    ///< selfsched_do call; child = loop bodies, n = iterations
  kReduce,   ///< reduce_into call
  kBarrier,  ///< barrier call; idx = episode
  kSection,  ///< barrier section body; idx = episode of its barrier
  kWork,     ///< Askfor::work call; child = task bodies, n = tasks
  kTask,     ///< one Askfor task body; child = its put calls
  kPut,      ///< Askfor::put call
  kProduce,  ///< async produce; idx = item
  kConsume,  ///< async consume; idx = item
};

struct Span {
  Kind kind;
  std::uint32_t idx;
  std::int64_t t0;
  std::int64_t t1;
  std::int64_t child_ns;
  std::int64_t n;
};

/// Spans one slot holds for one run (the pipeline's middle stages record
/// two per item).
constexpr std::size_t kSlotSpans = std::size_t{1} << 16;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::int64_t> pid{0};
  std::atomic<std::uint32_t> overflow{0};
  Span spans[kSlotSpans];
};

/// Header of the mapping; `slots` Slot records follow it.
struct alignas(64) SpanBuffer {
  std::atomic<std::uint32_t> enabled{0};
  int slots = 0;
};

inline Slot& slot_at(SpanBuffer* buf, int i) {
  return reinterpret_cast<Slot*>(buf + 1)[i];
}

/// Maps the shared buffer with one slot per member plus a caller slot.
/// Must be called before the Force is constructed.
SpanBuffer* map_span_buffer(int np);

/// Per-member recording handle; `on` is read once per program body.
class Recorder {
 public:
  Recorder(SpanBuffer* buf, int slot);
  [[nodiscard]] bool on() const { return slot_ != nullptr; }
  void add(Kind k, std::uint32_t idx, std::int64_t t0, std::int64_t t1,
           std::int64_t child_ns = 0, std::int64_t n = 0) {
    const std::uint64_t c = slot_->count.load(std::memory_order_relaxed);
    if (c >= kSlotSpans) {
      slot_->overflow.store(1, std::memory_order_relaxed);
      return;
    }
    slot_->spans[c] = Span{k, idx, t0, t1, child_ns, n};
    slot_->count.store(c + 1, std::memory_order_release);
  }
  /// Runs `f` inside a span of kind `k` when recording.
  template <typename F>
  void call(Kind k, std::uint32_t idx, F&& f) {
    if (!on()) {
      f();
      return;
    }
    const std::int64_t t0 = now();
    f();
    add(k, idx, t0, now());
  }

 private:
  Slot* slot_ = nullptr;
};

/// Per-layer numbers folded from the spans of one traced run. Each map
/// entry is one metric's value for that run; absent means "the layer was
/// not exercised in this run".
using RunLayerValues = std::map<std::string, double>;

/// Reads every slot after Force::run returned, computes the per-run layer
/// values, then empties the slots for the next run. Returns false when a
/// slot overflowed.
bool fold_run(SpanBuffer* buf, int np, RunLayerValues* out);

/// Pids the members recorded in the last traced run (0 = none).
std::vector<std::int64_t> member_pids(SpanBuffer* buf, int np);

}  // namespace perfbench

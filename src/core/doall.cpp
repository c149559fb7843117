#include "core/doall.hpp"

#include "core/env.hpp"
#include "core/sentry.hpp"
#include "util/check.hpp"
#include "util/timing.hpp"
#include "util/trace.hpp"

namespace force::core {

std::int64_t loop_trip_count(std::int64_t start, std::int64_t last,
                             std::int64_t incr) {
  FORCE_CHECK(incr != 0, "DO loop increment must be nonzero");
  if (incr > 0) {
    if (start > last) return 0;
    return (last - start) / incr + 1;
  }
  if (start < last) return 0;
  return (start - last) / (-incr) + 1;
}

void presched_do(int me0, int np, std::int64_t start, std::int64_t last,
                 std::int64_t incr,
                 const std::function<void(std::int64_t)>& body) {
  FORCE_CHECK(np > 0 && me0 >= 0 && me0 < np, "bad presched process id");
  const std::int64_t trips = loop_trip_count(start, last, incr);
  // Cyclic deal: process me0 takes trips me0, me0+np, me0+2np, ...
  for (std::int64_t t = me0; t < trips; t += np) {
    body(start + t * incr);
  }
}

void presched_do2(int me0, int np, std::int64_t i_start, std::int64_t i_last,
                  std::int64_t i_incr, std::int64_t j_start,
                  std::int64_t j_last, std::int64_t j_incr,
                  const std::function<void(std::int64_t, std::int64_t)>& body) {
  FORCE_CHECK(np > 0 && me0 >= 0 && me0 < np, "bad presched process id");
  const std::int64_t i_trips = loop_trip_count(i_start, i_last, i_incr);
  const std::int64_t j_trips = loop_trip_count(j_start, j_last, j_incr);
  const std::int64_t total = i_trips * j_trips;
  for (std::int64_t t = me0; t < total; t += np) {
    const std::int64_t i_idx = t / j_trips;
    const std::int64_t j_idx = t % j_trips;
    body(i_start + i_idx * i_incr, j_start + j_idx * j_incr);
  }
}

// ---------------------------------------------------------------------------
// SelfschedLoop - the paper's macro expansion, object-ified.
//
//   entry:  lock(BARWIN); if first arriver, initialize the dispatch
//           counter; report arrival; the LAST arriver unlocks BARWOT
//           (exits may now drain), every other arriver unlocks BARWIN
//           (the next process may enter).
//   body:   claim trips from the DispatchCounter - one fetch-add on
//           hardware-RMW machines, one generic-lock pass (the paper's
//           lock(LOOP); K = K_shared; K_shared = K + INCR; unlock(LOOP))
//           on lock-only machines. If the claim is nonempty, execute and
//           repeat; otherwise fall through.
//   exit:   lock(BARWOT); report departure; the LAST process out unlocks
//           BARWIN (the loop may be re-entered), every other unlocks
//           BARWOT. There is deliberately NO exit barrier: a process
//           leaves as soon as it draws an exhausted claim.
// ---------------------------------------------------------------------------

SelfschedLoop::SelfschedLoop(ForceEnvironment& env, int width,
                             const std::string& key)
    : env_(env), width_(width) {
  FORCE_CHECK(width_ > 0, "selfsched loop width must be positive");
  // The barwin/barwot labels are per-construct-kind, not per-site, so they
  // cannot key cross-process state. Separate-process backends key the
  // whole episode by the construct's site key instead.
  const std::string site = key.empty() ? "anon" : key;
  shared_dispatch_ = env.backend().make_dispatch_engine(site);
  if (shared_dispatch_ != nullptr) {
    entry_ = env.make_team_barrier(width_, "%ssdo/" + site + "/entry");
    bounds_ = &env.arena().get_or_create<Bounds>("%ssdo/" + site);
    return;
  }
  barwin_ = env.new_lock(machdep::LockRole::kSemaphore, "doall.barwin");
  barwot_ = env.new_lock(machdep::LockRole::kSemaphore, "doall.barwot");
  dispatch_ = env.new_dispatch_counter();
  barwot_->acquire();  // exits blocked until all have entered the episode
}

bool SelfschedLoop::enter_episode(int me0, std::int64_t start,
                                  std::int64_t last, std::int64_t incr) {
  if (shared_dispatch_ != nullptr) {
    // Champion episode barrier, across address spaces: the last arriver
    // publishes the bounds and re-arms the dispatch while every other
    // process is provably parked on the episode entry, then releases
    // them. No process can be inside the claim loop of the *previous*
    // episode at that moment, because it would not have arrived here yet -
    // so there is still no exit barrier, exactly as in the thread
    // expansion.
    const std::int64_t trips = loop_trip_count(start, last, incr);
    entry_->arrive(me0, [this, start, last, incr, trips] {
      *bounds_ = Bounds{start, last, incr, trips};
      shared_dispatch_->reset();
    });
    start_ = bounds_->start;
    last_ = bounds_->last;
    incr_ = bounds_->incr;
    trips_ = bounds_->trips;
    return last == last_ && incr == incr_;
  }
  bool ok = true;
  barwin_->acquire();
  if (zznbar_ == 0) {
    start_ = start;
    last_ = last;
    incr_ = incr;
    trips_ = loop_trip_count(start, last, incr);
    // Gate-guarded single-writer reset; the BARWIN release publishes it.
    dispatch_->reset(0);
  } else {
    // SPMD discipline: every process must reach this site with the same
    // bounds. A divergent call would silently corrupt the distribution on
    // a real Force; here it is detected - but the arrival must still be
    // counted and the gates released, or the compliant processes would be
    // wedged in the exit protocol forever.
    ok = (last == last_ && incr == incr_);
  }
  ++zznbar_;
  if (zznbar_ == width_) {
    barwot_->release();
  } else {
    barwin_->release();
  }
  return ok;
}

void SelfschedLoop::leave_episode() {
  // Re-entry fenced by the entry barrier on keyed backends.
  if (shared_dispatch_ != nullptr) return;
  barwot_->acquire();
  --zznbar_;
  if (zznbar_ == 0) {
    barwin_->release();
  } else {
    barwot_->release();
  }
}

void SelfschedLoop::run(int me0, std::int64_t start, std::int64_t last,
                        std::int64_t incr,
                        const std::function<void(std::int64_t)>& body,
                        std::int64_t chunk) {
  FORCE_CHECK(me0 >= 0 && me0 < width_, "bad selfsched process id");
  FORCE_CHECK(chunk >= 1, "chunk must be >= 1");
  const bool spmd_ok = enter_episode(me0, start, last, incr);
  // Departure must be reported even if the body throws, or the loop could
  // never be re-entered by the remaining processes.
  struct Departure {
    SelfschedLoop* loop;
    ~Departure() { loop->leave_episode(); }
  } departure{this};
  FORCE_CHECK(spmd_ok, "selfsched DO reached with divergent loop bounds");
  util::Tracer* tracer = env_.tracer();
  const std::int64_t trace_begin = tracer ? util::now_ns() : 0;
  // Stats are tallied per process and flushed once per episode: two shared
  // fetch-adds per *claim* would serialize the processes on the stats
  // cache lines and swamp the lock-free dispatch itself. Flushed from the
  // departure guard so a throwing body still reports its progress.
  struct EpisodeStats {
    RuntimeStats& stats;
    std::uint64_t dispatches = 0;
    std::uint64_t iterations = 0;
    ~EpisodeStats() {
      stats.doall_dispatches.fetch_add(dispatches, std::memory_order_relaxed);
      stats.doall_iterations.fetch_add(iterations, std::memory_order_relaxed);
    }
  } tally{env_.stats()};
  // Bounds are episode-stable (SPMD-checked above), so the hot loop works
  // from the call arguments; trips_ was fixed by the first arriver.
  const std::int64_t trips = trips_;
  Sentry* sentry = env_.sentry();
  for (;;) {
    // The lock-free claim has no lock hook, so the fuzzer perturbs here.
    if (sentry != nullptr) sentry->fuzz();
    const machdep::DispatchClaim c =
        shared_dispatch_ != nullptr ? shared_dispatch_->claim(chunk, trips)
                                    : dispatch_->claim(chunk, trips);
    ++tally.dispatches;
    if (tracer) {
      tracer->instant(me0, util::TraceKind::kLoopDispatch,
                      start + c.begin * incr);
    }
    if (c.count == 0) break;
    for (std::int64_t t = c.begin; t < c.begin + c.count; ++t) {
      body(start + t * incr);
      ++tally.iterations;
    }
  }
  if (tracer) {
    tracer->record(me0, util::TraceKind::kLoopRun, trace_begin,
                   util::now_ns());
  }
}

void SelfschedLoop::run_guided(int me0, std::int64_t start, std::int64_t last,
                               std::int64_t incr,
                               const std::function<void(std::int64_t)>& body) {
  FORCE_CHECK(me0 >= 0 && me0 < width_, "bad selfsched process id");
  const bool spmd_ok = enter_episode(me0, start, last, incr);
  struct Departure {
    SelfschedLoop* loop;
    ~Departure() { loop->leave_episode(); }
  } departure{this};
  FORCE_CHECK(spmd_ok, "selfsched DO reached with divergent loop bounds");
  util::Tracer* tracer = env_.tracer();
  const std::int64_t trace_begin = tracer ? util::now_ns() : 0;
  // Per-process tally, flushed once per episode (see run()).
  struct EpisodeStats {
    RuntimeStats& stats;
    std::uint64_t dispatches = 0;
    std::uint64_t iterations = 0;
    ~EpisodeStats() {
      stats.doall_dispatches.fetch_add(dispatches, std::memory_order_relaxed);
      stats.doall_iterations.fetch_add(iterations, std::memory_order_relaxed);
    }
  } tally{env_.stats()};
  const std::int64_t trips = trips_;
  Sentry* sentry = env_.sentry();
  for (;;) {
    if (sentry != nullptr) sentry->fuzz();
    // Guided selfscheduling: claim a fraction of the remaining trips so
    // early claims are big (low dispatch overhead) and late claims small
    // (good load balance at the tail). On the lock-free engine this is a
    // CAS loop on the remaining-trips value.
    const machdep::DispatchClaim c =
        shared_dispatch_ != nullptr
            ? shared_dispatch_->claim_fraction(trips, 2 * width_)
            : dispatch_->claim_fraction(trips, 2 * width_);
    ++tally.dispatches;
    if (tracer) {
      tracer->instant(me0, util::TraceKind::kLoopDispatch,
                      start + c.begin * incr);
    }
    if (c.count == 0) break;
    for (std::int64_t t = c.begin; t < c.begin + c.count; ++t) {
      body(start + t * incr);
      ++tally.iterations;
    }
  }
  if (tracer) {
    tracer->record(me0, util::TraceKind::kLoopRun, trace_begin,
                   util::now_ns());
  }
}

Selfsched2Loop::Selfsched2Loop(ForceEnvironment& env, int width,
                               const std::string& key)
    : flat_(env, width, key) {}

void Selfsched2Loop::run(
    int me0, std::int64_t i_start, std::int64_t i_last, std::int64_t i_incr,
    std::int64_t j_start, std::int64_t j_last, std::int64_t j_incr,
    const std::function<void(std::int64_t, std::int64_t)>& body,
    std::int64_t chunk) {
  const std::int64_t i_trips = loop_trip_count(i_start, i_last, i_incr);
  const std::int64_t j_trips = loop_trip_count(j_start, j_last, j_incr);
  const std::int64_t total = i_trips * j_trips;
  // Dispatch over the flattened pair space; the body unflattens.
  flat_.run(
      me0, 0, total - 1, 1,
      [&](std::int64_t t) {
        const std::int64_t i_idx = t / j_trips;
        const std::int64_t j_idx = t % j_trips;
        body(i_start + i_idx * i_incr, j_start + j_idx * j_incr);
      },
      chunk);
}

}  // namespace force::core

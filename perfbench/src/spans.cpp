#include "spans.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {

SpanBuffer* map_span_buffer(int np) {
  const std::size_t bytes =
      sizeof(SpanBuffer) + static_cast<std::size_t>(np + 1) * sizeof(Slot);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    std::perror("forcebench: mmap span buffer");
    std::exit(2);
  }
  // Fresh anonymous pages are zero, so constructing only the header and
  // the slots' counters touches one page per slot.
  auto* buf = ::new (p) SpanBuffer();
  buf->slots = np + 1;
  for (int i = 0; i <= np; ++i) {
    Slot& s = slot_at(buf, i);
    ::new (&s.count) std::atomic<std::uint64_t>(0);
    ::new (&s.pid) std::atomic<std::int64_t>(0);
    ::new (&s.overflow) std::atomic<std::uint32_t>(0);
  }
  return buf;
}

Recorder::Recorder(SpanBuffer* buf, int slot) {
  if (buf->enabled.load(std::memory_order_acquire) == 0) return;
  slot_ = &slot_at(buf, slot);
  slot_->pid.store(::getpid(), std::memory_order_relaxed);
}

std::vector<std::int64_t> member_pids(SpanBuffer* buf, int np) {
  std::vector<std::int64_t> pids;
  for (int m = 0; m < np; ++m) {
    pids.push_back(slot_at(buf, m).pid.load(std::memory_order_relaxed));
  }
  return pids;
}

namespace {

double mean_of(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Per-episode view of a team-wide construct (barrier or reduce): every
/// member calls it the same number of times per run, so the k-th call of
/// each member belongs to episode k.
struct EpisodeStats {
  int episodes = 0;
  double release_ns = 0.0;  ///< first departure - max(last arrival, section end)
  double wait_ns = 0.0;     ///< per member and episode, own section excluded
  double section_ns = 0.0;
  int sections = 0;
};

/// `section` may be null: the construct has no section.
EpisodeStats episodes(const std::vector<std::vector<Span>>& per, int np,
                      Kind call, const Kind* section) {
  EpisodeStats st;
  std::vector<std::vector<const Span*>> calls(static_cast<std::size_t>(np));
  std::map<std::uint32_t, std::pair<int, const Span*>> secs;
  for (int m = 0; m < np; ++m) {
    for (const Span& s : per[static_cast<std::size_t>(m)]) {
      if (s.kind == call) calls[static_cast<std::size_t>(m)].push_back(&s);
      if (section != nullptr && s.kind == *section) secs[s.idx] = {m, &s};
    }
  }
  std::size_t eps = calls[0].size();
  for (const auto& c : calls) eps = std::min(eps, c.size());
  double release = 0.0;
  double wait = 0.0;
  double sec_total = 0.0;
  for (std::size_t k = 0; k < eps; ++k) {
    std::int64_t last_arrival = calls[0][k]->t0;
    std::int64_t first_departure = calls[0][k]->t1;
    for (const auto& c : calls) {
      last_arrival = std::max(last_arrival, c[k]->t0);
      first_departure = std::min(first_departure, c[k]->t1);
    }
    std::int64_t gate = last_arrival;
    int executor = -1;
    std::int64_t sec_ns = 0;
    const auto it = secs.find(calls[0][k]->idx);
    if (it != secs.end()) {
      executor = it->second.first;
      sec_ns = it->second.second->t1 - it->second.second->t0;
      gate = std::max(gate, it->second.second->t1);
      sec_total += static_cast<double>(sec_ns);
      st.sections += 1;
    }
    release += static_cast<double>(first_departure - gate);
    for (int m = 0; m < np; ++m) {
      const Span* s = calls[static_cast<std::size_t>(m)][k];
      wait += static_cast<double>(s->t1 - s->t0 - (m == executor ? sec_ns : 0));
    }
  }
  st.episodes = static_cast<int>(eps);
  if (eps > 0) {
    st.release_ns = release / static_cast<double>(eps);
    st.wait_ns = wait / static_cast<double>(eps * static_cast<std::size_t>(np));
  }
  if (st.sections > 0) st.section_ns = sec_total / st.sections;
  return st;
}

}  // namespace

bool fold_run(SpanBuffer* buf, int np, RunLayerValues* out) {
  std::vector<std::vector<Span>> per(static_cast<std::size_t>(np + 1));
  bool overflow = false;
  for (int i = 0; i <= np; ++i) {
    Slot& s = slot_at(buf, i);
    const std::uint64_t n = s.count.load(std::memory_order_acquire);
    per[static_cast<std::size_t>(i)].assign(s.spans, s.spans + n);
    overflow = overflow || s.overflow.load(std::memory_order_relaxed) != 0;
    s.count.store(0, std::memory_order_relaxed);
    s.overflow.store(0, std::memory_order_relaxed);
  }
  if (overflow) return false;
  RunLayerValues& v = *out;
  const auto slot = [&](int m) -> const std::vector<Span>& {
    return per[static_cast<std::size_t>(m)];
  };

  // force: Force::run (caller slot) against the members' body spans.
  const Span* run = nullptr;
  for (const Span& s : slot(np)) {
    if (s.kind == Kind::kBody) run = &s;
  }
  std::vector<const Span*> bodies;
  for (int m = 0; m < np; ++m) {
    for (const Span& s : slot(m)) {
      if (s.kind == Kind::kBody) bodies.push_back(&s);
    }
  }
  if (run != nullptr && static_cast<int>(bodies.size()) == np) {
    std::int64_t first_start = bodies[0]->t0;
    std::int64_t last_start = bodies[0]->t0;
    std::int64_t last_end = bodies[0]->t1;
    for (const Span* b : bodies) {
      first_start = std::min(first_start, b->t0);
      last_start = std::max(last_start, b->t0);
      last_end = std::max(last_end, b->t1);
    }
    v["force.entry_us"] = static_cast<double>(last_start - run->t0) / 1e3;
    v["force.join_us"] = static_cast<double>(run->t1 - last_end) / 1e3;
    v["force.start_skew_us"] =
        static_cast<double>(last_start - first_start) / 1e3;
  }

  // doall: call time minus loop-body self time, per iteration.
  {
    std::int64_t call = 0;
    std::int64_t child = 0;
    std::int64_t iters = 0;
    std::vector<double> busy(static_cast<std::size_t>(np), 0.0);
    for (int m = 0; m < np; ++m) {
      for (const Span& s : slot(m)) {
        if (s.kind != Kind::kDoall) continue;
        call += s.t1 - s.t0;
        child += s.child_ns;
        iters += s.n;
        busy[static_cast<std::size_t>(m)] += static_cast<double>(s.child_ns);
      }
    }
    if (iters > 0) {
      v["doall.overhead_ns_per_iter"] =
          static_cast<double>(call - child) / static_cast<double>(iters);
      const double mean = mean_of(busy);
      if (mean > 0.0) {
        v["doall.imbalance"] = *std::max_element(busy.begin(), busy.end()) / mean;
      }
    }
  }

  const Kind section = Kind::kSection;
  const EpisodeStats bar = episodes(per, np, Kind::kBarrier, &section);
  if (bar.episodes > 0) {
    v["barrier.release_us"] = bar.release_ns / 1e3;
    v["barrier.wait_us"] = bar.wait_ns / 1e3;
    v["barrier.episodes_per_run"] = bar.episodes;
    if (bar.sections > 0) v["barrier.section_us"] = bar.section_ns / 1e3;
  }
  const EpisodeStats red = episodes(per, np, Kind::kReduce, nullptr);
  if (red.episodes > 0) {
    v["reduce.release_us"] = red.release_ns / 1e3;
    v["reduce.wait_us"] = red.wait_ns / 1e3;
  }

  // askfor: work() time not spent in task bodies is grant/steal/termination.
  {
    double work = 0.0;
    double tasks_ns = 0.0;
    double puts_ns = 0.0;
    std::int64_t tasks = 0;
    std::int64_t puts = 0;
    std::int64_t last_task_end = 0;
    std::int64_t last_work_end = 0;
    std::vector<double> per_member(static_cast<std::size_t>(np), 0.0);
    for (int m = 0; m < np; ++m) {
      for (const Span& s : slot(m)) {
        const auto d = static_cast<double>(s.t1 - s.t0);
        if (s.kind == Kind::kWork) {
          work += d;
          last_work_end = std::max(last_work_end, s.t1);
        } else if (s.kind == Kind::kTask) {
          tasks_ns += d;
          tasks += 1;
          per_member[static_cast<std::size_t>(m)] += 1.0;
          last_task_end = std::max(last_task_end, s.t1);
        } else if (s.kind == Kind::kPut) {
          puts_ns += d;
          puts += 1;
        }
      }
    }
    if (tasks > 0) {
      v["askfor.overhead_ns_per_task"] =
          (work - tasks_ns) / static_cast<double>(tasks);
      v["askfor.drain_us"] =
          static_cast<double>(last_work_end - last_task_end) / 1e3;
      v["askfor.tasks_max_over_mean"] =
          *std::max_element(per_member.begin(), per_member.end()) /
          mean_of(per_member);
    }
    if (puts > 0) v["askfor.put_ns"] = puts_ns / static_cast<double>(puts);
  }

  // async: member m produces into link m, member m+1 consumes from it, in
  // item order on both sides.
  {
    double handoff = 0.0;
    std::int64_t handoffs = 0;
    double prod_ns = 0.0;
    std::int64_t prods = 0;
    double cons_ns = 0.0;
    std::int64_t conss = 0;
    for (int m = 0; m < np; ++m) {
      for (const Span& s : slot(m)) {
        if (s.kind == Kind::kProduce) {
          prod_ns += static_cast<double>(s.t1 - s.t0);
          prods += 1;
        } else if (s.kind == Kind::kConsume) {
          cons_ns += static_cast<double>(s.t1 - s.t0);
          conss += 1;
        }
      }
    }
    for (int m = 0; m + 1 < np; ++m) {
      std::vector<const Span*> p;
      std::vector<const Span*> c;
      for (const Span& s : slot(m)) {
        if (s.kind == Kind::kProduce) p.push_back(&s);
      }
      for (const Span& s : slot(m + 1)) {
        if (s.kind == Kind::kConsume) c.push_back(&s);
      }
      const std::size_t k = std::min(p.size(), c.size());
      for (std::size_t i = 0; i < k; ++i) {
        if (p[i]->idx != c[i]->idx) continue;
        handoff += static_cast<double>(c[i]->t1 - p[i]->t0);
        handoffs += 1;
      }
    }
    if (handoffs > 0) {
      v["async.handoff_ns"] = handoff / static_cast<double>(handoffs);
    }
    if (prods > 0) v["async.produce_block_ns"] = prod_ns / static_cast<double>(prods);
    if (conss > 0) v["async.consume_block_ns"] = cons_ns / static_cast<double>(conss);
  }
  return true;
}

}  // namespace perfbench

// The four benchmark workloads, each a Force program written against the
// public API (force::Force, Ctx, ForceConfig) plus its sequential oracle.
//
// Answers are bit-identical to the oracle by construction: per-cell and
// per-node values come from the same inline helpers on both paths, and
// every reduction is exact (max, wrapping integer sums) or serialized in
// index order inside a barrier section.
//
// Every program body takes a Recorder: when the span buffer is enabled it
// wraps each call into a Force layer in a span; otherwise each wrapper is
// one predictable branch.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/force.hpp"
#include "spans.hpp"

namespace perfbench {

/// splitmix64: drives the tree shape, node work and stream payloads.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Input salt for a seed; seed 0 leaves the inputs unsalted.
inline std::uint64_t seed_salt(std::uint64_t seed) {
  return seed == 0 ? 0 : mix64(seed ^ 0x666f726365ull);
}

/// Span buffer shared by every member; set before any Force exists.
inline SpanBuffer* g_spans = nullptr;

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::vector<std::string> models() const = 0;
  /// Typical wall time of one run under `model` on a 4-CPU Xeon host. It
  /// fixes how many runs a --seconds budget buys, so two commits measured
  /// with the same budget do the same work.
  [[nodiscard]] virtual double nominal_ms(const std::string& model) const = 0;
  /// speedup_vs_seq is reported only where the oracle is real work.
  [[nodiscard]] virtual bool has_speedup() const { return true; }
  /// One line describing the input, and how the seed enters it.
  [[nodiscard]] virtual std::string describe() const = 0;
  /// Runs the sequential oracle once (timed by the caller).
  virtual void oracle_once() = 0;
  /// Flips one bit of the oracle's answer (self-test of the checker).
  virtual void corrupt_oracle() = 0;
  /// Places the shared state in `f` and returns the program. Under os-fork
  /// pooling every run must execute this same closure, so per-run inputs
  /// live in the shared state.
  virtual std::function<void(force::Ctx&)> bind(force::Force& f) = 0;
  /// Resets the shared state for run `run` (outside the timed region).
  virtual void prepare(std::int64_t run) = 0;
  /// Compares run `run`'s answer to the oracle; "" when it matches.
  [[nodiscard]] virtual std::string check(std::int64_t run) = 0;
};

// --- cmfd: CMFD power iteration on a square mesh --------------------------

constexpr int kCmfdMax = 50;  ///< row stride: interior meshes up to 48x48

struct CmfdState {
  std::array<double, kCmfdMax * kCmfdMax> flux;
  std::array<double, kCmfdMax * kCmfdMax> next;
  std::array<double, kCmfdMax * kCmfdMax> surfx;  ///< east-face currents
  std::array<double, kCmfdMax * kCmfdMax> surfy;  ///< north-face currents
  double keff;
  double fiss_old;
  double resid;
  double leakage;
  std::int64_t iters;
  std::int64_t done;
};

inline double cmfd_nu_sig_f(int i, int j) { return ((i + j) & 1) ? 0.70 : 0.30; }
inline double cmfd_sig_r(int i, int j) { return ((i + j) & 1) ? 0.54 : 0.48; }
constexpr double kCmfdD = 1.0;

inline void cmfd_init(CmfdState& s, int n) {
  s.flux.fill(0.0);
  s.next.fill(0.0);
  s.surfx.fill(0.0);
  s.surfy.fill(0.0);
  s.fiss_old = 0.0;
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) {
      s.flux[i * kCmfdMax + j] = 1.0;
      s.fiss_old += cmfd_nu_sig_f(i, j);
    }
  }
  s.keff = 1.0;
  s.resid = 0.0;
  s.leakage = 0.0;
  s.iters = 0;
  s.done = 0;
}

/// One row of the diffusion sweep; writes only row i's next/surface
/// entries and returns the row's max flux change.
inline double cmfd_sweep_row(CmfdState& s, int n, int i) {
  double rowmax = 0.0;
  const int base = i * kCmfdMax;
  for (int j = 1; j <= n; ++j) {
    const double nbr = s.flux[base - kCmfdMax + j] + s.flux[base + kCmfdMax + j] +
                       s.flux[base + j - 1] + s.flux[base + j + 1];
    const double src = cmfd_nu_sig_f(i, j) * s.flux[base + j] / s.keff;
    const double updated = (src + kCmfdD * nbr) / (4.0 * kCmfdD + cmfd_sig_r(i, j));
    s.next[base + j] = updated;
    rowmax = std::max(rowmax, std::fabs(updated - s.flux[base + j]));
  }
  for (int j = 0; j <= n; ++j) {
    s.surfx[base + j] = -kCmfdD * (s.flux[base + j + 1] - s.flux[base + j]);
  }
  for (int j = 1; j <= n; ++j) {
    s.surfy[base + j] = -kCmfdD * (s.flux[base + kCmfdMax + j] - s.flux[base + j]);
    if (i == 1) s.surfy[j] = -kCmfdD * (s.flux[kCmfdMax + j] - s.flux[j]);
  }
  return rowmax;
}

/// Eigenvalue fold, run by one process per iteration; sums in index order.
inline void cmfd_fold(CmfdState& s, int n, double tol) {
  double fiss_new = 0.0;
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) fiss_new += cmfd_nu_sig_f(i, j) * s.next[i * kCmfdMax + j];
  }
  double leak = 0.0;
  for (int i = 1; i <= n; ++i) leak += s.surfx[i * kCmfdMax + n] - s.surfx[i * kCmfdMax];
  for (int j = 1; j <= n; ++j) leak += s.surfy[n * kCmfdMax + j] - s.surfy[j];
  s.leakage = leak;
  s.keff = s.keff * fiss_new / s.fiss_old;
  s.fiss_old = fiss_new;
  s.iters += 1;
  if (s.resid < tol) s.done = 1;
}

inline void cmfd_copy_row(CmfdState& s, int n, int i) {
  for (int j = 1; j <= n; ++j) s.flux[i * kCmfdMax + j] = s.next[i * kCmfdMax + j];
}

/// Iteration ceiling far above the solve's need: reaching it is a failure
/// (done stays 0), never a silent early stop.
constexpr std::int64_t kCmfdIterLimit = 100000;

inline void cmfd_oracle(CmfdState& s, int n, double tol) {
  cmfd_init(s, n);
  while (s.done == 0 && s.iters < kCmfdIterLimit) {
    double resid = 0.0;
    for (int i = 1; i <= n; ++i) resid = std::max(resid, cmfd_sweep_row(s, n, i));
    s.resid = resid;
    cmfd_fold(s, n, tol);
    for (int i = 1; i <= n; ++i) cmfd_copy_row(s, n, i);
  }
}

inline void cmfd_member(force::Ctx& ctx, Recorder& rec, CmfdState& s, int n,
                        double tol) {
  std::uint32_t bar_ep = 0;
  std::uint32_t red_ep = 0;
  while (true) {
    double localmax = 0.0;
    std::int64_t body_ns = 0;
    std::int64_t iters = 0;
    const std::int64_t d0 = rec.on() ? now() : 0;
    ctx.selfsched_do(FORCE_SITE, 1, n, 1, [&](std::int64_t i) {
      if (!rec.on()) {
        localmax = std::max(localmax, cmfd_sweep_row(s, n, static_cast<int>(i)));
        return;
      }
      const std::int64_t b0 = now();
      localmax = std::max(localmax, cmfd_sweep_row(s, n, static_cast<int>(i)));
      body_ns += now() - b0;
      iters += 1;
    });
    if (rec.on()) rec.add(Kind::kDoall, 0, d0, now(), body_ns, iters);
    // Max is exact in any order, and the reduction doubles as the sweep join.
    rec.call(Kind::kReduce, red_ep++, [&] {
      ctx.reduce_into<double>(FORCE_SITE, localmax, s.resid,
                              [](double a, double b) { return std::max(a, b); });
    });
    const std::uint32_t ep = bar_ep++;
    rec.call(Kind::kBarrier, ep, [&] {
      ctx.barrier([&] {
        const std::int64_t f0 = rec.on() ? now() : 0;
        cmfd_fold(s, n, tol);
        if (rec.on()) rec.add(Kind::kSection, ep, f0, now());
      });
    });
    ctx.presched_do(1, n, 1,
                    [&](std::int64_t i) { cmfd_copy_row(s, n, static_cast<int>(i)); });
    rec.call(Kind::kBarrier, bar_ep++, [&] { ctx.barrier(); });
    if (s.done != 0 || s.iters >= kCmfdIterLimit) break;
  }
}

class CmfdWorkload final : public Workload {
 public:
  CmfdWorkload(int n, double tol) : n_(n), tol_(tol) {
    oracle_ = std::make_unique<CmfdState>();
    scratch_ = std::make_unique<CmfdState>();
    cmfd_oracle(*oracle_, n_, tol_);
    if (oracle_->done != 1) {
      std::fprintf(stderr, "cmfd: oracle did not converge in %lld iterations\n",
                   static_cast<long long>(kCmfdIterLimit));
      std::exit(2);
    }
  }
  std::string name() const override { return "cmfd"; }
  std::vector<std::string> models() const override { return {"thread", "os-fork"}; }
  double nominal_ms(const std::string& model) const override {
    return model == "thread" ? 23.0 : 33.0;
  }
  std::string describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "cmfd: %dx%d mesh solved to residual < %g: %lld iterations, "
                  "k-eff %.6f, done=%lld; the seed is ignored (the mesh has no "
                  "random input)",
                  n_, n_, tol_, static_cast<long long>(oracle_->iters),
                  oracle_->keff, static_cast<long long>(oracle_->done));
    return buf;
  }
  void oracle_once() override {
    cmfd_oracle(*scratch_, n_, tol_);
    if (std::memcmp(&scratch_->keff, &oracle_->keff, sizeof(double)) != 0 &&
        !corrupted_) {
      std::fprintf(stderr, "cmfd: the sequential oracle is not repeatable\n");
      std::exit(2);
    }
  }
  void corrupt_oracle() override {
    corrupted_ = true;
    std::uint64_t bits;
    std::memcpy(&bits, &oracle_->keff, sizeof bits);
    bits ^= 1;
    std::memcpy(&oracle_->keff, &bits, sizeof bits);
  }
  std::function<void(force::Ctx&)> bind(force::Force& f) override {
    s_ = &f.shared<CmfdState>("cmfd_state");
    CmfdState* s = s_;
    const int n = n_;
    const double tol = tol_;
    return [s, n, tol](force::Ctx& ctx) {
      Recorder rec(g_spans, ctx.me0());
      const std::int64_t t0 = rec.on() ? now() : 0;
      cmfd_member(ctx, rec, *s, n, tol);
      if (rec.on()) rec.add(Kind::kBody, 0, t0, now());
    };
  }
  void prepare(std::int64_t /*run*/) override { cmfd_init(*s_, n_); }
  std::string check(std::int64_t /*run*/) override {
    const CmfdState& s = *s_;
    const CmfdState& o = *oracle_;
    if (s.done != 1) return "did not converge (done=" + std::to_string(s.done) + ")";
    if (s.iters != o.iters) {
      return "iterations " + std::to_string(s.iters) + " != oracle " +
             std::to_string(o.iters);
    }
    if (std::memcmp(s.flux.data(), o.flux.data(), sizeof o.flux) != 0) return "flux differs";
    if (std::memcmp(&s.keff, &o.keff, sizeof(double)) != 0) return "k-eff differs";
    if (std::memcmp(&s.leakage, &o.leakage, sizeof(double)) != 0) return "leakage differs";
    return "";
  }

 private:
  int n_;
  double tol_;
  bool corrupted_ = false;
  std::unique_ptr<CmfdState> oracle_;
  std::unique_ptr<CmfdState> scratch_;
  CmfdState* s_ = nullptr;
};

// --- tree: askfor-driven irregular tree reduction --------------------------

struct TreeShape {
  int full_depth;     ///< full binary down to here
  int max_depth;      ///< hash-decided single-child tails stop here
  int rounds;         ///< dependent hash rounds per node
  std::uint64_t salt; ///< salts the tail decision
};

inline int tree_depth(std::uint64_t id) { return 63 - __builtin_clzll(id); }

inline int tree_children(std::uint64_t id, const TreeShape& t) {
  const int d = tree_depth(id);
  if (d < t.full_depth) return 2;
  if (d < t.max_depth && (mix64(id ^ t.salt) & 1ull) != 0) return 1;
  return 0;
}

inline std::uint64_t tree_node_value(std::uint64_t id, int rounds) {
  std::uint64_t h = id;
  for (int r = 0; r < rounds; ++r) h = mix64(h);
  return h;
}

struct TreeShared {
  std::uint64_t sum;
  std::int64_t nodes;
};

inline TreeShared tree_oracle(const TreeShape& t) {
  TreeShared r{0, 0};
  std::vector<std::uint64_t> stack{1};
  while (!stack.empty()) {
    const std::uint64_t id = stack.back();
    stack.pop_back();
    r.sum += tree_node_value(id, t.rounds);
    r.nodes += 1;
    const int kids = tree_children(id, t);
    if (kids >= 1) stack.push_back(2 * id);
    if (kids == 2) stack.push_back(2 * id + 1);
  }
  return r;
}

inline void tree_member(force::Ctx& ctx, Recorder& rec, TreeShared& s,
                        const TreeShape& t) {
  auto& af = ctx.askfor<std::uint64_t>(FORCE_SITE);
  if (ctx.leader()) {
    s.sum = 0;
    s.nodes = 0;
    rec.call(Kind::kPut, 0, [&] { af.put(1); });
  }
  rec.call(Kind::kBarrier, 0, [&] { ctx.barrier(); });
  std::uint64_t local_sum = 0;
  std::int64_t local_nodes = 0;
  const std::int64_t w0 = rec.on() ? now() : 0;
  const std::size_t tasks =
      af.work([&](std::uint64_t& id, force::core::Askfor<std::uint64_t>& a) {
        const std::int64_t b0 = rec.on() ? now() : 0;
        local_sum += tree_node_value(id, t.rounds);
        local_nodes += 1;
        const int kids = tree_children(id, t);
        if (kids >= 1) rec.call(Kind::kPut, 0, [&] { a.put(2 * id); });
        if (kids == 2) rec.call(Kind::kPut, 0, [&] { a.put(2 * id + 1); });
        if (rec.on()) rec.add(Kind::kTask, 0, b0, now());
      });
  if (rec.on()) rec.add(Kind::kWork, 0, w0, now(), 0, static_cast<std::int64_t>(tasks));
  // Wrapping integer sums: exact under any combine order.
  rec.call(Kind::kReduce, 0, [&] {
    ctx.reduce_into<std::uint64_t>(FORCE_SITE, local_sum, s.sum,
                                   [](std::uint64_t a, std::uint64_t b) { return a + b; });
  });
  rec.call(Kind::kReduce, 1, [&] {
    ctx.reduce_into<std::int64_t>(FORCE_SITE, local_nodes, s.nodes,
                                  [](std::int64_t a, std::int64_t b) { return a + b; });
  });
  rec.call(Kind::kBarrier, 1, [&] { ctx.barrier(); });
}

class TreeWorkload final : public Workload {
 public:
  explicit TreeWorkload(TreeShape shape) : shape_(shape), oracle_(tree_oracle(shape)) {}
  std::string name() const override { return "tree"; }
  std::vector<std::string> models() const override { return {"thread", "os-fork"}; }
  double nominal_ms(const std::string& model) const override {
    return model == "thread" ? 4.7 : 5.3;
  }
  std::string describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "tree: %lld nodes (full binary to depth %d, hash tails to %d, "
                  "%d hash rounds per node); the seed salts the tail hash",
                  static_cast<long long>(oracle_.nodes), shape_.full_depth,
                  shape_.max_depth, shape_.rounds);
    return buf;
  }
  void oracle_once() override {
    const TreeShared r = tree_oracle(shape_);
    if (r.nodes != oracle_.nodes && !corrupted_) {
      std::fprintf(stderr, "tree: the sequential oracle is not repeatable\n");
      std::exit(2);
    }
  }
  void corrupt_oracle() override {
    corrupted_ = true;
    oracle_.sum ^= 1;
  }
  std::function<void(force::Ctx&)> bind(force::Force& f) override {
    s_ = &f.shared<TreeShared>("tree_totals");
    TreeShared* s = s_;
    const TreeShape t = shape_;
    return [s, t](force::Ctx& ctx) {
      Recorder rec(g_spans, ctx.me0());
      const std::int64_t t0 = rec.on() ? now() : 0;
      tree_member(ctx, rec, *s, t);
      if (rec.on()) rec.add(Kind::kBody, 0, t0, now());
    };
  }
  void prepare(std::int64_t /*run*/) override {
    s_->sum = ~std::uint64_t{0};
    s_->nodes = -1;
  }
  std::string check(std::int64_t /*run*/) override {
    if (s_->nodes != oracle_.nodes) {
      return "nodes " + std::to_string(s_->nodes) + " != oracle " +
             std::to_string(oracle_.nodes);
    }
    if (s_->sum != oracle_.sum) return "node-value sum differs";
    return "";
  }

 private:
  TreeShape shape_;
  TreeShared oracle_;
  bool corrupted_ = false;
  TreeShared* s_ = nullptr;
};

// --- pipeline: items through np stages over rings of async cells -----------

/// Ring depth per stage link: a producer runs this many items ahead.
constexpr std::int64_t kPipeRing = 4;

/// Hash rounds per stage and item (~0.6 us). With a few ns per stage the
/// run time was set by wake-up latency alone and followed the host's load
/// (one invocation's median twice another's); with this much, handoffs
/// and waits are still most of a run.
constexpr int kPipeWork = 128;

inline std::uint64_t pipe_stage(std::uint64_t v, int stage) {
  v ^= static_cast<std::uint64_t>(stage) << 32;
  for (int r = 0; r < kPipeWork; ++r) v = mix64(v);
  return v;
}

inline std::uint64_t pipe_input(std::int64_t i, std::uint64_t salt) {
  return static_cast<std::uint64_t>(i) ^ salt;
}

struct PipeShared {
  std::uint64_t sink;
  std::int64_t delivered;
};

inline std::uint64_t pipe_oracle(std::int64_t items, int stages, std::uint64_t salt) {
  std::uint64_t acc = 0;
  for (std::int64_t i = 0; i < items; ++i) {
    std::uint64_t v = pipe_input(i, salt);
    for (int p = 1; p <= stages; ++p) v = pipe_stage(v, p);
    acc += v;
  }
  return acc;
}

inline void pipe_member(force::Ctx& ctx, Recorder& rec, PipeShared& s,
                        std::int64_t items, std::uint64_t salt) {
  const int np = ctx.np();
  const int me = ctx.me();
  // Link L (between stage L+1 and L+2) owns cells [L*ring, (L+1)*ring);
  // item i travels in slot i % ring.
  auto& cells = ctx.async_array<std::uint64_t>(
      FORCE_SITE, static_cast<std::size_t>(np - 1) * kPipeRing);
  std::uint64_t acc = 0;
  for (std::int64_t i = 0; i < items; ++i) {
    const auto idx = static_cast<std::uint32_t>(i);
    std::uint64_t v;
    if (me == 1) {
      v = pipe_input(i, salt);
    } else {
      auto& cell = cells[static_cast<std::size_t>((me - 2) * kPipeRing + i % kPipeRing)];
      rec.call(Kind::kConsume, idx, [&] { v = cell.consume(); });
    }
    v = pipe_stage(v, me);
    if (me == np) {
      acc += v;
    } else {
      auto& cell = cells[static_cast<std::size_t>((me - 1) * kPipeRing + i % kPipeRing)];
      rec.call(Kind::kProduce, idx, [&] { cell.produce(v); });
    }
  }
  if (me == np) {
    ctx.critical(FORCE_SITE, [&] {
      s.sink = acc;
      s.delivered = items;
    });
  }
  rec.call(Kind::kBarrier, 0, [&] { ctx.barrier(); });
}

class PipelineWorkload final : public Workload {
 public:
  PipelineWorkload(std::int64_t items, int stages, std::uint64_t salt)
      : items_(items), stages_(stages), salt_(salt),
        oracle_(pipe_oracle(items, stages, salt)) {}
  std::string name() const override { return "pipeline"; }
  std::vector<std::string> models() const override { return {"thread", "os-fork"}; }
  double nominal_ms(const std::string& model) const override {
    return model == "thread" ? 8.0 : 10.5;
  }
  std::string describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "pipeline: %lld items through %d stages of %d hash rounds, "
                  "ring of %lld async cells per link; the seed salts the item "
                  "payloads",
                  static_cast<long long>(items_), stages_, kPipeWork,
                  static_cast<long long>(kPipeRing));
    return buf;
  }
  void oracle_once() override {
    if (pipe_oracle(items_, stages_, salt_) != oracle_ && !corrupted_) {
      std::fprintf(stderr, "pipeline: the sequential oracle is not repeatable\n");
      std::exit(2);
    }
  }
  void corrupt_oracle() override {
    corrupted_ = true;
    oracle_ ^= 1;
  }
  std::function<void(force::Ctx&)> bind(force::Force& f) override {
    s_ = &f.shared<PipeShared>("pipe_sink");
    PipeShared* s = s_;
    const std::int64_t items = items_;
    const std::uint64_t salt = salt_;
    return [s, items, salt](force::Ctx& ctx) {
      Recorder rec(g_spans, ctx.me0());
      const std::int64_t t0 = rec.on() ? now() : 0;
      pipe_member(ctx, rec, *s, items, salt);
      if (rec.on()) rec.add(Kind::kBody, 0, t0, now());
    };
  }
  void prepare(std::int64_t /*run*/) override {
    s_->sink = 0;
    s_->delivered = -1;
  }
  std::string check(std::int64_t /*run*/) override {
    if (s_->delivered != items_) return "delivered " + std::to_string(s_->delivered);
    if (s_->sink != oracle_) return "sink checksum differs";
    return "";
  }

 private:
  std::int64_t items_;
  int stages_;
  std::uint64_t salt_;
  std::uint64_t oracle_;
  bool corrupted_ = false;
  PipeShared* s_ = nullptr;
};

// --- short-forces: tiny forces back to back --------------------------------

constexpr int kShortIters = 64;  ///< 64 x 8 bytes = a 512-byte shared vector

struct ShortShared {
  std::uint64_t round;  ///< per-run input, written before each run
  std::uint64_t vec[kShortIters];
  std::uint64_t sum;
};

inline std::uint64_t short_value(std::uint64_t salt, std::uint64_t round, std::int64_t i) {
  return mix64(salt ^ (round << 8) ^ static_cast<std::uint64_t>(i));
}

inline void short_member(force::Ctx& ctx, Recorder& rec, ShortShared& s,
                         std::uint64_t salt) {
  std::uint64_t local = 0;
  std::int64_t body_ns = 0;
  std::int64_t iters = 0;
  const std::uint64_t round = s.round;
  const std::int64_t d0 = rec.on() ? now() : 0;
  ctx.selfsched_do(FORCE_SITE, 1, kShortIters, 1, [&](std::int64_t i) {
    const std::int64_t b0 = rec.on() ? now() : 0;
    const std::uint64_t v = short_value(salt, round, i);
    s.vec[i - 1] = v;
    local += v;
    if (rec.on()) {
      body_ns += now() - b0;
      iters += 1;
    }
  });
  if (rec.on()) rec.add(Kind::kDoall, 0, d0, now(), body_ns, iters);
  rec.call(Kind::kReduce, 0, [&] {
    ctx.reduce_into<std::uint64_t>(FORCE_SITE, local, s.sum,
                                   [](std::uint64_t a, std::uint64_t b) { return a + b; });
  });
  rec.call(Kind::kBarrier, 0, [&] { ctx.barrier(); });
}

class ShortForcesWorkload final : public Workload {
 public:
  explicit ShortForcesWorkload(std::uint64_t salt) : salt_(salt) {}
  std::string name() const override { return "short-forces"; }
  std::vector<std::string> models() const override {
    return {"thread", "os-fork", "cluster"};
  }
  double nominal_ms(const std::string& model) const override {
    return model == "thread" ? 0.12 : model == "os-fork" ? 0.048 : 3.5;
  }
  bool has_speedup() const override { return false; }
  std::string describe() const override {
    return "short-forces: each force is a " + std::to_string(kShortIters) +
           "-iteration selfsched DOALL over a " +
           std::to_string(kShortIters * 8) +
           "-byte shared vector, a sum reduce and a barrier; the seed and "
           "the run index salt the vector";
  }
  void oracle_once() override {
    std::uint64_t sum = 0;
    for (std::int64_t i = 1; i <= kShortIters; ++i) sum += short_value(salt_, 1, i);
    sink_ ^= sum;
  }
  void corrupt_oracle() override { corrupt_ = 1; }
  std::function<void(force::Ctx&)> bind(force::Force& f) override {
    s_ = &f.shared<ShortShared>("short_state");
    ShortShared* s = s_;
    const std::uint64_t salt = salt_;
    return [s, salt](force::Ctx& ctx) {
      Recorder rec(g_spans, ctx.me0());
      const std::int64_t t0 = rec.on() ? now() : 0;
      short_member(ctx, rec, *s, salt);
      if (rec.on()) rec.add(Kind::kBody, 0, t0, now());
    };
  }
  void prepare(std::int64_t run) override {
    s_->round = static_cast<std::uint64_t>(run) + 1;
    std::memset(s_->vec, 0, sizeof s_->vec);
    s_->sum = 0;
  }
  std::string check(std::int64_t run) override {
    const auto round = static_cast<std::uint64_t>(run) + 1;
    std::uint64_t sum = 0;
    for (std::int64_t i = 1; i <= kShortIters; ++i) {
      const std::uint64_t v = short_value(salt_, round, i);
      if (s_->vec[i - 1] != v) return "vector element " + std::to_string(i) + " differs";
      sum += v;
    }
    if (s_->sum != sum + corrupt_) return "reduced sum differs";
    return "";
  }

 private:
  std::uint64_t salt_;
  std::uint64_t corrupt_ = 0;
  std::uint64_t sink_ = 0;  ///< keeps oracle_once from being optimised away
  ShortShared* s_ = nullptr;
};

}  // namespace perfbench

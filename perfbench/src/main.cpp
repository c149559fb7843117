// forcebench: the repository benchmark.
//
//   forcebench --workload cmfd|tree|pipeline|short-forces --seed N
//              --seconds S --trace 0|1 [--tiny] [--corrupt-oracle]
//
// One workload per invocation, run at np = 4 on the native machine model
// with the default barrier, dispatch and spin settings, under each process
// model the workload names (thread = fresh thread team per run, os-fork =
// pooled fork team, cluster = fresh team per run). The loop is closed with one
// caller: the next Force::run starts when the previous one returns. Every
// run's answer is compared with the sequential oracle outside the timed
// region.
//
// Output: human-readable lines, then one line per metric
//   metric <name> <value> <unit>
//   unavailable <name> <unit> <reason>
// and a final line
//   result correct=<0|1> attempted=<n> failed=<n>
// perfbench/run.py turns these into the benchmark's JSON result.
//
// --trace 0 times the untraced program and reports the end-to-end metrics.
// --trace 1 splits each model's time between an untraced and a traced
// phase: OS and runtime counters come from the untraced phase, per-layer
// span metrics from the traced one, and their run_ms_p50 ratio is the
// tracing overhead.
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/force.hpp"
#include "spans.hpp"
#include "wire.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kNp = 4;
constexpr int kSetupReps = 31;       ///< set-ups per invocation; setup_s is their median
constexpr int kOracleReps = 5;       ///< oracle solves timed per set-up
constexpr double kDeadlineMs = 2000;  ///< a run slower than this counts as failed
constexpr int kMinSamples = 100;     ///< so that ten samples lie beyond p90
constexpr double kPhaseCap = 4.0;    ///< a phase never runs past cap x its budget
constexpr int kRounds = 32;          ///< fresh teams per model and invocation
constexpr int kHangSeconds = 60;     ///< one Force::run this long is a hang

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  bool corrupt_oracle = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "forcebench: %s\nusage: forcebench --workload "
               "cmfd|tree|pipeline|short-forces --seed N --seconds S "
               "--trace 0|1 [--tiny] [--corrupt-oracle]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = std::stoi(value());
    } else if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--corrupt-oracle") {
      a.corrupt_oracle = true;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace takes 0 or 1");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  const std::uint64_t salt = seed_salt(a.seed);
  if (a.workload == "cmfd") {
    return std::make_unique<CmfdWorkload>(a.tiny ? 12 : 48, 1e-4);
  }
  if (a.workload == "tree") {
    return std::make_unique<TreeWorkload>(
        a.tiny ? TreeShape{6, 9, 8, salt} : TreeShape{11, 17, 48, salt});
  }
  if (a.workload == "pipeline") {
    return std::make_unique<PipelineWorkload>(a.tiny ? 500 : 5000, kNp, salt);
  }
  if (a.workload == "short-forces") {
    return std::make_unique<ShortForcesWorkload>(salt);
  }
  usage(("unknown workload " + a.workload).c_str());
}

force::ForceConfig model_config(const std::string& model) {
  force::ForceConfig cfg;
  cfg.nproc = kNp;
  cfg.machine = "native";
  if (model == "thread") {
    // The default fresh thread team per run, not the opt-in TeamPool: the
    // pool's join loses a wakeup once in one to several million forces
    // (the last worker's release store of done_ is not ordered before
    // libstdc++'s waiter check in notify_all), and the driver then sleeps
    // for good.
  } else if (model == "os-fork") {
    cfg.process_model = "os-fork";
    cfg.team_pool = true;
  } else {
    cfg.process_model = "cluster";  // the capability table forbids pooling
  }
  return cfg;
}

// --- output -----------------------------------------------------------------

void metric(const std::string& name, double value, const char* unit) {
  std::printf("metric %s %.17g %s\n", name.c_str(), value, unit);
}

void unavailable(const std::string& name, const char* unit, const std::string& why) {
  std::printf("unavailable %s %s %s\n", name.c_str(), unit, why.c_str());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// --- hang watchdog ------------------------------------------------------------

/// Ends the whole process group (this process and every member it forked)
/// when one Force::run overruns the hang limit, after naming the run.
class Watchdog {
 public:
  explicit Watchdog(int hang_seconds) : hang_ns_(std::int64_t{hang_seconds} * 1'000'000'000) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Watchdog() {
    stop_.store(true);
    thread_.join();
  }
  void arm(const std::string& workload, const std::string& model, std::int64_t run) {
    std::lock_guard<std::mutex> g(mu_);
    std::snprintf(label_, sizeof label_, "workload %s, model %s, run %lld",
                  workload.c_str(), model.c_str(), static_cast<long long>(run));
    deadline_.store(now() + hang_ns_);
  }
  void disarm() { deadline_.store(0); }

 private:
  void loop() {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const std::int64_t d = deadline_.load();
      if (d != 0 && now() > d) {
        std::lock_guard<std::mutex> g(mu_);
        std::fprintf(stderr,
                     "forcebench: HANG: %s did not return within %lld s; "
                     "killing the process group\n",
                     label_, static_cast<long long>(hang_ns_ / 1'000'000'000));
        dump_tasks();
        std::fflush(nullptr);
        ::kill(0, SIGKILL);
      }
    }
  }

  /// Where this process's threads are: a thread team that is asleep in
  /// futex waits during a hang points at a lost wakeup.
  static void dump_tasks() {
    for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
      std::ifstream stat(task.path() / "stat");
      std::ifstream wchan(task.path() / "wchan");
      std::string line;
      std::string where;
      std::getline(stat, line);
      std::getline(wchan, where);
      const std::size_t close = line.rfind(')');
      const char state = close != std::string::npos && close + 2 < line.size() ? line[close + 2] : '?';
      std::fprintf(stderr, "forcebench:   thread %s state %c wchan %s\n",
                   task.path().filename().c_str(), state, where.c_str());
    }
  }

  std::int64_t hang_ns_;
  std::atomic<std::int64_t> deadline_{0};
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  char label_[160] = "";
  std::thread thread_;
};

// --- OS and runtime counters ------------------------------------------------------

struct Sched {
  double vol = 0.0;
  double invol = 0.0;
  double cpu_ms = 0.0;
  Sched& operator+=(const Sched& o) {
    vol += o.vol;
    invol += o.invol;
    cpu_ms += o.cpu_ms;
    return *this;
  }
};

Sched rusage_of(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_usec) / 1e3;
  };
  return {static_cast<double>(ru.ru_nvcsw), static_cast<double>(ru.ru_nivcsw),
          ms(ru.ru_utime) + ms(ru.ru_stime)};
}

/// CPU time from /proc/<pid>/stat, context switches from /proc/<pid>/status.
Sched proc_sched(std::int64_t pid) {
  Sched s;
  const std::string dir = "/proc/" + std::to_string(pid);
  std::ifstream stat(dir + "/stat");
  std::string line;
  if (std::getline(stat, line)) {
    const std::size_t close = line.rfind(')');
    if (close != std::string::npos) {
      std::istringstream rest(line.substr(close + 2));
      std::vector<std::string> f;
      std::string tok;
      while (rest >> tok) f.push_back(tok);
      // Fields after the command: state is field 3, utime 14, stime 15.
      if (f.size() > 12) {
        const double tick_ms = 1e3 / static_cast<double>(::sysconf(_SC_CLK_TCK));
        s.cpu_ms = (std::stod(f[11]) + std::stod(f[12])) * tick_ms;
      }
    }
  }
  std::ifstream status(dir + "/status");
  while (std::getline(status, line)) {
    if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
      s.vol = std::stod(line.substr(line.find(':') + 1));
    } else if (line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
      s.invol = std::stod(line.substr(line.find(':') + 1));
    }
  }
  return s;
}

/// The whole team's scheduler view. thread: this process (all threads).
/// os-fork: this process plus each resident child. cluster: this process
/// (the coordinator) plus the reaped members.
Sched sched_snapshot(const std::string& model, const std::vector<std::int64_t>& pids) {
  Sched s = rusage_of(RUSAGE_SELF);
  if (model == "os-fork") {
    for (std::int64_t pid : pids) {
      if (pid > 0 && pid != ::getpid()) s += proc_sched(pid);
    }
  } else if (model == "cluster") {
    s += rusage_of(RUSAGE_CHILDREN);
  }
  return s;
}

/// /proc/self/io totals. They miss socket send(2)/recv(2), which is why
/// the coordinator's wire is counted by src/wire.cpp; they are printed to
/// show that.
struct ProcIo {
  double rchar = 0.0;
  double wchar = 0.0;
  double syscr = 0.0;
  double syscw = 0.0;
};

ProcIo proc_io() {
  ProcIo io;
  std::ifstream f("/proc/self/io");
  std::string key;
  double v = 0.0;
  while (f >> key >> v) {
    if (key == "rchar:") io.rchar = v;
    if (key == "wchar:") io.wchar = v;
    if (key == "syscr:") io.syscr = v;
    if (key == "syscw:") io.syscw = v;
  }
  return io;
}

// --- runs and phases ----------------------------------------------------------------

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t wrong = 0;
  bool span_overflow = false;
};

struct Phase {
  std::vector<double> ms;  ///< wall time of every attempted run
  std::int64_t ok = 0;
  double wall_s = 0.0;
  std::map<std::string, std::vector<double>> layer;  ///< traced runs only

  void merge(const Phase& o) {
    ms.insert(ms.end(), o.ms.begin(), o.ms.end());
    ok += o.ok;
    wall_s += o.wall_s;
    for (const auto& [k, v] : o.layer) layer[k].insert(layer[k].end(), v.begin(), v.end());
  }
};

/// Counter deltas summed over a model's untraced phases (--trace 1).
struct Counters {
  Sched sched;
  double lock_acquires = 0.0;
  double lock_contended = 0.0;
  double lock_blocking = 0.0;
  double doall_iters = 0.0;
  double doall_claims = 0.0;
  WireCounts wire;
  ProcIo io;
};

/// Everything one process model accumulates over the rounds.
struct ModelRuns {
  Phase plain;   ///< untraced runs
  Phase traced;  ///< traced runs
  Counters counters;
};

class Harness {
 public:
  explicit Harness(Workload& w) : w_(w), wd_(kHangSeconds) {}

  /// One verified Force::run; returns false and counts the failure when it
  /// throws, overruns the deadline or disagrees with the oracle.
  bool run_once(force::Force& f, const std::function<void(force::Ctx&)>& prog,
                const std::string& model, double* ms_out, Tally* tally) {
    const std::int64_t run = next_run_++;
    w_.prepare(run);
    Recorder caller(g_spans, kNp);
    std::string error;
    wd_.arm(w_.name(), model, run);
    const std::int64_t t0 = now();
    try {
      f.run(prog);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const std::int64_t t1 = now();
    wd_.disarm();
    if (caller.on()) caller.add(Kind::kBody, 0, t0, t1);
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    if (ms_out != nullptr) *ms_out = ms;
    tally->attempted += 1;
    std::string why;
    if (!error.empty()) {
      why = "exception: " + error;
    } else if (ms > kDeadlineMs) {
      why = "overran the " + std::to_string(static_cast<int>(kDeadlineMs)) + " ms deadline";
    } else if (const std::string d = w_.check(run); !d.empty()) {
      why = "wrong answer: " + d;
      tally->wrong += 1;
    }
    if (why.empty()) return true;
    tally->failed += 1;
    std::fprintf(stderr, "forcebench: %s under %s, run %lld failed: %s\n",
                 w_.name().c_str(), model.c_str(), static_cast<long long>(run),
                 why.c_str());
    return false;
  }

  /// Median of kSetupReps set-ups: oracle timing, then per model Force
  /// construction, team spawn and one verified run.
  double setup(Tally* tally, std::vector<double>* oracle_ms) {
    std::vector<double> reps;
    for (int r = 0; r < kSetupReps; ++r) {
      const std::int64_t t0 = now();
      for (int k = 0; k < kOracleReps; ++k) {
        const std::int64_t o0 = now();
        w_.oracle_once();
        oracle_ms->push_back(static_cast<double>(now() - o0) / 1e6);
      }
      std::int64_t elapsed = now() - t0;
      for (const std::string& model : w_.models()) {
        const std::int64_t m0 = now();
        auto f = std::make_unique<force::Force>(model_config(model));
        const auto prog = w_.bind(*f);
        run_once(*f, prog, model, nullptr, tally);
        elapsed += now() - m0;
        f.reset();  // team shutdown is not set-up
      }
      reps.push_back(static_cast<double>(elapsed) / 1e9);
    }
    return median(reps);
  }

  /// Closed loop of `runs` runs, cut short at kPhaseCap x `budget_s`.
  Phase phase(force::Force& f, const std::function<void(force::Ctx&)>& prog,
              const std::string& model, double budget_s, int runs, bool traced,
              Tally* tally) {
    Phase ph;
    g_spans->enabled.store(traced ? 1 : 0, std::memory_order_release);
    const std::int64_t start = now();
    const auto budget_ns = static_cast<std::int64_t>(budget_s * 1e9);
    while (true) {
      const std::int64_t elapsed = now() - start;
      const auto n = static_cast<int>(ph.ms.size());
      if (n >= runs) break;
      if (n > 0 && static_cast<double>(elapsed) >= kPhaseCap * static_cast<double>(budget_ns)) {
        break;
      }
      double ms = 0.0;
      const bool ok = run_once(f, prog, model, &ms, tally);
      ph.ms.push_back(ms);
      if (ok) ph.ok += 1;
      if (traced) {
        RunLayerValues v;
        if (!fold_run(g_spans, kNp, &v)) tally->span_overflow = true;
        if (ok) {
          for (const auto& [k, x] : v) ph.layer[k].push_back(x);
        }
      }
    }
    ph.wall_s = static_cast<double>(now() - start) / 1e9;
    g_spans->enabled.store(0, std::memory_order_release);
    return ph;
  }

  /// A verified run with spans on, so the members record their pids.
  std::vector<std::int64_t> warm_up(force::Force& f, const std::function<void(force::Ctx&)>& prog,
                                    const std::string& model, Tally* tally) {
    g_spans->enabled.store(1, std::memory_order_release);
    run_once(f, prog, model, nullptr, tally);
    g_spans->enabled.store(0, std::memory_order_release);
    RunLayerValues discard;
    fold_run(g_spans, kNp, &discard);
    return member_pids(g_spans, kNp);
  }

 private:
  Workload& w_;
  Watchdog wd_;
  std::int64_t next_run_ = 0;
};

void report_e2e(const Workload& w, const std::string& model, const Phase& ph,
                double oracle_ms) {
  const std::string sfx = "." + model;
  const double p50 = percentile(ph.ms, 0.5);
  const double p90 = percentile(ph.ms, 0.9);
  const auto beyond = std::count_if(ph.ms.begin(), ph.ms.end(),
                                    [p90](double x) { return x > p90; });
  std::printf("%s/%s: %zu runs in %.3f s, %lld beyond p90\n", w.name().c_str(),
              model.c_str(), ph.ms.size(), ph.wall_s, static_cast<long long>(beyond));
  metric("run_ms_p50" + sfx, p50, "ms");
  metric("run_ms_p90" + sfx, p90, "ms");
  metric("runs_per_s" + sfx, static_cast<double>(ph.ok) / ph.wall_s, "1/s");
  metric("samples" + sfx, static_cast<double>(ph.ms.size()), "count");
  if (w.has_speedup()) {
    metric("speedup_vs_seq" + sfx, oracle_ms / p50, "x");
  } else {
    unavailable("speedup_vs_seq" + sfx, "x",
                "not reported on " + w.name() + ": its oracle is trivial work");
  }
}

/// Per-layer metrics folded from spans; the layer is the name's prefix.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kSpanMetrics[] = {
    {"force.entry_us", "us"},
    {"force.join_us", "us"},
    {"force.start_skew_us", "us"},
    {"doall.overhead_ns_per_iter", "ns"},
    {"doall.imbalance", "ratio"},
    {"barrier.release_us", "us"},
    {"barrier.wait_us", "us"},
    {"barrier.section_us", "us"},
    {"barrier.episodes_per_run", "count"},
    {"reduce.release_us", "us"},
    {"reduce.wait_us", "us"},
    {"askfor.overhead_ns_per_task", "ns"},
    {"askfor.put_ns", "ns"},
    {"askfor.drain_us", "us"},
    {"askfor.tasks_max_over_mean", "ratio"},
    {"async.handoff_ns", "ns"},
    {"async.produce_block_ns", "ns"},
    {"async.consume_block_ns", "ns"},
};

std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Own process group, so a hang kill reaches every forked member and
  // nothing else.
  ::setpgid(0, 0);
  g_spans = map_span_buffer(kNp);
  std::unique_ptr<Workload> w = make_workload(args);
  if (args.corrupt_oracle) w->corrupt_oracle();

  std::printf("forcebench workload=%s seed=%llu np=%d host_cpus=%u trace=%d "
              "seconds=%g%s\n",
              w->name().c_str(), static_cast<unsigned long long>(args.seed), kNp,
              std::thread::hardware_concurrency(), args.trace, args.seconds,
              args.tiny ? " (tiny inputs)" : "");
  std::printf("%s\n", w->describe().c_str());
  std::fflush(stdout);

  Harness h(*w);
  Tally setup_tally;
  std::vector<double> oracle_runs;
  const double setup_s = h.setup(&setup_tally, &oracle_runs);
  const double oracle_ms = median(oracle_runs);
  std::printf("oracle median %.4f ms over %zu solves\n", oracle_ms, oracle_runs.size());
  if (setup_tally.failed > 0) {
    std::fprintf(stderr, "forcebench: %s failed its verification run; not timing it\n",
                 w->name().c_str());
    std::printf("result correct=%d attempted=%lld failed=%lld\n",
                setup_tally.wrong == 0 ? 1 : 0,
                static_cast<long long>(setup_tally.attempted),
                static_cast<long long>(setup_tally.failed));
    return 1;
  }

  // The time is spread over kRounds rounds; each round builds a fresh team
  // per model and visits the models in turn. Teams differ (placement,
  // which mode a spin or steal protocol settles into), so every team makes
  // the same number of runs, sized from the workload's nominal run time:
  // no single team, and no slow stretch of the host, decides a model's
  // numbers, and a faster commit does the same work, not more.
  const std::vector<std::string> models = w->models();
  const double budget_ms = args.seconds * 1e3 /
                           static_cast<double>(models.size() * kRounds) /
                           (args.trace ? 2.0 : 1.0);
  const int min_runs = (kMinSamples + kRounds - 1) / kRounds;
  std::map<std::string, int> team_runs;
  for (const std::string& model : models) {
    team_runs[model] =
        args.tiny ? 2
                  : std::max(args.trace ? 2 : min_runs,
                             static_cast<int>(std::lround(budget_ms / w->nominal_ms(model))));
    std::printf("%s: %d rounds of %d runs\n", model.c_str(), kRounds, team_runs[model]);
  }
  Tally tally;
  std::map<std::string, ModelRuns> acc;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& model : models) {
      ModelRuns& a = acc[model];
      force::Force f(model_config(model));
      const auto prog = w->bind(f);
      const std::vector<std::int64_t> pids = h.warm_up(f, prog, model, &tally);
      const auto timed = [&](Phase* into, bool traced) {
        into->merge(h.phase(f, prog, model, budget_ms / 1e3, team_runs[model], traced, &tally));
      };
      if (args.trace == 0) {
        timed(&a.plain, false);
        continue;
      }
      // Untraced half: OS and runtime counters around the whole phase.
      auto& env = f.env();
      env.stats().reset();
      const auto locks0 = force::machdep::snapshot(env.machine().counters());
      const Sched sched0 = sched_snapshot(model, pids);
      const ProcIo io0 = proc_io();
      const WireCounts wire0 = wire_counts();
      timed(&a.plain, false);
      const WireCounts wire1 = wire_counts();
      const ProcIo io1 = proc_io();
      const Sched sched1 = sched_snapshot(model, pids);
      const auto locks = force::machdep::snapshot(env.machine().counters()) - locks0;
      Counters& c = a.counters;
      c.sched.vol += sched1.vol - sched0.vol;
      c.sched.invol += sched1.invol - sched0.invol;
      c.sched.cpu_ms += sched1.cpu_ms - sched0.cpu_ms;
      c.lock_acquires += static_cast<double>(locks.acquires);
      c.lock_contended += static_cast<double>(locks.contended_acquires);
      c.lock_blocking += static_cast<double>(locks.blocking_waits);
      c.doall_iters += static_cast<double>(env.stats().doall_iterations.load());
      c.doall_claims += static_cast<double>(env.stats().doall_dispatches.load());
      c.wire.bytes_in += wire1.bytes_in - wire0.bytes_in;
      c.wire.bytes_out += wire1.bytes_out - wire0.bytes_out;
      c.wire.recv_calls += wire1.recv_calls - wire0.recv_calls;
      c.wire.send_calls += wire1.send_calls - wire0.send_calls;
      c.io.rchar += io1.rchar - io0.rchar;
      c.io.wchar += io1.wchar - io0.wchar;
      c.io.syscr += io1.syscr - io0.syscr;
      c.io.syscw += io1.syscw - io0.syscw;
      timed(&a.traced, true);
    }
  }

  for (const std::string& model : models) {
    const std::string sfx = "." + model;
    const ModelRuns& a = acc[model];
    if (args.trace == 0) {
      report_e2e(*w, model, a.plain, oracle_ms);
      continue;
    }
    const Counters& c = a.counters;
    const auto runs = static_cast<double>(a.plain.ms.size());
    for (const LayerMetric& m : kSpanMetrics) {
      const auto it = a.traced.layer.find(m.name);
      if (it != a.traced.layer.end() && !it->second.empty()) {
        metric(m.name + sfx, median(it->second), m.unit);
      } else {
        const std::string name = m.name;
        unavailable(name + sfx, m.unit,
                    name == "barrier.section_us"
                        ? w->name() + " has no barrier section"
                        : "the " + layer_of(name) + " layer is not exercised by " + w->name());
      }
    }
    const std::string thread_only =
        "runtime counters read zero outside the thread backend (ROADMAP item 2)";
    if (model != "thread") {
      unavailable("doall.useful_claim_ratio" + sfx, "ratio", "env().stats() " + thread_only);
      unavailable("locks.acquires_per_run" + sfx, "count", "lock " + thread_only);
      unavailable("locks.contended_ratio" + sfx, "ratio", "lock " + thread_only);
      unavailable("locks.blocking_waits_per_run" + sfx, "count", "lock " + thread_only);
    } else {
      if (c.doall_claims > 0) {
        metric("doall.useful_claim_ratio" + sfx, c.doall_iters / c.doall_claims, "ratio");
      } else {
        unavailable("doall.useful_claim_ratio" + sfx, "ratio",
                    "the doall layer is not exercised by " + w->name());
      }
      metric("locks.acquires_per_run" + sfx, c.lock_acquires / runs, "count");
      metric("locks.contended_ratio" + sfx,
             c.lock_acquires > 0 ? c.lock_contended / c.lock_acquires : 0.0, "ratio");
      metric("locks.blocking_waits_per_run" + sfx, c.lock_blocking / runs, "count");
    }
    if (model == "cluster") {
      std::printf("cluster: /proc/self/io per run: rchar %.1f wchar %.1f syscr %.2f "
                  "syscw %.2f (socket send/recv are not counted there)\n",
                  c.io.rchar / runs, c.io.wchar / runs, c.io.syscr / runs, c.io.syscw / runs);
      metric("cluster.coord_bytes_in_per_run" + sfx, c.wire.bytes_in / runs, "B");
      metric("cluster.coord_bytes_out_per_run" + sfx, c.wire.bytes_out / runs, "B");
      metric("cluster.coord_recv_calls_per_run" + sfx, c.wire.recv_calls / runs, "count");
      metric("cluster.coord_send_calls_per_run" + sfx, c.wire.send_calls / runs, "count");
    } else {
      for (const LayerMetric& m : {LayerMetric{"cluster.coord_bytes_in_per_run", "B"},
                                   LayerMetric{"cluster.coord_bytes_out_per_run", "B"},
                                   LayerMetric{"cluster.coord_recv_calls_per_run", "count"},
                                   LayerMetric{"cluster.coord_send_calls_per_run", "count"}}) {
        unavailable(m.name + sfx, m.unit, "there is no coordinator under " + model);
      }
    }
    metric("sched.vol_switches_per_run" + sfx, c.sched.vol / runs, "count");
    metric("sched.invol_switches_per_run" + sfx, c.sched.invol / runs, "count");
    metric("sched.cpu_ms_per_run" + sfx, c.sched.cpu_ms / runs, "ms");
    metric("trace.overhead_pct" + sfx,
           (percentile(a.traced.ms, 0.5) / percentile(a.plain.ms, 0.5) - 1.0) * 100.0, "%");
    std::printf("%s/%s: %zu untraced and %zu traced runs\n", w->name().c_str(),
                model.c_str(), a.plain.ms.size(), a.traced.ms.size());
  }

  for (const char* other : {"thread", "os-fork", "cluster"}) {
    if (args.trace != 0 ||
        std::find(models.begin(), models.end(), other) != models.end()) {
      continue;
    }
    const std::string sfx = std::string(".") + other;
    const std::string why = w->name() + " does not run under " + other;
    unavailable("run_ms_p50" + sfx, "ms", why);
    unavailable("run_ms_p90" + sfx, "ms", why);
    unavailable("runs_per_s" + sfx, "1/s", why);
    unavailable("speedup_vs_seq" + sfx, "x", why);
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  metric("setup_s", setup_s, "s");
  metric("oracle_ms", oracle_ms, "ms");
  metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  metric("failed_ratio",
         tally.attempted > 0
             ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted)
             : 0.0,
         "ratio");
  if (tally.span_overflow) {
    std::fprintf(stderr, "forcebench: a span slot overflowed; per-layer numbers are partial\n");
  }
  const bool correct = tally.wrong == 0 && !tally.span_overflow;
  std::printf("result correct=%d attempted=%lld failed=%lld\n", correct ? 1 : 0,
              static_cast<long long>(tally.attempted), static_cast<long long>(tally.failed));
  return correct ? 0 : 1;
}

// Shared pieces of the repo benchmark: the run context every workload
// fills in, the in-memory span recorder used by traced runs, and the
// reference values the output checks compare against.
//
// A run is a closed loop driven by one client thread: the workload builds
// its inputs (set-up, rebuilt back to back and timed as setup_s), then
// runs whole passes over a fixed op list until --seconds is used up (the
// timed phase), then checks its outputs. Passes repeat the same inputs,
// so every work counter of a pass must equal that of the first pass.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/results.h"
#include "exp/sweep.h"
#include "mcf/throughput.h"
#include "util/json.h"
#include "util/timer.h"

namespace perfbench {

/// The seed whose outputs reference.json records.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Registry instances, their traffic and their failure samples are part of
/// a workload's definition and come from this fixed seed (as in the
/// paper-figure drivers). --seed relabels them (see relabeling()).
inline constexpr std::uint64_t kTopologySeed = 1;

/// One recorded span: a call into a library layer made by the benchmark.
struct Span {
  std::string name;  ///< "<layer>.<what>", e.g. "exp.sweep"
  double start = 0.0;
  double end = 0.0;
  int parent = -1;   ///< index of the enclosing span, -1 at the top
  long op = -1;      ///< op id the span serves, -1 outside ops
};

/// Span recorder. Inactive (the untraced runs) it records nothing and
/// costs one branch per scope. Spans are opened and closed by the one
/// client thread only, so no synchronisation is needed.
class Tracer {
 public:
  explicit Tracer(bool active) : active_(active), recording_(active) {}

  /// True for a traced run (even while recording is paused).
  bool active() const noexcept { return active_; }
  /// Pause or resume recording within a traced run.
  void set_recording(bool on) noexcept { recording_ = active_ && on; }

  /// Open a span under the innermost open one; returns its index (-1 when
  /// inactive).
  int open(std::string name, long op = -1);
  void close(int id);
  /// Rename an open span once its outcome is known (e.g. which solver
  /// engine a solve dispatched to).
  void rename(int id, std::string name);

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool active_;
  bool recording_;
  tb::Timer clock_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, std::string name, long op = -1)
      : tracer_(t), id_(t.open(std::move(name), op)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void rename(std::string name) { tracer_.rename(id_, std::move(name)); }

 private:
  Tracer& tracer_;
  int id_;
};

/// Everything one run measures. Workloads append to it; main.cpp turns it
/// into metrics.
struct Run {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 12.0;
  std::string work_dir;             ///< scratch files (the result store)
  /// The reference.json document (cut_survey reads its fixed-instance
  /// throughputs on every seed).
  const tb::json::Value* reference = nullptr;
  Tracer tracer{false};

  std::vector<double> setup_s;      ///< seconds per build, one per batch
  std::function<void()> rebuild;    ///< one more set-up (repeated_setup)
  std::vector<double> pass_wall_s;  ///< one per timed pass
  std::vector<double> pass_cpu_s;
  /// The current pass's request latencies. A request answers
  /// `ops_per_request` ops at once, so each of its ops has its latency.
  std::vector<double> op_ms;
  std::size_t ops_per_request = 1;
  /// Per pass: median request latency, and the latency at the highest
  /// percentile with at least ten of the pass's requests beyond it, when
  /// that lies above the median (the slowest request otherwise).
  std::vector<double> pass_p50_ms;
  std::vector<double> pass_tail_ms;
  std::size_t requests_per_pass = 0;
  std::size_t ops_per_pass = 0;
  double tail_percentile = 0.0;
  double timed_s = 0.0;             ///< wall time of all passes
  long attempted = 0;               ///< ops attempted, every pass
  std::vector<std::string> failures;
  std::vector<double> gaps;         ///< certified relative gaps, one pass
  long certificates = 0;            ///< solves checked by record_certificate
  long above_eps = 0;               ///< ... whose gap exceeds eps
  double max_gap = 0.0;
  /// Certified [lower, upper] interval of every output of one pass, in op
  /// order; checked against reference.json at the default seed, and on
  /// every seed when the workload's problems do not depend on it.
  std::vector<std::pair<double, double>> intervals;
  bool seed_invariant = false;

  /// Per-layer figures a workload measures itself (traced runs); main.cpp
  /// adds the span-derived ones.
  std::vector<std::pair<std::string, double>> layer;
  /// Exact-repeat counters: equal across passes, runs and trace modes.
  std::vector<std::pair<std::string, long>> counters;

  void fail(const std::string& what) { failures.push_back(what); }
  /// Fold op_ms into the per-pass latency figures and clear it.
  void end_pass();
  void set_layer(const std::string& name, double value);
  void add_layer(const std::string& name, double value);
  void set_counter(const std::string& name, long value);
};

/// Every run aggregates at least two passes, so one slow phase of the host
/// (or a first pass still warming up) is not the whole measurement.
inline constexpr int kMinPasses = 2;

/// Run `pass(index)` until the passes have taken at least `run.seconds` and
/// kMinPasses have run, recording per-pass wall and CPU time. After each
/// pass, time the set-up again (time_setup): the host's slow phases last
/// seconds, so set-up windows spread over the run do not all fall in one. A
/// traced run measures one untraced pass and one traced pass instead,
/// recording the tracing overhead.
template <class Pass>
void timed_passes(Run& run, Pass&& pass);

inline constexpr int kSetupBatches = 8;
inline constexpr double kSetupBatchSeconds = 0.25;

/// Pin the calling thread to the i-th CPU the process may use (i modulo
/// their count), or unpin it for i < 0. On a shared host one CPU can run
/// single-threaded code up to 65% slower than another for seconds at a
/// time, and a thread stays on one CPU about as long, so timings that
/// visit the CPUs in turn let the low decile find the program's own speed.
/// Only for single-threaded timing: a pinned thread that waits on the
/// pool's workers loses time when one of them lands on its CPU.
void pin_thread(int i);

/// Time the workload's set-up: kSetupBatches batches of back-to-back
/// `run.rebuild()` calls, batch b pinned to CPU b and lasting at least
/// kSetupBatchSeconds, adding the seconds per build of each batch to
/// run.setup_s. A single build takes a fraction of a second, too short to
/// time steadily on its own.
void time_setup(Run& run);

/// Build a workload's inputs with `build()`: time it (time_setup; untraced
/// runs time it again after each pass), then build once more with spans
/// recorded, so per-layer counts describe one warm set-up, and return those
/// inputs. `build` may capture only what outlives the timed phase.
template <class Build>
auto repeated_setup(Run& run, Build&& build);

/// A seeded random permutation of `n` switch ids. Workloads solve an
/// isomorphic copy of each fixed instance under it: the input bytes, the
/// adjacency order and so the solvers' tie-breaking change with --seed,
/// the problem does not. On the tm_ladder grid, relabeling moved GK's
/// phase count by under 4% across seeds, fresh random matchings by 19%.
std::vector<int> relabeling(int n, std::uint64_t seed);

/// `net` with switch v renamed perm[v]. Edge ids, and so risk groups and
/// sampled link failures, are unchanged.
tb::Network relabel(const tb::Network& net, const std::vector<int>& perm);

/// `tm` with every endpoint v renamed perm[v].
tb::TrafficMatrix relabel(tb::TrafficMatrix tm, const std::vector<int>& perm);

/// A TmSpec handing the runner a matrix built during set-up. `seed` is the
/// stream the runner derives for the cell (checked, so a change to the
/// runner's seeding contract fails loudly instead of skewing the inputs).
tb::exp::TmSpec prebuilt_tm(const std::string& label,
                            std::shared_ptr<const tb::TrafficMatrix> tm,
                            std::uint64_t seed);

/// Build the TM of `spec` for `net` from `seed` inside a "tm.build" span
/// ("tm.lm" for the Hungarian longest matching), renamed by `perm`.
std::shared_ptr<const tb::TrafficMatrix> traced_tm(
    Run& run, const tb::exp::TmSpec& spec, const tb::Network& net,
    std::uint64_t seed, const std::vector<int>& perm);

/// Run `solve()` inside a span named after the engine that answered
/// ("mcf.gk" or "lp") and add its work to that layer's counters.
template <class Solve>
tb::mcf::ThroughputResult attributed_solve(Run& run, Solve&& solve);
void account_solve(Run& run, const tb::mcf::ThroughputResult& r);

/// User+system CPU seconds of the whole process (all threads).
double process_cpu_seconds();
/// Peak resident set size of the process, in MB.
double peak_rss_mb();

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Check one solve's certificate [value, upper] and record its relative
/// gap upper / value - 1 (0 for a zero value, which only disconnected
/// instances report). An interval with upper < value fails. A gap above
/// the solver's eps target is counted, not failed: GK may stop on its
/// classic or plateau criterion above eps and reports the residual gap
/// (see mcf/garg_konemann.h).
void record_certificate(Run& run, const std::string& what, double value,
                        double upper, double eps);

/// True when [lo, hi] overlaps [ref_lo, ref_hi], with a relative slack of
/// 1e-9 for values that should agree to the last bit.
bool intervals_overlap(double lo, double hi, double ref_lo, double ref_hi);

// --- the workloads ---------------------------------------------------------
void run_tm_ladder(Run& run);
void run_failure_fleet(Run& run);
void run_cut_survey(Run& run);

/// Certified throughput of cut_survey's fixed instances, the reference
/// its cut bounds are checked against on every seed (slow: GK solves at
/// 256 servers; run only to regenerate reference.json).
tb::json::Value cut_survey_reference_throughput();

// --- template definitions --------------------------------------------------

template <class Build>
auto repeated_setup(Run& run, Build&& build) {
  run.rebuild = [build] { build(); };
  time_setup(run);
  return build();
}

template <class Solve>
tb::mcf::ThroughputResult attributed_solve(Run& run, Solve&& solve) {
  Scope span(run.tracer, "mcf.solve");
  tb::mcf::ThroughputResult r = solve();
  span.rename(r.solver == "exact-lp" ? "lp" : "mcf.gk");
  account_solve(run, r);
  return r;
}

template <class Pass>
void timed_passes(Run& run, Pass&& pass) {
  const auto one = [&](int index) {
    const double cpu0 = process_cpu_seconds();
    const tb::Timer wall;
    {
      const Scope span(run.tracer, "pass");
      pass(index);
    }
    run.pass_wall_s.push_back(wall.seconds());
    run.pass_cpu_s.push_back(process_cpu_seconds() - cpu0);
    run.timed_s += run.pass_wall_s.back();
    run.end_pass();
  };
  if (run.tracer.active()) {
    // Overhead: the same pass untraced, then traced.
    run.tracer.set_recording(false);
    one(0);
    run.tracer.set_recording(true);
    one(1);
    run.set_layer("trace.overhead_s", run.pass_wall_s[1] - run.pass_wall_s[0]);
    return;
  }
  int index = 0;
  do {
    one(index++);
    time_setup(run);
  } while (index < kMinPasses || run.timed_s < run.seconds);
}

}  // namespace perfbench

#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace perfbench {

int Tracer::open(std::string name, long op) {
  if (!recording_) return -1;
  Span s;
  s.name = std::move(name);
  s.start = clock_.seconds();
  s.parent = current_;
  s.op = (op < 0 && current_ >= 0) ? spans_[current_].op : op;
  spans_.push_back(std::move(s));
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[id].end = clock_.seconds();
  current_ = spans_[id].parent;
}

void Tracer::rename(int id, std::string name) {
  if (id >= 0) spans_[id].name = std::move(name);
}

void Run::end_pass() {
  std::vector<double> v;
  v.swap(op_ms);
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Rank n - 10 (1-based) leaves ten requests beyond it; up to 21 requests
  // that rank is at or below the median, so the slowest stands in.
  const std::size_t rank = n > 21 ? n - 10 : n;
  requests_per_pass = n;
  ops_per_pass = n * ops_per_request;
  if (n == 0) return;
  pass_p50_ms.push_back(median(v));
  pass_tail_ms.push_back(v[rank - 1]);
  tail_percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  v.clear();
  op_ms.swap(v);  // keep the capacity for the next pass
}

void pin_thread(int i) {
  // The process's CPUs when first asked, before any pinning.
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    return set;
  }();
  if (i < 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
    return;
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(i) % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);  // best effort
}

void time_setup(Run& run) {
  run.tracer.set_recording(false);
  for (int b = 0; b < kSetupBatches; ++b) {
    pin_thread(b);
    const tb::Timer t;
    long builds = 0;
    do {
      run.rebuild();
      ++builds;
    } while (t.seconds() < kSetupBatchSeconds);
    run.setup_s.push_back(t.seconds() / static_cast<double>(builds));
  }
  pin_thread(-1);
  run.tracer.set_recording(true);
}

void Run::set_layer(const std::string& name, double value) {
  for (auto& [key, v] : layer) {
    if (key == name) {
      v = value;
      return;
    }
  }
  layer.emplace_back(name, value);
}

void Run::add_layer(const std::string& name, double value) {
  for (auto& [key, v] : layer) {
    if (key == name) {
      v += value;
      return;
    }
  }
  layer.emplace_back(name, value);
}

void Run::set_counter(const std::string& name, long value) {
  for (auto& [key, v] : counters) {
    if (key == name) {
      if (v != value) {
        fail("exact-repeat counter " + name + " changed between passes: " +
             std::to_string(v) + " -> " + std::to_string(value));
      }
      return;
    }
  }
  counters.emplace_back(name, value);
}

std::vector<int> relabeling(int n, std::uint64_t seed) {
  constexpr std::uint64_t kRelabelStream = 0x72656c6162656cULL;  // "relabel"
  tb::Rng rng(tb::mix_seed(seed, kRelabelStream));
  return rng.permutation(n);
}

tb::Network relabel(const tb::Network& net, const std::vector<int>& perm) {
  tb::Network out;
  out.name = net.name;
  out.graph = tb::Graph(net.graph.num_nodes());
  for (int e = 0; e < net.graph.num_edges(); ++e) {
    out.graph.add_edge(perm[net.graph.edge_u(e)], perm[net.graph.edge_v(e)],
                       net.graph.edge_cap(e));
  }
  out.graph.finalize();
  out.servers.assign(net.servers.size(), 0);
  for (std::size_t v = 0; v < net.servers.size(); ++v) {
    out.servers[perm[v]] = net.servers[v];
  }
  out.risk_groups = net.risk_groups;
  return out;
}

tb::TrafficMatrix relabel(tb::TrafficMatrix tm, const std::vector<int>& perm) {
  for (tb::Demand& d : tm.demands) {
    d.src = perm[d.src];
    d.dst = perm[d.dst];
  }
  return tm;
}

tb::exp::TmSpec prebuilt_tm(const std::string& label,
                            std::shared_ptr<const tb::TrafficMatrix> tm,
                            std::uint64_t seed) {
  tb::exp::TmSpec spec;
  spec.label = label;
  spec.build = [tm, seed](const tb::Network&, std::uint64_t cell_seed) {
    if (cell_seed != seed) {
      throw std::logic_error("runner derived an unexpected TM seed");
    }
    return *tm;
  };
  return spec;
}

std::shared_ptr<const tb::TrafficMatrix> traced_tm(
    Run& run, const tb::exp::TmSpec& spec, const tb::Network& net,
    std::uint64_t seed, const std::vector<int>& perm) {
  const Scope span(run.tracer, spec.label == "LM" ? "tm.lm" : "tm.build");
  return std::make_shared<const tb::TrafficMatrix>(
      relabel(spec.build(net, seed), perm));
}

void account_solve(Run& run, const tb::mcf::ThroughputResult& r) {
  if (!run.tracer.active()) return;
  if (r.solver == "exact-lp") {
    run.add_layer("lp.solves", 1);
    run.add_layer("lp.pivots", static_cast<double>(r.stats.pivots));
  } else if (r.solver == "garg-konemann") {
    run.add_layer("mcf.gk.solves", 1);
    run.add_layer("mcf.gk.phases", static_cast<double>(r.stats.phases));
    run.add_layer("mcf.gk.dijkstras", static_cast<double>(r.stats.dijkstras));
  }
}

double process_cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void record_certificate(Run& run, const std::string& what, double value,
                        double upper, double eps) {
  if (!(value >= 0.0 && upper >= value * (1.0 - 1e-9))) {
    run.fail(what + ": invalid certificate");
  }
  const double gap = value > 0.0 ? upper / value - 1.0 : 0.0;
  ++run.certificates;
  if (gap > eps + 1e-9) ++run.above_eps;
  run.max_gap = std::max(run.max_gap, gap);
  run.gaps.push_back(gap);
  run.intervals.emplace_back(value, upper);
}

bool intervals_overlap(double lo, double hi, double ref_lo, double ref_hi) {
  const double slack =
      1e-9 * std::max({std::fabs(lo), std::fabs(hi), std::fabs(ref_lo),
                       std::fabs(ref_hi), 1e-300});
  return lo <= ref_hi + slack && ref_lo <= hi + slack;
}

}  // namespace perfbench

// perfbench: the repo benchmark's measuring program (run.py builds and
// calls it).
//
//   perfbench --workload <tm_ladder|failure_fleet|cut_survey>
//             [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]
//             [--reference FILE] [--state-dir DIR] [--commit ID]
//   perfbench --write-reference FILE
//
// One client, closed loop, no sleeps, on a process-shared pool fixed at two
// workers. Untraced runs report the end-to-end metrics; traced runs report
// the per-layer ones. The last stdout line is the JSON result
// {"correct", "attempted", "failed", "metrics"}; the lines before it give
// every metric with its unit, the host, and any failed check.
#include <sys/statfs.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kPoolWorkers = 2;

struct MetricDef {
  const char* name;
  const char* unit;
};

// BENCHMARK.json's end_to_end and per_layer lists; run.py fails a run whose
// metric names or units differ from them.
const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},       {"setup_s", "s"},         {"cpu_s", "s"},
    {"rss_mb", "MB"},      {"ops_per_s", "1/s"},     {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},  {"mean_gap", "ratio"},
};

const std::vector<MetricDef> kPerLayer = {
    {"topo.build_s", "s"},
    {"topo.builds", "count"},
    {"tm.build_s", "s"},
    {"tm.lm_s", "s"},
    {"tm.builds", "count"},
    {"mcf.gk.solve_s", "s"},
    {"mcf.gk.solves", "count"},
    {"mcf.gk.phases", "count"},
    {"mcf.gk.dijkstras", "count"},
    {"mcf.gk.us_per_dijkstra", "us"},
    {"mcf.scenario.apply_s", "s"},
    {"mcf.warm.solve_s", "s"},
    {"mcf.warm.solves", "count"},
    {"mcf.warm.phases", "count"},
    {"mcf.warm.hit_rate", "ratio"},
    {"lp.solve_s", "s"},
    {"lp.solves", "count"},
    {"lp.pivots", "count"},
    {"lp.us_per_pivot", "us"},
    {"lp.warm.hit_rate", "ratio"},
    {"cuts.brute_force_s", "s"},
    {"cuts.one_node_s", "s"},
    {"cuts.two_node_s", "s"},
    {"cuts.expanding_s", "s"},
    {"cuts.eigenvector_s", "s"},
    {"cuts.st_mincut_s", "s"},
    {"cuts.bisection_s", "s"},
    {"cuts.exact_share", "ratio"},
    {"flow.solve_s", "s"},
    {"flow.pushes", "count"},
    {"flow.relabels", "count"},
    {"flow.global_relabels", "count"},
    {"flow.parallel_discharge_solves", "count"},
    {"exp.sweep_s", "s"},
    {"exp.cache.memory_hits", "count"},
    {"exp.cache.disk_hits", "count"},
    {"exp.cache.misses", "count"},
    {"store.open_s", "s"},
    {"store.get_us", "us"},
    {"store.put_us", "us"},
    {"store.records", "count"},
    {"store.bytes", "bytes"},
    {"api.query_us", "us"},
    {"json.encode_us", "us"},
    {"self.topo_s", "s"},
    {"self.tm_s", "s"},
    {"self.exp_s", "s"},
    {"self.mcf_s", "s"},
    {"self.lp_s", "s"},
    {"self.cuts_s", "s"},
    {"self.flow_s", "s"},
    {"self.store_s", "s"},
    {"self.api_s", "s"},
    {"self.json_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

using Metrics = std::vector<std::pair<std::string, double>>;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 12.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string reference = "perfbench/reference.json";
  std::string state_dir;
  std::string commit = "unknown";
  std::string write_reference;
};

[[noreturn]] void usage(const std::string& what) {
  std::cerr << "perfbench: " << what
            << "\nusage: perfbench --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--work-dir DIR] [--reference FILE]"
               " [--state-dir DIR] [--commit ID]\n"
               "       perfbench --write-reference FILE\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--work-dir") {
        a.work_dir = value;
      } else if (flag == "--reference") {
        a.reference = value;
      } else if (flag == "--state-dir") {
        a.state_dir = value;
      } else if (flag == "--commit") {
        a.commit = value;
      } else if (flag == "--write-reference") {
        a.write_reference = value;
      } else {
        usage("unknown option " + flag);
      }
    } catch (const std::logic_error&) {
      usage("malformed value for " + flag);
    }
  }
  if (a.write_reference.empty() && a.workload.empty()) {
    usage("--workload is required");
  }
  return a;
}

void run_workload(Run& run) {
  if (run.workload == "tm_ladder") {
    run_tm_ladder(run);
  } else if (run.workload == "failure_fleet") {
    run_failure_fleet(run);
  } else if (run.workload == "cut_survey") {
    run_cut_survey(run);
  } else {
    usage("unknown workload " + run.workload);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// 10th percentile of `v` (linear interpolation). Other tenants of a
/// shared host only ever slow a pass, in phases of seconds to minutes: the
/// passes of one run of a microsecond-op store replay ranged from 0.23 to
/// 0.40 s for the same work. A low percentile of a run's passes (or set-up
/// batches) is the steadiest estimate of the program's own speed.
double low_decile(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = 0.1 * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

Metrics end_to_end(const Run& run) {
  const double wall = low_decile(run.pass_wall_s);
  double gap_sum = 0.0;
  for (const double g : run.gaps) gap_sum += g;
  return {
      {"wall_s", wall},
      {"setup_s", low_decile(run.setup_s)},
      {"cpu_s", low_decile(run.pass_cpu_s)},
      {"rss_mb", peak_rss_mb()},
      {"ops_per_s", static_cast<double>(run.ops_per_pass) / wall},
      {"op_p50_ms", low_decile(run.pass_p50_ms)},
      {"op_tail_ms", low_decile(run.pass_tail_ms)},
      {"mean_gap",
       run.gaps.empty() ? 0.0 : gap_sum / static_cast<double>(run.gaps.size())},
  };
}

std::string layer_of(const std::string& span) {
  return span.substr(0, span.find('.'));
}

Metrics per_layer(const Run& run) {
  const std::vector<Span>& spans = run.tracer.spans();
  std::map<std::string, double> total;  // span name -> seconds
  std::map<std::string, double> count;
  std::map<std::string, double> self;   // layer -> self seconds
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[s.parent] += s.end - s.start;
  }
  int traced_pass = -1;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    total[s.name] += s.end - s.start;
    count[s.name] += 1;
    if (s.name == "pass") {
      traced_pass = static_cast<int>(i);
    } else {
      self[layer_of(s.name)] += s.end - s.start - child[i];
    }
  }
  std::map<std::string, double> m;
  for (const auto& [name, v] : run.counters) m[name] = static_cast<double>(v);
  for (const auto& [name, v] : run.layer) m[name] = v;
  const auto mean_us = [&](const char* name) {
    return count[name] > 0 ? 1e6 * total[name] / count[name] : 0.0;
  };
  m["topo.build_s"] = total["topo.build"];
  m["topo.builds"] = count["topo.build"];
  m["tm.build_s"] = total["tm.build"] + total["tm.lm"];
  m["tm.lm_s"] = total["tm.lm"];
  m["tm.builds"] = count["tm.build"] + count["tm.lm"];
  m["mcf.gk.solve_s"] = total["mcf.gk"];
  m["mcf.gk.us_per_dijkstra"] =
      m["mcf.gk.dijkstras"] > 0 ? 1e6 * total["mcf.gk"] / m["mcf.gk.dijkstras"]
                                : 0.0;
  m["mcf.scenario.apply_s"] = total["mcf.scenario"];
  m["mcf.warm.solve_s"] = total["mcf.warm"];
  m["lp.solve_s"] = total["lp"];
  m["lp.us_per_pivot"] =
      m["lp.pivots"] > 0 ? 1e6 * total["lp"] / m["lp.pivots"] : 0.0;
  for (const char* est : {"brute_force", "one_node", "two_node", "expanding",
                          "eigenvector", "st_mincut", "bisection"}) {
    m[std::string("cuts.") + est + "_s"] = total[std::string("cuts.") + est];
  }
  m["flow.solve_s"] = total["flow.global_min_cut"];
  m["exp.sweep_s"] = total["exp.sweep"];
  m["store.open_s"] = total["store.open"];
  m["store.get_us"] = mean_us("store.get");
  m["store.put_us"] = mean_us("store.put");
  m["api.query_us"] = mean_us("api.query");
  m["json.encode_us"] = mean_us("json.encode");
  for (const auto& [layer, v] : self) m["self." + layer + "_s"] = v;
  if (traced_pass >= 0) {
    const Span& p = spans[traced_pass];
    m["trace.coverage"] = child[traced_pass] / (p.end - p.start);
  }
  m["trace.spans"] = static_cast<double>(spans.size());
  Metrics out;
  for (const MetricDef& d : kPerLayer) {
    const auto it = m.find(d.name);
    out.emplace_back(d.name, it == m.end() ? 0.0 : it->second);
  }
  return out;
}

std::string filesystem_type(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x794c7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

tb::json::Value host_info(const Args& a) {
  using tb::json::Value;
  Value h = Value::object();
  h.set("nproc", Value::number_v(std::thread::hardware_concurrency()));
  h.set("pool_workers",
        Value::number_v(static_cast<double>(tb::ThreadPool::shared().size())));
  h.set("compiler", Value::string_v(__VERSION__));
  h.set("build_type", Value::string_v(PERFBENCH_BUILD_TYPE));
  h.set("store_fs", Value::string_v(filesystem_type(a.work_dir)));
  h.set("commit", Value::string_v(a.commit));
  return h;
}

/// Exact-repeat check across runs: the runs of a (workload, seed) in a
/// state directory keep a record of their counters; a counter already in
/// the record must match it, and a new one (traced runs count more) is
/// added to it. Returns the mismatches.
std::vector<std::string> check_repeat(const Args& a, const Run& run) {
  if (a.state_dir.empty()) return {};
  std::filesystem::create_directories(a.state_dir);
  const std::string path = a.state_dir + "/" + a.workload + "-" +
                           std::to_string(a.seed) + ".counters";
  std::map<std::string, long> record;
  {
    std::ifstream in(path);
    std::string name;
    long value = 0;
    while (in >> name >> value) record[name] = value;
  }
  std::vector<std::string> drift;
  for (const auto& [name, v] : run.counters) {
    const auto [it, added] = record.emplace(name, v);
    if (!added && it->second != v) {
      drift.push_back("exact-repeat counter " + name + " is " +
                      std::to_string(v) + ", an earlier run of this seed had " +
                      std::to_string(it->second));
    }
  }
  std::ofstream out(path);
  for (const auto& [name, v] : record) out << name << ' ' << v << '\n';
  return drift;
}

void check_reference(Run& run) {
  const tb::json::Value* ref =
      run.reference ? run.reference->find(run.workload) : nullptr;
  if (ref == nullptr || ref->items.size() != run.intervals.size()) {
    run.fail("reference.json has no matching entry for " + run.workload);
    return;
  }
  for (std::size_t i = 0; i < run.intervals.size(); ++i) {
    const auto [lo, hi] = run.intervals[i];
    const double ref_lo = ref->items[i].items[0].number;
    const double ref_hi = ref->items[i].items[1].number;
    if (!intervals_overlap(lo, hi, ref_lo, ref_hi)) {
      run.fail(run.workload + " output " + std::to_string(i) +
               ": interval does not overlap the reference's");
    }
  }
}

int write_reference(const Args& a) {
  using tb::json::Value;
  Value doc = Value::object();
  doc.set("seed", Value::number_v(static_cast<double>(kDefaultSeed)));
  doc.set("cut_survey_throughput", cut_survey_reference_throughput());
  for (const char* w : {"tm_ladder", "failure_fleet", "cut_survey"}) {
    Run run;
    run.workload = w;
    run.seconds = 0.0;
    run.work_dir = a.work_dir;
    run.reference = &doc;
    run_workload(run);
    for (const std::string& f : run.failures) {
      std::cerr << "check: " << f << '\n';
    }
    Value arr = Value::array();
    for (const auto& [lo, hi] : run.intervals) {
      Value pair = Value::array();
      pair.items.push_back(Value::number_v(lo));
      pair.items.push_back(Value::number_v(hi));
      arr.items.push_back(std::move(pair));
    }
    doc.set(w, std::move(arr));
  }
  std::ofstream(a.write_reference) << tb::json::dump(doc) << '\n';
  return 0;
}

int run_main(const Args& a) {
  Run run;
  run.workload = a.workload;
  run.seed = a.seed;
  run.seconds = a.seconds;
  run.work_dir = a.work_dir;
  run.tracer = Tracer(a.trace);
  const tb::json::Value reference = tb::json::parse(read_file(a.reference));
  run.reference = &reference;

  run_workload(run);
  if (a.seed == kDefaultSeed || run.seed_invariant) check_reference(run);
  const std::vector<std::string> drift = check_repeat(a, run);
  if (!drift.empty()) {
    for (const std::string& d : drift) std::cerr << "perfbench: " << d << '\n';
    return 3;  // a drifting workload must not pass as noise
  }

  const Metrics metrics = a.trace ? per_layer(run) : end_to_end(run);
  const std::vector<MetricDef>& defs = a.trace ? kPerLayer : kEndToEnd;
  using tb::json::Value;
  Value out_metrics = Value::object();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << "metric " << metrics[i].first << " = "
              << tb::json::number_to_string(metrics[i].second) << ' '
              << defs[i].unit << '\n';
    Value m = Value::object();
    m.set("value", Value::number_v(metrics[i].second));
    m.set("unit", Value::string_v(defs[i].unit));
    out_metrics.set(metrics[i].first, std::move(m));
  }
  const long failed =
      std::min(run.attempted, static_cast<long>(run.failures.size()));
  std::printf("info op_tail_ms is p%.3f of the %zu requests of a pass, "
              "each answering %zu of its %zu ops (10th percentile over "
              "passes)\n",
              run.tail_percentile, run.requests_per_pass, run.ops_per_request,
              run.ops_per_pass);
  const auto [lo, hi] =
      std::minmax_element(run.pass_wall_s.begin(), run.pass_wall_s.end());
  std::printf("info passes %zu (%.4f to %.4f s), timed phase %.3f s, "
              "fail_rate %.6g\n",
              run.pass_wall_s.size(), *lo, *hi, run.timed_s,
              static_cast<double>(failed) /
                  static_cast<double>(std::max(1L, run.attempted)));
  std::printf("info %ld of %ld certified solves stopped above eps "
              "(largest gap %.4f)\n",
              run.above_eps, run.certificates, run.max_gap);
  std::cout << "host " << tb::json::dump(host_info(a)) << '\n';
  for (const std::string& f : run.failures) {
    std::cout << "check-failed " << f << '\n';
  }

  if (a.trace) {
    std::ofstream spans(a.work_dir + "/trace-" + a.workload + "-" +
                        std::to_string(a.seed) + ".json");
    Value arr = Value::array();
    for (const Span& s : run.tracer.spans()) {
      Value v = Value::object();
      v.set("name", Value::string_v(s.name));
      v.set("start", Value::number_v(s.start));
      v.set("end", Value::number_v(s.end));
      v.set("parent", Value::number_v(s.parent));
      v.set("op", Value::number_v(static_cast<double>(s.op)));
      arr.items.push_back(std::move(v));
    }
    spans << tb::json::dump(arr) << '\n';
  }

  Value result = Value::object();
  result.set("correct", Value::boolean_v(run.failures.empty()));
  result.set("attempted", Value::number_v(static_cast<double>(run.attempted)));
  result.set("failed", Value::number_v(static_cast<double>(failed)));
  result.set("metrics", std::move(out_metrics));
  std::cout << tb::json::dump(result) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Before anything touches the shared pool, which sizes itself once.
  setenv("TOPOBENCH_THREADS", std::to_string(perfbench::kPoolWorkers).c_str(),
         1);
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    std::filesystem::create_directories(args.work_dir);
    if (!args.write_reference.empty()) {
      return perfbench::write_reference(args);
    }
    return perfbench::run_main(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}

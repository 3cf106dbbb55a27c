// cut_survey: certified cut upper bounds without any throughput solve —
// cut_upper_bound (the full estimator battery, exact s-t cuts on the
// CutBattery, and bisection) on the ten representatives nearest 256
// servers under RM(1), then flow::global_min_cut with FlowAlgo::Auto on
// each of them and on a fixed 1,024-switch, degree-12 Jellyfish (12,288
// arcs). An op is one instance's bounds: its cut bound and global min cut
// (the min cut alone for the large Jellyfish), 11 ops a pass. Ops run back
// to back on the client. The global min cut is flow::global_min_cut's
// computation spelled out on the CutBattery, so the push-relabel counters
// cover all n-1 max-flows, not only the winning one.
//
// Chosen because the cut layer and push-relabel do all the work, and the
// large instance sits above Auto's ParallelDischarge arc cutoff while the
// representatives sit below it, so either side of that choice shows.
//
// The representatives are fixed, so their certified throughput is a
// constant of reference.json and every seed checks its bounds against it;
// --seed relabels the large Jellyfish, whose min cut is exact on every
// labeling.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/evaluator.h"
#include "core/registry.h"
#include "cuts/bisection.h"
#include "cuts/exact_cuts.h"
#include "flow/cut_battery.h"
#include "flow/flow_network.h"
#include "flow/min_cut.h"
#include "tm/synthetic.h"
#include "topo/jellyfish.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kServers = 256;
constexpr int kLargeSwitches = 1024;
constexpr int kLargeDegree = 12;
constexpr double kEpsilon = 0.05;  ///< reference throughput solves

struct Instance {
  std::shared_ptr<const tb::Network> net;
  std::shared_ptr<const tb::TrafficMatrix> tm;  ///< null for the large one
};

std::vector<Instance> build_instances(Run& run) {
  std::vector<Instance> out;
  const std::vector<tb::Family> families = tb::all_families();
  for (std::size_t f = 0; f <= families.size(); ++f) {
    Instance in;
    std::vector<int> perm;
    tb::Network base;
    {
      const Scope span(run.tracer, "topo.build");
      base = f < families.size()
                 ? tb::family_representative(families[f], kServers,
                                             kTopologySeed)
                 : tb::make_jellyfish(kLargeSwitches, kLargeDegree, 1,
                                      tb::mix_seed(kTopologySeed, f));
      // --seed relabels only the large Jellyfish. Relabeled per seed, the
      // representatives' estimators did different work (DCell's bound took
      // 243 to 433 ms over three seeds), which spread the median op by 28%.
      const bool large = f == families.size();
      perm = relabeling(base.graph.num_nodes(),
                        large ? tb::mix_seed(run.seed, f) : kTopologySeed);
      in.net = std::make_shared<const tb::Network>(relabel(base, perm));
    }
    if (f < families.size()) {
      in.tm = traced_tm(run, tb::exp::random_matching_tm(1), base,
                        tb::mix_seed(kTopologySeed, f), perm);
    }
    out.push_back(std::move(in));
  }
  return out;
}

/// Smallest total capacity at a node: no cut separating one node can be
/// cheaper, so a global min cut never exceeds it.
double min_node_capacity(const tb::Graph& g) {
  std::vector<double> cap(static_cast<std::size_t>(g.num_nodes()), 0.0);
  for (int a = 0; a < g.num_arcs(); ++a) {
    cap[static_cast<std::size_t>(g.arc_from(a))] += g.arc_cap(a);
  }
  return *std::min_element(cap.begin(), cap.end());
}

/// flow::global_min_cut(g, opts) on the CutBattery: the min cut over the
/// pairs (0, t), t = 1..n-1, under the same selection rule. Adds the work
/// of every pair's max-flow to `stats`.
double global_min_cut(const tb::Graph& g, const tb::flow::FlowOptions& opts,
                      tb::flow::MaxFlowStats& stats) {
  std::vector<std::pair<int, int>> pairs;
  for (int t = 1; t < g.num_nodes(); ++t) pairs.emplace_back(0, t);
  const tb::flow::CutBattery battery(g, opts);
  const std::vector<tb::flow::StCut> cuts = battery.solve(pairs);
  for (const tb::flow::StCut& c : cuts) stats.add(c.stats);
  const int best =
      tb::flow::CutBattery::best_index(cuts, battery.tolerance());
  return cuts[static_cast<std::size_t>(best)].value;
}

/// cut_upper_bound's members, each called on its own inside a span, with
/// the same arguments it passes them.
void traced_estimators(Run& run, const Instance& in,
                       const tb::CutBoundOptions& opts) {
  const tb::Graph& g = in.net->graph;
  const tb::TrafficMatrix& tm = *in.tm;
  tb::flow::FlowOptions fo;
  fo.threads = opts.solver_threads;
  bool exact = false;
  const auto member = [&](const char* name, auto&& estimate) {
    const Scope span(run.tracer, name);
    const tb::cuts::CutResult r = estimate();
    exact = exact || r.bound == tb::cuts::CutBound::Exact;
  };
  member("cuts.brute_force", [&] {
    return tb::cuts::sparsest_cut_brute_force(g, tm, opts.brute_force_cap);
  });
  member("cuts.one_node",
         [&] { return tb::cuts::sparsest_cut_one_node(g, tm); });
  member("cuts.two_node",
         [&] { return tb::cuts::sparsest_cut_two_node(g, tm); });
  member("cuts.expanding",
         [&] { return tb::cuts::sparsest_cut_expanding(g, tm); });
  member("cuts.eigenvector",
         [&] { return tb::cuts::sparsest_cut_eigenvector(g, tm); });
  member("cuts.st_mincut", [&] {
    return tb::cuts::sparsest_cut_st_mincut(g, tm, opts.st_pairs, opts.seed,
                                            fo);
  });
  if (!exact) {
    member("cuts.bisection", [&] {
      return tb::cuts::bisection_sparsity(g, tm, 18, 8, opts.seed, 4, fo);
    });
  }
}

}  // namespace

tb::json::Value cut_survey_reference_throughput() {
  Run scratch;
  tb::json::Value out = tb::json::Value::array();
  tb::mcf::SolveOptions solve;
  solve.epsilon = kEpsilon;
  for (const Instance& in : build_instances(scratch)) {
    if (!in.tm) continue;
    const tb::mcf::ThroughputResult r =
        tb::mcf::compute_throughput(*in.net, *in.tm, solve);
    tb::json::Value pair = tb::json::Value::array();
    pair.items.push_back(tb::json::Value::number_v(r.throughput));
    pair.items.push_back(tb::json::Value::number_v(r.upper_bound));
    out.items.push_back(std::move(pair));
  }
  return out;
}

void run_cut_survey(Run& run) {
  run.seed_invariant = true;  // relabeled fixed instances
  const std::vector<Instance> instances =
      repeated_setup(run, [&] { return build_instances(run); });
  const tb::json::Value* ref_thr =
      run.reference ? run.reference->find("cut_survey_throughput") : nullptr;

  std::vector<tb::CutBoundOptions> bound_opts;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    tb::CutBoundOptions o;
    o.seed = tb::mix_seed(kTopologySeed, i);
    bound_opts.push_back(o);
  }
  const tb::flow::FlowOptions auto_flow;  // FlowAlgo::Auto, shared pool

  std::vector<double> first_values;
  timed_passes(run, [&](int pass) {
    tb::flow::MaxFlowStats stats;
    long exact = 0;
    long parallel_discharge = 0;
    std::vector<double> bounds;   // cut bound per representative
    std::vector<double> min_cuts;  // global min cut per instance
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const Instance& in = instances[i];
      const tb::Timer latency;
      try {
        if (in.tm) {
          const Scope span(run.tracer, "cuts.upper_bound",
                           static_cast<long>(i));
          const tb::CutBoundResult b =
              tb::cut_upper_bound(*in.net, *in.tm, bound_opts[i]);
          stats.add(b.flow_stats);
          if (b.kind == tb::cuts::CutBound::Exact) ++exact;
          bounds.push_back(b.bound);
        }
        const Scope span(run.tracer, "flow.global_min_cut",
                         static_cast<long>(i));
        min_cuts.push_back(global_min_cut(in.net->graph, auto_flow, stats));
      } catch (const std::exception& e) {
        run.fail(in.net->name + ": " + e.what());
      }
      run.op_ms.push_back(latency.millis());
      ++run.attempted;
    }
    std::vector<double> values = bounds;
    values.insert(values.end(), min_cuts.begin(), min_cuts.end());
    run.set_counter("flow.pushes", stats.pushes);
    run.set_counter("flow.relabels", stats.relabels);
    run.set_counter("flow.global_relabels", stats.global_relabels);
    if (pass == 0) {
      first_values = values;
      // Outputs of one pass: bounds against the fixed instances' certified
      // throughput (every seed), min cuts against the node capacities and,
      // at the default seed, against reference.json.
      for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (ref_thr == nullptr || i >= ref_thr->items.size()) {
          run.fail("reference.json lacks cut_survey_throughput");
          continue;
        }
        const double thr = ref_thr->items[i].items[0].number;
        if (bounds[i] < thr * (1.0 - 1e-9)) {
          run.fail(instances[i].net->name + ": cut bound below throughput");
        }
        run.gaps.push_back(bounds[i] / thr - 1.0);
      }
      for (std::size_t i = 0; i < min_cuts.size(); ++i) {
        const double v = min_cuts[i];
        const tb::Graph& g = instances[i].net->graph;
        if (!(v > 0.0) || v > min_node_capacity(g) * (1.0 + 1e-9)) {
          run.fail(instances[i].net->name + ": global min cut out of range");
        }
        run.intervals.emplace_back(v, v);
        if (tb::flow::resolve_flow_algo(tb::flow::FlowNetwork::from_graph(g),
                                        tb::flow::FlowAlgo::Auto) ==
            tb::flow::FlowAlgo::ParallelDischarge) {
          parallel_discharge += g.num_nodes() - 1;
        }
      }
      if (run.tracer.active()) {
        run.set_layer("cuts.exact_share",
                      static_cast<double>(exact) /
                          static_cast<double>(bounds.size()));
        run.set_layer("flow.parallel_discharge_solves",
                      static_cast<double>(parallel_discharge));
        run.set_layer("flow.pushes", static_cast<double>(stats.pushes));
        run.set_layer("flow.relabels", static_cast<double>(stats.relabels));
        run.set_layer("flow.global_relabels",
                      static_cast<double>(stats.global_relabels));
      }
    } else if (values != first_values) {
      run.fail("cut bounds changed between passes");
    }
  });

  if (run.tracer.active()) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (instances[i].tm) traced_estimators(run, instances[i], bound_opts[i]);
    }
  }
}

}  // namespace perfbench

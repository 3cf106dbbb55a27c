// failure_fleet: failure_resilience's grid through the runner's failures
// mode — the representatives nearest 24 servers x {A2A, RM(1)} x
// {fail(f=0.02), fail(f=0.05), groups(f=0.05), surge(x=1.25)}, 80 cells.
// One request per (topology, TM) group: a 1 x 1 x 4 sweep the runner
// evaluates as a ScenarioFleet (one cold baseline, then the scenarios
// warm-solved on forked sessions spread over the shared pool). An op is
// one scenario cell, answered when its group returns.
//
// Chosen because it drives the mcf engine through perturbations and warm
// solves, and because six of the ten families fall under Auto's ExactLP
// cutoff at this size, so the simplex does most of the solve time.
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/registry.h"
#include "exp/runner.h"
#include "mcf/engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

constexpr int kServers = 24;
constexpr double kEpsilon = 0.05;

struct Group {
  std::shared_ptr<const tb::Network> net;
  std::shared_ptr<const tb::TrafficMatrix> tm;
  std::vector<tb::mcf::ScenarioSpec> specs;  ///< with the runner's seeds
  tb::exp::Sweep sweep;  ///< the group request
};

std::vector<tb::exp::ScenarioPoint> scenarios() {
  std::vector<tb::exp::ScenarioPoint> s =
      tb::exp::random_failure_scenarios({0.02, 0.05});
  for (tb::exp::ScenarioPoint& g :
       tb::exp::correlated_group_scenarios({0.05})) {
    s.push_back(std::move(g));
  }
  s.push_back(tb::exp::surge_scenario(1.25));
  return s;
}

std::vector<Group> build_groups(Run& run) {
  const std::vector<tb::exp::TmSpec> tms = {tb::exp::a2a_tm(),
                                            tb::exp::random_matching_tm(1)};
  const std::vector<tb::exp::ScenarioPoint> points = scenarios();
  std::vector<Group> groups;
  const std::vector<tb::Family> families = tb::all_families();
  for (std::size_t f = 0; f < families.size(); ++f) {
    std::shared_ptr<const tb::Network> net;
    std::vector<int> perm;
    tb::Network base;
    {
      const Scope span(run.tracer, "topo.build");
      base = tb::family_representative(families[f], kServers, kTopologySeed);
      perm = relabeling(base.graph.num_nodes(), tb::mix_seed(run.seed, f));
      net = std::make_shared<const tb::Network>(relabel(base, perm));
    }
    for (const tb::exp::TmSpec& spec : tms) {
      Group g;
      g.net = net;
      // A fixed base seed keeps the traffic and the sampled failures (edge
      // and group ids, which relabeling keeps) the same on every --seed.
      const std::uint64_t base_seed =
          tb::mix_seed(kTopologySeed, groups.size());
      // The runner's failures-mode seeding: the group TM comes from cell
      // 0's stream, scenario k samples from mix_seed(mix_seed(base, k),
      // trials + 2) with trials = 0.
      const std::uint64_t tm_seed =
          tb::mix_seed(tb::mix_seed(base_seed, 0), 0);
      g.tm = traced_tm(run, spec, base, tm_seed, perm);
      for (std::size_t k = 0; k < points.size(); ++k) {
        tb::mcf::ScenarioSpec s = points[k].spec;
        s.seed = tb::mix_seed(tb::mix_seed(base_seed, k), 2);
        g.specs.push_back(std::move(s));
      }
      g.sweep.topologies.push_back({net->name, [net] { return net; }});
      g.sweep.tms.push_back(prebuilt_tm(spec.label, g.tm, tm_seed));
      g.sweep.scenarios = points;
      g.sweep.solve.epsilon = kEpsilon;
      g.sweep.base_seed = base_seed;
      groups.push_back(std::move(g));
    }
  }
  return groups;
}

/// The fleet's evaluation spelled out on the engine's public session API,
/// so each step gets its own span: a cold baseline, then per scenario a
/// fork + apply, a warm solve, and the revert.
std::vector<tb::mcf::ThroughputResult> traced_fleet(
    Run& run, const Group& g, const tb::mcf::SolveOptions& solve) {
  tb::mcf::ThroughputEngine base(*g.net);
  attributed_solve(run, [&] { return base.solve(*g.tm, solve); });
  std::vector<tb::mcf::ThroughputResult> out;
  for (const tb::mcf::ScenarioSpec& spec : g.specs) {
    std::unique_ptr<tb::mcf::ThroughputEngine> clone;
    {
      const Scope span(run.tracer, "mcf.scenario");
      clone = base.fork_session();
      clone->apply_scenario(spec);
    }
    {
      const Scope span(run.tracer, "mcf.warm");
      out.push_back(attributed_solve(
          run, [&] { return clone->warm_solve(*g.tm, solve); }));
    }
    {
      const Scope span(run.tracer, "mcf.scenario");
      clone->clear_scenario();
    }
    const tb::mcf::ThroughputResult& r = out.back();
    run.add_layer("mcf.warm.solves", 1);
    run.add_layer("mcf.warm.phases", static_cast<double>(r.stats.phases));
    run.add_layer("mcf.warm.hits", r.stats.warm_start ? 1 : 0);
    if (r.solver == "exact-lp") {
      run.add_layer("lp.warm.solves", 1);
      run.add_layer("lp.warm.hits", r.stats.warm_start ? 1 : 0);
    }
  }
  return out;
}

}  // namespace

void run_failure_fleet(Run& run) {
  run.seed_invariant = true;  // relabeled fixed instances
  const std::vector<Group> groups =
      repeated_setup(run, [&] { return build_groups(run); });
  const std::size_t per_group = groups.front().specs.size();
  run.ops_per_request = per_group;

  // Solves run serially (solver_threads = 1); the fleet spreads a group's
  // scenarios over the shared pool.
  tb::exp::RunOptions opts;
  opts.solver_threads = 1;

  std::vector<double> first_values;
  timed_passes(run, [&](int pass) {
    tb::exp::Runner runner;  // fresh cache: every pass solves cold
    long phases = 0;
    long dijkstras = 0;
    long pivots = 0;
    std::size_t cell = 0;
    for (std::size_t i = 0; i < groups.size(); ++i) {
      const tb::Timer latency;
      tb::exp::ResultSet rs;
      try {
        const Scope span(run.tracer, "exp.sweep",
                         static_cast<long>(i * per_group));
        rs = runner.run(groups[i].sweep, opts);
      } catch (const std::exception& e) {
        run.fail(groups[i].net->name + ": " + e.what());
      }
      run.op_ms.push_back(latency.millis());
      run.attempted += static_cast<long>(per_group);
      for (const tb::exp::CellResult& c : rs.rows()) {
        phases += c.phases;
        dijkstras += c.dijkstras;
        pivots += c.pivots;
        if (pass == 0) {
          first_values.push_back(c.throughput);
        } else if (cell >= first_values.size() ||
                   c.throughput != first_values[cell]) {
          run.fail(c.topology + " " + c.tm + " " + c.scenario +
                   ": value changed between passes");
        }
        ++cell;
      }
    }
    if (cell != groups.size() * per_group) run.fail("missing cells");
    run.set_counter("mcf.gk.phases", phases);
    run.set_counter("mcf.gk.dijkstras", dijkstras);
    run.set_counter("lp.pivots", pivots);
    run.set_counter("exp.cache.misses",
                    static_cast<long>(runner.cache_stats().misses));
  });

  // Certify on the engine: the fleet reports each scenario's upper bound,
  // and its per-scenario results are bitwise the runner's.
  tb::mcf::SolveOptions solve = groups.front().sweep.solve;
  solve.solver_threads = 1;
  std::vector<std::vector<tb::mcf::ThroughputResult>> cert(groups.size());
  if (run.tracer.active()) {
    for (std::size_t i = 0; i < groups.size(); ++i) {
      cert[i] = traced_fleet(run, groups[i], solve);
    }
    const auto rate = [&](const char* hits, const char* calls) {
      double h = 0.0;
      double c = 0.0;
      for (const auto& [name, v] : run.layer) {
        if (name == hits) h = v;
        if (name == calls) c = v;
      }
      return c > 0.0 ? h / c : 0.0;
    };
    run.set_layer("mcf.warm.hit_rate",
                  rate("mcf.warm.hits", "mcf.warm.solves"));
    run.set_layer("lp.warm.hit_rate", rate("lp.warm.hits", "lp.warm.solves"));
  } else {
    for (std::size_t i = 0; i < groups.size(); ++i) {
      tb::mcf::ScenarioFleet fleet(*groups[i].net);
      for (tb::mcf::FleetCell& c :
           fleet.evaluate(*groups[i].tm, groups[i].specs, solve)) {
        cert[i].push_back(std::move(c.result));
      }
    }
  }
  for (std::size_t i = 0; i < groups.size(); ++i) {
    for (std::size_t k = 0; k < cert[i].size(); ++k) {
      const tb::mcf::ThroughputResult& c = cert[i][k];
      const std::size_t cell = i * per_group + k;
      const std::string what =
          groups[i].net->name + " group " + std::to_string(i) + " scenario " +
          std::to_string(k);
      if (cell >= first_values.size() || c.throughput != first_values[cell]) {
        run.fail(what + ": engine value differs from the runner's");
      }
      record_certificate(run, what, c.throughput, c.upper_bound, kEpsilon);
    }
  }
}

}  // namespace perfbench

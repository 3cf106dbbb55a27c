// tm_ladder: the paper's Fig. 4 grid as cold solves through exp::Runner —
// the ten registry representatives nearest 64 servers x {A2A, RM(5),
// RM(1), LM} at eps = 0.05, 40 cells. One request per topology row (a
// 1 x 4 sweep whose cells the runner spreads over the shared pool); an op
// is one cell, answered when its row returns.
//
// Chosen because the GK solver does ~98% of the work here (sparse TMs take
// 500-2,000 phases), while flow, cuts and the store do nothing. Traced
// runs also replay the grid's rows through a result store and the api
// (trace_store_layers), the only place the store, exp-cache, api and json
// layers are measured.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/topobench.h"
#include "bench.h"
#include "core/registry.h"
#include "exp/runner.h"
#include "mcf/engine.h"
#include "store/result_store.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

constexpr int kServers = 64;
constexpr double kEpsilon = 0.05;

struct Row {
  std::shared_ptr<const tb::Network> net;
  std::uint64_t base_seed = 0;
  std::vector<std::shared_ptr<const tb::TrafficMatrix>> tms;
  tb::exp::Sweep sweep;  ///< the row request: 1 topology x the TM ladder
};

std::vector<tb::exp::TmSpec> ladder_tms() {
  return {tb::exp::a2a_tm(), tb::exp::random_matching_tm(5),
          tb::exp::random_matching_tm(1), tb::exp::longest_matching_tm()};
}

std::vector<Row> build_rows(Run& run) {
  const std::vector<tb::exp::TmSpec> specs = ladder_tms();
  std::vector<Row> rows;
  const std::vector<tb::Family> families = tb::all_families();
  for (std::size_t f = 0; f < families.size(); ++f) {
    Row row;
    std::vector<int> perm;
    tb::Network base;
    {
      const Scope span(run.tracer, "topo.build");
      base = tb::family_representative(families[f], kServers, kTopologySeed);
      perm = relabeling(base.graph.num_nodes(), tb::mix_seed(run.seed, f));
      row.net = std::make_shared<const tb::Network>(relabel(base, perm));
    }
    row.base_seed = tb::mix_seed(run.seed, f);
    row.sweep.topologies.push_back({row.net->name, [net = row.net] {
                                      return net;
                                    }});
    row.sweep.solve.epsilon = kEpsilon;
    row.sweep.base_seed = row.base_seed;
    for (std::size_t k = 0; k < specs.size(); ++k) {
      // The runner hands cell k of the row the stream mix_seed(mix_seed(
      // base, k), 0); the matrix itself is the fixed one, relabeled.
      const std::uint64_t cell_stream =
          tb::mix_seed(tb::mix_seed(row.base_seed, k), 0);
      row.tms.push_back(traced_tm(run, specs[k], base,
                                  tb::mix_seed(kTopologySeed, f, k), perm));
      row.sweep.tms.push_back(
          prebuilt_tm(specs[k].label, row.tms.back(), cell_stream));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// One answer as the daemon would send it: the record's fields as a json
/// object, numbers in the serializer's exact form.
std::string encode(const tb::api::Result& r) {
  tb::json::Value v = tb::json::Value::object();
  v.set("topology", tb::json::Value::string_v(r.topology));
  v.set("servers", tb::json::Value::number_v(r.servers));
  v.set("switches", tb::json::Value::number_v(r.switches));
  v.set("tm", tb::json::Value::string_v(r.tm));
  v.set("seed", tb::json::Value::string_v(std::to_string(r.seed)));
  v.set("solver", tb::json::Value::string_v(r.solver));
  v.set("throughput", tb::json::Value::number_v(r.throughput));
  v.set("phases", tb::json::Value::number_v(static_cast<double>(r.phases)));
  v.set("dijkstras",
        tb::json::Value::number_v(static_cast<double>(r.dijkstras)));
  v.set("pivots", tb::json::Value::number_v(static_cast<double>(r.pivots)));
  v.set("row", tb::json::Value::string_v(tb::exp::csv_row(r)));
  return tb::json::dump(v);
}

/// The store, exp-cache, api and json layers on the finished grid (traced
/// runs): put every cell of `results` (row i answers `sweeps[i]`) into a
/// fresh store, answer each row from it through a read-only api::Service
/// (disk hits first, then memory hits), json-encode every answer and check
/// it is byte-identical to the original, and read every key back from the
/// store.
void trace_store_layers(Run& run, const std::vector<tb::exp::Sweep>& sweeps,
                        const std::vector<tb::exp::ResultSet>& results) {
  constexpr int kReplays = 50;  ///< answers per row: 1 disk hit, 49 memory
  std::filesystem::create_directories(run.work_dir);
  const std::string path = run.work_dir + "/grid.store";
  std::filesystem::remove(path);
  std::vector<std::string> keys;
  std::vector<std::string> expected;  // encodings of the original cells
  {
    std::unique_ptr<tb::store::ResultStore> store;
    {
      const Scope span(run.tracer, "store.open");
      store = std::make_unique<tb::store::ResultStore>(
          path, tb::store::ResultStore::Mode::ReadWrite);
    }
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      const std::vector<tb::exp::Cell> cells = tb::exp::expand(sweeps[i]);
      for (std::size_t k = 0; k < cells.size(); ++k) {
        keys.push_back(tb::exp::cell_result_key(sweeps[i], cells[k]));
        expected.push_back(encode(results[i].rows()[k]));
        const Scope span(run.tracer, "store.put");
        store->put(keys.back(), results[i].rows()[k]);
      }
    }
    run.set_counter("store.records", static_cast<long>(store->size()));
  }
  run.set_layer("store.bytes",
                static_cast<double>(std::filesystem::file_size(path)));

  std::unique_ptr<tb::api::Service> service;
  {
    const Scope span(run.tracer, "store.open");
    tb::api::ServiceConfig cfg;
    cfg.store_path = path;
    cfg.store_read_only = true;
    cfg.solver_threads = 1;
    service = std::make_unique<tb::api::Service>(cfg);
  }
  for (int rep = 0; rep < kReplays; ++rep) {
    std::size_t cell = 0;
    for (const tb::exp::Sweep& s : sweeps) {
      tb::api::SweepQuery q;
      q.topologies = s.topologies;
      q.tms = s.tms;
      q.epsilon = s.solve.epsilon;
      q.seed = s.base_seed;
      tb::api::SweepResult r;
      {
        const Scope span(run.tracer, "api.query");
        r = service->sweep(q);
      }
      const std::size_t hits =
          rep == 0 ? r.stats.disk_hits : r.stats.memory_hits;
      if (r.stats.solved > 0 || hits != r.results.size()) {
        run.fail("stored grid row not answered from the expected tier");
      }
      for (const tb::exp::CellResult& c : r.results.rows()) {
        std::string answer;
        {
          const Scope span(run.tracer, "json.encode");
          answer = encode(c);
        }
        if (cell >= expected.size() || answer != expected[cell]) {
          run.fail("replayed grid cell differs from its solve");
        }
        ++cell;
      }
    }
  }
  const tb::api::ServiceStats stats = service->stats();
  run.set_counter("exp.cache.memory_hits",
                  static_cast<long>(stats.memory_hits));
  run.set_counter("exp.cache.disk_hits", static_cast<long>(stats.disk_hits));

  const tb::store::ResultStore store(path,
                                     tb::store::ResultStore::Mode::ReadOnly);
  for (const std::string& key : keys) {
    const Scope span(run.tracer, "store.get");
    if (!store.get(key)) run.fail(key + ": missing from the store");
  }
  std::filesystem::remove(path);
}

}  // namespace

void run_tm_ladder(Run& run) {
  run.seed_invariant = true;  // relabeled fixed instances
  const std::vector<Row> rows =
      repeated_setup(run, [&] { return build_rows(run); });
  const std::size_t cells_per_row = rows.front().tms.size();
  run.ops_per_request = cells_per_row;

  // Solver work runs serially inside each cell (solver_threads = 1); the
  // runner spreads a row's cells over the shared pool.
  tb::exp::RunOptions opts;
  opts.solver_threads = 1;

  std::vector<double> first_values;  // pass 0, cell order
  std::vector<tb::exp::ResultSet> first_rows;  // pass 0, one per row
  timed_passes(run, [&](int pass) {
    tb::exp::Runner runner;  // fresh cache: every pass solves cold
    long phases = 0;
    long dijkstras = 0;
    long pivots = 0;
    std::size_t cell = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const long op = static_cast<long>(r * cells_per_row);
      const tb::Timer latency;
      tb::exp::ResultSet rs;
      try {
        const Scope span(run.tracer, "exp.sweep", op);
        rs = runner.run(rows[r].sweep, opts);
      } catch (const std::exception& e) {
        run.fail(rows[r].net->name + ": " + e.what());
      }
      run.op_ms.push_back(latency.millis());
      if (pass == 0) first_rows.push_back(rs);
      run.attempted += static_cast<long>(cells_per_row);
      for (const tb::exp::CellResult& c : rs.rows()) {
        phases += c.phases;
        dijkstras += c.dijkstras;
        pivots += c.pivots;
        if (pass == 0) {
          first_values.push_back(c.throughput);
        } else if (cell >= first_values.size() ||
                   c.throughput != first_values[cell]) {
          run.fail(c.topology + " " + c.tm + ": value changed between passes");
        }
        ++cell;
      }
    }
    if (cell != rows.size() * cells_per_row) run.fail("missing cells");
    run.set_counter("mcf.gk.phases", phases);
    run.set_counter("mcf.gk.dijkstras", dijkstras);
    run.set_counter("lp.pivots", pivots);
    run.set_counter("exp.cache.misses",
                    static_cast<long>(runner.cache_stats().misses));
  });

  // Certify: the same cold solves on the engine, which reports the upper
  // bound the runner's rows do not carry. A cold engine solve is bitwise
  // the runner's (both are compute_throughput's path), so the values must
  // match exactly. Traced runs solve on the client thread, inside spans.
  const std::size_t cells = rows.size() * cells_per_row;
  std::vector<tb::mcf::ThroughputResult> cert(cells);
  tb::mcf::SolveOptions solve = rows.front().sweep.solve;
  solve.solver_threads = 1;
  const auto certify = [&](std::size_t i) {
    const Row& row = rows[i / cells_per_row];
    tb::mcf::ThroughputEngine engine(*row.net);
    cert[i] = attributed_solve(
        run, [&] { return engine.solve(*row.tms[i % cells_per_row], solve); });
  };
  if (run.tracer.active()) {
    for (std::size_t i = 0; i < cells; ++i) certify(i);
  } else {
    tb::ThreadPool::shared().parallel_for(0, cells, certify);
  }
  for (std::size_t i = 0; i < cells; ++i) {
    const tb::mcf::ThroughputResult& c = cert[i];
    const std::string what = rows[i / cells_per_row].net->name + " cell " +
                             std::to_string(i % cells_per_row);
    if (i >= first_values.size() || c.throughput != first_values[i]) {
      run.fail(what + ": engine value differs from the runner's");
    }
    record_certificate(run, what, c.throughput, c.upper_bound, kEpsilon);
  }

  if (run.tracer.active()) {
    std::vector<tb::exp::Sweep> sweeps;
    for (const Row& row : rows) sweeps.push_back(row.sweep);
    trace_store_layers(run, sweeps, first_rows);
  }
}

}  // namespace perfbench

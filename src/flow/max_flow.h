// Exact single-commodity max-flow over a FlowNetwork.
//
// Two engines:
//  * HighestLabel — push-relabel with highest-label node selection, the
//    gap heuristic (a height with no nodes disconnects everything above it
//    from the sink side) and periodic global relabeling (exact residual
//    BFS distances). The production engine; runs to completion, so the
//    residual state it leaves behind is a valid maximum flow.
//  * Dinic — BFS level graph + DFS blocking flow with current-arc
//    pointers. Deliberately simple; the tests cross-check HighestLabel
//    against it on randomized instances.
//
// Every solve is serial. Flow parallelism lives one level up, in the
// CutBattery (flow/cut_battery.h), which solves many terminal pairs of one
// graph concurrently. FlowAlgo::Auto resolves to HighestLabel.
//
// Capacities are doubles; residual amounts at or below
// FlowNetwork::tolerance() count as zero everywhere, so solvers, cut
// extraction, and verification agree on saturation.
#pragma once

#include "flow/flow_network.h"

namespace tb {
class ThreadPool;
}  // namespace tb

namespace tb::flow {

/// ParallelDischarge is retired: max_flow rejects it. The enumerator stays
/// only until the repo benchmark (perfbench/) stops naming it.
enum class FlowAlgo { HighestLabel, Dinic, ParallelDischarge, Auto };

/// Work counters, mostly for tests, CSV telemetry and the micro benches.
struct MaxFlowStats {
  long pushes = 0;            ///< push-relabel: applied push operations
  long relabels = 0;          ///< push-relabel: single-node relabels
  long global_relabels = 0;   ///< push-relabel: residual-BFS height rebuilds
  long gap_jumps = 0;         ///< HighestLabel: gap-heuristic activations
  long augmenting_paths = 0;  ///< Dinic: blocking-flow augmentations

  /// Field-wise accumulate; callers sum per-solve stats in a fixed index
  /// order so aggregates stay deterministic at any thread count.
  void add(const MaxFlowStats& o) {
    pushes += o.pushes;
    relabels += o.relabels;
    global_relabels += o.global_relabels;
    gap_jumps += o.gap_jumps;
    augmenting_paths += o.augmenting_paths;
  }
};

/// Threading configuration of the cut battery, mirroring the
/// mcf::SolveOptions::solver_threads contract: 0 = the shared pool, 1 =
/// fully serial, N > 1 = a process-shared dedicated pool of N workers
/// (ThreadPool::resolve). `pool` overrides the resolution with an explicit
/// pool. Threads never change results — only which workers do the work.
struct FlowOptions {
  FlowAlgo algo = FlowAlgo::Auto;
  int threads = 0;
  ThreadPool* pool = nullptr;
};

/// The engine `algo` runs as: FlowAlgo::Auto resolves to HighestLabel on
/// every instance, other values to themselves.
FlowAlgo resolve_flow_algo(const FlowNetwork& net, FlowAlgo algo);

/// Maximum s-t flow value. Mutates `net`'s residual state in place; the
/// resulting flow is read back per arc via FlowNetwork::flow(). Throws
/// std::invalid_argument on bad terminals, an unfinalized network or
/// FlowAlgo::ParallelDischarge.
double max_flow(FlowNetwork& net, int s, int t,
                FlowAlgo algo = FlowAlgo::HighestLabel,
                MaxFlowStats* stats = nullptr);

}  // namespace tb::flow

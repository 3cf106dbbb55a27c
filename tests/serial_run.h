// Serial reference runs for the in-process determinism tests. The Runner
// has no scheduling knob, so the reference runs the whole sweep as one task
// on a shared-pool worker: every nested parallel_for — evaluation units,
// fleet scenarios, random-graph trials, solver blocks — then runs inline,
// in order, on that one thread.
#pragma once

#include <string>

#include "exp/runner.h"
#include "exp/sweep.h"
#include "util/thread_pool.h"

namespace tb::test_env {

inline std::string serial_csv(const exp::Sweep& sweep) {
  std::string csv;
  ThreadPool::shared()
      .submit([&] {
        exp::Runner runner;
        csv = runner.run(sweep, {}).to_csv();
      })
      .get();
  return csv;
}

}  // namespace tb::test_env

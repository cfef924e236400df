/**
 * @file
 * The benchmark workloads. Each runs one pass (untraced or traced)
 * for a fixed measuring time and returns its metrics and checks.
 *
 *  - serve_actors: closed loop, 64 requests in flight over 4 TCP
 *    connections into a 2-replica fleet; barrier publishes on the
 *    idle fleet before and after the load, none under it.
 *  - train_dist: one PsServer and 2 WorkerRunners (1 agent each).
 *  - train_local: the same 2 agents in one rl::A3cTrainer.
 *
 * README.md gives the reason for each workload and what each metric
 * should move.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "report.hh"
#include "spans.hh"

namespace perfbench {

/** What a pass is asked to do. */
struct PassConfig
{
    std::uint64_t seed = 1;
    double seconds = 10.0; ///< measuring time
    /** Traced pass: spans go here and per-layer metrics are
     * produced; null = untraced pass (end-to-end metrics). */
    SpanLog *spans = nullptr;
};

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run one pass of @p workload (which must be in workloadNames()). */
PassResult runWorkload(const std::string &workload,
                       const PassConfig &cfg);

PassResult runServeActors(const PassConfig &cfg);
PassResult runTrainDist(const PassConfig &cfg);
PassResult runTrainLocal(const PassConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

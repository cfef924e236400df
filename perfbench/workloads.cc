#include "workloads.hh"

namespace perfbench {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "serve_actors", "train_dist", "train_local"};
    return names;
}

PassResult
runWorkload(const std::string &workload, const PassConfig &cfg)
{
    if (workload == "serve_actors")
        return runServeActors(cfg);
    if (workload == "train_dist")
        return runTrainDist(cfg);
    return runTrainLocal(cfg);
}

} // namespace perfbench

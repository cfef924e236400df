#include "obs/host_info.hh"

#include <cstdlib>
#include <fstream>
#include <thread>

namespace fa3c::obs {

namespace {

std::string
cpuModelString()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ')
            ++begin;
        // Trim trailing whitespace/CR so the fingerprint is stable
        // across /proc formatting quirks.
        std::size_t end = line.size();
        while (end > begin &&
               (line[end - 1] == ' ' || line[end - 1] == '\r'))
            --end;
        if (end > begin)
            return line.substr(begin, end - begin);
        break;
    }
    return "unknown";
}

HostInfo
probe()
{
    HostInfo info;
    info.cpuModel = cpuModelString();
    info.logicalCores =
        static_cast<int>(std::thread::hardware_concurrency());
    if (const char *threads = std::getenv("FA3C_KERNEL_THREADS"))
        info.kernelThreads =
            static_cast<int>(std::strtol(threads, nullptr, 10));
    info.fingerprint = info.cpuModel + "/" +
                       std::to_string(info.logicalCores) + "c";
    // Appended piecewise: g++ 12 raises a false -Wrestrict on
    // "literal" + std::string&& (GCC bug 105651).
    if (info.kernelThreads > 0)
        info.fingerprint.append("/")
            .append(std::to_string(info.kernelThreads))
            .append("t");
    return info;
}

} // namespace

const HostInfo &
hostInfo()
{
    static const HostInfo info = probe();
    return info;
}

} // namespace fa3c::obs

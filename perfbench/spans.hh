/**
 * @file
 * In-memory span log of the traced run.
 *
 * The benchmark records one span around each call it makes into a
 * layer (client request, backend forward/backward/sync, registry
 * publish, agent routine). Spans are appended to memory while the run
 * is measured and written as one Chrome trace-event JSON file (opens
 * in Perfetto or chrome://tracing) only after the run ends, so file
 * I/O never lands inside a measured window.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (the benchmark's only time base). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** One timed interval at a layer boundary. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    const char *name = "";    ///< static string
    int track = 0;            ///< thread / agent / connection lane
    std::int64_t t0Ns = 0;
    std::int64_t t1Ns = 0;
};

/** Thread-safe append-only span store. */
class SpanLog
{
  public:
    /** A fresh span id (never 0). */
    std::uint64_t
    newId()
    {
        return nextId_.fetch_add(1, std::memory_order_relaxed);
    }

    void add(const Span &s);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    std::size_t size() const;

    /**
     * Write every span as Chrome trace-event JSON to @p path, with
     * @p metadata_json (a JSON object) under "metadata".
     * @return false on I/O failure.
     */
    bool writeChromeJson(const std::string &path,
                         const std::string &metadata_json) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::atomic<std::uint64_t> nextId_{1};
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its child spans cover (overlapping children count
 * once; child time outside the parent's interval is ignored).
 * Element i belongs to spans[i].
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH

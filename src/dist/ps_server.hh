/**
 * @file
 * The parameter-server process core.
 *
 * A PsServer owns the global state (an rl::GlobalParams, the same
 * single-mutex store the in-process trainers use), the worker lease
 * table (dist::LeaseTable), and a TCP endpoint speaking
 * dist::wire. Each accepted connection gets its own handler thread
 * blocking on one frame at a time: a worker Hellos once — the PS
 * validates its parameter layout against the server's network, grants
 * a lease, and from then on every Push renews the lease, runs the
 * staleness check, and applies the gradients through shared RMSProp.
 * A frame claiming more than wire::maxPayloadBytes() of this network
 * closes its connection before any payload byte is read.
 * A housekeeping thread reaps expired leases (a worker killed by
 * FA3C_FAULT_KILL_AGENT stops renewing and is dropped within one TTL;
 * a clean connection close reaps immediately) and writes periodic
 * checkpoints of the PS state through rl::checkpoint, so a PS restart
 * resumes from the last durable {theta, g, steps, version} image.
 *
 * Training ends when the global step counter crosses
 * PsServerConfig::totalSteps: every subsequent ack carries stop=1, so
 * workers drain and exit, and waitDone() unblocks the launcher.
 */

#ifndef FA3C_DIST_PS_SERVER_HH
#define FA3C_DIST_PS_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/lease.hh"
#include "dist/wire.hh"
#include "nn/a3c_network.hh"
#include "nn/rmsprop.hh"
#include "obs/telemetry.hh"
#include "rl/global_params.hh"

namespace fa3c::dist {

struct PsServerConfig
{
    std::string bindAddress = "127.0.0.1";
    int port = 0; ///< 0 = ephemeral, resolved by port()
    int backlog = 32;

    /** Worker lease TTL; a silent worker is reaped after this long. */
    std::uint32_t leaseTtlMs = 2000;

    /**
     * Maximum accepted (version - baseVersion) on a Push. The default
     * accepts everything (pure async A3C); 0 serializes workers
     * against the current version ("synchronous" mode).
     */
    std::uint64_t maxStaleness =
        std::numeric_limits<std::uint64_t>::max();

    /** Stop once this many env steps are consumed (0 = unbounded). */
    std::uint64_t totalSteps = 0;

    /** Durable PS state ("" disables checkpointing). */
    std::string checkpointPath;
    /** Steps between periodic checkpoints (0 = only final). */
    std::uint64_t checkpointEverySteps = 0;

    // Optimizer state (must match the workers' A3cConfig).
    nn::RmspropConfig rmsprop;
    float initialLr = 7e-4f;
    std::uint64_t annealSteps = 0;

    std::uint64_t seed = 1; ///< theta init when no checkpoint loads
};

/** Parameter-server endpoint: global params + leases + TCP. */
class PsServer
{
  public:
    PsServer(const nn::A3cNetwork &net, const PsServerConfig &cfg);
    ~PsServer();

    PsServer(const PsServer &) = delete;
    PsServer &operator=(const PsServer &) = delete;

    /**
     * Restore (or initialize) the global state, bind, and start the
     * accept + housekeeping threads. @return false when the socket
     * could not be bound or an existing checkpoint failed to load.
     */
    bool start();

    /** Stop serving, join every thread, write the final checkpoint. */
    void stop();

    /** The bound port (resolved when configured with 0). */
    int port() const { return port_; }

    /** True once totalSteps has been reached. */
    bool
    done() const
    {
        return done_.load(std::memory_order_acquire);
    }

    /** Block until done() or @p timeout_ms elapses (<0 = forever).
     * @return done(). */
    bool waitDone(long timeout_ms = -1);

    /** Counters for tests and the CLI (same data as a Stats RPC). */
    wire::StatsReply stats() const;

    rl::GlobalParams &params() { return params_; }
    LeaseTable &leases() { return leases_; }

  private:
    const nn::A3cNetwork &net_;
    PsServerConfig cfg_;
    rl::GlobalParams params_;
    LeaseTable leases_;
    std::uint32_t layoutCrc_ = 0;

    int listenFd_ = -1;
    int port_ = 0;
    std::thread acceptThread_;
    std::thread housekeeper_;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> done_{false};

    std::mutex connMutex_;
    std::vector<int> connFds_;
    std::vector<std::thread> connThreads_;

    std::mutex doneMutex_;
    std::condition_variable doneCv_;

    std::atomic<std::uint64_t> pushes_{0};
    std::atomic<std::uint64_t> pushRejects_{0};
    std::uint64_t lastCheckpointSteps_ = 0; ///< housekeeper only
    std::atomic<bool> finalCheckpointWritten_{false};

    obs::TelemetryRegistration telemetry_;

    void acceptMain();
    void connectionMain(int fd);
    void housekeeperMain();
    void markDone();
    bool writeCheckpoint();
    bool restoreOrInitialize();

    void handleHello(int fd, const std::string &payload,
                     std::uint64_t &owned_lease, bool &proto_ok);
    void handlePull(int fd, const std::string &payload,
                    bool &proto_ok);
    void handlePush(int fd, const std::string &payload,
                    bool &proto_ok);
    void handleHeartbeat(int fd, const std::string &payload,
                         bool &proto_ok);
    void handleStats(int fd, bool &proto_ok);
};

} // namespace fa3c::dist

#endif // FA3C_DIST_PS_SERVER_HH

/**
 * @file
 * Blocking client side of the dist wire protocol: one TCP connection
 * to a PsServer, one request/reply RPC at a time. WorkerRunner keeps
 * two of these — a push/pull connection owned by the training loop
 * and a heartbeat connection owned by the lease-renewal thread — and
 * tests / the CLI `verify` role use one directly.
 *
 * Every RPC returns false on transport or protocol failure and leaves
 * the connection in a dead state; the caller reconnects and re-Hellos
 * (the elastic-rejoin path) rather than trying to resynchronize a
 * half-spoken conversation.
 */

#ifndef FA3C_DIST_PS_CLIENT_HH
#define FA3C_DIST_PS_CLIENT_HH

#include <cstdint>
#include <string>

#include "dist/wire.hh"

namespace fa3c::dist {

/** One blocking dist-protocol connection. */
class PsClient
{
  public:
    PsClient() = default;
    ~PsClient();

    PsClient(const PsClient &) = delete;
    PsClient &operator=(const PsClient &) = delete;

    /** Connect to @p host:@p port. Any previous connection closes. */
    bool connect(const std::string &host, int port);

    bool connected() const { return fd_ >= 0; }

    void close();

    /** Introduce this worker; false on rejection (Welcome.workerId ==
     * 0) as well as on transport failure. */
    bool hello(const wire::Hello &msg, wire::Welcome &out);

    /** Fetch the full parameter image. @p trace rides on the frame
     * so the PS can parent its ps.pull span under the caller. */
    bool pull(wire::Params &out, std::size_t expect_count,
              const wire::TraceCtx &trace = {});

    /** Push gradients; @p expect_count validates the ack's theta. */
    bool push(const wire::Push &msg, wire::PushAck &out,
              std::size_t expect_count);

    bool heartbeat(std::uint64_t worker_id, wire::HeartbeatAck &out);

    bool stats(wire::StatsReply &out);

    /** Release the lease; fire-and-forget, then closes. */
    void bye(std::uint64_t worker_id);

  private:
    int fd_ = -1;

    /** Send one frame and receive one @p want-typed reply carrying
     * at most @p reply_floats parameters (bounds its payload). */
    bool request(wire::Type type, const std::string &payload,
                 wire::Type want, std::string &reply,
                 std::size_t reply_floats = 0);
};

} // namespace fa3c::dist

#endif // FA3C_DIST_PS_CLIENT_HH

#include "dist/ps_client.hh"

#include <unistd.h>

#include <cerrno>

#include "net/frame.hh"
#include "sim/logging.hh"

namespace fa3c::dist {

PsClient::~PsClient()
{
    close();
}

void
PsClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
PsClient::connect(const std::string &host, int port)
{
    close();
    fd_ = net::connectTcp(host, static_cast<std::uint16_t>(port));
    if (fd_ < 0 && errno == EINVAL)
        FA3C_WARN("dist: bad ps address '", host, "'");
    return fd_ >= 0;
}

bool
PsClient::request(wire::Type type, const std::string &payload,
                  wire::Type want, std::string &reply,
                  std::size_t reply_floats)
{
    if (fd_ < 0)
        return false;
    if (!net::sendFrame(fd_, wire::kMagic,
                        static_cast<std::uint32_t>(type),
                        payload.data(), payload.size())) {
        close();
        return false;
    }
    std::uint32_t got = 0;
    if (!net::recvFrame(fd_, wire::kMagic,
                        wire::maxPayloadBytes(reply_floats), got,
                        reply) ||
        got != static_cast<std::uint32_t>(want)) {
        close();
        return false;
    }
    return true;
}

bool
PsClient::hello(const wire::Hello &msg, wire::Welcome &out)
{
    std::string payload, reply;
    wire::encodeHello(payload, msg);
    if (!request(wire::Type::Hello, payload, wire::Type::Welcome,
                 reply) ||
        !wire::decodeWelcome(out, reply)) {
        close();
        return false;
    }
    if (out.workerId == 0) {
        close(); // rejected; the server is closing too
        return false;
    }
    return true;
}

bool
PsClient::pull(wire::Params &out, std::size_t expect_count,
               const wire::TraceCtx &trace)
{
    std::string payload, reply;
    wire::Pull msg;
    msg.trace = trace;
    wire::encodePull(payload, msg);
    if (!request(wire::Type::Pull, payload, wire::Type::Params, reply,
                 expect_count) ||
        !wire::decodeParams(out, reply, expect_count)) {
        close();
        return false;
    }
    return true;
}

bool
PsClient::push(const wire::Push &msg, wire::PushAck &out,
               std::size_t expect_count)
{
    std::string payload, reply;
    wire::encodePush(payload, msg);
    if (!request(wire::Type::Push, payload, wire::Type::PushAck, reply,
                 expect_count) ||
        !wire::decodePushAck(out, reply, expect_count)) {
        close();
        return false;
    }
    return true;
}

bool
PsClient::heartbeat(std::uint64_t worker_id, wire::HeartbeatAck &out)
{
    wire::Heartbeat hb;
    hb.workerId = worker_id;
    std::string payload, reply;
    wire::encodeHeartbeat(payload, hb);
    if (!request(wire::Type::Heartbeat, payload,
                 wire::Type::HeartbeatAck, reply) ||
        !wire::decodeHeartbeatAck(out, reply)) {
        close();
        return false;
    }
    return true;
}

bool
PsClient::stats(wire::StatsReply &out)
{
    std::string reply;
    if (!request(wire::Type::Stats, std::string(),
                 wire::Type::StatsReply, reply) ||
        !wire::decodeStatsReply(out, reply)) {
        close();
        return false;
    }
    return true;
}

void
PsClient::bye(std::uint64_t worker_id)
{
    if (fd_ < 0)
        return;
    // Bye reuses the Heartbeat payload shape ({workerId}); there is
    // no reply — the server releases the lease and we just close.
    wire::Heartbeat msg;
    msg.workerId = worker_id;
    std::string payload;
    wire::encodeHeartbeat(payload, msg);
    (void)net::sendFrame(fd_, wire::kMagic,
                         static_cast<std::uint32_t>(wire::Type::Bye),
                         payload.data(), payload.size());
    close();
}

} // namespace fa3c::dist

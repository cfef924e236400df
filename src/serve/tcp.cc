#include "serve/tcp.hh"

#include <unistd.h>

#include <array>
#include <chrono>
#include <vector>

#include "net/frame.hh"
#include "serve/wire.hh"

namespace fa3c::serve {

bool
TcpClient::connect(const std::string &host, std::uint16_t port)
{
    close();
    fd_ = net::connectTcp(host, port);
    return fd_ >= 0;
}

bool
TcpClient::request(const tensor::Tensor &obs, std::uint32_t deadline_us,
                   Response &out)
{
    if (fd_ < 0)
        return false;
    // Every request carries a client-minted root context so the
    // server (and any router/replica hop behind it) parents its spans
    // under one fleet-wide trace_id.
    lastSpan_ = obs::rootSpan();
    const auto t_send = std::chrono::steady_clock::now();
    std::vector<std::uint8_t> frame;
    wire::encodeRequest(frame, nextTag_++, deadline_us,
                        obs.data().data(), obs.numel(), lastSpan_);
    if (!net::writeFull(fd_, frame.data(), frame.size()))
        return false;

    // The fixed prefix, then the probability tail.
    std::array<std::uint8_t, wire::kResponsePrefixBytes> prefix{};
    if (!net::readFull(fd_, prefix.data(), prefix.size()))
        return false;
    const std::uint8_t *p = prefix.data();
    if (wire::get<std::uint32_t>(p) != wire::kResponseMagic)
        return false;
    std::uint64_t tag = 0; // single in-flight request; not checked
    const auto num_probs = wire::decodeResponseAfterMagic(p, tag, out);
    if (num_probs > (1u << 20))
        return false;
    out.policy.resize(num_probs);
    if (num_probs > 0 &&
        !net::readFull(fd_, out.policy.data(), num_probs * sizeof(float)))
        return false;
    if (lastSpan_.sampled) {
        const std::array<obs::TraceArg, 1> args{
            {{"status", static_cast<double>(out.status)}}};
        obs::emitSpan(lastSpan_, "serve.client", "client.request",
                      t_send, std::chrono::steady_clock::now(), args);
    }
    return true;
}

void
TcpClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace fa3c::serve

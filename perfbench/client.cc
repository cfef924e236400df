#include "client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "serve/wire.hh"

namespace perfbench {

namespace wire = fa3c::serve::wire;

namespace {

/** Reply magic of the codec's default version, read off an encoded
 * reply so no version constant is named here. */
std::uint32_t
replyMagic()
{
    static const std::uint32_t magic = [] {
        std::vector<std::uint8_t> buf;
        wire::encodeResponse(buf, 0, fa3c::serve::Response{},
                             wire::kWireVersionLatest);
        std::uint32_t m = 0;
        std::memcpy(&m, buf.data(), sizeof(m));
        return m;
    }();
    return magic;
}

// Far above any real action count; a larger claim is a framing error.
constexpr std::uint32_t kMaxProbs = 1u << 16;

} // namespace

WireConnection::~WireConnection()
{
    close();
}

bool
WireConnection::connect(std::uint16_t port)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        close();
        return false;
    }
    fa3c::net::setNoDelay(fd_);
    return true;
}

bool
WireConnection::send(std::uint64_t tag, const fa3c::tensor::Tensor &obs)
{
    if (fd_ < 0)
        return false;
    wire::encodeRequest(frame_, tag, /*deadline_us=*/0, obs.data().data(),
                        obs.numel());
    return fa3c::net::writeFull(fd_, frame_.data(), frame_.size());
}

bool
WireConnection::receive(std::vector<Reply> &out, std::int64_t timeout_us)
{
    if (fd_ < 0)
        return false;
    pollfd pfd{fd_, POLLIN, 0};
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(timeout_us / 1000000);
    ts.tv_nsec = static_cast<long>(timeout_us % 1000000) * 1000;
    const int ready = ::ppoll(&pfd, 1, timeout_us < 0 ? nullptr : &ts,
                              nullptr);
    if (ready < 0)
        return errno == EINTR;
    if (ready == 0)
        return true;
    std::uint8_t buf[1 << 16];
    const ssize_t got = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (got == 0)
        return false; // peer closed
    if (got < 0)
        return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    in_.append(buf, static_cast<std::size_t>(got));
    const bool ok = parse(out);
    in_.reclaim();
    return ok;
}

bool
WireConnection::parse(std::vector<Reply> &out)
{
    const int version = wire::kWireVersionLatest;
    const std::size_t prefix = wire::responsePrefixBytes(version);
    while (in_.avail() >= prefix) {
        const std::uint8_t *p = in_.data();
        std::uint32_t magic = 0;
        std::memcpy(&magic, p, sizeof(magic));
        if (magic != replyMagic())
            return false;
        p += sizeof(magic);
        Reply r;
        const std::uint32_t num_probs =
            wire::decodeResponseAfterMagic(p, version, r.tag, r.resp);
        if (num_probs > kMaxProbs)
            return false;
        const std::size_t total = prefix + num_probs * sizeof(float);
        if (in_.avail() < total)
            break;
        r.resp.policy.resize(num_probs);
        if (num_probs > 0)
            std::memcpy(r.resp.policy.data(), in_.data() + prefix,
                        num_probs * sizeof(float));
        in_.consume(total);
        out.push_back(std::move(r));
    }
    return true;
}

void
WireConnection::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace perfbench

#include "net/frame.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace fa3c::net {

namespace {

/** Parse @p host:@p port into @p addr; false (errno = EINVAL) when
 * @p host is not a dotted IPv4 address. */
bool
parseAddress(const std::string &host, std::uint16_t port,
             sockaddr_in &addr)
{
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        errno = EINVAL;
        return false;
    }
    return true;
}

/** Close @p fd without clobbering the errno the caller reports.
 * @return -1, the failure value of listenTcp/connectTcp. */
int
closeKeepErrno(int fd)
{
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
}

} // namespace

int
listenTcp(const std::string &address, std::uint16_t port, int backlog,
          std::uint16_t &bound_port)
{
    sockaddr_in addr{};
    if (!parseAddress(address, port, addr))
        return -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, backlog) != 0)
        return closeKeepErrno(fd);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len) !=
        0)
        return closeKeepErrno(fd);
    bound_port = ntohs(bound.sin_port);
    return fd;
}

int
connectTcp(const std::string &host, std::uint16_t port)
{
    sockaddr_in addr{};
    if (!parseAddress(host, port, addr))
        return -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        return closeKeepErrno(fd);
    setNoDelay(fd);
    return fd;
}

bool
readFull(int fd, void *buf, std::size_t len)
{
    auto *p = static_cast<std::uint8_t *>(buf);
    while (len > 0) {
        const ssize_t n = ::recv(fd, p, len, 0);
        if (n == 0)
            return false;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeFull(int fd, const void *buf, std::size_t len)
{
    auto *p = static_cast<const std::uint8_t *>(buf);
    while (len > 0) {
        const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

void
setNoDelay(int fd)
{
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                       sizeof(one));
}

bool
sendFrame(int fd, std::uint32_t magic, std::uint32_t type,
          const void *payload, std::size_t payload_len)
{
    std::vector<std::uint8_t> frame;
    frame.reserve(kFrameHeaderBytes + payload_len);
    encodeFrameHeader(frame,
                      {magic, type,
                       static_cast<std::uint32_t>(payload_len)});
    if (payload_len > 0) {
        const auto *bytes =
            static_cast<const std::uint8_t *>(payload);
        frame.insert(frame.end(), bytes, bytes + payload_len);
    }
    return writeFull(fd, frame.data(), frame.size());
}

bool
recvFrame(int fd, std::uint32_t magic, std::uint32_t max_payload,
          std::uint32_t &type_out, std::string &payload_out)
{
    std::uint8_t header[kFrameHeaderBytes];
    if (!readFull(fd, header, sizeof(header)))
        return false;
    const FrameHeader h = decodeFrameHeader(header);
    if (h.magic != magic || h.payloadLen > max_payload)
        return false;
    payload_out.resize(h.payloadLen);
    if (h.payloadLen > 0 &&
        !readFull(fd, payload_out.data(), h.payloadLen))
        return false;
    type_out = h.type;
    return true;
}

} // namespace fa3c::net

/** @file
 * Tests of the shared net framing layer: put/get codec primitives,
 * frame header encode/decode, blocking sendFrame/recvFrame over a
 * socketpair (including the bad-magic and oversize rejections), the
 * listenTcp/connectTcp socket set-up, and the RecvBuffer reassembly
 * helper used by non-blocking loops.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hh"

using namespace fa3c;

namespace {

constexpr std::uint32_t kMagic = 0xABCD1234;

struct SocketPair
{
    int fds[2] = {-1, -1};
    SocketPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    }
    ~SocketPair()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        if (fds[1] >= 0)
            ::close(fds[1]);
    }
};

} // namespace

TEST(NetFrame, PutGetRoundTripMixedTypes)
{
    std::vector<std::uint8_t> buf;
    net::put<std::uint32_t>(buf, 0xDEADBEEF);
    net::put<std::uint64_t>(buf, 0x1122334455667788ull);
    net::put<float>(buf, 2.5f);
    net::put<std::uint8_t>(buf, 7);
    ASSERT_EQ(buf.size(), 4u + 8u + 4u + 1u);

    const std::uint8_t *p = buf.data();
    EXPECT_EQ(net::get<std::uint32_t>(p), 0xDEADBEEFu);
    EXPECT_EQ(net::get<std::uint64_t>(p), 0x1122334455667788ull);
    EXPECT_FLOAT_EQ(net::get<float>(p), 2.5f);
    EXPECT_EQ(net::get<std::uint8_t>(p), 7u);
    EXPECT_EQ(p, buf.data() + buf.size());
}

TEST(NetFrame, HeaderEncodeDecodeRoundTrip)
{
    net::FrameHeader h;
    h.magic = kMagic;
    h.type = 42;
    h.payloadLen = 1009;

    std::vector<std::uint8_t> buf;
    net::encodeFrameHeader(buf, h);
    ASSERT_EQ(buf.size(), net::kFrameHeaderBytes);

    const net::FrameHeader back = net::decodeFrameHeader(buf.data());
    EXPECT_EQ(back.magic, kMagic);
    EXPECT_EQ(back.type, 42u);
    EXPECT_EQ(back.payloadLen, 1009u);
}

TEST(NetFrame, SendRecvRoundTripsPayloads)
{
    SocketPair sp;
    const std::string payload = "the payload bytes \x01\x02\x00 end";

    ASSERT_TRUE(net::sendFrame(sp.fds[0], kMagic, 3, payload.data(),
                               payload.size()));
    ASSERT_TRUE(net::sendFrame(sp.fds[0], kMagic, 4, nullptr, 0));

    std::uint32_t type = 0;
    std::string got;
    ASSERT_TRUE(net::recvFrame(sp.fds[1], kMagic, 1 << 20, type, got));
    EXPECT_EQ(type, 3u);
    EXPECT_EQ(got, payload);

    ASSERT_TRUE(net::recvFrame(sp.fds[1], kMagic, 1 << 20, type, got));
    EXPECT_EQ(type, 4u);
    EXPECT_TRUE(got.empty());
}

TEST(NetFrame, RecvRejectsWrongMagic)
{
    SocketPair sp;
    ASSERT_TRUE(net::sendFrame(sp.fds[0], kMagic + 1, 1, "x", 1));
    std::uint32_t type = 0;
    std::string got;
    EXPECT_FALSE(net::recvFrame(sp.fds[1], kMagic, 1 << 20, type, got));
}

TEST(NetFrame, RecvRejectsOversizePayloadClaim)
{
    SocketPair sp;
    // A frame whose header claims more than max_payload must be
    // rejected before any allocation of that size happens.
    net::FrameHeader h;
    h.magic = kMagic;
    h.type = 1;
    h.payloadLen = 4096;
    std::vector<std::uint8_t> buf;
    net::encodeFrameHeader(buf, h);
    ASSERT_TRUE(net::writeFull(sp.fds[0], buf.data(), buf.size()));

    std::uint32_t type = 0;
    std::string got;
    EXPECT_FALSE(net::recvFrame(sp.fds[1], kMagic, 1024, type, got));
}

TEST(NetFrame, RecvReportsEofCleanly)
{
    SocketPair sp;
    ::close(sp.fds[0]);
    sp.fds[0] = -1;
    std::uint32_t type = 0;
    std::string got;
    EXPECT_FALSE(net::recvFrame(sp.fds[1], kMagic, 1 << 20, type, got));
}

TEST(NetFrame, ReadWriteFullHandleLargeTransfers)
{
    // Larger than any socket buffer, so both sides must loop over
    // partial reads/writes; run them concurrently to avoid deadlock.
    SocketPair sp;
    std::vector<std::uint8_t> out(4 * 1024 * 1024);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);

    std::thread writer([&] {
        EXPECT_TRUE(net::writeFull(sp.fds[0], out.data(), out.size()));
    });
    std::vector<std::uint8_t> in(out.size());
    EXPECT_TRUE(net::readFull(sp.fds[1], in.data(), in.size()));
    writer.join();
    EXPECT_EQ(in, out);
}

TEST(NetFrame, ListenAndConnectTcpOverLoopback)
{
    std::uint16_t port = 0;
    const int listen_fd = net::listenTcp("127.0.0.1", 0, 4, port);
    ASSERT_GE(listen_fd, 0);
    EXPECT_NE(port, 0); // the ephemeral port is read back
    EXPECT_NE(::fcntl(listen_fd, F_GETFD) & FD_CLOEXEC, 0);
    int reuse = 0;
    socklen_t len = sizeof(reuse);
    ASSERT_EQ(::getsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse,
                           &len),
              0);
    EXPECT_NE(reuse, 0);

    const int client = net::connectTcp("127.0.0.1", port);
    ASSERT_GE(client, 0);
    int nodelay = 0;
    len = sizeof(nodelay);
    ASSERT_EQ(::getsockopt(client, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                           &len),
              0);
    EXPECT_NE(nodelay, 0);

    const int server = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(server, 0);
    ASSERT_TRUE(net::sendFrame(client, kMagic, 5, "ping", 4));
    std::uint32_t type = 0;
    std::string got;
    ASSERT_TRUE(net::recvFrame(server, kMagic, 16, type, got));
    EXPECT_EQ(type, 5u);
    EXPECT_EQ(got, "ping");
    ::close(server);
    ::close(client);
    ::close(listen_fd);
}

TEST(NetFrame, SocketSetupRejectsBadAddresses)
{
    std::uint16_t port = 0;
    errno = 0;
    EXPECT_EQ(net::listenTcp("not-an-address", 0, 4, port), -1);
    EXPECT_EQ(errno, EINVAL);
    errno = 0;
    EXPECT_EQ(net::connectTcp("300.1.1.1", 1), -1);
    EXPECT_EQ(errno, EINVAL);

    // A port already bound by a live listener is refused, not shared.
    const int first = net::listenTcp("127.0.0.1", 0, 4, port);
    ASSERT_GE(first, 0);
    std::uint16_t again = 0;
    EXPECT_EQ(net::listenTcp("127.0.0.1", port, 4, again), -1);
    EXPECT_EQ(errno, EADDRINUSE);
    ::close(first);
}

TEST(NetFrame, RecvBufferParsesSplitFrames)
{
    // One frame delivered a few bytes at a time through RecvBuffer,
    // the way a non-blocking loop sees it.
    std::vector<std::uint8_t> stream;
    net::FrameHeader h;
    h.magic = kMagic;
    h.type = 9;
    h.payloadLen = 5;
    net::encodeFrameHeader(stream, h);
    const char *body = "hello";
    stream.insert(stream.end(), body, body + 5);

    net::RecvBuffer rb;
    bool parsed = false;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        rb.append(&stream[i], 1);
        if (rb.avail() < net::kFrameHeaderBytes)
            continue;
        const net::FrameHeader got = net::decodeFrameHeader(rb.data());
        if (rb.avail() < net::kFrameHeaderBytes + got.payloadLen) {
            rb.reclaim();
            continue;
        }
        EXPECT_EQ(got.magic, kMagic);
        EXPECT_EQ(got.type, 9u);
        const std::string payload(
            reinterpret_cast<const char *>(rb.data()) +
                net::kFrameHeaderBytes,
            got.payloadLen);
        EXPECT_EQ(payload, "hello");
        rb.consume(net::kFrameHeaderBytes + got.payloadLen);
        parsed = true;
    }
    EXPECT_TRUE(parsed);
    EXPECT_EQ(rb.avail(), 0u);
    rb.reclaim();
    EXPECT_EQ(rb.avail(), 0u);
}

TEST(NetFrame, RecvBufferConsumeAcrossMultipleFrames)
{
    net::RecvBuffer rb;
    std::vector<std::uint8_t> stream;
    for (std::uint32_t t = 1; t <= 3; ++t) {
        net::FrameHeader h;
        h.magic = kMagic;
        h.type = t;
        h.payloadLen = 1;
        net::encodeFrameHeader(stream, h);
        stream.push_back(static_cast<std::uint8_t>('a' + t));
    }
    rb.append(stream.data(), stream.size());

    for (std::uint32_t t = 1; t <= 3; ++t) {
        ASSERT_GE(rb.avail(), net::kFrameHeaderBytes + 1);
        const net::FrameHeader h = net::decodeFrameHeader(rb.data());
        EXPECT_EQ(h.type, t);
        EXPECT_EQ(rb.data()[net::kFrameHeaderBytes],
                  static_cast<std::uint8_t>('a' + t));
        rb.consume(net::kFrameHeaderBytes + 1);
    }
    EXPECT_EQ(rb.avail(), 0u);
}

/**
 * @file
 * Loopback TCP client for the serving wire format, as a load
 * generator uses it: requests are pipelined (many in flight on one
 * connection) and replies are parsed incrementally as bytes arrive.
 *
 * Frames are built and parsed only through serve::wire with its
 * default version arguments: requests are encoded at the codec's
 * default version, and the expected reply magic is taken from the
 * codec itself (an encoded reply at kWireVersionLatest), so this
 * client keeps working when the codec's version set changes.
 */

#ifndef PERFBENCH_CLIENT_HH
#define PERFBENCH_CLIENT_HH

#include <cstdint>
#include <vector>

#include "net/frame.hh"
#include "serve/request.hh"
#include "tensor/tensor.hh"

namespace perfbench {

/** One decoded reply frame. */
struct Reply
{
    std::uint64_t tag = 0;
    fa3c::serve::Response resp;
};

/** One pipelined wire connection to a serving front-end. */
class WireConnection
{
  public:
    WireConnection() = default;
    ~WireConnection();

    WireConnection(const WireConnection &) = delete;
    WireConnection &operator=(const WireConnection &) = delete;

    /** Connect to 127.0.0.1:@p port. @return false on failure. */
    bool connect(std::uint16_t port);

    /** Encode and send one request with no deadline (blocks until
     * written). @return false on a transport error. */
    bool send(std::uint64_t tag, const fa3c::tensor::Tensor &obs);

    /**
     * Wait up to @p timeout_us (-1 = forever, 0 = poll) for bytes,
     * then append every complete reply to @p out.
     * @return false on a transport or framing error.
     */
    bool receive(std::vector<Reply> &out, std::int64_t timeout_us);

    void close();

  private:
    int fd_ = -1;
    std::vector<std::uint8_t> frame_;
    fa3c::net::RecvBuffer in_;

    /** Parse complete replies out of in_. @return false on a bad
     * magic or an oversize probability tail. */
    bool parse(std::vector<Reply> &out);
};

} // namespace perfbench

#endif // PERFBENCH_CLIENT_HH

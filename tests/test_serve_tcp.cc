/** @file
 * The blocking TcpClient against the epoll front-end, and the serving
 * wire format pinned byte for byte: many client connections batch
 * server-side, a client's trace context crosses the wire, and one
 * encoded request and response match golden bytes.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export_guard.hh"
#include "obs/json.hh"
#include "obs/span.hh"
#include "obs/trace.hh"
#include "serve/event_loop.hh"
#include "serve/tcp.hh"
#include "serve/wire.hh"

using namespace fa3c;
using namespace fa3c::serve;
using namespace std::chrono_literals;

namespace {

// Enable the process-global TraceWriter before gtest runs anything:
// the propagation test below needs spans to actually land in a file,
// and obs::trace() latches its decision on first use. Static init
// beats any test, so this must run at namespace scope. overwrite=0
// keeps an externally supplied FA3C_TRACE.
const bool g_traceEnv = [] {
    ::setenv("FA3C_TRACE", "test_serve_tcp_trace.%p.json", 0);
    return true;
}();

std::string
readTraceFile()
{
    const char *raw = std::getenv("FA3C_TRACE");
    std::ifstream in(obs::expandPathTokens(raw ? raw : ""));
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
}

std::size_t
countOccurrences(const std::string &haystack,
                 const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + 1))
        ++n;
    return n;
}

std::string
hex(const std::vector<std::uint8_t> &bytes)
{
    std::string out;
    char byte[3];
    for (std::uint8_t b : bytes) {
        std::snprintf(byte, sizeof(byte), "%02x", b);
        out += byte;
    }
    return out;
}

struct Fixture
{
    nn::NetConfig netCfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net{netCfg};
    nn::ParamSet params = net.makeParams();

    Fixture()
    {
        sim::Rng rng(29);
        net.initParams(params, rng);
    }

    tensor::Tensor
    observation(float scale) const
    {
        tensor::Tensor obs(tensor::Shape(
            {netCfg.inChannels, netCfg.inHeight, netCfg.inWidth}));
        for (std::size_t i = 0; i < obs.numel(); ++i)
            obs.data()[i] =
                scale * static_cast<float>(i % 53) / 53.0f;
        return obs;
    }

    ServeConfig
    config() const
    {
        ServeConfig cfg;
        cfg.batch.maxBatch = 8;
        cfg.batch.linger = 200us;
        cfg.workers = 1;
        return cfg;
    }
};

} // namespace

TEST(ServeTcp, ManyConnectionsBatchServerSide)
{
    Fixture f;
    PolicyServer server(f.net, f.config());
    server.publish(f.params);
    server.start();

    EventLoopServer loop(server, EventLoopConfig{});
    ASSERT_TRUE(loop.start());

    constexpr int kClients = 6;
    constexpr int kRequests = 25;
    std::vector<std::thread> threads;
    std::atomic<int> ok{0};
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&f, &loop, &ok, c] {
            // Failures surface as a final ok-count mismatch (gtest
            // ASSERTs only abort the calling function off-thread).
            TcpClient client;
            if (!client.connect("127.0.0.1", loop.port()))
                return;
            const tensor::Tensor obs =
                f.observation(0.5f + 0.1f * static_cast<float>(c));
            for (int i = 0; i < kRequests; ++i) {
                Response r;
                if (client.request(obs, 0, r) &&
                    r.status == Status::Ok)
                    ok.fetch_add(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(ok.load(), kClients * kRequests);
    EXPECT_EQ(loop.connectionsAccepted(),
              static_cast<std::uint64_t>(kClients));
    loop.stop();

    const sim::StatGroup stats = server.statsSnapshot();
    EXPECT_EQ(stats.counterValue("served"),
              static_cast<std::uint64_t>(kClients * kRequests));
}

TEST(ServeTcp, PropagatesTraceContextAcrossTheWire)
{
    ASSERT_NE(obs::trace(), nullptr)
        << "static init should have enabled FA3C_TRACE";

    Fixture f;
    PolicyServer server(f.net, f.config());
    server.publish(f.params);
    server.start();

    EventLoopServer loop(server, EventLoopConfig{});
    ASSERT_TRUE(loop.start());

    TcpClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", loop.port()));
    Response r;
    ASSERT_TRUE(client.request(f.observation(0.7f), 0, r));
    EXPECT_EQ(r.status, Status::Ok);

    // The client minted a sampled root context and sent it in the
    // request's trace block...
    const obs::SpanContext span = client.lastSpan();
    EXPECT_NE(span.trace, 0u);
    EXPECT_TRUE(span.sampled);

    client.close();
    loop.stop(); // the loop emitted its span before it answered
    obs::trace()->flush();

    // ...and the SAME trace id must appear on both the client span
    // ("client.request") and the server span ("frontend.request"). Both
    // sides format ids through jsonNumber, so an exact substring
    // match is well defined.
    const std::string body = readTraceFile();
    const std::string needle =
        "\"trace_id\":" +
        obs::jsonNumber(static_cast<double>(span.trace));
    EXPECT_GE(countOccurrences(body, needle), 2u)
        << "trace id " << span.trace
        << " not found on both sides of the wire";
}

TEST(ServeTcp, WireFramesMatchGoldenBytes)
{
    // One request and one response in the wire layout every peer
    // speaks. The bytes are the ones the codec has produced since the
    // trace block and retry_after_us were added, so a client built
    // against an earlier commit still parses what this one sends.
    const float obs[2] = {1.0f, -2.0f};
    obs::SpanContext trace;
    trace.trace = 0x1122334455667788ull;
    trace.span = 0x99AABBCCDDEEFF00ull;
    trace.sampled = true;
    std::vector<std::uint8_t> buf;
    wire::encodeRequest(buf, 0x0102030405060708ull, 250000, obs, 2,
                        trace);
    EXPECT_EQ(hex(buf), "215e3cfa"                  // magic
                        "0807060504030201"          // tag
                        "90d00300"                  // deadline_us
                        "02000000"                  // obs_numel
                        "8877665544332211"          // trace_id
                        "00ffeeddccbbaa99"          // parent_span_id
                        "01"                        // sampled
                        "0000803f000000c0");        // obs
    ASSERT_EQ(buf.size(), wire::kRequestHeaderBytes + 2 * sizeof(float));
    wire::RequestHeader h;
    ASSERT_TRUE(wire::decodeRequestHeader(buf.data(), h));
    EXPECT_EQ(h.tag, 0x0102030405060708ull);
    EXPECT_EQ(h.deadlineUs, 250000u);
    EXPECT_EQ(h.numel, 2u);
    EXPECT_EQ(h.traceId, trace.trace);
    EXPECT_EQ(h.parentSpan, trace.span);
    EXPECT_TRUE(h.sampled);

    Response resp;
    resp.status = Status::Ok;
    resp.action = 2;
    resp.value = 0.5f;
    resp.modelVersion = 7;
    resp.queueUs = 1.5;
    resp.inferUs = 2.25;
    resp.totalUs = 4.0;
    resp.retryAfterUs = 0x01020304;
    resp.policy = {0.25f, 0.75f};
    wire::encodeResponse(buf, 0x0102030405060708ull, resp);
    EXPECT_EQ(hex(buf), "225e3cfa"                  // magic
                        "0807060504030201"          // tag
                        "00"                        // status
                        "02000000"                  // action
                        "0000003f"                  // value
                        "0700000000000000"          // model_version
                        "0000c03f"                  // queue_us
                        "00001040"                  // infer_us
                        "00008040"                  // total_us
                        "04030201"                  // retry_after_us
                        "02000000"                  // num_probs
                        "0000803e0000403f");        // probs
    ASSERT_EQ(buf.size(), wire::kResponsePrefixBytes + 2 * sizeof(float));
    const std::uint8_t *p = buf.data() + sizeof(std::uint32_t);
    std::uint64_t tag = 0;
    Response back;
    EXPECT_EQ(wire::decodeResponseAfterMagic(p, tag, back), 2u);
    EXPECT_EQ(tag, 0x0102030405060708ull);
    EXPECT_EQ(back.action, 2);
    EXPECT_EQ(back.modelVersion, 7u);
    EXPECT_EQ(back.retryAfterUs, 0x01020304u);
}

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rpc/fabric.hpp"
#include "sim/network.hpp"

namespace dpnfs::rpc {
namespace {

using sim::Task;

struct Fixture {
  sim::Simulation sim;
  sim::Network net{sim};
  RpcFabric fabric{net};

  sim::Node& add_node(const std::string& name, double bps = 100e6) {
    return net.add_node(sim::NodeParams{
        .name = name,
        .nic = sim::NicParams{.bytes_per_sec = bps, .latency = sim::us(10)},
        .disk = std::nullopt,
        .cpu = sim::CpuParams{.cores = 2}});
  }

  // The "rpc" instruments of the one server on `node`.
  uint64_t requests(const std::string& node) const {
    return fabric.metrics().find_counter(node, "rpc", "requests")->value();
  }
  const obs::HistogramMetric& queue_us(const std::string& node) const {
    return *fabric.metrics().find_histogram(node, "rpc", "queue_us");
  }
};

// Echo service: replies with the same string, uppercased proc number.
RpcService echo_service() {
  return [](const CallContext& ctx, XdrDecoder& args,
            XdrEncoder& results) -> Task<void> {
    const std::string s = args.get_string();
    results.put_string(s);
    results.put_u32(ctx.header.proc);
    results.put_string(ctx.header.principal);
    co_return;
  };
}

Task<void> do_echo_call(RpcClient& client, RpcAddress to, std::string msg,
                        uint32_t proc, std::vector<std::string>& out) {
  XdrEncoder args;
  args.put_string(msg);
  auto reply = co_await client.call(to, Program::kNfs, 4, proc, std::move(args));
  EXPECT_EQ(reply.status, ReplyStatus::kAccepted);
  auto body = reply.body();
  EXPECT_EQ(body.get_string(), msg);
  EXPECT_EQ(body.get_u32(), proc);
  EXPECT_EQ(body.get_string(), "tester@SIM");
  out.push_back(msg);
}

TEST(RpcFabric, CallRoundTrip) {
  Fixture f;
  auto& client_node = f.add_node("client");
  auto& server_node = f.add_node("server");
  RpcServer server(f.fabric, server_node, kNfsPort, 2, echo_service());
  server.start();

  RpcClient client(f.fabric, client_node, "tester@SIM");
  std::vector<std::string> done;
  f.sim.spawn(do_echo_call(client, server.address(), "hello", 7, done));
  f.sim.run();
  EXPECT_EQ(done, (std::vector<std::string>{"hello"}));
  EXPECT_EQ(f.requests("server"), 1u);
  EXPECT_GT(f.sim.now(), 0);  // network time elapsed
}

TEST(RpcFabric, BareFabricFeedsEveryInstrument) {
  // A fabric built with no setup carries the run's instruments: one
  // tenant-stamped call lands in its registry, tracer and tenant ledger.
  Fixture f;
  auto& client_node = f.add_node("client");
  auto& server_node = f.add_node("server");
  RpcServer server(f.fabric, server_node, kNfsPort, 2, echo_service());
  server.start();

  RpcClient client(f.fabric, client_node, "tester@SIM");
  client.set_tenant(3);
  std::vector<std::string> done;
  f.sim.spawn(do_echo_call(client, server.address(), "hello", 7, done));
  f.sim.run();
  ASSERT_EQ(done.size(), 1u);

  EXPECT_EQ(f.requests("server"), 1u);

  const std::vector<obs::Span> spans = f.fabric.tracer().retained_spans();
  ASSERT_EQ(spans.size(), 2u);
  const auto client_span =
      std::find_if(spans.begin(), spans.end(), [](const obs::Span& s) {
        return s.kind == obs::SpanKind::kClientCall;
      });
  const auto server_span =
      std::find_if(spans.begin(), spans.end(), [](const obs::Span& s) {
        return s.kind == obs::SpanKind::kServerExec;
      });
  ASSERT_NE(client_span, spans.end());
  ASSERT_NE(server_span, spans.end());
  EXPECT_EQ(client_span->node, "client");
  EXPECT_EQ(server_span->node, "server");
  EXPECT_EQ(server_span->trace_id, client_span->trace_id);
  EXPECT_EQ(server_span->parent_span_id, client_span->span_id);

  const auto* row = f.fabric.tenants().topk().find(3);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->value.rpcs, 1u);
}

TEST(RpcFabric, ManyConcurrentCallsAllComplete) {
  Fixture f;
  auto& client_node = f.add_node("client");
  auto& server_node = f.add_node("server");
  RpcServer server(f.fabric, server_node, kNfsPort, 8, echo_service());
  server.start();

  RpcClient client(f.fabric, client_node, "tester@SIM");
  std::vector<std::string> done;
  for (int i = 0; i < 50; ++i) {
    std::string msg = "m";
    msg += std::to_string(i);
    f.sim.spawn(do_echo_call(client, server.address(), std::move(msg),
                             static_cast<uint32_t>(i), done));
  }
  f.sim.run();
  EXPECT_EQ(done.size(), 50u);
  EXPECT_EQ(f.requests("server"), 50u);
  // Queue accounting is consistent after the burst: the queue drained, and
  // total residency is bounded by every request waiting the whole run.
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_GE(f.queue_us("server").sum(), 0.0);
  EXPECT_LE(f.queue_us("server").sum(),
            50.0 * static_cast<double>(f.sim.now()) * 1e-3);
}

TEST(RpcFabric, SequentialCallsAccrueNoQueueWait) {
  // One caller awaiting each reply never queues behind itself.
  Fixture f;
  auto& client_node = f.add_node("client");
  auto& server_node = f.add_node("server");
  RpcServer server(f.fabric, server_node, kNfsPort, 8, echo_service());
  server.start();

  RpcClient client(f.fabric, client_node, "tester@SIM");
  std::vector<std::string> done;
  f.sim.spawn([](RpcClient& c, RpcAddress to,
                 std::vector<std::string>& done) -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      XdrEncoder args;
      args.put_string("ping");
      auto reply = co_await c.call(to, Program::kNfs, 4, 0, std::move(args));
      EXPECT_EQ(reply.status, ReplyStatus::kAccepted);
      done.push_back("ok");
    }
  }(client, server.address(), done));
  f.sim.run();
  EXPECT_EQ(done.size(), 5u);
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_EQ(f.queue_us("server").sum(), 0.0);
}

// A slow service that sleeps; used to verify worker-count concurrency.
RpcService slow_service(sim::Simulation& sim) {
  return [&sim](const CallContext&, XdrDecoder&, XdrEncoder&) -> Task<void> {
    co_await sim.delay(sim::ms(10));
  };
}

Task<void> fire_and_count(RpcClient& client, RpcAddress to, int& completed) {
  auto reply = co_await client.call(to, Program::kNfs, 4, 0, XdrEncoder{});
  EXPECT_EQ(reply.status, ReplyStatus::kAccepted);
  ++completed;
}

TEST(RpcFabric, WorkerCountBoundsServiceConcurrency) {
  // 8 requests x 10ms service on 2 workers => at least 4 serialized waves.
  Fixture f;
  auto& client_node = f.add_node("client", 1e9);
  auto& server_node = f.add_node("server", 1e9);
  RpcServer server(f.fabric, server_node, kNfsPort, 2, slow_service(f.sim));
  server.start();

  RpcClient client(f.fabric, client_node, "tester@SIM");
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    f.sim.spawn(fire_and_count(client, server.address(), completed));
  }
  f.sim.run();
  EXPECT_EQ(completed, 8);
  EXPECT_GE(f.sim.now(), sim::ms(40));
  EXPECT_LT(f.sim.now(), sim::ms(55));
  // 8 requests on 2 workers at 10ms each: later waves sat in the queue, so
  // cumulative queue wait is substantial — and the queue is empty again.
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_GT(f.queue_us("server").sum(), 40e3);  // 40 ms
  EXPECT_LE(f.queue_us("server").sum(),
            8.0 * static_cast<double>(f.sim.now()) * 1e-3);
}

RpcService throwing_service() {
  return [](const CallContext&, XdrDecoder&, XdrEncoder&) -> Task<void> {
    throw std::runtime_error("intentional");
    co_return;  // unreachable
  };
}

Task<void> expect_system_err(RpcClient& client, RpcAddress to, bool& got) {
  auto reply = co_await client.call(to, Program::kNfs, 4, 1, XdrEncoder{});
  got = (reply.status == ReplyStatus::kSystemErr);
}

TEST(RpcFabric, ServiceExceptionBecomesSystemErr) {
  Fixture f;
  auto& client_node = f.add_node("client");
  auto& server_node = f.add_node("server");
  RpcServer server(f.fabric, server_node, kNfsPort, 1, throwing_service());
  server.start();

  RpcClient client(f.fabric, client_node, "tester@SIM");
  bool got = false;
  f.sim.spawn(expect_system_err(client, server.address(), got));
  f.sim.run();
  EXPECT_TRUE(got);
}

RpcService arg_reading_service() {
  return [](const CallContext&, XdrDecoder& args, XdrEncoder&) -> Task<void> {
    (void)args.get_u64();  // service expects a u64 the client never sent
    co_return;
  };
}

Task<void> expect_garbage(RpcClient& client, RpcAddress to, bool& got) {
  auto reply = co_await client.call(to, Program::kNfs, 4, 1, XdrEncoder{});
  got = (reply.status == ReplyStatus::kGarbageArgs);
}

TEST(RpcFabric, MalformedArgsBecomeGarbageArgs) {
  Fixture f;
  auto& client_node = f.add_node("client");
  auto& server_node = f.add_node("server");
  RpcServer server(f.fabric, server_node, kNfsPort, 1, arg_reading_service());
  server.start();

  RpcClient client(f.fabric, client_node, "tester@SIM");
  bool got = false;
  f.sim.spawn(expect_garbage(client, server.address(), got));
  f.sim.run();
  EXPECT_TRUE(got);
}

TEST(RpcFabric, BulkReplyChargesWireTime) {
  // A service returning an 8 MB virtual payload over a 100 MB/s NIC should
  // take ~80 ms of wire time.
  Fixture f;
  auto& client_node = f.add_node("client");
  auto& server_node = f.add_node("server");
  RpcService bulk = [](const CallContext&, XdrDecoder&,
                       XdrEncoder& results) -> Task<void> {
    results.put_payload(Payload::virtual_bytes(8'000'000));
    co_return;
  };
  RpcServer server(f.fabric, server_node, kNfsPort, 1, bulk);
  server.start();

  RpcClient client(f.fabric, client_node, "tester@SIM");
  int completed = 0;
  f.sim.spawn(fire_and_count(client, server.address(), completed));
  f.sim.run();
  EXPECT_EQ(completed, 1);
  EXPECT_GT(sim::to_seconds(f.sim.now()), 0.078);
  EXPECT_LT(sim::to_seconds(f.sim.now()), 0.1);
}

TEST(RpcFabric, CallToUnboundAddressThrows) {
  Fixture f;
  auto& client_node = f.add_node("client");
  f.add_node("server");
  RpcClient client(f.fabric, client_node, "tester@SIM");
  bool threw = false;
  f.sim.spawn([](RpcClient& c, bool& t) -> Task<void> {
    try {
      (void)co_await c.call(RpcAddress{1, kNfsPort}, Program::kNfs, 4, 0,
                            XdrEncoder{});
    } catch (const std::logic_error&) {
      t = true;
    }
  }(client, threw));
  f.sim.run();
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace dpnfs::rpc

// RPC transport fabric over the simulated network.
//
// `RpcFabric` is the rendezvous between RPC clients and servers: servers
// bind (node, port); clients call (node, port).  Requests and replies move
// across `sim::Network` paying full wire cost (encoded bytes + virtual bulk
// bytes + per-message framing overhead).
//
// `RpcServer` models a multi-threaded RPC daemon: `worker_count` coroutines
// (nfsd threads in the paper's setup: eight) pull requests from a single
// queue, dispatch to the bound service, and send the reply.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rpc/message.hpp"
#include "sim/network.hpp"
#include "sim/sync.hpp"
#include "util/flight.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"
#include "util/tenant.hpp"

namespace dpnfs::rpc {

struct RpcAddress {
  uint32_t node_id = 0;
  uint16_t port = 0;

  auto operator<=>(const RpcAddress&) const = default;
};

/// Well-known ports.
inline constexpr uint16_t kNfsPort = 2049;
inline constexpr uint16_t kPvfsMetaPort = 3334;
inline constexpr uint16_t kPvfsIoPort = 3335;

/// Transport outcome of a call, orthogonal to the server's `ReplyStatus`:
/// `kTimedOut` means no reply arrived before the deadline (lost message,
/// crashed node or daemon, or a reply in flight past the budget).
enum class Status : uint8_t {
  kOk = 0,
  kTimedOut = 1,
};

/// Per-call policy: deadline, retry budget, backoff, trace parentage.
/// The default (`timeout == 0`, no retries) behaves exactly like the old
/// bare call: wait forever for the reply.  Even then, a message the fault
/// injector *knows* it lost completes with `kTimedOut` after the fabric's
/// drop timeout instead of hanging the simulation.
struct CallOptions {
  /// Per-attempt reply deadline; 0 disables the deadline (and its watchdog
  /// event) entirely.
  sim::Duration timeout = 0;
  /// Extra attempts after a timed-out one.  Only honored when `idempotent`.
  uint32_t max_retries = 0;
  /// Pause before the first retry; grows by `backoff_multiplier` per retry.
  sim::Duration backoff = sim::ms(10);
  double backoff_multiplier = 2.0;
  /// Uniform ± fraction of the backoff, from the client's own RNG stream.
  double jitter = 0.25;
  /// Retrying a non-idempotent call could apply it twice; callers must opt
  /// such calls out (the retry budget is then ignored).
  bool idempotent = true;
  /// Trace parentage: invalid → this call roots a new trace; retries are
  /// recorded as child spans of the first attempt so one logical call with
  /// three attempts reads as one trace.
  obs::TraceContext parent{};
};

/// Server-side request context.  `trace` is the server's own span for this
/// request (already parented under the caller's wire span); services pass it
/// down so nested RPCs join the same trace.
struct CallContext {
  CallHeader header;
  uint32_t client_node = 0;
  obs::TraceContext trace;
};

/// Service implementation: decode args from `args`, perform the operation,
/// encode results into `results`.  Throwing maps to a SYSTEM_ERR reply.
using RpcService =
    std::function<sim::Task<void>(const CallContext&, XdrDecoder& args,
                                  XdrEncoder& results)>;

class RpcServer;

class RpcFabric {
 public:
  explicit RpcFabric(sim::Network& net, uint64_t per_message_overhead = 128);
  RpcFabric(const RpcFabric&) = delete;
  RpcFabric& operator=(const RpcFabric&) = delete;

  sim::Network& network() noexcept { return net_; }
  sim::Simulation& simulation() noexcept { return net_.simulation(); }
  uint64_t per_message_overhead() const noexcept { return overhead_; }

  /// The run's instruments.  Every daemon and client built on this fabric
  /// records into them: per-node metrics, RPC and store spans, per-tenant
  /// resource rows, and the flight ring of recovery events.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  obs::Tracer& tracer() noexcept { return tracer_; }
  const obs::Tracer& tracer() const noexcept { return tracer_; }
  obs::TenantLedger& tenants() noexcept { return tenants_; }
  const obs::TenantLedger& tenants() const noexcept { return tenants_; }
  obs::FlightRecorder& flight() noexcept { return flight_; }
  const obs::FlightRecorder& flight() const noexcept { return flight_; }

  /// Raw transport result: `reply` is meaningful only when `status == kOk`.
  /// `send_wait` is the time the request spent queued behind the sender's
  /// own NIC before transmitting — the trace layer reports it as client
  /// queue rather than wire time.
  struct RawResult {
    Status status = Status::kOk;
    WireBuffer reply;
    sim::Duration send_wait = 0;
  };

  /// Reply rendezvous that survives timeouts: the worker may complete it
  /// (or drop it) long after the caller has given up and gone away.
  struct ReplySlot {
    explicit ReplySlot(sim::Simulation& sim) : done(sim) {}
    sim::Latch done;
    std::optional<WireBuffer> reply;
  };

  /// Issues one RPC from `from` to `to`.  `deadline` is an absolute sim
  /// time (0: none); if no reply arrives by then the call resolves with
  /// `kTimedOut` — the simulation never hangs on a lost message.  Calling
  /// an address that was never bound is still a configuration error and
  /// throws; a *crashed* daemon stays bound and times out instead.
  sim::Task<RawResult> call(sim::Node& from, RpcAddress to, WireBuffer request,
                            sim::Time deadline = 0);

  /// How long a call with no explicit deadline waits before giving up on a
  /// message the fault injector dropped (a stand-in for TCP giving up).
  sim::Duration drop_timeout() const noexcept { return drop_timeout_; }

  /// The span name of one RPC: "<component>/<proc>" ("nfs/1",
  /// "pvfs.io/2"), plus " timeout" for an attempt that got no reply.  The
  /// names of every proc a program defines are built once, with the
  /// fabric; any other (prog, proc) pair came off the wire and is
  /// formatted on the spot.
  std::string span_name(uint32_t prog, uint32_t proc, bool timed_out) const;

 private:
  friend class RpcServer;
  void bind(RpcAddress addr, RpcServer* server);
  void unbind(RpcAddress addr);

  sim::Network& net_;
  uint64_t overhead_;
  std::map<RpcAddress, RpcServer*> servers_;
  // span_names_[program slot][proc - 1]: the name without and with
  // " timeout" (slots in Program declaration order).
  static constexpr size_t kPrograms = 4;
  std::array<std::vector<std::array<std::string, 2>>, kPrograms> span_names_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  obs::TenantLedger tenants_;
  obs::FlightRecorder flight_;
  sim::Duration drop_timeout_ = sim::sec(2);
};

class RpcServer {
 public:
  RpcServer(RpcFabric& fabric, sim::Node& node, uint16_t port,
            uint32_t worker_count, RpcService service);
  ~RpcServer();
  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Spawns the worker coroutines.  Must be called before traffic arrives.
  void start();

  /// Closes the request queue; workers exit after draining.
  void stop();

  sim::Node& node() noexcept { return node_; }
  RpcAddress address() const noexcept { return RpcAddress{node_.id(), port_}; }

  /// Requests sitting in the queue right now (excludes in-service ones).
  size_t queue_depth() const noexcept { return queue_.size(); }

 private:
  friend class RpcFabric;

  struct Pending {
    WireBuffer request;
    uint32_t client_node;
    std::shared_ptr<RpcFabric::ReplySlot> slot;
    sim::Time enqueued = 0;
  };

  sim::Task<void> worker();

  RpcFabric& fabric_;
  sim::Node& node_;
  uint16_t port_;
  uint32_t worker_count_;
  RpcService service_;
  sim::Channel<Pending> queue_;
  sim::WaitGroup workers_done_;
  bool started_ = false;
  // Per-node "rpc" component handles, resolved once at construction.
  obs::Counter* m_requests_;
  obs::Counter* m_bytes_in_;
  obs::Counter* m_bytes_out_;
  obs::HistogramMetric* m_queue_us_;
  obs::HistogramMetric* m_service_us_;
  util::PercentileDigest* m_service_digest_;
};

/// Client-side call helper bound to one node and principal.
class RpcClient {
 public:
  RpcClient(RpcFabric& fabric, sim::Node& node, std::string principal)
      : fabric_(fabric),
        node_(node),
        principal_(std::move(principal)),
        rng_(0x5ca1ab1eULL ^ (uint64_t{node_.id()} << 20)) {}

  /// Decoded reply: holds the buffer and exposes a decoder over the result
  /// body (positioned after the reply header).  On a transport failure
  /// (`transport != Status::kOk`) there is no buffer and `status` is forced
  /// to `kSystemErr` so legacy `status != kAccepted` checks stay safe.
  struct Reply {
    ReplyStatus status = ReplyStatus::kAccepted;
    Status transport = Status::kOk;
    std::vector<std::byte> buffer;
    size_t body_offset = 0;

    Reply() = default;
    Reply(Reply&&) = default;
    Reply& operator=(Reply&&) = default;
    Reply(const Reply&) = default;
    Reply& operator=(const Reply&) = default;
    // Reply framing buffers churn once per call; retire them into the pool.
    ~Reply() { util::BufferPool::give(std::move(buffer)); }

    bool ok() const noexcept {
      return transport == Status::kOk && status == ReplyStatus::kAccepted;
    }
    XdrDecoder body() const {
      return XdrDecoder(std::span<const std::byte>(buffer).subspan(body_offset));
    }
  };

  /// Issues one call under `opts` (deadline, retry budget, backoff, trace
  /// parent).  Each attempt becomes a client span in the fabric's tracer: a
  /// new trace when `opts.parent` is invalid (an application-level root), a
  /// child hop otherwise; retry attempts parent under the first attempt's
  /// span, so a retried call reads as one trace.
  sim::Task<Reply> call(RpcAddress to, Program prog, uint32_t vers,
                        uint32_t proc, XdrEncoder args, CallOptions opts = {});

  sim::Node& node() noexcept { return node_; }
  const std::string& principal() const noexcept { return principal_; }

  /// Transport-level retries and timed-out calls issued by this client.
  uint64_t retries() const noexcept { return retries_; }
  uint64_t timeouts() const noexcept { return timeouts_; }
  /// Optional external counter bumped on every transport retry (lets an
  /// owner surface retries under its own metrics component).
  void set_retry_counter(obs::Counter* c) noexcept { retry_counter_ = c; }

  /// Tenant identity stamped into every call this client originates.  Calls
  /// issued on behalf of another tenant (a proxied hop whose
  /// `CallOptions::parent` carries a tenant) propagate that one instead.
  void set_tenant(uint32_t tenant) noexcept { tenant_id_ = tenant; }
  uint32_t tenant() const noexcept { return tenant_id_; }

 private:
  RpcFabric& fabric_;
  sim::Node& node_;
  std::string principal_;
  uint32_t next_xid_ = 1;
  uint32_t tenant_id_ = 0;
  util::Rng rng_;
  uint64_t retries_ = 0;
  uint64_t timeouts_ = 0;
  obs::Counter* retry_counter_ = nullptr;
};

}  // namespace dpnfs::rpc

#include "rpc/fabric.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/fault.hpp"
#include "util/format.hpp"
#include "util/log.hpp"

namespace dpnfs::rpc {

using sim::Task;

namespace {

constexpr Program kProgramSlots[] = {Program::kNfs, Program::kPvfsMeta,
                                     Program::kPvfsIo, Program::kPvfsMgmt};

/// Observability component name for a program's RPC spans ("nfs",
/// "pvfs.io", ...).
const char* program_component(uint32_t prog) {
  switch (static_cast<Program>(prog)) {
    case Program::kNfs: return "nfs";
    case Program::kPvfsMeta: return "pvfs.meta";
    case Program::kPvfsIo: return "pvfs.io";
    case Program::kPvfsMgmt: return "pvfs.mgmt";
  }
  return "rpc";
}

// Wakes the caller at `deadline` whether or not the reply ever arrives
// (Latch::set is idempotent, so a reply beating the watchdog is fine).
sim::Task<void> deadline_watchdog(sim::Simulation& sim,
                                  std::shared_ptr<RpcFabric::ReplySlot> slot,
                                  sim::Time deadline) {
  if (deadline > sim.now()) co_await sim.delay(deadline - sim.now());
  slot->done.set();
}

}  // namespace

RpcFabric::RpcFabric(sim::Network& net, uint64_t per_message_overhead)
    : net_(net), overhead_(per_message_overhead) {
  static_assert(std::size(kProgramSlots) == kPrograms);
  for (size_t slot = 0; slot < kPrograms; ++slot) {
    const Program prog = kProgramSlots[slot];
    for (uint32_t proc = 1; proc <= program_proc_count(prog); ++proc) {
      std::string name = util::sformat(
          "%s/%u", program_component(static_cast<uint32_t>(prog)), proc);
      std::string timed_out = name + " timeout";
      span_names_[slot].push_back({std::move(name), std::move(timed_out)});
    }
  }
}

std::string RpcFabric::span_name(uint32_t prog, uint32_t proc,
                                 bool timed_out) const {
  for (size_t slot = 0; slot < kPrograms; ++slot) {
    if (static_cast<uint32_t>(kProgramSlots[slot]) != prog) continue;
    const auto& names = span_names_[slot];
    if (proc >= 1 && proc <= names.size()) return names[proc - 1][timed_out];
    break;
  }
  return util::sformat("%s/%u%s", program_component(prog), proc,
                       timed_out ? " timeout" : "");
}

void RpcFabric::bind(RpcAddress addr, RpcServer* server) {
  const auto [it, inserted] = servers_.emplace(addr, server);
  (void)it;
  if (!inserted) throw std::logic_error("RPC address already bound");
}

void RpcFabric::unbind(RpcAddress addr) { servers_.erase(addr); }

Task<RpcFabric::RawResult> RpcFabric::call(sim::Node& from, RpcAddress to,
                                           WireBuffer request,
                                           sim::Time deadline) {
  const auto it = servers_.find(to);
  if (it == servers_.end()) throw std::logic_error("RPC call to unbound address");
  RpcServer* server = it->second;
  sim::Simulation& sim = net_.simulation();

  sim::Network::TransferStats send_stats;
  const bool delivered = co_await net_.transfer(
      from, server->node(), request.wire_size + overhead_, &send_stats);
  const sim::FaultInjector* faults = net_.faults();
  const bool daemon_up =
      faults == nullptr || !faults->service_down(to.node_id, to.port, sim.now());

  if (!delivered || !daemon_up) {
    // The request is gone: a real client learns that only by its timer
    // expiring.  With no explicit deadline, fall back to the fabric's drop
    // timeout so the simulation still cannot hang on a scripted fault.
    const sim::Time give_up =
        deadline > 0 ? deadline : sim.now() + drop_timeout_;
    if (give_up > sim.now()) co_await sim.delay(give_up - sim.now());
    co_return RawResult{Status::kTimedOut, WireBuffer{},
                        send_stats.tx_queue_wait};
  }

  auto slot = std::make_shared<ReplySlot>(sim);
  server->queue_.push(
      RpcServer::Pending{std::move(request), from.id(), slot, sim.now()});
  if (deadline > 0) sim.spawn(deadline_watchdog(sim, slot, deadline));
  co_await slot->done.wait();

  if (!slot->reply.has_value()) {
    // Either the deadline beat the reply, or the worker dropped the reply
    // (crashed daemon / lost message) and woke us early: wait out whatever
    // budget remains before reporting the timeout.
    const sim::Time give_up =
        deadline > 0 ? deadline : sim.now() + drop_timeout_;
    if (give_up > sim.now()) co_await sim.delay(give_up - sim.now());
    co_return RawResult{Status::kTimedOut, WireBuffer{},
                        send_stats.tx_queue_wait};
  }
  co_return RawResult{Status::kOk, std::move(*slot->reply),
                      send_stats.tx_queue_wait};
}

RpcServer::RpcServer(RpcFabric& fabric, sim::Node& node, uint16_t port,
                     uint32_t worker_count, RpcService service)
    : fabric_(fabric),
      node_(node),
      port_(port),
      worker_count_(worker_count),
      service_(std::move(service)),
      queue_(fabric.simulation()),
      workers_done_(fabric.simulation()) {
  obs::MetricsRegistry& reg = fabric_.metrics();
  const std::string& n = node_.name();
  m_requests_ = &reg.counter(n, "rpc", "requests");
  m_bytes_in_ = &reg.counter(n, "rpc", "wire_bytes_in");
  m_bytes_out_ = &reg.counter(n, "rpc", "wire_bytes_out");
  m_queue_us_ =
      &reg.histogram(n, "rpc", "queue_us", obs::latency_us_boundaries());
  m_service_us_ =
      &reg.histogram(n, "rpc", "service_us", obs::latency_us_boundaries());
  m_service_digest_ = &reg.digest(n, "rpc", "service_us");
  fabric_.bind(address(), this);
}

RpcServer::~RpcServer() { fabric_.unbind(address()); }

void RpcServer::start() {
  if (started_) return;
  started_ = true;
  for (uint32_t i = 0; i < worker_count_; ++i) workers_done_.spawn(worker());
}

void RpcServer::stop() { queue_.close(); }

Task<void> RpcServer::worker() {
  while (true) {
    auto pending = co_await queue_.recv();
    if (!pending) break;

    const sim::Time picked_up = fabric_.simulation().now();
    const sim::FaultInjector* faults = fabric_.network().faults();
    if (faults != nullptr && faults->service_down(node_.id(), port_, picked_up)) {
      // The daemon crashed with this request queued: the request dies with
      // it.  The caller's deadline (or the fabric drop timeout) reports it.
      pending->slot->done.set();
      continue;
    }
    if (faults != nullptr &&
        faults->boot_instance(node_.id(), port_, pending->enqueued) !=
            faults->boot_instance(node_.id(), port_, picked_up)) {
      // The daemon crashed *and revived* while this request sat in the
      // queue.  The old incarnation's socket/queue died with it — the new
      // instance must not serve its predecessor's requests, or a client
      // could see a reply stamped by state that no longer exists.
      pending->slot->done.set();
      continue;
    }

    const sim::Duration queue_wait = picked_up - pending->enqueued;
    m_queue_us_->observe(static_cast<double>(queue_wait) * 1e-3);

    XdrDecoder dec(pending->request.bytes);
    XdrEncoder enc;
    CallHeader header;
    try {
      header = CallHeader::decode(dec);
    } catch (const XdrError&) {
      // Unparseable call: no xid to echo; drop it (a real server would
      // sever the connection) and wake the caller, whose deadline (or the
      // fabric drop timeout) reports it.
      util::logf(util::LogLevel::kWarn, "rpc.server",
                 fabric_.simulation().now(), "dropping unparseable call");
      pending->slot->done.set();
      continue;
    }

    // Open a server span under the caller's wire span so nested RPCs issued
    // by the service stay in the same trace.
    obs::Tracer& tracer = fabric_.tracer();
    obs::TraceContext server_span;
    if (header.trace_id != 0) {
      server_span = tracer.begin(obs::TraceContext{
          header.trace_id, header.span_id,
          (header.flags & kFlagSampled) != 0});
    }
    // The tenant rides the context even when the request is untraced, so
    // nested RPCs (proxied 2-/3-tier hops) and backend disk charges stay
    // attributed to the original caller at any sample rate.
    server_span.tenant = header.tenant_id;

    ReplyHeader reply_header{header.xid, ReplyStatus::kAccepted};
    XdrEncoder body;
    try {
      CallContext ctx{header, pending->client_node, server_span};
      co_await service_(ctx, dec, body);
    } catch (const XdrError& e) {
      util::logf(util::LogLevel::kWarn, "rpc.server",
                 fabric_.simulation().now(), "garbage args: %s", e.what());
      reply_header.status = ReplyStatus::kGarbageArgs;
      body = XdrEncoder{};
    } catch (const std::exception& e) {
      util::logf(util::LogLevel::kError, "rpc.server",
                 fabric_.simulation().now(), "service error: %s", e.what());
      reply_header.status = ReplyStatus::kSystemErr;
      body = XdrEncoder{};
    }

    reply_header.encode(enc);
    const uint64_t body_virtual = body.wire_size() - body.encoded_size();
    const std::vector<std::byte> body_bytes = std::move(body).take();
    enc.put_opaque_fixed(body_bytes);  // already 4-aligned: offsets preserved
    const uint64_t reply_wire_size = enc.wire_size() + body_virtual;
    WireBuffer reply{std::move(enc).take(), reply_wire_size};

    const sim::Time done = fabric_.simulation().now();
    m_requests_->inc();
    m_bytes_in_->add(pending->request.wire_size);
    m_bytes_out_->add(reply.wire_size);
    m_service_us_->observe(static_cast<double>(done - picked_up) * 1e-3);
    m_service_digest_->add(static_cast<double>(done - picked_up) * 1e-3);
    fabric_.tenants().account_rpc(
        header.tenant_id, pending->request.wire_size, reply.wire_size,
        queue_wait, done - picked_up,
        reply_header.status != ReplyStatus::kAccepted);
    if (server_span.valid()) {
      obs::Span span{
          header.trace_id, server_span.span_id, header.span_id,
          obs::SpanKind::kServerExec,
          fabric_.span_name(header.prog, header.proc, /*timed_out=*/false),
          node_.name(), picked_up, done, queue_wait,
          reply.wire_size, pending->request.wire_size};
      span.error = reply_header.status != ReplyStatus::kAccepted;
      tracer.record(std::move(span));
    }

    // Send the reply.  If the daemon or node died while the request was in
    // service (even if it already revived — the reply belongs to the dead
    // incarnation), or the reply is lost on the wire, wake the caller with
    // an empty slot — its deadline machinery turns that into kTimedOut.
    bool reply_ok =
        faults == nullptr ||
        (!faults->service_down(node_.id(), port_, fabric_.simulation().now()) &&
         faults->boot_instance(node_.id(), port_, picked_up) ==
             faults->boot_instance(node_.id(), port_,
                                   fabric_.simulation().now()));
    if (reply_ok) {
      reply_ok = co_await fabric_.network().transfer(
          node_, fabric_.network().node(pending->client_node),
          reply.wire_size + fabric_.per_message_overhead());
    }
    if (reply_ok) pending->slot->reply = std::move(reply);
    pending->slot->done.set();
  }
}

Task<RpcClient::Reply> RpcClient::call(RpcAddress to, Program prog,
                                       uint32_t vers, uint32_t proc,
                                       XdrEncoder args, CallOptions opts) {
  obs::Tracer& tracer = fabric_.tracer();
  sim::Simulation& sim = fabric_.simulation();

  // Encode the args once up front so every retry resends identical bytes.
  const uint64_t args_virtual = args.wire_size() - args.encoded_size();
  const std::vector<std::byte> args_bytes = std::move(args).take();

  const uint32_t attempts = 1 + (opts.idempotent ? opts.max_retries : 0);
  // Retries parent under the first attempt's span: one logical call with
  // several attempts reads as one trace even when `opts.parent` is invalid.
  obs::TraceContext anchor = opts.parent;
  sim::Duration backoff = opts.backoff;

  // Timed-out attempts and retries go on the flight record, naming the
  // peer and the call.
  const auto flight_event = [&](const char* kind, uint32_t attempt,
                                const char* what, sim::Duration d) {
    fabric_.flight().record(
        sim.now(), node_.name(), "rpc.client", kind,
        util::sformat("%s port %u %s, attempt %u of %u %s %lld ns",
                      fabric_.network().node(to.node_id).name().c_str(),
                      static_cast<unsigned>(to.port),
                      fabric_.span_name(static_cast<uint32_t>(prog), proc,
                                        /*timed_out=*/false)
                          .c_str(),
                      attempt + 1, attempts, what, static_cast<long long>(d)));
  };

  for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++retries_;
      if (retry_counter_ != nullptr) retry_counter_->inc();
      sim::Duration pause = backoff;
      if (opts.jitter > 0.0) {
        const double spread = (rng_.uniform() * 2.0 - 1.0) * opts.jitter;
        pause = static_cast<sim::Duration>(
            static_cast<double>(backoff) * (1.0 + spread));
      }
      if (pause > 0) co_await sim.delay(pause);
      backoff = static_cast<sim::Duration>(
          static_cast<double>(backoff) * opts.backoff_multiplier);
      flight_event("rpc.retry", attempt, "after backoff", pause);
    }

    const uint64_t parent_span_id =
        attempt == 0 ? opts.parent.span_id : anchor.span_id;
    const obs::TraceContext span = tracer.begin(anchor);
    if (!anchor.valid()) anchor = span;

    XdrEncoder enc;
    CallHeader header{next_xid_++, static_cast<uint32_t>(prog), vers, proc,
                      span.trace_id, span.span_id,
                      span.sampled ? kFlagSampled : 0u,
                      principal_};
    // Proxied hops act for the original caller's tenant; calls this client
    // originates carry its own.  Independent of tracing: the parent context
    // carries the tenant even when its trace_id is 0.
    header.tenant_id =
        opts.parent.tenant != 0 ? opts.parent.tenant : tenant_id_;
    header.encode(enc);
    enc.put_opaque_fixed(args_bytes);

    WireBuffer request{std::move(enc).take(), 0};
    request.wire_size = request.bytes.size() + args_virtual;
    const uint64_t request_wire = request.wire_size;

    const sim::Time sent = sim.now();
    const sim::Time deadline = opts.timeout > 0 ? sent + opts.timeout : 0;
    RpcFabric::RawResult raw =
        co_await fabric_.call(node_, to, std::move(request), deadline);
    obs::Span client_span{
        span.trace_id, span.span_id, parent_span_id,
        obs::SpanKind::kClientCall,
        fabric_.span_name(static_cast<uint32_t>(prog), proc,
                          raw.status != Status::kOk),
        node_.name(), sent, sim.now(), 0, request_wire,
        raw.status == Status::kOk ? raw.reply.wire_size : 0,
        raw.send_wait};
    client_span.error = raw.status != Status::kOk;
    tracer.record(std::move(client_span));

    if (raw.status == Status::kOk) {
      Reply reply;
      reply.buffer = std::move(raw.reply.bytes);
      XdrDecoder dec(reply.buffer);
      const ReplyHeader rh = ReplyHeader::decode(dec);
      reply.status = rh.status;
      reply.body_offset = reply.buffer.size() - dec.remaining();
      co_return reply;
    }
    ++timeouts_;
    flight_event("rpc.timeout", attempt, "after", sim.now() - sent);
  }

  Reply reply;
  reply.transport = Status::kTimedOut;
  reply.status = ReplyStatus::kSystemErr;  // legacy status checks stay safe
  co_return reply;
}

}  // namespace dpnfs::rpc

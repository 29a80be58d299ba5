#include "runtime/system.hpp"

#include <chrono>
#include <thread>

#include "util/assert.hpp"

namespace baps::runtime {

namespace {

/// Releases the held host lock for a scope and takes it back on exit, also
/// when the wire call throws.
class Unlocked {
 public:
  explicit Unlocked(std::mutex& mu) : mu_(mu) { mu_.unlock(); }
  ~Unlocked() { mu_.lock(); }
  Unlocked(const Unlocked&) = delete;
  Unlocked& operator=(const Unlocked&) = delete;

 private:
  std::mutex& mu_;
};

}  // namespace

std::string msg_kind_name(MsgKind kind) {
  switch (kind) {
    case MsgKind::kClientRequest: return "client-request";
    case MsgKind::kProxyResponse: return "proxy-response";
    case MsgKind::kPeerFetch: return "peer-fetch";
    case MsgKind::kPeerDeliver: return "peer-deliver";
    case MsgKind::kOriginFetch: return "origin-fetch";
    case MsgKind::kOriginResponse: return "origin-response";
    case MsgKind::kIndexAdd: return "index-add";
    case MsgKind::kIndexRemove: return "index-remove";
  }
  BAPS_REQUIRE(false, "unknown message kind");
  return {};
}

std::string source_name(FetchOutcome::Source source) {
  switch (source) {
    case FetchOutcome::Source::kLocalBrowser: return "local-browser";
    case FetchOutcome::Source::kProxy: return "proxy-cache";
    case FetchOutcome::Source::kRemoteBrowser: return "remote-browser";
    case FetchOutcome::Source::kOrigin: return "origin-server";
  }
  BAPS_REQUIRE(false, "unknown source");
  return {};
}

BapsSystem::BapsSystem(const Params& params)
    : params_(params),
      loopback_(std::make_unique<LoopbackTransport>(ProxyCore::Params{
          params.num_clients, params.proxy_cache_bytes, params.seed,
          params.rsa_modulus_bits, params.store})),
      transport_(loopback_.get()) {
  init_clients();
  transport_->bind_peer_host(this);
  // The embedded proxy writes its envelopes into the same trace, so the
  // in-process log interleaves client- and proxy-side messages exactly as
  // the synchronous dispatch produces them.
  loopback_->core().set_trace(&trace_);
  pub_key_ = transport_->proxy_public_key();
}

BapsSystem::BapsSystem(const Params& params, Transport& transport)
    : params_(params), transport_(&transport) {
  init_clients();
  transport_->bind_peer_host(this);
  pub_key_ = transport_->proxy_public_key();
}

BapsSystem::~BapsSystem() = default;

void BapsSystem::init_clients() {
  BAPS_REQUIRE(params_.num_clients > 0, "system needs at least one client");
  clients_.resize(params_.num_clients);
  // Per-client symmetric keys shared with the proxy (key establishment is
  // out of band, as the paper's §6 assumes): both ends derive them from the
  // common seed, so nothing key-shaped ever crosses the transport.
  std::vector<std::string> mac_keys =
      derive_client_mac_keys(params_.seed, params_.num_clients);
  for (ClientId c = 0; c < params_.num_clients; ++c) {
    clients_[c].browser =
        std::make_unique<DocStore>(params_.browser_cache_bytes);
    clients_[c].mac_key = std::move(mac_keys[c]);
  }
}

void BapsSystem::send_index_update(ClientId client, bool is_add,
                                   DocStore::Key key) {
  trace_.record(is_add ? MsgKind::kIndexAdd : MsgKind::kIndexRemove,
                client_name(client), "proxy", key);
  const crypto::Md5Digest mac =
      index_update_mac(clients_[client].mac_key, client, is_add, key);
  const Unlocked unlocked(mu_);
  transport_->index_update(client, is_add, key, mac);
}

ProxyCore::Reply BapsSystem::request(ClientId client, const Url& url,
                                     DocStore::Key key, bool avoid_peers,
                                     const obs::TraceContext& trace) {
  trace_.record(MsgKind::kClientRequest, client_name(client), "proxy", key);
  ProxyCore::Reply reply;
  {
    const Unlocked unlocked(mu_);
    reply = transport_->fetch(client, url, avoid_peers, trace);
  }
  trace_.record(MsgKind::kProxyResponse, "proxy", client_name(client), key);
  return reply;
}

std::optional<Document> BapsSystem::serve_peer_fetch(ClientId holder,
                                                     DocStore::Key key) {
  const std::lock_guard<std::mutex> lock(mu_);
  BAPS_REQUIRE(holder < clients_.size(), "holder id out of range");
  ClientState& peer = clients_[holder];
  // A departed peer serves nothing: the proxy's entry for it is stale and
  // this fetch becomes a false forward recovered from the origin.
  if (peer.departed) return std::nullopt;
  if (plan_ != nullptr) {
    if (plan_->should_inject(fault::FaultKind::kPeerDisconnect)) {
      return std::nullopt;  // vanished mid-transfer: no delivery
    }
    if (plan_->should_inject(fault::FaultKind::kSlowPeer)) {
      const fault::FaultRates& rates = plan_->rates();
      if (loopback_ != nullptr) {
        // Loopback time is virtual: a delay above the proxy's peer-read
        // budget counts as an undelivered fetch, anything under it is
        // tolerated (just recorded).
        if (rates.slow_peer_budget_ms > 0 &&
            rates.slow_peer_delay_ms > rates.slow_peer_budget_ms) {
          return std::nullopt;
        }
      } else {
        // Over a real transport the delay is real; the proxy's peer read
        // deadline decides whether the delivery still counts.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(rates.slow_peer_delay_ms));
      }
    }
  }
  if (peer.tampering) peer.browser->corrupt(key);
  const Document* held = peer.browser->get(key);
  if (held == nullptr) return std::nullopt;
  std::optional<Document> doc = *held;  // copied under the host lock
  if (plan_ != nullptr && loopback_ != nullptr) {
    // Frame faults: a real transport injects these on the wire (see
    // TcpTransport); loopback emulates them on the in-flight copy.
    if (plan_->should_inject(fault::FaultKind::kDropFrame)) {
      return std::nullopt;
    }
    if (plan_->should_inject(fault::FaultKind::kCorruptFrame) &&
        !doc->body.empty()) {
      doc->body[0] = static_cast<char>(doc->body[0] ^ 0x20);
    }
  }
  return doc;
}

void BapsSystem::emit_fetch(ClientId client, DocStore::Key key,
                            const FetchOutcome& out, bool false_forward) {
  if (sink_ == nullptr) return;
  sink_->emit(obs::json_object({
      {"event", obs::JsonValue("fetch")},
      {"client", obs::JsonValue(client_name(client))},
      {"url", obs::JsonValue(key)},
      {"source", obs::JsonValue(source_name(out.source))},
      {"verified", obs::JsonValue(out.verified)},
      {"tamper_recovered", obs::JsonValue(out.tamper_recovered)},
      {"false_forward", obs::JsonValue(false_forward)},
  }));
}

void BapsSystem::client_store(ClientId client, DocStore::Key key,
                              Document doc) {
  // Browser-cache replacement sends the paper's invalidation messages: the
  // removes for what put() evicted first, in eviction order, then the add.
  DocStore::Evicted evicted;
  const bool stored =
      clients_[client].browser->put(key, std::move(doc), &evicted);
  for (const auto& [gone, body] : evicted) {
    send_index_update(client, /*is_add=*/false, gone);
  }
  if (stored) send_index_update(client, /*is_add=*/true, key);
}

FetchOutcome BapsSystem::browse(ClientId client, const Url& url) {
  const std::lock_guard<std::mutex> lock(mu_);
  BAPS_REQUIRE(client < clients_.size(), "client id out of range");
  const DocStore::Key key = url_key(url);
  // Every browse roots a new trace; the sampler decides per trace id whether
  // anything is recorded. Without a tracer this is a single null check.
  obs::Span root = tracer_ != nullptr
                       ? tracer_->start_root_span(obs::SpanKind::kClientFetch)
                       : obs::Span();
  if (plan_ != nullptr) fault_tick(client);
  const auto verify = [&](const Document& doc) {
    const obs::Span span =
        root.recording()
            ? tracer_->start_span(obs::SpanKind::kVerify, root.context())
            : obs::Span();
    return crypto::verify_watermark(doc.body, doc.mark, pub_key_);
  };

  // Local browser cache first. A local copy that fails its watermark (e.g.
  // corrupted on disk, or self-tampered) is discarded and refetched rather
  // than served: the client tells the proxy it no longer holds the URL and
  // falls through to the normal request path.
  if (const Document* doc = clients_[client].browser->get(key)) {
    if (verify(*doc)) {
      ++local_hits_;
      FetchOutcome out;
      out.source = FetchOutcome::Source::kLocalBrowser;
      out.verified = true;
      out.body = doc->body;
      emit_fetch(client, key, out, /*false_forward=*/false);
      if (plan_ != nullptr) plan_->end_request_ok();
      return out;
    }
    ++tamper_detections_;
    clients_[client].browser->erase(key);
    send_index_update(client, /*is_add=*/false, key);
  }

  ProxyCore::Reply reply =
      request(client, url, key, /*avoid_peers=*/false, root.context());
  bool false_forward = reply.false_forward;

  FetchOutcome out;
  out.source = reply.source;
  out.verified = verify(reply.doc);

  if (!out.verified) {
    // §6.1: a failed watermark means the peer copy was tampered with. The
    // client rejects it and re-requests, bypassing peers; the proxy serves
    // a fresh, correctly watermarked copy from the origin.
    ++tamper_detections_;
    reply = request(client, url, key, /*avoid_peers=*/true, root.context());
    out.source = reply.source;
    out.verified = verify(reply.doc);
    out.tamper_recovered = true;
    BAPS_ENSURE(out.verified, "origin-served document must verify");
    false_forward = false_forward || reply.false_forward;
  }

  out.body = reply.doc.body;
  client_store(client, key, std::move(reply.doc));
  emit_fetch(client, key, out, false_forward);
  // The request was served with verified content (the BAPS_ENSURE above
  // guarantees it on the retry path): every fault injected in its window
  // was absorbed.
  if (plan_ != nullptr) plan_->end_request_ok();
  return out;
}

OriginServer& BapsSystem::origin() {
  BAPS_REQUIRE(loopback_ != nullptr,
               "origin() is only reachable on the loopback transport");
  return loopback_->core().origin();
}

const index::BrowserIndex& BapsSystem::browser_index() const {
  BAPS_REQUIRE(loopback_ != nullptr,
               "browser_index() is only reachable on the loopback transport");
  return loopback_->core().index();
}

std::uint64_t BapsSystem::local_hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return local_hits_;
}

std::uint64_t BapsSystem::tamper_detections() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tamper_detections_;
}

void BapsSystem::attach_fault_plan(fault::FaultPlan* plan) {
  const std::lock_guard<std::mutex> lock(mu_);
  plan_ = plan;
  transport_->set_fault_plan(plan);
}

void BapsSystem::fault_tick(ClientId requester) {
  plan_->begin_request();
  // A request from a departed client is that client coming back online;
  // membership repair, not an injection.
  if (clients_[requester].departed) rejoin(requester);
  if (loopback_ != nullptr &&
      plan_->should_inject(fault::FaultKind::kProxyRestart)) {
    restart();
  }
  if (plan_->decide(fault::FaultKind::kPeerDepart)) {
    std::vector<ClientId> candidates;
    for (ClientId c = 0; c < params_.num_clients; ++c) {
      if (c != requester && !clients_[c].departed) candidates.push_back(c);
    }
    if (!candidates.empty()) {
      plan_->note_injected(fault::FaultKind::kPeerDepart);
      const ClientId victim = candidates[plan_->pick(
          fault::FaultKind::kPeerDepart,
          static_cast<std::uint32_t>(candidates.size()))];
      depart(victim, plan_->rates().polite_departures);
    }
  }
  if (plan_->decide(fault::FaultKind::kPeerJoin)) {
    std::vector<ClientId> candidates;
    for (ClientId c = 0; c < params_.num_clients; ++c) {
      if (clients_[c].departed) candidates.push_back(c);
    }
    if (!candidates.empty()) {
      plan_->note_injected(fault::FaultKind::kPeerJoin);
      rejoin(candidates[plan_->pick(
          fault::FaultKind::kPeerJoin,
          static_cast<std::uint32_t>(candidates.size()))]);
    }
  }
}

void BapsSystem::depart_client(ClientId client, bool polite) {
  const std::lock_guard<std::mutex> lock(mu_);
  depart(client, polite);
}

void BapsSystem::depart(ClientId client, bool polite) {
  BAPS_REQUIRE(client < clients_.size(), "client id out of range");
  ClientState& state = clients_[client];
  BAPS_REQUIRE(!state.departed, "client is already departed");
  if (polite) {
    // Clean shutdown: the browser tells the proxy about every copy it is
    // about to lose, so no stale entries remain.
    for (const DocStore::Key key : state.browser->keys()) {
      send_index_update(client, /*is_add=*/false, key);
    }
  }
  // Crash semantics otherwise: the cache empties with no invalidations, and
  // the proxy's entries for this client go stale (§5).
  state.browser->clear();
  state.departed = true;
}

void BapsSystem::rejoin_client(ClientId client) {
  const std::lock_guard<std::mutex> lock(mu_);
  rejoin(client);
}

void BapsSystem::rejoin(ClientId client) {
  BAPS_REQUIRE(client < clients_.size(), "client id out of range");
  BAPS_REQUIRE(clients_[client].departed, "client is not departed");
  clients_[client].departed = false;  // cold cache: cleared on departure
}

bool BapsSystem::client_departed(ClientId client) const {
  const std::lock_guard<std::mutex> lock(mu_);
  BAPS_REQUIRE(client < clients_.size(), "client id out of range");
  return clients_[client].departed;
}

void BapsSystem::restart_proxy() {
  const std::lock_guard<std::mutex> lock(mu_);
  restart();
}

void BapsSystem::restart() {
  BAPS_REQUIRE(loopback_ != nullptr,
               "restart_proxy() is only reachable on the loopback transport");
  loopback_->core().restart();
  // Index rebuild: every present client re-announces its actual holdings
  // (sorted keys — deterministic rebuild order).
  for (ClientId c = 0; c < params_.num_clients; ++c) {
    if (clients_[c].departed) continue;
    for (const DocStore::Key key : clients_[c].browser->keys()) {
      send_index_update(c, /*is_add=*/true, key);
    }
  }
}

void BapsSystem::set_tampering(ClientId client, bool tampering) {
  const std::lock_guard<std::mutex> lock(mu_);
  BAPS_REQUIRE(client < clients_.size(), "client id out of range");
  clients_[client].tampering = tampering;
}

bool BapsSystem::spoof_index_remove(ClientId attacker, ClientId victim,
                                    const Url& url) {
  const std::lock_guard<std::mutex> lock(mu_);
  BAPS_REQUIRE(attacker < clients_.size() && victim < clients_.size(),
               "client id out of range");
  const DocStore::Key key = url_key(url);
  // The attacker claims to be the victim but can only MAC with its own key.
  trace_.record(MsgKind::kIndexRemove, client_name(attacker), "proxy", key);
  const crypto::Md5Digest mac =
      index_update_mac(clients_[attacker].mac_key, attacker, false, key);
  const Unlocked unlocked(mu_);
  // Updates are not acked. The verdict is the proxy's rejected count, read
  // before and after on the host's ordered channel.
  const std::uint64_t rejected = transport_->stats().rejected_index_updates;
  transport_->index_update(victim, /*is_add=*/false, key, mac);
  return transport_->stats().rejected_index_updates == rejected;
}

void BapsSystem::drop_silently(ClientId client, const Url& url) {
  const std::lock_guard<std::mutex> lock(mu_);
  BAPS_REQUIRE(client < clients_.size(), "client id out of range");
  // erase() reports nothing and no remove is sent, so the proxy's index
  // keeps the stale entry — exactly the failure this hook models.
  clients_[client].browser->erase(url_key(url));
}

bool BapsSystem::client_has(ClientId client, const Url& url) const {
  const std::lock_guard<std::mutex> lock(mu_);
  BAPS_REQUIRE(client < clients_.size(), "client id out of range");
  return clients_[client].browser->contains(url_key(url));
}

}  // namespace baps::runtime

#include "runtime/runtime.h"

#include <algorithm>
#include <utility>

namespace distcache {

DistCacheRuntime::DistCacheRuntime(const RuntimeConfig& config)
    : config_(config),
      placement_(config.num_racks, config.servers_per_rack,
                 HashCombine(config.seed, 0x91aceULL)) {
  // The runtime deployment is the paper's two-layer prototype, expressed through
  // the layer-generic allocation API: LayerSpec{0} is the spine layer, {1} the
  // rack-bound leaves. Deeper hierarchies stay a simulation-engine feature until
  // the thread-per-node runtime grows mid-layer switch loops.
  AllocationConfig alloc = AllocationConfig::TwoLayer(
      config_.mechanism, config_.num_spine, config_.num_racks,
      config_.per_switch_objects, HashCombine(config_.seed, 0xd15ca4eULL));
  // The runtime seeds a dense keyspace; cap the candidate pool accordingly.
  alloc.candidate_pool = static_cast<uint32_t>(
      std::min<uint64_t>(config_.num_keys,
                         uint64_t{8} * config_.per_switch_objects *
                             (config_.num_spine + config_.num_racks)));
  allocation_ = std::make_unique<CacheAllocation>(alloc, placement_);

  for (uint32_t s = 0; s < config_.num_spine; ++s) {
    CacheSwitch::Config sw;
    sw.switch_id = s;
    spine_switches_.push_back(std::make_unique<CacheSwitch>(sw));
    spine_inboxes_.push_back(std::make_unique<Channel<Envelope>>());
  }
  for (uint32_t l = 0; l < config_.num_racks; ++l) {
    CacheSwitch::Config sw;
    sw.switch_id = config_.num_spine + l;
    leaf_switches_.push_back(std::make_unique<CacheSwitch>(sw));
    leaf_inboxes_.push_back(std::make_unique<Channel<Envelope>>());
  }
  const uint32_t num_servers = config_.num_racks * config_.servers_per_rack;
  for (uint32_t v = 0; v < num_servers; ++v) {
    StorageServer::Config sc;
    sc.server_id = v;
    servers_.push_back(std::make_unique<StorageServer>(sc));
    server_inboxes_.push_back(std::make_unique<Channel<Envelope>>());
  }
}

DistCacheRuntime::~DistCacheRuntime() { Stop(); }

std::vector<CacheNodeId> DistCacheRuntime::CopyNodes(uint64_t key) const {
  const CacheCopies copies = allocation_->CopiesOf(key);
  std::vector<CacheNodeId> nodes;
  if (copies.replicated_all_spines) {
    for (uint32_t s = 0; s < config_.num_spine; ++s) {
      nodes.push_back(CacheNodeId{0, s});
    }
  }
  // The per-layer copies, ascending (spine copy then leaf copy in this
  // two-layer runtime).
  for (uint8_t i = 0; i < copies.num; ++i) {
    nodes.push_back(copies.nodes[i]);
  }
  return nodes;
}

void DistCacheRuntime::Start() {
  if (started_) {
    return;
  }
  started_ = true;

  // Seed primary copies.
  for (uint64_t key = 0; key < config_.num_keys; ++key) {
    servers_[ServerOf(key)]->Seed(key, ValueFor(key)).ok();
  }
  // Seed cache contents per the controller's allocation (valid from the start; the
  // runtime exercise is query handling, not warm-up).
  const auto seed_switch = [](CacheSwitch* sw, const std::vector<uint64_t>& keys) {
    for (uint64_t key : keys) {
      sw->InsertInvalid(key, ValueFor(key).size()).ok();
      sw->UpdateValue(key, ValueFor(key)).ok();
    }
  };
  for (uint32_t s = 0; s < config_.num_spine; ++s) {
    seed_switch(spine_switches_[s].get(), allocation_->layer_contents(0)[s]);
  }
  for (uint32_t l = 0; l < config_.num_racks; ++l) {
    seed_switch(leaf_switches_[l].get(), allocation_->layer_contents(1)[l]);
  }

  for (uint32_t s = 0; s < config_.num_spine; ++s) {
    threads_.emplace_back([this, s] { SwitchLoop(/*spine_layer=*/true, s); });
  }
  for (uint32_t l = 0; l < config_.num_racks; ++l) {
    threads_.emplace_back([this, l] { SwitchLoop(/*spine_layer=*/false, l); });
  }
  for (uint32_t v = 0; v < servers_.size(); ++v) {
    threads_.emplace_back([this, v] { ServerLoop(v); });
  }
}

void DistCacheRuntime::Stop() {
  if (!started_ || stopped_) {
    return;
  }
  stopped_ = true;
  for (auto& inbox : spine_inboxes_) {
    inbox->Close();
  }
  for (auto& inbox : leaf_inboxes_) {
    inbox->Close();
  }
  for (auto& inbox : server_inboxes_) {
    inbox->Close();
  }
  for (auto& thread : threads_) {
    thread.join();
  }
  threads_.clear();
}

void DistCacheRuntime::SwitchLoop(bool spine_layer, uint32_t index) {
  CacheSwitch* sw =
      spine_layer ? spine_switches_[index].get() : leaf_switches_[index].get();
  Channel<Envelope>& inbox =
      spine_layer ? *spine_inboxes_[index] : *leaf_inboxes_[index];
  const CacheNodeId self{spine_layer ? 0u : 1u, index};

  while (auto env = inbox.Receive()) {
    Message& msg = env->msg;
    switch (msg.type) {
      case MsgType::kGetRequest: {
        std::string value;
        const LookupResult result = sw->Lookup(msg.key, &value);
        if (result == LookupResult::kHit) {
          counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
          Message reply = msg;
          reply.type = MsgType::kGetReply;
          reply.value = std::move(value);
          reply.cache_hit = true;
          reply.piggyback.push_back(LoadSample{self, sw->TelemetryLoad()});
          // Reply channels belong to the blocked requester and never close before
          // the reply lands; a rejection means the requester is gone — drop it.
          (void)env->reply_to->Send(std::move(reply));
        } else {
          // Invalid or miss: forward to the primary server, no routing detour (§4.2).
          counters_.cache_misses.fetch_add(1, std::memory_order_relaxed);
          // Capture the reply route before the envelope is consumed: if the server
          // inbox closed mid-flight (Stop() race), the forward is dropped and the
          // client would otherwise block in Receive() forever — its reply channel
          // is never closed. Fail loudly with an unavailable reply instead.
          Channel<Message>* reply_to = env->reply_to;
          const uint64_t key = msg.key;
          const uint64_t request_id = msg.request_id;
          const uint32_t client_id = msg.client_id;
          if (!server_inboxes_[ServerOf(key)]->Send(std::move(*env))) {
            Message failure;
            failure.type = MsgType::kGetReply;
            failure.key = key;
            failure.request_id = request_id;
            failure.client_id = client_id;
            failure.unavailable = true;
            (void)reply_to->Send(std::move(failure));
          }
        }
        break;
      }
      case MsgType::kInvalidate: {
        sw->Invalidate(msg.key).ok();
        sw->AddTelemetryLoad(1);
        counters_.invalidations.fetch_add(1, std::memory_order_relaxed);
        Message ack = msg;
        ack.type = MsgType::kInvalidateAck;
        (void)env->reply_to->Send(std::move(ack));
        break;
      }
      case MsgType::kCacheUpdate: {
        sw->UpdateValue(msg.key, msg.value).ok();
        sw->AddTelemetryLoad(1);
        counters_.cache_updates.fetch_add(1, std::memory_order_relaxed);
        Message ack = msg;
        ack.type = MsgType::kCacheUpdateAck;
        (void)env->reply_to->Send(std::move(ack));
        break;
      }
      default:
        break;  // unexpected at a switch
    }
  }
}

void DistCacheRuntime::ServerLoop(uint32_t server_id) {
  StorageServer* server = servers_[server_id].get();
  Channel<Envelope>& inbox = *server_inboxes_[server_id];
  Channel<Message> coherence_acks;  // private channel for protocol round trips

  while (auto env = inbox.Receive()) {
    Message& msg = env->msg;
    switch (msg.type) {
      case MsgType::kGetRequest: {
        counters_.server_gets.fetch_add(1, std::memory_order_relaxed);
        Message reply = msg;
        reply.type = MsgType::kGetReply;
        auto value = server->Get(msg.key);
        if (value.ok()) {
          reply.value = std::move(value).value();
        }
        // Reply channels belong to the blocked requester and never close before
        // the reply lands; a rejection means the requester is gone — drop it.
        (void)env->reply_to->Send(std::move(reply));
        break;
      }
      case MsgType::kPutRequest: {
        counters_.writes.fetch_add(1, std::memory_order_relaxed);
        const std::vector<CacheNodeId> copies = CopyNodes(msg.key);

        // Phase 1: invalidate all cached copies and wait for the acks.
        size_t pending = 0;
        for (const CacheNodeId& node : copies) {
          Message inval;
          inval.type = MsgType::kInvalidate;
          inval.key = msg.key;
          if (SwitchInbox(node).Send(Envelope{std::move(inval), &coherence_acks})) {
            ++pending;
          }
        }
        for (size_t i = 0; i < pending; ++i) {
          if (!coherence_acks.Receive()) {
            break;  // shutting down
          }
        }

        // Primary update, then the client acknowledgment — before phase 2, which is
        // safe because every copy is invalid (§4.3 optimization).
        server->Put(msg.key, msg.value, copies.size()).ok();
        Message reply = msg;
        reply.type = MsgType::kPutReply;
        (void)env->reply_to->Send(std::move(reply));

        // Phase 2: push the new value and re-validate.
        pending = 0;
        for (const CacheNodeId& node : copies) {
          Message update;
          update.type = MsgType::kCacheUpdate;
          update.key = msg.key;
          update.value = msg.value;
          if (SwitchInbox(node).Send(Envelope{std::move(update), &coherence_acks})) {
            ++pending;
          }
        }
        for (size_t i = 0; i < pending; ++i) {
          if (!coherence_acks.Receive()) {
            break;
          }
        }
        break;
      }
      default:
        break;
    }
  }
}

DistCacheRuntime::Client::Client(DistCacheRuntime* runtime, uint64_t seed)
    : runtime_(runtime),
      tracker_(LoadTracker::Config{
          {runtime->config_.num_spine, runtime->config_.num_racks},
          /*aging_factor=*/1.0}),
      router_(&tracker_, runtime->config_.routing, HashCombine(seed, 0xc11e7ULL)) {}

std::unique_ptr<DistCacheRuntime::Client> DistCacheRuntime::NewClient(uint64_t seed) {
  return std::make_unique<Client>(this, seed);
}

void DistCacheRuntime::Client::AbsorbPiggyback(const Message& reply) {
  for (const LoadSample& sample : reply.piggyback) {
    tracker_.Update(sample.node, sample.load);
  }
}

StatusOr<std::string> DistCacheRuntime::Client::Get(uint64_t key) {
  Message request;
  request.type = MsgType::kGetRequest;
  request.key = key;
  request.request_id = next_request_++;

  const std::vector<CacheNodeId> copies = runtime_->CopyNodes(key);
  bool sent = false;
  if (copies.empty()) {
    sent = runtime_->server_inboxes_[runtime_->ServerOf(key)]->Send(
        Envelope{std::move(request), &replies_});
  } else {
    const size_t choice = router_.Choose(copies);
    request.target = copies[choice];
    request.has_target = true;
    sent = runtime_->SwitchInbox(copies[choice]).Send(Envelope{std::move(request), &replies_});
  }
  if (!sent) {
    return Status::Unavailable("runtime stopped");
  }
  auto reply = replies_.Receive();
  if (!reply) {
    return Status::Unavailable("runtime stopped");
  }
  AbsorbPiggyback(*reply);
  if (reply->unavailable) {
    return Status::Unavailable("runtime stopped");
  }
  if (reply->value.empty()) {
    return Status::NotFound();
  }
  return std::move(reply->value);
}

Status DistCacheRuntime::Client::Put(uint64_t key, std::string value) {
  Message request;
  request.type = MsgType::kPutRequest;
  request.key = key;
  request.value = std::move(value);
  request.request_id = next_request_++;
  if (!runtime_->server_inboxes_[runtime_->ServerOf(key)]->Send(
          Envelope{std::move(request), &replies_})) {
    return Status::Unavailable("runtime stopped");
  }
  if (!replies_.Receive()) {
    return Status::Unavailable("runtime stopped");
  }
  return Status::Ok();
}

std::vector<uint64_t> DistCacheRuntime::SpineLoads() const {
  std::vector<uint64_t> loads;
  loads.reserve(spine_switches_.size());
  for (const auto& sw : spine_switches_) {
    loads.push_back(sw->TelemetryLoad());
  }
  return loads;
}

std::vector<uint64_t> DistCacheRuntime::LeafLoads() const {
  std::vector<uint64_t> loads;
  loads.reserve(leaf_switches_.size());
  for (const auto& sw : leaf_switches_) {
    loads.push_back(sw->TelemetryLoad());
  }
  return loads;
}

}  // namespace distcache

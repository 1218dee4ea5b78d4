#include "cache/cache_switch.h"

#include "kv/kv_store.h"

namespace distcache {

CacheSwitch::CacheSwitch(const Config& config) : config_(config) {}

LookupResult CacheSwitch::Lookup(uint64_t key, std::string* value_out) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return LookupResult::kMiss;
  }
  if (!it->second.valid) {
    return LookupResult::kInvalid;
  }
  if (value_out != nullptr) {
    *value_out = it->second.value;
  }
  ++it->second.hits;
  ++telemetry_load_;
  return LookupResult::kHit;
}

Status CacheSwitch::InsertInvalid(uint64_t key, size_t value_size) {
  if (value_size > KvStore::kMaxValueSize) {
    return Status::InvalidArgument("value exceeds 128-byte limit");
  }
  if (entries_.contains(key)) {
    return Status::AlreadyExists();
  }
  const size_t slots = SlotsFor(value_size);
  if (slots_used_ + slots > slots_total()) {
    return Status::ResourceExhausted("switch value slots exhausted");
  }
  Entry entry;
  entry.valid = false;
  entry.slots = slots;
  entries_.emplace(key, std::move(entry));
  slots_used_ += slots;
  return Status::Ok();
}

Status CacheSwitch::Invalidate(uint64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound();
  }
  it->second.valid = false;
  return Status::Ok();
}

Status CacheSwitch::UpdateValue(uint64_t key, std::string value) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound();
  }
  const size_t new_slots = SlotsFor(value.size());
  if (new_slots > it->second.slots &&
      slots_used_ + (new_slots - it->second.slots) > slots_total()) {
    return Status::ResourceExhausted("switch value slots exhausted");
  }
  slots_used_ += new_slots;
  slots_used_ -= it->second.slots;
  it->second.slots = new_slots;
  it->second.value = std::move(value);
  it->second.valid = true;
  return Status::Ok();
}

Status CacheSwitch::Evict(uint64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound();
  }
  slots_used_ -= it->second.slots;
  entries_.erase(it);
  return Status::Ok();
}

bool CacheSwitch::IsValid(uint64_t key) const {
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.valid;
}

uint64_t CacheSwitch::HitCount(uint64_t key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.hits;
}

void CacheSwitch::NewEpoch() {
  telemetry_load_ = 0;
  for (auto& [key, entry] : entries_) {
    entry.hits = 0;
  }
}

}  // namespace distcache

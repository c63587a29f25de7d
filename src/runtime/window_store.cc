#include "runtime/window_store.h"

#include <algorithm>

namespace sgq {

WindowEdgeStore* WindowStore::Acquire(const std::string& signature) {
  auto [it, inserted] = partitions_.try_emplace(signature);
  if (inserted) {
    it->second.store = std::make_unique<WindowEdgeStore>();
    it->second.store->ConfigureExpirySlide(slide_);
  } else {
    ++shared_acquires_;
  }
  ++it->second.consumers;
  return it->second.store.get();
}

Status WindowStore::Release(const std::string& signature) {
  auto it = partitions_.find(signature);
  if (it == partitions_.end()) {
    return Status::Internal("WindowStore::Release: unknown partition '" +
                            signature + "'");
  }
  if (it->second.consumers == 0) {
    return Status::Internal(
        "WindowStore::Release: partition '" + signature +
        "' has no outstanding consumers");
  }
  if (--it->second.consumers == 0) partitions_.erase(it);
  return Status::OK();
}

void WindowStore::ConfigureExpirySlide(Timestamp slide) {
  if (slide <= 0) return;
  slide_ = slide;
  for (auto& [_, p] : partitions_) p.store->ConfigureExpirySlide(slide);
}

void WindowStore::PurgeExpired(Timestamp now) {
  for (auto& [_, p] : partitions_) {
    if (p.store->AnyDue(now)) p.store->PurgeExpired(now);
  }
}

std::size_t WindowStore::NumEntries() const {
  std::size_t n = 0;
  for (const auto& [_, p] : partitions_) n += p.store->NumEntries();
  return n;
}

std::size_t WindowStore::StateBytes() const {
  std::size_t n = 0;
  for (const auto& [_, p] : partitions_) n += p.store->StateBytes();
  return n;
}

void WindowStore::SerializeState(PayloadOut* out) const {
  std::vector<const std::string*> signatures;
  signatures.reserve(partitions_.size());
  for (const auto& [sig, p] : partitions_) {
    (void)p;
    signatures.push_back(&sig);
  }
  std::sort(signatures.begin(), signatures.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  PutU32(out, static_cast<std::uint32_t>(signatures.size()));
  for (const std::string* sig : signatures) {
    PutStr(out, *sig);
    out->BeginBlob();
    partitions_.at(*sig).store->SerializeState(out);
    out->EndBlob();
  }
}

Status WindowStore::DeserializeState(ByteReader* in) {
  const std::uint32_t n = in->U32();
  if (in->ok() && n != partitions_.size()) {
    return in->Fail("window partition count mismatch (checkpoint was taken "
                    "with a different query set): stored " +
                    std::to_string(n) + ", rebuilt " +
                    std::to_string(partitions_.size()));
  }
  for (std::uint32_t i = 0; i < n && in->ok(); ++i) {
    const std::string sig = in->Str();
    const std::string_view blob = in->StrView();
    if (!in->ok()) break;
    auto it = partitions_.find(sig);
    if (it == partitions_.end()) {
      return in->Fail("unknown window partition signature '" + sig +
                      "' (checkpoint was taken with a different query set)");
    }
    ByteReader sub(blob, in->context() + ": window partition '" + sig + "'");
    SGQ_RETURN_NOT_OK(it->second.store->DeserializeState(&sub));
    SGQ_RETURN_NOT_OK(sub.ExpectEnd());
  }
  return in->status();
}

}  // namespace sgq

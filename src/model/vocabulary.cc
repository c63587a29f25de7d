#include "model/vocabulary.h"

#include <mutex>
#include <tuple>

namespace sgq {

namespace {
const std::string kInvalidName = "<invalid>";
}  // namespace

void Vocabulary::CopyFrom(const Vocabulary& other) {
  // Snapshot the source before locking the destination: holding both
  // locks at once would deadlock two concurrent opposite-direction
  // copies (ABBA).
  auto snapshot = [&] {
    std::shared_lock<std::shared_mutex> read(other.mu_);
    return std::make_tuple(other.label_ids_, other.label_names_,
                           other.label_is_input_, other.vertex_ids_,
                           other.vertex_names_, other.max_vertices_);
  }();
  std::unique_lock<std::shared_mutex> write(mu_);
  std::tie(label_ids_, label_names_, label_is_input_, vertex_ids_,
           vertex_names_, max_vertices_) = std::move(snapshot);
}

Result<LabelId> Vocabulary::InternLabel(std::string_view name,
                                        bool is_input) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = label_ids_.find(std::string(name));
  if (it != label_ids_.end()) {
    if (label_is_input_[it->second] != is_input) {
      return Status::AlreadyExists(
          "label '" + std::string(name) + "' already interned as " +
          (label_is_input_[it->second] ? "input" : "derived"));
    }
    return it->second;
  }
  const LabelId id = static_cast<LabelId>(label_names_.size());
  label_ids_.emplace(std::string(name), id);
  label_names_.emplace_back(name);
  label_is_input_.push_back(is_input);
  return id;
}

Result<LabelId> Vocabulary::InternInputLabel(std::string_view name) {
  return InternLabel(name, /*is_input=*/true);
}

Result<LabelId> Vocabulary::InternDerivedLabel(std::string_view name) {
  return InternLabel(name, /*is_input=*/false);
}

Result<LabelId> Vocabulary::FindLabel(std::string_view name) const {
  const LabelId id = LookupLabel(name);
  if (id == kInvalidLabel) {
    return Status::NotFound("unknown label '" + std::string(name) + "'");
  }
  return id;
}

LabelId Vocabulary::LookupLabel(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = label_ids_.find(std::string(name));
  return it == label_ids_.end() ? kInvalidLabel : it->second;
}

bool Vocabulary::IsInputLabel(LabelId label) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return label < label_is_input_.size() && label_is_input_[label];
}

const std::string& Vocabulary::LabelName(LabelId label) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (label >= label_names_.size()) return kInvalidName;
  return label_names_[label];
}

Result<VertexId> Vocabulary::InternVertex(std::string_view name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = vertex_ids_.find(std::string(name));
  if (it != vertex_ids_.end()) return it->second;
  if (vertex_names_.size() >= max_vertices_) {
    return Status::InvalidArgument(
        "vertex '" + std::string(name) +
        "' refused: the vocabulary already holds its limit of " +
        std::to_string(max_vertices_) + " vertex names (ids are 32-bit)");
  }
  const VertexId id = static_cast<VertexId>(vertex_names_.size());
  vertex_ids_.emplace(std::string(name), id);
  vertex_names_.emplace_back(name);
  return id;
}

Result<VertexId> Vocabulary::FindVertex(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = vertex_ids_.find(std::string(name));
  if (it == vertex_ids_.end()) {
    return Status::NotFound("unknown vertex '" + std::string(name) + "'");
  }
  return it->second;
}

const std::string& Vocabulary::VertexName(VertexId v) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (v >= vertex_names_.size()) return kInvalidName;
  return vertex_names_[v];
}

}  // namespace sgq

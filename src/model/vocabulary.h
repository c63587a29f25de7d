// Vocabulary: interning of vertex names and edge/path labels.
//
// The paper partitions Sigma into labels reserved for input graph edges
// (phi(E_I), the Datalog EDB) and labels minted for derived edges and paths
// (the IDB). The Vocabulary tracks that partition so the planner can reject
// rules whose head reuses an input label (Def. 13).

#ifndef SGQ_MODEL_VOCABULARY_H_
#define SGQ_MODEL_VOCABULARY_H_

#include <cstddef>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "model/types.h"

namespace sgq {

/// \brief Bidirectional string <-> id mapping for labels and vertices.
///
/// Thread-safe: lookups take a shared lock, interning an exclusive one, so
/// sharded workers (runtime/executor.h) may resolve names while a driver
/// thread interns new ones. Name storage is a deque — references returned
/// by LabelName/VertexName stay valid across concurrent interning (deque
/// growth never relocates elements, and interning never removes names) —
/// but NOT across copy-assignment, which replaces the storage wholesale:
/// do not assign over a vocabulary other threads are reading.
class Vocabulary {
 public:
  /// \brief Most distinct vertex names one vocabulary holds: the 32-bit
  /// id space minus kInvalidVertex (ids 0 .. 2^32 - 2).
  static constexpr std::size_t kMaxVertices = kInvalidVertex;

  Vocabulary() = default;
  Vocabulary(const Vocabulary& other) { CopyFrom(other); }
  Vocabulary& operator=(const Vocabulary& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  /// \brief Interns `name` as an *input* (EDB) label, or returns the
  /// existing id. Fails if `name` was already interned as derived.
  Result<LabelId> InternInputLabel(std::string_view name);

  /// \brief Interns `name` as a *derived* (IDB) label, or returns the
  /// existing id. Fails if `name` was already interned as an input label.
  Result<LabelId> InternDerivedLabel(std::string_view name);

  /// \brief Looks up an existing label id.
  Result<LabelId> FindLabel(std::string_view name) const;

  /// \brief True when `label` belongs to phi(E_I), the input alphabet.
  bool IsInputLabel(LabelId label) const;

  /// \brief Name of `label`; "<invalid>" when out of range.
  const std::string& LabelName(LabelId label) const;

  std::size_t NumLabels() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return label_names_.size();
  }

  /// \brief Interns a vertex name (all vertices share one id space), or
  /// returns the existing id. Fails (InvalidArgument) when `name` is new
  /// and the vocabulary already holds kMaxVertices names, so no id is ever
  /// kInvalidVertex or wrapped.
  Result<VertexId> InternVertex(std::string_view name);

  /// \brief Looks up an existing vertex id.
  Result<VertexId> FindVertex(std::string_view name) const;

  const std::string& VertexName(VertexId v) const;

  std::size_t NumVertices() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return vertex_names_.size();
  }

 private:
  Result<LabelId> InternLabel(std::string_view name, bool is_input);
  void CopyFrom(const Vocabulary& other);

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, LabelId> label_ids_;
  std::deque<std::string> label_names_;
  std::vector<bool> label_is_input_;

  std::unordered_map<std::string, VertexId> vertex_ids_;
  std::deque<std::string> vertex_names_;

 protected:
  /// Most vertex names InternVertex accepts: kMaxVertices. A test subclass
  /// lowers it to reach the refusal without interning 2^32 - 1 names.
  std::size_t max_vertices_ = kMaxVertices;
};

}  // namespace sgq

#endif  // SGQ_MODEL_VOCABULARY_H_

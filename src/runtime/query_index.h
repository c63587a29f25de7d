// Label-discrimination query index over the standing-query population
// (ROADMAP "sublinear query indexing"; Zervakis et al., "Efficient
// Continuous Multi-Query Processing over Graph Streams", PAPERS.md).
//
// With K registered queries the executor hosts O(K) source operators.
// Source dispatch must not pay O(K) per edge: the index maps each stream
// label to the posting list of source operators whose *admission
// predicate* (algebra/translate.h PlanAdmission) can match it, so an edge
// only reaches the sources actually interested in its label. Sources
// without a label constraint (wildcard WSCANs) live in an always-on
// bucket appended to every lookup.
//
// Layout: a robin-hood FlatMap keyed by label, values inline-small
// SmallVecs — the common case (one or two subscribers per label, the
// mostly-disjoint subscription regime) resolves without a second
// indirection. The index is built incrementally: Engine::AddQuery compiles
// sources one at a time and each RegisterSource call appends its posting,
// so queries added mid-topology-build are indexed immediately.
//
// Ordering contract (determinism): postings of one label keep their
// registration order, and every lookup visits label postings first, then
// the wildcard bucket in its registration order. The executor delivers
// an edge to its sources in exactly this order, so the call sequence is
// a pure function of the registration history (byte-identical results at
// workers=1/batch=1, and after a removal identical to a never-added run;
// DESIGN.md §3.1).

#ifndef SGQ_RUNTIME_QUERY_INDEX_H_
#define SGQ_RUNTIME_QUERY_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/flat_map.h"
#include "common/small_vec.h"
#include "model/types.h"
#include "runtime/channel.h"

namespace sgq {

/// \brief label -> posting-list discrimination index plus the always-on
/// wildcard bucket. A posting is the id of one interested source
/// operator. Not thread-safe for writes; the executor only mutates it
/// during topology construction and reads it single-threaded from the
/// dispatch loop.
class QueryIndex {
 public:
  using PostingList = SmallVec<OpId, 2>;

  /// \brief Appends a posting for `label` (registration order preserved).
  void Add(LabelId label, OpId op) {
    postings_[label].push_back(op);
    ++num_postings_;
  }

  /// \brief Appends `op` to the always-on bucket: it admits every label.
  void AddWildcard(OpId op) { wildcard_.push_back(op); }

  /// \brief Removes every posting of `op` under `label` (live query
  /// deregistration, DESIGN.md §10). Surviving postings keep their
  /// registration order, so indexed dispatch stays byte-identical to a
  /// never-added run. Erases the label's list entirely when it empties.
  void Remove(LabelId label, OpId op) {
    auto it = postings_.find(label);
    if (it == postings_.end()) return;
    PostingList& list = it->second;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i] == op) {
        --num_postings_;
        continue;
      }
      list[kept++] = list[i];
    }
    list.erase_range(kept, list.size());
    if (list.size() == 0) postings_.erase(label);
  }

  /// \brief Removes `op` from the always-on bucket (order preserved).
  void RemoveWildcard(OpId op) {
    wildcard_.erase(std::remove(wildcard_.begin(), wildcard_.end(), op),
                    wildcard_.end());
  }

  /// \brief Postings whose admission predicate names `label` exactly;
  /// nullptr when no registered query constrains to it. Wildcard sources
  /// are NOT included — callers append wildcard() to every match.
  const PostingList* Find(LabelId label) const {
    auto it = postings_.find(label);
    return it == postings_.end() ? nullptr : &it->second;
  }

  /// \brief The always-on bucket, in registration order.
  const std::vector<OpId>& wildcard() const { return wildcard_; }

  /// \name Introspection (tests, DescribeTopology)
  /// @{
  std::size_t NumLabels() const { return postings_.size(); }
  std::size_t NumPostings() const { return num_postings_; }
  std::size_t NumWildcard() const { return wildcard_.size(); }

  /// \brief All indexed labels (hash order; sort before comparing).
  std::vector<LabelId> Labels() const {
    std::vector<LabelId> out;
    out.reserve(postings_.size());
    for (const auto& [label, list] : postings_) out.push_back(label);
    return out;
  }
  /// @}

 private:
  FlatMap<LabelId, PostingList> postings_;
  std::vector<OpId> wildcard_;
  std::size_t num_postings_ = 0;
};

}  // namespace sgq

#endif  // SGQ_RUNTIME_QUERY_INDEX_H_

#include "query/oracle.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/logging.h"
#include "query/normalize.h"

namespace sgq {

namespace {

/// Relation store with per-column probe indexes.
class RelationStore {
 public:
  void Insert(LabelId label, VertexId src, VertexId trg) {
    auto& rel = relations_[label];
    if (!rel.pairs.insert({src, trg}).second) return;
    rel.by_src[src].push_back(trg);
    rel.by_trg[trg].push_back(src);
  }

  bool Has(LabelId label) const { return relations_.count(label) > 0; }

  const VertexPairSet& Pairs(LabelId label) const {
    static const VertexPairSet kEmpty;
    auto it = relations_.find(label);
    return it == relations_.end() ? kEmpty : it->second.pairs;
  }

  const std::vector<VertexId>& TargetsOf(LabelId label, VertexId src) const {
    static const std::vector<VertexId> kEmpty;
    auto it = relations_.find(label);
    if (it == relations_.end()) return kEmpty;
    auto jt = it->second.by_src.find(src);
    return jt == it->second.by_src.end() ? kEmpty : jt->second;
  }

  const std::vector<VertexId>& SourcesOf(LabelId label, VertexId trg) const {
    static const std::vector<VertexId> kEmpty;
    auto it = relations_.find(label);
    if (it == relations_.end()) return kEmpty;
    auto jt = it->second.by_trg.find(trg);
    return jt == it->second.by_trg.end() ? kEmpty : jt->second;
  }

  bool Contains(LabelId label, VertexId src, VertexId trg) const {
    auto it = relations_.find(label);
    return it != relations_.end() && it->second.pairs.count({src, trg}) > 0;
  }

 private:
  struct Relation {
    VertexPairSet pairs;
    std::unordered_map<VertexId, std::vector<VertexId>> by_src;
    std::unordered_map<VertexId, std::vector<VertexId>> by_trg;
  };
  std::unordered_map<LabelId, Relation> relations_;
};

/// One rule's bindings as a flat table: a row is `width` consecutive
/// slots, one per rule variable. A slot holds kInvalidVertex while its
/// variable is unbound and again once no later atom and not the head
/// reads it, so rows that agree on the live variables are equal.
class BindingTable {
 public:
  explicit BindingTable(std::size_t width) : width_(width) {}

  std::size_t rows() const { return cells_.size() / width_; }
  const VertexId* row(std::size_t i) const { return &cells_[i * width_]; }

  /// Appends a copy of `from` (a row of another table) and returns it.
  VertexId* Append(const VertexId* from) {
    cells_.insert(cells_.end(), from, from + width_);
    return &cells_[cells_.size() - width_];
  }

  /// Sorts the rows and drops duplicates.
  void Dedup() {
    std::vector<std::size_t> order(rows());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return std::lexicographical_compare(row(a), row(a) + width_, row(b),
                                          row(b) + width_);
    });
    std::vector<VertexId> kept;
    for (std::size_t i : order) {
      if (!kept.empty() &&
          std::equal(row(i), row(i) + width_, kept.end() - width_)) {
        continue;
      }
      kept.insert(kept.end(), row(i), row(i) + width_);
    }
    cells_ = std::move(kept);
  }

 private:
  std::size_t width_;
  std::vector<VertexId> cells_;
};

/// Evaluates one rule left to right over a BindingTable. After each atom
/// the slots no later atom and not the head reads are cleared and
/// duplicate rows dropped, so the table holds the distinct bindings of
/// the live variables, never one row per body match.
VertexPairSet EvalRule(const RelationStore& store, const Rule& rule) {
  std::vector<std::string> vars;
  const auto slot_of = [&vars](const std::string& var) {
    const auto it = std::find(vars.begin(), vars.end(), var);
    if (it != vars.end()) return static_cast<std::size_t>(it - vars.begin());
    vars.push_back(var);
    return vars.size() - 1;
  };
  struct Step {
    LabelId label = kInvalidLabel;
    std::size_t src = 0, trg = 0;
    bool src_bound = false, trg_bound = false;  // by an earlier atom
    std::vector<std::size_t> dead;  // slots last read by this atom
  };
  std::vector<Step> steps;
  std::vector<std::size_t> last_read;  // per slot: index of the last atom
  for (const BodyAtom& atom : rule.body) {
    const std::size_t known = vars.size();
    Step step;
    step.label = atom.IsClosure() ? atom.alias : atom.label;
    step.src = slot_of(atom.src);
    step.trg = slot_of(atom.trg);
    step.src_bound = step.src < known;
    step.trg_bound = step.trg < known;
    last_read.resize(vars.size());
    last_read[step.src] = last_read[step.trg] = steps.size();
    steps.push_back(std::move(step));
  }
  const std::size_t head_src = slot_of(rule.head_src);
  const std::size_t head_trg = slot_of(rule.head_trg);
  SGQ_CHECK_EQ(vars.size(), last_read.size());  // Validate: head in body
  last_read[head_src] = last_read[head_trg] = steps.size();
  for (std::size_t v = 0; v < vars.size(); ++v) {
    if (last_read[v] < steps.size()) steps[last_read[v]].dead.push_back(v);
  }

  // Compact whenever the rows appended since the last dedup could double
  // the table, so it never holds more than about twice its distinct rows.
  constexpr std::size_t kMinCompactRows = std::size_t{1} << 16;
  const std::vector<VertexId> unbound(vars.size(), kInvalidVertex);
  BindingTable table(vars.size());
  table.Append(unbound.data());
  for (const Step& step : steps) {
    BindingTable next(vars.size());
    std::size_t compact_at = kMinCompactRows;
    const auto emit = [&](const VertexId* from, VertexId s, VertexId t) {
      VertexId* row = next.Append(from);
      row[step.src] = s;
      row[step.trg] = t;
      for (std::size_t v : step.dead) row[v] = kInvalidVertex;
    };
    for (std::size_t i = 0; i < table.rows(); ++i) {
      const VertexId* from = table.row(i);
      if (step.src_bound && step.trg_bound) {
        if (store.Contains(step.label, from[step.src], from[step.trg])) {
          emit(from, from[step.src], from[step.trg]);
        }
      } else if (step.src_bound) {
        for (VertexId t : store.TargetsOf(step.label, from[step.src])) {
          emit(from, from[step.src], t);
        }
      } else if (step.trg_bound) {
        for (VertexId s : store.SourcesOf(step.label, from[step.trg])) {
          emit(from, s, from[step.trg]);
        }
      } else {
        for (const auto& [s, t] : store.Pairs(step.label)) {
          if (step.src == step.trg && s != t) continue;
          emit(from, s, t);
        }
      }
      if (next.rows() >= compact_at) {
        next.Dedup();
        compact_at = std::max(kMinCompactRows, 2 * next.rows());
      }
    }
    next.Dedup();
    if (next.rows() == 0) return {};
    table = std::move(next);
  }
  VertexPairSet out;
  for (std::size_t i = 0; i < table.rows(); ++i) {
    out.insert({table.row(i)[head_src], table.row(i)[head_trg]});
  }
  return out;
}

}  // namespace

VertexPairSet TransitiveClosure(const VertexPairSet& relation) {
  std::unordered_map<VertexId, std::vector<VertexId>> adj;
  std::unordered_set<VertexId> sources;
  for (const auto& [s, t] : relation) {
    adj[s].push_back(t);
    sources.insert(s);
  }
  VertexPairSet out;
  for (VertexId src : sources) {
    std::unordered_set<VertexId> visited;
    std::queue<VertexId> q;
    q.push(src);
    // BFS over >= 1 step; src itself is reported only if reachable via a
    // cycle.
    while (!q.empty()) {
      VertexId u = q.front();
      q.pop();
      auto it = adj.find(u);
      if (it == adj.end()) continue;
      for (VertexId v : it->second) {
        if (visited.insert(v).second) {
          out.insert({src, v});
          q.push(v);
        }
      }
    }
  }
  return out;
}

Result<VertexPairSet> EvaluateOneTime(const RegularQuery& rq,
                                      const SnapshotGraph& graph,
                                      const Vocabulary& vocab) {
  const RegularQuery normalized = ExpandStarClosures(rq);
  std::vector<LabelId> topo;
  SGQ_RETURN_NOT_OK(normalized.Validate(vocab, &topo));

  RelationStore store;
  // Seed EDB relations (and any derived-labeled snapshot tuples, which makes
  // query composition testable: the output of one query feeds another).
  for (const EdgeRef& e : graph.edges()) {
    store.Insert(e.label, e.src, e.trg);
  }
  for (const SnapshotPath& p : graph.paths()) {
    store.Insert(p.label, p.src, p.trg);
  }

  // Collect closure alias definitions: alias -> underlying label.
  std::unordered_map<LabelId, LabelId> alias_to_base;
  for (const Rule& r : normalized.rules()) {
    for (const BodyAtom& a : r.body) {
      if (a.IsClosure()) {
        SGQ_CHECK(a.closure == ClosureKind::kPlus);
        alias_to_base[a.alias] = a.label;
      }
    }
  }

  for (LabelId label : topo) {
    auto alias_it = alias_to_base.find(label);
    if (alias_it != alias_to_base.end()) {
      for (const auto& [s, t] :
           TransitiveClosure(store.Pairs(alias_it->second))) {
        store.Insert(label, s, t);
      }
      continue;
    }
    for (const Rule* rule : normalized.RulesFor(label)) {
      for (const auto& [s, t] : EvalRule(store, *rule)) {
        store.Insert(label, s, t);
      }
    }
  }
  return store.Pairs(normalized.answer());
}

VertexPairSet EvaluateRpq(const SnapshotGraph& graph, const Dfa& dfa) {
  VertexPairSet out;
  const std::vector<LabelId> alphabet = dfa.Alphabet();
  for (VertexId src : graph.Vertices()) {
    // BFS over the product of the graph and the DFA.
    std::unordered_set<std::pair<VertexId, StateId>, PairHash> visited;
    std::queue<std::pair<VertexId, StateId>> q;
    q.push({src, dfa.start()});
    visited.insert({src, dfa.start()});
    while (!q.empty()) {
      auto [v, s] = q.front();
      q.pop();
      for (LabelId l : alphabet) {
        const StateId next = dfa.Next(s, l);
        if (next == Dfa::kNoState) continue;
        for (VertexId w : graph.OutNeighbors(v, l)) {
          // Reaching an accepting state via >= 1 edge yields a result.
          if (dfa.IsAccepting(next)) out.insert({src, w});
          if (visited.insert({w, next}).second) q.push({w, next});
        }
      }
    }
  }
  return out;
}

bool IsValidWitnessPath(const SnapshotGraph& graph, VertexId src,
                        VertexId trg, const Payload& path) {
  if (path.empty()) return false;
  if (path.front().src != src || path.back().trg != trg) return false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (path[i].trg != path[i + 1].src) return false;
  }
  for (const EdgeRef& e : path) {
    if (!graph.HasEdge(e)) return false;
  }
  return true;
}

}  // namespace sgq

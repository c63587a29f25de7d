#include "baseline/engine.h"

#include <algorithm>
#include <queue>

#include "common/logging.h"
#include "query/normalize.h"

namespace sgq {
namespace baseline {

namespace {
using Binding = std::unordered_map<std::string, VertexId>;
}  // namespace

Result<std::unique_ptr<DifferentialEngine>> DifferentialEngine::Create(
    const StreamingGraphQuery& query, const Vocabulary& vocab) {
  SGQ_RETURN_NOT_OK(query.rq.Validate(vocab));
  std::unique_ptr<DifferentialEngine> engine(new DifferentialEngine());
  engine->rq_ = ExpandStarClosures(query.rq);
  SGQ_RETURN_NOT_OK(engine->rq_.Validate(vocab, &engine->topo_order_));
  engine->vocab_ = &vocab;
  engine->window_ = query.window;
  engine->per_label_windows_ = query.per_label_windows;

  for (const Rule& r : engine->rq_.rules()) {
    for (const BodyAtom& a : r.body) {
      if (a.IsClosure()) {
        SGQ_CHECK(a.closure == ClosureKind::kPlus);
        engine->alias_to_base_[a.alias] = a.label;
      }
      if (vocab.IsInputLabel(a.label)) {
        engine->input_labels_.insert(a.label);
      }
    }
  }
  Timestamp slide = kMaxTimestamp;
  for (LabelId l : engine->input_labels_) {
    const WindowSpec& w = query.WindowFor(l);
    slide = std::min(slide, w.slide);
  }
  engine->slide_ = slide == kMaxTimestamp ? 1 : slide;

  // Pre-create every relation so that references taken during epoch
  // processing are never invalidated by rehashing.
  for (LabelId l : engine->input_labels_) engine->relations_[l];
  for (const Rule& r : engine->rq_.rules()) {
    engine->relations_[r.head];
    engine->supports_[r.head];
    for (const BodyAtom& a : r.body) {
      engine->relations_[a.label];
      if (a.IsClosure()) engine->relations_[a.alias];
    }
  }
  return engine;
}

void DifferentialEngine::Push(const Sge& sge) {
  AdvanceTo(sge.t);
  ++edges_pushed_;
  if (input_labels_.count(sge.label) == 0) return;
  ++edges_processed_;
  pending_.push_back(sge);
}

void DifferentialEngine::PushAll(const InputStream& stream) {
  for (const Sge& sge : stream) Push(sge);
  if (!stream.empty()) AdvanceTo(stream.back().t + 1);
}

void DifferentialEngine::AdvanceTo(Timestamp t) {
  if (!started_) {
    next_boundary_ = (t / slide_) * slide_ + slide_;
    started_ = true;
    return;
  }
  while (next_boundary_ <= t) {
    ProcessEpoch(next_boundary_);
    next_boundary_ += slide_;
  }
}

void DifferentialEngine::ProcessEpoch(Timestamp boundary) {
  Stopwatch timer;

  // 1. Window maintenance: expirations first, then the batched arrivals.
  for (LabelId l : input_labels_) {
    auto& content = window_content_[l];
    VersionedRelation& rel = RelationOf(l);
    for (auto it = content.begin(); it != content.end();) {
      if (it->second <= boundary) {
        rel.Apply(it->first.first, it->first.second, -1);
        it = content.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const Sge& sge : pending_) {
    auto& content = window_content_[sge.label];
    VersionedRelation& rel = RelationOf(sge.label);
    const auto key = std::make_pair(sge.src, sge.trg);
    if (sge.is_deletion) {
      if (content.erase(key) > 0) rel.Apply(sge.src, sge.trg, -1);
      continue;
    }
    WindowSpec w = window_;
    auto wit = per_label_windows_.find(sge.label);
    if (wit != per_label_windows_.end()) w = wit->second;
    const Timestamp exp = w.ExpiryFor(sge.t);
    if (exp <= boundary) continue;  // expired within its own epoch
    auto [it, inserted] = content.emplace(key, exp);
    if (inserted) {
      rel.Apply(sge.src, sge.trg, +1);
    } else {
      it->second = std::max(it->second, exp);  // coalesce (Def. 11)
    }
  }
  pending_.clear();

  // 2. Propagate deltas through the dataflow in dependency order.
  for (LabelId label : topo_order_) {
    auto alias_it = alias_to_base_.find(label);
    if (alias_it != alias_to_base_.end()) {
      MaintainClosure(label, alias_it->second);
      continue;
    }
    for (const Rule* rule : rq_.RulesFor(label)) {
      EvaluateRuleDelta(*rule);
    }
  }

  // 3. Close the epoch.
  for (const SignedPair& d : RelationOf(rq_.answer()).delta()) {
    if (d.sign > 0) ++answers_emitted_;
  }
  for (auto& [label, rel] : relations_) {
    (void)label;
    rel.Commit();
  }
  epoch_latencies_.Record(timer.ElapsedSeconds());
}

void DifferentialEngine::EvaluateRuleDelta(const Rule& rule) {
  const std::size_t n = rule.body.size();
  auto effective = [&](const BodyAtom& a) {
    return a.IsClosure() ? a.alias : a.label;
  };

  auto& head_support = supports_[rule.head];
  VersionedRelation& head_rel = RelationOf(rule.head);

  for (std::size_t i = 0; i < n; ++i) {
    const BodyAtom& pivot = rule.body[i];
    // Copy: the head relation may appear in its own delta only for
    // different labels (non-recursive), but RelationOf can rehash the map.
    const std::vector<SignedPair> pivot_delta =
        RelationOf(effective(pivot)).delta();
    if (pivot_delta.empty()) continue;

    for (const SignedPair& d : pivot_delta) {
      if (pivot.src == pivot.trg && d.src != d.trg) continue;
      Binding seed;
      seed[pivot.src] = d.src;
      seed[pivot.trg] = d.trg;
      std::vector<Binding> bindings = {std::move(seed)};

      // Delta rule: atoms before the pivot read the NEW version, atoms
      // after it the OLD version (each delta-derivation counted once).
      for (std::size_t j = 0; j < n && !bindings.empty(); ++j) {
        if (j == i) continue;
        const BodyAtom& atom = rule.body[j];
        const VersionedRelation& vrel = RelationOf(effective(atom));
        const RelationVersion& rel =
            j < i ? vrel.new_version() : vrel.old_version();
        std::vector<Binding> next;
        for (const Binding& b : bindings) {
          auto s_it = b.find(atom.src);
          auto t_it = b.find(atom.trg);
          const bool s_bound = s_it != b.end();
          const bool t_bound = t_it != b.end();
          if (s_bound && t_bound) {
            if (rel.Contains(s_it->second, t_it->second)) next.push_back(b);
          } else if (s_bound) {
            for (VertexId v : rel.TargetsOf(s_it->second)) {
              if (atom.src == atom.trg && v != s_it->second) continue;
              Binding nb = b;
              nb[atom.trg] = v;
              next.push_back(std::move(nb));
            }
          } else if (t_bound) {
            for (VertexId u : rel.SourcesOf(t_it->second)) {
              Binding nb = b;
              nb[atom.src] = u;
              next.push_back(std::move(nb));
            }
          } else {
            for (const auto& [u, v] : rel.Pairs()) {
              if (atom.src == atom.trg && u != v) continue;
              Binding nb = b;
              nb[atom.src] = u;
              nb[atom.trg] = v;
              next.push_back(std::move(nb));
            }
          }
        }
        bindings = std::move(next);
      }

      // Counting IVM: a head tuple exists while its support is positive.
      for (const Binding& b : bindings) {
        const auto head_pair =
            std::make_pair(b.at(rule.head_src), b.at(rule.head_trg));
        long& support = head_support[head_pair];
        const long before = support;
        support += d.sign;
        if (before <= 0 && support > 0) {
          head_rel.Apply(head_pair.first, head_pair.second, +1);
        } else if (before > 0 && support <= 0) {
          head_rel.Apply(head_pair.first, head_pair.second, -1);
        }
      }
    }
  }
}

void DifferentialEngine::MaintainClosure(LabelId alias, LabelId base) {
  VersionedRelation& base_rel = RelationOf(base);
  VersionedRelation& tc = RelationOf(alias);
  if (!base_rel.HasDelta()) return;

  // DRed-flavoured maintenance: every source that (in the old closure)
  // reached the source endpoint of a changed base edge may gain or lose
  // tuples; recompute those rows from scratch over the new base relation.
  std::set<VertexId> affected;
  for (const SignedPair& d : base_rel.delta()) {
    affected.insert(d.src);
    for (VertexId x : tc.old_version().SourcesOf(d.src)) {
      affected.insert(x);
    }
  }

  const RelationVersion& adj = base_rel.new_version();
  for (VertexId x : affected) {
    // BFS (semi-naive re-derivation) for the row of x.
    std::set<VertexId> reach;
    std::queue<VertexId> q;
    q.push(x);
    while (!q.empty()) {
      VertexId u = q.front();
      q.pop();
      for (VertexId v : adj.TargetsOf(u)) {
        if (reach.insert(v).second) q.push(v);
      }
    }
    std::set<VertexId> current;
    for (VertexId y : tc.new_version().TargetsOf(x)) current.insert(y);
    for (VertexId y : reach) {
      if (current.count(y) == 0) tc.Apply(x, y, +1);
    }
    for (VertexId y : current) {
      if (reach.count(y) == 0) tc.Apply(x, y, -1);
    }
  }
}

VertexPairSet DifferentialEngine::Answers() const {
  VertexPairSet out;
  auto it = relations_.find(rq_.answer());
  if (it == relations_.end()) return out;
  for (const auto& [s, t] : it->second.new_version().Pairs()) {
    out.insert({s, t});
  }
  return out;
}

}  // namespace baseline
}  // namespace sgq

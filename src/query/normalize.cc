#include "query/normalize.h"

#include <string>
#include <vector>

namespace sgq {

namespace {

/// Replaces variable `from` with `to` in every atom and the head.
void SubstituteVar(Rule* rule, const std::string& from,
                   const std::string& to) {
  if (rule->head_src == from) rule->head_src = to;
  if (rule->head_trg == from) rule->head_trg = to;
  for (BodyAtom& a : rule->body) {
    if (a.src == from) a.src = to;
    if (a.trg == from) a.trg = to;
  }
}

/// Expands star atoms of `rule` starting at body index `idx`, appending all
/// resulting star-free variants to `out`.
void ExpandRule(Rule rule, std::size_t idx, std::vector<Rule>* out) {
  for (; idx < rule.body.size(); ++idx) {
    if (rule.body[idx].closure == ClosureKind::kStar) break;
  }
  if (idx == rule.body.size()) {
    if (!rule.body.empty()) out->push_back(std::move(rule));
    return;
  }
  // Variant 1: at least one step -> plus-closure.
  {
    Rule taken = rule;
    taken.body[idx].closure = ClosureKind::kPlus;
    ExpandRule(std::move(taken), idx + 1, out);
  }
  // Variant 2: empty path -> unify endpoints, drop the atom.
  {
    Rule empty = rule;
    const std::string src = empty.body[idx].src;
    const std::string trg = empty.body[idx].trg;
    empty.body.erase(empty.body.begin() + static_cast<std::ptrdiff_t>(idx));
    if (src != trg) SubstituteVar(&empty, trg, src);
    ExpandRule(std::move(empty), idx, out);
  }
}

}  // namespace

bool HasStarClosures(const RegularQuery& rq) {
  for (const Rule& rule : rq.rules()) {
    for (const BodyAtom& a : rule.body) {
      if (a.closure == ClosureKind::kStar) return true;
    }
  }
  return false;
}

RegularQuery ExpandStarClosures(const RegularQuery& rq) {
  RegularQuery out;
  out.SetAnswer(rq.answer());
  for (const Rule& rule : rq.rules()) {
    std::vector<Rule> expanded;
    ExpandRule(rule, 0, &expanded);
    for (Rule& r : expanded) out.AddRule(std::move(r));
  }
  return out;
}

}  // namespace sgq

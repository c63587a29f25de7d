#include "query/rq.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>

#include "common/small_vec.h"
#include "common/string_util.h"

namespace sgq {

std::vector<const Rule*> RegularQuery::RulesFor(LabelId label) const {
  std::vector<const Rule*> out;
  for (const Rule& r : rules_) {
    if (r.head == label) out.push_back(&r);
  }
  return out;
}

Result<std::vector<LabelId>> RegularQuery::TopologicalOrder() const {
  // The dependency graph in compressed form over small vectors: its nodes
  // are the derived labels (rule heads and closure aliases), sorted, and
  // node i reads reads[begin[i] .. begin[i + 1]) in rule and atom order —
  // a head reads each atom's label (a closure atom's alias), an alias its
  // base label.
  SmallVec<LabelId, 8> nodes;
  for (const Rule& r : rules_) {
    nodes.push_back(r.head);
    for (const BodyAtom& a : r.body) {
      if (a.IsClosure()) nodes.push_back(a.alias);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase_range(
      static_cast<std::size_t>(std::unique(nodes.begin(), nodes.end()) -
                               nodes.begin()),
      nodes.size());
  static constexpr std::size_t kLeaf = ~std::size_t{0};
  auto index = [&nodes](LabelId label) {
    const LabelId* it = std::lower_bound(nodes.begin(), nodes.end(), label);
    return it != nodes.end() && *it == label
               ? static_cast<std::size_t>(it - nodes.begin())
               : kLeaf;
  };
  SmallVec<std::uint32_t, 9> begin(nodes.size() + 1, 0);
  for (const Rule& r : rules_) {
    begin[index(r.head) + 1] += static_cast<std::uint32_t>(r.body.size());
    for (const BodyAtom& a : r.body) {
      if (a.IsClosure()) ++begin[index(a.alias) + 1];
    }
  }
  for (std::size_t i = 1; i < begin.size(); ++i) begin[i] += begin[i - 1];
  SmallVec<LabelId, 8> reads(begin[nodes.size()], kInvalidLabel);
  SmallVec<std::uint32_t, 8> fill(nodes.size(), 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) fill[i] = begin[i];
  for (const Rule& r : rules_) {
    const std::size_t head = index(r.head);
    for (const BodyAtom& a : r.body) {
      if (a.IsClosure()) {
        reads[fill[head]++] = a.alias;
        reads[fill[index(a.alias)]++] = a.label;
      } else {
        reads[fill[head]++] = a.label;
      }
    }
  }

  // Iterative DFS from every node in ascending label order; post-order
  // emission puts dependencies first.
  struct Frame {
    std::uint32_t node;
    std::uint32_t next;  ///< position in `reads` of the next child
  };
  SmallVec<std::uint8_t, 8> mark(nodes.size(), 0);  // 0 new, 1 open, 2 done
  SmallVec<Frame, 8> stack;
  std::vector<LabelId> order;
  order.reserve(nodes.size());
  for (std::uint32_t root = 0; root < nodes.size(); ++root) {
    if (mark[root] == 2) continue;
    mark[root] = 1;
    stack.push_back({root, begin[root]});
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (top.next < begin[top.node + 1]) {
        const LabelId child = reads[top.next++];
        const std::size_t c = index(child);
        if (c == kLeaf) continue;  // EDB leaf
        if (mark[c] == 1) {
          return Status::InvalidArgument(
              "recursive dependency through predicate id " +
              std::to_string(child) + " (RQ must be non-recursive)");
        }
        if (mark[c] == 0) {
          mark[c] = 1;
          stack.push_back({static_cast<std::uint32_t>(c), begin[c]});
        }
      } else {
        mark[top.node] = 2;
        order.push_back(nodes[top.node]);
        stack.erase_range(stack.size() - 1, stack.size());
      }
    }
  }
  return order;
}

Status RegularQuery::Validate(const Vocabulary& vocab,
                              std::vector<LabelId>* topo_order) const {
  if (rules_.empty()) return Status::InvalidArgument("RQ has no rules");
  if (answer_ == kInvalidLabel) {
    return Status::InvalidArgument("RQ has no Answer predicate");
  }
  SmallVec<LabelId, 8> heads;
  for (const Rule& r : rules_) heads.push_back(r.head);
  std::sort(heads.begin(), heads.end());
  auto is_head = [&heads](LabelId label) {
    return std::binary_search(heads.begin(), heads.end(), label);
  };
  if (!is_head(answer_)) {
    return Status::InvalidArgument("no rule defines the Answer predicate");
  }
  for (const Rule& r : rules_) {
    if (vocab.IsInputLabel(r.head)) {
      return Status::InvalidArgument("rule head '" + vocab.LabelName(r.head) +
                                     "' is an input label; heads must be "
                                     "derived (Def. 13)");
    }
    if (r.body.empty()) {
      return Status::InvalidArgument("rule for '" + vocab.LabelName(r.head) +
                                     "' has an empty body");
    }
    bool src_bound = false;
    bool trg_bound = false;
    for (const BodyAtom& a : r.body) {
      src_bound = src_bound || a.src == r.head_src || a.trg == r.head_src;
      trg_bound = trg_bound || a.src == r.head_trg || a.trg == r.head_trg;
      if (a.IsClosure()) {
        if (a.alias == kInvalidLabel) {
          return Status::InvalidArgument("closure atom over '" +
                                         vocab.LabelName(a.label) +
                                         "' lacks an alias label");
        }
        if (vocab.IsInputLabel(a.alias)) {
          return Status::InvalidArgument(
              "closure alias '" + vocab.LabelName(a.alias) +
              "' is an input label; aliases must be derived");
        }
        if (is_head(a.alias)) {
          return Status::InvalidArgument(
              "closure alias '" + vocab.LabelName(a.alias) +
              "' collides with a rule head");
        }
      }
    }
    if (!src_bound || !trg_bound) {
      return Status::InvalidArgument(
          "head variables of '" + vocab.LabelName(r.head) +
          "' must appear in the rule body (safety)");
    }
  }
  // Non-recursiveness.
  SGQ_ASSIGN_OR_RETURN(std::vector<LabelId> topo, TopologicalOrder());
  if (topo_order != nullptr) *topo_order = std::move(topo);
  return Status::OK();
}

std::vector<LabelId> RegularQuery::InputLabels(const Vocabulary& vocab) const {
  std::set<LabelId> labels;
  for (const Rule& r : rules_) {
    for (const BodyAtom& a : r.body) {
      if (vocab.IsInputLabel(a.label)) labels.insert(a.label);
    }
  }
  return std::vector<LabelId>(labels.begin(), labels.end());
}

std::string RegularQuery::ToString(const Vocabulary& vocab) const {
  std::ostringstream os;
  for (const Rule& r : rules_) {
    os << vocab.LabelName(r.head) << "(" << r.head_src << ", " << r.head_trg
       << ") <- ";
    for (std::size_t i = 0; i < r.body.size(); ++i) {
      if (i > 0) os << ", ";
      const BodyAtom& a = r.body[i];
      os << vocab.LabelName(a.label);
      if (a.closure == ClosureKind::kPlus) os << "+";
      if (a.closure == ClosureKind::kStar) os << "*";
      os << "(" << a.src << ", " << a.trg << ")";
      if (a.IsClosure()) os << " as " << vocab.LabelName(a.alias);
    }
    os << "\n";
  }
  return os.str();
}

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// One "name(var, var)" atom, with optional +/* after the name and an
/// optional "as Alias"; ParseAtomText fills it and advances *pos.
struct ParsedAtom {
  std::string name;
  std::string src;
  std::string trg;
  ClosureKind closure = ClosureKind::kNone;
  std::string alias;  // empty if none
};

Status ParseAtomText(std::string_view text, std::size_t* pos,
                     ParsedAtom* atom) {
  auto skip = [&] {
    while (*pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[*pos]))) {
      ++*pos;
    }
  };
  auto ident = [&](std::string* out) -> Status {
    skip();
    const std::size_t start = *pos;
    while (*pos < text.size() && IsIdentChar(text[*pos])) ++*pos;
    if (*pos == start) {
      return Status::ParseError("expected identifier at offset " +
                                std::to_string(*pos));
    }
    out->assign(text.data() + start, *pos - start);
    return Status::OK();
  };
  auto expect = [&](char c) -> Status {
    skip();
    if (*pos >= text.size() || text[*pos] != c) {
      return Status::ParseError(std::string("expected '") + c +
                                "' at offset " + std::to_string(*pos));
    }
    ++*pos;
    return Status::OK();
  };

  SGQ_RETURN_NOT_OK(ident(&atom->name));
  skip();
  if (*pos < text.size() && (text[*pos] == '+' || text[*pos] == '*')) {
    atom->closure =
        text[*pos] == '+' ? ClosureKind::kPlus : ClosureKind::kStar;
    ++*pos;
  }
  SGQ_RETURN_NOT_OK(expect('('));
  SGQ_RETURN_NOT_OK(ident(&atom->src));
  SGQ_RETURN_NOT_OK(expect(','));
  SGQ_RETURN_NOT_OK(ident(&atom->trg));
  SGQ_RETURN_NOT_OK(expect(')'));
  // Optional "as Alias".
  skip();
  if (*pos + 2 <= text.size() && text.substr(*pos, 2) == "as" &&
      (*pos + 2 == text.size() || !IsIdentChar(text[*pos + 2]))) {
    *pos += 2;
    SGQ_RETURN_NOT_OK(ident(&atom->alias));
  }
  return Status::OK();
}

}  // namespace

Result<RegularQuery> ParseRq(std::string_view text, Vocabulary* vocab) {
  struct RawRule {
    ParsedAtom head;
    std::vector<ParsedAtom> body;
  };
  std::vector<RawRule> raw_rules;

  std::size_t line_no = 0;
  for (std::size_t start = 0; start <= text.size();) {
    ++line_no;
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = TrimString(text.substr(start, end - start));
    start = end + 1;
    if (line.empty() || line.front() == '#') continue;
    // Split on "<-" or ":-".
    std::size_t arrow = line.find("<-");
    if (arrow == std::string_view::npos) arrow = line.find(":-");
    if (arrow == std::string_view::npos) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": missing '<-'");
    }
    RawRule rule;
    {
      std::string_view head_text = line.substr(0, arrow);
      std::size_t pos = 0;
      const Status head = ParseAtomText(head_text, &pos, &rule.head);
      if (!head.ok()) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  " (head): " + head.message());
      }
      if (rule.head.closure != ClosureKind::kNone) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  ": rule head cannot carry closure");
      }
    }
    std::string_view body_text = line.substr(arrow + 2);
    std::size_t pos = 0;
    while (true) {
      ParsedAtom& atom = rule.body.emplace_back();
      const Status parsed = ParseAtomText(body_text, &pos, &atom);
      if (!parsed.ok()) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  " (body): " + parsed.message());
      }
      while (pos < body_text.size() &&
             std::isspace(static_cast<unsigned char>(body_text[pos]))) {
        ++pos;
      }
      if (pos >= body_text.size() || body_text[pos] == '.') break;
      if (body_text[pos] != ',') {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  ": expected ',' between atoms");
      }
      ++pos;
    }
    raw_rules.push_back(std::move(rule));
  }
  if (raw_rules.empty()) return Status::ParseError("no rules in query text");

  // Pass 1: intern all head names and closure aliases as derived labels,
  // in name order (the order fixes their label ids).
  // Generated closure aliases are label-canonical: every `a+` atom maps to
  // the one alias `__tc_a` no matter which rule (or position) it appears
  // in, so the PATH operators compiled for equal closures share one
  // canonical PlanSignature — and therefore one physical operator — across
  // rules and across registered queries (core/engine.h).
  for (RawRule& r : raw_rules) {
    for (ParsedAtom& a : r.body) {
      if (a.closure != ClosureKind::kNone && a.alias.empty()) {
        a.alias = "__tc_" + a.name;
      }
    }
  }
  std::vector<std::pair<std::string_view, LabelId>> idb;
  for (const RawRule& r : raw_rules) {
    idb.emplace_back(r.head.name, kInvalidLabel);
    for (const ParsedAtom& a : r.body) {
      if (!a.alias.empty()) idb.emplace_back(a.alias, kInvalidLabel);
    }
  }
  std::sort(idb.begin(), idb.end());
  idb.erase(std::unique(idb.begin(), idb.end()), idb.end());
  for (auto& [name, id] : idb) {
    SGQ_ASSIGN_OR_RETURN(id, vocab->InternDerivedLabel(name));
  }
  auto idb_id = [&idb](std::string_view name) {
    auto it = std::lower_bound(
        idb.begin(), idb.end(), name,
        [](const auto& entry, std::string_view n) { return entry.first < n; });
    return it != idb.end() && it->first == name ? it->second : kInvalidLabel;
  };

  // Pass 2: build the RegularQuery; unknown body labels become EDB.
  RegularQuery rq;
  for (RawRule& raw : raw_rules) {
    Rule rule;
    rule.head = idb_id(raw.head.name);
    rule.head_src = std::move(raw.head.src);
    rule.head_trg = std::move(raw.head.trg);
    rule.body.reserve(raw.body.size());
    for (ParsedAtom& a : raw.body) {
      BodyAtom atom;
      atom.label = idb_id(a.name);
      if (atom.label == kInvalidLabel) atom.label = vocab->LookupLabel(a.name);
      if (atom.label == kInvalidLabel) {
        SGQ_ASSIGN_OR_RETURN(atom.label, vocab->InternInputLabel(a.name));
      }
      atom.src = std::move(a.src);
      atom.trg = std::move(a.trg);
      atom.closure = a.closure;
      if (!a.alias.empty()) atom.alias = idb_id(a.alias);
      rule.body.push_back(std::move(atom));
    }
    rq.AddRule(std::move(rule));
  }
  // The answer predicate: "Answer" or "Ans".
  for (const char* name : {"Answer", "Ans"}) {
    const LabelId found = vocab->LookupLabel(name);
    if (found != kInvalidLabel) {
      rq.SetAnswer(found);
      break;
    }
  }
  if (rq.answer() == kInvalidLabel) {
    return Status::ParseError(
        "query must define an 'Answer' (or 'Ans') rule");
  }
  SGQ_RETURN_NOT_OK(rq.Validate(*vocab));
  return rq;
}

}  // namespace sgq

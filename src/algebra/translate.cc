#include "algebra/translate.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/logging.h"
#include "common/small_vec.h"
#include "common/string_util.h"
#include "query/normalize.h"

namespace sgq {

namespace {

/// Expression cache: label -> plan (the exp[] map of Algorithm SGQParser).
/// Every request is counted up front, so each request but a label's last
/// gets a clone and the last takes the plan itself.
class ExpressionMap {
 public:
  /// `requests` lists the label of every For() call to come.
  ExpressionMap(const StreamingGraphQuery& query, const Vocabulary& vocab,
                std::vector<LabelId> requests)
      : query_(query), vocab_(vocab) {
    std::sort(requests.begin(), requests.end());
    for (LabelId label : requests) {
      if (entries_.empty() || entries_.back().label != label) {
        entries_.push_back({label, 0, nullptr});
      }
      ++entries_.back().requests;
    }
  }

  /// Returns a fresh plan computing the streaming graph for `label`.
  Result<LogicalPlan> For(LabelId label) {
    Entry* entry = Find(label);
    SGQ_CHECK(entry != nullptr && entry->requests > 0);
    if (entry->plan == nullptr) {
      if (!vocab_.IsInputLabel(label)) {
        return Status::Internal("predicate '" + vocab_.LabelName(label) +
                                "' requested before its definition "
                                "(topological order violated)");
      }
      // Algorithm SGQParser line 7: EDB -> WSCAN with the (possibly
      // per-label) window specification.
      entry->plan = MakeWScan(label, query_.WindowFor(label));
    }
    if (--entry->requests > 0) return entry->plan->Clone();
    return std::move(entry->plan);
  }

  /// Caches `label`'s plan; a label nothing requests drops it.
  void Define(LabelId label, LogicalPlan plan) {
    Entry* entry = Find(label);
    if (entry != nullptr) entry->plan = std::move(plan);
  }

 private:
  struct Entry {
    LabelId label;
    std::size_t requests;  ///< For() calls still to come
    LogicalPlan plan;
  };

  Entry* Find(LabelId label) {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), label,
        [](const Entry& e, LabelId l) { return e.label < l; });
    return it != entries_.end() && it->label == label ? &*it : nullptr;
  }

  const StreamingGraphQuery& query_;
  const Vocabulary& vocab_;
  std::vector<Entry> entries_;  ///< sorted by label
};

}  // namespace

Result<LogicalPlan> TranslateToCanonicalPlan(
    const StreamingGraphQuery& query, const Vocabulary& vocab) {
  std::vector<LabelId> topo;
  SGQ_RETURN_NOT_OK(query.rq.Validate(vocab, &topo));
  // Star expansion can unbind a head variable (an empty path unifies its
  // endpoints), so an expanded query is validated again; a query without
  // star atoms is translated as it is.
  const RegularQuery* rq = &query.rq;
  RegularQuery expanded;
  if (HasStarClosures(query.rq)) {
    expanded = ExpandStarClosures(query.rq);
    SGQ_RETURN_NOT_OK(expanded.Validate(vocab, &topo));
    rq = &expanded;
  }

  // Collect closure alias definitions (alias -> base label).
  std::unordered_map<LabelId, LabelId> alias_to_base;
  for (const Rule& r : rq->rules()) {
    for (const BodyAtom& a : r.body) {
      if (a.IsClosure()) {
        SGQ_CHECK(a.closure == ClosureKind::kPlus);
        alias_to_base[a.alias] = a.label;
      }
    }
  }
  auto base_of = [&alias_to_base](LabelId label) {
    auto it = alias_to_base.find(label);
    return it != alias_to_base.end() ? it->second : kInvalidLabel;
  };

  // Every label the walk below requests, once per request.
  std::vector<LabelId> requests;
  for (LabelId label : topo) {
    const LabelId base = base_of(label);
    if (base != kInvalidLabel) {
      requests.push_back(base);
      continue;
    }
    for (const Rule& rule : rq->rules()) {
      if (rule.head != label) continue;
      for (const BodyAtom& atom : rule.body) {
        requests.push_back(atom.IsClosure() ? atom.alias : atom.label);
      }
    }
  }
  requests.push_back(rq->answer());
  ExpressionMap exp(query, vocab, std::move(requests));

  for (LabelId label : topo) {
    const LabelId base = base_of(label);
    if (base != kInvalidLabel) {
      // Algorithm SGQParser line 9: transitive closure -> PATH(base+).
      SGQ_ASSIGN_OR_RETURN(LogicalPlan base_plan, exp.For(base));
      std::vector<LogicalPlan> children;
      children.push_back(std::move(base_plan));
      exp.Define(label, MakePath(label, Regex::Plus(Regex::Label(base)),
                                 std::move(children)));
      continue;
    }
    // Algorithm SGQParser lines 11-17: one PATTERN per rule, UNION when a
    // head has several rules.
    std::vector<LogicalPlan> alternatives;
    for (const Rule& rule : rq->rules()) {
      if (rule.head != label) continue;
      std::vector<LogicalPlan> children;
      std::vector<std::pair<std::string, std::string>> child_vars;
      children.reserve(rule.body.size());
      child_vars.reserve(rule.body.size());
      for (const BodyAtom& atom : rule.body) {
        const LabelId effective = atom.IsClosure() ? atom.alias : atom.label;
        SGQ_ASSIGN_OR_RETURN(LogicalPlan child, exp.For(effective));
        children.push_back(std::move(child));
        child_vars.emplace_back(atom.src, atom.trg);
      }
      alternatives.push_back(MakePattern(label, std::move(child_vars),
                                         rule.head_src, rule.head_trg,
                                         std::move(children)));
    }
    if (alternatives.empty()) {
      return Status::Internal("no rule for predicate '" +
                              vocab.LabelName(label) + "'");
    }
    if (alternatives.size() == 1) {
      exp.Define(label, std::move(alternatives[0]));
    } else {
      exp.Define(label, MakeUnion(label, std::move(alternatives)));
    }
  }

  SGQ_ASSIGN_OR_RETURN(LogicalPlan answer, exp.For(rq->answer()));
  SGQ_RETURN_NOT_OK(ValidatePlan(*answer, vocab));
  return answer;
}

namespace {

// Vocabulary-free canonical rendering of a regex (label ids, not names).
std::string RegexSignature(const Regex& r) {
  switch (r.kind) {
    case RegexKind::kEpsilon:
      return "e";
    case RegexKind::kLabel:
      return "l" + std::to_string(r.label);
    case RegexKind::kConcat:
    case RegexKind::kAlt: {
      std::string out = r.kind == RegexKind::kConcat ? "(." : "(|";
      for (const Regex& c : r.children) out += RegexSignature(c);
      return out + ")";
    }
    case RegexKind::kStar:
      return "(" + RegexSignature(r.children[0]) + ")*";
    case RegexKind::kPlus:
      return "(" + RegexSignature(r.children[0]) + ")+";
    case RegexKind::kOpt:
      return "(" + RegexSignature(r.children[0]) + ")?";
  }
  return "?";
}

std::string PredicateSignature(const FilterPredicate& p) {
  return std::to_string(static_cast<int>(p.kind)) + ":" +
         std::to_string(VertexToWire(p.vertex)) + ":" +
         std::to_string(p.label);
}

/// Appends `plan`'s own part of its signature — everything before the
/// "[<children>]" list.
void AppendNodeSignature(const LogicalOp& plan, std::string* out) {
  switch (plan.kind) {
    case LogicalOpKind::kWScan:
      StrAppend(out, "W(", std::to_string(plan.input_label), ",",
                std::to_string(plan.window.size), ",",
                std::to_string(plan.window.slide), ")");
      break;
    case LogicalOpKind::kFilter: {
      std::vector<std::string> preds;
      preds.reserve(plan.predicates.size());
      for (const FilterPredicate& p : plan.predicates) {
        preds.push_back(PredicateSignature(p));
      }
      std::sort(preds.begin(), preds.end());  // conjunction commutes
      StrAppend(out, "F(", JoinStrings(preds, ";"), ")");
      break;
    }
    case LogicalOpKind::kUnion:
      StrAppend(out, "U(", std::to_string(plan.output_label), ")");
      break;
    case LogicalOpKind::kPattern: {
      // Variables are alpha-renamed by first occurrence so that patterns
      // differing only in variable names canonicalize to the same
      // signature: the join pipeline depends on the equality structure of
      // the variables, never on their spelling. A pattern has a handful
      // of variables, so the renaming is a linear scan.
      std::vector<const std::string*> seen;
      seen.reserve(2 * plan.child_vars.size() + 2);
      auto rename = [&seen, out](const std::string& v) {
        std::size_t i = 0;
        while (i < seen.size() && *seen[i] != v) ++i;
        if (i == seen.size()) seen.push_back(&v);
        StrAppend(out, "v", std::to_string(i));
      };
      StrAppend(out, "P(", std::to_string(plan.output_label), ";");
      for (const auto& [src, trg] : plan.child_vars) {
        rename(src);
        *out += ">";
        rename(trg);
        *out += ";";
      }
      rename(plan.out_src_var);
      *out += ">";
      rename(plan.out_trg_var);
      *out += ")";
      break;
    }
    case LogicalOpKind::kPath:
      StrAppend(out, "R(", std::to_string(plan.output_label), ";",
                RegexSignature(plan.regex), ")");
      break;
  }
}

/// Appends the signature of every node of `plan` to `sigs` in pre-order;
/// a node's string is its own part plus its children's finished strings.
void CollectSignatures(const LogicalOp& plan, std::vector<std::string>* sigs) {
  const std::size_t at = sigs->size();
  sigs->emplace_back();
  SmallVec<std::uint32_t, 4> child_at;
  std::size_t children_size = 0;
  for (const auto& child : plan.children) {
    child_at.push_back(static_cast<std::uint32_t>(sigs->size()));
    CollectSignatures(*child, sigs);
    children_size += (*sigs)[child_at.back()].size() + 1;
  }
  std::string sig;
  AppendNodeSignature(plan, &sig);
  sig.reserve(sig.size() + children_size + 2);
  sig += "[";
  for (std::size_t i = 0; i < child_at.size(); ++i) {
    if (i > 0) sig += ",";
    sig += (*sigs)[child_at[i]];
  }
  sig += "]";
  (*sigs)[at] = std::move(sig);
}

}  // namespace

std::string PlanSignature(const LogicalOp& plan) {
  return std::move(PlanSignatures(plan).front());
}

std::vector<std::string> PlanSignatures(const LogicalOp& plan) {
  std::vector<std::string> sigs;
  CollectSignatures(plan, &sigs);
  return sigs;
}

std::string JoinSignature(const std::string& signature) {
  // "P(<head label>;<variables>)[<children>]" -> "P(;<variables>)[...]".
  if (signature.compare(0, 2, "P(") != 0) return {};
  return "P(" + signature.substr(signature.find(';'));
}

namespace {

void CollectAdmission(const LogicalOp& plan, AdmissionPredicate* out) {
  if (plan.kind == LogicalOpKind::kWScan) {
    if (plan.input_label == kInvalidLabel) {
      out->wildcard = true;
    } else {
      out->labels.push_back(plan.input_label);
    }
    return;
  }
  for (const auto& child : plan.children) CollectAdmission(*child, out);
}

}  // namespace

AdmissionPredicate PlanAdmission(const LogicalOp& plan) {
  AdmissionPredicate out;
  CollectAdmission(plan, &out);
  std::sort(out.labels.begin(), out.labels.end());
  out.labels.erase(std::unique(out.labels.begin(), out.labels.end()),
                   out.labels.end());
  return out;
}

}  // namespace sgq

#include "algebra/translate.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "query/normalize.h"

namespace sgq {

namespace {

/// Expression cache: label -> plan template, cloned per use (the exp[] map
/// of Algorithm SGQParser).
class ExpressionMap {
 public:
  ExpressionMap(const StreamingGraphQuery& query, const Vocabulary& vocab)
      : query_(query), vocab_(vocab) {}

  /// Returns a fresh plan computing the streaming graph for `label`.
  Result<LogicalPlan> For(LabelId label) {
    auto it = cache_.find(label);
    if (it != cache_.end()) return it->second->Clone();
    if (vocab_.IsInputLabel(label)) {
      // Algorithm SGQParser line 7: EDB -> WSCAN with the (possibly
      // per-label) window specification.
      LogicalPlan scan = MakeWScan(label, query_.WindowFor(label));
      LogicalPlan copy = scan->Clone();
      cache_.emplace(label, std::move(scan));
      return copy;
    }
    return Status::Internal("predicate '" + vocab_.LabelName(label) +
                            "' requested before its definition (topological "
                            "order violated)");
  }

  void Define(LabelId label, LogicalPlan plan) {
    cache_[label] = std::move(plan);
  }

 private:
  const StreamingGraphQuery& query_;
  const Vocabulary& vocab_;
  std::unordered_map<LabelId, LogicalPlan> cache_;
};

}  // namespace

Result<LogicalPlan> TranslateToCanonicalPlan(
    const StreamingGraphQuery& query, const Vocabulary& vocab) {
  SGQ_RETURN_NOT_OK(query.rq.Validate(vocab));
  const RegularQuery rq = ExpandStarClosures(query.rq);
  SGQ_RETURN_NOT_OK(rq.Validate(vocab));

  SGQ_ASSIGN_OR_RETURN(std::vector<LabelId> topo, rq.TopologicalOrder());
  ExpressionMap exp(query, vocab);

  // Collect closure alias definitions (alias -> base label).
  std::unordered_map<LabelId, LabelId> alias_to_base;
  for (const Rule& r : rq.rules()) {
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
      // Algorithm SGQParser line 9: transitive closure -> PATH(base+).
      SGQ_ASSIGN_OR_RETURN(LogicalPlan base, exp.For(alias_it->second));
      std::vector<LogicalPlan> children;
      children.push_back(std::move(base));
      exp.Define(label,
                 MakePath(label,
                          Regex::Plus(Regex::Label(alias_it->second)),
                          std::move(children)));
      continue;
    }
    // Algorithm SGQParser lines 11-17: one PATTERN per rule, UNION when a
    // head has several rules.
    std::vector<LogicalPlan> alternatives;
    for (const Rule* rule : rq.RulesFor(label)) {
      std::vector<LogicalPlan> children;
      std::vector<std::pair<std::string, std::string>> child_vars;
      for (const BodyAtom& atom : rule->body) {
        const LabelId effective = atom.IsClosure() ? atom.alias : atom.label;
        SGQ_ASSIGN_OR_RETURN(LogicalPlan child, exp.For(effective));
        children.push_back(std::move(child));
        child_vars.emplace_back(atom.src, atom.trg);
      }
      alternatives.push_back(MakePattern(label, std::move(child_vars),
                                         rule->head_src, rule->head_trg,
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

  SGQ_ASSIGN_OR_RETURN(LogicalPlan answer, exp.For(rq.answer()));
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

}  // namespace

std::string PlanSignature(const LogicalOp& plan) {
  std::string out;
  switch (plan.kind) {
    case LogicalOpKind::kWScan:
      out = "W(" + std::to_string(plan.input_label) + "," +
            std::to_string(plan.window.size) + "," +
            std::to_string(plan.window.slide) + ")";
      break;
    case LogicalOpKind::kFilter: {
      std::vector<std::string> preds;
      preds.reserve(plan.predicates.size());
      for (const FilterPredicate& p : plan.predicates) {
        preds.push_back(PredicateSignature(p));
      }
      std::sort(preds.begin(), preds.end());  // conjunction commutes
      out = "F(";
      for (std::size_t i = 0; i < preds.size(); ++i) {
        if (i > 0) out += ";";
        out += preds[i];
      }
      out += ")";
      break;
    }
    case LogicalOpKind::kUnion:
      out = "U(" + std::to_string(plan.output_label) + ")";
      break;
    case LogicalOpKind::kPattern: {
      // Variables are alpha-renamed by first occurrence so that patterns
      // differing only in variable names canonicalize to the same
      // signature: the join pipeline depends on the equality structure of
      // the variables, never on their spelling.
      std::unordered_map<std::string, int> canon;
      auto rename = [&canon](const std::string& v) {
        auto [it, inserted] = canon.emplace(v, static_cast<int>(canon.size()));
        (void)inserted;
        return "v" + std::to_string(it->second);
      };
      out = "P(" + std::to_string(plan.output_label) + ";";
      for (const auto& [src, trg] : plan.child_vars) {
        out += rename(src);
        out += ">";
        out += rename(trg);
        out += ";";
      }
      out += rename(plan.out_src_var);
      out += ">";
      out += rename(plan.out_trg_var);
      out += ")";
      break;
    }
    case LogicalOpKind::kPath:
      out = "R(" + std::to_string(plan.output_label) + ";" +
            RegexSignature(plan.regex) + ")";
      break;
  }
  out += "[";
  for (std::size_t i = 0; i < plan.children.size(); ++i) {
    if (i > 0) out += ",";
    out += PlanSignature(*plan.children[i]);
  }
  out += "]";
  return out;
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

#include "algebra/logical_plan.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/string_util.h"

namespace sgq {

std::unique_ptr<LogicalOp> LogicalOp::Clone() const {
  auto copy = std::make_unique<LogicalOp>();
  copy->kind = kind;
  copy->input_label = input_label;
  copy->window = window;
  copy->predicates = predicates;
  copy->output_label = output_label;
  copy->child_vars = child_vars;
  copy->out_src_var = out_src_var;
  copy->out_trg_var = out_trg_var;
  copy->regex = regex;
  for (const auto& c : children) copy->children.push_back(c->Clone());
  return copy;
}

LabelId LogicalOp::OutputLabel() const {
  switch (kind) {
    case LogicalOpKind::kWScan:
      return input_label;
    case LogicalOpKind::kFilter:
      return children.empty() ? kInvalidLabel : children[0]->OutputLabel();
    case LogicalOpKind::kUnion:
      if (output_label != kInvalidLabel) return output_label;
      // Without relabeling the union is homogeneous only if all children
      // agree.
      if (!children.empty()) {
        LabelId l = children[0]->OutputLabel();
        for (const auto& c : children) {
          if (c->OutputLabel() != l) return kInvalidLabel;
        }
        return l;
      }
      return kInvalidLabel;
    case LogicalOpKind::kPattern:
    case LogicalOpKind::kPath:
      return output_label;
  }
  return kInvalidLabel;
}

namespace {

/// Appends `op`'s subtree to `out`, one node per line; the plan text of
/// every registration is rendered here, into one string.
void AppendPlanText(const LogicalOp& op, const Vocabulary& vocab, int indent,
                    std::string* out) {
  out->append(static_cast<std::size_t>(indent) * 2, ' ');
  switch (op.kind) {
    case LogicalOpKind::kWScan:
      StrAppend(out, "WSCAN[", vocab.LabelName(op.input_label), ", ",
                op.window.ToString(), "]");
      break;
    case LogicalOpKind::kFilter: {
      *out += "FILTER[";
      for (std::size_t i = 0; i < op.predicates.size(); ++i) {
        if (i > 0) *out += " && ";
        const FilterPredicate& p = op.predicates[i];
        switch (p.kind) {
          case FilterPredicate::Kind::kSrcEquals:
            StrAppend(out, "src=", vocab.VertexName(p.vertex));
            break;
          case FilterPredicate::Kind::kTrgEquals:
            StrAppend(out, "trg=", vocab.VertexName(p.vertex));
            break;
          case FilterPredicate::Kind::kSrcEqualsTrg:
            *out += "src=trg";
            break;
          case FilterPredicate::Kind::kLabelEquals:
            StrAppend(out, "label=", vocab.LabelName(p.label));
            break;
        }
      }
      *out += "]";
      break;
    }
    case LogicalOpKind::kUnion:
      *out += "UNION";
      if (op.output_label != kInvalidLabel) {
        StrAppend(out, "[", vocab.LabelName(op.output_label), "]");
      }
      break;
    case LogicalOpKind::kPattern: {
      StrAppend(out, "PATTERN[", vocab.LabelName(op.output_label), "; ");
      for (std::size_t i = 0; i < op.child_vars.size(); ++i) {
        if (i > 0) *out += ", ";
        StrAppend(out, "(", op.child_vars[i].first, ",",
                  op.child_vars[i].second, ")");
      }
      StrAppend(out, " -> (", op.out_src_var, ",", op.out_trg_var, ")]");
      break;
    }
    case LogicalOpKind::kPath:
      StrAppend(out, "PATH[", vocab.LabelName(op.output_label), "; ",
                op.regex.ToString(vocab), "]");
      break;
  }
  *out += "\n";
  for (const auto& c : op.children) {
    AppendPlanText(*c, vocab, indent + 1, out);
  }
}

}  // namespace

std::string LogicalOp::ToString(const Vocabulary& vocab, int indent) const {
  std::string out;
  AppendPlanText(*this, vocab, indent, &out);
  return out;
}

bool LogicalOp::Equals(const LogicalOp& other) const {
  if (kind != other.kind || input_label != other.input_label ||
      !(window == other.window) || !(predicates == other.predicates) ||
      output_label != other.output_label ||
      child_vars != other.child_vars || out_src_var != other.out_src_var ||
      out_trg_var != other.out_trg_var || !(regex == other.regex) ||
      children.size() != other.children.size()) {
    return false;
  }
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (!children[i]->Equals(*other.children[i])) return false;
  }
  return true;
}

std::size_t LogicalOp::Size() const {
  std::size_t n = 1;
  for (const auto& c : children) n += c->Size();
  return n;
}

LogicalPlan MakeWScan(LabelId input_label, WindowSpec window) {
  auto op = std::make_unique<LogicalOp>();
  op->kind = LogicalOpKind::kWScan;
  op->input_label = input_label;
  op->window = window;
  return op;
}

LogicalPlan MakeFilter(std::vector<FilterPredicate> preds,
                       LogicalPlan child) {
  auto op = std::make_unique<LogicalOp>();
  op->kind = LogicalOpKind::kFilter;
  op->predicates = std::move(preds);
  op->children.push_back(std::move(child));
  return op;
}

LogicalPlan MakeUnion(LabelId output_label,
                      std::vector<LogicalPlan> children) {
  auto op = std::make_unique<LogicalOp>();
  op->kind = LogicalOpKind::kUnion;
  op->output_label = output_label;
  op->children = std::move(children);
  return op;
}

LogicalPlan MakePattern(
    LabelId output_label,
    std::vector<std::pair<std::string, std::string>> child_vars,
    std::string out_src_var, std::string out_trg_var,
    std::vector<LogicalPlan> children) {
  auto op = std::make_unique<LogicalOp>();
  op->kind = LogicalOpKind::kPattern;
  op->output_label = output_label;
  op->child_vars = std::move(child_vars);
  op->out_src_var = std::move(out_src_var);
  op->out_trg_var = std::move(out_trg_var);
  op->children = std::move(children);
  return op;
}

LogicalPlan MakePath(LabelId output_label, Regex regex,
                     std::vector<LogicalPlan> children) {
  auto op = std::make_unique<LogicalOp>();
  op->kind = LogicalOpKind::kPath;
  op->output_label = output_label;
  op->regex = std::move(regex);
  op->children = std::move(children);
  return op;
}

Status ValidatePlan(const LogicalOp& plan, const Vocabulary& vocab) {
  switch (plan.kind) {
    case LogicalOpKind::kWScan:
      if (!plan.children.empty()) {
        return Status::InvalidArgument("WSCAN must be a leaf");
      }
      // input_label == kInvalidLabel is the wildcard scan: it admits every
      // stream label (query-index always-on bucket) and emits each sge
      // under its own label.
      if (plan.window.size <= 0 || plan.window.slide <= 0) {
        return Status::InvalidArgument("WSCAN window must be positive");
      }
      break;
    case LogicalOpKind::kFilter:
      if (plan.children.size() != 1) {
        return Status::InvalidArgument("FILTER must have exactly one child");
      }
      break;
    case LogicalOpKind::kUnion:
      if (plan.children.empty()) {
        return Status::InvalidArgument("UNION needs at least one child");
      }
      if (plan.output_label != kInvalidLabel &&
          vocab.IsInputLabel(plan.output_label)) {
        return Status::InvalidArgument(
            "UNION output label must be derived (Def. 18)");
      }
      break;
    case LogicalOpKind::kPattern: {
      if (plan.children.empty()) {
        return Status::InvalidArgument("PATTERN needs at least one child");
      }
      if (plan.children.size() != plan.child_vars.size()) {
        return Status::InvalidArgument(
            "PATTERN child count does not match variable pairs");
      }
      if (vocab.IsInputLabel(plan.output_label)) {
        return Status::InvalidArgument(
            "PATTERN output label must be derived (Def. 19)");
      }
      auto bound = [&plan](const std::string& v) {
        for (const auto& [s, t] : plan.child_vars) {
          if (s == v || t == v) return true;
        }
        return false;
      };
      if (!bound(plan.out_src_var) || !bound(plan.out_trg_var)) {
        return Status::InvalidArgument(
            "PATTERN output endpoints must be variables of the pattern");
      }
      break;
    }
    case LogicalOpKind::kPath: {
      if (plan.children.empty()) {
        return Status::InvalidArgument("PATH needs at least one child");
      }
      if (vocab.IsInputLabel(plan.output_label)) {
        return Status::InvalidArgument(
            "PATH output label must be derived (Def. 20)");
      }
      // Every alphabet label must be produced by some child.
      std::set<LabelId> produced;
      for (const auto& c : plan.children) {
        const LabelId l = c->OutputLabel();
        if (l == kInvalidLabel) {
          return Status::InvalidArgument(
              "PATH child produces tuples without a single label");
        }
        produced.insert(l);
      }
      for (LabelId l : plan.regex.Alphabet()) {
        if (produced.count(l) == 0) {
          return Status::InvalidArgument("PATH regex label '" +
                                         vocab.LabelName(l) +
                                         "' is not produced by any child");
        }
      }
      break;
    }
  }
  for (const auto& c : plan.children) {
    SGQ_RETURN_NOT_OK(ValidatePlan(*c, vocab));
  }
  return Status::OK();
}

}  // namespace sgq

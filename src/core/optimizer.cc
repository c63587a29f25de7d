#include "core/optimizer.h"

#include <limits>

#include "common/metrics.h"
#include "core/engine.h"
#include "regex/dfa.h"

namespace sgq {

namespace {

/// Cost of the regex automaton driving a PATH operator.
double RegexCost(const Regex& regex) {
  const Dfa dfa = Dfa::FromRegex(regex);
  return 1.0 + 0.5 * static_cast<double>(dfa.NumStates()) +
         0.5 * static_cast<double>(regex.Alphabet().size());
}

double NodeCost(const LogicalOp& node) {
  switch (node.kind) {
    case LogicalOpKind::kWScan:
      return 1.0;
    case LogicalOpKind::kFilter:
      return 0.5;
    case LogicalOpKind::kUnion:
      return 1.0;
    case LogicalOpKind::kPattern:
      // One symmetric hash join per level; each level maintains two
      // tables and re-emits intermediate bindings.
      return 2.0 +
             3.0 * static_cast<double>(
                       node.children.empty() ? 0 : node.children.size() - 1);
    case LogicalOpKind::kPath: {
      double cost = 2.0 + RegexCost(node.regex);
      // Derived inputs mean a whole intermediate streaming graph is
      // materialized and re-indexed below this operator.
      for (const auto& c : node.children) {
        if (c->kind != LogicalOpKind::kWScan) cost += 2.0;
      }
      return cost;
    }
  }
  return 1.0;
}

}  // namespace

double EstimatePlanCost(const LogicalOp& plan) {
  double cost = NodeCost(plan);
  for (const auto& c : plan.children) cost += EstimatePlanCost(*c);
  return cost;
}

Result<LogicalPlan> OptimizeHeuristic(const LogicalOp& plan,
                                      Vocabulary* vocab,
                                      std::size_t budget) {
  std::vector<LogicalPlan> candidates = EnumeratePlans(plan, vocab, budget);
  if (candidates.empty()) {
    return Status::Internal("plan enumeration produced no candidates");
  }
  std::size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!ValidatePlan(*candidates[i], *vocab).ok()) continue;
    const double cost = EstimatePlanCost(*candidates[i]);
    if (cost < best_cost) {
      best_cost = cost;
      best = i;
    }
  }
  return std::move(candidates[best]);
}

Result<LogicalPlan> OptimizeBySampling(const LogicalOp& plan,
                                       Vocabulary* vocab,
                                       const InputStream& sample,
                                       std::size_t budget) {
  std::vector<LogicalPlan> candidates = EnumeratePlans(plan, vocab, budget);
  if (candidates.empty()) {
    return Status::Internal("plan enumeration produced no candidates");
  }
  std::size_t best = 0;
  double best_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    Engine engine;
    if (!engine.AddPlan(*candidates[i], *vocab).ok() ||
        !engine.Finalize().ok()) {
      continue;  // unexecutable candidate: skip
    }
    Stopwatch timer;
    engine.PushAll(sample);
    const double elapsed = timer.ElapsedSeconds();
    if (elapsed < best_seconds) {
      best_seconds = elapsed;
      best = i;
    }
  }
  return std::move(candidates[best]);
}

}  // namespace sgq

// Query registration, frozen: what Engine::AddQuery / AddPlan produce —
// operator counts, sharing counters, the Explain() text, and the SGQC
// `queries` and `windows` payloads (plan texts, and window keys built from
// PlanSignature) — and the exact status every rejected registration
// returns (code and message: session ERR lines and the CLI print them).
// Both tables were recorded from the multi-pass registration that the
// one-pass one replaced; a row that moves means registration changed a
// plan, a signature, a window key, the plan text or a message.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "algebra/translate.h"
#include "core/engine.h"
#include "model/checkpoint.h"
#include "query/gcore.h"
#include "test_util.h"
#include "workload/plan_gallery.h"
#include "workload/queries.h"

namespace sgq {
namespace {

using testing_util::Fingerprint;

const WindowSpec kWindow(30, 5);

/// Registers one query set on `engine` (before Finalize, except where the
/// set attaches live), in a fixed order.
using RegisterFn = std::function<void(Engine*, Vocabulary*)>;

void AddText(Engine* engine, Vocabulary* vocab, const std::string& text,
             WindowSpec window = kWindow) {
  auto query = MakeQuery(text, window, vocab);
  ASSERT_TRUE(query.ok()) << text << ": " << query.status().ToString();
  auto id = engine->AddQuery(*query, *vocab);
  ASSERT_TRUE(id.ok()) << text << ": " << id.status().ToString();
}

void AddPlanOk(Engine* engine, Vocabulary* vocab, const LogicalOp& plan) {
  auto id = engine->AddPlan(plan, *vocab);
  ASSERT_TRUE(id.ok()) << plan.ToString(*vocab) << id.status().ToString();
}

void AddQuerySet(Engine* engine, Vocabulary* vocab,
                 const std::vector<BenchQuery>& set) {
  for (const BenchQuery& q : set) AddText(engine, vocab, q.text);
}

void AddGallery(Engine* engine, Vocabulary* vocab) {
  std::vector<NamedPlan> plans = Q4Plans(vocab, "a", "b", "c", kWindow);
  for (NamedPlan& p : Q2Plans(vocab, "a", "b", kWindow)) {
    plans.push_back(std::move(p));
  }
  for (NamedPlan& p : Q3Plans(vocab, "a", "b", "c", kWindow)) {
    plans.push_back(std::move(p));
  }
  for (const NamedPlan& p : plans) AddPlanOk(engine, vocab, *p.second);
}

void AddZipf(Engine* engine, Vocabulary* vocab) {
  for (int i = 0; i < 64; ++i) {
    const std::string l = "l" + std::to_string(i);
    AddText(engine, vocab, "Answer(x,y) <- " + l + "(x,y)");
  }
}

void AddEdgeCases(Engine* engine, Vocabulary* vocab) {
  // A two-rule union.
  AddText(engine, vocab,
          "Answer(x,y) <- a(x,y)\nAnswer(x,y) <- b(x,z), c(z,y)");
  // Star closures: a bare star, a star join, an explicit alias.
  AddText(engine, vocab, "Answer(x,y) <- b*(x,y)");
  AddText(engine, vocab, "Answer(x,y) <- a(x,z), b*(z,w), c*(w,y)");
  AddText(engine, vocab, "Answer(x,y) <- a+(x,z) as AP, c(z,y)");
  // A two-level query whose PATH reads a derived PATTERN.
  AddText(engine, vocab,
          "D(x,y) <- a(x,z), b(z,y)\nAnswer(x,y) <- D+(x,y), c(y,w)");
  // Per-label windows.
  {
    auto query = MakeQuery("Answer(x,y) <- a(x,z), b(z,y)", kWindow, vocab);
    ASSERT_TRUE(query.ok());
    query->per_label_windows[*vocab->FindLabel("b")] = WindowSpec(60, 10);
    ASSERT_TRUE(engine->AddQuery(*query, *vocab).ok());
  }
  // A wildcard scan, bare and under a label FILTER.
  AddPlanOk(engine, vocab, *MakeWScan(kInvalidLabel, kWindow));
  {
    FilterPredicate label_b;
    label_b.kind = FilterPredicate::Kind::kLabelEquals;
    label_b.label = *vocab->FindLabel("b");
    FilterPredicate loop;
    loop.kind = FilterPredicate::Kind::kSrcEqualsTrg;
    AddPlanOk(engine, vocab,
              *MakeFilter({loop, label_b}, MakeWScan(kInvalidLabel, kWindow)));
  }
  // One G-CORE query (the paper's Figure 6).
  {
    auto query = ParseGCore(
        "PATH RL = (u1)-/<:follows*>/->(u2), "
        "(u1)-[:likes]->(m1)<-[:posts]-(u2)\n"
        "CONSTRUCT (u)-[:notify]->(m)\n"
        "MATCH (u)-/<~RL+>/->(v), (v)-[:posts]->(m)\n"
        "ON social_stream WINDOW (24 HOURS) SLIDE (1 HOURS)",
        vocab);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    ASSERT_TRUE(engine->AddQuery(*query, *vocab).ok());
  }
}

struct RegistrationRow {
  const char* set;
  std::size_t workers;
  std::size_t ops;
  std::size_t shared;
  std::size_t cross_shared;
  std::uint64_t explain;  ///< Fingerprint of Explain()
  std::uint64_t queries;  ///< Fingerprint of the `queries` section payload
  std::uint64_t windows;  ///< Fingerprint of the `windows` section payload
};

std::string RowText(const RegistrationRow& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", %zu, %zu, %zu, %zu, 0x%016llxull, 0x%016llxull, "
                "0x%016llxull},",
                r.set, r.workers, r.ops, r.shared, r.cross_shared,
                static_cast<unsigned long long>(r.explain),
                static_cast<unsigned long long>(r.queries),
                static_cast<unsigned long long>(r.windows));
  return buf;
}

/// Checkpoints the finalized engine and fingerprints what registration
/// decided.
RegistrationRow Measure(const char* set, std::size_t workers,
                        Engine* engine, const Vocabulary& vocab) {
  RegistrationRow row{set, workers, engine->NumOperators(),
                      engine->NumSharedSubtrees(),
                      engine->NumCrossQuerySharedSubtrees(),
                      Fingerprint(engine->Explain()), 0, 0};
  const std::string path = ::testing::TempDir() + "/registration_" +
                           set + "_" + std::to_string(workers) + ".sgqc";
  EXPECT_TRUE(engine->Checkpoint(path, &vocab).ok());
  EXPECT_TRUE(engine->WaitForCheckpoint().ok());
  auto reader = CheckpointReader::ParseFile(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  if (!reader.ok()) return row;
  const CheckpointSection* queries = reader->Find("queries");
  const CheckpointSection* windows = reader->Find("windows");
  EXPECT_NE(queries, nullptr);
  EXPECT_NE(windows, nullptr);
  if (queries != nullptr) row.queries = Fingerprint(reader->payload(*queries));
  if (windows != nullptr) row.windows = Fingerprint(reader->payload(*windows));
  std::remove(path.c_str());
  return row;
}

std::vector<RegistrationRow> MeasureAll() {
  const std::vector<std::pair<const char*, RegisterFn>> sets = {
      {"so", [](Engine* e, Vocabulary* v) { AddQuerySet(e, v, SoQuerySet()); }},
      {"snb",
       [](Engine* e, Vocabulary* v) { AddQuerySet(e, v, SnbQuerySet()); }},
      {"gallery", AddGallery},
      {"zipf", AddZipf},
      {"edge", AddEdgeCases},
  };
  std::vector<RegistrationRow> rows;
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    for (const auto& [name, add] : sets) {
      EngineOptions options;
      options.num_workers = workers;
      Engine engine(options);
      Vocabulary vocab;
      add(&engine, &vocab);
      EXPECT_TRUE(engine.Finalize().ok());
      rows.push_back(Measure(name, workers, &engine, vocab));
      if (std::string(name) != "zipf") continue;
      // Live attach of 8 cycle queries over the hot labels (they share
      // their WSCAN with running queries), then their detach.
      std::vector<QueryId> attached;
      for (int j = 0; j < 8; ++j) {
        const std::string l = "l" + std::to_string(j);
        auto query = MakeQuery(
            "Answer(x,y) <- " + l + "(x,y), " + l + "(y,x)", kWindow, &vocab);
        EXPECT_TRUE(query.ok());
        auto id = engine.AddQuery(*query, vocab);
        EXPECT_TRUE(id.ok()) << id.status().ToString();
        if (id.ok()) attached.push_back(*id);
      }
      rows.push_back(Measure("zipf+attach", workers, &engine, vocab));
      for (QueryId q : attached) EXPECT_TRUE(engine.RemoveQuery(q).ok());
      rows.push_back(Measure("zipf+detach", workers, &engine, vocab));
    }
  }
  return rows;
}

// Recorded before registration became one pass; a row that moves means a
// plan, a signature, a window key or the plan text changed.
const std::vector<RegistrationRow> kFrozenRegistrations = {
    {"so", 1, 28, 20, 19,
     0x8ad1d86ad32ec49bull, 0x227d4452d508942cull, 0x54633bbc553e87d7ull},
    {"snb", 1, 29, 19, 17,
     0x0de91b3176fd80a5ull, 0x0aad84d6f4cb1711ull, 0xb60c241708f7b09eull},
    {"gallery", 1, 31, 25, 23,
     0xfc352ecb414b1389ull, 0x8a40f576268bcf16ull, 0x616605d6d40e636aull},
    {"zipf", 1, 192, 0, 0,
     0x4dbfb86610e80268ull, 0xf64c0282fdecd929ull, 0x4d25767f9dce13f5ull},
    {"zipf+attach", 1, 208, 16, 16,
     0xf6c192baf20e411eull, 0x6dd0e0630e7019d1ull, 0x7e9c71e98b816009ull},
    {"zipf+detach", 1, 192, 16, 16,
     0xc5ab3c528910e3d4ull, 0xef5754d35f666c39ull, 0x4d25767f9dce13f5ull},
    {"edge", 1, 41, 19, 15,
     0xf1531bfc6fcd575eull, 0x94ca3b3a0b6ccf21ull, 0xa938b178d62cd364ull},
    {"so", 4, 28, 20, 19,
     0x536e0e8988e5c83bull, 0x227d4452d508942cull, 0x54633bbc553e87d7ull},
    {"snb", 4, 29, 19, 17,
     0x9a2be3c1fe828769ull, 0x0aad84d6f4cb1711ull, 0xb60c241708f7b09eull},
    {"gallery", 4, 31, 25, 23,
     0xcc016d97dfdc15afull, 0x8a40f576268bcf16ull, 0x616605d6d40e636aull},
    {"zipf", 4, 192, 0, 0,
     0xe9ead64f817e1dbcull, 0xf64c0282fdecd929ull, 0x4d25767f9dce13f5ull},
    {"zipf+attach", 4, 208, 16, 16,
     0x40bebc8a2579794aull, 0x6dd0e0630e7019d1ull, 0x7e9c71e98b816009ull},
    {"zipf+detach", 4, 192, 16, 16,
     0x74e663dbaf126e88ull, 0xef5754d35f666c39ull, 0x4d25767f9dce13f5ull},
    {"edge", 4, 41, 19, 15,
     0x707883647b004588ull, 0x94ca3b3a0b6ccf21ull, 0xa938b178d62cd364ull},
};

TEST(RegistrationTest, PlansSignaturesAndPlanTextStayFrozen) {
  const std::vector<RegistrationRow> rows = MeasureAll();
  std::string all;
  for (const RegistrationRow& r : rows) all += RowText(r) + "\n";
  ASSERT_EQ(rows.size(), kFrozenRegistrations.size()) << all;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RegistrationRow& got = rows[i];
    const RegistrationRow& want = kFrozenRegistrations[i];
    SCOPED_TRACE(RowText(got));
    EXPECT_STREQ(got.set, want.set);
    EXPECT_EQ(got.workers, want.workers);
    EXPECT_EQ(got.ops, want.ops);
    EXPECT_EQ(got.shared, want.shared);
    EXPECT_EQ(got.cross_shared, want.cross_shared);
    EXPECT_EQ(got.explain, want.explain);
    EXPECT_EQ(got.queries, want.queries);
    EXPECT_EQ(got.windows, want.windows);
  }
}

// ---------------------------------------------------------------------------
// Error parity
// ---------------------------------------------------------------------------

struct ErrorCase {
  const char* name;
  StatusCode code;
  const char* message;
};

/// Vocabulary with input labels a, b, c and derived label D.
Vocabulary ErrorVocab() {
  Vocabulary vocab;
  for (const char* l : {"a", "b", "c"}) (void)vocab.InternInputLabel(l);
  (void)vocab.InternDerivedLabel("D");
  return vocab;
}

Status ParseStatus(const std::string& text) {
  Vocabulary vocab = ErrorVocab();
  return ParseRq(text, &vocab).status();
}

/// Status of registering the parsed text (parse errors included), so a
/// query the parser accepts but translation refuses shows its own status.
Status AddQueryStatus(const std::string& text) {
  Vocabulary vocab = ErrorVocab();
  auto query = MakeQuery(text, kWindow, &vocab);
  if (!query.ok()) return query.status();
  Engine engine;
  return engine.AddQuery(*query, vocab).status();
}

BodyAtom Atom(LabelId label, const char* src, const char* trg,
              ClosureKind closure = ClosureKind::kNone,
              LabelId alias = kInvalidLabel) {
  BodyAtom atom;
  atom.label = label;
  atom.src = src;
  atom.trg = trg;
  atom.closure = closure;
  atom.alias = alias;
  return atom;
}

Rule MakeRule(LabelId head, const char* src, const char* trg,
              std::vector<BodyAtom> body) {
  Rule rule;
  rule.head = head;
  rule.head_src = src;
  rule.head_trg = trg;
  rule.body = std::move(body);
  return rule;
}

/// Labels of the hand-built queries, interned into ErrorVocab() order:
/// a = 0, b = 1, c = 2, D = 3, then Answer = 4, E = 5, F = 6.
struct HandLabels {
  Vocabulary vocab = ErrorVocab();
  LabelId a = *vocab.FindLabel("a");
  LabelId b = *vocab.FindLabel("b");
  LabelId d = *vocab.FindLabel("D");
  LabelId answer = *vocab.InternDerivedLabel("Answer");
  LabelId e = *vocab.InternDerivedLabel("E");
  LabelId f = *vocab.InternDerivedLabel("F");
};

/// One hand-built RegularQuery per Validate branch, keyed by name. Each
/// is checked three ways: Validate, translation, and Engine::AddQuery.
RegularQuery HandBuilt(const std::string& name, const HandLabels& l) {
  RegularQuery rq;
  if (name == "no-rules") {
    rq.SetAnswer(l.answer);
  } else if (name == "no-answer") {
    rq.AddRule(MakeRule(l.answer, "x", "y", {Atom(l.a, "x", "y")}));
  } else if (name == "answer-undefined") {
    rq.AddRule(MakeRule(l.d, "x", "y", {Atom(l.a, "x", "y")}));
    rq.SetAnswer(l.answer);
  } else if (name == "input-head") {
    rq.AddRule(MakeRule(l.a, "x", "y", {Atom(l.b, "x", "y")}));
    rq.AddRule(MakeRule(l.answer, "x", "y", {Atom(l.a, "x", "y")}));
    rq.SetAnswer(l.answer);
  } else if (name == "empty-body") {
    rq.AddRule(MakeRule(l.answer, "x", "y", {}));
    rq.SetAnswer(l.answer);
  } else if (name == "unsafe-head") {
    rq.AddRule(MakeRule(l.answer, "x", "w", {Atom(l.a, "x", "y")}));
    rq.SetAnswer(l.answer);
  } else if (name == "closure-no-alias") {
    rq.AddRule(MakeRule(l.answer, "x", "y",
                        {Atom(l.a, "x", "y", ClosureKind::kPlus)}));
    rq.SetAnswer(l.answer);
  } else if (name == "input-alias") {
    rq.AddRule(MakeRule(l.answer, "x", "y",
                        {Atom(l.a, "x", "y", ClosureKind::kPlus, l.b)}));
    rq.SetAnswer(l.answer);
  } else if (name == "alias-is-head") {
    rq.AddRule(MakeRule(l.d, "x", "y", {Atom(l.a, "x", "y")}));
    rq.AddRule(MakeRule(l.answer, "x", "y",
                        {Atom(l.b, "x", "y", ClosureKind::kPlus, l.d)}));
    rq.SetAnswer(l.answer);
  } else if (name == "recursion") {
    // Answer -> E -> F (closure alias over E's rule) -> E.
    rq.AddRule(MakeRule(l.answer, "x", "y", {Atom(l.e, "x", "y")}));
    rq.AddRule(MakeRule(l.e, "x", "y",
                        {Atom(l.e, "x", "z", ClosureKind::kPlus, l.f),
                         Atom(l.a, "z", "y")}));
    rq.SetAnswer(l.answer);
  } else if (name == "self-recursion") {
    rq.AddRule(MakeRule(l.answer, "x", "y",
                        {Atom(l.answer, "x", "z"), Atom(l.a, "z", "y")}));
    rq.SetAnswer(l.answer);
  } else if (name == "unsafe-after-star") {
    // Safe as written; the empty-path variant drops a*(x,z) and leaves x
    // in no atom, so only the expanded query fails validation.
    rq.AddRule(MakeRule(l.answer, "x", "y",
                        {Atom(l.a, "x", "z", ClosureKind::kStar, l.e),
                         Atom(l.b, "w", "y")}));
    rq.SetAnswer(l.answer);
  } else if (name == "shared-alias") {
    // Two star atoms naming one alias.
    rq.AddRule(MakeRule(l.answer, "x", "y",
                        {Atom(l.a, "x", "z", ClosureKind::kStar, l.e),
                         Atom(l.b, "z", "y", ClosureKind::kStar, l.e)}));
    rq.SetAnswer(l.answer);
  }
  return rq;
}

const char* const kHandBuilt[] = {
    "no-rules",        "no-answer",        "answer-undefined",
    "input-head",      "empty-body",       "unsafe-head",
    "closure-no-alias", "input-alias",     "alias-is-head",
    "recursion",       "self-recursion",   "unsafe-after-star",
    "shared-alias",
};

/// Every statused registration step, in a fixed order: parser inputs, then
/// hand-built queries (Validate / translation / AddQuery), then plans
/// (ValidatePlan / AddPlan), then live-attach refusals.
std::vector<std::pair<std::string, Status>> AllErrorStatuses() {
  std::vector<std::pair<std::string, Status>> out;
  const std::vector<std::pair<const char*, const char*>> texts = {
      {"missing-arrow", "Answer(x,y) a(x,y)"},
      {"head-ident", "(x,y) <- a(x,y)"},
      {"head-paren", "Answer x,y) <- a(x,y)"},
      {"head-comma", "Answer(x y) <- a(x,y)"},
      {"head-close", "Answer(x,y <- a(x,y)"},
      {"head-closure", "Answer+(x,y) <- a(x,y)"},
      {"body-empty", "Answer(x,y) <- "},
      {"body-ident", "Answer(x,y) <- a(x,)"},
      {"body-close", "Answer(x,y) <- a(x,y"},
      {"body-separator", "Answer(x,y) <- a(x,y) b(y,z)"},
      {"second-line", "# comment\n\nAnswer(x,y) <- a(x,y)\nD(x y) <- a(x,y)"},
      {"no-rules", "# nothing but a comment\n"},
      {"no-answer", "E(x,y) <- a(x,y)"},
      {"head-is-input", "a(x,y) <- b(x,y)\nAnswer(x,y) <- a(x,y)"},
      {"alias-is-input", "Answer(x,y) <- a+(x,y) as b"},
      {"unsafe-head", "Answer(x,w) <- a(x,y)"},
      {"alias-is-head", "E(x,y) <- a(x,y)\nAnswer(x,y) <- b+(x,y) as E"},
      {"self-recursion", "Answer(x,y) <- Answer(x,z), a(z,y)"},
      {"mutual-recursion",
       "E(x,y) <- F(x,y)\nF(x,y) <- E(x,y)\nAnswer(x,y) <- E(x,y)"},
      {"closure-recursion",
       "E(x,y) <- G+(x,y) as F\nG(x,y) <- F(x,y)\nAnswer(x,y) <- E(x,y)"},
      {"unsafe-after-star", "Answer(x,y) <- a*(x,z), b(w,y)"},
      {"ok-star", "Answer(x,y) <- a(x,z), b*(z,y)"},
  };
  for (const auto& [name, text] : texts) {
    out.emplace_back(std::string("parse/") + name, ParseStatus(text));
    out.emplace_back(std::string("add/") + name, AddQueryStatus(text));
  }
  // Answer is already interned, so a text without an Answer rule passes the
  // parser's lookup and fails validation instead.
  {
    Vocabulary vocab = ErrorVocab();
    (void)vocab.InternDerivedLabel("Answer");
    out.emplace_back("parse/answer-interned",
                     ParseRq("E(x,y) <- a(x,y)", &vocab).status());
  }

  for (const char* name : kHandBuilt) {
    HandLabels labels;
    StreamingGraphQuery query;
    query.rq = HandBuilt(name, labels);
    query.window = kWindow;
    out.emplace_back(std::string("validate/") + name,
                     query.rq.Validate(labels.vocab));
    out.emplace_back(std::string("topo/") + name,
                     query.rq.TopologicalOrder().status());
    out.emplace_back(std::string("translate/") + name,
                     TranslateToCanonicalPlan(query, labels.vocab).status());
    Engine engine;
    out.emplace_back(std::string("engine/") + name,
                     engine.AddQuery(query, labels.vocab).status());
  }

  // ValidatePlan: one plan per branch, and one nested a level down.
  Vocabulary vocab = ErrorVocab();
  const LabelId a = *vocab.FindLabel("a");
  const LabelId b = *vocab.FindLabel("b");
  const LabelId c = *vocab.FindLabel("c");
  const LabelId d = *vocab.FindLabel("D");
  auto scan = [&](LabelId l) { return MakeWScan(l, kWindow); };
  auto kids = [](std::vector<LogicalPlan>* v, LogicalPlan p) {
    v->push_back(std::move(p));
  };
  std::vector<std::pair<std::string, LogicalPlan>> plans;
  {
    auto plan = scan(a);
    plan->children.push_back(scan(b));
    plans.emplace_back("wscan-leaf", std::move(plan));
  }
  plans.emplace_back("wscan-size", MakeWScan(a, WindowSpec(0, 1)));
  plans.emplace_back("wscan-slide", MakeWScan(a, WindowSpec(10, 0)));
  {
    auto plan = MakeFilter({}, scan(a));
    plan->children.push_back(scan(b));
    plans.emplace_back("filter-children", std::move(plan));
  }
  plans.emplace_back("union-empty", MakeUnion(d, {}));
  {
    std::vector<LogicalPlan> v;
    kids(&v, scan(a));
    plans.emplace_back("union-input-label", MakeUnion(b, std::move(v)));
  }
  plans.emplace_back("pattern-empty", MakePattern(d, {}, "x", "y", {}));
  {
    std::vector<LogicalPlan> v;
    kids(&v, scan(a));
    kids(&v, scan(b));
    plans.emplace_back("pattern-arity",
                       MakePattern(d, {{"x", "y"}}, "x", "y", std::move(v)));
  }
  {
    std::vector<LogicalPlan> v;
    kids(&v, scan(a));
    plans.emplace_back("pattern-input-label",
                       MakePattern(c, {{"x", "y"}}, "x", "y", std::move(v)));
  }
  {
    std::vector<LogicalPlan> v;
    kids(&v, scan(a));
    kids(&v, scan(b));
    plans.emplace_back("pattern-endpoint",
                       MakePattern(d, {{"x", "y"}, {"y", "z"}}, "x", "w",
                                   std::move(v)));
  }
  plans.emplace_back("path-empty",
                     MakePath(d, Regex::Plus(Regex::Label(a)), {}));
  {
    std::vector<LogicalPlan> v;
    kids(&v, scan(a));
    plans.emplace_back("path-input-label",
                       MakePath(b, Regex::Plus(Regex::Label(a)), std::move(v)));
  }
  {
    std::vector<LogicalPlan> v;
    kids(&v, MakeUnion(kInvalidLabel, [&] {
           std::vector<LogicalPlan> u;
           u.push_back(scan(a));
           u.push_back(scan(b));
           return u;
         }()));
    plans.emplace_back("path-mixed-child",
                       MakePath(d, Regex::Plus(Regex::Label(a)), std::move(v)));
  }
  {
    std::vector<LogicalPlan> v;
    kids(&v, scan(a));
    kids(&v, scan(b));
    plans.emplace_back(
        "path-alphabet",
        MakePath(d,
                 Regex::Concat({Regex::Label(a), Regex::Label(c),
                                Regex::Label(b)}),
                 std::move(v)));
  }
  {
    std::vector<LogicalPlan> inner;
    kids(&inner, scan(a));
    std::vector<LogicalPlan> v;
    kids(&v, MakePattern(d, {{"x", "y"}}, "x", "q", std::move(inner)));
    plans.emplace_back("nested",
                       MakePath(*vocab.InternDerivedLabel("P"),
                                Regex::Plus(Regex::Label(d)), std::move(v)));
  }
  for (const auto& [name, plan] : plans) {
    out.emplace_back("plan/" + name, ValidatePlan(*plan, vocab));
    Engine engine;
    out.emplace_back("addplan/" + name, engine.AddPlan(*plan, vocab).status());
  }

  // Live attach: a finer slide is refused; a malformed plan is refused by
  // validation first.
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    EngineOptions options;
    options.num_workers = workers;
    Engine engine(options);
    Vocabulary v = ErrorVocab();
    auto base = MakeQuery("Answer(x,y) <- a(x,y)", WindowSpec(30, 10), &v);
    EXPECT_TRUE(base.ok());
    EXPECT_TRUE(engine.AddQuery(*base, v).ok());
    EXPECT_TRUE(engine.Finalize().ok());
    const std::string w = std::to_string(workers);
    auto finer = MakeQuery("Answer(x,y) <- b(x,z), a(z,y)", WindowSpec(30, 5),
                           &v);
    EXPECT_TRUE(finer.ok());
    out.emplace_back("live-query/" + w, engine.AddQuery(*finer, v).status());
    auto finer_plan = MakeWScan(*v.FindLabel("c"), WindowSpec(30, 3));
    out.emplace_back("live-plan/" + w,
                     engine.AddPlan(*finer_plan, v).status());
    auto bad = MakeWScan(*v.FindLabel("c"), WindowSpec(30, 0));
    const std::size_t ops = engine.NumOperators();
    out.emplace_back("live-invalid/" + w, engine.AddPlan(*bad, v).status());
    EXPECT_EQ(engine.NumOperators(), ops);  // refusals leave no operator
  }
  return out;
}

std::string CaseText(const std::string& name, const Status& st) {
  std::string escaped;
  for (char ch : st.message()) {
    if (ch == '"' || ch == '\\') escaped += '\\';
    escaped += ch;
  }
  const std::string code =
      st.ok() ? "Ok" : StatusCodeToString(st.code());
  return "{\"" + name + "\", StatusCode::k" + code + ", \"" + escaped +
         "\"},";
}

// Recorded before registration became one pass: every rejected input keeps
// its status code and its full message.
const std::vector<ErrorCase> kFrozenErrors = {
    {"parse/missing-arrow", StatusCode::kParseError, "line 1: missing '<-'"},
    {"add/missing-arrow", StatusCode::kParseError, "line 1: missing '<-'"},
    {"parse/head-ident",
     StatusCode::kParseError, "line 1 (head): expected identifier at offset 0"},
    {"add/head-ident",
     StatusCode::kParseError, "line 1 (head): expected identifier at offset 0"},
    {"parse/head-paren",
     StatusCode::kParseError, "line 1 (head): expected '(' at offset 7"},
    {"add/head-paren",
     StatusCode::kParseError, "line 1 (head): expected '(' at offset 7"},
    {"parse/head-comma",
     StatusCode::kParseError, "line 1 (head): expected ',' at offset 9"},
    {"add/head-comma",
     StatusCode::kParseError, "line 1 (head): expected ',' at offset 9"},
    {"parse/head-close",
     StatusCode::kParseError, "line 1 (head): expected ')' at offset 11"},
    {"add/head-close",
     StatusCode::kParseError, "line 1 (head): expected ')' at offset 11"},
    {"parse/head-closure",
     StatusCode::kParseError, "line 1: rule head cannot carry closure"},
    {"add/head-closure",
     StatusCode::kParseError, "line 1: rule head cannot carry closure"},
    {"parse/body-empty",
     StatusCode::kParseError, "line 1 (body): expected identifier at offset 0"},
    {"add/body-empty",
     StatusCode::kParseError, "line 1 (body): expected identifier at offset 0"},
    {"parse/body-ident",
     StatusCode::kParseError, "line 1 (body): expected identifier at offset 5"},
    {"add/body-ident",
     StatusCode::kParseError, "line 1 (body): expected identifier at offset 5"},
    {"parse/body-close",
     StatusCode::kParseError, "line 1 (body): expected ')' at offset 6"},
    {"add/body-close",
     StatusCode::kParseError, "line 1 (body): expected ')' at offset 6"},
    {"parse/body-separator",
     StatusCode::kParseError, "line 1: expected ',' between atoms"},
    {"add/body-separator",
     StatusCode::kParseError, "line 1: expected ',' between atoms"},
    {"parse/second-line",
     StatusCode::kParseError, "line 4 (head): expected ',' at offset 4"},
    {"add/second-line",
     StatusCode::kParseError, "line 4 (head): expected ',' at offset 4"},
    {"parse/no-rules", StatusCode::kParseError, "no rules in query text"},
    {"add/no-rules", StatusCode::kParseError, "no rules in query text"},
    {"parse/no-answer",
     StatusCode::kParseError, "query must define an 'Answer' (or 'Ans') rule"},
    {"add/no-answer",
     StatusCode::kParseError, "query must define an 'Answer' (or 'Ans') rule"},
    {"parse/head-is-input",
     StatusCode::kAlreadyExists, "label 'a' already interned as input"},
    {"add/head-is-input",
     StatusCode::kAlreadyExists, "label 'a' already interned as input"},
    {"parse/alias-is-input",
     StatusCode::kAlreadyExists, "label 'b' already interned as input"},
    {"add/alias-is-input",
     StatusCode::kAlreadyExists, "label 'b' already interned as input"},
    {"parse/unsafe-head",
     StatusCode::kInvalidArgument,
     "head variables of 'Answer' must appear in the rule body (safety)"},
    {"add/unsafe-head",
     StatusCode::kInvalidArgument,
     "head variables of 'Answer' must appear in the rule body (safety)"},
    {"parse/alias-is-head",
     StatusCode::kInvalidArgument,
     "closure alias 'E' collides with a rule head"},
    {"add/alias-is-head",
     StatusCode::kInvalidArgument,
     "closure alias 'E' collides with a rule head"},
    {"parse/self-recursion",
     StatusCode::kInvalidArgument,
     "recursive dependency through predicate id 4 (RQ must be non-recursive)"},
    {"add/self-recursion",
     StatusCode::kInvalidArgument,
     "recursive dependency through predicate id 4 (RQ must be non-recursive)"},
    {"parse/mutual-recursion",
     StatusCode::kInvalidArgument,
     "recursive dependency through predicate id 5 (RQ must be non-recursive)"},
    {"add/mutual-recursion",
     StatusCode::kInvalidArgument,
     "recursive dependency through predicate id 5 (RQ must be non-recursive)"},
    {"parse/closure-recursion",
     StatusCode::kInvalidArgument,
     "recursive dependency through predicate id 6 (RQ must be non-recursive)"},
    {"add/closure-recursion",
     StatusCode::kInvalidArgument,
     "recursive dependency through predicate id 6 (RQ must be non-recursive)"},
    {"parse/unsafe-after-star", StatusCode::kOk, ""},
    {"add/unsafe-after-star",
     StatusCode::kInvalidArgument,
     "head variables of 'Answer' must appear in the rule body (safety)"},
    {"parse/ok-star", StatusCode::kOk, ""},
    {"add/ok-star", StatusCode::kOk, ""},
    {"parse/answer-interned",
     StatusCode::kInvalidArgument, "no rule defines the Answer predicate"},
    {"validate/no-rules", StatusCode::kInvalidArgument, "RQ has no rules"},
    {"topo/no-rules", StatusCode::kOk, ""},
    {"translate/no-rules", StatusCode::kInvalidArgument, "RQ has no rules"},
    {"engine/no-rules", StatusCode::kInvalidArgument, "RQ has no rules"},
    {"validate/no-answer",
     StatusCode::kInvalidArgument, "RQ has no Answer predicate"},
    {"topo/no-answer", StatusCode::kOk, ""},
    {"translate/no-answer",
     StatusCode::kInvalidArgument, "RQ has no Answer predicate"},
    {"engine/no-answer",
     StatusCode::kInvalidArgument, "RQ has no Answer predicate"},
    {"validate/answer-undefined",
     StatusCode::kInvalidArgument, "no rule defines the Answer predicate"},
    {"topo/answer-undefined", StatusCode::kOk, ""},
    {"translate/answer-undefined",
     StatusCode::kInvalidArgument, "no rule defines the Answer predicate"},
    {"engine/answer-undefined",
     StatusCode::kInvalidArgument, "no rule defines the Answer predicate"},
    {"validate/input-head",
     StatusCode::kInvalidArgument,
     "rule head 'a' is an input label; heads must be derived (Def. 13)"},
    {"topo/input-head", StatusCode::kOk, ""},
    {"translate/input-head",
     StatusCode::kInvalidArgument,
     "rule head 'a' is an input label; heads must be derived (Def. 13)"},
    {"engine/input-head",
     StatusCode::kInvalidArgument,
     "rule head 'a' is an input label; heads must be derived (Def. 13)"},
    {"validate/empty-body",
     StatusCode::kInvalidArgument, "rule for 'Answer' has an empty body"},
    {"topo/empty-body", StatusCode::kOk, ""},
    {"translate/empty-body",
     StatusCode::kInvalidArgument, "rule for 'Answer' has an empty body"},
    {"engine/empty-body",
     StatusCode::kInvalidArgument, "rule for 'Answer' has an empty body"},
    {"validate/unsafe-head",
     StatusCode::kInvalidArgument,
     "head variables of 'Answer' must appear in the rule body (safety)"},
    {"topo/unsafe-head", StatusCode::kOk, ""},
    {"translate/unsafe-head",
     StatusCode::kInvalidArgument,
     "head variables of 'Answer' must appear in the rule body (safety)"},
    {"engine/unsafe-head",
     StatusCode::kInvalidArgument,
     "head variables of 'Answer' must appear in the rule body (safety)"},
    {"validate/closure-no-alias",
     StatusCode::kInvalidArgument,
     "closure atom over 'a' lacks an alias label"},
    {"topo/closure-no-alias", StatusCode::kOk, ""},
    {"translate/closure-no-alias",
     StatusCode::kInvalidArgument,
     "closure atom over 'a' lacks an alias label"},
    {"engine/closure-no-alias",
     StatusCode::kInvalidArgument,
     "closure atom over 'a' lacks an alias label"},
    {"validate/input-alias",
     StatusCode::kInvalidArgument,
     "closure alias 'b' is an input label; aliases must be derived"},
    {"topo/input-alias", StatusCode::kOk, ""},
    {"translate/input-alias",
     StatusCode::kInvalidArgument,
     "closure alias 'b' is an input label; aliases must be derived"},
    {"engine/input-alias",
     StatusCode::kInvalidArgument,
     "closure alias 'b' is an input label; aliases must be derived"},
    {"validate/alias-is-head",
     StatusCode::kInvalidArgument,
     "closure alias 'D' collides with a rule head"},
    {"topo/alias-is-head", StatusCode::kOk, ""},
    {"translate/alias-is-head",
     StatusCode::kInvalidArgument,
     "closure alias 'D' collides with a rule head"},
    {"engine/alias-is-head",
     StatusCode::kInvalidArgument,
     "closure alias 'D' collides with a rule head"},
    {"validate/recursion",
     StatusCode::kInvalidArgument,
     "recursive dependency through predicate id 5 (RQ must be non-recursive)"},
    {"topo/recursion",
     StatusCode::kInvalidArgument,
     "recursive dependency through predicate id 5 (RQ must be non-recursive)"},
    {"translate/recursion",
     StatusCode::kInvalidArgument,
     "recursive dependency through predicate id 5 (RQ must be non-recursive)"},
    {"engine/recursion",
     StatusCode::kInvalidArgument,
     "recursive dependency through predicate id 5 (RQ must be non-recursive)"},
    {"validate/self-recursion",
     StatusCode::kInvalidArgument,
     "recursive dependency through predicate id 4 (RQ must be non-recursive)"},
    {"topo/self-recursion",
     StatusCode::kInvalidArgument,
     "recursive dependency through predicate id 4 (RQ must be non-recursive)"},
    {"translate/self-recursion",
     StatusCode::kInvalidArgument,
     "recursive dependency through predicate id 4 (RQ must be non-recursive)"},
    {"engine/self-recursion",
     StatusCode::kInvalidArgument,
     "recursive dependency through predicate id 4 (RQ must be non-recursive)"},
    {"validate/unsafe-after-star", StatusCode::kOk, ""},
    {"topo/unsafe-after-star", StatusCode::kOk, ""},
    {"translate/unsafe-after-star",
     StatusCode::kInvalidArgument,
     "head variables of 'Answer' must appear in the rule body (safety)"},
    {"engine/unsafe-after-star",
     StatusCode::kInvalidArgument,
     "head variables of 'Answer' must appear in the rule body (safety)"},
    {"validate/shared-alias", StatusCode::kOk, ""},
    {"topo/shared-alias", StatusCode::kOk, ""},
    {"translate/shared-alias", StatusCode::kOk, ""},
    {"engine/shared-alias", StatusCode::kOk, ""},
    {"plan/wscan-leaf", StatusCode::kInvalidArgument, "WSCAN must be a leaf"},
    {"addplan/wscan-leaf",
     StatusCode::kInvalidArgument, "WSCAN must be a leaf"},
    {"plan/wscan-size",
     StatusCode::kInvalidArgument, "WSCAN window must be positive"},
    {"addplan/wscan-size",
     StatusCode::kInvalidArgument, "WSCAN window must be positive"},
    {"plan/wscan-slide",
     StatusCode::kInvalidArgument, "WSCAN window must be positive"},
    {"addplan/wscan-slide",
     StatusCode::kInvalidArgument, "WSCAN window must be positive"},
    {"plan/filter-children",
     StatusCode::kInvalidArgument, "FILTER must have exactly one child"},
    {"addplan/filter-children",
     StatusCode::kInvalidArgument, "FILTER must have exactly one child"},
    {"plan/union-empty",
     StatusCode::kInvalidArgument, "UNION needs at least one child"},
    {"addplan/union-empty",
     StatusCode::kInvalidArgument, "UNION needs at least one child"},
    {"plan/union-input-label",
     StatusCode::kInvalidArgument,
     "UNION output label must be derived (Def. 18)"},
    {"addplan/union-input-label",
     StatusCode::kInvalidArgument,
     "UNION output label must be derived (Def. 18)"},
    {"plan/pattern-empty",
     StatusCode::kInvalidArgument, "PATTERN needs at least one child"},
    {"addplan/pattern-empty",
     StatusCode::kInvalidArgument, "PATTERN needs at least one child"},
    {"plan/pattern-arity",
     StatusCode::kInvalidArgument,
     "PATTERN child count does not match variable pairs"},
    {"addplan/pattern-arity",
     StatusCode::kInvalidArgument,
     "PATTERN child count does not match variable pairs"},
    {"plan/pattern-input-label",
     StatusCode::kInvalidArgument,
     "PATTERN output label must be derived (Def. 19)"},
    {"addplan/pattern-input-label",
     StatusCode::kInvalidArgument,
     "PATTERN output label must be derived (Def. 19)"},
    {"plan/pattern-endpoint",
     StatusCode::kInvalidArgument,
     "PATTERN output endpoints must be variables of the pattern"},
    {"addplan/pattern-endpoint",
     StatusCode::kInvalidArgument,
     "PATTERN output endpoints must be variables of the pattern"},
    {"plan/path-empty",
     StatusCode::kInvalidArgument, "PATH needs at least one child"},
    {"addplan/path-empty",
     StatusCode::kInvalidArgument, "PATH needs at least one child"},
    {"plan/path-input-label",
     StatusCode::kInvalidArgument,
     "PATH output label must be derived (Def. 20)"},
    {"addplan/path-input-label",
     StatusCode::kInvalidArgument,
     "PATH output label must be derived (Def. 20)"},
    {"plan/path-mixed-child",
     StatusCode::kInvalidArgument,
     "PATH child produces tuples without a single label"},
    {"addplan/path-mixed-child",
     StatusCode::kInvalidArgument,
     "PATH child produces tuples without a single label"},
    {"plan/path-alphabet",
     StatusCode::kInvalidArgument,
     "PATH regex label 'c' is not produced by any child"},
    {"addplan/path-alphabet",
     StatusCode::kInvalidArgument,
     "PATH regex label 'c' is not produced by any child"},
    {"plan/nested",
     StatusCode::kInvalidArgument,
     "PATTERN output endpoints must be variables of the pattern"},
    {"addplan/nested",
     StatusCode::kInvalidArgument,
     "PATTERN output endpoints must be variables of the pattern"},
    {"live-query/1",
     StatusCode::kInvalidArgument,
     "live attach refused: window slide 5 is finer than the running engine "
     "granularity 10 (fixed when the engine was finalized)"},
    {"live-plan/1",
     StatusCode::kInvalidArgument,
     "live attach refused: window slide 3 is finer than the running engine "
     "granularity 10 (fixed when the engine was finalized)"},
    {"live-invalid/1",
     StatusCode::kInvalidArgument, "WSCAN window must be positive"},
    {"live-query/4",
     StatusCode::kInvalidArgument,
     "live attach refused: window slide 5 is finer than the running engine "
     "granularity 10 (fixed when the engine was finalized)"},
    {"live-plan/4",
     StatusCode::kInvalidArgument,
     "live attach refused: window slide 3 is finer than the running engine "
     "granularity 10 (fixed when the engine was finalized)"},
    {"live-invalid/4",
     StatusCode::kInvalidArgument, "WSCAN window must be positive"},
};

TEST(RegistrationErrorTest, EveryRejectionKeepsItsCodeAndMessage) {
  const auto got = AllErrorStatuses();
  std::string all;
  for (const auto& [name, st] : got) all += CaseText(name, st) + "\n";
  ASSERT_EQ(got.size(), kFrozenErrors.size()) << all;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& [name, st] = got[i];
    const ErrorCase& want = kFrozenErrors[i];
    SCOPED_TRACE(CaseText(name, st));
    EXPECT_EQ(name, want.name);
    EXPECT_EQ(st.code(), want.code);
    EXPECT_EQ(st.message(), want.message);
  }
}

}  // namespace
}  // namespace sgq

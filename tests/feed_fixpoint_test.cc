// Differential coverage of the change-driven feed fixpoint
// (RunFeedFixpoint): it skips feeds whose inputs and target did not move
// since their last evaluation and stops period-one oscillations early, and
// must still return exactly what the plain loop returns — the same final
// instance (absent and empty relations told apart) and the same iteration
// count — for every input and every `max_iterations`. The plain loop lives
// here, as the oracle, and is checked against production on the literature
// suite, seeded reconciliation problems and hand-built corner cases.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/algebra/builders.h"
#include "src/compose/compose.h"
#include "src/eval/checker.h"
#include "src/eval/generator.h"
#include "src/eval/materialize.h"
#include "src/op/registry.h"
#include "src/parser/parser.h"
#include "src/simulator/scenarios.h"
#include "src/testdata/literature_suite.h"

namespace mapcomp {
namespace {

/// The plain fixpoint: every round evaluates every feed against the current
/// instance, in order, until a round changes nothing or `max_iterations`
/// rounds have run.
int NaiveFeedFixpoint(Instance* instance,
                      const std::vector<RelationFeed>& feeds,
                      const EvalOptions& options, int max_iterations,
                      EvalStats* stats) {
  int iterations = 0;
  for (int iter = 0; iter < max_iterations; ++iter) {
    iterations = iter + 1;
    bool changed = false;
    for (const RelationFeed& feed : feeds) {
      Result<EvalResult> value = EvaluateFull(feed.source, *instance, options);
      if (!value.ok()) continue;
      EvalResult result = std::move(value).value();
      if (stats != nullptr) stats->MergeFrom(result.stats);
      if (feed.assign) {
        if (instance->Get(feed.target) != result.tuples()) {
          instance->Set(feed.target, result.TakeTuples());
          changed = true;
        }
        continue;
      }
      const std::set<Tuple>& current = instance->Get(feed.target);
      for (const Tuple& t : result.tuples()) {
        if (current.count(t) == 0) {
          instance->Add(feed.target, t);
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return iterations;
}

/// Both fixpoints from copies of `start`, reporting the evaluation counters
/// of each.
struct Outcome {
  Instance instance;
  int iterations = 0;
  EvalStats stats;
};

Outcome RunProduction(const Instance& start,
                      const std::vector<RelationFeed>& feeds,
                      const EvalOptions& options, int max_iterations) {
  Outcome out{start, 0, {}};
  out.iterations = RunFeedFixpoint(&out.instance, feeds, options,
                                   max_iterations, &out.stats);
  return out;
}

Outcome RunNaive(const Instance& start, const std::vector<RelationFeed>& feeds,
                 const EvalOptions& options, int max_iterations) {
  Outcome out{start, 0, {}};
  out.iterations = NaiveFeedFixpoint(&out.instance, feeds, options,
                                     max_iterations, &out.stats);
  return out;
}

/// Production must match the oracle exactly and never evaluate more nodes.
/// Returns the production outcome.
Outcome ExpectMatchesOracle(const Instance& start,
                            const std::vector<RelationFeed>& feeds,
                            const EvalOptions& options, int max_iterations,
                            const std::string& label) {
  Outcome naive = RunNaive(start, feeds, options, max_iterations);
  Outcome fast = RunProduction(start, feeds, options, max_iterations);
  EXPECT_EQ(fast.iterations, naive.iterations) << label;
  // operator== tells an absent relation from an empty one.
  EXPECT_TRUE(fast.instance == naive.instance)
      << label << "\nproduction:\n"
      << fast.instance.ToString() << "oracle:\n"
      << naive.instance.ToString();
  EXPECT_LE(fast.stats.nodes_evaluated, naive.stats.nodes_evaluated) << label;
  return fast;
}

constexpr int kMaxIterations[] = {1, 3, 16};

/// The differential sweep over one problem: the repair feeds of the
/// original pipeline (assigning equalities, as the soundness harness
/// repairs), and the grow-only feeds of the whole original-plus-composed
/// set under injective Skolem terms, from seeded random instances. Returns
/// how many repairs ran all 16 rounds in the oracle while production
/// evaluated less (the oscillation shortcut at work).
int SweepProblem(const CompositionProblem& problem, uint64_t seed,
                 int n_instances, const std::string& label) {
  CompositionResult composed = Compose(problem);
  ConstraintSet original = problem.sigma12;
  original.insert(original.end(), problem.sigma23.begin(),
                  problem.sigma23.end());
  ConstraintSet all = original;
  all.insert(all.end(), composed.constraints.begin(),
             composed.constraints.end());

  std::vector<RelationFeed> repair =
      CollectFeeds(original, nullptr, /*assign_equalities=*/true);
  std::vector<RelationFeed> grow =
      CollectFeeds(all, nullptr, /*assign_equalities=*/false);
  EvalOptions repair_opts;
  repair_opts.extra_constants = CollectConstants(all);
  EvalOptions grow_opts = repair_opts;
  grow_opts.skolem_mode = SkolemEvalMode::kInjectiveTerms;

  int shortcuts = 0;
  std::mt19937_64 rng(seed);
  for (int i = 0; i < n_instances; ++i) {
    Instance start = RandomInstanceOver(
        {&problem.sigma1, &problem.sigma2, &problem.sigma3}, &rng);
    for (int max_iterations : kMaxIterations) {
      std::string at = label + " instance " + std::to_string(i) +
                       " max_iterations " + std::to_string(max_iterations);
      Outcome fast = ExpectMatchesOracle(start, repair, repair_opts,
                                         max_iterations, at + " (repair)");
      if (max_iterations == 16 && fast.iterations == 16) {
        Outcome naive = RunNaive(start, repair, repair_opts, max_iterations);
        if (fast.stats.nodes_evaluated < naive.stats.nodes_evaluated) {
          ++shortcuts;
        }
      }
      ExpectMatchesOracle(start, grow, grow_opts, max_iterations,
                          at + " (grow)");
    }
  }
  return shortcuts;
}

TEST(FeedFixpointTest, LiteratureSuiteMatchesPlainLoop) {
  Parser parser;
  uint64_t seed = 101;
  for (const testdata::LiteratureProblem& lit : testdata::LiteratureSuite()) {
    CompositionProblem problem = parser.ParseProblem(lit.text).value();
    SweepProblem(problem, seed++, /*n_instances=*/4, lit.name);
  }
}

TEST(FeedFixpointTest, ReconciliationProblemsMatchPlainLoop) {
  // The soundness sweep's problem shape: 3-relation schemas, 3 edits per
  // branch, arity at most 3.
  int shortcuts = 0;
  for (uint64_t seed = 1; seed <= 128; ++seed) {
    sim::ReconciliationScenarioOptions options;
    options.schema_size = 3;
    options.num_edits = 3;
    options.simulator.primitives.max_arity = 3;
    options.seed = seed;
    shortcuts += SweepProblem(sim::BuildReconciliationProblem(options),
                              seed * 7919, /*n_instances=*/3,
                              "reconciliation " + std::to_string(seed));
  }
  // The corpus does contain oscillating repairs, so the sweep covers the
  // shortcut and not only the skip rule.
  EXPECT_GT(shortcuts, 0);
}

TEST(FeedFixpointTest, RepairTowardsMatchesPlainLoop) {
  Parser parser;
  for (const testdata::LiteratureProblem& lit : testdata::LiteratureSuite()) {
    CompositionProblem problem = parser.ParseProblem(lit.text).value();
    ConstraintSet original = problem.sigma12;
    original.insert(original.end(), problem.sigma23.begin(),
                    problem.sigma23.end());
    EvalOptions opts;
    opts.extra_constants = CollectConstants(original);
    std::vector<RelationFeed> feeds = CollectFeeds(original, nullptr, true);
    std::mt19937_64 rng(31);
    Instance start = RandomInstanceOver(
        {&problem.sigma1, &problem.sigma2, &problem.sigma3}, &rng);
    for (int max_iterations : kMaxIterations) {
      Instance oracle = start;
      NaiveFeedFixpoint(&oracle, feeds, opts, max_iterations, nullptr);
      EXPECT_TRUE(RepairTowards(start, original, {}, max_iterations) ==
                  oracle)
          << lit.name << " max_iterations " << max_iterations;
    }
  }
}

Tuple T(std::initializer_list<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.push_back(Value(v));
  return t;
}

TEST(FeedFixpointTest, TwoEqualitiesAssigningOneRelationOscillate) {
  // R = π1(A) and R = π1(B) with A and B disagreeing: every round assigns R
  // twice and ends where it began, so the plain loop runs every round.
  std::vector<RelationFeed> feeds = {
      {"R", Project({1}, Rel("A", 2)), true},
      {"R", Project({1}, Rel("B", 2)), true}};
  Instance start;
  start.Set("A", {T({1, 1}), T({2, 2})});
  start.Set("B", {T({3, 3})});
  for (int max_iterations : {0, 1, 2, 3, 16}) {
    Outcome fast = ExpectMatchesOracle(start, feeds, {}, max_iterations,
                                       "max_iterations " +
                                           std::to_string(max_iterations));
    EXPECT_EQ(fast.iterations, max_iterations);
  }
  Outcome naive = RunNaive(start, feeds, {}, 16);
  Outcome fast = RunProduction(start, feeds, {}, 16);
  EXPECT_EQ(fast.instance.Get("R"), (std::set<Tuple>{T({3})}));
  // The oscillation is detected after the second round: 4 evaluations of
  // two nodes each instead of 32.
  EXPECT_LT(fast.stats.nodes_evaluated, naive.stats.nodes_evaluated / 4);

  // R starts absent, one feed fills it and the other empties it: the first
  // round already ends with the contents it began with, and the result
  // must still hold R as a present, empty relation, as the plain loop's
  // later rounds leave it.
  std::vector<RelationFeed> absent_feeds = {
      {"R", Project({1}, Rel("A", 2)), true},
      {"R", Project({1}, Rel("E", 2)), true}};
  for (int max_iterations : {1, 2, 3, 16}) {
    Outcome out = ExpectMatchesOracle(start, absent_feeds, {}, max_iterations,
                                      "absent R, max_iterations " +
                                          std::to_string(max_iterations));
    EXPECT_TRUE(out.instance.Has("R"));
    EXPECT_TRUE(out.instance.Get("R").empty());
    EXPECT_EQ(out.iterations, max_iterations);
  }
}

TEST(FeedFixpointTest, SelfFeedingContainmentReevaluatesItsOwnTarget) {
  // R ∪ S ⊆ R, with tc(R) ⊆ R closing R in one application.
  const op::Registry& reg = op::Registry::Default();
  std::vector<RelationFeed> feeds = {
      {"R", Union(Rel("R", 2), Rel("S", 2)), false},
      {"R", reg.MakeOp("tc", {Rel("R", 2)}).value(), false}};
  Instance start;
  start.Set("S", {T({1, 2}), T({2, 3}), T({3, 4}), T({4, 5})});
  for (int max_iterations : kMaxIterations) {
    ExpectMatchesOracle(start, feeds, {}, max_iterations,
                        "max_iterations " + std::to_string(max_iterations));
  }
  Outcome out = RunProduction(start, feeds, {}, 16);
  EXPECT_EQ(out.instance.Get("R").size(), 10u);  // closure of a 5-chain
  EXPECT_EQ(out.iterations, 2);

  // π₁,₃(R ⋈₂₌₁ S) ⊆ R extends every path by one edge per evaluation, so
  // only its own last change tells it to run again.
  std::vector<RelationFeed> step = {
      {"R", Project({1, 3}, EquiJoin(Rel("R", 2), Rel("S", 2), {{2, 1}})),
       false}};
  Instance one_edge;
  one_edge.Set("R", {T({1, 2})});
  one_edge.Set("S", start.Get("S"));
  for (int max_iterations : {1, 2, 3, 4, 16}) {
    ExpectMatchesOracle(one_edge, step, {}, max_iterations,
                        "path step, max_iterations " +
                            std::to_string(max_iterations));
  }
  Outcome paths = RunProduction(one_edge, step, {}, 16);
  EXPECT_EQ(paths.instance.Get("R").size(), 4u);  // 1→2, 1→3, 1→4, 1→5
  EXPECT_EQ(paths.iterations, 4);
}

TEST(FeedFixpointTest, ChainReadsAnotherFeedsTarget) {
  // C ⊇ B listed before B ⊇ A ⊇ σ(X): a change travels one link per round.
  std::vector<RelationFeed> feeds = {
      {"C", Rel("B", 1), false},
      {"B", Rel("A", 1), false},
      {"A", Select(Condition::AttrConst(1, CmpOp::kEq, Value(int64_t{7})),
                   Rel("X", 1)),
       false},
      {"Y", Rel("Z", 1), true}};  // never changes after round one
  Instance start;
  start.Set("X", {T({7}), T({8})});
  start.Set("Z", {T({1})});
  for (int max_iterations : {1, 2, 3, 4, 16}) {
    ExpectMatchesOracle(start, feeds, {}, max_iterations,
                        "max_iterations " + std::to_string(max_iterations));
  }
  Outcome naive = RunNaive(start, feeds, {}, 16);
  Outcome fast = RunProduction(start, feeds, {}, 16);
  EXPECT_EQ(fast.instance.Get("C"), (std::set<Tuple>{T({7})}));
  EXPECT_EQ(fast.iterations, 4);
  EXPECT_LT(fast.stats.nodes_evaluated, naive.stats.nodes_evaluated);
}

TEST(FeedFixpointTest, DomainReadingFeedSeesChangesItDoesNotName) {
  // S := D¹ − R reads the active domain: when U gains a fresh value, S must
  // be re-evaluated although it names neither U nor anything that changed.
  std::vector<RelationFeed> feeds = {
      {"S", Difference(Dom(1), Rel("R", 1)), true},
      {"U", Lit(1, {T({9})}), false}};
  Instance start;
  start.Set("R", {T({1})});
  start.Set("V", {T({2})});
  for (int max_iterations : kMaxIterations) {
    ExpectMatchesOracle(start, feeds, {}, max_iterations,
                        "max_iterations " + std::to_string(max_iterations));
  }
  Outcome out = RunProduction(start, feeds, {}, 16);
  EXPECT_EQ(out.instance.Get("S"), (std::set<Tuple>{T({2}), T({9})}));
}

TEST(FeedFixpointTest, UserOpFeedSeesChangesItDoesNotName) {
  // The same through a user operator: user ops receive the active domain,
  // so a source containing one reads the whole instance.
  op::Registry reg = op::Registry::Empty();
  op::OperatorDef complement;
  complement.name = "complement";
  complement.num_args = 1;
  complement.arity = [](const std::vector<int>& a) -> Result<int> {
    return a[0];
  };
  complement.polarity = {op::Polarity::kAnti};
  complement.eval = [](const Expr&,
                       const std::vector<const std::set<Tuple>*>& args,
                       const op::EvalContext& ctx) -> Result<std::set<Tuple>> {
    std::set<Tuple> out;
    for (const Value& v : *ctx.active_domain) {
      if (args[0]->count(Tuple{v}) == 0) out.insert(Tuple{v});
    }
    return out;
  };
  ASSERT_TRUE(reg.Register(std::move(complement)).ok());
  std::vector<RelationFeed> feeds = {
      {"S", reg.MakeOp("complement", {Rel("R", 1)}).value(), true},
      {"U", Lit(1, {T({9})}), false}};
  Instance start;
  start.Set("R", {T({1})});
  start.Set("V", {T({2})});
  EvalOptions options;
  options.registry = &reg;
  for (int max_iterations : kMaxIterations) {
    ExpectMatchesOracle(start, feeds, options, max_iterations,
                        "max_iterations " + std::to_string(max_iterations));
  }
  Outcome out = RunProduction(start, feeds, options, 16);
  EXPECT_EQ(out.instance.Get("S"), (std::set<Tuple>{T({2}), T({9})}));
}

TEST(FeedFixpointTest, FailingSkolemFeedContributesNothing) {
  // f(R) ⊆ S fails under SkolemEvalMode::kError every time it runs; R keeps
  // growing from Q, and S is also fed by a working feed.
  std::vector<RelationFeed> feeds = {
      {"S", SkolemApp("f", {1}, Rel("R", 1)), false},
      {"S", Product(Rel("R", 1), Rel("R", 1)), false},
      {"R", Rel("Q", 1), false}};
  Instance start;
  start.Set("Q", {T({1}), T({2})});
  EvalOptions error_mode;
  for (int max_iterations : kMaxIterations) {
    ExpectMatchesOracle(start, feeds, error_mode, max_iterations,
                        "max_iterations " + std::to_string(max_iterations));
  }
  Outcome out = RunProduction(start, feeds, error_mode, 16);
  EXPECT_EQ(out.instance.Get("S").size(), 4u);
  EXPECT_EQ(out.iterations, 3);

  EvalOptions terms;
  terms.skolem_mode = SkolemEvalMode::kInjectiveTerms;
  for (int max_iterations : kMaxIterations) {
    ExpectMatchesOracle(start, feeds, terms, max_iterations,
                        "injective, max_iterations " +
                            std::to_string(max_iterations));
  }
}

TEST(FeedFixpointTest, FailedFeedRunsAgainWhenItsInputsChange) {
  // π₁(D³) exhausts a 10-tuple domain guard over {1, 2, 3} and fits once
  // W := ∅ has taken 3 out of the active domain.
  std::vector<RelationFeed> feeds = {
      {"S", Project({1}, Dom(3)), false},
      {"W", EmptyRel(1), true}};
  Instance start;
  start.Set("V", {T({1}), T({2})});
  start.Set("W", {T({3})});
  EvalOptions guarded;
  guarded.max_domain_tuples = 10;
  for (int max_iterations : kMaxIterations) {
    ExpectMatchesOracle(start, feeds, guarded, max_iterations,
                        "max_iterations " + std::to_string(max_iterations));
  }
  Outcome out = RunProduction(start, feeds, guarded, 16);
  EXPECT_EQ(out.instance.Get("S"), (std::set<Tuple>{T({1}), T({2})}));
  EXPECT_EQ(out.iterations, 3);
}

}  // namespace
}  // namespace mapcomp

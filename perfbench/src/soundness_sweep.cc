// soundness_sweep: the semantic soundness harness as a user runs it with
// `mapcompc --check-eval`. Set-up composes a fixed corpus (the literature
// suite plus small simulator reconciliation problems); one op is one
// CheckComposition call on one corpus entry. A round checks the whole
// corpus. The timed rounds run at one evaluation lane: at min(4, nproc)
// lanes the rate fell from 170 to 70-135 checks/s whenever the host was
// loaded (ten runs spread 41%), and it ran 2.2x slower than one lane
// besides (see CHANGES.md). A traced run alternates rounds at one lane with
// rounds at min(4, nproc) lanes (eval.multi_lane_ops_per_s).

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "harness.h"
#include "src/compose/compose.h"
#include "src/eval/soundness.h"
#include "src/parser/parser.h"
#include "src/simulator/scenarios.h"
#include "src/testdata/literature_suite.h"

namespace perfbench {
namespace {

using namespace mapcomp;

// Check cost spreads over a factor of 40 across the generated problems;
// 256 of them keep a round's total within a few percent from seed to seed.
constexpr int kReconciliationProblems = 256;
constexpr int kInstances = 16;
// Ops re-checked at min(4, nproc) lanes after the run; their counters must
// match the one-lane ones.
constexpr int kLaneSamples = 4;

struct Entry {
  CompositionProblem problem;
  CompositionResult result;
  uint64_t generator_seed = 0;
};

/// Everything a check reports except timings: equal at any lane count.
std::string Digest(const CompositionCheck& c) {
  const EvalStats& e = c.eval_stats;
  std::string out;
  for (int64_t n :
       {int64_t{c.instances}, int64_t{c.original_satisfied},
        int64_t{c.composed_satisfied}, int64_t{c.violations},
        int64_t{c.inconclusive_skolem}, e.nodes_evaluated, e.memo_hits,
        e.sharded_nodes, e.tuples_produced, e.hash_join_nodes,
        e.nested_product_nodes, e.memo_bytes_total, e.memo_bytes_peak,
        e.tasks_spawned, e.index_cache_hits, e.index_cache_misses}) {
    out += std::to_string(n) + "/";
  }
  return out;
}

}  // namespace

void RunSoundnessSweep(const Args& args, Report* report) {
  // ---- set-up: build and compose the corpus ----
  std::vector<Entry> corpus;
  Parser parser;
  for (const testdata::LiteratureProblem& lit : testdata::LiteratureSuite()) {
    Result<CompositionProblem> parsed = parser.ParseProblem(lit.text);
    if (!parsed.ok()) {
      report->Fail(std::string("soundness_sweep: cannot parse ") + lit.name);
      return;
    }
    corpus.push_back({std::move(*parsed), {}, 0});
  }
  Clock::time_point gen_start = Clock::now();
  for (int i = 0; i < kReconciliationProblems; ++i) {
    sim::ReconciliationScenarioOptions options;
    options.schema_size = 3;
    options.num_edits = 3;
    // Relations of arity 3 at most keep every satisfaction check below the
    // evaluator's D^r enumeration guard, and the heaviest check's memory
    // near the rest: at arity 4, one seed's heaviest check raised the
    // process's peak resident set from 14 to 19 MB.
    options.simulator.primitives.max_arity = 3;
    options.seed = args.seed * 1000003u + i;
    corpus.push_back({sim::BuildReconciliationProblem(options), {}, 0});
  }
  double generate_s = SecondsSince(gen_start);
  for (size_t i = 0; i < corpus.size(); ++i) {
    corpus[i].result = Compose(corpus[i].problem);
    corpus[i].generator_seed = args.seed * 7919u + i;
    if (args.plant_fault) PlantReversedContainments(&corpus[i].result);
  }
  const int lanes = std::min(4, AvailableCpus());
  double setup_s = SecondsSince(ProcessStart());

  // ---- measurement ----
  // Round 0 is set-up's warm-up pass (it records the reference counters);
  // its library-call time counts toward setup_s. After it, a traced run
  // alternates rounds at one lane and at `lanes`.
  const int ops_per_round = static_cast<int>(corpus.size());
  std::vector<std::string> first_digests(corpus.size());
  OpTimes times(corpus.size()), multi_lane_times(corpus.size());
  EvalStats round_stats;
  int64_t memo_bytes_peak = 0;
  Clock::time_point measure_start = Clock::now();
  int round = 0;
  while (round <= 1 || SecondsSince(measure_start) < args.seconds) {
    bool multi_lane = args.trace && round % 2 == 0 && round > 0;
    if (multi_lane) {
      Unpin();
    } else {
      PinRound(round / (args.trace ? 2 : 1));
    }
    double warmup_s = 0.0;
    CompositionCheckOptions options;
    options.eval.jobs = multi_lane ? lanes : 1;
    for (int i = 0; i < ops_per_round; ++i) {
      const Entry& e = corpus[i];
      uint64_t op_id = static_cast<uint64_t>(round) * ops_per_round + i;
      report->Attempt();
      double check_s = 0.0;
      Result<CompositionCheck> check = [&] {
        ScopedCall call(&check_s, "eval.CheckComposition", op_id);
        return CheckComposition(e.problem, e.result, e.generator_seed,
                                kInstances, options);
      }();
      if (round == 0) {
        warmup_s += check_s;
      } else {
        (multi_lane ? multi_lane_times : times).Record(i, check_s);
      }
      if (!check.ok()) {
        report->Fail("soundness_sweep: check of " + e.problem.name +
                     " failed: " + check.status().ToString());
        continue;
      }
      if (check->violations != 0) {
        report->Fail("soundness_sweep: composition of entry " +
                     std::to_string(i) + " is unsound: " +
                     std::to_string(check->violations) + " violations");
      }
      if (round == 0) {
        first_digests[i] = Digest(*check);
        round_stats.MergeFrom(check->eval_stats);
      } else if (i % 8 == round % 8 && Digest(*check) != first_digests[i]) {
        report->Fail("soundness_sweep: entry " + std::to_string(i) +
                     " checked differently in round " + std::to_string(round));
      }
      memo_bytes_peak =
          std::max(memo_bytes_peak, check->eval_stats.memo_bytes_peak);
    }
    if (round == 0) {
      setup_s += warmup_s;
      measure_start = Clock::now();
    }
    ++round;
  }

  // ---- oracle: a seeded sample re-checked at `lanes` must agree ----
  Unpin();
  std::mt19937_64 rng(args.seed ^ 0x1a7e5u);
  CompositionCheckOptions multi_lane_options;
  multi_lane_options.eval.jobs = lanes;
  for (int s = 0; s < kLaneSamples; ++s) {
    size_t i = rng() % corpus.size();
    Result<CompositionCheck> check =
        CheckComposition(corpus[i].problem, corpus[i].result,
                         corpus[i].generator_seed, kInstances,
                         multi_lane_options);
    if (!check.ok() || Digest(*check) != first_digests[i]) {
      report->Fail("soundness_sweep: entry " + std::to_string(i) +
                   " checks differently at one lane and at " +
                   std::to_string(lanes));
    }
  }

  std::vector<double> best_us = times.BestUs();
  report->Add("setup_s", setup_s);
  report->Add("ops_per_s", times.OpsPerSecond());
  report->Add("peak_rss_mb", PeakRssMb());
  report->Add("latency_p50_us", Quantile(&best_us, 0.5));

  report->Add("trace.ops_per_s", times.OpsPerSecond());
  report->Add("simulator.generate_s", generate_s);
  report->Add("eval.check_p50_us", Quantile(&best_us, 0.5));
  report->Add("eval.nodes_evaluated",
              static_cast<double>(round_stats.nodes_evaluated));
  report->Add("eval.tasks_spawned",
              static_cast<double>(round_stats.tasks_spawned));
  report->Add("eval.sharded_nodes",
              static_cast<double>(round_stats.sharded_nodes));
  report->Add("eval.hash_join_nodes",
              static_cast<double>(round_stats.hash_join_nodes));
  report->Add("eval.index_cache_hits",
              static_cast<double>(round_stats.index_cache_hits));
  report->Add("eval.memo_bytes_peak", static_cast<double>(memo_bytes_peak));
  report->Add("eval.multi_lane_ops_per_s", multi_lane_times.OpsPerSecond());
}

}  // namespace perfbench

#include "src/eval/materialize.h"

#include <cstdint>
#include <map>
#include <set>
#include <unordered_set>

#include "src/eval/checker.h"

namespace mapcomp {

std::vector<RelationFeed> CollectFeeds(
    const ConstraintSet& cs,
    const std::function<bool(const std::string&)>& keep,
    bool assign_equalities) {
  auto kept = [&keep](const ExprPtr& e) {
    return e->kind() == ExprKind::kRelation &&
           (keep == nullptr || keep(e->name()));
  };
  std::vector<RelationFeed> feeds;
  for (const Constraint& c : cs) {
    bool equality = c.kind == ConstraintKind::kEquality;
    if (kept(c.rhs)) {
      feeds.push_back(
          RelationFeed{c.rhs->name(), c.lhs, equality && assign_equalities});
    }
    if (equality && kept(c.lhs)) {
      feeds.push_back(RelationFeed{c.lhs->name(), c.rhs, assign_equalities});
    }
  }
  return feeds;
}

namespace {

/// True iff a user operator occurs in `e`. User ops receive the active
/// domain, so a source containing one reads the whole instance.
bool ContainsUserOp(const ExprPtr& e, std::unordered_set<const Expr*>* seen) {
  if (!seen->insert(e.get()).second) return false;
  if (e->kind() == ExprKind::kUserOp) return true;
  for (const ExprPtr& c : e->children()) {
    if (ContainsUserOp(c, seen)) return true;
  }
  return false;
}

/// Change-tracking state of one feed across the fixpoint.
struct FeedState {
  int target = 0;          ///< relation slot of feed.target
  std::vector<int> reads;  ///< relation slots the source reads
  bool reads_all = false;  ///< D or a user op: reads the active domain
  bool evaluated = false;
  bool failed = false;     ///< last evaluation returned an error
  uint64_t began = 0;      ///< clock when the last evaluation began
  uint64_t applied = 0;    ///< clock after the last successful application
};

/// Pre-round contents of one relation slot, taken on its first change in
/// the round.
struct Snapshot {
  bool taken = false;
  std::set<Tuple> tuples;
};

}  // namespace

int RunFeedFixpoint(Instance* instance, const std::vector<RelationFeed>& feeds,
                    const EvalOptions& options, int max_iterations,
                    EvalStats* stats) {
  // Relation slots: every target and every relation a source reads.
  std::map<std::string, int> slot_of;
  std::vector<const std::string*> names;
  auto slot = [&](const std::string& name) {
    auto [it, inserted] =
        slot_of.emplace(name, static_cast<int>(names.size()));
    if (inserted) names.push_back(&it->first);
    return it->second;
  };
  std::vector<FeedState> state(feeds.size());
  bool any_assign = false;
  for (size_t f = 0; f < feeds.size(); ++f) {
    state[f].target = slot(feeds[f].target);
    std::set<std::string> reads;
    CollectRelations(feeds[f].source, &reads);
    for (const std::string& r : reads) state[f].reads.push_back(slot(r));
    std::unordered_set<const Expr*> seen;
    state[f].reads_all = ContainsDomain(feeds[f].source) ||
                         ContainsUserOp(feeds[f].source, &seen);
    any_assign = any_assign || feeds[f].assign;
  }

  // `clock` counts actual relation changes; version[s] is the clock value
  // of slot s's last change.
  uint64_t clock = 0;
  std::vector<uint64_t> version(names.size(), 0);
  // A feed whose last evaluation saw the same inputs, and whose target has
  // not moved since it applied that result, would be a no-op.
  auto current = [&](const FeedState& s) {
    if (!s.evaluated) return false;
    if (!s.failed && version[s.target] > s.applied) return false;
    if (s.reads_all) return clock <= s.began;
    for (int r : s.reads) {
      if (version[r] > s.began) return false;
    }
    return true;
  };
  std::vector<Snapshot> before(any_assign ? names.size() : 0);

  int iterations = 0;
  for (int iter = 0; iter < max_iterations; ++iter) {
    iterations = iter + 1;
    bool changed = false;
    for (Snapshot& s : before) s.taken = false;
    // Called just before a feed mutates its target: snapshots the target's
    // pre-round contents (once per round, only when oscillation is
    // possible) and bumps its version.
    auto note_change = [&](int target) {
      if (!before.empty() && !before[target].taken) {
        Snapshot& snap = before[target];
        snap.taken = true;
        snap.tuples = instance->Get(*names[target]);
      }
      version[target] = ++clock;
      changed = true;
    };
    for (size_t f = 0; f < feeds.size(); ++f) {
      const RelationFeed& feed = feeds[f];
      FeedState& s = state[f];
      if (current(s)) continue;
      s.began = clock;
      s.evaluated = true;
      Result<EvalResult> value = EvaluateFull(feed.source, *instance,
                                              options);
      s.failed = !value.ok();
      if (s.failed) {
        // A feed we cannot evaluate (e.g. Skolem without interpretation)
        // simply contributes nothing; the caller's satisfaction check
        // reports the truth. A failure does not depend on the target's
        // contents, so only the reads decide whether the feed runs again.
        continue;
      }
      EvalResult result = std::move(value).value();
      if (stats != nullptr) stats->MergeFrom(result.stats);
      if (feed.assign) {
        if (instance->Get(feed.target) != result.tuples()) {
          note_change(s.target);
          instance->Set(feed.target, result.TakeTuples());
        }
      } else {
        const std::set<Tuple>& current_tuples = instance->Get(feed.target);
        bool grew = false;
        for (const Tuple& t : result.tuples()) {
          if (current_tuples.count(t) == 0) {
            if (!grew) note_change(s.target);
            instance->Add(feed.target, t);
            grew = true;
          }
        }
      }
      s.applied = clock;
    }
    if (!changed) break;
    // Period-one oscillation: the round changed relations but ended with
    // the contents it began with. Evaluations and changes depend on
    // contents only, so every remaining round repeats this one and leaves
    // the instance as it is now — `Has` included: a relation absent at the
    // round's start was created by it and stays present. The plain loop
    // would run them all and report max_iterations.
    bool back_to_start = !before.empty();
    for (size_t r = 0; r < before.size() && back_to_start; ++r) {
      back_to_start = !before[r].taken ||
                      instance->Get(*names[r]) == before[r].tuples;
    }
    if (back_to_start) return max_iterations;
  }
  return iterations;
}

Result<MaterializeResult> PopulateResiduals(
    const Instance& input, const ConstraintSet& constraints,
    const std::vector<std::string>& residuals, const EvalOptions& options,
    int max_iterations) {
  MaterializeResult out;
  out.instance = input;
  std::set<std::string> residual_set(residuals.begin(), residuals.end());
  // Grow-only even for equalities: starting from empty residuals this
  // computes the least population for constraints monotone in them.
  std::vector<RelationFeed> feeds = CollectFeeds(
      constraints,
      [&residual_set](const std::string& name) {
        return residual_set.count(name) > 0;
      },
      /*assign_equalities=*/false);

  EvalOptions opts = options;
  std::set<Value> consts = CollectConstants(constraints);
  opts.extra_constants.insert(consts.begin(), consts.end());

  out.iterations = RunFeedFixpoint(&out.instance, feeds, opts,
                                   max_iterations, &out.eval_stats);
  MAPCOMP_ASSIGN_OR_RETURN(out.satisfied,
                           SatisfiesAll(out.instance, constraints, opts,
                                        &out.eval_stats));
  return out;
}

}  // namespace mapcomp

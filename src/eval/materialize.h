#ifndef MAPCOMP_EVAL_MATERIALIZE_H_
#define MAPCOMP_EVAL_MATERIALIZE_H_

#include <functional>
#include <string>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/eval/evaluator.h"

namespace mapcomp {

/// One feeding edge of the evaluate-and-feed fixpoint shared by
/// PopulateResiduals and RepairTowards: a constraint side that is a bare
/// relation symbol receives the evaluation of the other side. With
/// `assign` the target is replaced (an equality *defines* it); otherwise
/// it only grows.
struct RelationFeed {
  std::string target;
  ExprPtr source;
  bool assign = false;
};

/// Collects the feeds of `cs`: every containment E ⊆ R with bare R, and
/// both directions of an equality with a bare side. `keep` filters by
/// target name (null keeps all); `assign_equalities` marks equality feeds
/// as assignments instead of growths.
std::vector<RelationFeed> CollectFeeds(
    const ConstraintSet& cs,
    const std::function<bool(const std::string&)>& keep,
    bool assign_equalities);

/// Runs the feed loop on `instance` until a fixpoint or `max_iterations`:
/// each pass (round) applies the feeds in order, evaluating a feed's
/// source against the current instance and growing (or assigning) its
/// target. Feeds that fail to evaluate (e.g. Skolem without an
/// interpretation) contribute nothing. Returns the number of rounds used;
/// accumulates the counters of the evaluations actually run into `stats`
/// when non-null.
///
/// Change-driven, with results — final instance and returned count —
/// identical to evaluating every feed in every round:
///  * Skip rule: a feed is skipped when it was evaluated before, no
///    relation its source reads changed since that evaluation began, and
///    its target did not change since it applied that result. A source
///    containing D or a user operator reads the whole instance (user ops
///    receive the active domain). Evaluation is a pure function of the
///    relations read, the domain and `options`, so the skipped evaluation
///    would have been a no-op.
///  * Oscillation rule: a round that changed relations but ended with the
///    contents it began with would repeat forever, so the loop stops and
///    returns `max_iterations`, the count the full loop reports. Only feed
///    lists with an `assign` feed snapshot targets for this check;
///    grow-only feeds cannot undo a change.
int RunFeedFixpoint(Instance* instance, const std::vector<RelationFeed>& feeds,
                    const EvalOptions& options, int max_iterations,
                    EvalStats* stats);

/// Outcome of populating residual intermediate relations.
struct MaterializeResult {
  Instance instance;       ///< input plus populated residuals
  bool satisfied = false;  ///< whether the full constraint set now holds
  int iterations = 0;      ///< fixpoint rounds used
  /// Aggregated over the feed evaluations actually run (RunFeedFixpoint
  /// skips those whose outcome is known) and the final satisfaction check.
  EvalStats eval_stats;
};

/// Implements the paper's §1.3 usage note for best-effort composition: "to
/// use the mapping, those non-eliminated σ2-symbols may need to be
/// populated as intermediate relations that will be discarded at the end",
/// e.g. S in  R ⊆ S, S = tc(S), S ⊆ T  is "definable as a recursive view
/// on R".
///
/// Starting from every residual relation empty, repeatedly grows each
/// residual S with the evaluation of
///   * E for every containment E ⊆ S, and
///   * E for every equality S = E or E = S,
/// until a fixpoint (or `max_iterations`). For constraints monotone in the
/// residuals — the common case, including tc — this computes the least
/// population. The result records whether the populated instance satisfies
/// the whole constraint set (it may not when residuals appear in
/// non-monotone positions).
Result<MaterializeResult> PopulateResiduals(
    const Instance& input, const ConstraintSet& constraints,
    const std::vector<std::string>& residuals,
    const EvalOptions& options = {}, int max_iterations = 64);

}  // namespace mapcomp

#endif  // MAPCOMP_EVAL_MATERIALIZE_H_

#include "src/simulator/primitives.h"

#include <algorithm>

#include "src/algebra/builders.h"

namespace mapcomp {
namespace sim {

const char* PrimitiveName(Primitive p) {
  switch (p) {
    case Primitive::kAR:
      return "AR";
    case Primitive::kDR:
      return "DR";
    case Primitive::kAA:
      return "AA";
    case Primitive::kDA:
      return "DA";
    case Primitive::kDf:
      return "Df";
    case Primitive::kDb:
      return "Db";
    case Primitive::kD:
      return "D";
    case Primitive::kHf:
      return "Hf";
    case Primitive::kHb:
      return "Hb";
    case Primitive::kH:
      return "H";
    case Primitive::kVf:
      return "Vf";
    case Primitive::kVb:
      return "Vb";
    case Primitive::kV:
      return "V";
    case Primitive::kNf:
      return "Nf";
    case Primitive::kNb:
      return "Nb";
    case Primitive::kN:
      return "N";
    case Primitive::kSub:
      return "SUB";
    case Primitive::kSup:
      return "SUP";
  }
  return "?";
}

const std::vector<Primitive>& AllPrimitives() {
  static const std::vector<Primitive>* kAll = new std::vector<Primitive>{
      Primitive::kAR, Primitive::kDR, Primitive::kAA, Primitive::kDA,
      Primitive::kDf, Primitive::kDb, Primitive::kD,  Primitive::kHf,
      Primitive::kHb, Primitive::kH,  Primitive::kVf, Primitive::kVb,
      Primitive::kV,  Primitive::kNf, Primitive::kNb, Primitive::kN,
      Primitive::kSub, Primitive::kSup};
  return *kAll;
}

namespace {

int RandInt(std::mt19937_64* rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(*rng);
}

Value RandConstant(std::mt19937_64* rng, const PrimitiveOptions& options) {
  return Value(int64_t{RandInt(rng, 0, options.constant_pool - 1)});
}

SimRelation FreshRelation(int arity, int key_size, NameAllocator* names) {
  SimRelation r;
  r.name = names->Fresh();
  r.arity = arity;
  r.key_size = key_size;
  return r;
}

/// Appends key constraints for every keyed output (Figure 1: the produced
/// constraints "represent key or inclusion constraints on the output
/// relations").
void AddKeyConstraints(const std::vector<SimRelation>& produced,
                       const PrimitiveOptions& options, ConstraintSet* cs) {
  if (!options.enable_keys) return;
  for (const SimRelation& r : produced) {
    if (r.key_size > 0 && r.key_size < r.arity) {
      ConstraintSet key_cs =
          KeyConstraintsFor(r.name, r.arity, r.KeyPositions());
      cs->insert(cs->end(), key_cs.begin(), key_cs.end());
    }
  }
}

/// Splits R's non-key columns into two nonempty groups and returns the
/// vertical decomposition used by V* and N*: S gets key+left, T key+right.
struct VerticalSplit {
  std::vector<int> s_cols, t_cols;  // 1-based positions of R
  int shared = 0;                   // number of shared leading columns
};

VerticalSplit SplitVertically(const SimRelation& r, int shared,
                              std::mt19937_64* rng) {
  VerticalSplit split;
  split.shared = shared;
  for (int i = 1; i <= shared; ++i) {
    split.s_cols.push_back(i);
    split.t_cols.push_back(i);
  }
  std::vector<int> rest;
  for (int i = shared + 1; i <= r.arity; ++i) rest.push_back(i);
  // Random nonempty bipartition.
  int pivot = RandInt(rng, 1, static_cast<int>(rest.size()) - 1);
  for (int i = 0; i < static_cast<int>(rest.size()); ++i) {
    (i < pivot ? split.s_cols : split.t_cols).push_back(rest[i]);
  }
  return split;
}

std::optional<EditStep> VerticalFamily(Primitive p, const SimRelation& input,
                                       const PrimitiveOptions& options,
                                       NameAllocator* names,
                                       std::mt19937_64* rng) {
  bool is_v = p == Primitive::kVf || p == Primitive::kVb || p == Primitive::kV;
  int shared;
  if (is_v) {
    // Paper: the vertical partitioning primitives are the only ones that
    // require the input relation to have a key; the key is replicated.
    if (input.key_size == 0) return std::nullopt;
    shared = input.key_size;
  } else {
    shared = 1;  // normalization shares a single leading attribute
  }
  if (input.arity < shared + 2) return std::nullopt;
  VerticalSplit split = SplitVertically(input, shared, rng);

  EditStep step;
  step.primitive = p;
  step.consumed = input.name;
  SimRelation s = FreshRelation(static_cast<int>(split.s_cols.size()),
                                is_v ? shared : 0, names);
  SimRelation t = FreshRelation(static_cast<int>(split.t_cols.size()),
                                is_v ? shared : 0, names);
  step.produced = {s, t};

  ExprPtr r_expr = Rel(input.name, input.arity);
  bool forward = p == Primitive::kVf || p == Primitive::kNf ||
                 p == Primitive::kV || p == Primitive::kN;
  bool backward = p == Primitive::kVb || p == Primitive::kNb ||
                  p == Primitive::kV || p == Primitive::kN;
  if (forward) {
    step.constraints.push_back(
        Constraint::Equal(Project(split.s_cols, r_expr), Rel(s.name, s.arity)));
    step.constraints.push_back(
        Constraint::Equal(Project(split.t_cols, r_expr), Rel(t.name, t.arity)));
  }
  if (backward) {
    std::vector<std::pair<int, int>> join_on;
    for (int i = 1; i <= shared; ++i) join_on.emplace_back(i, i);
    ExprPtr join = EquiJoin(Rel(s.name, s.arity), Rel(t.name, t.arity),
                            join_on);
    // The join yields S's columns then T's non-shared columns; permute back
    // to R's column order.
    std::vector<int> perm(input.arity);
    for (int i = 0; i < static_cast<int>(split.s_cols.size()); ++i) {
      perm[split.s_cols[i] - 1] = i + 1;
    }
    int base = static_cast<int>(split.s_cols.size());
    int extra = 0;
    for (int i = 0; i < static_cast<int>(split.t_cols.size()); ++i) {
      if (split.t_cols[i] <= shared) continue;  // shared columns come from S
      ++extra;
      perm[split.t_cols[i] - 1] = base + extra;
    }
    step.constraints.push_back(
        Constraint::Equal(r_expr, Project(std::move(perm), std::move(join))));
  }
  if (p == Primitive::kNf || p == Primitive::kNb || p == Primitive::kN) {
    // π_A(T) ⊆ π_A(S) — every T key value references an S row.
    std::vector<int> a = IndexRange(1, shared);
    step.constraints.push_back(
        Constraint::Contain(Project(a, Rel(t.name, t.arity)),
                            Project(a, Rel(s.name, s.arity))));
  }
  AddKeyConstraints(step.produced, options, &step.constraints);
  return step;
}

}  // namespace

std::optional<EditStep> ApplyPrimitive(Primitive p, const SimRelation& input,
                                       const PrimitiveOptions& options,
                                       NameAllocator* names,
                                       std::mt19937_64* rng) {
  EditStep step;
  step.primitive = p;
  step.consumed = input.name;
  if (p == Primitive::kAR) {
    step.consumed.clear();
    int arity = RandInt(rng, options.min_arity, options.max_arity);
    int key = 0;
    if (options.enable_keys && RandInt(rng, 0, 1) == 1) {
      key = std::min(arity - 1, RandInt(rng, options.min_key, options.max_key));
    }
    step.produced = {FreshRelation(arity, key, names)};
    AddKeyConstraints(step.produced, options, &step.constraints);
    return step;
  }
  if (p == Primitive::kDR) {
    return step;  // relation disappears; no outputs, no constraints
  }
  int r = input.arity;
  ExprPtr r_expr = Rel(input.name, r);
  switch (p) {
    case Primitive::kAR:
    case Primitive::kDR:
      return std::nullopt;  // handled above
    case Primitive::kAA: {
      SimRelation s = FreshRelation(r + 1, input.key_size, names);
      step.produced = {s};
      step.constraints.push_back(Constraint::Equal(
          r_expr, Project(IndexRange(1, r), Rel(s.name, s.arity))));
      AddKeyConstraints(step.produced, options, &step.constraints);
      return step;
    }
    case Primitive::kDA: {
      // Drop a random non-key attribute.
      if (r - input.key_size < 1 || r <= 1) return std::nullopt;
      int c = RandInt(rng, input.key_size + 1, r);
      std::vector<int> kept;
      for (int i = 1; i <= r; ++i) {
        if (i != c) kept.push_back(i);
      }
      SimRelation s = FreshRelation(r - 1, input.key_size, names);
      step.produced = {s};
      step.constraints.push_back(Constraint::Equal(
          Project(std::move(kept), r_expr), Rel(s.name, s.arity)));
      AddKeyConstraints(step.produced, options, &step.constraints);
      return step;
    }
    case Primitive::kDf:
    case Primitive::kDb:
    case Primitive::kD: {
      Value c = RandConstant(rng, options);
      SimRelation s = FreshRelation(r + 1, input.key_size, names);
      step.produced = {s};
      ExprPtr s_expr = Rel(s.name, s.arity);
      if (p == Primitive::kDf || p == Primitive::kD) {
        step.constraints.push_back(Constraint::Equal(
            Product(r_expr, Lit(1, {Tuple{c}})), s_expr));
      }
      if (p == Primitive::kDb || p == Primitive::kD) {
        step.constraints.push_back(Constraint::Equal(
            r_expr,
            Project(IndexRange(1, r),
                    Select(Condition::AttrConst(r + 1, CmpOp::kEq, c),
                           s_expr))));
      }
      AddKeyConstraints(step.produced, options, &step.constraints);
      return step;
    }
    case Primitive::kHf:
    case Primitive::kHb:
    case Primitive::kH: {
      // Partition on a random non-key attribute; a relation whose key
      // covers every attribute has none.
      if (r - input.key_size < 1) return std::nullopt;
      int c_pos = RandInt(rng, input.key_size + 1, r);
      Value cs = RandConstant(rng, options);
      Value ct = RandConstant(rng, options);
      SimRelation s = FreshRelation(r, input.key_size, names);
      SimRelation t = FreshRelation(r, input.key_size, names);
      step.produced = {s, t};
      ExprPtr s_expr = Rel(s.name, r);
      ExprPtr t_expr = Rel(t.name, r);
      if (p == Primitive::kHf || p == Primitive::kH) {
        step.constraints.push_back(Constraint::Equal(
            Select(Condition::AttrConst(c_pos, CmpOp::kEq, cs), r_expr),
            s_expr));
        step.constraints.push_back(Constraint::Equal(
            Select(Condition::AttrConst(c_pos, CmpOp::kEq, ct), r_expr),
            t_expr));
      }
      if (p == Primitive::kHb || p == Primitive::kH) {
        step.constraints.push_back(
            Constraint::Equal(r_expr, Union(s_expr, t_expr)));
      }
      AddKeyConstraints(step.produced, options, &step.constraints);
      return step;
    }
    case Primitive::kVf:
    case Primitive::kVb:
    case Primitive::kV:
    case Primitive::kNf:
    case Primitive::kNb:
    case Primitive::kN:
      return VerticalFamily(p, input, options, names, rng);
    case Primitive::kSub: {
      SimRelation s = FreshRelation(r, input.key_size, names);
      step.produced = {s};
      step.constraints.push_back(
          Constraint::Contain(r_expr, Rel(s.name, r)));
      AddKeyConstraints(step.produced, options, &step.constraints);
      return step;
    }
    case Primitive::kSup: {
      SimRelation s = FreshRelation(r, input.key_size, names);
      step.produced = {s};
      step.constraints.push_back(
          Constraint::Contain(Rel(s.name, r), r_expr));
      AddKeyConstraints(step.produced, options, &step.constraints);
      return step;
    }
  }
  return std::nullopt;
}

}  // namespace sim
}  // namespace mapcomp

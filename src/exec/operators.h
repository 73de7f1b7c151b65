#ifndef TABBENCH_EXEC_OPERATORS_H_
#define TABBENCH_EXEC_OPERATORS_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/exec_context.h"
#include "exec/plan.h"
#include "exec/plan_executor.h"
#include "types/tuple.h"
#include "util/status.h"

namespace tabbench {

/// Volcano-style physical operator. Open() prepares (and for pipeline
/// breakers does the blocking work); Next() yields rows until false.
/// Every operator charges its work to the shared ExecContext and surfaces
/// Status::Timeout as soon as the simulated clock trips.
///
/// Next() centrally counts emitted rows so EXPLAIN ANALYZE can report
/// per-operator actual cardinalities; subclasses implement NextImpl().
class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;

  /// Yields the next row into *out; value `false` signals end of stream.
  Result<bool> Next(Tuple* out) {
    Result<bool> r = NextImpl(out);
    if (r.ok() && *r) ++rows_emitted_;
    return r;
  }

  /// Rows this operator has emitted so far (EXPLAIN ANALYZE).
  uint64_t rows_emitted() const { return rows_emitted_; }

 protected:
  virtual Result<bool> NextImpl(Tuple* out) = 0;

 private:
  uint64_t rows_emitted_ = 0;
};

/// A residual predicate compiled to tuple positions.
struct CompiledPred {
  ResidualPred::Kind kind = ResidualPred::Kind::kColEqLit;
  int pos_a = -1;
  int pos_b = -1;
  Value literal;
  const std::unordered_set<Value, ValueHash>* in_set = nullptr;

  bool Eval(const Tuple& t) const;

  /// Eval(Tuple::Concat(left, right)) without building the joined row: a
  /// joined-layout position p reads left[p], or right[p - left.size()]
  /// past the left side.
  bool EvalJoined(const std::vector<Value>& left,
                  const std::vector<Value>& right) const;
};

/// One materialized IN-subquery value set. Shared and immutable: a memo
/// hit hands out the set the memo holds (storage/in_set_memo.h).
using InSet = std::shared_ptr<const std::unordered_set<Value, ValueHash>>;

/// Materialized IN-subquery value sets, one per PhysicalPlan::in_sets entry.
using InSets = std::vector<InSet>;

/// Compiles a node's residual predicates against its output slot layout.
/// Shared between the Volcano operators and the vectorized pipeline
/// compiler so both executors evaluate identical predicate programs.
Result<std::vector<CompiledPred>> CompilePreds(const PlanNode& node,
                                               const InSets& in_sets);

/// True iff `t` satisfies every predicate of `preds`.
bool EvalPreds(const std::vector<CompiledPred>& preds, const Tuple& t);

/// EvalPreds on Tuple::Concat(left, right), without building it: joins
/// filter the (outer, inner) pair and concatenate only the rows that pass.
bool EvalPredsJoined(const std::vector<CompiledPred>& preds,
                     const std::vector<Value>& left,
                     const std::vector<Value>& right);

/// Builds the value set for one InSetSpec by a frequency scan of the
/// subquery table (index-only when the spec names an index). Charges all
/// work to `ctx`; respects the timeout.
///
/// Completed scans are memoized on the scanned object with their access
/// shape (storage/in_set_memo.h). A memo hit replays that shape through
/// `ctx` -- TouchPage per page, then ChargeTuples(1), ChargeHashOps(1) and
/// CheckTimeout() per row, the calls a live scan makes, in its order --
/// without decoding or hashing a row. Every charge, pool touch, recorded
/// trace event, timeout trip point and cancellation poll is therefore the
/// live scan's. A scan that fails (timeout, cancellation, record budget)
/// stores nothing. While any fault point is armed the memo is bypassed, so
/// fault schedules see every storage hit of a live scan.
Result<InSet> MaterializeInSet(const InSetSpec& spec,
                               const ObjectResolver& resolver,
                               ExecContext* ctx);

/// The IN-set prelude both executors run before building their operators:
/// materializes every spec of `plan`, in order, into *in_sets. Returns the
/// query's timed-out result when a scan trips the timeout, nullopt when
/// every set is ready, and any other failure as an error.
Result<std::optional<QueryResult>> MaterializeInSets(
    const PhysicalPlan& plan, const ObjectResolver& resolver, ExecContext* ctx,
    InSets* in_sets);

/// Pairs each plan node with its instantiated operator, so actual row
/// counts can be written back after execution (EXPLAIN ANALYZE).
using OperatorRegistry = std::vector<std::pair<const PlanNode*, const Operator*>>;

/// Instantiates the operator tree for `node`. `in_sets` must outlive the
/// returned operator. When `registry` is non-null every constructed
/// operator is recorded against its plan node.
Result<std::unique_ptr<Operator>> BuildOperator(const PlanNode& node,
                                                const ObjectResolver& resolver,
                                                const InSets& in_sets,
                                                ExecContext* ctx,
                                                OperatorRegistry* registry = nullptr);

}  // namespace tabbench

#endif  // TABBENCH_EXEC_OPERATORS_H_

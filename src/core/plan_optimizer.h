#pragma once

/// @file
/// Plan-level graph optimizer.
///
/// Runs once inside ReplayPlan construction (opt_level > 0), rewriting the
/// reconstructed-op sequence before the plan is cached — so the cost is paid
/// at build time and amortized across every warm replay by the two-tier
/// PlanCache.  Pass pipeline, in order:
///
///   1. dead_op_elimination   — allowlisted pointwise ops whose output no
///                              selected op consumes become single-member
///                              dead groups (launch replicated, no alloc).
///   2. algebraic_simplify    — marks algebraically neutral stages
///                              (mul.Scalar by 1.0, relu of an already
///                              rectified value) so the interpreter skips
///                              their arithmetic.
///   3. fuse_pointwise_chains — consecutive allowlisted ops whose slot-0
///                              tensors form a single-consumer chain with
///                              matching shape/dtype collapse into one
///                              loop-fused interpreter call.
///
/// The rewrite is timing- and bit-exact: groups re-issue every member's
/// device launch (same KernelDesc, order and jitter draws) and host dispatch
/// charge; only per-link CPU interpretation and intermediate materialization
/// are removed.  Members keep their ReconstructedOp entries, so coverage
/// accounting still counts the original ops a group subsumes.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/hash.h"
#include "core/reconstruction.h"
#include "et/node.h"
#include "framework/fused_chain.h"

namespace mystique::core {

/// Counters for one optimizer run; surfaced through PlanCacheStats and the
/// MYST_LOG=1 sweep report.  Everything except optimize_us is a pure
/// function of the resulting fused groups (see derive_optimizer_stats).
struct OptimizerStats {
    int64_t ops_fused = 0;       ///< members subsumed by multi-op chains
    int64_t ops_eliminated = 0;  ///< dead pointwise ops
    int64_t chains_formed = 0;   ///< multi-op chains
    int64_t ops_simplified = 0;  ///< identity stages (algebraic_simplify)
    double optimize_us = 0.0;    ///< wall time of the optimizer run
};

/// One fused execution group: a chain of >= 2 pointwise ops, a dead op, or a
/// standalone identity op.  Members are consecutive indices into the plan's
/// op sequence.
struct FusedGroup {
    std::vector<int> members;               ///< ascending, consecutive
    std::vector<fw::FusedStage> stages;     ///< one per member, in order
    bool dead = false;                      ///< output unconsumed: skip alloc
    et::TensorMeta input_meta;              ///< chain entry (member 0, slot 0)
    std::vector<et::TensorMeta> operand_metas; ///< per binary stage, in order
    et::TensorMeta output_meta;             ///< last member's recorded output
    std::optional<int> stream;              ///< original stream (all members)
    int tid = 0;                            ///< originating thread
};

/// The tensor layout of a reconstructed-op sequence: skipped ops take part
/// as null nodes (no slots, no consumers), so op(i) indexes like @p ops.
/// The optimizer never changes an op's kind, so the layout of the ops
/// before optimize_plan is the layout of the ops after it.
TensorLayout derive_op_layout(const std::vector<ReconstructedOp>& ops);

/// Runs the pass pipeline over @p ops, appending discovered groups to
/// @p groups and marking members' fused_group / fused_head fields.  Chain
/// legality reads consumer counts from @p layout (derive_op_layout(ops));
/// nullptr derives it here.
OptimizerStats optimize_plan(std::vector<ReconstructedOp>& ops,
                             std::vector<FusedGroup>& groups,
                             const TensorLayout* layout = nullptr);

/// One schedulable unit of the async executor: a standalone non-skipped op,
/// or a whole fused group (entered at its head member).  Skipped ops and
/// non-head group members are not units — the serial walk skips them too.
struct DepUnit {
    int head = -1;      ///< op index of the unit's head
    int group = -1;     ///< fused-group id, or -1 for a standalone op
    int stream = 0;     ///< stream lane the unit executes on
    bool comm = false;  ///< collective (kComm category)
    bool barrier = false; ///< scheduling barrier: runs after everything
                          ///< before it, before everything after it
    std::vector<int> deps; ///< earlier unit indices (strictly ascending)
};

/// The per-plan dependency DAG, in program order: every dep points to an
/// earlier unit, so program order is always a valid topological order and the
/// serial walk is one legal schedule of the graph.
struct DepGraph {
    std::vector<DepUnit> units;

    bool empty() const { return units.empty(); }
};

/// Derives the dependency graph for a reconstructed-op sequence:
///
///  - def-use edges over recorded tensor AND storage ids (RAW, WAW, and WAR
///    — a recycled storage must not be overwritten while a reader is
///    outstanding);
///  - barrier edges: collectives (their rendezvous order must match the
///    recorded per-rank order or ranks deadlock), direct-dispatch custom
///    ops, and ops touching no recorded tensors (unknown side effects) all
///    serialize against everything around them.
///
/// Pure function of (ops, groups), derived once at plan build and carried
/// through serialization (restore verifies the stored graph against its
/// fingerprint seal instead of re-deriving it).
DepGraph build_dep_graph(const std::vector<ReconstructedOp>& ops,
                         const std::vector<FusedGroup>& groups);

/// Structural validation for restored graphs: unit heads in range, dep lists
/// strictly ascending with every edge pointing to an *earlier* unit (a
/// forward or self edge would be a cycle through program order).  Throws
/// ParseError so corrupt store entries quarantine instead of deadlocking the
/// executor.
void validate_dep_graph(const DepGraph& graph, std::size_t n_ops);

/// Stable order-sensitive fingerprint over every unit field and edge.
/// Serialized plans are sealed with it ("dep_graph_fp") so the restore path
/// can detect a tampered or truncated graph by hashing the parsed units —
/// no O(plan) re-derivation on the disk-hit path (the disk tier's whole
/// point is being much cheaper than a build).
uint64_t dep_graph_fingerprint(const DepGraph& graph);

/// dep_graph_fingerprint fed one unit at a time, in program order: a
/// restore seals each unit as it reads it, so the byte-serial hash runs
/// alongside the reading instead of as a second pass.
class DepGraphSeal {
  public:
    explicit DepGraphSeal(std::size_t n_units);
    void add(const DepUnit& unit);
    uint64_t value() const { return h_.value(); }

  private:
    Fnv1a h_;
};

/// Derives stages, metas, stream and tid for a group whose `members` and
/// `dead` flag are already set — shared by optimize_plan and the
/// ReplayPlan::from_json restore path (which trusts the document's member
/// lists but re-derives everything else from the trace).  Throws ParseError
/// when a member is not a legally fusable op, so corrupt store entries
/// quarantine instead of replaying wrong.  @p layout is
/// derive_op_layout(ops): its per-slot consumer counts are the
/// single-consumer legality oracle.
void finalize_group(const std::vector<ReconstructedOp>& ops, FusedGroup& group,
                    const TensorLayout& layout);

/// Recomputes the derivable counters from @p groups (optimize_us = 0).
OptimizerStats derive_optimizer_stats(const std::vector<FusedGroup>& groups);

/// Executes one group in the replay hot loop: reads the chain input and
/// operands from their @p slots, runs the loop-fused interpreter kernel,
/// binds the final output.
void execute_fused_group(fw::Session& session, const FusedGroup& group,
                         const GroupTensorSlots& slots, TensorManager& tm);

} // namespace mystique::core

#pragma once

/// @file
/// Argument and tensor management (§4.4).
///
/// Walking the selected ops in execution order, every tensor ID is classified
/// as *intermediate* (first seen as an output of an earlier selected op —
/// saved at generation and passed to downstream consumers) or *external*
/// (its producer is not in the replayed set — explicitly instantiated before
/// execution with the recorded shape/dtype and random values).
///
/// The embedding-lookup index tensors are the documented special case: their
/// values drive the access pattern, so external int64 tensors consumed by
/// embedding ops are generated from a configurable distribution (uniform by
/// default, refinable by the user per §4.4), and offset tensors are generated
/// as valid monotonically-increasing bag boundaries.
///
/// The classification, the policies and a dense slot per tensor ID form a
/// TensorLayout, a pure function of the replayed ops.  ReplayPlan derives it
/// once per plan, so a replay resolves and binds tensors by slot index
/// instead of re-analyzing the plan and searching a map per argument.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "et/node.h"
#include "framework/session.h"

namespace mystique::core {

/// User-refinable generation policy for embedding index tensors (§4.4).
///
/// The default is a Zipf distribution with an exponent "derived empirically
/// from the operators in our production environment" (the paper's default
/// for information the ET does not capture); users refine it through this
/// interface when they know their tables' index statistics.
struct EmbeddingGenConfig {
    enum class Distribution { kUniform, kZipf };
    Distribution distribution = Distribution::kZipf;
    /// Zipf exponent when distribution == kZipf.
    double zipf_s = 1.05;
};

/// Per-tensor generation policy derived from the consuming operator.
struct Int64GenPolicy {
    enum class Kind {
        kGeneric,  ///< small non-negative values
        kIndices,  ///< embedding row indices in [0, rows)
        kOffsets,  ///< monotone bag boundaries over a paired index tensor
        kClasses,  ///< classification targets in [0, classes)
    };
    Kind kind = Kind::kGeneric;
    int64_t upper = 10;     ///< rows / classes bound
    int64_t pair_nnz = 0;   ///< for kOffsets: the paired indices tensor length
};

/// Where one op's tensors live in a TensorLayout: its input and output
/// slots, each flattened over the op's tensor and tensor-list arguments in
/// argument order.
struct OpTensorSlots {
    std::span<const int32_t> inputs;
    std::span<const int32_t> outputs;
};

/// A fused group's tensor slots (see core/plan_optimizer.h).
struct GroupTensorSlots {
    int32_t input = -1;            ///< chain entry
    std::vector<int32_t> operands; ///< per binary stage, in order
    int32_t output = -1;           ///< last member's output
};

/// Per-plan tensor layout: every tensor id the replayed ops touch gets a
/// dense slot, so replay resolves and binds tensors by vector index.  A pure
/// function of the ops, derived once per plan and never serialized.
struct TensorLayout {
    /// One external tensor: its slot, the recorded metadata it is generated
    /// from (points into the nodes the layout was derived from), and its
    /// int64 generation policy.
    struct External {
        int32_t slot = -1;
        const et::TensorMeta* meta = nullptr;
        Int64GenPolicy policy;
    };

    std::vector<int64_t> uids;      ///< slot → tensor id, ascending
    std::vector<External> externals; ///< ascending uid (= ascending slot)
    std::size_t num_intermediate = 0;
    /// slot → how many input references the derived nodes make to it
    /// (every argument, tensor lists included): the single-consumer
    /// legality oracle of the plan optimizer's fused chains.
    std::vector<int32_t> consumers;
    /// Per fused group, filled by the plan (empty for analyze() layouts).
    std::vector<GroupTensorSlots> groups;

    /// Classifies every tensor over @p nodes (execution order; null entries
    /// are ops that do not execute and get empty slot lists): a tensor first
    /// seen as an output of an earlier node is *intermediate*, one first
    /// seen as an input is *external*.  Derives int64 generation policies
    /// from the consuming ops.
    static TensorLayout derive(const std::vector<const et::Node*>& nodes);

    /// The slot of tensor @p uid, or -1 when no derived node touches it.
    int32_t slot_of(int64_t uid) const;

    /// Input references to tensor @p uid across the derived nodes (0 when
    /// no derived node touches it).
    int32_t consumers_of(int64_t uid) const
    {
        const int32_t slot = slot_of(uid);
        return slot < 0 ? 0 : consumers[static_cast<std::size_t>(slot)];
    }

    /// The slots of the @p i-th node passed to derive().
    OpTensorSlots op(std::size_t i) const
    {
        const OpRange& r = ops_[i];
        return {{slots_.data() + r.in, r.n_in}, {slots_.data() + r.out, r.n_out}};
    }

  private:
    struct OpRange {
        uint32_t in = 0, n_in = 0, out = 0, n_out = 0; ///< into slots_
    };
    std::vector<OpRange> ops_;
    std::vector<int32_t> slots_;
};

/// Instantiation + runtime binding of replay tensors over a TensorLayout.
class TensorManager {
  public:
    /// Binds tensors over a plan's precomputed @p layout (borrowed: it must
    /// outlive the manager).
    TensorManager(fw::Session& session, EmbeddingGenConfig config,
                  const TensorLayout& layout);

    /// A manager without a layout: call analyze() first.
    TensorManager(fw::Session& session, EmbeddingGenConfig config);

    /// Derives and owns the layout of @p selected_ops (execution order) —
    /// the standalone spelling of what ReplayPlan precomputes.  The nodes
    /// must outlive instantiate_externals().
    void analyze(const std::vector<const et::Node*>& selected_ops);

    /// Creates all external tensors up-front (§4.4 "explicitly instantiate
    /// them before execution"), in ascending uid order: they draw from the
    /// session RNG, so the order is part of the replay's identity.
    void instantiate_externals();

    /// The tensor bound to @p slot; throws ReplayError when nothing is
    /// bound there yet.
    const fw::Tensor& get(int32_t slot) const
    {
        if (bound_[static_cast<std::size_t>(slot)] == 0)
            throw_unbound(layout_->uids[static_cast<std::size_t>(slot)]);
        return bindings_[static_cast<std::size_t>(slot)];
    }

    /// Binds an op output to @p slot.
    void set(int32_t slot, fw::Tensor t)
    {
        bindings_[static_cast<std::size_t>(slot)] = std::move(t);
        bound_[static_cast<std::size_t>(slot)] = 1;
    }

    /// The layout this manager binds over; slot_of() maps a recorded
    /// tensor id to the slot get() and set() take.
    const TensorLayout& layout() const { return *layout_; }

    std::size_t num_external() const { return layout_->externals.size(); }
    std::size_t num_intermediate() const { return layout_->num_intermediate; }

    /// Order-independent digest of every live binding's bytes, mixed in
    /// ascending uid (= slot) order.  The differential oracle compares it
    /// across replays of the same plan: equal digests mean bit-identical
    /// numerics regardless of the execution schedule that produced them.
    uint64_t digest() const;

  private:
    fw::Tensor generate_external(const TensorLayout::External& ext);
    /// Sizes the binding table for the current layout.
    void reset_bindings();
    [[noreturn]] static void throw_unbound(int64_t uid);

    fw::Session& session_;
    EmbeddingGenConfig config_;
    std::unique_ptr<TensorLayout> owned_layout_; ///< analyze() only
    const TensorLayout* layout_ = nullptr;
    std::vector<fw::Tensor> bindings_; ///< slot → live tensor
    std::vector<uint8_t> bound_;       ///< slot → bound flag
};

} // namespace mystique::core

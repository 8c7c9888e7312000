#include "core/tensor_manager.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "framework/math.h"
#include "framework/op_registry.h"

namespace mystique::core {

namespace {

/// Extracts the table row count for an embedding op from the weight arg.
int64_t
weight_rows(const et::Node& node)
{
    if (node.inputs.empty() || node.inputs[0].kind != et::Argument::Kind::kTensor)
        return 0;
    const auto& shape = node.inputs[0].tensors[0].shape;
    return shape.empty() ? 0 : shape[0];
}

} // namespace

TensorLayout
TensorLayout::derive(const std::vector<const et::Node*>& nodes)
{
    TensorLayout layout;

    // One walk gathers every tensor reference in slot-list order (per node:
    // inputs, then outputs, each over the tensor and tensor-list arguments
    // in argument order).
    std::vector<const et::TensorMeta*> refs;
    refs.reserve(4 * nodes.size()); // a typical op's inputs and outputs
    layout.ops_.reserve(nodes.size());
    for (const et::Node* node : nodes) {
        OpRange r;
        r.in = static_cast<uint32_t>(refs.size());
        if (node != nullptr)
            for (const et::Argument& arg : node->inputs)
                for (const et::TensorMeta& m : arg.tensors)
                    refs.push_back(&m);
        r.n_in = static_cast<uint32_t>(refs.size()) - r.in;
        r.out = static_cast<uint32_t>(refs.size());
        if (node != nullptr)
            for (const et::Argument& arg : node->outputs)
                for (const et::TensorMeta& m : arg.tensors)
                    refs.push_back(&m);
        r.n_out = static_cast<uint32_t>(refs.size()) - r.out;
        layout.ops_.push_back(r);
    }

    // Dense slots in ascending uid order.  Recorded ids are mostly compact
    // (a session numbers its tensors consecutively), so when their span is
    // within a small multiple of the reference count, a table indexed by
    // uid numbers them in one linear pass; sparse ids (foreign or hand-built
    // traces) sort the references by uid instead.
    layout.slots_.resize(refs.size());
    layout.uids.reserve(refs.size());
    int64_t lo = 0;
    int64_t hi = -1;
    if (!refs.empty()) {
        lo = hi = refs[0]->tensor_id;
        for (const et::TensorMeta* m : refs) {
            lo = std::min(lo, m->tensor_id);
            hi = std::max(hi, m->tensor_id);
        }
    }
    const uint64_t width = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (refs.empty()) {
        // no tensors, no slots
    } else if (width < 4 * static_cast<uint64_t>(refs.size()) + 64) {
        const std::size_t span = static_cast<std::size_t>(width) + 1;
        std::vector<int32_t> slot_by_uid(span, -1);
        for (const et::TensorMeta* m : refs)
            slot_by_uid[static_cast<std::size_t>(m->tensor_id - lo)] = 0;
        for (std::size_t u = 0; u < span; ++u) {
            if (slot_by_uid[u] == 0) {
                slot_by_uid[u] = static_cast<int32_t>(layout.uids.size());
                layout.uids.push_back(lo + static_cast<int64_t>(u));
            }
        }
        for (std::size_t k = 0; k < refs.size(); ++k)
            layout.slots_[k] = slot_by_uid[static_cast<std::size_t>(refs[k]->tensor_id - lo)];
    } else {
        std::vector<std::pair<int64_t, uint32_t>> by_uid(refs.size());
        for (std::size_t k = 0; k < refs.size(); ++k)
            by_uid[k] = {refs[k]->tensor_id, static_cast<uint32_t>(k)};
        std::sort(by_uid.begin(), by_uid.end());
        for (const auto& [uid, k] : by_uid) {
            if (layout.uids.empty() || layout.uids.back() != uid)
                layout.uids.push_back(uid);
            layout.slots_[k] = static_cast<int32_t>(layout.uids.size() - 1);
        }
    }
    const std::size_t n = layout.uids.size();

    // Pass 1: classify by first appearance, walking execution order (§4.4),
    // and count each tensor's consumers.
    enum : uint8_t { kUnseen, kExternal, kIntermediate };
    std::vector<uint8_t> cls(n, kUnseen);
    std::vector<const et::TensorMeta*> first_meta(n, nullptr);
    std::vector<const et::Node*> producer(n, nullptr); // last producer
    layout.consumers.assign(n, 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const OpRange& r = layout.ops_[i];
        for (uint32_t k = r.in; k < r.in + r.n_in; ++k) {
            const auto slot = static_cast<std::size_t>(layout.slots_[k]);
            ++layout.consumers[slot];
            if (cls[slot] == kUnseen) {
                cls[slot] = kExternal;
                first_meta[slot] = refs[k];
            }
        }
        for (uint32_t k = r.out; k < r.out + r.n_out; ++k) {
            const auto slot = static_cast<std::size_t>(layout.slots_[k]);
            if (cls[slot] != kExternal)
                cls[slot] = kIntermediate;
            producer[slot] = nodes[i];
        }
    }

    // Pass 2: derive int64 generation policies from consuming ops.  Policies
    // must land on the *external* source tensor, so they propagate backwards
    // through pass-through copy ops (the dataloader→device transfer chain:
    // host indices → aten::to.device → device indices → embedding_bag).
    // Sized on first use: most plans feed no embedding or loss op.
    std::vector<Int64GenPolicy> policies;
    auto set_policy = [&](const et::Argument& arg, Int64GenPolicy policy) {
        if (arg.kind != et::Argument::Kind::kTensor)
            return;
        int64_t uid = arg.tensors[0].tensor_id;
        for (int hops = 0; hops < 8; ++hops) {
            const int32_t found = layout.slot_of(uid);
            if (found < 0)
                return;
            const auto slot = static_cast<std::size_t>(found);
            if (cls[slot] == kExternal) {
                if (policies.empty())
                    policies.resize(n);
                policies[slot] = policy;
                return;
            }
            const et::Node* p = producer[slot];
            if (p == nullptr)
                return;
            // Interned-identity comparison: each node's name resolves at most
            // once (cached in node.op_id); MYST_OP resolves the literal once
            // per call site.
            const OpId pid = et::resolve_op_id(*p);
            const bool pass_through =
                pid == MYST_OP("aten::to.device") || pid == MYST_OP("aten::copy_");
            if (!pass_through || p->inputs.empty() || p->inputs[0].tensors.empty())
                return;
            uid = p->inputs[0].tensors[0].tensor_id;
        }
    };
    for (const et::Node* node : nodes) {
        if (node == nullptr)
            continue;
        const OpId id = et::resolve_op_id(*node);
        if (id == MYST_OP("aten::embedding_bag") ||
            id == MYST_OP("fbgemm::batched_embedding_lookup")) {
            const int64_t rows = weight_rows(*node);
            int64_t nnz = 0;
            if (node->inputs.size() > 1 && !node->inputs[1].tensors.empty())
                nnz = node->inputs[1].tensors[0].numel;
            set_policy(node->inputs[1],
                       {Int64GenPolicy::Kind::kIndices, std::max<int64_t>(rows, 1), 0});
            if (node->inputs.size() > 2)
                set_policy(node->inputs[2], {Int64GenPolicy::Kind::kOffsets, 0, nnz});
        } else if (id == MYST_OP("aten::nll_loss")) {
            int64_t classes = 10;
            if (!node->inputs.empty() && !node->inputs[0].tensors.empty() &&
                !node->inputs[0].tensors[0].shape.empty())
                classes = node->inputs[0].tensors[0].shape.back();
            set_policy(node->inputs[1], {Int64GenPolicy::Kind::kClasses, classes, 0});
        }
    }

    for (std::size_t slot = 0; slot < n; ++slot) {
        if (cls[slot] == kExternal)
            layout.externals.push_back({static_cast<int32_t>(slot), first_meta[slot],
                                        policies.empty() ? Int64GenPolicy{} : policies[slot]});
        else if (cls[slot] == kIntermediate)
            ++layout.num_intermediate;
    }
    return layout;
}

int32_t
TensorLayout::slot_of(int64_t uid) const
{
    const auto it = std::lower_bound(uids.begin(), uids.end(), uid);
    if (it == uids.end() || *it != uid)
        return -1;
    return static_cast<int32_t>(it - uids.begin());
}

TensorManager::TensorManager(fw::Session& session, EmbeddingGenConfig config,
                             const TensorLayout& layout)
    : session_(session), config_(config), layout_(&layout)
{
    reset_bindings();
}

TensorManager::TensorManager(fw::Session& session, EmbeddingGenConfig config)
    : session_(session), config_(config), owned_layout_(std::make_unique<TensorLayout>()),
      layout_(owned_layout_.get())
{
}

void
TensorManager::analyze(const std::vector<const et::Node*>& selected_ops)
{
    owned_layout_ = std::make_unique<TensorLayout>(TensorLayout::derive(selected_ops));
    layout_ = owned_layout_.get();
    reset_bindings();
}

void
TensorManager::reset_bindings()
{
    bindings_.assign(layout_->uids.size(), fw::Tensor());
    bound_.assign(layout_->uids.size(), 0);
}

void
TensorManager::throw_unbound(int64_t uid)
{
    MYST_THROW(ReplayError, "tensor " << uid << " consumed before production during replay");
}

fw::Tensor
TensorManager::generate_external(const TensorLayout::External& ext)
{
    const et::TensorMeta& meta = *ext.meta;
    const fw::DType dtype = fw::dtype_from_name(meta.dtype);
    fw::Tensor t = session_.alloc(meta.shape, dtype, /*force_materialize=*/
                                  dtype != fw::DType::kFloat32);
    if (dtype == fw::DType::kFloat32) {
        // Random values: operator performance does not depend on float
        // contents (§4.4), but numeric mode still wants sane data.
        if (t.materialized())
            fw::math::randn(t.f32(), t.numel(), session_.rng(), 0.05f);
        return t;
    }
    if (dtype != fw::DType::kInt64)
        return t;

    const Int64GenPolicy& policy = ext.policy;
    int64_t* data = t.i64();
    const int64_t n = t.numel();
    switch (policy.kind) {
      case Int64GenPolicy::Kind::kIndices: {
        const int64_t rows = std::max<int64_t>(policy.upper, 1);
        for (int64_t i = 0; i < n; ++i) {
            data[i] = config_.distribution == EmbeddingGenConfig::Distribution::kZipf
                          ? session_.rng().zipf(rows, config_.zipf_s)
                          : session_.rng().uniform_int(0, rows - 1);
        }
        break;
      }
      case Int64GenPolicy::Kind::kOffsets: {
        // Evenly spaced bag boundaries over the paired index tensor.
        const int64_t nnz = std::max<int64_t>(policy.pair_nnz, n);
        for (int64_t i = 0; i < n; ++i)
            data[i] = i * nnz / n;
        break;
      }
      case Int64GenPolicy::Kind::kClasses: {
        const int64_t classes = std::max<int64_t>(policy.upper, 1);
        for (int64_t i = 0; i < n; ++i)
            data[i] = session_.rng().uniform_int(0, classes - 1);
        break;
      }
      case Int64GenPolicy::Kind::kGeneric:
        for (int64_t i = 0; i < n; ++i)
            data[i] = session_.rng().uniform_int(0, std::max<int64_t>(policy.upper - 1, 0));
        break;
    }
    return t;
}

void
TensorManager::instantiate_externals()
{
    for (const TensorLayout::External& ext : layout_->externals) {
        if (bound_[static_cast<std::size_t>(ext.slot)] == 0)
            set(ext.slot, generate_external(ext));
    }
}

uint64_t
TensorManager::digest() const
{
    Fnv1a h;
    for (std::size_t slot = 0; slot < bindings_.size(); ++slot) {
        if (bound_[slot] == 0)
            continue;
        const fw::Tensor& t = bindings_[slot];
        h.mix_pod(layout_->uids[slot]);
        if (!t.defined() || !t.materialized()) {
            h.mix_pod(static_cast<int64_t>(-1)); // shape-only binding
            continue;
        }
        h.mix_pod(t.numel());
        h.mix_bytes(t.impl()->storage->data(), static_cast<std::size_t>(t.nbytes()));
    }
    return h.value();
}

} // namespace mystique::core

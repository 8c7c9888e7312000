#pragma once

/// @file
/// Thin user-facing wrappers that build schema-ordered IValue vectors — the
/// torch.nn.functional analogue.  Model code written against these helpers
/// produces exactly the op stream the ET records and the replayer rebuilds.

#include <vector>

#include "framework/session.h"

namespace mystique::fw::F {

inline Tensor
linear(Session& s, const Tensor& x, const Tensor& w, const Tensor& b = Tensor())
{
    return s.call_t(MYST_OP("aten::linear"), {IValue(x), IValue(w), IValue(b)});
}

inline Tensor
relu(Session& s, const Tensor& x)
{
    return s.call_t(MYST_OP("aten::relu"), {IValue(x)});
}

inline Tensor
sigmoid(Session& s, const Tensor& x)
{
    return s.call_t(MYST_OP("aten::sigmoid"), {IValue(x)});
}

inline Tensor
tanh(Session& s, const Tensor& x)
{
    return s.call_t(MYST_OP("aten::tanh"), {IValue(x)});
}

inline Tensor
add(Session& s, const Tensor& a, const Tensor& b, double alpha = 1.0)
{
    return s.call_t(MYST_OP("aten::add.Tensor"), {IValue(a), IValue(b), IValue(alpha)});
}

inline Tensor
mul(Session& s, const Tensor& a, const Tensor& b)
{
    return s.call_t(MYST_OP("aten::mul.Tensor"), {IValue(a), IValue(b)});
}

inline Tensor
mm(Session& s, const Tensor& a, const Tensor& b)
{
    return s.call_t(MYST_OP("aten::mm"), {IValue(a), IValue(b)});
}

inline Tensor
bmm(Session& s, const Tensor& a, const Tensor& b)
{
    return s.call_t(MYST_OP("aten::bmm"), {IValue(a), IValue(b)});
}

inline Tensor
cat(Session& s, std::vector<Tensor> tensors, int64_t dim)
{
    return s.call_t(MYST_OP("aten::cat"), {IValue(std::move(tensors)), IValue(dim)});
}

inline Tensor
reshape(Session& s, const Tensor& x, std::vector<int64_t> shape)
{
    return s.call_t(MYST_OP("aten::reshape"), {IValue(x), IValue(std::move(shape))});
}

inline Tensor
transpose(Session& s, const Tensor& x, int64_t d0, int64_t d1)
{
    return s.call_t(MYST_OP("aten::transpose.int"), {IValue(x), IValue(d0), IValue(d1)});
}

inline Tensor
conv2d(Session& s, const Tensor& x, const Tensor& w, const Tensor& b, int64_t stride,
       int64_t padding)
{
    return s.call_t(MYST_OP("aten::conv2d"),
                    {IValue(x), IValue(w), IValue(b),
                     IValue(std::vector<int64_t>{stride, stride}),
                     IValue(std::vector<int64_t>{padding, padding})});
}

inline Tensor
batch_norm(Session& s, const Tensor& x, const Tensor& gamma, const Tensor& beta,
           bool training = true, double eps = 1e-5)
{
    return s.call_t(MYST_OP("aten::batch_norm"),
                    {IValue(x), IValue(gamma), IValue(beta), IValue(training), IValue(eps)});
}

inline Tensor
max_pool2d(Session& s, const Tensor& x, int64_t k, int64_t stride, int64_t padding = 0)
{
    return s.call_t(MYST_OP("aten::max_pool2d"),
                    {IValue(x), IValue(std::vector<int64_t>{k, k}),
                     IValue(std::vector<int64_t>{stride, stride}),
                     IValue(std::vector<int64_t>{padding, padding})});
}

inline Tensor
adaptive_avg_pool2d(Session& s, const Tensor& x, int64_t oh, int64_t ow)
{
    return s.call_t(MYST_OP("aten::adaptive_avg_pool2d"),
                    {IValue(x), IValue(std::vector<int64_t>{oh, ow})});
}

inline Tensor
log_softmax(Session& s, const Tensor& x, int64_t dim)
{
    return s.call_t(MYST_OP("aten::log_softmax.int"), {IValue(x), IValue(dim)});
}

inline Tensor
nll_loss(Session& s, const Tensor& logp, const Tensor& target)
{
    return s.call_t(MYST_OP("aten::nll_loss"), {IValue(logp), IValue(target)});
}

inline Tensor
bce_with_logits(Session& s, const Tensor& logits, const Tensor& target)
{
    return s.call_t(MYST_OP("aten::binary_cross_entropy_with_logits"),
                    {IValue(logits), IValue(target)});
}

inline Tensor
embedding_bag(Session& s, const Tensor& weight, const Tensor& indices,
              const Tensor& offsets)
{
    return s.call_t(MYST_OP("aten::embedding_bag"),
                    {IValue(weight), IValue(indices), IValue(offsets), IValue(0)});
}

inline Tensor
dropout(Session& s, const Tensor& x, double p, bool train = true)
{
    return s.call(MYST_OP("aten::native_dropout"), {IValue(x), IValue(p), IValue(train)})[0].tensor();
}

/// Moves a (host) tensor to the session's device via the memcpy stream.
inline Tensor
to_device(Session& s, const Tensor& x)
{
    return s.call_t(MYST_OP("aten::to.device"), {IValue(x), IValue(s.device_name())});
}

inline Tensor
all_reduce(Session& s, const Tensor& t, int64_t pg)
{
    return s.call_t(MYST_OP("c10d::all_reduce"), {IValue(t), IValue(pg)});
}

inline Tensor
all_to_all(Session& s, const Tensor& t, int64_t pg)
{
    return s.call_t(MYST_OP("c10d::all_to_all"), {IValue(t), IValue(pg)});
}

} // namespace mystique::fw::F

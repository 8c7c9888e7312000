#pragma once

/// @file
/// IValue: the tagged argument value passed to operators, mirroring
/// torch::jit::IValue.  Operators receive their arguments as a positional
/// IValue vector in schema order; the replayer reconstructs the same vector
/// from ET argument metadata.
///
/// The payload is a std::variant, so a value is as large as its largest
/// alternative (a std::string) plus the tag — copies and moves touch only
/// the live member.  IValues are copied and moved several times per
/// replayed op, so the size is pinned by a static_assert below.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "framework/tensor.h"

namespace mystique::fw {

/// A dynamically-typed operator argument.
class IValue {
  public:
    /// Tag order matches the variant's alternative order (tag() is the
    /// variant index).
    enum class Tag { kNone, kTensor, kTensorList, kInt, kDouble, kBool, kIntList, kString };

    IValue() = default;
    /// An undefined tensor becomes none.
    IValue(Tensor t)
    {
        if (t.defined())
            v_.emplace<Tensor>(std::move(t));
    }
    IValue(std::vector<Tensor> ts) : v_(std::in_place_type<std::vector<Tensor>>, std::move(ts)) {}
    IValue(int64_t v) : v_(std::in_place_type<int64_t>, v) {}
    IValue(int v) : v_(std::in_place_type<int64_t>, v) {}
    IValue(double v) : v_(std::in_place_type<double>, v) {}
    IValue(bool v) : v_(std::in_place_type<bool>, v) {}
    IValue(std::vector<int64_t> v) : v_(std::in_place_type<std::vector<int64_t>>, std::move(v))
    {
    }
    IValue(std::string v) : v_(std::in_place_type<std::string>, std::move(v)) {}
    IValue(const char* v) : v_(std::in_place_type<std::string>, v) {}

    // Copies are out of line: inlined into every `{IValue(...), ...}`
    // argument list, the variant's copy trips GCC 12 -Wmaybe-uninitialized
    // false positives.  Moves stay inline.
    IValue(const IValue& other);
    IValue& operator=(const IValue& other);
    IValue(IValue&&) noexcept = default;
    IValue& operator=(IValue&&) noexcept = default;

    static IValue none() { return IValue(); }

    Tag tag() const { return static_cast<Tag>(v_.index()); }
    bool is_none() const { return tag() == Tag::kNone; }
    bool is_tensor() const { return tag() == Tag::kTensor; }
    bool is_tensor_list() const { return tag() == Tag::kTensorList; }
    bool is_int() const { return tag() == Tag::kInt; }
    bool is_double() const { return tag() == Tag::kDouble; }
    bool is_bool() const { return tag() == Tag::kBool; }
    bool is_int_list() const { return tag() == Tag::kIntList; }
    bool is_string() const { return tag() == Tag::kString; }

    /// Typed accessors; throw ReplayError on tag mismatch.
    const Tensor& tensor() const;
    const std::vector<Tensor>& tensor_list() const;
    /// Accepts int or bool (true → 1).
    int64_t to_int() const;
    /// Numeric coercion: accepts int or double (PyTorch Scalar semantics).
    double to_double() const;
    /// Accepts bool or int (nonzero → true).
    bool to_bool() const;
    const std::vector<int64_t>& int_list() const;
    const std::string& str() const;

    /// All tensors referenced by this value (0, 1, or N).
    std::vector<Tensor> referenced_tensors() const;

  private:
    std::variant<std::monostate, Tensor, std::vector<Tensor>, int64_t, double, bool,
                 std::vector<int64_t>, std::string>
        v_;
};

static_assert(sizeof(IValue) <= 48, "IValue is copied per replayed op; keep it compact");

} // namespace mystique::fw

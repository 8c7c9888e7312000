#include "framework/ivalue.h"

#include "common/error.h"

namespace mystique::fw {

IValue::IValue(const IValue& other) = default;

IValue&
IValue::operator=(const IValue& other) = default;

const Tensor&
IValue::tensor() const
{
    if (const Tensor* t = std::get_if<Tensor>(&v_))
        return *t;
    MYST_THROW(ReplayError, "IValue: expected tensor");
}

const std::vector<Tensor>&
IValue::tensor_list() const
{
    if (const auto* ts = std::get_if<std::vector<Tensor>>(&v_))
        return *ts;
    MYST_THROW(ReplayError, "IValue: expected tensor list");
}

int64_t
IValue::to_int() const
{
    if (const int64_t* i = std::get_if<int64_t>(&v_))
        return *i;
    if (const bool* b = std::get_if<bool>(&v_))
        return *b ? 1 : 0;
    MYST_THROW(ReplayError, "IValue: expected int");
}

double
IValue::to_double() const
{
    if (const double* d = std::get_if<double>(&v_))
        return *d;
    if (const int64_t* i = std::get_if<int64_t>(&v_))
        return static_cast<double>(*i);
    MYST_THROW(ReplayError, "IValue: expected number");
}

bool
IValue::to_bool() const
{
    if (const bool* b = std::get_if<bool>(&v_))
        return *b;
    if (const int64_t* i = std::get_if<int64_t>(&v_))
        return *i != 0;
    MYST_THROW(ReplayError, "IValue: expected bool");
}

const std::vector<int64_t>&
IValue::int_list() const
{
    if (const auto* l = std::get_if<std::vector<int64_t>>(&v_))
        return *l;
    MYST_THROW(ReplayError, "IValue: expected int list");
}

const std::string&
IValue::str() const
{
    if (const std::string* s = std::get_if<std::string>(&v_))
        return *s;
    MYST_THROW(ReplayError, "IValue: expected string");
}

std::vector<Tensor>
IValue::referenced_tensors() const
{
    if (const Tensor* t = std::get_if<Tensor>(&v_))
        return {*t};
    if (const auto* ts = std::get_if<std::vector<Tensor>>(&v_))
        return *ts;
    return {};
}

} // namespace mystique::fw

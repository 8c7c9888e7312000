#pragma once

/// @file
/// Self-contained JSON value type with parser and serializer.
///
/// Execution traces, profiler traces and replay plans are all JSON on disk
/// (matching the PyTorch ET / chrome-trace formats the paper relies on), and
/// the library is dependency-free, so we carry our own implementation.
///
/// Design notes:
///  - Integers and doubles are stored distinctly so 64-bit IDs round-trip
///    exactly (ET node and tensor IDs are integers).
///  - Object member order is preserved (insertion order), which keeps
///    serialized traces diffable.
///  - The payload is a tagged union, so a node is as large as its largest
///    alternative plus the tag (pinned by a static_assert below), and a
///    move is an inline switch: parsing a plan or trace builds, moves and
///    frees thousands of nodes.

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"

namespace mystique {

/// A JSON document node: null, bool, integer, double, string, array or object.
class Json {
  public:
    /// Discriminator for the stored value.
    enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

    using Array = std::vector<Json>;
    /// Insertion-ordered key/value list.
    using Object = std::vector<std::pair<std::string, Json>>;

    /// Constructs null.
    Json() : int_(0) {}
    Json(std::nullptr_t) : Json() {}
    Json(bool b) : type_(Type::kBool), bool_(b) {}
    Json(int v) : type_(Type::kInt), int_(v) {}
    Json(int64_t v) : type_(Type::kInt), int_(v) {}
    Json(uint64_t v) : type_(Type::kInt), int_(static_cast<int64_t>(v)) {}
    Json(double v) : type_(Type::kDouble), dbl_(v) {}
    Json(const char* s) : type_(Type::kString), str_(s) {}
    Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
    Json(Array a) : type_(Type::kArray), arr_(std::move(a)) {}
    Json(Object o) : type_(Type::kObject), obj_(std::move(o)) {}

    Json(const Json& other) { construct_from(other); }
    Json(Json&& other) noexcept { construct_from(std::move(other)); }
    Json& operator=(const Json& other)
    {
        // Through a temporary: @p other may live inside this node.
        Json copy(other);
        return *this = std::move(copy);
    }
    Json& operator=(Json&& other) noexcept
    {
        if (this != &other) {
            Json moved(std::move(other)); // @p other may live inside this node
            destroy();
            construct_from(std::move(moved));
        }
        return *this;
    }
    ~Json() { destroy(); }

    /// Creates an empty array.
    static Json array() { return Json(Array{}); }
    /// Creates an empty object.
    static Json object() { return Json(Object{}); }

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::kNull; }
    bool is_bool() const { return type_ == Type::kBool; }
    bool is_int() const { return type_ == Type::kInt; }
    bool is_double() const { return type_ == Type::kDouble; }
    /// True for either numeric representation.
    bool is_number() const { return is_int() || is_double(); }
    bool is_string() const { return type_ == Type::kString; }
    bool is_array() const { return type_ == Type::kArray; }
    bool is_object() const { return type_ == Type::kObject; }

    /// Typed accessors; throw ParseError when the type does not match.
    /// Inline: restoring a plan or ingesting a trace reads thousands.
    bool as_bool() const
    {
        if (!is_bool())
            type_error("bool");
        return bool_;
    }
    int64_t as_int() const { return is_int() ? int_ : whole_double(); }
    /// Numeric value as double (accepts int or double).
    double as_double() const;
    const std::string& as_string() const
    {
        if (!is_string())
            type_error("string");
        return str_;
    }
    const Array& as_array() const
    {
        if (!is_array())
            type_error("array");
        return arr_;
    }
    Array& as_array()
    {
        if (!is_array())
            type_error("array");
        return arr_;
    }
    const Object& as_object() const
    {
        if (!is_object())
            type_error("object");
        return obj_;
    }
    Object& as_object()
    {
        if (!is_object())
            type_error("object");
        return obj_;
    }

    /// Appends to an array (value must be an array).
    void push_back(Json v);

    /// Object member lookup; returns nullptr when absent or not an object.
    const Json* find(std::string_view key) const;
    /// Object member access; throws ParseError when the key is absent.
    const Json& at(std::string_view key) const;
    /// Inserts or overwrites an object member (value must be an object).
    void set(std::string_view key, Json v);
    /// True when this is an object containing @p key.
    bool contains(std::string_view key) const { return find(key) != nullptr; }

    /// Member getters with defaults for optional trace fields.
    int64_t get_int(std::string_view key, int64_t fallback) const;
    double get_double(std::string_view key, double fallback) const;
    std::string get_string(std::string_view key, const std::string& fallback) const;
    bool get_bool(std::string_view key, bool fallback) const;

    /// Serializes; indent < 0 emits compact one-line JSON.
    std::string dump(int indent = -1) const;

    /// Parses a complete JSON document; throws ParseError with position info.
    static Json parse(std::string_view text);

    /// Reads and parses a file; throws ParseError when unreadable/invalid.
    static Json parse_file(const std::string& path);

    /// Serializes to a file; throws MystiqueError when the file cannot be written.
    void dump_file(const std::string& path, int indent = -1) const;

    bool operator==(const Json& other) const;
    bool operator!=(const Json& other) const { return !(*this == other); }

  private:
    void dump_to(std::string& out, int indent, int depth) const;

    /// Throws ParseError("json: expected <what>").
    [[noreturn]] static void type_error(const char* what);
    /// as_int() of a non-integer: a whole double converts, anything else throws.
    int64_t whole_double() const;

    void construct_from(const Json& other);
    /// Inline: parsing moves every node at least once.
    void construct_from(Json&& other) noexcept
    {
        type_ = other.type_;
        switch (type_) {
          case Type::kNull: break;
          case Type::kBool: bool_ = other.bool_; break;
          case Type::kInt: int_ = other.int_; break;
          case Type::kDouble: dbl_ = other.dbl_; break;
          case Type::kString: new (&str_) std::string(std::move(other.str_)); break;
          case Type::kArray: new (&arr_) Array(std::move(other.arr_)); break;
          case Type::kObject: new (&obj_) Object(std::move(other.obj_)); break;
        }
    }
    /// Ends the payload's lifetime; only strings and containers own memory.
    void destroy() noexcept
    {
        if (type_ >= Type::kString)
            destroy_owned();
        type_ = Type::kNull;
    }
    void destroy_owned() noexcept;

    Type type_ = Type::kNull;
    union {
        bool bool_;
        int64_t int_;
        double dbl_;
        std::string str_;
        Array arr_;
        Object obj_;
    };
};

static_assert(sizeof(Json) <= 48, "documents hold thousands of Json nodes; keep them compact");

} // namespace mystique

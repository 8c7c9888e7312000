#pragma once

/// @file
/// String helpers shared by the schema parser, IR parser and formatters.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mystique {

/// Splits on a single-character delimiter; empty tokens are preserved.
std::vector<std::string> split(std::string_view text, char delim);

/// Splits on @p delim but only at nesting depth 0 with respect to
/// (), [] and <> — used to split schema argument lists where defaults may
/// themselves contain commas, e.g. "int[2] stride=[1, 1]".
std::vector<std::string> split_top_level(std::string_view text, char delim);

/// Removes leading/trailing ASCII whitespace.  Inline, like the two
/// below: the IR and schema parsers call them for every piece they read.
inline std::string_view
trim(std::string_view text)
{
    auto space = [](char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; };
    std::size_t b = 0;
    std::size_t e = text.size();
    while (b < e && space(text[b]))
        ++b;
    while (e > b && space(text[e - 1]))
        --e;
    return text.substr(b, e - b);
}

inline bool
starts_with(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

inline bool
ends_with(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

/// Joins tokens with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-width (16-digit, zero-padded) lowercase hex of a 64-bit value —
/// the fingerprint spelling used in plan-store file names.
std::string hex64(uint64_t value);
/// Appends hex64(@p value) to @p out without a temporary string.
void append_hex64(std::string& out, uint64_t value);

/// Formats microseconds as a human-readable "12.34 ms" style string.
std::string format_us(double microseconds);

} // namespace mystique

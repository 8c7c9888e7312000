#pragma once

/// @file
/// Filesystem helpers shared by the persistence layers (plan store, codegen).
///
/// The one contract that matters here is *atomic publication*: a reader must
/// never observe a half-written file.  POSIX rename() within one filesystem
/// is atomic, so atomic_write_file() stages content in a uniquely-named temp
/// file next to the target, fsyncs it, and renames it into place —
/// concurrent writers of the same path race benignly (last rename wins, both
/// contents complete), and a crash mid-write leaves only a `.tmp.*` turd,
/// never a torn target.  Every *thrown* failure path reaps its own temp file
/// (only a process crash can leak one), and each failure-prone step carries
/// a fault-injection site (`fs.write_open`, `fs.write_short`,
/// `fs.write_fsync`, `fs.rename`, `fs.read` — see common/fault_injection.h)
/// so tests can prove both properties instead of assuming them.

#include <optional>
#include <string>
#include <string_view>

namespace mystique {

/// Writes @p content to @p path atomically (temp file in the same directory
/// + rename).  Creates missing parent directories.  Throws MystiqueError
/// when the directory cannot be created or the write/rename fails; on
/// failure the target path is left untouched.
void atomic_write_file(const std::string& path, std::string_view content);

/// Best-effort quarantine: renames @p path to `path + ".bad"`, overwriting
/// any previous quarantine of the same file.  Returns false (without
/// throwing) when the rename fails — e.g. the file vanished concurrently.
bool quarantine_file(const std::string& path);

/// Slurps a file into a string (binary, whole-file).  Throws ParseError when
/// the file cannot be opened or read completely — the callers (JSON layer,
/// plan store) all treat an unreadable file as malformed input.
std::string read_file(const std::string& path);

/// read_file for a file that may legitimately be absent: std::nullopt when
/// @p path does not exist, the contents otherwise; throws like read_file on
/// a file that exists but cannot be read.  Existence is checked only when
/// the open fails, so a hit costs no extra stat call.
std::optional<std::string> read_file_if_exists(const std::string& path);

} // namespace mystique

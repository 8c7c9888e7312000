#pragma once

/// @file
/// Interned operator identity.
///
/// An OpId is a dense integer assigned the first time an operator *name* is
/// seen in this process.  Every layer that used to key maps and histograms on
/// op-name strings (dispatch, the autograd tape, replay-plan building,
/// supported-set checks, trace statistics) keys on OpId instead; strings
/// survive only at serialization and report boundaries.
///
/// IDs are process-local: they depend on interning order and MUST NOT be
/// persisted (trace files and fingerprints stay name-based).  The interner
/// lives in the common layer so that et/ and profiler/ code can intern
/// without depending on the framework's OpRegistry, which assigns its
/// operator definitions onto the same ID space.

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>

namespace mystique {

/// Dense interned operator identity; kInvalidOpId = "not resolved yet".
using OpId = std::int32_t;
inline constexpr OpId kInvalidOpId = -1;

/// Lazily-filled OpId cache embedded in structures that are shared through
/// const references (et::Node, the steps of a compiled jit::Function).
/// Resolution is idempotent — every writer stores the same value for a
/// given name — but concurrent
/// plain writes would still be a data race, so the slot is a relaxed atomic;
/// this costs nothing on the read path.  Copying transfers the cached value
/// (it is equally valid for the copy).
class OpIdCache {
  public:
    OpIdCache() = default;
    OpIdCache(const OpIdCache& other) : id_(other.load()) {}
    OpIdCache& operator=(const OpIdCache& other)
    {
        store(other.load());
        return *this;
    }

    OpId load() const { return id_.load(std::memory_order_relaxed); }
    void store(OpId id) const { id_.store(id, std::memory_order_relaxed); }

  private:
    mutable std::atomic<OpId> id_{kInvalidOpId};
};

/// Process-wide name ↔ OpId intern table.
///
/// intern() is insert-or-get and may be called with names that have no
/// registered operator definition (e.g. trace nodes from foreign runs);
/// lookup() never inserts.  Interning is guarded by a mutex; resolved IDs and
/// name(OpId) reads on them are immutable afterwards, so the hot paths that
/// carry pre-resolved OpIds never touch the lock.
class OpInterner {
  public:
    static OpInterner& instance();

    /// Returns the ID for @p name, assigning the next dense ID when new.
    OpId intern(const std::string& name);

    /// Returns the ID for @p name, or kInvalidOpId when never interned.
    OpId lookup(const std::string& name) const;

    /// The name behind an ID; throws std::out_of_range on a bad ID.
    const std::string& name(OpId id) const;

    /// Number of interned names (IDs are 0 .. size()-1).
    std::size_t size() const;

  private:
    OpInterner() = default;

    mutable std::mutex mu_;
    std::unordered_map<std::string, OpId> ids_;
    /// Deque, not vector: name(OpId) hands out references that must survive
    /// later interning.
    std::deque<std::string> names_;
};

} // namespace mystique

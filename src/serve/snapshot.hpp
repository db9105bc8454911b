// Server-owned immutable list snapshots, generation-stamped -- the
// ownership story that makes cross-request caching sound.
//
// Everywhere else in the library the caller owns the list and may mutate
// it between runs, which is why every run over a caller-owned list builds
// its own packed slab. The SnapshotRegistry inverts ownership:
// a client registers a list ONCE, the server takes an immutable copy and
// hands back a {snapshot_id, generation} handle, and every later request
// addresses the handle instead of shipping (or aliasing) the arrays.
// Mutation is explicit -- update() installs a new list under the same id
// and bumps the generation, drop() retires the id -- so every derived
// artifact (memoized results, serve/slab_cache.hpp; pinned shard spill
// files) is keyed on a generation that provably identifies immutable
// bytes.
//
// Coherence contract: resolve() reads the current generation under the
// same mutex update() writes it, so any request submitted after update()
// returns either targets the new generation or -- if it pinned the old
// one -- is rejected as stale. No stale-generation answer is ever served
// as current.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "lists/linked_list.hpp"

namespace lr90::serve {

/// A client's name for one registered snapshot: the registry-issued id
/// plus the generation the client last saw. Both are never 0 for a live
/// snapshot (generation 0 in a request means "whatever is current").
struct SnapshotHandle {
  std::uint64_t snapshot_id = 0;  ///< registry-issued, unique per register
  std::uint64_t generation = 0;   ///< bumped by every update()
};

/// The server-side table of immutable, generation-stamped list snapshots.
/// All operations are O(1) under one mutex (the lists themselves are
/// shared out by shared_ptr-to-const, so resolution never copies);
/// thread-safe.
class SnapshotRegistry {
 public:
  /// Outcome of resolve(): found-and-current, found-but-superseded, or
  /// not found at all.
  enum class Resolve {
    kOk,       ///< the handle addresses the current generation
    kStale,    ///< the snapshot exists, but at a newer generation
    kUnknown,  ///< no such snapshot id (never registered, or dropped)
  };

  /// Registers `list` as a new immutable snapshot at generation 1 and
  /// returns its handle.
  SnapshotHandle register_snapshot(LinkedList list);

  /// Replaces snapshot `id`'s list and bumps its generation. Returns the
  /// new handle, or false if `id` is unknown. The caller (EngineServer)
  /// invalidates the caches; in-flight runs against the old generation
  /// keep their shared_ptr and finish coherently on the old bytes.
  bool update(std::uint64_t id, LinkedList list, SnapshotHandle& out);

  /// Retires snapshot `id` (in-flight runs keep their shared_ptr).
  /// Returns false if `id` is unknown.
  bool drop(std::uint64_t id);

  /// Looks up snapshot `id` at `generation` (0 = current). On kOk fills
  /// `list` with the pinned immutable list and `handle` with the current
  /// handle; on kStale fills only `handle` (so the caller can tell the
  /// client what generation to retarget); kUnknown fills neither.
  Resolve resolve(std::uint64_t id, std::uint64_t generation,
                  std::shared_ptr<const LinkedList>& list,
                  SnapshotHandle& handle) const;

  /// Number of live snapshots.
  std::size_t size() const;

 private:
  struct Slot {
    std::uint64_t generation = 0;            ///< current generation
    std::shared_ptr<const LinkedList> list;  ///< the immutable bytes
  };

  mutable std::mutex mu_;                         ///< guards the table
  std::unordered_map<std::uint64_t, Slot> slots_; ///< id -> current slot
  std::uint64_t next_id_ = 1;                     ///< ids are never reused
};

}  // namespace lr90::serve

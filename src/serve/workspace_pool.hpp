// A pool of warmed-up Engines (each owning its reusable Workspace).
//
// An Engine is confined to one thread at a time, so a concurrent serving
// layer needs one engine per in-flight job. Constructing engines per
// request would throw away exactly what the Workspace exists to amortize;
// the pool instead builds `size` identically-configured engines up front
// and leases them out. After the first few requests of a given shape have
// grown every pooled workspace, the steady state performs zero scratch
// allocations -- observable through stats(), which aggregates the
// Workspace counters across the pool, and asserted by the throughput
// bench and the stress test.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/engine.hpp"

namespace lr90::serve {

/// Aggregated Workspace counters across every pooled engine.
struct PoolStats {
  std::uint64_t allocations = 0;  ///< buffer-growth events (fit misses)
  std::uint64_t reuse_hits = 0;   ///< fits served from existing capacity
  std::uint64_t leases = 0;       ///< acquire() calls served so far
  /// Packed-slab (re)builds across every pooled workspace: the zero-pack
  /// steady-state gate of the snapshot cache (bench/serve_throughput).
  std::uint64_t packed_builds = 0;
};

/// Fixed-size pool of engines with blocking acquire / RAII release.
class WorkspacePool {
 public:
  /// Builds `size` engines (>= 1 enforced), each configured with `opt`.
  WorkspacePool(const EngineOptions& opt, std::size_t size);

  WorkspacePool(const WorkspacePool&) = delete;             ///< not copyable
  WorkspacePool& operator=(const WorkspacePool&) = delete;  ///< not copyable

  /// A leased engine; returns itself to the pool on destruction.
  class Lease {
   public:
    /// Transfers the lease; `other` no longer releases anything.
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), engine_(other.engine_) {
      other.pool_ = nullptr;
      other.engine_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;  ///< move-construct only
    ~Lease() {  ///< returns the engine to the pool
      if (pool_ != nullptr) pool_->release(engine_);
    }

    /// The leased engine (valid for the lease's lifetime).
    Engine& operator*() const { return *engine_; }
    /// The leased engine (valid for the lease's lifetime).
    Engine* operator->() const { return engine_; }

   private:
    friend class WorkspacePool;
    Lease(WorkspacePool* pool, Engine* engine)
        : pool_(pool), engine_(engine) {}

    WorkspacePool* pool_;  ///< where to return the engine
    Engine* engine_;       ///< the leased engine
  };

  /// Blocks until an engine is free, then leases the most recently
  /// released one, so warm buffers stay on as few engines as the load
  /// needs.
  Lease acquire();

  /// Number of engines the pool owns.
  std::size_t size() const { return engines_.size(); }

  /// Aggregated workspace counters. Safe to call while engines are leased
  /// and running (the counters are atomic); in-flight jobs may be
  /// partially counted, so read at a quiescent point for exact figures.
  PoolStats stats() const;

  /// Zeroes the aggregated counters: the lease tally and every pooled
  /// workspace's allocation/reuse counters (warmed buffers keep their
  /// capacity, so a reset does not reintroduce allocations). Call at a
  /// quiescent point -- counts from in-flight jobs may be lost.
  void reset_stats();

 private:
  void release(Engine* engine);

  std::vector<std::unique_ptr<Engine>> engines_;  ///< the pooled engines
  mutable std::mutex mu_;                 ///< guards free_ and leases_
  std::condition_variable available_;     ///< acquirers wait here
  std::vector<Engine*> free_;             ///< engines not currently leased
  std::uint64_t leases_ = 0;              ///< acquire() calls served
};

}  // namespace lr90::serve

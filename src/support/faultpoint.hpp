// Named, registered fault-injection sites with zero overhead when disabled.
//
// A FaultSite is a file-scope object at an I/O or allocation edge:
//
//   namespace { lr90::fault::FaultSite f_io{"net.recv.io", "EIO"}; }
//   ...
//   if (f_io.fire()) { errno = EIO; return false; }   // injected failure
//
// Sites self-register into a global registry at static initialization, so
// a chaos harness can enumerate every edge in the binary without running
// a single workload, arm them one at a time, and assert each one fired.
//
// fire() is the only call on a hot path and costs one relaxed atomic load
// plus one predictable branch while injection is globally disabled (the
// production state; bench/op_scan.cpp gates the cost at <= 1% of the
// dispatch tier). Arming any site enables the global gate; the armed slow
// path is mutex-guarded and deterministic: a 1-based fail-Nth counter, an
// optional per-hit probability driven by a seeded splitmix64 stream, and
// a fire budget (max_fires) so a sweep can inject exactly one failure.
//
// Thread model: fire() may be called from any thread. Arm/disarm/stats
// are test-harness calls; they take the same mutex as the armed slow
// path, so a sweep can re-arm between workloads without racing workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

/// Fault-injection support: registered fault sites for chaos testing.
namespace lr90::fault {

/// How an armed site decides to fire. All conditions compose: the site
/// fires when the hit counter reaches `fail_nth` (if set) OR the seeded
/// coin comes up under `probability`, and never more than `max_fires`
/// times total.
struct Trigger {
  /// Fire on exactly the Nth hit after arming (1-based; 0 = disabled).
  std::uint64_t fail_nth = 0;
  /// Independent per-hit fire probability in [0, 1] (0 = disabled).
  double probability = 0.0;
  /// Seed of the per-site splitmix64 stream behind `probability`.
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  /// Total fires allowed before the site goes quiet (sweeps arm 1).
  std::uint64_t max_fires = ~std::uint64_t{0};
};

/// Counters of one site since the last reset (hits only accumulate while
/// the global gate is enabled -- the disabled fast path counts nothing).
struct SiteStats {
  std::uint64_t hits = 0;   ///< fire() calls observed while enabled
  std::uint64_t fires = 0;  ///< injected failures
};

/// One named fault site. Construct at namespace scope in the .cpp that
/// owns the edge; the constructor registers the site for the lifetime of
/// the process (sites are never unregistered -- they are statics).
class FaultSite {
 public:
  /// Registers the site. `name` is the stable identifier a harness arms
  /// by ("layer.edge.failure"); `effect` documents what the injected
  /// failure simulates. Both must be string literals (not copied).
  FaultSite(const char* name, const char* effect);

  FaultSite(const FaultSite&) = delete;             ///< sites are singular
  FaultSite& operator=(const FaultSite&) = delete;  ///< sites are singular

  const char* name() const { return name_; }      ///< stable identifier
  const char* effect() const { return effect_; }  ///< simulated failure

  /// The hot-path check: true iff the harness injected a failure here.
  /// One relaxed load + branch while injection is globally disabled.
  bool fire() {
    if (!enabled_flag().load(std::memory_order_relaxed)) return false;
    return fire_slow();
  }

  /// Arms the site (and enables the global gate). Resets the hit counter
  /// and the probability stream so sweeps are deterministic.
  void arm(const Trigger& trigger);

  /// Disarms this site only; the global gate stays up while any site is
  /// armed (see disarm_all()).
  void disarm();

  /// True while armed.
  bool armed() const;

  /// Counters since the last reset_stats()/arm().
  SiteStats stats() const;

 private:
  bool fire_slow();
  static std::atomic<bool>& enabled_flag();
  friend void set_enabled(bool);
  friend bool enabled();
  friend void disarm_all();
  friend void reset_stats();
  friend std::vector<FaultSite*>& mutable_registry();

  const char* name_;    ///< literal, never freed
  const char* effect_;  ///< literal, never freed

  mutable std::mutex mu_;  ///< guards everything below
  bool armed_ = false;
  Trigger trigger_;
  std::uint64_t rng_ = 0;  ///< splitmix64 state for `probability`
  SiteStats stats_;
};

/// Every site registered in this binary, in registration order. Stable
/// for the process lifetime once main() runs.
std::vector<FaultSite*> registered_sites();

/// The site named `name`, or nullptr.
FaultSite* find_site(const std::string& name);

/// Disarms every site and lowers the global gate (back to zero-overhead).
void disarm_all();

/// Forces the global gate. arm() raises it automatically; this is for
/// harnesses that want hit counting without any armed trigger.
void set_enabled(bool on);

/// True while the global gate is up.
bool enabled();

/// Zeroes every site's counters (armed state is untouched).
void reset_stats();

}  // namespace lr90::fault

// Abstract interface of the K-SPIN *Network Distance Module* (paper
// Section 3, module 2). Any exact point-to-point distance technique can be
// plugged into the framework behind this interface: the repository provides
// Dijkstra, Contraction Hierarchies, hub labeling (PHL stand-in) and G-tree
// implementations.
//
// Concurrency model: every oracle is split into an immutable shared index
// (the oracle object itself — safe to share across threads after
// construction) and a per-thread OracleWorkspace holding all mutable query
// state (version-stamped distance arrays, per-source caches). The
// workspace-taking entry points are const against the index, so any number
// of threads may query one oracle concurrently through distinct
// workspaces. The classic two-argument API remains as a thin wrapper over
// one lazily created default workspace and is NOT thread-safe.
#ifndef KSPIN_ROUTING_DISTANCE_ORACLE_H_
#define KSPIN_ROUTING_DISTANCE_ORACLE_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/types.h"

namespace kspin {

/// Opaque per-thread mutable query state of a DistanceOracle. Obtained
/// from DistanceOracle::MakeWorkspace and only valid with the oracle that
/// created it. Stateless oracles (hub labels) use this base directly.
class OracleWorkspace {
 public:
  OracleWorkspace() = default;
  virtual ~OracleWorkspace() = default;

  OracleWorkspace(const OracleWorkspace&) = delete;
  OracleWorkspace& operator=(const OracleWorkspace&) = delete;
};

/// Exact network-distance oracle. Implementations must return the true
/// shortest-path distance (kInfDistance if disconnected, which cannot
/// happen on the connected graphs used in this repository).
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  // ----- Thread-safe API (const against the shared index) ---------------

  /// Creates a fresh per-thread workspace for this oracle. Workspaces are
  /// independent: one per concurrent caller.
  virtual std::unique_ptr<OracleWorkspace> MakeWorkspace() const = 0;

  /// Exact network distance between s and t, using `workspace` for all
  /// mutable state. `workspace` must come from this oracle's
  /// MakeWorkspace and must not be used by another thread concurrently.
  virtual Distance NetworkDistance(OracleWorkspace& workspace, VertexId s,
                                   VertexId t) const = 0;

  /// Hints that a batch of queries with the same source vertex follows.
  /// Implementations may warm per-source caches in the workspace (e.g.
  /// G-tree materializes the source-to-border vectors once). Default:
  /// no-op. CH needs no hint: it caches the source's upward search inside
  /// NetworkDistance, so the cost lands on the first exact distance of a
  /// batch, and it memoizes each target's upward search across batches.
  virtual void BeginSourceBatch(OracleWorkspace& /*workspace*/,
                                VertexId /*source*/) const {}

  // ----- Single-threaded convenience API ---------------------------------

  /// Exact network distance between s and t through the oracle's own
  /// default workspace (created on first use). Not thread-safe; use the
  /// workspace overload for concurrent querying.
  Distance NetworkDistance(VertexId s, VertexId t) {
    return NetworkDistance(DefaultWorkspace(), s, t);
  }

  /// Same-source batch hint on the default workspace. Not thread-safe.
  void BeginSourceBatch(VertexId source) {
    BeginSourceBatch(DefaultWorkspace(), source);
  }

  /// Short human-readable name ("dijkstra", "ch", "hl", "gtree").
  virtual std::string Name() const = 0;

  /// Approximate index memory in bytes (0 for index-free techniques).
  virtual std::size_t MemoryBytes() const { return 0; }

 private:
  OracleWorkspace& DefaultWorkspace() {
    if (default_workspace_ == nullptr) default_workspace_ = MakeWorkspace();
    return *default_workspace_;
  }

  std::unique_ptr<OracleWorkspace> default_workspace_;
};

}  // namespace kspin

#endif  // KSPIN_ROUTING_DISTANCE_ORACLE_H_

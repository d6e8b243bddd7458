// Lazy update handling for the rho-Approximate NVD (paper Section 6.2):
// tombstone deletions, Theorem-2 affected sets for insertions, and
// threshold-driven rebuilds.
#include <algorithm>
#include <queue>
#include <stdexcept>

#include "nvd/apx_nvd.h"

namespace kspin {

std::uint32_t ApxNvd::AppendMember(SiteObject object,
                                   std::span<const std::uint32_t> nodes) {
  const auto member = static_cast<std::uint32_t>(members_.size());
  members_.push_back(object);
  attached_nodes_.Append(nodes);
  deleted_.push_back(false);
  ++live_;
  const std::pair<ObjectId, std::uint32_t> entry(object.object, member);
  object_members_.insert(std::upper_bound(object_members_.begin(),
                                          object_members_.end(), entry),
                         entry);
  return member;
}

void ApxNvd::Insert(ObjectId o, VertexId vertex, DistanceOracle& oracle) {
  if (const std::uint32_t m = FindMember(o); m != kNoMember) {
    // Re-inserting a tombstoned object (e.g. a keyword removed from an
    // object and later re-added) just revives it; its vertex is immutable.
    if (!deleted_[m]) {
      throw std::invalid_argument("ApxNvd::Insert: object already present");
    }
    deleted_[m] = false;
    ++live_;
    return;
  }

  if (!HasVoronoi()) {
    // Flat mode: the inverted list is the index; just append.
    AppendMember({o, vertex}, {});
    ++lazy_inserts_;
    last_affected_size_ = 0;
    return;
  }

  // Step 1: find the (stale-NVD) 1NN site p of the new object. The
  // Voronoi storage yields <= rho candidate colours containing the true
  // nearest site; the Network Distance Module disambiguates.
  std::vector<std::uint32_t> candidates;
  InitialMembers(vertex, &candidates);
  oracle.BeginSourceBatch(vertex);
  std::uint32_t nearest = UINT32_MAX;
  Distance nearest_dist = kInfDistance;
  for (std::uint32_t c : candidates) {
    if (c >= num_sites_) continue;  // Skip attached members.
    const Distance d = oracle.NetworkDistance(vertex, members_[c].vertex);
    if (d < nearest_dist) {
      nearest_dist = d;
      nearest = c;
    }
  }
  if (nearest == UINT32_MAX) {
    throw std::logic_error("ApxNvd::Insert: no nearest site found");
  }

  // Step 2: affected set via pruned BFS on the adjacency graph. A node e
  // is attached only when Theorem 2 cannot rule it out, i.e.
  // d(o, e) < 2 * MaxRadius(e). Pruning the *traversal* with the same
  // bound is unsafe, however: an affected large region can hide behind an
  // unaffected small one. Any region e crossed by the path from o to a
  // vertex it steals from region r satisfies
  //   d(o, e) <= MaxRadius(r) + MaxRadius(e) <= R* + MaxRadius(e)
  // (R* = the largest MaxRadius), so expanding under that weaker bound is
  // guaranteed to reach every affected region. MaxRadius values are from
  // construction time; lazy inserts only shrink true radii, so the stale
  // values are conservative.
  Distance max_radius_star = 0;
  for (Distance r : max_radius_) {
    max_radius_star = std::max(max_radius_star, r);
  }
  std::vector<std::uint32_t> affected;
  std::vector<std::uint8_t> visited(num_sites_, 0);
  std::queue<std::uint32_t> bfs;
  bfs.push(nearest);
  visited[nearest] = 1;
  affected.push_back(nearest);
  while (!bfs.empty()) {
    const std::uint32_t node = bfs.front();
    bfs.pop();
    for (std::uint32_t adj : adjacency_[node]) {
      if (visited[adj]) continue;
      visited[adj] = 1;
      const Distance d =
          oracle.NetworkDistance(vertex, members_[adj].vertex);
      if (d < 2 * max_radius_[adj]) {
        affected.push_back(adj);  // Theorem 2 cannot exclude it.
      }
      // Non-strict: the derivation bounds crossed regions by
      // d(o,e) <= MaxRadius(r) + MaxRadius(e), and equality is achievable
      // with integer weights.
      if (d <= max_radius_star + max_radius_[adj]) {
        bfs.push(adj);  // Affected regions may lie beyond: keep walking.
      }
    }
  }
  last_affected_size_ = affected.size();

  // Step 3: attach the new object to every affected node.
  const std::uint32_t member = AppendMember({o, vertex}, affected);
  std::sort(affected.begin(), affected.end());
  node_members_.AppendToEach(affected, member);
  ++lazy_inserts_;
}

void ApxNvd::Delete(ObjectId o) {
  const std::uint32_t m = FindMember(o);
  if (m == kNoMember) {
    throw std::invalid_argument("ApxNvd::Delete: unknown object");
  }
  if (deleted_[m]) {
    throw std::invalid_argument("ApxNvd::Delete: already deleted");
  }
  deleted_[m] = true;
  --live_;
}

bool ApxNvd::LiveVerticesExceedRho() const {
  // Build's Observation-1 cutoff counts distinct site vertices, not
  // objects: colocated objects share one site.
  std::vector<VertexId> seen;
  for (std::uint32_t m = 0; m < members_.size(); ++m) {
    if (deleted_[m]) continue;
    const VertexId v = members_[m].vertex;
    if (std::find(seen.begin(), seen.end(), v) != seen.end()) continue;
    seen.push_back(v);
    if (seen.size() > options_.rho) return true;
  }
  return false;
}

bool ApxNvd::NeedsRebuild() const {
  if (HasVoronoi()) {
    // Too many lazy inserts, or shrunk under the rho cutoff (flatten).
    return lazy_inserts_ > options_.lazy_insert_threshold ||
           !LiveVerticesExceedRho();
  }
  // Flat index: a build would give it Voronoi structures now.
  return LiveVerticesExceedRho();
}

void ApxNvd::Rebuild() {
  std::vector<SiteObject> live = LiveObjects();
  std::sort(live.begin(), live.end(),
            [](const SiteObject& a, const SiteObject& b) {
              return a.object < b.object;
            });
  Build(std::move(live));
}

}  // namespace kspin

// Shared fixtures and helpers for the K-SPIN test suite.
#ifndef KSPIN_TESTS_TEST_UTIL_H_
#define KSPIN_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/road_network_generator.h"
#include "nvd/apx_nvd.h"
#include "text/document_store.h"
#include "text/zipf_generator.h"

namespace kspin::testing {

/// A small deterministic road network for unit tests (~350 vertices).
inline Graph SmallRoadNetwork(std::uint64_t seed = 11) {
  RoadNetworkOptions options;
  options.grid_width = 20;
  options.grid_height = 20;
  options.seed = seed;
  return GenerateRoadNetwork(options);
}

/// A mid-size network for integration tests (~2.5k vertices).
inline Graph MediumRoadNetwork(std::uint64_t seed = 12) {
  RoadNetworkOptions options;
  options.grid_width = 52;
  options.grid_height = 52;
  options.seed = seed;
  return GenerateRoadNetwork(options);
}

/// Keyword dataset matched to a test graph.
inline DocumentStore TestDocuments(const Graph& graph,
                                   std::uint32_t num_keywords = 60,
                                   double object_fraction = 0.15,
                                   std::uint64_t seed = 21) {
  KeywordDatasetOptions options;
  options.num_keywords = num_keywords;
  options.object_fraction = object_fraction;
  options.seed = seed;
  return GenerateKeywordDataset(graph, options);
}

/// The hand-drawn 9-vertex graph used in several algorithm unit tests:
///
///   0 - 1 - 2
///   |   |   |
///   3 - 4 - 5       All edges weight 1 except (4,5) = 3 and (7,8) = 2.
///   |   |   |
///   6 - 7 - 8
inline Graph TinyGrid() {
  GraphBuilder builder(9);
  builder.AddEdge(0, 1, 1);
  builder.AddEdge(1, 2, 1);
  builder.AddEdge(0, 3, 1);
  builder.AddEdge(1, 4, 1);
  builder.AddEdge(2, 5, 1);
  builder.AddEdge(3, 4, 1);
  builder.AddEdge(4, 5, 3);
  builder.AddEdge(3, 6, 1);
  builder.AddEdge(4, 7, 1);
  builder.AddEdge(5, 8, 1);
  builder.AddEdge(6, 7, 1);
  builder.AddEdge(7, 8, 2);
  std::vector<Coordinate> coords;
  for (std::int32_t row = 0; row < 3; ++row) {
    for (std::int32_t col = 0; col < 3; ++col) {
      coords.push_back({col * 10, row * 10});
    }
  }
  builder.SetCoordinates(std::move(coords));
  return builder.Build();
}

/// A fresh, empty directory `<TempDir>/kspin_<pid>/<name>`. The process id
/// keeps two runs of one suite at the same time (say, in two build trees)
/// out of each other's files. The `kspin_<pid>` root is removed when the
/// process exits.
inline std::string ScratchDir(const std::string& name) {
  struct Root {
    const std::filesystem::path path =
        std::filesystem::path(::testing::TempDir()) /
        ("kspin_" + std::to_string(::getpid()));
    ~Root() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Root root;
  const std::filesystem::path dir = root.path / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// The member id of object o in `nvd` (NumMembers() when absent).
inline std::uint32_t MemberOf(const ApxNvd& nvd, ObjectId o) {
  std::uint32_t m = 0;
  while (m < nvd.NumMembers() && nvd.Member(m).object != o) ++m;
  return m;
}

/// The objects of `nvd`'s initial candidate members for query vertex q,
/// in supply order.
inline std::vector<SiteObject> InitialObjects(const ApxNvd& nvd,
                                              VertexId q) {
  std::vector<std::uint32_t> members;
  nvd.InitialMembers(q, &members);
  std::vector<SiteObject> out;
  for (std::uint32_t m : members) out.push_back(nvd.Member(m));
  return out;
}

/// The objects `nvd` supplies when object o is extracted from a heap
/// (Algorithm 4's expansion), in supply order.
inline std::vector<SiteObject> ExpansionObjects(const ApxNvd& nvd,
                                                ObjectId o) {
  std::vector<SiteObject> out;
  const std::uint32_t member = MemberOf(nvd, o);
  if (member == nvd.NumMembers()) return out;
  nvd.ForEachExpansion(member, [&nvd, &out](std::uint32_t m) {
    out.push_back(nvd.Member(m));
  });
  return out;
}

}  // namespace kspin::testing

#endif  // KSPIN_TESTS_TEST_UTIL_H_

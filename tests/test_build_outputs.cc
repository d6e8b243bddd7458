// Pins the bytes the index builds produce on the DE rung of the dataset
// ladder (3.6k vertices, generated as the benchmarks generate it): the
// contraction hierarchy, the hub labels derived from it, and the keyword
// index with its per-keyword APX-NVDs, except the wall-clock
// build_seconds field. Every build is deterministic, so the inner loops
// that set-up time is spent in — the witness search and contraction
// order, the NVD's multi-source Dijkstra and tie rule, the quadtree's
// Z-order — may be rewritten only if these digests stay put: a change
// that moves one changes an index the engine serves. DE has shortcuts
// decided at the witness settle limit and 31 Voronoi keywords.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "graph/road_network_generator.h"
#include "io/checksum.h"
#include "io/serialization.h"
#include "kspin/keyword_index.h"
#include "routing/contraction_hierarchy.h"
#include "routing/hub_labeling.h"
#include "text/inverted_index.h"
#include "text/zipf_generator.h"

namespace kspin {
namespace {

struct Digest {
  std::size_t size = 0;
  std::uint32_t crc = 0;

  friend bool operator==(const Digest&, const Digest&) = default;
  friend std::ostream& operator<<(std::ostream& out, const Digest& d) {
    return out << "{" << d.size << ", 0x" << std::hex << d.crc << std::dec
               << "}";
  }
};

Digest DigestOf(std::string_view bytes) {
  return {bytes.size(), io::Crc32c(bytes)};
}

// SaveKeywordIndex's header: magic and version (12 bytes), four u32
// options, then the f64 build_seconds_, which differs between any two
// builds.
constexpr std::size_t kBuildSecondsAt = 12 + 4 * 4;

class BuildOutputs : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const DatasetSpec spec = DatasetSpecByName("DE");
    RoadNetworkOptions road;
    road.grid_width = spec.grid_width;
    road.grid_height = spec.grid_height;
    road.seed = spec.seed;
    graph_ = new Graph(GenerateRoadNetwork(road));
    KeywordDatasetOptions keywords;
    keywords.num_keywords = spec.num_keywords;
    keywords.object_fraction = spec.object_fraction;
    keywords.seed = spec.seed + 1000;
    store_ = new DocumentStore(GenerateKeywordDataset(*graph_, keywords));
    inverted_ = new InvertedIndex(*store_, spec.num_keywords);
    ch_ = new ContractionHierarchy(*graph_);
  }

  static void TearDownTestSuite() {
    delete ch_;
    delete inverted_;
    delete store_;
    delete graph_;
  }

  static Graph* graph_;
  static DocumentStore* store_;
  static InvertedIndex* inverted_;
  static ContractionHierarchy* ch_;
};

Graph* BuildOutputs::graph_ = nullptr;
DocumentStore* BuildOutputs::store_ = nullptr;
InvertedIndex* BuildOutputs::inverted_ = nullptr;
ContractionHierarchy* BuildOutputs::ch_ = nullptr;

TEST_F(BuildOutputs, ContractionHierarchyBytes) {
  std::stringstream out;
  SaveContractionHierarchy(*ch_, out);
  EXPECT_EQ(ch_->NumShortcuts(), 4894u);
  EXPECT_EQ(DigestOf(out.str()), (Digest{173988, 0x908d78ee}));
}

TEST_F(BuildOutputs, HubLabelingBytes) {
  const HubLabeling labels(*graph_, *ch_);
  std::stringstream out;
  SaveHubLabeling(labels, out);
  EXPECT_EQ(DigestOf(out.str()), (Digest{634980, 0x78927aac}));
}

TEST_F(BuildOutputs, KeywordIndexBytesButBuildSeconds) {
  // Two threads: the per-keyword builds share one Z-order across them.
  KeywordIndexOptions options;
  options.num_threads = 2;
  const KeywordIndex index(*graph_, *store_, *inverted_, options);
  EXPECT_EQ(index.NumVoronoiIndexes(), 31u);
  std::stringstream out;
  SaveKeywordIndex(index, out);
  std::string bytes = out.str();
  ASSERT_GT(bytes.size(), kBuildSecondsAt + sizeof(double));
  bytes.erase(kBuildSecondsAt, sizeof(double));
  EXPECT_EQ(DigestOf(bytes), (Digest{74963, 0xb21ee696}));
}

}  // namespace
}  // namespace kspin

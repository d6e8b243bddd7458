// Colour quadtree tests: Morton codec, the rho colour bound, point
// location correctness, and space behaviour versus rho (Figure 6a's
// mechanism).
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "common/morton.h"
#include "common/random.h"
#include "io/checksum.h"
#include "nvd/quadtree.h"
#include "nvd/nvd.h"
#include "test_util.h"

namespace kspin {
namespace {

TEST(Morton, EncodeDecodeRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.UniformInt(0, UINT32_MAX));
    const auto y = static_cast<std::uint32_t>(rng.UniformInt(0, UINT32_MAX));
    std::uint32_t dx, dy;
    MortonDecode(MortonEncode(x, y), &dx, &dy);
    EXPECT_EQ(dx, x);
    EXPECT_EQ(dy, y);
  }
}

TEST(Morton, PreservesQuadrantOrder) {
  // Z-order: (0,0) < (1,0) < (0,1) < (1,1) for the lowest bit.
  EXPECT_LT(MortonEncode(0, 0), MortonEncode(1, 0));
  EXPECT_LT(MortonEncode(1, 0), MortonEncode(0, 1));
  EXPECT_LT(MortonEncode(0, 1), MortonEncode(1, 1));
}

TEST(ColorQuadtree, LocateReturnsOwnColor) {
  Graph graph = testing::SmallRoadNetwork();
  Rng rng(2);
  std::vector<std::uint32_t> colors(graph.NumVertices());
  for (auto& c : colors) {
    c = static_cast<std::uint32_t>(rng.UniformInt(0, 20));
  }
  ColorQuadtree tree(graph.Coordinates(), colors, /*max_colors=*/4);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    const auto cell = tree.Locate(graph.VertexCoordinate(v));
    EXPECT_TRUE(std::find(cell.begin(), cell.end(), colors[v]) != cell.end())
        << "vertex " << v;
  }
}

TEST(ColorQuadtree, RespectsColorBoundAwayFromMaxDepth) {
  Graph graph = testing::MediumRoadNetwork();
  // Voronoi colours (spatially coherent) keep leaves under the bound.
  Rng rng(3);
  auto sample = rng.SampleWithoutReplacement(
      static_cast<std::uint32_t>(graph.NumVertices()), 40);
  std::vector<VertexId> sites(sample.begin(), sample.end());
  NetworkVoronoiDiagram nvd = BuildNvd(graph, sites);
  const std::uint32_t rho = 5;
  ColorQuadtree tree(graph.Coordinates(), nvd.owner, rho);
  for (VertexId v = 0; v < graph.NumVertices(); v += 3) {
    const auto cell = tree.Locate(graph.VertexCoordinate(v));
    EXPECT_LE(cell.size(), rho) << "vertex " << v;
  }
}

TEST(ColorQuadtree, SmallerRhoMeansMoreLeaves) {
  Graph graph = testing::MediumRoadNetwork();
  Rng rng(4);
  auto sample = rng.SampleWithoutReplacement(
      static_cast<std::uint32_t>(graph.NumVertices()), 60);
  std::vector<VertexId> sites(sample.begin(), sample.end());
  NetworkVoronoiDiagram nvd = BuildNvd(graph, sites);
  ColorQuadtree exact(graph.Coordinates(), nvd.owner, 1);
  ColorQuadtree apx(graph.Coordinates(), nvd.owner, 5);
  // The rho=1 ("exact region quadtree") must be strictly larger — the
  // space saving of Figure 6a.
  EXPECT_GT(exact.NumLeaves(), apx.NumLeaves());
  EXPECT_GT(exact.MemoryBytes(), apx.MemoryBytes());
  EXPECT_GE(exact.MaxLeafDepth(), apx.MaxLeafDepth());
}

TEST(ColorQuadtree, SingleColorYieldsOneLeaf) {
  std::vector<Coordinate> points = {{0, 0}, {100, 0}, {0, 100}, {37, 59}};
  std::vector<std::uint32_t> colors = {7, 7, 7, 7};
  ColorQuadtree tree(points, colors, 3);
  EXPECT_EQ(tree.NumLeaves(), 1u);
  const auto cell = tree.Locate({50, 50});
  ASSERT_EQ(cell.size(), 1u);
  EXPECT_EQ(cell[0], 7u);
}

TEST(ColorQuadtree, CoincidentPointsOfDifferentColorsStopAtMaxDepth) {
  std::vector<Coordinate> points = {{5, 5}, {5, 5}, {5, 5}, {90, 90}};
  std::vector<std::uint32_t> colors = {1, 2, 3, 4};
  ColorQuadtree tree(points, colors, 1, /*max_depth=*/4);
  const auto cell = tree.Locate({5, 5});
  // The coincident cell must still report all colours (> rho is allowed at
  // max depth; correctness beats the bound).
  EXPECT_GE(cell.size(), 3u);
}

// Coloured point sets for the shared-order tests: the small network's
// vertices plus 60 repeats of earlier ones, so that coincident points
// differ in colour, under 12 random colourings with rho from 1 to 5.
class SharedOrderTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kDepth = 10;

  struct Coloring {
    std::vector<std::uint32_t> colors;
    std::uint32_t rho;
  };

  SharedOrderTest() : points_(testing::SmallRoadNetwork().Coordinates()) {
    for (std::size_t i = 0; i < 60; ++i) points_.push_back(points_[i * 5]);
    Rng rng(6);
    for (std::uint32_t trial = 0; trial < 12; ++trial) {
      Coloring coloring{std::vector<std::uint32_t>(points_.size()),
                        1 + trial % 5};
      for (auto& c : coloring.colors) {
        c = static_cast<std::uint32_t>(rng.UniformInt(0, 2 + 4 * trial));
      }
      colorings_.push_back(std::move(coloring));
    }
  }

  std::vector<Coordinate> points_;
  std::vector<Coloring> colorings_;
};

// Brute force, blind to how a tree orders its points: the leaf a point
// locates to holds exactly the distinct colours of the points locating
// to it, every leaf holds some point, and a leaf holds more than rho
// colours only as one grid cell at maximum depth, which here only
// coincident points share.
TEST_F(SharedOrderTest, EveryLeafHoldsExactlyTheColorsOfItsPoints) {
  const MortonOrder order(points_, kDepth);
  for (std::size_t trial = 0; trial < colorings_.size(); ++trial) {
    const Coloring& coloring = colorings_[trial];
    const ColorQuadtree shared(order, coloring.colors, coloring.rho);
    const ColorQuadtree own(points_, coloring.colors, coloring.rho, kDepth);
    for (const ColorQuadtree* tree : {&shared, &own}) {
      std::map<const std::uint32_t*, std::vector<std::size_t>> leaves;
      for (std::size_t i = 0; i < points_.size(); ++i) {
        leaves[tree->Locate(points_[i]).data()].push_back(i);
      }
      EXPECT_EQ(leaves.size(), tree->NumLeaves()) << "trial " << trial;
      for (const auto& [slice, members] : leaves) {
        const Coordinate& first = points_[members.front()];
        const auto cell = tree->Locate(first);
        std::set<std::uint32_t> want;
        bool coincident = true;
        for (std::size_t i : members) {
          want.insert(coloring.colors[i]);
          coincident = coincident && points_[i] == first;
        }
        const std::set<std::uint32_t> got(cell.begin(), cell.end());
        EXPECT_EQ(got.size(), cell.size()) << "trial " << trial;
        EXPECT_EQ(got, want) << "trial " << trial;
        if (!coincident) {
          EXPECT_LE(cell.size(), coloring.rho) << "trial " << trial;
        }
      }
    }
  }
}

// The saved bytes of each colouring's tree, recorded when every tree
// sorted its own (z, colour) pairs on z. A sort of (z, point) pairs on z
// alone makes the same comparisons, hence the same permutation, so a tree
// gathered from the shared order and a tree built from the points must
// both still save them, colour lists in the same order.
TEST_F(SharedOrderTest, TreesSaveTheBytesOfPerTreeSorting) {
  struct Digest {
    std::size_t size;
    std::uint32_t crc;
  };
  constexpr Digest kSaved[] = {
      {10300, 0x7cbc7d8d}, {8608, 0x0933570d},  {7584, 0x214a69a6},
      {6736, 0x2323ee00},  {5744, 0x9964beb3},  {11308, 0xaff43a4b},
      {9140, 0x76379b6e},  {7972, 0x498980c5},  {7204, 0x01a652d6},
      {6608, 0xd40f1511},  {11372, 0x39ea14df}, {9316, 0x266c7234},
  };
  ASSERT_EQ(colorings_.size(), std::size(kSaved));
  const MortonOrder order(points_, kDepth);
  for (std::size_t trial = 0; trial < colorings_.size(); ++trial) {
    const Coloring& coloring = colorings_[trial];
    const auto expect_saved = [&](const ColorQuadtree& tree) {
      std::stringstream out;
      SaveColorQuadtree(tree, out);
      const std::string bytes = out.str();
      EXPECT_EQ(bytes.size(), kSaved[trial].size) << "trial " << trial;
      EXPECT_EQ(io::Crc32c(bytes), kSaved[trial].crc) << "trial " << trial;
    };
    expect_saved(ColorQuadtree(order, coloring.colors, coloring.rho));
    expect_saved(ColorQuadtree(points_, coloring.colors, coloring.rho, kDepth));
  }
}

TEST(ColorQuadtree, ValidatesInput) {
  std::vector<Coordinate> points = {{0, 0}};
  std::vector<std::uint32_t> colors = {1, 2};
  EXPECT_THROW(ColorQuadtree(points, colors, 2), std::invalid_argument);
  std::vector<std::uint32_t> one = {1};
  EXPECT_THROW(ColorQuadtree(points, one, 0), std::invalid_argument);
  EXPECT_THROW(ColorQuadtree({}, {}, 2), std::invalid_argument);
  const MortonOrder order(points);
  EXPECT_THROW(ColorQuadtree(order, colors, 2), std::invalid_argument);
  EXPECT_THROW(MortonOrder({}), std::invalid_argument);
}

}  // namespace
}  // namespace kspin

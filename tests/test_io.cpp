// Tests for graph/io.hpp: DIMACS and edge-list formats, including
// malformed-input handling and round trips on generated graphs, and
// load_graph's choice of format by extension.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/weights.hpp"
#include "graph/io.hpp"
#include "graph/ops.hpp"
#include "test_helpers.hpp"

namespace gdiam::io {
namespace {

bool graphs_equal(const Graph& a, const Graph& b, double tol = 0.0) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    const auto an = a.neighbors(u), bn = b.neighbors(u);
    const auto aw = a.weights(u), bw = b.weights(u);
    if (an.size() != bn.size()) return false;
    for (std::size_t i = 0; i < an.size(); ++i) {
      if (an[i] != bn[i]) return false;
      if (std::abs(aw[i] - bw[i]) > tol) return false;
    }
  }
  return true;
}

TEST(Dimacs, ParsesSmallInstance) {
  std::istringstream in(
      "c example\n"
      "p sp 3 4\n"
      "a 1 2 5\n"
      "a 2 1 5\n"
      "a 2 3 7\n"
      "a 3 2 7\n");
  const Graph g = read_dimacs(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(edge_weight(g, 0, 1), 5.0);
  EXPECT_DOUBLE_EQ(edge_weight(g, 1, 2), 7.0);
}

TEST(Dimacs, IgnoresSelfLoopArcs) {
  std::istringstream in("p sp 2 2\na 1 1 3\na 1 2 4\n");
  const Graph g = read_dimacs(in);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Dimacs, MissingHeaderThrows) {
  std::istringstream in("a 1 2 3\n");
  EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
}

TEST(Dimacs, BadNodeIdThrows) {
  std::istringstream in("p sp 2 1\na 1 5 3\n");
  EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
}

TEST(Dimacs, UnknownTagThrows) {
  std::istringstream in("p sp 2 1\nz nonsense\n");
  EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
}

TEST(Dimacs, RoundTripIntegerWeights) {
  const Graph g = gen::uniform_int_weights(
      test::make_family(test::Family::kGnmUniform, 60, 7), 1, 1000, 7);
  std::stringstream s;
  write_dimacs(g, s);
  const Graph h = read_dimacs(s);
  EXPECT_TRUE(graphs_equal(g, h));
}

TEST(EdgeList, ParsesWithAndWithoutWeights) {
  std::istringstream in(
      "# comment\n"
      "0 1 2.5\n"
      "1 2\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_DOUBLE_EQ(edge_weight(g, 0, 1), 2.5);
  EXPECT_DOUBLE_EQ(edge_weight(g, 1, 2), 1.0);
}

TEST(EdgeList, CompactsSparseIds) {
  std::istringstream in("1000000 2000000\n2000000 3000000\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(EdgeList, SymmetrizesDirectedDuplicates) {
  // Directed pair (u,v) and (v,u): one undirected edge (min weight).
  std::istringstream in("0 1 4\n1 0 2\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(edge_weight(g, 0, 1), 2.0);
}

TEST(EdgeList, MalformedLineThrows) {
  std::istringstream in("zero one\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(EdgeList, RoundTrip) {
  const Graph g = test::make_family(test::Family::kTreePlusChords, 80, 9);
  std::stringstream s;
  write_edge_list(g, s);
  const Graph h = read_edge_list(s);
  // write_edge_list emits nodes in id order, so compaction preserves ids for
  // connected graphs whose node 0 has an edge; compare structure only.
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

TEST(Files, MissingFileThrows) {
  for (const char* path : {"/nonexistent/gdiam.gcsr", "/nonexistent/gdiam.gr",
                           "/nonexistent/gdiam.txt"}) {
    EXPECT_THROW((void)load_graph(path), std::runtime_error) << path;
  }
}

// The legacy .bin stream format is gone: a .bin path fails with a message
// naming the removed format, even when the file holds a valid old stream.
TEST(Files, LegacyBinPathNamesTheRemovedFormat) {
  const std::string path = testing::TempDir() + "/gdiam_io_legacy.bin";
  {
    std::ofstream f(path, std::ios::binary);
    const std::uint32_t version = 1;
    f.write("GDIA", 4);
    f.write(reinterpret_cast<const char*>(&version), sizeof version);
  }
  for (const std::string& p : {path, std::string("/nonexistent/g.bin")}) {
    try {
      (void)load_graph(p);
      ADD_FAILURE() << "loaded " << p;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("gdiam::io: ", 0), 0u) << what;
      EXPECT_NE(what.find("legacy .bin graph format was removed"),
                std::string::npos)
          << what;
    }
  }
}

}  // namespace
}  // namespace gdiam::io

// Tests for graph/io.hpp: DIMACS, edge-list and binary formats, including
// malformed-input handling and round trips on generated graphs.

#include <gtest/gtest.h>

#include <limits>
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

TEST(Binary, RoundTripExact) {
  const Graph g = gen::uniform_weights(
      test::make_family(test::Family::kMeshUniform, 100, 11), 11);
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(g, s);
  const Graph h = read_binary(s);
  EXPECT_TRUE(graphs_equal(g, h));
}

TEST(Binary, BadMagicThrows) {
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  s << "NOPE furthermore";
  EXPECT_THROW((void)read_binary(s), std::runtime_error);
}

TEST(Binary, TruncatedStreamThrows) {
  const Graph g = gen::unit_weights(test::make_family(
      test::Family::kGnmUniform, 30, 13));
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(g, s);
  const std::string full = s.str();
  std::stringstream cut(full.substr(0, full.size() / 2),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW((void)read_binary(cut), std::runtime_error);
}

// A hand-written .bin stream: magic, version, then three length-prefixed
// arrays. `offsets_len` overrides the offsets length field when nonzero.
std::stringstream raw_binary(const std::vector<EdgeIndex>& offsets,
                             const std::vector<NodeId>& targets,
                             const std::vector<Weight>& weights,
                             std::uint64_t offsets_len = 0) {
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  auto put = [&](const void* p, std::size_t n) {
    s.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  };
  auto put_u64 = [&](std::uint64_t v) { put(&v, sizeof v); };
  put("GDIA", 4);
  const std::uint32_t version = 1;
  put(&version, sizeof version);
  put_u64(offsets_len != 0 ? offsets_len : offsets.size());
  put(offsets.data(), offsets.size() * sizeof(EdgeIndex));
  put_u64(targets.size());
  put(targets.data(), targets.size() * sizeof(NodeId));
  put_u64(weights.size());
  put(weights.data(), weights.size() * sizeof(Weight));
  return s;
}

// Bad .bin input must fail with the reader's own error, never reach Graph.
void expect_io_error(std::stringstream s, const std::string& what) {
  try {
    (void)read_binary(s);
    ADD_FAILURE() << "accepted a stream with " << what;
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("gdiam::io: ", 0), 0u) << e.what();
  }
}

TEST(Binary, HandWrittenStreamReads) {
  auto s = raw_binary({0, 1, 2}, {1, 0}, {1.5, 1.5});
  const Graph g = read_binary(s);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_DOUBLE_EQ(edge_weight(g, 0, 1), 1.5);
}

TEST(Binary, RejectsTargetOutOfRange) {
  expect_io_error(raw_binary({0, 1, 2}, {1, 4000000}, {1, 1}),
                  "target >= n");
}

TEST(Binary, RejectsOffsetsNotStartingAtZero) {
  expect_io_error(raw_binary({1, 1, 2}, {1, 0}, {1, 1}), "offsets[0] != 0");
  expect_io_error(raw_binary({}, {}, {}), "no offsets");
}

TEST(Binary, RejectsDecreasingOffsets) {
  expect_io_error(raw_binary({0, 2, 1, 2}, {1, 0}, {1, 1}),
                  "decreasing offsets");
}

TEST(Binary, RejectsDisagreeingSizes) {
  expect_io_error(raw_binary({0, 1, 3}, {1, 0}, {1, 1}),
                  "offsets.back() != targets");
  expect_io_error(raw_binary({0, 1, 2}, {1, 0}, {1}), "weights != targets");
}

TEST(Binary, RejectsNonPositiveOrNonFiniteWeights) {
  for (const Weight w : {0.0, -1.0, kInfiniteWeight,
                         std::numeric_limits<Weight>::quiet_NaN()}) {
    expect_io_error(raw_binary({0, 1, 2}, {1, 0}, {w, w}),
                    "weight " + std::to_string(w));
  }
}

TEST(Binary, RejectsLengthFieldPastTheStream) {
  // A length no machine can allocate: the reader must reject it from the
  // bytes left in the stream, before sizing any array.
  expect_io_error(raw_binary({0, 1, 2}, {1, 0}, {1, 1},
                             std::numeric_limits<std::uint64_t>::max() / 2),
                  "an oversized length field");
}

TEST(Files, BinaryFileRoundTrip) {
  const Graph g = test::make_family(test::Family::kGnmUniform, 40, 17);
  const std::string path = testing::TempDir() + "/gdiam_io_test.bin";
  write_binary_file(g, path);
  const Graph h = read_binary_file(path);
  EXPECT_TRUE(graphs_equal(g, h));
}

TEST(Files, MissingFileThrows) {
  EXPECT_THROW((void)read_binary_file("/nonexistent/gdiam.bin"),
               std::runtime_error);
  EXPECT_THROW((void)read_dimacs_file("/nonexistent/gdiam.gr"),
               std::runtime_error);
}

}  // namespace
}  // namespace gdiam::io

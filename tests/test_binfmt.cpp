// The .gcsr lock-down suite (graph/binfmt.hpp; DESIGN.md §12).
//
// Three layers of guarantees, each pinned here:
//
//   1. Round-trip properties — for every test family, the mapped CSR arrays,
//      the persisted weight stats and every presplit sidecar are bit-
//      identical to the in-memory originals (not approximately: memcmp).
//   2. Warm-path semantics — exec::Context::adopt_presplits is all-or-
//      nothing, fingerprint-guarded, and produces splits indistinguishable
//      from freshly computed ones; end-to-end estimate/SSSP runs on a mapped
//      graph are bit-identical to runs on a text-ingested copy across every
//      transport and partition count.
//   3. Corruption rejection — a .gcsr that is truncated, bit-flipped,
//      version-bumped, misaligned or torn by an injected write fault is
//      rejected with the contracted typed BinfmtErrc, never a crash and
//      never a half-valid Graph. The corruption helpers re-stamp the
//      checksums the validator checks *before* the mutated field, so each
//      test fails on exactly the check it targets.

#include <omp.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/diameter.hpp"
#include "exec/context.hpp"
#include "graph/binfmt.hpp"
#include "graph/io.hpp"
#include "graph/split_csr.hpp"
#include "serve/graphs.hpp"
#include "sssp/delta_stepping.hpp"
#include "test_helpers.hpp"
#include "util/fault.hpp"

namespace gdiam::io {
namespace {

// --- on-disk layout constants (frozen; mirrored from binfmt.cpp) -----------

constexpr std::size_t kHeaderSize = 128;
constexpr std::size_t kHeaderChecksumOff = 120;  // u64, over bytes [0, 120)
constexpr std::size_t kVersionOff = 8;           // u32
constexpr std::size_t kNumNodesOff = 16;         // u64
constexpr std::size_t kWeightKindOff = 32;       // u32
constexpr std::size_t kSectionCountOff = 36;     // u32
constexpr std::size_t kTableOffOff = 40;         // u64
constexpr std::size_t kMaxWeightOff = 56;        // f64
constexpr std::size_t kEntrySize = 40;
constexpr std::size_t kEntryKindOff = 0;      // u32
constexpr std::size_t kEntryOffsetOff = 8;    // u64
constexpr std::size_t kEntryLengthOff = 16;   // u64
constexpr std::size_t kEntryChecksumOff = 24; // u64

// --- fixture ---------------------------------------------------------------

class BinfmtTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    std::string p = ::testing::TempDir() + "gdiam_binfmt_" +
                    std::to_string(::getpid()) + "_" + name;
    files_.push_back(p);
    return p;
  }

  void TearDown() override {
    util::fault::disarm();
    for (const auto& f : files_) ::unlink(f.c_str());
  }

 private:
  std::vector<std::string> files_;
};

// --- byte-surgery helpers --------------------------------------------------

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void dump(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << path;
}

template <typename T>
T rd(const std::vector<unsigned char>& b, std::size_t off) {
  T v{};
  std::memcpy(&v, b.data() + off, sizeof v);
  return v;
}

template <typename T>
void wr(std::vector<unsigned char>& b, std::size_t off, T v) {
  std::memcpy(b.data() + off, &v, sizeof v);
}

void restamp_header(std::vector<unsigned char>& b) {
  wr<std::uint64_t>(b, kHeaderChecksumOff,
                    gcsr_checksum(b.data(), kHeaderChecksumOff));
}

void restamp_table(std::vector<unsigned char>& b) {
  const auto count = rd<std::uint32_t>(b, kSectionCountOff);
  const auto toff = rd<std::uint64_t>(b, kTableOffOff);
  const std::size_t table_bytes = std::size_t{count} * kEntrySize;
  wr<std::uint64_t>(b, toff + table_bytes,
                    gcsr_checksum(b.data() + toff, table_bytes));
}

/// Byte offset of the i-th section table entry.
std::size_t entry_at(const std::vector<unsigned char>& b, std::size_t i) {
  return rd<std::uint64_t>(b, kTableOffOff) + i * kEntrySize;
}

/// The typed code a failing open produces, or nullopt when it succeeds.
std::optional<BinfmtErrc> open_code(const std::string& path,
                                    const GcsrOpenOptions& opts = {}) {
  try {
    (void)open_mmap(path, opts);
  } catch (const BinfmtError& e) {
    return e.code();
  }
  return std::nullopt;
}

/// The what() of a failing open ("" when it succeeds): the message names
/// the check that failed, finer than the typed code.
std::string open_error(const std::string& path) {
  try {
    (void)open_mmap(path);
  } catch (const BinfmtError& e) {
    return e.what();
  }
  return "";
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// Overwrites element `index` of section `sec`'s payload with `value` and
/// re-stamps that section's checksum and the table checksum, so the file
/// opens clean and only the semantic checks behind it can object.
template <typename T>
void poison_section(std::vector<unsigned char>& b, std::size_t sec,
                    std::size_t index, T value) {
  const std::size_t e = entry_at(b, sec);
  const auto off = rd<std::uint64_t>(b, e + kEntryOffsetOff);
  const auto len = rd<std::uint64_t>(b, e + kEntryLengthOff);
  ASSERT_LT(index * sizeof(T), len);
  wr<T>(b, off + index * sizeof(T), value);
  wr<std::uint64_t>(b, e + kEntryChecksumOff,
                    gcsr_checksum(b.data() + off, len));
  restamp_table(b);
}

/// Element `index` of section `sec`'s payload.
template <typename T>
T section_at(const std::vector<unsigned char>& b, std::size_t sec,
             std::size_t index) {
  return rd<T>(b, rd<std::uint64_t>(b, entry_at(b, sec) + kEntryOffsetOff) +
                      index * sizeof(T));
}

/// Number of elements of type T in section `sec`'s payload.
template <typename T>
std::size_t section_size(const std::vector<unsigned char>& b,
                         std::size_t sec) {
  return rd<std::uint64_t>(b, entry_at(b, sec) + kEntryLengthOff) / sizeof(T);
}

template <typename T>
bool bits_equal(std::span<const T> a, std::span<const T> b) {
  if (a.size() != b.size()) return false;
  return a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

bool same_csr(const Graph& a, const Graph& b) {
  return bits_equal(a.offsets(), b.offsets()) &&
         bits_equal(a.targets(), b.targets()) &&
         bits_equal(a.edge_weights(), b.edge_weights());
}

/// Bit-identity of a split view of g with a freshly computed presplit,
/// node by node (a SplitCsr hands out per-node segments, not raw arrays).
bool same_split(const Graph& g, const SplitCsr& a, const CsrSplit& b) {
  if (b.split.size() != g.num_nodes()) return false;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const EdgeIndex lo = g.offsets()[u];
    const EdgeIndex sp = b.split[u];
    const EdgeIndex hi = g.offsets()[u + 1];
    if (a.split_at(u) != sp) return false;
    const std::span<const NodeId> lt(b.targets.data() + lo, sp - lo);
    const std::span<const NodeId> ht(b.targets.data() + sp, hi - sp);
    const std::span<const Weight> lw(b.weights.data() + lo, sp - lo);
    const std::span<const Weight> hw(b.weights.data() + sp, hi - sp);
    if (!bits_equal(a.light_neighbors(u), lt) ||
        !bits_equal(a.heavy_neighbors(u), ht) ||
        !bits_equal(a.light_weights(u), lw) ||
        !bits_equal(a.heavy_weights(u), hw)) {
      return false;
    }
  }
  return true;
}

/// True when [p, p + bytes) lies inside m's file mapping. The offsets
/// section is the first payload and starts right after the 128-byte header.
bool inside_mapping(const MappedGraph& m, const void* p, std::size_t bytes) {
  const auto* base = reinterpret_cast<const unsigned char*>(
                         m.graph().offsets().data()) -
                     kHeaderSize;
  const auto* q = static_cast<const unsigned char*>(p);
  return q >= base && q + bytes <= base + m.file_bytes();
}

/// Writes g as a full-precision edge list ("%.17g" round-trips every double
/// exactly) so the text-ingest arm of the parity tests carries bit-identical
/// weights. io::write_edge_list streams default precision — fine for humans,
/// not for a bit-parity contract.
/// Writes `g` as an edge list that reads back with the same node ids: the
/// reader compacts ids in order of first appearance and drops self-loops,
/// so one "u u" line per node, in id order, makes the compaction the
/// identity (isolated nodes included).
void write_exact_edge_list(const Graph& g, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr) << path;
  for (NodeId u = 0; u < g.num_nodes(); ++u) std::fprintf(f, "%u %u\n", u, u);
  for (const Edge& e : to_edge_list(g)) {
    std::fprintf(f, "%u %u %.17g\n", e.u, e.v, e.w);
  }
  ASSERT_EQ(std::fclose(f), 0);
}

mr::RoundStats zero_wire(mr::RoundStats s) {
  s.wire_messages = 0;
  s.wire_bytes = 0;
  return s;
}

// --- 1. round-trip properties ----------------------------------------------

TEST_F(BinfmtTest, RoundTripIsBitIdenticalForEveryFamily) {
  int i = 0;
  for (const test::Family f : test::all_families()) {
    SCOPED_TRACE(test::family_name(f));
    const Graph g = test::make_family(f, 120, 42 + i);
    const std::string p = path(std::string("rt_") + test::family_name(f) +
                               ".gcsr");
    // Unsorted with a duplicate: the writer sorts and dedups.
    write_gcsr(g, p, {.presplit_deltas = {0.5, 0.05, 0.5}});

    const MappedGraph m = open_mmap(p);
    const Graph& h = m.graph();
    EXPECT_TRUE(h.is_mapped());
    EXPECT_EQ(h.num_nodes(), g.num_nodes());
    EXPECT_EQ(h.num_directed_edges(), g.num_directed_edges());
    EXPECT_TRUE(same_csr(g, h));
    // Persisted weight stats are the exact doubles, not recomputed ones.
    EXPECT_EQ(h.min_weight(), g.min_weight());
    EXPECT_EQ(h.max_weight(), g.max_weight());
    EXPECT_EQ(h.avg_weight(), g.avg_weight());

    EXPECT_EQ(m.presplit_deltas(), (std::vector<Weight>{0.05, 0.5}));
    for (const Weight delta : m.presplit_deltas()) {
      const std::optional<SplitCsr> loaded = m.presplit(h, delta);
      ASSERT_TRUE(loaded.has_value());
      const CsrSplit fresh = presplit_csr(g.offsets(), g.targets(),
                                          g.edge_weights(), delta);
      EXPECT_TRUE(same_split(h, *loaded, fresh)) << "delta=" << delta;
    }
    EXPECT_FALSE(m.presplit(h, 0.123).has_value());
    ++i;
  }
}

TEST_F(BinfmtTest, RoundTripsDegenerateGraphs) {
  for (const NodeId n : {NodeId{0}, NodeId{1}, NodeId{3}}) {
    SCOPED_TRACE(n);
    const Graph g = build_graph(n, {});  // no edges at all
    const std::string p = path("tiny_" + std::to_string(n) + ".gcsr");
    write_gcsr(g, p, {.presplit_deltas = {1.0}});
    const MappedGraph m = open_mmap(p);
    EXPECT_EQ(m.graph().num_nodes(), n);
    EXPECT_EQ(m.graph().num_directed_edges(), 0u);
    EXPECT_TRUE(same_csr(g, m.graph()));
    const std::optional<SplitCsr> s = m.presplit(m.graph(), 1.0);
    ASSERT_TRUE(s.has_value());
    EXPECT_TRUE(s->validate());
  }
}

TEST_F(BinfmtTest, FingerprintIsAFunctionOfTheGraphAlone) {
  const Graph g = test::make_family(test::Family::kMeshUniform, 100, 7);
  const std::string a = path("fp_a.gcsr");
  const std::string b = path("fp_b.gcsr");
  write_gcsr(g, a);
  write_gcsr(g, b, {.presplit_deltas = {0.25}});  // sidecars don't change it
  EXPECT_EQ(open_mmap(a).fingerprint(), open_mmap(b).fingerprint());

  const Graph other = test::make_family(test::Family::kGnmUniform, 100, 8);
  const std::string c = path("fp_c.gcsr");
  write_gcsr(other, c);
  EXPECT_NE(open_mmap(a).fingerprint(), open_mmap(c).fingerprint());
}

TEST_F(BinfmtTest, MappingOutlivesTheMappedGraphObject) {
  const Graph src = test::make_family(test::Family::kTreePlusChords, 80, 3);
  const std::string p = path("keepalive.gcsr");
  write_gcsr(src, p);
  Graph g;
  {
    const MappedGraph m = open_mmap(p);
    g = m.graph();
  }  // m is gone; g's backing keeps the mapping alive
  EXPECT_TRUE(g.is_mapped());
  EXPECT_TRUE(same_csr(src, g));
  EXPECT_TRUE(g.validate());
}

TEST_F(BinfmtTest, RejectsNonFinitePresplitDeltas) {
  const Graph g = build_graph(2, {{0, 1, 1.0}});
  const std::string p = path("baddelta.gcsr");
  try {
    write_gcsr(g, p, {.presplit_deltas = {-1.0}});
    FAIL() << "negative delta accepted";
  } catch (const BinfmtError& e) {
    EXPECT_EQ(e.code(), BinfmtErrc::kBadPresplit);
  }
}

// --- 2a. warm-path semantics: adoption --------------------------------------

TEST_F(BinfmtTest, AdoptPresplitsWarmsTheContextCache) {
  const Graph src = test::make_family(test::Family::kGnmUniform, 150, 11);
  const std::string p = path("adopt.gcsr");
  write_gcsr(src, p, {.presplit_deltas = {0.1, 0.3}});

  const MappedGraph m = open_mmap(p);
  const Graph g = m.graph();  // copies share the mapping: still covered
  ASSERT_TRUE(m.covers(g));

  exec::Context ctx;
  EXPECT_FALSE(ctx.has_split(g, 0.1));
  EXPECT_EQ(ctx.adopt_presplits(g, m), 2u);
  EXPECT_TRUE(ctx.has_split(g, 0.1));
  EXPECT_TRUE(ctx.has_split(g, 0.3));
  EXPECT_FALSE(ctx.has_split(g, 0.2));
  // Idempotent: everything is already cached.
  EXPECT_EQ(ctx.adopt_presplits(g, m), 0u);

  // The adopted split is indistinguishable from a freshly computed one.
  const SplitCsr& adopted = ctx.split_for(g, 0.1);
  EXPECT_TRUE(adopted.validate());
  const CsrSplit fresh = presplit_csr(g.offsets(), g.targets(),
                                      g.edge_weights(), 0.1);
  EXPECT_TRUE(same_split(g, adopted, fresh));
}

TEST_F(BinfmtTest, AdoptedSidecarIsAViewIntoTheMapping) {
  const Graph src = test::make_family(test::Family::kRmatGiant, 150, 4);
  const std::string p = path("inplace.gcsr");
  write_gcsr(src, p, {.presplit_deltas = {0.3}});

  const MappedGraph m = open_mmap(p);
  const Graph g = m.graph();
  exec::Context ctx;
  ASSERT_EQ(ctx.adopt_presplits(g, m), 1u);
  const SplitCsr& adopted = ctx.split_for(g, 0.3);
  // No copy: the adopted split keeps the file mapped and every segment it
  // hands out points into the mapping.
  EXPECT_EQ(adopted.backing(), g.backing());
  bool light_seen = false, heavy_seen = false;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto ln = adopted.light_neighbors(u);
    const auto lw = adopted.light_weights(u);
    const auto hn = adopted.heavy_neighbors(u);
    const auto hw = adopted.heavy_weights(u);
    EXPECT_TRUE(inside_mapping(m, ln.data(), ln.size_bytes())) << u;
    EXPECT_TRUE(inside_mapping(m, lw.data(), lw.size_bytes())) << u;
    EXPECT_TRUE(inside_mapping(m, hn.data(), hn.size_bytes())) << u;
    EXPECT_TRUE(inside_mapping(m, hw.data(), hw.size_bytes())) << u;
    light_seen = light_seen || !ln.empty();
    heavy_seen = heavy_seen || !hn.empty();
  }
  EXPECT_TRUE(light_seen && heavy_seen);  // both classes were exercised
  // A split built in memory owns its arrays instead.
  const SplitCsr built(g, 0.3);
  EXPECT_NE(built.backing(), g.backing());
  EXPECT_FALSE(inside_mapping(m, built.light_neighbors(0).data(), 1));
}

TEST_F(BinfmtTest, AdoptionRejectsAGraphTheFileDoesNotCover) {
  const Graph src = test::make_family(test::Family::kMeshUniform, 100, 5);
  const std::string p = path("foreign.gcsr");
  write_gcsr(src, p, {.presplit_deltas = {0.2}});
  const MappedGraph m = open_mmap(p);

  // `src` is the same graph by value, but it is owned storage, not a view
  // into this mapping — adoption must refuse it.
  EXPECT_FALSE(m.covers(src));
  exec::Context ctx;
  try {
    ctx.adopt_presplits(src, m);
    FAIL() << "adoption against a non-covered graph succeeded";
  } catch (const BinfmtError& e) {
    EXPECT_EQ(e.code(), BinfmtErrc::kFingerprintMismatch);
  }
  EXPECT_FALSE(ctx.has_split(src, 0.2));
}

TEST_F(BinfmtTest, MappedViewRebuildsTheSidecarIndexFromABacking) {
  const Graph src = test::make_family(test::Family::kRmatGiant, 128, 9);
  const std::string p = path("view.gcsr");
  write_gcsr(src, p, {.presplit_deltas = {0.4}});

  const MappedGraph m = open_mmap(p);
  const Graph g = m.graph();
  const std::optional<MappedGraph> v = mapped_view(g);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->fingerprint(), m.fingerprint());
  EXPECT_EQ(v->presplit_deltas(), m.presplit_deltas());
  EXPECT_TRUE(v->covers(g));

  EXPECT_FALSE(mapped_view(src).has_value());  // owned graphs have no view
}

TEST_F(BinfmtTest, GraphStoreColdStartAdoptsSidecars) {
  const Graph src = test::make_family(test::Family::kMeshUniform, 100, 21);
  const std::string p = path("store.gcsr");
  write_gcsr(src, p, {.presplit_deltas = {0.15}});

  serve::GraphStore store;
  serve::GraphStore::Entry& e = store.get("file:" + p);
  EXPECT_TRUE(e.loaded);
  EXPECT_TRUE(e.graph.is_mapped());
  EXPECT_TRUE(same_csr(src, e.graph));
  // The daemon's first query at Δ=0.15 hits the persisted layout.
  EXPECT_TRUE(e.ctx.has_split(e.graph, 0.15));
}

// --- 2b. warm-path semantics: end-to-end parity -----------------------------

struct ParityConfig {
  std::uint32_t partitions;
  mr::TransportKind transport;
  std::uint32_t processes;
  const char* name;
};

sssp::DeltaSteppingOptions sssp_opts(const ParityConfig& c) {
  sssp::DeltaSteppingOptions o;
  o.delta = 0.0;  // heuristic Δ = avg weight: exercises the persisted stat
  o.partition.num_partitions = c.partitions;
  o.transport.kind = c.transport;
  o.transport.processes = c.processes;
  return o;
}

/// Both transports × K ∈ {1, 2, 7}; the pool needs a partitioned run, so
/// K=1 pairs only with the local transport.
std::vector<ParityConfig> parity_configs() {
  return {
      {1, mr::TransportKind::kLocal, 1, "K1/local"},
      {2, mr::TransportKind::kLocal, 1, "K2/local"},
      {2, mr::TransportKind::kPool, 2, "K2/pool"},
      {7, mr::TransportKind::kLocal, 1, "K7/local"},
      {7, mr::TransportKind::kPool, 2, "K7/pool"},
  };
}

TEST_F(BinfmtTest, SsspParityTextVsMmapAcrossTransports) {
  int i = 0;
  for (const test::Family f : test::all_families()) {
    SCOPED_TRACE(test::family_name(f));
    const Graph built = test::make_family(f, 110, 77 + i);
    const std::string tp = path(std::string("par_") + test::family_name(f) +
                                ".el");
    const std::string bp = path(std::string("par_") + test::family_name(f) +
                                ".gcsr");
    write_exact_edge_list(built, tp);
    write_gcsr(built, bp,
               {.presplit_deltas = {built.avg_weight()}});

    const Graph text = read_edge_list_file(tp);
    ASSERT_EQ(text.num_nodes(), built.num_nodes());
    const MappedGraph m = open_mmap(bp);
    const Graph mapped = m.graph();

    exec::Context text_ctx;
    exec::Context map_ctx;
    map_ctx.adopt_presplits(mapped, m);

    for (const ParityConfig& c : parity_configs()) {
      SCOPED_TRACE(c.name);
      const auto opts = sssp_opts(c);
      const auto a = sssp::delta_stepping(text, 0, opts, &text_ctx);
      const auto b = sssp::delta_stepping(mapped, 0, opts, &map_ctx);
      EXPECT_EQ(a.dist, b.dist);
      EXPECT_EQ(a.eccentricity, b.eccentricity);
      EXPECT_EQ(a.farthest, b.farthest);
      EXPECT_EQ(a.delta_used, b.delta_used);  // heuristic Δ from same avg
      EXPECT_EQ(a.buckets_processed, b.buckets_processed);
      // Wire counters depend on transport framing, not the graph source —
      // zeroed the same way tests/test_transport.cpp compares them.
      EXPECT_EQ(zero_wire(a.stats), zero_wire(b.stats));
    }
    ++i;
  }
}

TEST_F(BinfmtTest, DiameterEstimateParityTextVsMmapAcrossTransports) {
  const Graph built = test::make_family(test::Family::kGnmUniform, 140, 19);
  const std::string tp = path("diam.el");
  const std::string bp = path("diam.gcsr");
  write_exact_edge_list(built, tp);
  write_gcsr(built, bp);

  const Graph text = read_edge_list_file(tp);
  const MappedGraph m = open_mmap(bp);
  const Graph mapped = m.graph();

  for (const ParityConfig& c : parity_configs()) {
    SCOPED_TRACE(c.name);
    core::DiameterApproxOptions opts;
    opts.cluster.tau = 4;
    opts.cluster.seed = 5;
    opts.cluster.partition.num_partitions = c.partitions;
    opts.cluster.transport.kind = c.transport;
    opts.cluster.transport.processes = c.processes;
    const auto a = core::approximate_diameter(text, opts);
    const auto b = core::approximate_diameter(mapped, opts);
    EXPECT_EQ(a.estimate, b.estimate);
    EXPECT_EQ(a.estimate_classic, b.estimate_classic);
    EXPECT_EQ(a.quotient_diam, b.quotient_diam);
    EXPECT_EQ(a.radius, b.radius);
    EXPECT_EQ(a.num_clusters, b.num_clusters);
    EXPECT_EQ(a.clustering.center_of, b.clustering.center_of);
    EXPECT_EQ(zero_wire(a.stats), zero_wire(b.stats));
  }
}

// --- 3. corruption rejection ------------------------------------------------

/// One valid fixture shared by the negative tests: small graph, one sidecar.
Graph corruption_fixture(const std::string& p) {
  const Graph g = test::make_family(test::Family::kMeshUniform, 64, 13);
  write_gcsr(g, p, {.presplit_deltas = {0.1, 0.2}});
  return g;
}

TEST_F(BinfmtTest, RejectsTruncationAtEveryLayer) {
  const std::string p = path("trunc.gcsr");
  (void)corruption_fixture(p);
  const auto bytes = slurp(p);
  // Inside the header; inside the payloads (table unreachable); missing
  // final table-checksum word.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{64}, std::size_t{127}, bytes.size() / 2,
        bytes.size() - 4}) {
    SCOPED_TRACE(cut);
    dump(p, {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)});
    EXPECT_EQ(open_code(p), BinfmtErrc::kTruncated);
  }
}

TEST_F(BinfmtTest, RejectsBadMagic) {
  const std::string p = path("magic.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  bytes[0] ^= 0xff;  // checked before any checksum: no re-stamp needed
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kBadMagic);
}

TEST_F(BinfmtTest, RejectsFutureVersion) {
  const std::string p = path("version.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  wr<std::uint32_t>(bytes, kVersionOff, kGcsrVersion + 1);
  // The version check runs before the header checksum by contract, so a
  // future-version file is reported as such even with a stale checksum…
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kBadVersion);
  // …and of course with a valid one.
  restamp_header(bytes);
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kBadVersion);
}

TEST_F(BinfmtTest, RejectsHeaderBitFlip) {
  const std::string p = path("header.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  wr<std::uint64_t>(bytes, kNumNodesOff,
                    rd<std::uint64_t>(bytes, kNumNodesOff) + 1);
  dump(p, bytes);  // no re-stamp: the header checksum must catch it
  EXPECT_EQ(open_code(p), BinfmtErrc::kBadHeader);
}

TEST_F(BinfmtTest, RejectsUnknownWeightKind) {
  const std::string p = path("wkind.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  wr<std::uint32_t>(bytes, kWeightKindOff, 7);
  restamp_header(bytes);
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kBadWeightKind);
}

TEST_F(BinfmtTest, RejectsPayloadBitFlip) {
  const std::string p = path("payload.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  // Flip one byte inside the targets payload (section table entry 1).
  const auto off = rd<std::uint64_t>(bytes, entry_at(bytes, 1) +
                                                kEntryOffsetOff);
  bytes[off] ^= 0x01;
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kChecksumMismatch);
  EXPECT_TRUE(contains(open_error(p), "section 1 (kind 2) checksum mismatch"))
      << open_error(p);
  // verify_checksums=false skips the payload pass — but the fingerprint in
  // the header no longer matches what this section's stored checksum feeds
  // into, so nothing here silently succeeds; flipping a *weights* byte and
  // disabling verification is the documented trust tradeoff.
  EXPECT_EQ(open_code(p, {.verify_checksums = false}), std::nullopt);
}

TEST_F(BinfmtTest, RejectsTableBitFlip) {
  const std::string p = path("table.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  const std::size_t e1 = entry_at(bytes, 1);
  wr<std::uint64_t>(bytes, e1 + kEntryChecksumOff,
                    rd<std::uint64_t>(bytes, e1 + kEntryChecksumOff) ^ 1);
  dump(p, bytes);  // table checksum not re-stamped: it must catch this
  EXPECT_EQ(open_code(p), BinfmtErrc::kChecksumMismatch);
  EXPECT_TRUE(contains(open_error(p), "section table checksum mismatch"))
      << open_error(p);
}

TEST_F(BinfmtTest, RejectsMisalignedSection) {
  const std::string p = path("align.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  const std::size_t e1 = entry_at(bytes, 1);
  wr<std::uint64_t>(bytes, e1 + kEntryOffsetOff,
                    rd<std::uint64_t>(bytes, e1 + kEntryOffsetOff) + 8);
  restamp_table(bytes);  // past the table check, onto the alignment check
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kMisalignedSection);
}

TEST_F(BinfmtTest, RejectsWrongSectionKindAndLength) {
  const std::string p = path("kind.gcsr");
  (void)corruption_fixture(p);
  const auto pristine = slurp(p);

  auto bytes = pristine;
  wr<std::uint32_t>(bytes, entry_at(bytes, 0) + kEntryKindOff, 9);
  restamp_table(bytes);
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kBadSection);

  bytes = pristine;
  const std::size_t e2 = entry_at(bytes, 2);
  wr<std::uint64_t>(bytes, e2 + kEntryLengthOff,
                    rd<std::uint64_t>(bytes, e2 + kEntryLengthOff) - 8);
  restamp_table(bytes);
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kBadSection);
}

/// Opens `p` (which must validate clean) and checks that adopting its
/// sidecars throws kBadPresplit and commits neither of the fixture's Δs.
void expect_rejected_without_partial_adoption(const std::string& p) {
  const MappedGraph m = open_mmap(p);  // full checksum pass is clean
  const Graph g = m.graph();
  exec::Context ctx;
  try {
    (void)ctx.adopt_presplits(g, m);
    ADD_FAILURE() << "poisoned sidecar adopted";
  } catch (const BinfmtError& e) {
    EXPECT_EQ(e.code(), BinfmtErrc::kBadPresplit) << e.what();
  }
  // All-or-nothing adoption: the good Δ=0.1 layout must NOT be committed
  // when the Δ=0.2 one throws.
  EXPECT_FALSE(ctx.has_split(g, 0.1));
  EXPECT_FALSE(ctx.has_split(g, 0.2));
}

// Sections of the corruption fixture: 0–2 graph CSR, 3–5 the Δ=0.1 triple,
// 6–8 the Δ=0.2 triple (split, targets, weights).
constexpr std::size_t kSplit02 = 6;
constexpr std::size_t kTargets02 = 7;
constexpr std::size_t kWeights02 = 8;

TEST_F(BinfmtTest, CorruptSidecarIsRejectedWithoutPartialAdoption) {
  const std::string p = path("sidecar.gcsr");
  (void)corruption_fixture(p);  // sidecars for Δ = 0.1 and Δ = 0.2
  auto bytes = slurp(p);

  // Poison the Δ=0.2 split array with an out-of-bounds offset and re-stamp
  // its checksum: the file validates clean at open, the semantic bounds
  // check at load time is the last line of defense.
  poison_section<std::uint64_t>(bytes, kSplit02, 0, ~std::uint64_t{0});
  dump(p, bytes);

  const MappedGraph m = open_mmap(p);  // full checksum pass is clean
  const Graph g = m.graph();
  // The intact sidecar still yields a view.
  ASSERT_TRUE(m.presplit(g, 0.1).has_value());
  try {
    (void)m.presplit(g, 0.2);
    FAIL() << "out-of-bounds sidecar loaded";
  } catch (const BinfmtError& e) {
    EXPECT_EQ(e.code(), BinfmtErrc::kBadPresplit);
  }
  expect_rejected_without_partial_adoption(p);
}

TEST_F(BinfmtTest, OutOfRangeSidecarTargetIsRejectedWithoutPartialAdoption) {
  const std::string p = path("sidecar_target.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  // A target far past n: a kernel reading dist[target] through the adopted
  // view would fault.
  poison_section<std::uint32_t>(bytes, kTargets02, 0, 0x7fffffffu);
  dump(p, bytes);
  expect_rejected_without_partial_adoption(p);
}

TEST_F(BinfmtTest, HeavyWeightInLightSegmentIsRejectedWithoutPartialAdoption) {
  const std::string p = path("sidecar_side.gcsr");
  (void)corruption_fixture(p);
  const auto pristine = slurp(p);
  const std::size_t arcs = section_size<Weight>(pristine, kWeights02);
  std::size_t light = arcs, heavy = arcs;
  for (std::size_t i = 0; i < arcs; ++i) {
    const auto w = section_at<Weight>(pristine, kWeights02, i);
    if (w <= 0.2 && light == arcs) light = i;
    if (w > 0.2 && heavy == arcs) heavy = i;
  }
  ASSERT_LT(light, arcs);
  ASSERT_LT(heavy, arcs);
  // Copy a heavy weight (> Δ = 0.2) over the first light one: the weight
  // is a real edge weight of the graph, only its side of Δ is wrong.
  auto bytes = pristine;
  poison_section<Weight>(bytes, kWeights02, light,
                         section_at<Weight>(bytes, kWeights02, heavy));
  dump(p, bytes);
  expect_rejected_without_partial_adoption(p);
  // And the converse: a light weight in the heavy segment.
  bytes = pristine;
  poison_section<Weight>(bytes, kWeights02, heavy,
                         section_at<Weight>(bytes, kWeights02, light));
  dump(p, bytes);
  expect_rejected_without_partial_adoption(p);
}

TEST_F(BinfmtTest, SidecarWeightOutsideTheGraphRangeIsRejected) {
  const std::string p = path("sidecar_weight.gcsr");
  const Graph g = corruption_fixture(p);
  const auto pristine = slurp(p);
  // Each poison lands on a heavy arc, so a value on the right side of Δ
  // (2 × max, ∞) can only be caught by the range checks.
  const std::size_t arcs = section_size<Weight>(pristine, kWeights02);
  std::size_t heavy = arcs;
  for (std::size_t i = 0; i < arcs && heavy == arcs; ++i) {
    if (section_at<Weight>(pristine, kWeights02, i) > 0.2) heavy = i;
  }
  ASSERT_LT(heavy, arcs);
  for (const Weight w :
       {2.0 * g.max_weight(), kInfiniteWeight,
        std::numeric_limits<Weight>::quiet_NaN(), 0.0, -1.0}) {
    SCOPED_TRACE(w);
    auto bytes = pristine;
    poison_section<Weight>(bytes, kWeights02, heavy, w);
    dump(p, bytes);
    expect_rejected_without_partial_adoption(p);
  }
  // A header whose max_weight was re-stamped to ∞ does not admit an
  // infinite sidecar weight either.
  auto bytes = pristine;
  wr<Weight>(bytes, kMaxWeightOff, kInfiniteWeight);
  restamp_header(bytes);
  poison_section<Weight>(bytes, kWeights02, heavy, kInfiniteWeight);
  dump(p, bytes);
  expect_rejected_without_partial_adoption(p);
}

// --- 3b. parallel verification is deterministic -----------------------------

/// Runs `fn` with the OpenMP team size set to `threads`, then restores it.
template <typename Fn>
void with_threads(int threads, Fn&& fn) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
  fn();
  omp_set_num_threads(saved);
}

TEST_F(BinfmtTest, ParallelVerificationNamesTheLowestCorruptSection) {
  const std::string p = path("two_bad.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  // Corrupt the graph's targets (section 1) and the Δ=0.1 presplit targets
  // (section 4), checksums left stale: both tasks see a mismatch.
  for (const std::size_t sec : {std::size_t{1}, std::size_t{4}}) {
    bytes[rd<std::uint64_t>(bytes, entry_at(bytes, sec) + kEntryOffsetOff)] ^=
        0x01;
  }
  dump(p, bytes);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    with_threads(threads, [&] {
      EXPECT_EQ(open_code(p), BinfmtErrc::kChecksumMismatch);
      const std::string what = open_error(p);
      EXPECT_TRUE(contains(what, "section 1 (kind 2) checksum mismatch"))
          << what;
    });
  }
}

TEST_F(BinfmtTest, WriterOutputIsByteIdenticalAcrossThreadCounts) {
  const Graph g = test::make_family(test::Family::kRmatGiant, 300, 6);
  const std::string a = path("threads_1.gcsr");
  const std::string b = path("threads_4.gcsr");
  const GcsrWriteOptions opts{.presplit_deltas = {0.2, 0.6}};
  with_threads(1, [&] { write_gcsr(g, a, opts); });
  with_threads(4, [&] { write_gcsr(g, b, opts); });
  const auto bytes_a = slurp(a);
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_TRUE(bytes_a == slurp(b));
  EXPECT_EQ(open_mmap(a).fingerprint(), open_mmap(b).fingerprint());
}

TEST_F(BinfmtTest, WriteFaultsSurfaceAsTypedIoErrors) {
  const Graph g = test::make_family(test::Family::kMeshUniform, 64, 13);
  const std::string p = path("fault.gcsr");

  util::fault::arm("io.write=errno:5@2");
  try {
    write_gcsr(g, p);
    FAIL() << "armed errno fault did not fail the write";
  } catch (const BinfmtError& e) {
    EXPECT_EQ(e.code(), BinfmtErrc::kIoError);
  }
  EXPECT_EQ(util::fault::fired("io.write"), 1u);
  util::fault::disarm();

  // A short write tears the file mid-section; the torn prefix on disk must
  // be rejected by open_mmap, never parsed into a half-valid graph.
  util::fault::arm("io.write=short@2");
  EXPECT_THROW(write_gcsr(g, p), BinfmtError);
  util::fault::disarm();
  const auto code = open_code(p);
  ASSERT_TRUE(code.has_value()) << "torn file opened successfully";
  EXPECT_EQ(*code, BinfmtErrc::kTruncated);

  // With faults disarmed the same write succeeds and round-trips.
  write_gcsr(g, p);
  EXPECT_TRUE(same_csr(g, open_mmap(p).graph()));
}

TEST_F(BinfmtTest, ErrorCodesHaveStableNames) {
  EXPECT_STREQ(to_string(BinfmtErrc::kBadMagic), "bad_magic");
  EXPECT_STREQ(to_string(BinfmtErrc::kChecksumMismatch), "checksum_mismatch");
  // what() carries the path for log-grepping.
  const std::string p = path("absent.gcsr");
  try {
    (void)open_mmap(p);
    FAIL() << "opened a nonexistent file";
  } catch (const BinfmtError& e) {
    EXPECT_NE(std::string(e.what()).find(p), std::string::npos);
  }
}

}  // namespace
}  // namespace gdiam::io

#include "graph/binfmt.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <utility>

#include "util/fault.hpp"

namespace gdiam::io {

namespace {

constexpr char kMagic[8] = {'g', 'd', 'i', 'a', 'm', 'C', 'S', 'R'};
constexpr std::size_t kAlign = 64;
constexpr std::uint32_t kFlagHasPresplit = 1u;
constexpr std::uint32_t kWeightKindF64 = 0;

// Section kinds, in the order they appear in a file.
constexpr std::uint32_t kSecOffsets = 1;
constexpr std::uint32_t kSecTargets = 2;
constexpr std::uint32_t kSecWeights = 3;
constexpr std::uint32_t kSecPresplitSplit = 4;
constexpr std::uint32_t kSecPresplitTargets = 5;
constexpr std::uint32_t kSecPresplitWeights = 6;

/// 128-byte on-disk header. The layout is frozen: future format versions
/// may only reinterpret `reserved`, so version checking always works.
struct GcsrHeader {
  char magic[8];
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_arcs = 0;
  std::uint32_t weight_kind = 0;
  std::uint32_t section_count = 0;
  std::uint64_t section_table_off = 0;
  double min_weight = 0.0;
  double max_weight = 0.0;
  double avg_weight = 0.0;
  std::uint64_t fingerprint = 0;
  std::uint8_t reserved[40] = {};
  std::uint64_t header_checksum = 0;  // over the first 120 bytes
};
static_assert(sizeof(GcsrHeader) == 128, "frozen .gcsr header layout");

/// 40-byte on-disk section table entry.
struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint32_t reserved = 0;
  std::uint64_t offset = 0;  // absolute byte offset, 64-byte aligned
  std::uint64_t length = 0;  // payload bytes (padding excluded)
  std::uint64_t checksum = 0;
  double delta = 0.0;  // presplit sections only
};
static_assert(sizeof(SectionEntry) == 40, "frozen .gcsr table layout");

[[noreturn]] void fail(BinfmtErrc code, const std::string& detail) {
  throw BinfmtError(code, detail);
}

constexpr std::uint64_t align_up(std::uint64_t off) {
  return (off + (kAlign - 1)) & ~static_cast<std::uint64_t>(kAlign - 1);
}

std::uint64_t fingerprint_of(std::uint64_t n, std::uint64_t arcs,
                             std::uint64_t ck_offsets,
                             std::uint64_t ck_targets,
                             std::uint64_t ck_weights) noexcept {
  const std::uint64_t words[5] = {n, arcs, ck_offsets, ck_targets, ck_weights};
  return gcsr_checksum(words, sizeof words);
}

/// One section payload: where it starts and how many bytes it has.
struct Extent {
  const void* data;
  std::uint64_t length;
};

/// gcsr_checksum of every extent, as parallel per-section tasks. FNV-1a is a
/// serial chain within a section, so the sections are the unit of
/// parallelism; the largest start first so a big one never trails the rest.
/// Each task writes only its own slot, so the values do not depend on the
/// thread count or the schedule. The writer fills its table and open_mmap
/// verifies payloads through this one helper.
std::vector<std::uint64_t> section_checksums(const std::vector<Extent>& ex) {
  std::vector<std::size_t> order(ex.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ex[a].length > ex[b].length;
                   });
  std::vector<std::uint64_t> out(ex.size());
  const auto tasks = static_cast<std::ptrdiff_t>(order.size());
#pragma omp parallel for schedule(dynamic, 1)
  for (std::ptrdiff_t k = 0; k < tasks; ++k) {
    const std::size_t i = order[static_cast<std::size_t>(k)];
    out[i] = gcsr_checksum(ex[i].data, ex[i].length);
  }
  return out;
}

// --- writer ----------------------------------------------------------------

/// Every byte leaving write_gcsr goes through here — the "io.write" fault
/// point turns errno faults into typed throws and short faults into a real
/// torn prefix on disk (which open_mmap then rejects as truncated).
void write_all(std::ofstream& f, const std::string& path, const void* data,
               std::size_t len) {
  if (len == 0) return;  // empty sections; keeps fault hit counts meaningful
  const auto outcome = util::fault::check("io.write");
  if (outcome.fail) {
    fail(BinfmtErrc::kIoError,
         path + ": write failed: " + std::strerror(errno));
  }
  if (outcome.short_io) {
    f.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(len / 2));
    f.flush();
    fail(BinfmtErrc::kIoError, path + ": short write (torn file)");
  }
  f.write(static_cast<const char*>(data), static_cast<std::streamsize>(len));
  if (!f) {
    fail(BinfmtErrc::kIoError,
         path + ": write failed: " + std::strerror(errno));
  }
}

void write_padding(std::ofstream& f, const std::string& path,
                   std::uint64_t from, std::uint64_t to) {
  static constexpr char kZeros[kAlign] = {};
  while (from < to) {
    const auto chunk = std::min<std::uint64_t>(to - from, sizeof kZeros);
    write_all(f, path, kZeros, chunk);
    from += chunk;
  }
}

}  // namespace

const char* to_string(BinfmtErrc code) noexcept {
  switch (code) {
    case BinfmtErrc::kIoError: return "io_error";
    case BinfmtErrc::kBadMagic: return "bad_magic";
    case BinfmtErrc::kBadVersion: return "bad_version";
    case BinfmtErrc::kBadHeader: return "bad_header";
    case BinfmtErrc::kTruncated: return "truncated";
    case BinfmtErrc::kMisalignedSection: return "misaligned_section";
    case BinfmtErrc::kBadSection: return "bad_section";
    case BinfmtErrc::kChecksumMismatch: return "checksum_mismatch";
    case BinfmtErrc::kBadWeightKind: return "bad_weight_kind";
    case BinfmtErrc::kBadPresplit: return "bad_presplit";
    case BinfmtErrc::kFingerprintMismatch: return "fingerprint_mismatch";
  }
  return "?";
}

BinfmtError::BinfmtError(BinfmtErrc code, const std::string& detail)
    : std::runtime_error("gdiam::io: gcsr " + std::string(to_string(code)) +
                         ": " + detail),
      code_(code) {}

std::uint64_t gcsr_checksum(const void* data, std::size_t len) noexcept {
  // FNV-1a 64 folded over 8-byte words (tail bytes one at a time): the
  // byte-serial variant caps verification at a few hundred MB/s, which would
  // make checksum-verified open_mmap slower than the presplit work the
  // sidecars exist to skip.
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h ^= w;
    h *= 0x100000001b3ull;
  }
  for (; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void write_gcsr(const Graph& g, const std::string& path,
                const GcsrWriteOptions& opts) {
  std::vector<Weight> deltas = opts.presplit_deltas;
  for (const Weight d : deltas) {
    if (!std::isfinite(d) || d < 0.0) {
      fail(BinfmtErrc::kBadPresplit,
           path + ": presplit delta must be finite and >= 0");
    }
  }
  std::sort(deltas.begin(), deltas.end());
  deltas.erase(std::unique(deltas.begin(), deltas.end()), deltas.end());

  const std::uint64_t n = g.num_nodes();
  const std::uint64_t arcs = g.num_directed_edges();

  struct Payload {
    std::uint32_t kind;
    double delta;
    Extent bytes;
  };
  std::vector<Payload> payloads;
  payloads.reserve(3 + 3 * deltas.size());
  payloads.push_back(
      {kSecOffsets, 0.0, {g.offsets().data(), g.offsets().size_bytes()}});
  payloads.push_back(
      {kSecTargets, 0.0, {g.targets().data(), g.targets().size_bytes()}});
  payloads.push_back({kSecWeights, 0.0,
                      {g.edge_weights().data(), g.edge_weights().size_bytes()}});

  // The reorder happens here, once, at conversion time — exactly the work a
  // presplit-warmed server start skips.
  std::vector<CsrSplit> splits;
  splits.reserve(deltas.size());
  for (const Weight d : deltas) {
    splits.push_back(
        presplit_csr(g.offsets(), g.targets(), g.edge_weights(), d));
    const CsrSplit& s = splits.back();
    payloads.push_back({kSecPresplitSplit, d,
                        {s.split.data(), s.split.size() * sizeof(EdgeIndex)}});
    payloads.push_back(
        {kSecPresplitTargets, d,
         {s.targets.data(), s.targets.size() * sizeof(NodeId)}});
    payloads.push_back(
        {kSecPresplitWeights, d,
         {s.weights.data(), s.weights.size() * sizeof(Weight)}});
  }

  std::vector<Extent> extents;
  extents.reserve(payloads.size());
  for (const Payload& p : payloads) extents.push_back(p.bytes);
  const std::vector<std::uint64_t> checksums = section_checksums(extents);

  std::vector<SectionEntry> table;
  table.reserve(payloads.size());
  std::uint64_t off = sizeof(GcsrHeader);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const Payload& p = payloads[i];
    off = align_up(off);
    table.push_back({p.kind, 0, off, p.bytes.length, checksums[i], p.delta});
    off += p.bytes.length;
  }
  const std::uint64_t table_off = align_up(off);

  GcsrHeader header;
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.version = kGcsrVersion;
  header.flags = deltas.empty() ? 0 : kFlagHasPresplit;
  header.num_nodes = n;
  header.num_arcs = arcs;
  header.weight_kind = kWeightKindF64;
  header.section_count = static_cast<std::uint32_t>(table.size());
  header.section_table_off = table_off;
  header.min_weight = g.min_weight();
  header.max_weight = g.max_weight();
  header.avg_weight = g.avg_weight();
  header.fingerprint = fingerprint_of(n, arcs, table[0].checksum,
                                      table[1].checksum, table[2].checksum);
  header.header_checksum =
      gcsr_checksum(&header, sizeof header - sizeof header.header_checksum);

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    fail(BinfmtErrc::kIoError, "cannot open '" + path + "' for writing");
  }
  write_all(f, path, &header, sizeof header);
  std::uint64_t cur = sizeof(GcsrHeader);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    write_padding(f, path, cur, table[i].offset);
    write_all(f, path, payloads[i].bytes.data, payloads[i].bytes.length);
    cur = table[i].offset + table[i].length;
  }
  write_padding(f, path, cur, table_off);
  const std::uint64_t table_bytes = table.size() * sizeof(SectionEntry);
  write_all(f, path, table.data(), table_bytes);
  const std::uint64_t table_ck = gcsr_checksum(table.data(), table_bytes);
  write_all(f, path, &table_ck, sizeof table_ck);
  f.close();
  if (f.fail()) {
    fail(BinfmtErrc::kIoError, path + ": close failed");
  }
}

// --- reader ----------------------------------------------------------------

/// The mapped file: owns the mmap region and the validated section index.
/// Immutable after open_mmap; shared by every Graph view into it.
class GcsrFile {
 public:
  GcsrFile(const std::string& p, const std::byte* base, std::size_t size)
      : path(p), base_(base), size_(size) {}
  GcsrFile(const GcsrFile&) = delete;
  GcsrFile& operator=(const GcsrFile&) = delete;
  ~GcsrFile() {
    if (base_ != nullptr) {
      ::munmap(const_cast<std::byte*>(base_), size_);
    }
  }

  [[nodiscard]] const std::byte* at(std::uint64_t off) const noexcept {
    return base_ + off;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  std::string path;
  GcsrHeader header;
  std::vector<SectionEntry> sections;
  std::vector<Weight> deltas;  // ascending; one triple of sections each

 private:
  const std::byte* base_ = nullptr;
  std::size_t size_ = 0;
};

namespace {

/// Shape of one section kind for a graph with n nodes and `arcs` arcs.
std::uint64_t expected_length(std::uint32_t kind, std::uint64_t n,
                              std::uint64_t arcs) {
  switch (kind) {
    case kSecOffsets: return (n + 1) * sizeof(EdgeIndex);
    case kSecTargets: return arcs * sizeof(NodeId);
    case kSecWeights: return arcs * sizeof(Weight);
    case kSecPresplitSplit: return n * sizeof(EdgeIndex);
    case kSecPresplitTargets: return arcs * sizeof(NodeId);
    case kSecPresplitWeights: return arcs * sizeof(Weight);
    default: return ~std::uint64_t{0};
  }
}

template <typename T>
std::span<const T> section_span(const GcsrFile& f, const SectionEntry& e) {
  return {reinterpret_cast<const T*>(f.at(e.offset)),
          static_cast<std::size_t>(e.length / sizeof(T))};
}

}  // namespace

std::uint64_t MappedGraph::fingerprint() const noexcept {
  return file_ != nullptr ? file_->header.fingerprint : 0;
}

const std::vector<Weight>& MappedGraph::presplit_deltas() const noexcept {
  static const std::vector<Weight> kEmpty;
  return file_ != nullptr ? file_->deltas : kEmpty;
}

std::size_t MappedGraph::file_bytes() const noexcept {
  return file_ != nullptr ? file_->size() : 0;
}

bool MappedGraph::covers(const Graph& g) const noexcept {
  if (file_ == nullptr) return false;
  return g.offsets().data() == graph_.offsets().data() &&
         g.offsets().size() == graph_.offsets().size() &&
         g.targets().data() == graph_.targets().data() &&
         g.targets().size() == graph_.targets().size() &&
         g.edge_weights().data() == graph_.edge_weights().data() &&
         g.edge_weights().size() == graph_.edge_weights().size();
}

std::optional<SplitCsr> MappedGraph::presplit(const Graph& g,
                                              Weight delta) const {
  if (file_ == nullptr) return std::nullopt;
  const GcsrFile& f = *file_;
  if (!covers(g)) {
    fail(BinfmtErrc::kFingerprintMismatch,
         f.path + ": presplit view for a graph this mapping does not cover");
  }
  // Find the sidecar triple for this exact Δ.
  const SectionEntry* split_e = nullptr;
  const SectionEntry* targets_e = nullptr;
  const SectionEntry* weights_e = nullptr;
  for (const SectionEntry& e : f.sections) {
    if (e.kind == kSecPresplitSplit && e.delta == delta) split_e = &e;
    if (e.kind == kSecPresplitTargets && e.delta == delta) targets_e = &e;
    if (e.kind == kSecPresplitWeights && e.delta == delta) weights_e = &e;
  }
  if (split_e == nullptr) return std::nullopt;
  // open_mmap validated triples arrive complete; keep the invariant local.
  if (targets_e == nullptr || weights_e == nullptr) {
    fail(BinfmtErrc::kBadSection, f.path + ": incomplete presplit sidecar");
  }
  const auto split = section_span<EdgeIndex>(f, *split_e);
  const auto targets = section_span<NodeId>(f, *targets_e);
  const auto weights = section_span<Weight>(f, *weights_e);
  const auto offsets = graph_.offsets();
  const NodeId n = graph_.num_nodes();
  const EdgeIndex arcs = graph_.num_directed_edges();
  if (split.size() != n || targets.size() != arcs || weights.size() != arcs) {
    fail(BinfmtErrc::kBadSection, f.path + ": presplit sidecar shape");
  }
  // Kernels index through the view without checks, so everything they rely
  // on is checked here, in one parallel pass: split[u] inside u's segment,
  // every target a node, every weight positive, finite, at most the
  // header's max weight and on its side of Δ. Checksums catch corruption;
  // this catches a buggy or adversarial writer that re-stamped them.
  const Weight max_w = graph_.max_weight();
  const auto arc_bad = [&](EdgeIndex i) {
    const Weight w = weights[i];
    return static_cast<int>(targets[i] >= n) |
           static_cast<int>(!(w > 0.0 && w <= max_w)) |
           static_cast<int>(w == kInfiniteWeight);
  };
  int bad = 0;
#pragma omp parallel for schedule(dynamic, 1024) reduction(| : bad)
  for (NodeId u = 0; u < n; ++u) {
    const EdgeIndex lo = offsets[u];
    const EdgeIndex sp = split[u];
    const EdgeIndex hi = offsets[u + 1];
    if (!(lo <= sp && sp <= hi && hi <= arcs)) {
      bad = 1;
      continue;
    }
    for (EdgeIndex i = lo; i < sp; ++i) {
      bad |= arc_bad(i) | static_cast<int>(!(weights[i] <= delta));
    }
    for (EdgeIndex i = sp; i < hi; ++i) {
      bad |= arc_bad(i) | static_cast<int>(weights[i] <= delta);
    }
  }
  if (bad != 0) {
    fail(BinfmtErrc::kBadPresplit,
         f.path + ": presplit sidecar violates CSR bounds or its Δ split");
  }
  return SplitCsr(g, delta, split, targets, weights, file_);
}

MappedGraph open_mmap(const std::string& path, const GcsrOpenOptions& opts) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    fail(BinfmtErrc::kIoError,
         "cannot open '" + path + "': " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail(BinfmtErrc::kIoError, path + ": fstat: " + std::strerror(err));
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < sizeof(GcsrHeader)) {
    ::close(fd);
    fail(BinfmtErrc::kTruncated, path + ": shorter than the 128-byte header");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping outlives the descriptor
  if (map == MAP_FAILED) {
    fail(BinfmtErrc::kIoError, path + ": mmap: " + std::strerror(errno));
  }
  auto file = std::make_shared<GcsrFile>(
      path, static_cast<const std::byte*>(map), size);

  GcsrHeader& h = file->header;
  std::memcpy(&h, file->at(0), sizeof h);
  if (std::memcmp(h.magic, kMagic, sizeof kMagic) != 0) {
    fail(BinfmtErrc::kBadMagic, path + ": not a .gcsr file");
  }
  if (h.version != kGcsrVersion) {
    fail(BinfmtErrc::kBadVersion,
         path + ": format version " + std::to_string(h.version) +
             " (this build reads version " + std::to_string(kGcsrVersion) +
             ")");
  }
  if (gcsr_checksum(&h, sizeof h - sizeof h.header_checksum) !=
      h.header_checksum) {
    fail(BinfmtErrc::kBadHeader, path + ": header checksum mismatch");
  }
  if (h.weight_kind != kWeightKindF64) {
    fail(BinfmtErrc::kBadWeightKind,
         path + ": weight kind " + std::to_string(h.weight_kind));
  }
  if (h.num_nodes > std::uint64_t{kInvalidNode} - 1) {
    fail(BinfmtErrc::kBadHeader, path + ": node count exceeds NodeId range");
  }
  if (h.section_count < 3) {
    fail(BinfmtErrc::kBadHeader, path + ": fewer than 3 sections");
  }
  const std::uint64_t table_bytes =
      std::uint64_t{h.section_count} * sizeof(SectionEntry);
  if (h.section_table_off < sizeof(GcsrHeader) ||
      h.section_table_off > size ||
      table_bytes + sizeof(std::uint64_t) > size - h.section_table_off) {
    fail(BinfmtErrc::kTruncated,
         path + ": section table extends past end of file");
  }
  file->sections.resize(h.section_count);
  std::memcpy(file->sections.data(), file->at(h.section_table_off),
              table_bytes);
  std::uint64_t table_ck = 0;
  std::memcpy(&table_ck, file->at(h.section_table_off + table_bytes),
              sizeof table_ck);
  if (gcsr_checksum(file->sections.data(), table_bytes) != table_ck) {
    fail(BinfmtErrc::kChecksumMismatch,
         path + ": section table checksum mismatch");
  }

  // Structural validation of the section index.
  const std::uint64_t n = h.num_nodes;
  const std::uint64_t arcs = h.num_arcs;
  const std::uint32_t graph_kinds[3] = {kSecOffsets, kSecTargets,
                                        kSecWeights};
  for (std::size_t i = 0; i < file->sections.size(); ++i) {
    const SectionEntry& e = file->sections[i];
    if (e.offset % kAlign != 0) {
      fail(BinfmtErrc::kMisalignedSection,
           path + ": section " + std::to_string(i) + " at offset " +
               std::to_string(e.offset) + " is not 64-byte aligned");
    }
    if (e.offset < sizeof(GcsrHeader) || e.offset > size ||
        e.length > h.section_table_off ||
        e.offset + e.length > h.section_table_off) {
      fail(BinfmtErrc::kTruncated,
           path + ": section " + std::to_string(i) + " out of bounds");
    }
    if (e.length != expected_length(e.kind, n, arcs)) {
      fail(BinfmtErrc::kBadSection,
           path + ": section " + std::to_string(i) + " (kind " +
               std::to_string(e.kind) + ") has the wrong length");
    }
    if (i < 3 && e.kind != graph_kinds[i]) {
      fail(BinfmtErrc::kBadSection,
           path + ": graph sections must lead the file in CSR order");
    }
  }
  // Presplit sidecars arrive as (split, targets, weights) triples with one
  // Δ each, strictly ascending.
  if ((file->sections.size() - 3) % 3 != 0) {
    fail(BinfmtErrc::kBadSection, path + ": dangling presplit sections");
  }
  for (std::size_t i = 3; i < file->sections.size(); i += 3) {
    const SectionEntry& a = file->sections[i];
    const SectionEntry& b = file->sections[i + 1];
    const SectionEntry& c = file->sections[i + 2];
    if (a.kind != kSecPresplitSplit || b.kind != kSecPresplitTargets ||
        c.kind != kSecPresplitWeights || a.delta != b.delta ||
        a.delta != c.delta || !std::isfinite(a.delta)) {
      fail(BinfmtErrc::kBadSection, path + ": malformed presplit sidecar");
    }
    if (!file->deltas.empty() && !(a.delta > file->deltas.back())) {
      fail(BinfmtErrc::kBadSection,
           path + ": presplit deltas not strictly ascending");
    }
    file->deltas.push_back(a.delta);
  }

  if (opts.verify_checksums) {
    std::vector<Extent> extents;
    extents.reserve(file->sections.size());
    for (const SectionEntry& e : file->sections) {
      extents.push_back({file->at(e.offset), e.length});
    }
    const std::vector<std::uint64_t> actual = section_checksums(extents);
    // Every section is hashed before any is judged, and the report names
    // the lowest mismatching index: the same error at any thread count.
    for (std::size_t i = 0; i < file->sections.size(); ++i) {
      const SectionEntry& e = file->sections[i];
      if (actual[i] != e.checksum) {
        fail(BinfmtErrc::kChecksumMismatch,
             path + ": section " + std::to_string(i) + " (kind " +
                 std::to_string(e.kind) + ") checksum mismatch");
      }
    }
  }
  if (fingerprint_of(n, arcs, file->sections[0].checksum,
                     file->sections[1].checksum,
                     file->sections[2].checksum) != h.fingerprint) {
    fail(BinfmtErrc::kBadHeader, path + ": graph fingerprint mismatch");
  }

  const auto offsets = section_span<EdgeIndex>(*file, file->sections[0]);
  const auto targets = section_span<NodeId>(*file, file->sections[1]);
  const auto weights = section_span<Weight>(*file, file->sections[2]);
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != arcs) {
    fail(BinfmtErrc::kBadSection, path + ": offsets array inconsistent");
  }
  MappedGraph out;
  out.file_ = file;
  out.graph_ = Graph(offsets, targets, weights, file, h.min_weight,
                     h.max_weight, h.avg_weight);
  if (opts.verify_checksums && !out.graph_.validate()) {
    // Checksums match what the writer wrote, but the writer wrote a CSR
    // that violates the Graph invariants (unsorted offsets, out-of-range
    // targets, non-positive weights).
    fail(BinfmtErrc::kBadSection, path + ": mapped CSR fails validation");
  }
  return out;
}

std::optional<MappedGraph> mapped_view(const Graph& g) {
  if (!g.is_mapped()) return std::nullopt;
  auto file = std::static_pointer_cast<const GcsrFile>(g.backing());
  const GcsrHeader& h = file->header;
  MappedGraph out;
  out.file_ = file;
  // Rebind the canonical full-graph view from the (already validated)
  // section index, so covers() checks against the file, not against `g`.
  out.graph_ = Graph(section_span<EdgeIndex>(*file, file->sections[0]),
                     section_span<NodeId>(*file, file->sections[1]),
                     section_span<Weight>(*file, file->sections[2]), file,
                     h.min_weight, h.max_weight, h.avg_weight);
  return out;
}

}  // namespace gdiam::io

#pragma once
// The versioned on-disk binary CSR format (.gcsr) — DESIGN.md §12.
//
// A .gcsr file is the mmap-ready image of one gdiam::Graph plus optional
// per-Δ presplit sidecars:
//
//   [  0, 128)  GcsrHeader: magic "gdiamCSR", format version, flags, n,
//               arc count, weight kind, persisted weight stats (so opening
//               never scans the weights section), graph fingerprint, and a
//               checksum over the header bytes themselves.
//   [128, ...)  section payloads, each padded to a 64-byte boundary so the
//               mapped pointers are aligned for every element type (and for
//               cache-line-clean kernel scans):
//                 offsets  (n+1) × u64   |
//                 targets   2m  × u32    |- the Graph's CSR arrays
//                 weights   2m  × f64    |
//               and, per persisted Δ (sorted ascending):
//                 presplit_split    n  × u64   first-heavy index per node
//                 presplit_targets  2m × u32   light-first permutation
//                 presplit_weights  2m × f64   (aligned with targets)
//   [table]     SectionEntry[section_count]: kind, byte offset/length, an
//               FNV-1a checksum of the payload, and the Δ for sidecar
//               sections; followed by a u64 checksum of the table bytes.
//
// All integers are little-endian host-width PODs — the format is an image
// of the in-memory layout, not an interchange format (use DIMACS / edge
// lists to talk to other tools). open_mmap() maps the file, validates
// magic, version, header and table checksums, section alignment and bounds
// — and, by default, every section payload checksum (one parallel task per
// section) and the CSR invariants — and hands out a zero-copy Graph whose
// spans point straight into the mapping. Every failure throws BinfmtError
// with a typed code; a corrupt or torn file can never produce a Graph.
//
// The presplit sidecars exist because a Δ-stepping server cold-start
// otherwise pays the O(m) light/heavy reorder per (graph, Δ) before the
// first query (Meyer–Sanders cost model; DESIGN.md §6):
// exec::Context::adopt_presplits() installs them into the layout cache as
// zero-copy SplitCsr views of the mapping (MappedGraph::presplit) after one
// validation pass, so a restarted gdiamd serves its first query from the
// same layouts the previous process computed, without copying them.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/split_csr.hpp"

namespace gdiam::io {

/// Current .gcsr format version. Readers reject files with any other value
/// (the header layout itself is frozen across versions).
inline constexpr std::uint32_t kGcsrVersion = 1;

/// Why a .gcsr read or write failed.
enum class BinfmtErrc {
  kIoError,           // open/map/write syscall failed (errno-level)
  kBadMagic,          // not a .gcsr file
  kBadVersion,        // future (or unknown) format version
  kBadHeader,         // header checksum mismatch or inconsistent fields
  kTruncated,         // file shorter than its own header/table claims
  kMisalignedSection, // section payload not 64-byte aligned
  kBadSection,        // section table inconsistent (kind/bounds/shape)
  kChecksumMismatch,  // a payload or table checksum does not match
  kBadWeightKind,     // weight encoding this build does not understand
  kBadPresplit,       // sidecar passed checksums but violates CSR bounds
  kFingerprintMismatch,  // sidecar adoption against a different graph
};

[[nodiscard]] const char* to_string(BinfmtErrc code) noexcept;

/// Every binfmt failure carries a typed code; what() includes the path.
class BinfmtError : public std::runtime_error {
 public:
  BinfmtError(BinfmtErrc code, const std::string& detail);
  [[nodiscard]] BinfmtErrc code() const noexcept { return code_; }

 private:
  BinfmtErrc code_;
};

/// FNV-1a 64 folded over 8-byte words (tail bytes individually) — the
/// checksum every section, the header and the section table carry. Exposed
/// so tests and tooling can re-stamp deliberately corrupted fixtures.
[[nodiscard]] std::uint64_t gcsr_checksum(const void* data,
                                          std::size_t len) noexcept;

struct GcsrWriteOptions {
  /// Δ values whose presplit layout is persisted as sidecar sections.
  /// Deduplicated and sorted ascending by the writer; the file records the
  /// exact double, and adoption matches it bit-for-bit.
  std::vector<Weight> presplit_deltas;
};

/// Writes `g` as a .gcsr file at `path`. Throws BinfmtError{kIoError} on
/// any write failure (fault point "io.write": errno and short-write faults
/// fail the write with the typed error; a torn run leaves a file that
/// open_mmap rejects as truncated, never a half-valid graph).
void write_gcsr(const Graph& g, const std::string& path,
                const GcsrWriteOptions& opts = {});

struct GcsrOpenOptions {
  /// Verify every section payload checksum at open (one read of the file,
  /// one parallel task per section) and then the mapped CSR invariants
  /// (Graph::validate, a parallel pass). Disable only for huge trusted
  /// files where first-touch laziness matters more than early corruption
  /// detection; header, table and structural validation always run.
  bool verify_checksums = true;
};

/// A mapped .gcsr file: the zero-copy Graph view plus the sidecar index.
/// Copies share the mapping (shared_ptr semantics); the mapping lives until
/// the last copy of this object *and* of graph() dies.
class MappedGraph {
 public:
  MappedGraph() = default;

  /// The zero-copy graph view. Copying the returned Graph is cheap and
  /// keeps the mapping alive through its backing keep-alive.
  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }

  /// The header's graph fingerprint: a pure function of (n, arcs, offsets/
  /// targets/weights checksums). Two files of the same graph agree on it.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  /// Δ values with persisted presplit sidecars, ascending.
  [[nodiscard]] const std::vector<Weight>& presplit_deltas() const noexcept;

  /// The persisted presplit for `delta` (exact bit match) as a zero-copy
  /// SplitCsr over `g`: its spans point into the mapping and its keep-alive
  /// holds the file mapped. nullopt when the file has no sidecar for that Δ.
  /// `g` must be a view of this mapping (covers(g)), else it throws
  /// BinfmtError{kFingerprintMismatch}. One parallel pass first checks all
  /// a kernel relies on; a sidecar that passed its checksum but breaks one
  /// of these throws BinfmtError{kBadPresplit}:
  ///   - split[u] lies inside u's CSR segment;
  ///   - every target is < n;
  ///   - every weight is positive, finite and at most the header's
  ///     max_weight;
  ///   - every weight sits on its side of Δ (light ⇔ w ≤ Δ).
  [[nodiscard]] std::optional<SplitCsr> presplit(const Graph& g,
                                                 Weight delta) const;

  /// True when `g` is a view into this mapping with this file's shape —
  /// the precondition for adopting sidecars for it.
  [[nodiscard]] bool covers(const Graph& g) const noexcept;

  [[nodiscard]] std::size_t file_bytes() const noexcept;

 private:
  friend MappedGraph open_mmap(const std::string&, const GcsrOpenOptions&);
  friend std::optional<MappedGraph> mapped_view(const Graph&);
  std::shared_ptr<const class GcsrFile> file_;
  Graph graph_;
};

/// Maps `path` and validates it (see class comment). Throws BinfmtError.
[[nodiscard]] MappedGraph open_mmap(const std::string& path,
                                    const GcsrOpenOptions& opts = {});

/// Rebuilds the MappedGraph view (sidecar index included) of a Graph whose
/// storage is an open_mmap mapping, from its backing keep-alive — no file
/// access, no re-validation. Returns nullopt for owned graphs. Pre: a
/// non-null Graph backing always comes from open_mmap; binfmt is the only
/// producer of mapped graphs in the library.
[[nodiscard]] std::optional<MappedGraph> mapped_view(const Graph& g);

}  // namespace gdiam::io

#pragma once
// Graph serialization.
//
// Two interchange formats so users can run the paper's real datasets:
//  * DIMACS ".gr" — the 9th DIMACS shortest-path challenge format used by
//    roads-USA / roads-CAL ("p sp n m" header, "a u v w" arc lines, 1-based).
//  * SNAP edge list — whitespace-separated "u v [w]" lines with '#' comments,
//    the format of the SNAP/LAW social graphs (weight defaults to 1).
// The binary format is .gcsr (graph/binfmt.hpp), which load_graph maps.

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace gdiam::io {

/// Reads a DIMACS .gr stream. Arcs appearing in both directions collapse to
/// one undirected edge (min weight). Throws std::runtime_error on malformed
/// input.
[[nodiscard]] Graph read_dimacs(std::istream& in);
[[nodiscard]] Graph read_dimacs_file(const std::string& path);

/// Writes DIMACS .gr (each undirected edge emitted as two arcs, weights
/// rounded up to ≥1 integers when fractional — DIMACS weights are integral).
void write_dimacs(const Graph& g, std::ostream& out);
void write_dimacs_file(const Graph& g, const std::string& path);

/// Reads a SNAP-style edge list: "u v" or "u v w" per line, '#' comments.
/// Node ids need not be contiguous; they are compacted preserving order of
/// first appearance. Directed inputs are symmetrized (paper: "the twitter
/// graph, originally directed, has been symmetrized").
/// `size_hint_bytes` (stream length, when known) presizes the edge buffer
/// and the id-remap table so the scan does not rehash/reallocate while
/// loading; the file variant derives it from the file size automatically.
/// The scan streams through fixed 1 MiB chunks with a bounded (64 KiB)
/// carry buffer for boundary-straddling lines — peak transient memory is
/// independent of the input size.
[[nodiscard]] Graph read_edge_list(std::istream& in,
                                   std::size_t size_hint_bytes = 0);
[[nodiscard]] Graph read_edge_list_file(const std::string& path);

void write_edge_list(const Graph& g, std::ostream& out);

/// Reads a graph file, choosing the format by extension: .gr (DIMACS), .gcsr
/// (zero-copy mmap, graph/binfmt.hpp; the returned Graph keeps the mapping
/// alive), anything else an edge list. A .bin path, the removed legacy
/// binary format, throws std::runtime_error naming it.
[[nodiscard]] Graph load_graph(const std::string& path);

}  // namespace gdiam::io

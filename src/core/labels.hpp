#pragma once
// Packed node labels for the Δ-growing kernels.
//
// During cluster growth every node carries a state (c_u, d_u): the tentative
// cluster center and a distance bound (Section 3 of the paper). The paper's
// update rule on conflicts is "smallest d_v wins, ties broken by the center
// with smallest index". We encode the state in one 64-bit word
//
//     [ order-bits(float d) : 32 | center id : 32 ]
//
// so that an unsigned integer *min* implements exactly that rule, and the
// parallel relaxation becomes a pure min-reduction: the fixpoint of a step is
// independent of thread interleaving (deterministic). Distances carry float
// precision inside the kernel (documented in DESIGN.md; full-precision
// accumulation happens in the per-cluster distance bookkeeping).

#include <cmath>
#include <cstdint>

#include "graph/graph.hpp"
#include "util/bitpack.hpp"

namespace gdiam::core {

using PackedLabel = std::uint64_t;

[[nodiscard]] constexpr PackedLabel pack_label(float dist,
                                               NodeId center) noexcept {
  return (static_cast<PackedLabel>(util::float_order_bits(dist)) << 32) |
         center;
}

[[nodiscard]] constexpr float label_dist(PackedLabel l) noexcept {
  return util::float_from_order_bits(static_cast<std::uint32_t>(l >> 32));
}

[[nodiscard]] constexpr NodeId label_center(PackedLabel l) noexcept {
  return static_cast<NodeId>(l & 0xffffffffULL);
}

/// The initial state (c_u undefined, d_u = ∞); larger than any real label.
inline constexpr PackedLabel kUnassignedLabel =
    pack_label(std::numeric_limits<float>::infinity(), kInvalidNode);

[[nodiscard]] constexpr bool label_assigned(PackedLabel l) noexcept {
  return l != kUnassignedLabel && label_center(l) != kInvalidNode;
}

/// A double-precision upper bound on the weight of the relaxation chain
/// behind a float label `d` that is at most `steps` hops long and starts at
/// a source whose own distance is at most `offset`. Each hop rounds
/// fl(b + w) to the nearest float, so it may lose up to 2⁻²⁴ of the chain
/// weight: d can sit below the chain's true weight, and adding `d` to
/// `offset` would not be an upper bound. The factor (1 + (steps+1)·2⁻²³)
/// covers that loss for any chain of ≤ 2²⁴ hops. The factor
/// (1 + (steps+1)·2⁻⁵²) and the final round-up cover the double rounding of
/// a path sum of that many hops (DESIGN.md §3 "Label precision").
[[nodiscard]] inline Weight label_chain_bound(Weight offset, float d,
                                              std::uint64_t steps) noexcept {
  const double hops = static_cast<double>(steps) + 1.0;
  const Weight b = (offset + static_cast<Weight>(d) * (1.0 + hops * 0x1p-23)) *
                   (1.0 + hops * 0x1p-52);
  return std::nextafter(b, kInfiniteWeight);
}

}  // namespace gdiam::core

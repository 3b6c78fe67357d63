// Division-free coordinate arithmetic on a torus's node ids.
//
// Node ids are mixed-radix values of the coordinate tuple (torus.h): a
// node's coordinates are its digits, and one step along dimension i moves
// the id by stride_i.  Lattice caches the radices and strides so that the
// per-node and per-link loops of the cut, sweep, placement and load code
// run without decoding ids through Torus, which divides and range-checks
// on every call:
//
//   - for_each_node walks every node in id order with an odometer over
//     its coordinates;
//   - for_each_pos_link walks one dimension as blocks (outer block ×
//     layer v × inner stride) and yields each node's + neighbour;
//   - encode maps a coordinate row to its id, add and sum translate rows.
//
// decode() is the one operation that divides, once per id it is given.
// Ids the walks generate are in range by construction and are not
// checked again.

#pragma once

#include <array>
#include <cstddef>

#include "src/torus/torus.h"

namespace tp {

struct Lattice {
  explicit Lattice(const Torus& torus)
      : d(static_cast<std::size_t>(torus.dims())),
        num_nodes(torus.num_nodes()) {
    i64 s = 1;
    for (std::size_t i = d; i-- > 0;) {
      radix[i] = torus.radix(static_cast<i32>(i));
      stride[i] = s;
      s *= radix[i];
    }
  }

  /// Writes the coordinates of n to c[0..d).
  void decode(NodeId n, i32* c) const {
    for (std::size_t i = 0; i < d; ++i)
      c[i] = static_cast<i32>((n / stride[i]) % radix[i]);
  }

  /// The node at coordinates c (in range).
  NodeId encode(const i32* c) const {
    NodeId n = 0;
    for (std::size_t i = 0; i < d; ++i) n += c[i] * stride[i];
    return n;
  }

  /// out = a + b (both rows in range); out may alias a or b.
  void add(const i32* a, const i32* b, i32* out) const {
    for (std::size_t i = 0; i < d; ++i) {
      out[i] = a[i] + b[i];
      if (out[i] >= radix[i]) out[i] -= radix[i];
    }
  }

  /// The node at coordinates a + b (both rows in range).
  NodeId sum(const i32* a, const i32* b) const {
    NodeId n = 0;
    for (std::size_t i = 0; i < d; ++i) {
      i32 c = a[i] + b[i];
      if (c >= radix[i]) c -= radix[i];
      n += c * stride[i];
    }
    return n;
  }

  /// Calls fn(n, c) for every node n in id order, c its coordinates: an
  /// odometer over the digits, the last dimension fastest.
  template <typename Fn>
  void for_each_node(Fn&& fn) const {
    std::array<i32, kMaxDims> c{};
    for (NodeId n = 0; n < num_nodes; ++n) {
      fn(n, static_cast<const i32*>(c.data()));
      for (std::size_t i = d; i-- > 0;) {
        if (++c[i] < radix[i]) break;
        c[i] = 0;
      }
    }
  }

  /// Calls fn(n, up, v) for every node n in id order: v is n's coordinate
  /// in `dim` and up the head of n's + link along `dim`.  Every wire of
  /// the dimension is exactly one such link together with its reverse,
  /// the - link of `up`.
  template <typename Fn>
  void for_each_pos_link(i32 dim, Fn&& fn) const {
    const auto u = static_cast<std::size_t>(dim);
    const i32 k = radix[u];
    const i64 s = stride[u];
    for (NodeId block = 0; block < num_nodes; block += k * s) {
      for (i32 v = 0; v < k; ++v) {
        const i64 step = v + 1 < k ? s : -(k - 1) * s;
        const NodeId first = block + v * s;
        for (NodeId n = first; n < first + s; ++n) fn(n, n + step, v);
      }
    }
  }

  std::size_t d;
  i64 num_nodes;
  std::array<i32, kMaxDims> radix{};
  std::array<i64, kMaxDims> stride{};
};

}  // namespace tp

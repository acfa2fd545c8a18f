// Per-shard anchor index: pruned nearest-anchor search.
//
// Screening cost is one scan over the shard's anchor database per request.
// Sharding already cuts that from all-M anchors (every venue) to the
// shard's own M_s; this index cuts the *within-shard* scan further with a
// centroid bound: precompute the shard centroid c and every anchor's
// distance ||a_i - c||, sort anchors by it, and at query time skip any
// anchor whose triangle-inequality lower bound
//
//     d(q, a_i) >= | d(q, c) - d(a_i, c) |
//
// cannot beat the best distance found so far. The scan runs outward from
// the anchors nearest the centroid-distance of the query, so the bound
// tightens fast on the clustered fingerprint manifolds real floorplans
// produce. The returned minimum is the exact same nearest-anchor distance
// a full scan finds (pruning uses a conservative epsilon slack, never
// skipping a potential winner), so screening verdicts are unchanged.
//
// The index is immutable after construction and safe to share across
// worker threads. Per-query work is reported through ShardIndexProbe so
// the serving stats can show that screening work scales with the shard's
// anchor count, not the fleet-wide total.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/hot_path_annotations.hpp"
#include "tensor/tensor.hpp"

namespace cal::serve {

/// Squared Euclidean distance between a fingerprint and one anchor row,
/// summed in double. ShardIndex::nearest and serve::anchor_distance both
/// use it, so the pruned search and screening calibration return the
/// identical double.
CAL_HOT_PATH CAL_NONBLOCKING CAL_NOALLOC
double squared_distance(std::span<const float> fingerprint,
                        std::span<const float> anchor);

/// Per-query work counters (filled by ShardIndex::nearest).
struct ShardIndexProbe {
  std::size_t scanned = 0;  ///< anchors whose full distance was computed
  std::size_t pruned = 0;   ///< anchors skipped via the centroid bound
};

/// Immutable nearest-anchor index over one shard's anchor database.
class ShardIndex {
 public:
  /// Disabled index: zero anchors, nearest() must not be called.
  ShardIndex() = default;

  /// `anchors`: (M x num_aps) normalised anchor matrix, M >= 1.
  explicit ShardIndex(Tensor anchors);

  bool empty() const { return anchors_.empty(); }
  std::size_t num_anchors() const { return empty() ? 0 : anchors_.rows(); }
  std::size_t num_aps() const { return empty() ? 0 : anchors_.cols(); }
  const Tensor& anchors() const { return anchors_; }

  /// Exact RMS-per-AP distance from `fingerprint` to its nearest anchor —
  /// the same quantity as serve::anchor_distance(anchors, fingerprint),
  /// computed with centroid-bound pruning. Optionally reports per-query
  /// work through `probe`.
  CAL_HOT_PATH CAL_NONBLOCKING CAL_NOALLOC
  double nearest(std::span<const float> fingerprint,
                 ShardIndexProbe* probe = nullptr) const;

 private:
  Tensor anchors_;
  std::vector<double> centroid_;         // mean anchor
  std::vector<double> centroid_dist_;    // ||a_i - c||, sorted ascending
  std::vector<std::size_t> order_;       // anchor row per sorted position
};

}  // namespace cal::serve

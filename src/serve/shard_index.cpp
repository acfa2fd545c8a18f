#include "serve/shard_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/ensure.hpp"

namespace cal::serve {
namespace {

/// Absolute slack on the centroid bound. The bound is exact mathematics;
/// the slack only covers double-rounding of the two sqrts feeding it
/// (error ~1e-15 on the O(1) normalised-RSS scale), so a true nearest
/// anchor can never be pruned and the returned minimum matches a full
/// scan bit for bit.
constexpr double kBoundSlack = 1e-9;

}  // namespace

double squared_distance(std::span<const float> fingerprint,
                        std::span<const float> anchor) {
  // kLanes independent partial sums (element j feeds sum j % kLanes) break
  // the add-latency chain a single accumulator forms; the compiler keeps
  // them in vector registers (4 x 2-lane doubles at the SSE2 baseline).
  // The split and the final combining order are fixed, so every caller
  // gets the identical double for the same inputs.
  constexpr std::size_t kLanes = 8;
  double part[kLanes] = {};
  const std::size_t n = anchor.size();
  const std::size_t body = n - n % kLanes;
  for (std::size_t j = 0; j < body; j += kLanes)
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double d = static_cast<double>(fingerprint[j + l]) - anchor[j + l];
      part[l] += d * d;
    }
  for (std::size_t j = body; j < n; ++j) {
    const double d = static_cast<double>(fingerprint[j]) - anchor[j];
    part[j - body] += d * d;
  }
  return ((part[0] + part[4]) + (part[1] + part[5])) +
         ((part[2] + part[6]) + (part[3] + part[7]));
}

ShardIndex::ShardIndex(Tensor anchors) : anchors_(std::move(anchors)) {
  CAL_ENSURE(anchors_.rank() == 2 && anchors_.rows() > 0,
             "ShardIndex needs a non-empty (M x num_aps) anchor matrix");
  const std::size_t m = anchors_.rows();
  const std::size_t n = anchors_.cols();
  centroid_.assign(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const auto row = anchors_.row(i);
    for (std::size_t j = 0; j < n; ++j) centroid_[j] += row[j];
  }
  for (double& c : centroid_) c /= static_cast<double>(m);

  std::vector<double> dist(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto row = anchors_.row(i);
    double sq = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double d = static_cast<double>(row[j]) - centroid_[j];
      sq += d * d;
    }
    dist[i] = std::sqrt(sq);
  }
  order_.resize(m);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    return dist[a] < dist[b] || (dist[a] == dist[b] && a < b);
  });
  centroid_dist_.resize(m);
  for (std::size_t p = 0; p < m; ++p) centroid_dist_[p] = dist[order_[p]];
}

double ShardIndex::nearest(std::span<const float> fingerprint,
                           ShardIndexProbe* probe) const {
  CAL_ENSURE(!empty(), "nearest() on an empty ShardIndex");
  CAL_ENSURE(fingerprint.size() == anchors_.cols(),
             "fingerprint has " << fingerprint.size()
                                << " APs, shard index expects "
                                << anchors_.cols());
  const std::size_t m = anchors_.rows();

  double qc_sq = 0.0;
  for (std::size_t j = 0; j < fingerprint.size(); ++j) {
    const double d = static_cast<double>(fingerprint[j]) - centroid_[j];
    qc_sq += d * d;
  }
  const double d_qc = std::sqrt(qc_sq);

  // Scan outward from the sorted position nearest d_qc: candidates there
  // have the smallest |d_qc - d_ac| lower bound, so the best distance
  // shrinks quickly and the outward bounds terminate both walks early.
  const auto it =
      std::lower_bound(centroid_dist_.begin(), centroid_dist_.end(), d_qc);
  std::size_t right = static_cast<std::size_t>(it - centroid_dist_.begin());
  std::size_t left = right;  // next candidate on the low side is left-1
  bool left_open = left > 0;
  bool right_open = right < m;

  double best = std::numeric_limits<double>::infinity();
  double best_sq = std::numeric_limits<double>::infinity();
  std::size_t scanned = 0;
  while (left_open || right_open) {
    // Pick the side whose lower bound is tighter.
    const double lb_left =
        left_open ? d_qc - centroid_dist_[left - 1]
                  : std::numeric_limits<double>::infinity();
    const double lb_right =
        right_open ? centroid_dist_[right] - d_qc
                   : std::numeric_limits<double>::infinity();
    const bool take_left = lb_left <= lb_right;
    const double lb = take_left ? lb_left : lb_right;
    if (lb > best + kBoundSlack) {
      // Bounds grow monotonically outward on both sides: every remaining
      // candidate is at least this far away. Done.
      break;
    }
    const std::size_t pos = take_left ? --left : right++;
    if (take_left)
      left_open = left > 0;
    else
      right_open = right < m;
    const double sq =
        squared_distance(fingerprint, anchors_.row(order_[pos]));
    ++scanned;
    if (sq < best_sq) {
      best_sq = sq;
      best = std::sqrt(sq);
    }
  }
  if (probe != nullptr) {
    probe->scanned = scanned;
    probe->pruned = m - scanned;
  }
  return std::sqrt(best_sq / static_cast<double>(anchors_.cols()));
}

}  // namespace cal::serve

#include "serve/screening.hpp"

#include <cmath>

#include "common/ensure.hpp"
#include "common/fault_inject.hpp"
#include "common/stats.hpp"
#include "core/calloc.hpp"

namespace cal::serve {

std::string to_string(Verdict v) {
  switch (v) {
    case Verdict::Accept: return "accept";
    case Verdict::Flag: return "flag";
    case Verdict::Reject: return "reject";
  }
  return "?";
}

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

double anchor_distance(const Tensor& anchors,
                       std::span<const float> fingerprint) {
  CAL_ENSURE(anchors.rank() == 2 && anchors.rows() > 0,
             "anchor database must be a non-empty matrix");
  CAL_ENSURE(fingerprint.size() == anchors.cols(),
             "fingerprint has " << fingerprint.size()
                                << " APs, anchors expect " << anchors.cols());
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t m = 0; m < anchors.rows(); ++m)
    best = std::min(best, squared_distance(fingerprint, anchors.row(m)));
  return std::sqrt(best / static_cast<double>(anchors.cols()));
}

Tensor anchor_database_from(const data::FingerprintDataset& train) {
  return core::build_anchor_database(train);
}

ScreeningThresholds calibrate_thresholds(const Tensor& anchors,
                                         const Tensor& clean_x_normalized,
                                         double flag_percentile,
                                         double reject_factor) {
  // Calibration runs inside replica factories (registry publish): a fault
  // here must surface as a failed publish, never a half-built deployment.
  CAL_FAULT_POINT("serve.screen_calibrate");
  CAL_ENSURE(flag_percentile >= 0.0 && flag_percentile <= 100.0,
             "flag percentile out of [0,100]: " << flag_percentile);
  CAL_ENSURE(reject_factor >= 1.0,
             "reject factor must be >= 1, got " << reject_factor);
  CAL_ENSURE(clean_x_normalized.rank() == 2 && clean_x_normalized.rows() > 0,
             "calibration needs a non-empty clean batch");
  std::vector<double> dists(clean_x_normalized.rows());
  for (std::size_t i = 0; i < clean_x_normalized.rows(); ++i) {
    dists[i] = anchor_distance(anchors, clean_x_normalized.row(i));
    // A non-finite clean sample would make the percentile (and hence both
    // cutoffs) NaN, which silently disables the screen: thresholds must
    // come out of calibration finite, always.
    CAL_ENSURE(std::isfinite(dists[i]),
               "calibration sample " << i << " has a non-finite anchor "
                                     << "distance");
  }
  ScreeningThresholds th;
  th.flag_distance = percentile(dists, flag_percentile);
  th.reject_distance = th.flag_distance * reject_factor;
  CAL_INVARIANT(std::isfinite(th.flag_distance) &&
                    std::isfinite(th.reject_distance),
                "calibrated thresholds must be finite");
  return th;
}

AnchorScreen::AnchorScreen(Tensor anchors, ScreeningThresholds thresholds)
    : anchors_(std::move(anchors)), thresholds_(thresholds) {
  CAL_ENSURE(anchors_.rank() == 2 && !anchors_.empty(),
             "AnchorScreen needs a non-empty (M x num_aps) anchor matrix");
  CAL_ENSURE(thresholds_.flag_distance >= 0.0 &&
                 thresholds_.reject_distance >= thresholds_.flag_distance,
             "screening thresholds must satisfy 0 <= flag <= reject");
}

double AnchorScreen::distance(std::span<const float> fingerprint) const {
  if (!enabled()) return 0.0;
  return anchor_distance(anchors_, fingerprint);
}

Verdict AnchorScreen::classify(double distance) const {
  if (!enabled()) return Verdict::Accept;
  if (distance > thresholds_.reject_distance) return Verdict::Reject;
  if (distance > thresholds_.flag_distance) return Verdict::Flag;
  return Verdict::Accept;
}

}  // namespace cal::serve

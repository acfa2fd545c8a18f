// Request screening against the anchor fingerprint database.
//
// The paper's §III threat model has fingerprints arriving over a MITM-able
// channel; its defence intuition is that adversarial perturbations push a
// fingerprint away from the manifold of clean fingerprints captured during
// the offline survey. The serving layer exposes that intuition as a cheap
// per-request screen: the distance from the incoming fingerprint to its
// nearest anchor (the per-RP mean clean fingerprint — the same database
// CALLOC attends over) is compared against thresholds calibrated on clean
// data, yielding an accept / flag / reject verdict. Flagged requests are
// still localised (CALLOC is trained to survive them) but surfaced to the
// operator; rejected requests are dropped before they reach the model.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/hot_path_annotations.hpp"
#include "data/dataset.hpp"
#include "tensor/tensor.hpp"

namespace cal::serve {

/// Screening outcome for one request.
enum class Verdict { Accept, Flag, Reject };

std::string to_string(Verdict v);

/// Distance cutoffs on the per-AP RMS scale of anchor_distance(). The
/// defaults (+inf) accept everything — screening is opt-in.
struct ScreeningThresholds {
  double flag_distance = std::numeric_limits<double>::infinity();
  double reject_distance = std::numeric_limits<double>::infinity();
};

/// Squared Euclidean distance between a fingerprint and one anchor row,
/// summed in double in a fixed order (eight interleaved partial sums), so
/// the same inputs always give the identical double.
CAL_HOT_PATH CAL_NONBLOCKING CAL_NOALLOC
double squared_distance(std::span<const float> fingerprint,
                        std::span<const float> anchor);

/// RMS-per-AP distance from a normalised fingerprint to its nearest row
/// of `anchors` (M x num_aps, normalised): an exact scan over every
/// anchor. Dividing the Euclidean norm by sqrt(num_aps) keeps thresholds
/// comparable across buildings with different AP counts: 0.1 means
/// "10 dB of deviation per AP on average". Screening calibration and
/// AnchorScreen::distance both call it, so a served distance and the
/// clean distances its thresholds came from are the same quantity.
CAL_HOT_PATH CAL_NONBLOCKING CAL_NOALLOC
double anchor_distance(const Tensor& anchors,
                       std::span<const float> fingerprint);

/// The per-RP mean clean fingerprint matrix on the normalised scale —
/// exactly the anchor database Calloc::fit installs.
Tensor anchor_database_from(const data::FingerprintDataset& train);

/// Pick thresholds from the clean-data distance distribution: flag beyond
/// the `flag_percentile` of clean distances, reject beyond that threshold
/// times `reject_factor` (clean traffic essentially never reaches it).
///
/// Feed this a clean *online-phase* capture spanning the device fleet,
/// not the offline train set: session drift and device heterogeneity push
/// legitimate online fingerprints well past the survey distribution (in
/// the simulator, every test device's median distance exceeds the train
/// set's maximum), so survey-only calibration flags everything.
ScreeningThresholds calibrate_thresholds(const Tensor& anchors,
                                         const Tensor& clean_x_normalized,
                                         double flag_percentile = 95.0,
                                         double reject_factor = 2.0);

/// Stateless screen bound to one shard's anchor database. Immutable after
/// construction, hence freely shared across worker threads. Each request
/// scans every anchor of its own shard (anchor_distance), so screening
/// work is the shard's anchor count, never the fleet-wide total.
class AnchorScreen {
 public:
  /// Default-constructed screens are disabled: distance 0, always Accept.
  AnchorScreen() = default;

  /// `anchors`: (M x num_aps) normalised database; must be non-empty.
  AnchorScreen(Tensor anchors, ScreeningThresholds thresholds);

  bool enabled() const { return !anchors_.empty(); }
  const ScreeningThresholds& thresholds() const { return thresholds_; }
  std::size_t num_anchors() const { return enabled() ? anchors_.rows() : 0; }

  /// Distance of one fingerprint to the nearest anchor (0 when disabled).
  CAL_HOT_PATH CAL_NOALLOC
  double distance(std::span<const float> fingerprint) const;

  /// Threshold the distance into a verdict.
  CAL_HOT_PATH CAL_NONBLOCKING CAL_NOALLOC
  Verdict classify(double distance) const;

 private:
  Tensor anchors_;
  ScreeningThresholds thresholds_;
};

}  // namespace cal::serve

#include "probes.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "attacks/attack.hpp"
#include "common/stats.hpp"
#include "kernels/gemm.hpp"
#include "kernels/quant.hpp"
#include "serve/lru_cache.hpp"
#include "serve/snapshot.hpp"

namespace servebench {

namespace {

constexpr std::size_t kEmbedDim = 128;  ///< CallocModelConfig::embed_dim
constexpr double kMinProbeSeconds = 0.05;

/// Mean seconds per call of `fn`, repeated for at least kMinProbeSeconds.
template <typename Fn>
double seconds_per_call(Fn&& fn) {
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < kMinProbeSeconds);
  return elapsed / static_cast<double>(calls);
}

/// Median ms of three runs of `fn`.
template <typename Fn>
double median_ms_of_3(Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  return cal::median(ms);
}

double attack_ms(Deployment& dep, cal::attacks::AttackKind kind,
                 const cal::attacks::AttackConfig& cfg) {
  const Venue& venue = dep.venues.front();
  auto replica = dep.factories.front()();
  const cal::Tensor x = venue.train->normalized();
  const auto y = venue.train->labels();
  return median_ms_of_3([&] {
    cal::attacks::run_attack(kind, *replica->gradient_source(), x, y, cfg);
  });
}

std::vector<float> random_matrix(std::size_t rows, std::size_t cols,
                                 std::uint64_t seed) {
  cal::Rng rng(seed);
  std::vector<float> m(rows * cols);
  for (float& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

}  // namespace

double screen_us(const Deployment& dep) {
  constexpr std::size_t kRows = 1000;
  double total_s = 0.0;
  for (const Venue& venue : dep.venues) {
    const cal::serve::AnchorScreen& screen =
        dep.snapshot->find(venue.key)->screen;
    const std::size_t n = std::min(kRows, venue.scans.rows());
    double sink = 0.0;
    total_s += seconds_per_call([&] {
                 for (std::size_t r = 0; r < n; ++r)
                   sink += screen.distance(venue.scans.row(r));
               }) /
               static_cast<double>(n);
    if (sink < 0.0) std::abort();
  }
  return total_s / static_cast<double>(dep.venues.size()) * 1e6;
}

double cache_us(const WorkloadSpec& spec, const Deployment& dep) {
  if (spec.cache_capacity == 0) return 0.0;
  const Venue& venue = dep.venues.front();
  cal::serve::FingerprintCache cache(spec.cache_capacity, 0.005F);
  const std::size_t n = std::min<std::size_t>(venue.scans.rows(),
                                              2 * spec.cache_capacity);
  for (std::size_t r = 0; r < spec.cache_capacity && r < n; ++r)
    cache.insert(cache.make_key(venue.scans.row(r)), venue.expected_rp[r]);
  std::size_t hits = 0;
  const double s = seconds_per_call([&] {
    for (std::size_t r = 0; r < n; ++r)
      hits += cache.lookup(cache.make_key(venue.scans.row(r))).has_value();
  });
  if (hits == 0) std::abort();
  return s / static_cast<double>(n) * 1e6;
}

double fgsm_ms(Deployment& dep) {
  cal::attacks::AttackConfig cfg;
  cfg.epsilon = 0.1;
  cfg.phi_percent = 100.0;
  return attack_ms(dep, cal::attacks::AttackKind::Fgsm, cfg);
}

double pgd_ms(Deployment& dep) {
  return attack_ms(dep, cal::attacks::AttackKind::Pgd, pgd_config());
}

double gemm_fp32_gflops(const Deployment& dep) {
  const std::size_t m = kMaxBatch;
  const std::size_t k = dep.venues.front().scans.cols();
  const std::size_t n = kEmbedDim;
  const auto a = random_matrix(m, k, 1);
  const auto b = random_matrix(k, n, 2);
  std::vector<float> c(m * n);
  const double s =
      seconds_per_call([&] { cal::kernels::gemm_nn(a, b, c, m, k, n); });
  return 2.0 * static_cast<double>(m * k * n) / s / 1e9;
}

double gemm_s8_gflops(const Deployment& dep) {
  const std::size_t m = kMaxBatch;
  const std::size_t k = dep.venues.front().scans.cols();
  const std::size_t n = kEmbedDim;
  const auto a = random_matrix(m, k, 1);
  const auto w = cal::kernels::quantize_per_output_channel(
      random_matrix(k, n, 2), k, n);
  std::vector<std::int8_t> qa(m * k);
  std::vector<float> sa(m);
  std::vector<float> c(m * n);
  const double s = seconds_per_call([&] {
    cal::kernels::quantize_rows(a, m, k, qa, sa);
    cal::kernels::gemm_s8_nn(qa, w.data, c, m, k, n, sa, w.scales);
  });
  return 2.0 * static_cast<double>(m * k * n) / s / 1e9;
}

}  // namespace servebench

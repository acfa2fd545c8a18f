// cal_kernels correctness: the blocked/register-tiled gemm_nn/nt/tn must
// match the naive triple-loop reference over odd and ragged shapes, honour
// the accumulate flag, propagate NaN/Inf per IEEE 754 (no zero-skip), and
// keep their bits when many threads call them at once; gemm_packed on a
// pack_b operand must return gemm_nn's (gemm_nt's) exact bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <latch>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "kernels/gemm.hpp"
#include "kernels/quant.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace cal;

struct Shape {
  std::size_t m, k, n;
};

// Odd/ragged sweep: unit, primes, tall-skinny, wide-short, micro-tile
// multiples and off-by-one around the kMR=6 / kNR=8|16 register tile.
const std::vector<Shape> kShapes = {
    {1, 1, 1},    {1, 7, 1},     {2, 3, 5},      {5, 3, 2},
    {7, 11, 13},  {6, 16, 12},   {7, 17, 17},    {97, 3, 5},
    {5, 3, 97},   {3, 128, 3},   {64, 64, 64},   {33, 37, 41},
    {61, 1, 61},  {128, 130, 120}, {13, 256, 9}, {12, 300, 24},
};

Tensor random_mat(std::uint64_t seed, std::size_t r, std::size_t c) {
  Rng rng(seed);
  return Tensor::randn({r, c}, rng, 1.0F);
}

/// 1e-5 relative tolerance per the kernel-validation contract. The atol
/// term is scaled to the result's magnitude: for k > 256 the blocked path
/// combines 256-wide partial sums, so elements with heavy cancellation
/// carry an absolute error proportional to the summand scale, not to the
/// (tiny) final value.
void expect_close(const Tensor& got, const Tensor& want, const Shape& s,
                  const char* variant) {
  const float atol = 1e-5F * std::max(1.0F, want.abs_max());
  EXPECT_TRUE(allclose(got, want, atol, 1e-5F))
      << variant << " mismatch at " << s.m << "x" << s.k << "x" << s.n;
}

/// Byte equality: NaN payloads and signed zeros included.
bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// gemm_packed over pack_b(b): b is k x n, or n x k when `transposed`.
Tensor packed_product(const Tensor& a, const Tensor& b, const Shape& s,
                      bool transposed, const Tensor* base = nullptr) {
  const kernels::PackedMatrix pb = kernels::pack_b(b.flat(), s.k, s.n,
                                                   transposed);
  Tensor c = base != nullptr ? *base : Tensor({s.m, s.n});
  kernels::gemm_packed(a.flat(), pb, c.flat(), s.m, base != nullptr);
  return c;
}

TEST(Kernels, GemmNnMatchesNaiveAcrossShapes) {
  for (const auto& s : kShapes) {
    const Tensor a = random_mat(s.m * 1000 + s.k, s.m, s.k);
    const Tensor b = random_mat(s.k * 1000 + s.n, s.k, s.n);
    Tensor want({s.m, s.n});
    kernels::gemm_naive(a.flat(), b.flat(), want.flat(), s.m, s.k, s.n);
    Tensor got({s.m, s.n});
    kernels::gemm_nn(a.flat(), b.flat(), got.flat(), s.m, s.k, s.n);
    expect_close(got, want, s, "gemm_nn");
    EXPECT_TRUE(same_bits(packed_product(a, b, s, false), got))
        << "gemm_packed != gemm_nn at " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(Kernels, GemmNtMatchesNaiveAcrossShapes) {
  for (const auto& s : kShapes) {
    const Tensor a = random_mat(s.m * 77 + s.k, s.m, s.k);
    const Tensor b = random_mat(s.n * 77 + s.k, s.n, s.k);  // stored NxK
    Tensor want({s.m, s.n});
    const Tensor bt = b.transposed();
    kernels::gemm_naive(a.flat(), bt.flat(), want.flat(), s.m, s.k, s.n);
    Tensor got({s.m, s.n});
    kernels::gemm_nt(a.flat(), b.flat(), got.flat(), s.m, s.k, s.n);
    expect_close(got, want, s, "gemm_nt");
    EXPECT_TRUE(same_bits(packed_product(a, b, s, true), got))
        << "gemm_packed != gemm_nt at " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(Kernels, GemmTnMatchesNaiveAcrossShapes) {
  for (const auto& s : kShapes) {
    const Tensor a = random_mat(s.k * 55 + s.m, s.k, s.m);  // stored KxM
    const Tensor b = random_mat(s.k * 55 + s.n, s.k, s.n);
    Tensor want({s.m, s.n});
    const Tensor at = a.transposed();
    kernels::gemm_naive(at.flat(), b.flat(), want.flat(), s.m, s.k, s.n);
    Tensor got({s.m, s.n});
    kernels::gemm_tn(a.flat(), b.flat(), got.flat(), s.m, s.k, s.n);
    expect_close(got, want, s, "gemm_tn");
  }
}

TEST(Kernels, AccumulateAddsOntoExistingOutput) {
  const Shape s{13, 29, 21};
  const Tensor a = random_mat(1, s.m, s.k);
  const Tensor b = random_mat(2, s.k, s.n);
  Tensor base = random_mat(3, s.m, s.n);

  Tensor want = base;
  kernels::gemm_naive(a.flat(), b.flat(), want.flat(), s.m, s.k, s.n,
                      /*accumulate=*/true);
  Tensor got = base;
  kernels::gemm_nn(a.flat(), b.flat(), got.flat(), s.m, s.k, s.n,
                   /*accumulate=*/true);
  expect_close(got, want, s, "gemm_nn(accumulate)");
  EXPECT_TRUE(same_bits(packed_product(a, b, s, false, &base), got));
  // And without the flag the prior contents must be overwritten.
  Tensor fresh({s.m, s.n});
  kernels::gemm_naive(a.flat(), b.flat(), fresh.flat(), s.m, s.k, s.n);
  Tensor over = base;
  kernels::gemm_nn(a.flat(), b.flat(), over.flat(), s.m, s.k, s.n);
  expect_close(over, fresh, s, "gemm_nn(overwrite)");
  const kernels::PackedMatrix pb = kernels::pack_b(b.flat(), s.k, s.n);
  Tensor packed_over = base;
  kernels::gemm_packed(a.flat(), pb, packed_over.flat(), s.m);
  EXPECT_TRUE(same_bits(packed_over, over));
}

// The contract carried over from Tensor::matmul: no zero-skip branch, so a
// NaN (or Inf·0) anywhere in the k reduction poisons exactly the outputs it
// feeds — an adversarial perturbation that overflowed must surface.
TEST(Kernels, BlockedPathPropagatesNanAndInf) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::size_t m = 9, k = 20, n = 17;
  Tensor a({m, k}, 1.0F);
  Tensor b({k, n}, 0.0F);  // all-zero B: products are 1·0 except poisoned k
  a.at(4, 7) = nan;
  Tensor c({m, n});
  kernels::gemm_nn(a.flat(), b.flat(), c.flat(), m, k, n);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_TRUE(std::isnan(c.at(4, j))) << "NaN row lost at col " << j;
    EXPECT_EQ(c.at(3, j), 0.0F);
  }
  EXPECT_TRUE(same_bits(packed_product(a, b, {m, k, n}, false), c));
  // 1- and 5-row operands: every row takes the small-row tail kernel.
  for (const std::size_t rows : {1u, 5u}) {
    Tensor a_tail({rows, k}, 1.0F);
    a_tail.at(rows - 1, 7) = nan;
    const Tensor c_tail = packed_product(a_tail, b, {rows, k, n}, false);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_TRUE(std::isnan(c_tail.at(rows - 1, j)));
      if (rows > 1) EXPECT_EQ(c_tail.at(0, j), 0.0F);
    }
  }

  // Inf in A against an all-zero B row: Inf·0 must yield NaN, not 0.
  Tensor a2({m, k}, 1.0F);
  a2.at(2, 5) = inf;
  Tensor c2({m, n});
  kernels::gemm_nn(a2.flat(), b.flat(), c2.flat(), m, k, n);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_TRUE(std::isnan(c2.at(2, j))) << "Inf·0 masked at col " << j;
  EXPECT_TRUE(same_bits(packed_product(a2, b, {m, k, n}, false), c2));

  // Inf against positive B propagates Inf through the row sums.
  Tensor b3({k, n}, 1.0F);
  Tensor c3({m, n});
  kernels::gemm_nn(a2.flat(), b3.flat(), c3.flat(), m, k, n);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_TRUE(std::isinf(c3.at(2, j))) << "Inf lost at col " << j;
  EXPECT_FLOAT_EQ(c3.at(0, 0), static_cast<float>(k));

  // Same propagation on the fused-transpose paths.
  Tensor bt({n, k}, 0.0F);
  Tensor cnt({m, n});
  kernels::gemm_nt(a.flat(), bt.flat(), cnt.flat(), m, k, n);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_TRUE(std::isnan(cnt.at(4, j)));
  EXPECT_TRUE(same_bits(packed_product(a, bt, {m, k, n}, true), cnt));
  Tensor atn({k, m}, 1.0F);
  atn.at(7, 4) = nan;
  Tensor ctn({m, n});
  kernels::gemm_tn(atn.flat(), b.flat(), ctn.flat(), m, k, n);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_TRUE(std::isnan(ctn.at(4, j)));
}

// Pre-packed B must give gemm_nn's / gemm_nt's exact bits on every
// small-row tail height (m = 1-13 covers tails 1-5 behind 0, 1 and 2 full
// tiles), across the 256-wide k block (257, 520) and panel and 512-wide
// column-block edges.
TEST(Kernels, GemmPackedIsBitIdenticalToUnpacked) {
  std::vector<std::size_t> ms(13);
  std::iota(ms.begin(), ms.end(), 1);
  ms.push_back(32);
  for (const std::size_t m : ms)
    for (const std::size_t k : {1u, 64u, 218u, 257u, 520u})
      for (const std::size_t n : {1u, 15u, 17u, 61u, 128u, 513u}) {
        const Shape s{m, k, n};
        const Tensor a = random_mat(m * 7919 + k, m, k);
        const Tensor b = random_mat(k * 104729 + n, k, n);  // or n x k
        Tensor nn({m, n});
        kernels::gemm_nn(a.flat(), b.flat(), nn.flat(), m, k, n);
        Tensor nt({m, n});
        kernels::gemm_nt(a.flat(), b.flat(), nt.flat(), m, k, n);
        ASSERT_TRUE(same_bits(packed_product(a, b, s, false), nn))
            << "nn " << m << "x" << k << "x" << n;
        ASSERT_TRUE(same_bits(packed_product(a, b, s, true), nt))
            << "nt " << m << "x" << k << "x" << n;
        if (k == 257) {
          Tensor want({m, n});
          kernels::gemm_naive(a.flat(), b.flat(), want.flat(), m, k, n);
          expect_close(nn, want, s, "gemm_nn small rows");
        }
      }
}

// Rows past the last full 6-row tile take the small-row kernel; inside a
// full tile the same row must come out with the same bits, since both
// give each element the same ascending-k operation sequence.
TEST(Kernels, SmallRowTailMatchesFullTileBits) {
  for (const std::size_t k : {5u, 218u, 300u})
    for (const std::size_t n : {1u, 17u, 128u}) {
      const Tensor tile = random_mat(k * 31 + n, 6, k);
      const Tensor b = random_mat(k * 17 + n, k, n);
      Tensor full({6, n});
      kernels::gemm_nn(tile.flat(), b.flat(), full.flat(), 6, k, n);
      for (std::size_t m = 1; m < 6; ++m) {
        Tensor c({m, n});
        kernels::gemm_nn(tile.flat().first(m * k), b.flat(), c.flat(), m, k,
                         n);
        EXPECT_EQ(std::memcmp(c.data(), full.data(), m * n * sizeof(float)),
                  0)
            << m << " tail rows, k " << k << ", n " << n;
      }
    }
}

TEST(Kernels, RejectsMissizedSpans) {
  Tensor a({4, 3});
  Tensor b({3, 5});
  Tensor c({4, 5});
  EXPECT_THROW(
      kernels::gemm_nn(a.flat(), b.flat(), c.flat(), 4, 3, 6),
      PreconditionError);
  EXPECT_THROW(
      kernels::gemm_nn(a.flat(), b.flat(), c.flat(), 5, 3, 5),
      PreconditionError);
  EXPECT_THROW(kernels::gemm_nn(a.flat(), b.flat(), c.flat(), 0, 3, 5),
               PreconditionError);

  // Pre-packed operand: pack_b checks B, gemm_packed checks A, C and m.
  EXPECT_THROW(kernels::pack_b(b.flat(), 3, 4), PreconditionError);
  const kernels::PackedMatrix pb = kernels::pack_b(b.flat(), 3, 5);
  EXPECT_EQ(pb.k(), 3u);
  EXPECT_EQ(pb.n(), 5u);
  EXPECT_THROW(kernels::gemm_packed(a.flat(), pb, c.flat(), 5),
               PreconditionError);
  EXPECT_THROW(kernels::gemm_packed(a.flat(), kernels::PackedMatrix{},
                                    c.flat(), 4),
               PreconditionError);
  EXPECT_NO_THROW(kernels::gemm_packed(a.flat(), pb, c.flat(), 4));

  // GEMMs run on their calling thread: only the serial setting is valid.
  EXPECT_NO_THROW(kernels::set_max_threads(1));
  EXPECT_THROW(kernels::set_max_threads(4), PreconditionError);
}

// --- int8 quantized --------------------------------------------------------

std::vector<std::int8_t> random_s8(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<std::int8_t> out(count);
  for (auto& v : out)
    v = static_cast<std::int8_t>(
        static_cast<int>(std::floor(rng.uniform() * 255.0)) - 127);
  return out;
}

std::vector<float> random_scales(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<float> out(count);
  for (auto& v : out)
    v = 0.001F + 0.05F * static_cast<float>(rng.uniform());
  return out;
}

/// Reference int8 GEMM: exact int32 inner product, then the same
/// scale-application expression the kernel uses — so comparisons can
/// demand bit-identity, not tolerance.
void s8_reference(std::span<const std::int8_t> a,
                  std::span<const std::int8_t> b, std::span<float> c,
                  std::size_t m, std::size_t k, std::size_t n,
                  std::span<const float> scale_a,
                  std::span<const float> scale_b, bool transpose_b,
                  bool accumulate) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      std::int32_t sum = 0;
      for (std::size_t p = 0; p < k; ++p) {
        const std::int32_t bv = transpose_b ? b[j * k + p] : b[p * n + j];
        sum += static_cast<std::int32_t>(a[i * k + p]) * bv;
      }
      const float v = scale_a[i] * scale_b[j] * static_cast<float>(sum);
      c[i * n + j] = accumulate ? c[i * n + j] + v : v;
    }
}

TEST(Kernels, GemmS8NnMatchesExactReferenceAcrossEdgeShapes) {
  // Edge shapes from the issue: M=1, N=1, K=0, plus non-multiples of the
  // int8 tile (MR=4, NR up to 32, k packed in pairs ⇒ odd k is the edge).
  const std::vector<Shape> shapes = {
      {1, 8, 8},  {8, 8, 1},   {1, 1, 1},  {3, 0, 5},   {4, 2, 32},
      {5, 7, 33}, {4, 17, 32}, {7, 33, 9}, {12, 64, 48}, {31, 101, 67}};
  for (const auto& s : shapes) {
    const auto a = random_s8(s.m * 7 + s.k, s.m * s.k);
    const auto b = random_s8(s.k * 7 + s.n + 1, s.k * s.n);
    const auto sa = random_scales(3 * s.m + 1, s.m);
    const auto sb = random_scales(5 * s.n + 2, s.n);
    std::vector<float> want(s.m * s.n, -9.0F);
    s8_reference(a, b, want, s.m, s.k, s.n, sa, sb, /*transpose_b=*/false,
                 /*accumulate=*/false);
    std::vector<float> got(s.m * s.n, -9.0F);
    kernels::gemm_s8_nn(a, b, got, s.m, s.k, s.n, sa, sb);
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "s8_nn diverged at " << i << " (shape "
                                 << s.m << "x" << s.k << "x" << s.n << ")";
  }
}

TEST(Kernels, GemmS8NtMatchesExactReferenceAcrossEdgeShapes) {
  const std::vector<Shape> shapes = {
      {1, 5, 1}, {1, 8, 9}, {6, 0, 3}, {4, 9, 31}, {9, 33, 33}, {17, 40, 21}};
  for (const auto& s : shapes) {
    const auto a = random_s8(s.m * 13 + s.k, s.m * s.k);
    const auto b = random_s8(s.n * 13 + s.k + 1, s.n * s.k);  // stored NxK
    const auto sa = random_scales(7 * s.m + 1, s.m);
    const auto sb = random_scales(9 * s.n + 2, s.n);
    std::vector<float> want(s.m * s.n);
    s8_reference(a, b, want, s.m, s.k, s.n, sa, sb, /*transpose_b=*/true,
                 /*accumulate=*/false);
    std::vector<float> got(s.m * s.n);
    kernels::gemm_s8_nt(a, b, got, s.m, s.k, s.n, sa, sb);
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "s8_nt diverged at " << i << " (shape "
                                 << s.m << "x" << s.k << "x" << s.n << ")";
  }
}

TEST(Kernels, GemmS8AccumulateAndSaturatedInputsStayExact) {
  // All-extreme operands (±127) maximise the int16-pair products; k large
  // enough to cross several packed k-pair panels. The int32 sum must not
  // saturate or wrap, and accumulate must add onto prior contents.
  const std::size_t m = 5, k = 203, n = 35;
  std::vector<std::int8_t> a(m * k, 127);
  std::vector<std::int8_t> b(k * n, -127);
  for (std::size_t i = 0; i < a.size(); i += 3) a[i] = -127;
  const std::vector<float> sa(m, 0.5F);
  const std::vector<float> sb(n, 0.25F);
  std::vector<float> want(m * n, 2.0F);
  s8_reference(a, b, want, m, k, n, sa, sb, false, /*accumulate=*/true);
  std::vector<float> got(m * n, 2.0F);
  kernels::gemm_s8_nn(a, b, got, m, k, n, sa, sb, /*accumulate=*/true);
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "saturated accumulate diverged at " << i;
}

TEST(Kernels, ConcurrentCallersStayCorrect) {
  // Serving workers multiply at once: each packs into its own thread-local
  // scratch and reads shared, immutable operands such as one PackedMatrix
  // per weight. Four callers start together and repeat gemm_nn,
  // gemm_packed on one shared PackedMatrix and gemm_s8_nn; every output
  // must keep the bits of a single-thread call. The shape has full 6-row
  // tiles plus tail rows, two k blocks, an odd k and ragged panels.
  const Shape s{33, 257, 130};
  const Tensor a = random_mat(21, s.m, s.k);
  const Tensor b = random_mat(22, s.k, s.n);
  const kernels::PackedMatrix packed = kernels::pack_b(b.flat(), s.k, s.n);
  const auto a8 = random_s8(23, s.m * s.k);
  const auto b8 = random_s8(24, s.k * s.n);
  const auto sa = random_scales(25, s.m);
  const auto sb = random_scales(26, s.n);
  struct Outputs {
    Tensor nn, packed;
    std::vector<float> s8;
  };
  const auto run = [&](Outputs& out) {
    kernels::gemm_nn(a.flat(), b.flat(), out.nn.flat(), s.m, s.k, s.n);
    kernels::gemm_packed(a.flat(), packed, out.packed.flat(), s.m);
    kernels::gemm_s8_nn(a8, b8, out.s8, s.m, s.k, s.n, sa, sb);
  };
  const Outputs blank{Tensor({s.m, s.n}), Tensor({s.m, s.n}),
                      std::vector<float>(s.m * s.n)};
  Outputs want = blank;
  run(want);

  constexpr std::size_t kCallers = 4;
  std::vector<Outputs> outs(kCallers, blank);
  std::latch start(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t t = 0; t < kCallers; ++t)
    callers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int rep = 0; rep < 10; ++rep) run(outs[t]);
    });
  for (auto& c : callers) c.join();
  for (std::size_t t = 0; t < kCallers; ++t) {
    EXPECT_TRUE(same_bits(outs[t].nn, want.nn)) << "gemm_nn, caller " << t;
    EXPECT_TRUE(same_bits(outs[t].packed, want.packed))
        << "gemm_packed, caller " << t;
    EXPECT_EQ(std::memcmp(outs[t].s8.data(), want.s8.data(),
                          want.s8.size() * sizeof(float)),
              0)
        << "gemm_s8_nn, caller " << t;
  }
}

TEST(Kernels, GemmS8RejectsMissizedSpansAndScales) {
  const auto a = random_s8(1, 4 * 3);
  const auto b = random_s8(2, 3 * 5);
  std::vector<float> c(4 * 5);
  const std::vector<float> sa(4, 1.0F);
  const std::vector<float> sb(5, 1.0F);
  EXPECT_THROW(kernels::gemm_s8_nn(a, b, c, 4, 3, 6, sa, sb),
               PreconditionError);
  EXPECT_THROW(kernels::gemm_s8_nn(a, b, c, 0, 3, 5, sa, sb),
               PreconditionError);
  const std::vector<float> sa_short(3, 1.0F);
  EXPECT_THROW(kernels::gemm_s8_nn(a, b, c, 4, 3, 5, sa_short, sb),
               PreconditionError);
}

// --- quantization ----------------------------------------------------------

TEST(Kernels, QuantizeRoundTripErrorIsBoundedByHalfScale) {
  // Property: |x − dequant(quant(x))| ≤ scale/2 = amax/254 per element,
  // for both the per-column (weight) and per-row (activation) schemes.
  Rng rng(404);
  const std::size_t rows = 37, cols = 23;
  const Tensor w = Tensor::randn({rows, cols}, rng, 2.5F);

  const kernels::QuantizedMatrix qc =
      kernels::quantize_per_output_channel(w.flat(), rows, cols);
  EXPECT_FALSE(qc.per_row);
  ASSERT_EQ(qc.scales.size(), cols);
  const std::vector<float> backc = kernels::dequantize(qc);
  for (std::size_t j = 0; j < cols; ++j) {
    float amax = 0.0F;
    for (std::size_t i = 0; i < rows; ++i)
      amax = std::max(amax, std::abs(w.at(i, j)));
    const float bound = amax / 254.0F + 1e-12F;
    EXPECT_NEAR(qc.scales[j], amax / 127.0F, 1e-6F * std::max(1.0F, amax));
    for (std::size_t i = 0; i < rows; ++i)
      ASSERT_LE(std::abs(w.at(i, j) - backc[i * cols + j]), bound)
          << "per-column round trip out of bound at (" << i << "," << j
          << ")";
  }

  const kernels::QuantizedMatrix qr =
      kernels::quantize_rows(w.flat(), rows, cols);
  EXPECT_TRUE(qr.per_row);
  ASSERT_EQ(qr.scales.size(), rows);
  const std::vector<float> backr = kernels::dequantize(qr);
  for (std::size_t i = 0; i < rows; ++i) {
    float amax = 0.0F;
    for (std::size_t j = 0; j < cols; ++j)
      amax = std::max(amax, std::abs(w.at(i, j)));
    const float bound = amax / 254.0F + 1e-12F;
    for (std::size_t j = 0; j < cols; ++j)
      ASSERT_LE(std::abs(w.at(i, j) - backr[i * cols + j]), bound)
          << "per-row round trip out of bound at (" << i << "," << j << ")";
  }
}

TEST(Kernels, QuantizeHandlesZeroChannelsAndExcludesMinus128) {
  // An all-zero column must get a well-defined scale (1) and all-zero
  // codes; the most negative value must map to -127, never -128.
  const std::size_t rows = 4, cols = 3;
  std::vector<float> w(rows * cols, 0.0F);
  for (std::size_t i = 0; i < rows; ++i) w[i * cols + 1] = -3.0F;
  const kernels::QuantizedMatrix q =
      kernels::quantize_per_output_channel(w, rows, cols);
  EXPECT_EQ(q.scales[0], 1.0F);
  for (std::size_t i = 0; i < rows; ++i) {
    EXPECT_EQ(q.data[i * cols + 0], 0);
    EXPECT_EQ(q.data[i * cols + 1], -127);
  }
  for (const std::int8_t v : q.data) EXPECT_GE(v, -127);
}

}  // namespace

#include "kernels/gemm.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/ensure.hpp"
#include "common/hot_path_annotations.hpp"
#include "kernels/gemm_arch.hpp"

namespace cal::kernels {
namespace {

// --- ISA dispatch ---------------------------------------------------------

#if defined(CALLOC_GEMM_HAVE_V3) || defined(CALLOC_GEMM_HAVE_V512)
bool cpu_is_v3() {
  // Haswell-era x86-64-v3: everything the v3 TU may emit is implied by
  // these three on real silicon.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("bmi2");
}
#endif

const GemmF32Ops& f32() {
  static const GemmF32Ops& ops = *[]() -> const GemmF32Ops* {
#if defined(CALLOC_GEMM_HAVE_V3)
    if (cpu_is_v3()) return &arch_v3::f32_ops();
#endif
    return &arch_base::f32_ops();
  }();
  return ops;
}

const GemmS8Ops& s8() {
  static const GemmS8Ops& ops = *[]() -> const GemmS8Ops* {
#if defined(CALLOC_GEMM_HAVE_V512)
    // x86-64-v4 = the full 512-bit quintet; the v512 TU may emit any of it.
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512cd"))
      return &arch_v512::s8_ops();
#endif
#if defined(CALLOC_GEMM_HAVE_V3)
    if (cpu_is_v3()) return &arch_v3::s8_ops();
#endif
    return &arch_base::s8_ops();
  }();
  return ops;
}

// --- fp32 block loop -----------------------------------------------------

// Right-hand operand of one fp32 GEMM: a dense stored matrix (k x n, or
// n x k when tb) packed block by block as the loop reaches it, or the
// panels of a PackedMatrix.
struct Rhs {
  const float* b = nullptr;
  bool tb = false;
  const float* packed = nullptr;
};

// One (j0, nc) x (p0, kc) cache block of op(B), with the accumulate flag
// its row pass uses.
struct Block {
  std::size_t p0, kc, j0, nc;
  bool acc;
};

// n columns rounded up to whole panel_nr-wide panels.
std::size_t panel_padded(const GemmF32Ops& ops, std::size_t n) {
  return (n + ops.panel_nr - 1) / ops.panel_nr * ops.panel_nr;
}

// Where block (j0, p0) starts in a PackedMatrix: every earlier column
// block is a full block_nc wide (whole panels), so it holds k * block_nc
// floats; within a column block, k block p0 follows p0 rows of its
// panel-padded width.
std::size_t packed_offset(const GemmF32Ops& ops, std::size_t k,
                          const Block& blk) {
  return blk.j0 * k + blk.p0 * panel_padded(ops, blk.nc);
}

// The (j0, p0) cache-block loop behind every fp32 GEMM and pack_b. Later
// k blocks accumulate onto the partial sums of earlier ones: ascending-k
// order, with one reassociation point per block_kc boundary.
template <typename Fn>
void for_each_block(const GemmF32Ops& ops, std::size_t k, std::size_t n,
                    bool accumulate, const Fn& fn) {
  for (std::size_t j0 = 0; j0 < n; j0 += ops.block_nc) {
    const std::size_t nc = std::min(ops.block_nc, n - j0);
    for (std::size_t p0 = 0; p0 < k; p0 += ops.block_kc)
      fn(Block{p0, std::min(ops.block_kc, k - p0), j0, nc,
               accumulate || p0 > 0});
  }
}

// The panels of one block: read in place from a pre-packed operand, else
// packed into `scratch` (one block_kc x block_nc block) from the stored
// B, whose row stride is ldb.
const float* block_panels(const GemmF32Ops& ops, const Rhs& rhs,
                          std::size_t ldb, std::size_t k, const Block& blk,
                          float* scratch) {
  if (rhs.packed != nullptr) return rhs.packed + packed_offset(ops, k, blk);
  ops.pack_b_block(rhs.b, ldb, rhs.tb, blk.p0, blk.kc, blk.j0, blk.nc,
                   scratch);
  return scratch;
}

thread_local std::vector<float> t_bpack;

// Audited: the per-thread B-packing scratch grows once to one cache block
// and is reused for every later GEMM on that thread. A pre-packed operand
// never touches it.
CAL_LINT_SUPPRESS(alloc, "thread-local packing scratch grows once, then reused")
float* bpack_scratch(const GemmF32Ops& ops, const Rhs& rhs) {
  if (rhs.packed != nullptr) return nullptr;
  const std::size_t need = ops.block_kc * ops.block_nc;
  if (t_bpack.size() < need) t_bpack.resize(need);
  return t_bpack.data();
}

// C (+)= op(A)·op(B) over all m rows, on the calling thread. Every
// operand is dense, so each leading dimension is its stored row width.
void gemm_impl(const float* a, const Rhs& rhs, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool ta, bool accumulate) {
  const GemmF32Ops& ops = f32();
  const std::size_t lda = ta ? m : k;
  const std::size_t ldb = rhs.tb ? k : n;
  float* scratch = bpack_scratch(ops, rhs);
  for_each_block(ops, k, n, accumulate, [&](const Block& blk) {
    ops.gemm_rows_prepacked(a, block_panels(ops, rhs, ldb, k, blk, scratch),
                            c, lda, n, ta, blk.acc, blk.p0, blk.kc, blk.j0,
                            blk.nc, m);
  });
}

void check_args(std::span<const float> a, std::span<const float> b,
                std::span<float> c, std::size_t m, std::size_t k,
                std::size_t n) {
  CAL_ENSURE(m > 0 && k > 0 && n > 0,
             "gemm dims must be positive: " << m << "x" << k << "x" << n);
  CAL_ENSURE(a.size() == m * k, "gemm lhs span has " << a.size()
                                                     << " floats, expected "
                                                     << m * k);
  CAL_ENSURE(b.size() == k * n, "gemm rhs span has " << b.size()
                                                     << " floats, expected "
                                                     << k * n);
  CAL_ENSURE(c.size() == m * n, "gemm out span has " << c.size()
                                                     << " floats, expected "
                                                     << m * n);
}

// --- int8 dispatch --------------------------------------------------------

void check_args_s8(std::span<const std::int8_t> a,
                   std::span<const std::int8_t> b, std::span<float> c,
                   std::size_t m, std::size_t k, std::size_t n,
                   std::span<const float> scale_a,
                   std::span<const float> scale_b) {
  CAL_ENSURE(m > 0 && n > 0,
             "gemm_s8 dims must be positive: " << m << "x" << k << "x" << n);
  CAL_ENSURE(a.size() == m * k, "gemm_s8 lhs span has " << a.size()
                                                        << " bytes, expected "
                                                        << m * k);
  CAL_ENSURE(b.size() == k * n, "gemm_s8 rhs span has " << b.size()
                                                        << " bytes, expected "
                                                        << k * n);
  CAL_ENSURE(c.size() == m * n, "gemm_s8 out span has " << c.size()
                                                        << " floats, expected "
                                                        << m * n);
  CAL_ENSURE(scale_a.size() == m, "gemm_s8 scale_a has " << scale_a.size()
                                                         << ", expected m = "
                                                         << m);
  CAL_ENSURE(scale_b.size() == n, "gemm_s8 scale_b has " << scale_b.size()
                                                         << ", expected n = "
                                                         << n);
}

void gemm_s8_impl(const std::int8_t* a, const std::int8_t* b, float* c,
                  std::size_t m, std::size_t k, std::size_t n,
                  const float* scale_a, const float* scale_b, bool tb,
                  bool accumulate) {
  if (k == 0) {
    if (!accumulate) std::fill_n(c, m * n, 0.0F);
    return;
  }
  const GemmS8Ops& ops = s8();
  const std::size_t packed = ops.packed_b_bytes(k, n);
  thread_local std::vector<std::int8_t> t_bpack_s8;
  if (t_bpack_s8.size() < packed) t_bpack_s8.resize(packed);
  ops.pack_b(b, k, n, tb, t_bpack_s8.data());
  ops.rows(a, t_bpack_s8.data(), c, m, k, n, scale_a, scale_b, accumulate);
}

}  // namespace

void gemm_nn(std::span<const float> a, std::span<const float> b,
             std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
             bool accumulate) {
  check_args(a, b, c, m, k, n);
  gemm_impl(a.data(), Rhs{b.data(), false}, c.data(), m, k, n, false,
            accumulate);
}

void gemm_nt(std::span<const float> a, std::span<const float> b,
             std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
             bool accumulate) {
  check_args(a, b, c, m, k, n);
  gemm_impl(a.data(), Rhs{b.data(), true}, c.data(), m, k, n, false,
            accumulate);
}

void gemm_tn(std::span<const float> a, std::span<const float> b,
             std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
             bool accumulate) {
  check_args(a, b, c, m, k, n);
  gemm_impl(a.data(), Rhs{b.data(), false}, c.data(), m, k, n, true,
            accumulate);
}

PackedMatrix pack_b(std::span<const float> b, std::size_t k, std::size_t n,
                    bool transposed) {
  CAL_ENSURE(k > 0 && n > 0,
             "pack_b dims must be positive: " << k << "x" << n);
  CAL_ENSURE(b.size() == k * n, "pack_b span has " << b.size()
                                                   << " floats, expected "
                                                   << k * n);
  const GemmF32Ops& ops = f32();
  PackedMatrix out;
  out.k_ = k;
  out.n_ = n;
  // The blocks tile the buffer and pack_b_block writes every float of a
  // block, zero padding included.
  out.panels_.resize(panel_padded(ops, n) * k);
  const std::size_t ldb = transposed ? k : n;
  for_each_block(ops, k, n, false, [&](const Block& blk) {
    ops.pack_b_block(b.data(), ldb, transposed, blk.p0, blk.kc, blk.j0,
                     blk.nc, out.panels_.data() + packed_offset(ops, k, blk));
  });
  return out;
}

void gemm_packed(std::span<const float> a, const PackedMatrix& b,
                 std::span<float> c, std::size_t m, bool accumulate) {
  CAL_ENSURE(!b.panels_.empty(), "gemm_packed on an empty PackedMatrix");
  CAL_ENSURE(m > 0, "gemm_packed needs m > 0");
  CAL_ENSURE(a.size() == m * b.k_, "gemm_packed lhs span has "
                                       << a.size() << " floats, expected "
                                       << m * b.k_);
  CAL_ENSURE(c.size() == m * b.n_, "gemm_packed out span has "
                                       << c.size() << " floats, expected "
                                       << m * b.n_);
  Rhs rhs;
  rhs.packed = b.panels_.data();
  gemm_impl(a.data(), rhs, c.data(), m, b.k_, b.n_, false, accumulate);
}

void gemm_naive(std::span<const float> a, std::span<const float> b,
                std::span<float> c, std::size_t m, std::size_t k,
                std::size_t n, bool accumulate) {
  check_args(a, b, c, m, k, n);
  if (!accumulate) std::fill(c.begin(), c.end(), 0.0F);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* orow = c.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      // No zero-skip: 0·NaN and 0·Inf must propagate per IEEE 754.
      const float av = arow[kk];
      const float* brow = b.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void gemm_s8_nn(std::span<const std::int8_t> a, std::span<const std::int8_t> b,
                std::span<float> c, std::size_t m, std::size_t k,
                std::size_t n, std::span<const float> scale_a,
                std::span<const float> scale_b, bool accumulate) {
  check_args_s8(a, b, c, m, k, n, scale_a, scale_b);
  gemm_s8_impl(a.data(), b.data(), c.data(), m, k, n, scale_a.data(),
               scale_b.data(), false, accumulate);
}

void gemm_s8_nt(std::span<const std::int8_t> a, std::span<const std::int8_t> b,
                std::span<float> c, std::size_t m, std::size_t k,
                std::size_t n, std::span<const float> scale_a,
                std::span<const float> scale_b, bool accumulate) {
  check_args_s8(a, b, c, m, k, n, scale_a, scale_b);
  gemm_s8_impl(a.data(), b.data(), c.data(), m, k, n, scale_a.data(),
               scale_b.data(), true, accumulate);
}

const char* gemm_s8_isa() { return s8().isa; }

namespace detail {
const GemmS8Ops& s8_dispatch() { return s8(); }
}  // namespace detail

void set_max_threads(std::size_t n) {
  CAL_ENSURE(n <= 1, "GEMMs run on their calling thread; set_max_threads("
                         << n << ") asks for kernel threads");
}

}  // namespace cal::kernels

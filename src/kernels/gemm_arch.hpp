// Internal: per-ISA instantiations of the blocked GEMM drivers.
//
// gemm_kernel_body.inc (fp32) and gemm_s8_kernel_body.inc (int8) are
// compiled once per target ISA (arch_base at the toolchain default,
// arch_v3 at -march=x86-64-v3 and arch_v512 at -march=x86-64-v4 when the
// build adds those TUs); gemm.cpp picks an instantiation at runtime via
// __builtin_cpu_supports. Not part of the public cal_kernels API —
// include kernels/gemm.hpp.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cal::kernels {

// Packs the (p0, kc) x (j0, nc) block of op(B) (k x n logical, stored
// k x n or, when tb, n x k with row stride ldb) into the panel layout the
// micro-kernel consumes: ceil(nc / panel_nr) panels of kc x panel_nr
// floats, ragged columns zero-padded.
#define CAL_GEMM_PACK_B_ARGS                                                \
  const float *b, std::size_t ldb, bool tb, std::size_t p0, std::size_t kc, \
      std::size_t j0, std::size_t nc, float *out

// Rows [i_begin, i_end) of C (+)= op(A)·op(B) over ONE (j0, nc) x (p0, kc)
// block whose B panel was already packed (shared across row-split tasks,
// or part of a PackedMatrix). `acc_block` is the effective accumulate flag
// for this k block (accumulate || p0 > 0). lda/ldc stride the stored A
// (m x k, or k x m when ta) and C.
#define CAL_GEMM_PREPACKED_ARGS                                             \
  const float *a, const float *bpack, float *c, std::size_t lda,            \
      std::size_t ldc, bool ta, bool acc_block, std::size_t p0,             \
      std::size_t kc, std::size_t j0, std::size_t nc, std::size_t i_begin,  \
      std::size_t i_end

// Rows [i_begin, i_end) of the int8 GEMM: C[i,j] (+)= scale_a[i] *
// scale_b[j] * sum_p A[i,p]·B[p,j] with an exact int32 inner product.
// B arrives pre-packed (pack_b_s8 below) so row-split tasks share one
// packed image; scale_b runs along the output channels (columns of C).
#define CAL_GEMM_S8_ROWS_ARGS                                               \
  const std::int8_t *a, const std::int8_t *bpack, float *c, std::size_t m,  \
      std::size_t k, std::size_t n, const float *scale_a,                   \
      const float *scale_b, bool accumulate, std::size_t i_begin,           \
      std::size_t i_end

// Packs all of op(B) (k x n, or n x k when tb) into the int8 panel layout.
#define CAL_GEMM_S8_PACK_ARGS                                               \
  const std::int8_t *b, std::size_t k, std::size_t n, bool tb,              \
      std::int8_t *out

/// Per-ISA fp32 entry points plus the blocking constants the block loop
/// in gemm.cpp needs to size packing scratch and lay out PackedMatrix.
struct GemmF32Ops {
  void (*pack_b_block)(CAL_GEMM_PACK_B_ARGS);
  void (*gemm_rows_prepacked)(CAL_GEMM_PREPACKED_ARGS);
  std::size_t block_kc;  ///< k-block size (kKC)
  std::size_t block_nc;  ///< n-block size (kNC), a multiple of panel_nr
  std::size_t panel_nr;  ///< columns per packed B panel (kNR)
};

/// Per-ISA int8 entry points. packed_b_bytes sizes the packed image of the
/// WHOLE B operand (the int8 path packs once per GEMM, no cache blocking:
/// every shape this repo serves fits the packed panel in L2).
/// quantize_rows is the activation quantizer (per-row symmetric, round
/// half away from zero) — it lives here because it runs ahead of every
/// int8 GEMM on the serving hot path and needs the widest available ISA;
/// all paths use the identical operation sequence, so output is
/// bit-identical across ISAs. isa names the selected tier ("avx512",
/// "avx2", "scalar") so benches can gate speedup floors per tier.
struct GemmS8Ops {
  std::size_t (*packed_b_bytes)(std::size_t k, std::size_t n);
  void (*pack_b)(CAL_GEMM_S8_PACK_ARGS);
  void (*rows)(CAL_GEMM_S8_ROWS_ARGS);
  void (*quantize_rows)(const float* x, std::size_t rows, std::size_t cols,
                        std::int8_t* out, float* scales);
  const char* isa;
};

namespace arch_base {
const GemmF32Ops& f32_ops();
const GemmS8Ops& s8_ops();
}  // namespace arch_base
namespace arch_v3 {  // defined only when CMake adds the TU
const GemmF32Ops& f32_ops();
const GemmS8Ops& s8_ops();
}  // namespace arch_v3
namespace arch_v512 {  // defined only when CMake adds the TU
const GemmS8Ops& s8_ops();
}  // namespace arch_v512

namespace detail {
/// The runtime-selected int8 ops table (internal; quant.cpp rides the
/// dispatched quantize_rows so activations quantize at the host's ISA).
const GemmS8Ops& s8_dispatch();
}  // namespace detail

}  // namespace cal::kernels

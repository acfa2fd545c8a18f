// cal_kernels: cache-blocked, register-tiled GEMM — fp32 and
// int8-quantized variants.
//
// Three transpose-fusion variants cover every matmul in the training and
// serving hot paths without materialising a transposed copy first:
//
//   gemm_nn : C (+)= A · B     A is MxK,            B is KxN
//   gemm_nt : C (+)= A · Bᵀ    A is MxK,            B is NxK (row-major)
//   gemm_tn : C (+)= Aᵀ · B    A is KxM (row-major), B is KxN
//
// All matrices are dense row-major; the caller provides the output span,
// so a kernel call never allocates (packing scratch lives in reusable
// thread-local buffers). With `accumulate == true` the product is added
// into C (the autograd backward accumulates straight into gradient
// buffers); otherwise C is overwritten.
//
// Numerical contract, relied on by tests and by the adversarial-training
// stack: each fp32 output element is an ascending-k sum of products with
// no zero-skip branches, so 0·NaN and 0·Inf propagate per IEEE 754
// exactly as in the naive triple loop. k is processed in 256-wide cache
// blocks whose partial sums combine in ascending order — the only
// reassociation relative to the naive loop, bounded by k/256 extra
// roundings. Every GEMM runs on its calling thread, and results are
// deterministic on a given machine. The int8 variants are stronger still:
// the inner product is exact in int32, so they are bit-identical across
// ISAs too.
//
// The inner micro-kernel is a kMR x kNR register tile whose accumulators
// are 8-wide vector lanes held across the whole k sweep (see
// gemm_kernel_body.inc). Rows past the last full kMR tile — every row of
// a batch-1 serving GEMM — take a small-row kernel that computes only the
// live rows and sweeps several column panels per pass instead of padding
// a tile with zero rows. The portable build compiles it twice — baseline
// ISA plus x86-64-v3 (AVX2+FMA), plus an int8-only x86-64-v4 (AVX-512)
// instantiation under CALLOC_ENABLE_AVX512 — and picks per CPU at
// runtime; -DCALLOC_ENABLE_NATIVE=ON instead compiles a single host-tuned
// (-march=native) instantiation.
//
// Every fp32 GEMM packs B block by block into kNR-column panels before
// the micro-kernel reads it. A weight matrix that many GEMMs share can be
// packed once instead: pack_b() builds an immutable PackedMatrix in the
// dispatched kernel's panel layout and gemm_packed() multiplies by it.
// Neither the packed operand nor the small-row kernel changes the
// numerical contract above: each output element gets the full tile's
// ascending-k operation sequence on every path, so gemm_packed returns
// gemm_nn's (gemm_nt's) exact bits, per ISA tier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cal::kernels {

/// C (+)= A·B. A: m x k, B: k x n, C: m x n (all row-major, exact sizes).
void gemm_nn(std::span<const float> a, std::span<const float> b,
             std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
             bool accumulate = false);

/// C (+)= A·Bᵀ. A: m x k, B: n x k, C: m x n. Fuses the transpose of B:
/// reads B row-major directly, no temporary.
void gemm_nt(std::span<const float> a, std::span<const float> b,
             std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
             bool accumulate = false);

/// C (+)= Aᵀ·B. A: k x m, B: k x n, C: m x n. Fuses the transpose of A.
void gemm_tn(std::span<const float> a, std::span<const float> b,
             std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
             bool accumulate = false);

// --- pre-packed right-hand operand ---------------------------------------

class PackedMatrix;

/// Pack B once for gemm_packed: B is k x n, or stored n x k (row-major)
/// when `transposed` — the gemm_nt layout.
PackedMatrix pack_b(std::span<const float> b, std::size_t k, std::size_t n,
                    bool transposed = false);

/// C (+)= A·B with B pre-packed by pack_b. A: m x b.k(), C: m x b.n().
/// Same bits as gemm_nn (gemm_nt for a transposed operand) on the
/// unpacked B, for every shape.
void gemm_packed(std::span<const float> a, const PackedMatrix& b,
                 std::span<float> c, std::size_t m, bool accumulate = false);

/// An fp32 right-hand GEMM operand packed ahead of time into the panel
/// layout of the dispatched kernel, so a weight matrix that many GEMMs
/// share is packed once instead of on every call. Holds exactly its own
/// panels (k x n rounded up to whole panels), not a full cache block.
/// Immutable once built: any number of threads may run gemm_packed on
/// one PackedMatrix at once.
class PackedMatrix {
 public:
  PackedMatrix() = default;  ///< empty; build one with pack_b()

  std::size_t k() const { return k_; }  ///< inner dimension (rows of B)
  std::size_t n() const { return n_; }  ///< output columns
  std::size_t bytes() const { return panels_.size() * sizeof(float); }

 private:
  friend PackedMatrix pack_b(std::span<const float>, std::size_t,
                             std::size_t, bool);
  friend void gemm_packed(std::span<const float>, const PackedMatrix&,
                          std::span<float>, std::size_t, bool);

  std::size_t k_ = 0;
  std::size_t n_ = 0;
  std::vector<float> panels_;
};

/// Reference i-k-j triple loop (the pre-kernel `Tensor::matmul` body).
/// Used by tests and bench_kernels to validate and time the blocked path.
void gemm_naive(std::span<const float> a, std::span<const float> b,
                std::span<float> c, std::size_t m, std::size_t k,
                std::size_t n, bool accumulate = false);

// --- int8 quantized -------------------------------------------------------

/// C (+)= diag(scale_a) · (A·B) · diag(scale_b) with int8 A (m x k) and
/// B (k x n), fp32 C. The inner product is EXACT in int32 — one float
/// rounding per output element — so results are bit-identical across
/// ISAs. scale_a holds one scale per row of A (per activation row, from
/// quantize_rows); scale_b one per column of B (per output channel, from
/// quantize_per_output_channel). k == 0 is legal and zero-fills C (or
/// leaves it untouched when accumulating).
void gemm_s8_nn(std::span<const std::int8_t> a, std::span<const std::int8_t> b,
                std::span<float> c, std::size_t m, std::size_t k,
                std::size_t n, std::span<const float> scale_a,
                std::span<const float> scale_b, bool accumulate = false);

/// As gemm_s8_nn with B stored n x k (transpose fused): C (+)=
/// diag(scale_a)·(A·Bᵀ)·diag(scale_b). scale_b still runs along the n
/// output channels — the rows of the stored B.
void gemm_s8_nt(std::span<const std::int8_t> a, std::span<const std::int8_t> b,
                std::span<float> c, std::size_t m, std::size_t k,
                std::size_t n, std::span<const float> scale_a,
                std::span<const float> scale_b, bool accumulate = false);

/// Name of the int8 kernel tier the runtime dispatcher selected on this
/// host: "avx512", "avx2" or "scalar". Results are bit-identical across
/// tiers; throughput is not — benches use this to pick the speedup floor
/// they enforce (int8 only clears ~1.7x over fp32 with 512-bit madd).
const char* gemm_s8_isa();

// --- threading ------------------------------------------------------------

/// Every GEMM runs on its calling thread, and concurrent callers share no
/// mutable state (packing scratch is thread-local; a PackedMatrix is
/// immutable), so serving workers multiply in parallel without a kernel
/// thread pool. Kept for callers that still pin the kernel thread count
/// to 1: throws PreconditionError for n > 1.
void set_max_threads(std::size_t n);

}  // namespace cal::kernels

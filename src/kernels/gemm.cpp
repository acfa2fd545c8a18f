#include "kernels/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/ensure.hpp"
#include "common/hot_path_annotations.hpp"
#include "common/thread_annotations.hpp"
#include "kernels/gemm_arch.hpp"

namespace cal::kernels {
namespace {

constexpr std::size_t kMR = 6;    // fp32 row granule; must match kernel body
constexpr std::size_t kMRs8 = 4;  // int8 row granule; must match kernel body

// Minimum 2·m·k·n before the thread pool is worth its synchronisation.
constexpr double kParallelMinFlops = 4.0e6;

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

// --- persistent thread pool (row-block fork/join) -------------------------

class Pool {
 public:
  explicit Pool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
      threads_.emplace_back(&Pool::loop, this);
  }

  ~Pool() {
    {
      MutexLock lk(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : threads_) t.join();
  }

  std::size_t workers() const { return threads_.size(); }

  /// Run fn(0..tasks-1) across the pool; the caller participates too.
  void run(std::size_t tasks, const std::function<void(std::size_t)>& fn)
      CAL_EXCLUDES(mu_) {
    // Local copy of the task bound: the caller's claim loop below runs
    // outside the lock, and end_ is guarded state owned by the job the
    // workers see.
    const std::size_t end = tasks;
    {
      MutexLock lk(mu_);
      job_ = &fn;
      next_.store(0, std::memory_order_relaxed);
      end_ = tasks;
      pending_ = threads_.size();
      ++generation_;
    }
    cv_work_.notify_all();
    for (std::size_t t;
         (t = next_.fetch_add(1, std::memory_order_relaxed)) < end;)
      fn(t);
    MutexLock lk(mu_);
    while (pending_ != 0) cv_done_.wait(mu_);
    job_ = nullptr;
  }

 private:
  void loop() CAL_EXCLUDES(mu_) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* job = nullptr;
      std::size_t end = 0;
      {
        MutexLock lk(mu_);
        while (!stop_ && generation_ == seen) cv_work_.wait(mu_);
        if (stop_) return;
        seen = generation_;
        job = job_;
        end = end_;
      }
      for (std::size_t t;
           (t = next_.fetch_add(1, std::memory_order_relaxed)) < end;)
        (*job)(t);
      {
        MutexLock lk(mu_);
        if (--pending_ == 0) cv_done_.notify_one();
      }
    }
  }

  Mutex mu_;
  CondVar cv_work_;
  CondVar cv_done_;
  std::vector<std::thread> threads_;
  const std::function<void(std::size_t)>* job_ CAL_GUARDED_BY(mu_) = nullptr;
  std::atomic<std::size_t> next_{0};
  std::size_t end_ CAL_GUARDED_BY(mu_) = 0;
  std::size_t pending_ CAL_GUARDED_BY(mu_) = 0;
  std::uint64_t generation_ CAL_GUARDED_BY(mu_) = 0;
  bool stop_ CAL_GUARDED_BY(mu_) = false;
};

Pool& pool() {
  static Pool p(std::min<std::size_t>(
      15, std::max<std::size_t>(1, std::thread::hardware_concurrency()) - 1));
  return p;
}

// The fork/join pool state (job_/next_/end_/pending_) supports one running
// job; a second concurrent GEMM must not join it. try_lock keeps whichever
// caller loses the race on the serial path instead of blocking — results
// are bit-identical either way, and callers like multi-worker serving
// already parallelise above the kernel.
//
// Deliberately a plain std::mutex, outside the thread-safety analysis: the
// gate guards no data beyond the pool-owned packing scratch below (whose
// lifetime is exactly a pool job), only which caller gets to run one, and
// a conditionally-held RAII try-lock is a shape the analysis cannot
// express without NO_THREAD_SAFETY_ANALYSIS escapes.
std::mutex& pool_gate() {
  static std::mutex gate;
  return gate;
}

// Pool-owned packed-B scratch, reused across parallel GEMMs (guarded by
// pool_gate: only the gate holder packs into and reads from it). Packing
// once here and letting every row-split task read the shared image removes
// the per-task re-pack tax.
std::vector<float>& shared_bpack_f32() {
  static std::vector<float> buf;
  return buf;
}

// Annotation-audit note (PR 9 int8 panel, reviewed with the PR 6 code):
// like the fp32 buffer above, this is a function-local static guarded by
// the pool_gate() *protocol*, not by a CAL_GUARDED_BY annotation — Clang
// TSA attributes attach to member/global declarations and cannot name a
// block-scope static behind an accessor, and the guarding acquisition is
// the deliberately-unannotated try-lock gate. The row-split tasks that
// share the packed image only ever read it while their spawning caller
// holds the gate across pool().run() (the tasks are joined before the
// gate is released), so the TSan CI job exercises exactly this sharing.
std::vector<std::int8_t>& shared_bpack_s8() {
  static std::vector<std::int8_t> buf;
  return buf;
}

std::atomic<std::size_t> g_max_threads{1};

// --- pool telemetry -------------------------------------------------------

// One mutexed accumulator for the whole pool. Only the parallel path
// touches it (a handful of lock hops per >=4 MFlop GEMM); the serial path
// — including every small serving matmul — records nothing.
struct PoolMetricsState {
  mutable Mutex mu;
  std::size_t parallel_gemms CAL_GUARDED_BY(mu) = 0;
  std::size_t serial_fallbacks CAL_GUARDED_BY(mu) = 0;
  std::size_t tasks CAL_GUARDED_BY(mu) = 0;
  obs::Histogram task_ms CAL_GUARDED_BY(mu);
};

PoolMetricsState& pool_metrics_state() {
  static PoolMetricsState s;
  return s;
}

void note_serial_fallback() {
  PoolMetricsState& pm = pool_metrics_state();
  MutexLock lk(pm.mu);
  ++pm.serial_fallbacks;
}

void note_parallel_gemm() {
  PoolMetricsState& pm = pool_metrics_state();
  MutexLock lk(pm.mu);
  ++pm.parallel_gemms;
}

// Wrap a pool task with wall-time telemetry. This is the GEMM pool task
// body: everything a worker runs per task goes through here, so the
// hot-path contract is anchored on it (the metrics mutex is a bounded
// critical section, which CAL_HOT_PATH permits).
template <typename Fn>
CAL_HOT_PATH
void timed_task(const Fn& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  PoolMetricsState& pm = pool_metrics_state();
  MutexLock lk(pm.mu);
  ++pm.tasks;
  pm.task_ms.record(ms);
}

// Split `m` rows into at most `want` granule-aligned chunks: one task per
// permitted thread, so set_max_threads(n) really caps concurrency (a finer
// split would let idle pool workers steal extra tasks). Each chunk is an
// independent sub-GEMM: the k reduction order per output element is
// untouched, so any split is bit-identical to serial.
std::size_t row_chunk(std::size_t m, std::size_t granule, std::size_t want) {
  const std::size_t blocks = (m + granule - 1) / granule;
  const std::size_t chunk_blocks = (blocks + want - 1) / want;
  return chunk_blocks * granule;
}

// --- fp32 block loop -----------------------------------------------------

// Right-hand operand of one fp32 GEMM: a stored matrix (row stride ldb,
// transposed when tb) packed block by block as the loop reaches it, or
// the panels of a PackedMatrix.
struct Rhs {
  const float* b = nullptr;
  std::size_t ldb = 0;
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
// packed into `scratch` (one block_kc x block_nc block).
const float* block_panels(const GemmF32Ops& ops, const Rhs& rhs,
                          std::size_t k, const Block& blk, float* scratch) {
  if (rhs.packed != nullptr) return rhs.packed + packed_offset(ops, k, blk);
  ops.pack_b_block(rhs.b, rhs.ldb, rhs.tb, blk.p0, blk.kc, blk.j0, blk.nc,
                   scratch);
  return scratch;
}

// Audited: the per-thread B-packing scratch grows once to one cache block
// and is reused for every later GEMM on that thread. A pre-packed operand
// never touches it.
CAL_LINT_SUPPRESS(alloc, "thread-local packing scratch grows once, then reused")
float* bpack_scratch(const GemmF32Ops& ops, const Rhs& rhs,
                     std::vector<float>& buf) {
  if (rhs.packed != nullptr) return nullptr;
  const std::size_t need = ops.block_kc * ops.block_nc;
  if (buf.size() < need) buf.resize(need);
  return buf.data();
}

thread_local std::vector<float> t_bpack;

// Rows [i_begin, i_end) of C (+)= op(A)·op(B) on the calling thread.
void gemm_rows(const GemmF32Ops& ops, const float* a, const Rhs& rhs,
               float* c, std::size_t k, std::size_t n, std::size_t lda,
               std::size_t ldc, bool ta, bool accumulate,
               std::size_t i_begin, std::size_t i_end) {
  float* scratch = bpack_scratch(ops, rhs, t_bpack);
  for_each_block(ops, k, n, accumulate, [&](const Block& blk) {
    ops.gemm_rows_prepacked(a, block_panels(ops, rhs, k, blk, scratch), c,
                            lda, ldc, ta, blk.acc, blk.p0, blk.kc, blk.j0,
                            blk.nc, i_begin, i_end);
  });
}

// --- fp32 dispatch --------------------------------------------------------

// Audited: pool().run() parks the caller on cv_done_ until the row tasks
// finish — a *bounded* synchronous fan-out/join over pure compute, by
// design since PR 3 (serial fallback exists; bench_kernels gates the
// speedup). The try_to_lock pool gate itself never blocks.
CAL_LINT_SUPPRESS(block, "pool fan-out joins bounded compute tasks; synchronous by design")
void gemm_impl(const float* a, const Rhs& rhs, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool ta, bool accumulate) {
  const GemmF32Ops& ops = f32();
  // Dense leading dimensions: the stored row widths of A and C.
  const std::size_t lda = ta ? m : k;
  const std::size_t ldc = n;
  const std::size_t mt = max_threads();
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
  if (mt > 1 && flops >= kParallelMinFlops && m > kMR) {
    std::unique_lock gate(pool_gate(), std::try_to_lock);
    if (gate.owns_lock()) {
      const std::size_t want = std::min(mt, pool().workers() + 1);
      const std::size_t chunk = row_chunk(m, kMR, want);
      const std::size_t tasks = (m + chunk - 1) / chunk;
      float* scratch = bpack_scratch(ops, rhs, shared_bpack_f32());
      // Drive the block loop here so each block of B is packed ONCE (or
      // read pre-packed) and every row task reads the same panels. Same
      // block order and per-element reduction order as the serial path,
      // so the result is bit-identical to gemm_rows over [0, m).
      for_each_block(ops, k, n, accumulate, [&](const Block& blk) {
        const float* panels = block_panels(ops, rhs, k, blk, scratch);
        pool().run(tasks, [&](std::size_t t) {
          timed_task([&] {
            const std::size_t i_begin = t * chunk;
            ops.gemm_rows_prepacked(a, panels, c, lda, ldc, ta, blk.acc,
                                    blk.p0, blk.kc, blk.j0, blk.nc, i_begin,
                                    std::min(m, i_begin + chunk));
          });
        });
      });
      note_parallel_gemm();
      return;
    }
    note_serial_fallback();
  }
  gemm_rows(ops, a, rhs, c, k, n, lda, ldc, ta, accumulate, 0, m);
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

// --- batched dispatch -----------------------------------------------------

struct ResolvedStrides {
  std::size_t stride_a, stride_b, stride_c, lda, ldb, ldc;
};

ResolvedStrides resolve_strides(const BatchStrides& s, std::size_t m,
                                std::size_t k, std::size_t n, bool ta,
                                bool tb) {
  ResolvedStrides r{};
  r.lda = s.lda != 0 ? s.lda : (ta ? m : k);
  r.ldb = s.ldb != 0 ? s.ldb : (tb ? k : n);
  r.ldc = s.ldc != 0 ? s.ldc : n;
  r.stride_a = s.stride_a != 0 ? s.stride_a : (ta ? k : m) * r.lda;
  r.stride_b = s.stride_b != 0 ? s.stride_b : (tb ? n : k) * r.ldb;
  r.stride_c = s.stride_c != 0 ? s.stride_c : m * r.ldc;
  return r;
}

// Greatest element offset touched in a batch of stored rows x cols views,
// plus one: the minimum span size.
std::size_t batched_extent(std::size_t batch, std::size_t stride,
                           std::size_t rows, std::size_t cols,
                           std::size_t ld) {
  return (batch - 1) * stride + (rows - 1) * ld + cols;
}

void check_batched(std::span<const float> a, std::span<const float> b,
                   std::span<float> c, std::size_t batch, std::size_t m,
                   std::size_t k, std::size_t n, const ResolvedStrides& r,
                   bool ta, bool tb) {
  CAL_ENSURE(batch > 0 && m > 0 && n > 0, "batched gemm dims must be positive: "
                                              << batch << " of " << m << "x"
                                              << k << "x" << n);
  CAL_ENSURE(r.ldc >= n, "batched gemm ldc " << r.ldc << " < n " << n);
  if (k > 0) {
    const std::size_t rows_a = ta ? k : m;
    const std::size_t cols_a = ta ? m : k;
    const std::size_t rows_b = tb ? n : k;
    const std::size_t cols_b = tb ? k : n;
    CAL_ENSURE(r.lda >= cols_a,
               "batched gemm lda " << r.lda << " < row width " << cols_a);
    CAL_ENSURE(r.ldb >= cols_b,
               "batched gemm ldb " << r.ldb << " < row width " << cols_b);
    const std::size_t need_a =
        batched_extent(batch, r.stride_a, rows_a, cols_a, r.lda);
    const std::size_t need_b =
        batched_extent(batch, r.stride_b, rows_b, cols_b, r.ldb);
    CAL_ENSURE(a.size() >= need_a, "batched gemm lhs span has "
                                       << a.size() << " floats, needs >= "
                                       << need_a);
    CAL_ENSURE(b.size() >= need_b, "batched gemm rhs span has "
                                       << b.size() << " floats, needs >= "
                                       << need_b);
  }
  const std::size_t need_c = batched_extent(batch, r.stride_c, m, n, r.ldc);
  CAL_ENSURE(c.size() >= need_c, "batched gemm out span has "
                                     << c.size() << " floats, needs >= "
                                     << need_c);
}

CAL_LINT_SUPPRESS(block, "pool fan-out joins bounded compute tasks; synchronous by design")
void gemm_batched_impl(const float* a, const float* b, float* c,
                       std::size_t batch, std::size_t m, std::size_t k,
                       std::size_t n, const ResolvedStrides& r, bool ta,
                       bool tb, bool accumulate) {
  if (k == 0) {
    // Empty reduction: the product is the zero matrix.
    if (!accumulate)
      for (std::size_t e = 0; e < batch; ++e)
        for (std::size_t i = 0; i < m; ++i)
          std::fill_n(c + e * r.stride_c + i * r.ldc, n, 0.0F);
    return;
  }
  const GemmF32Ops& ops = f32();
  const auto item = [&](std::size_t e, std::size_t i_begin,
                        std::size_t i_end) {
    gemm_rows(ops, a + e * r.stride_a, Rhs{b + e * r.stride_b, r.ldb, tb},
              c + e * r.stride_c, k, n, r.lda, r.ldc, ta, accumulate,
              i_begin, i_end);
  };
  const std::size_t mt = max_threads();
  const double flops = 2.0 * static_cast<double>(batch) *
                       static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
  if (mt > 1 && flops >= kParallelMinFlops && batch * m > kMR) {
    std::unique_lock gate(pool_gate(), std::try_to_lock);
    if (gate.owns_lock()) {
      // Parallelise across batch x row-chunks: each task is one row slice
      // of one batch item, self-packing its own B view (items have
      // distinct B matrices, so there is no shared panel to exploit).
      const std::size_t want = std::min(mt, pool().workers() + 1);
      const std::size_t per_item = (want + batch - 1) / batch;
      const std::size_t chunk = row_chunk(m, kMR, per_item);
      const std::size_t chunks = (m + chunk - 1) / chunk;
      note_parallel_gemm();
      pool().run(batch * chunks, [&](std::size_t t) {
        timed_task([&] {
          const std::size_t e = t / chunks;
          const std::size_t i_begin = (t % chunks) * chunk;
          item(e, i_begin, std::min(m, i_begin + chunk));
        });
      });
      return;
    }
    note_serial_fallback();
  }
  for (std::size_t e = 0; e < batch; ++e) item(e, 0, m);
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

CAL_LINT_SUPPRESS(block, "pool fan-out joins bounded compute tasks; synchronous by design")
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
  const std::size_t mt = max_threads();
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
  if (mt > 1 && flops >= kParallelMinFlops && m > kMRs8) {
    std::unique_lock gate(pool_gate(), std::try_to_lock);
    if (gate.owns_lock()) {
      std::vector<std::int8_t>& bpack = shared_bpack_s8();
      if (bpack.size() < packed) bpack.resize(packed);
      ops.pack_b(b, k, n, tb, bpack.data());
      const std::size_t want = std::min(mt, pool().workers() + 1);
      const std::size_t chunk = row_chunk(m, kMRs8, want);
      const std::size_t tasks = (m + chunk - 1) / chunk;
      note_parallel_gemm();
      pool().run(tasks, [&](std::size_t t) {
        timed_task([&] {
          const std::size_t i_begin = t * chunk;
          const std::size_t i_end = std::min(m, i_begin + chunk);
          ops.rows(a, bpack.data(), c, m, k, n, scale_a, scale_b, accumulate,
                   i_begin, i_end);
        });
      });
      return;
    }
    note_serial_fallback();
  }
  thread_local std::vector<std::int8_t> t_bpack;
  if (t_bpack.size() < packed) t_bpack.resize(packed);
  ops.pack_b(b, k, n, tb, t_bpack.data());
  ops.rows(a, t_bpack.data(), c, m, k, n, scale_a, scale_b, accumulate, 0, m);
}

}  // namespace

void gemm_nn(std::span<const float> a, std::span<const float> b,
             std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
             bool accumulate) {
  check_args(a, b, c, m, k, n);
  gemm_impl(a.data(), Rhs{b.data(), n, false}, c.data(), m, k, n, false,
            accumulate);
}

void gemm_nt(std::span<const float> a, std::span<const float> b,
             std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
             bool accumulate) {
  check_args(a, b, c, m, k, n);
  gemm_impl(a.data(), Rhs{b.data(), k, true}, c.data(), m, k, n, false,
            accumulate);
}

void gemm_tn(std::span<const float> a, std::span<const float> b,
             std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
             bool accumulate) {
  check_args(a, b, c, m, k, n);
  gemm_impl(a.data(), Rhs{b.data(), n, false}, c.data(), m, k, n, true,
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

void gemm_batched_nn(std::span<const float> a, std::span<const float> b,
                     std::span<float> c, std::size_t batch, std::size_t m,
                     std::size_t k, std::size_t n, const BatchStrides& strides,
                     bool accumulate) {
  const ResolvedStrides r = resolve_strides(strides, m, k, n, false, false);
  check_batched(a, b, c, batch, m, k, n, r, false, false);
  gemm_batched_impl(a.data(), b.data(), c.data(), batch, m, k, n, r, false,
                    false, accumulate);
}

void gemm_batched_nt(std::span<const float> a, std::span<const float> b,
                     std::span<float> c, std::size_t batch, std::size_t m,
                     std::size_t k, std::size_t n, const BatchStrides& strides,
                     bool accumulate) {
  const ResolvedStrides r = resolve_strides(strides, m, k, n, false, true);
  check_batched(a, b, c, batch, m, k, n, r, false, true);
  gemm_batched_impl(a.data(), b.data(), c.data(), batch, m, k, n, r, false,
                    true, accumulate);
}

void gemm_batched_tn(std::span<const float> a, std::span<const float> b,
                     std::span<float> c, std::size_t batch, std::size_t m,
                     std::size_t k, std::size_t n, const BatchStrides& strides,
                     bool accumulate) {
  const ResolvedStrides r = resolve_strides(strides, m, k, n, true, false);
  check_batched(a, b, c, batch, m, k, n, r, true, false);
  gemm_batched_impl(a.data(), b.data(), c.data(), batch, m, k, n, r, true,
                    false, accumulate);
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
  g_max_threads.store(n == 0 ? 1 : n, std::memory_order_relaxed);
}

std::size_t max_threads() {
  return g_max_threads.load(std::memory_order_relaxed);
}

PoolMetrics pool_metrics() {
  const PoolMetricsState& s = pool_metrics_state();
  MutexLock lk(s.mu);
  PoolMetrics out;
  out.parallel_gemms = s.parallel_gemms;
  out.serial_fallbacks = s.serial_fallbacks;
  out.tasks = s.tasks;
  out.task_ms = s.task_ms;
  return out;
}

}  // namespace cal::kernels

// GEMM kernel throughput: naive triple loop vs the blocked/register-tiled
// cal_kernels path, serial and with the row-block thread pool, across
// serving-shaped and training-shaped sizes; plus the fused-transpose win
// (gemm_nt vs transpose-copy + gemm_nn) on the attention score shape, and
// each CALLOC query-half layer at serving shapes (Table II Building 1 and
// 5 widths, batch 1/7/32) through gemm_nn/nt, gemm_packed and int8.
//
// Emits BENCH_kernels.json in the working directory so CI can archive the
// perf trajectory. Run: ./build/bench/bench_kernels
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/calloc.hpp"
#include "eval/metrics.hpp"
#include "kernels/gemm.hpp"
#include "kernels/quant.hpp"
#include "sim/collector.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace cal;
using Clock = std::chrono::steady_clock;

struct ShapeCase {
  std::string label;
  std::size_t m, k, n;
};

struct Row {
  ShapeCase shape;
  double naive_gflops = 0.0;
  double blocked_gflops = 0.0;
  double threaded_gflops = 0.0;
  double blocked_speedup = 0.0;
  double threaded_speedup = 0.0;
  bool close = false;
};

double gflop(const ShapeCase& s) {
  return 2.0 * static_cast<double>(s.m) * static_cast<double>(s.k) *
         static_cast<double>(s.n) / 1.0e9;
}

/// Best-of-`reps` timing of fn(), in seconds (min filters scheduler noise).
template <typename Fn>
double time_best(std::size_t reps, Fn&& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    if (dt < best) best = dt;
  }
  return best;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Best-of-`reps` time of ONE fn() call, in seconds, for calls too short
/// to time singly: each sample runs fn() often enough to span ~50 µs.
template <typename Fn>
double time_per_call(std::size_t reps, double flops, Fn&& fn) {
  const std::size_t inner = std::clamp<std::size_t>(
      static_cast<std::size_t>(2.0e7 / std::max(flops, 1.0)), 4, 4096);
  return time_best(reps, [&] {
           for (std::size_t i = 0; i < inner; ++i) fn();
         }) /
         static_cast<double>(inner);
}

/// One query-half layer of a served CALLOC model: y = x·W with W k x n
/// (stored n x k for the attention scores, the gemm_nt layout).
struct LayerCase {
  std::string building;
  std::string layer;
  std::size_t m, k, n;
  bool transposed;
};

struct LayerRow {
  LayerCase shape;
  double nn_us = 0.0;      ///< gemm_nn / gemm_nt: packs B on every call
  double packed_us = 0.0;  ///< gemm_packed on a pack_b operand
  double int8_us = 0.0;    ///< quantize_rows + gemm_s8_nn / gemm_s8_nt
};

}  // namespace

int main() {
  bench::banner("bench_kernels — blocked/SIMD GEMM layer",
                "claim: the cache-blocked register-tiled kernels beat the "
                "naive triple loop >=3x on training-shaped GEMMs, and the "
                "row-block thread pool scales them further");

  const std::size_t hw =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  const std::size_t reps = bench::full_mode() ? 30 : 12;

  // 520 APs is the paper-scale fingerprint width (UJIIndoorLoc-like); 128
  // is the embedding dim / RP-class count used across the model zoo.
  const std::vector<ShapeCase> shapes = {
      {"serve micro-batch embed (32x520 * 520x128)", 32, 520, 128},
      {"training batch embed (128x520 * 520x128)", 128, 520, 128},
      {"anchor attention scores (128x128 * 128x512)", 128, 128, 512},
      {"fleet batch (512x256 * 256x256)", 512, 256, 256},
  };
  const std::size_t kTargetShape = 1;  // the >=3x acceptance shape

  std::vector<Row> rows;
  for (const auto& s : shapes) {
    Rng rng(s.m + s.k + s.n);
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    Tensor c_naive({s.m, s.n});
    Tensor c_blocked({s.m, s.n});
    Tensor c_mt({s.m, s.n});

    Row row;
    row.shape = s;
    const double t_naive = time_best(reps, [&] {
      kernels::gemm_naive(a.flat(), b.flat(), c_naive.flat(), s.m, s.k, s.n);
    });
    const double t_blocked = time_best(reps, [&] {
      kernels::gemm_nn(a.flat(), b.flat(), c_blocked.flat(), s.m, s.k, s.n);
    });
    kernels::set_max_threads(hw);
    const double t_mt = time_best(reps, [&] {
      kernels::gemm_nn(a.flat(), b.flat(), c_mt.flat(), s.m, s.k, s.n);
    });
    kernels::set_max_threads(1);

    row.naive_gflops = gflop(s) / t_naive;
    row.blocked_gflops = gflop(s) / t_blocked;
    row.threaded_gflops = gflop(s) / t_mt;
    row.blocked_speedup = t_naive / t_blocked;
    row.threaded_speedup = t_naive / t_mt;
    // atol scaled to the result magnitude: k-block partial-sum rounding is
    // proportional to the summand scale, not the (possibly tiny) output.
    const float atol = 1e-5F * std::max(1.0F, c_naive.abs_max());
    row.close = allclose(c_blocked, c_naive, atol, 1e-5F) &&
                allclose(c_mt, c_naive, atol, 1e-5F);
    rows.push_back(row);
  }

  // Fused-transpose variant vs materialising Kᵀ first (attention scores:
  // B x D query against M x D anchor keys).
  const ShapeCase att{"fused q·kᵀ (128x64 * (520x64)ᵀ)", 128, 64, 520};
  double fused_speedup = 0.0;
  bool fused_close = false;
  {
    Rng rng(7);
    const Tensor q = Tensor::randn({att.m, att.k}, rng);
    const Tensor kmat = Tensor::randn({att.n, att.k}, rng);
    Tensor via_copy;
    Tensor fused;
    const double t_copy =
        time_best(reps, [&] { via_copy = q.matmul(kmat.transposed()); });
    const double t_fused = time_best(reps, [&] { fused = q.matmul_nt(kmat); });
    fused_speedup = t_copy / t_fused;
    fused_close = allclose(fused, via_copy,
                           1e-5F * std::max(1.0F, via_copy.abs_max()), 1e-5F);
  }

  // Int8 quantized path vs fp32 on the CI-gated training-embed shape.
  // Weights are quantized once (publish-time cost); the timed int8 loop
  // pays the full serving price — dynamic per-row activation quantization
  // plus gemm_s8_nn — and must still clear the 1.7x floor.
  const ShapeCase s8shape{"int8 embed (128x520 * 520x128)", 128, 520, 128};
  double s8_speedup = 0.0;
  double s8_gflops = 0.0;
  {
    Rng rng(40);
    const Tensor a = Tensor::randn({s8shape.m, s8shape.k}, rng);
    const Tensor b = Tensor::randn({s8shape.k, s8shape.n}, rng);
    const kernels::QuantizedMatrix wq =
        kernels::quantize_per_output_channel(b.flat(), s8shape.k, s8shape.n);
    std::vector<std::int8_t> a8(s8shape.m * s8shape.k);
    std::vector<float> a_scales(s8shape.m);
    Tensor c_f32({s8shape.m, s8shape.n});
    std::vector<float> c_s8(s8shape.m * s8shape.n);
    const double t_f32 = time_best(reps, [&] {
      kernels::gemm_nn(a.flat(), b.flat(), c_f32.flat(), s8shape.m,
                       s8shape.k, s8shape.n);
    });
    const double t_s8 = time_best(reps, [&] {
      kernels::quantize_rows(a.flat(), s8shape.m, s8shape.k, a8, a_scales);
      kernels::gemm_s8_nn(a8, wq.data, c_s8, s8shape.m, s8shape.k,
                          s8shape.n, a_scales, wq.scales);
    });
    s8_speedup = t_f32 / t_s8;
    s8_gflops = gflop(s8shape) / t_s8;
  }

  // CALLOC's query half per layer at serving shapes: the embedding
  // (num_aps -> 128), the query projection (128 -> 64), the anchor scores
  // (64 -> one per RP, against stored keys) and the head (RP -> RP), for
  // Table II Building 1 (156 APs, 65 RPs) and Building 5 (218 APs, 61
  // RPs). gemm_nn/nt re-pack B on every call; gemm_packed reads panels
  // packed once, the way Calloc::predict() serves; int8 pays activation
  // quantization plus gemm_s8_*.
  std::vector<LayerRow> layer_rows;
  {
    struct Venue {
      const char* name;
      std::size_t aps, rps;
    };
    for (const Venue& v : {Venue{"Building 1", 156, 65},
                           Venue{"Building 5", 218, 61}})
      for (const std::size_t batch : {1u, 7u, 32u})
        for (const LayerCase& c :
             {LayerCase{v.name, "embed", batch, v.aps, 128, false},
              LayerCase{v.name, "query", batch, 128, 64, false},
              LayerCase{v.name, "scores", batch, 64, v.rps, true},
              LayerCase{v.name, "head", batch, v.rps, v.rps, false}}) {
          Rng rng(c.m * 131 + c.k * 7 + c.n);
          const Tensor a = Tensor::randn({c.m, c.k}, rng);
          const Tensor b = c.transposed ? Tensor::randn({c.n, c.k}, rng)
                                        : Tensor::randn({c.k, c.n}, rng);
          const kernels::PackedMatrix packed =
              kernels::pack_b(b.flat(), c.k, c.n, c.transposed);
          const kernels::QuantizedMatrix q =
              c.transposed
                  ? kernels::quantize_rows(b.flat(), c.n, c.k)
                  : kernels::quantize_per_output_channel(b.flat(), c.k, c.n);
          std::vector<std::int8_t> a8(c.m * c.k);
          std::vector<float> a_scales(c.m);
          std::vector<float> out(c.m * c.n);
          const double flops = 2.0 * static_cast<double>(c.m * c.k * c.n);
          LayerRow r;
          r.shape = c;
          r.nn_us = 1e6 * time_per_call(reps, flops, [&] {
            if (c.transposed)
              kernels::gemm_nt(a.flat(), b.flat(), out, c.m, c.k, c.n);
            else
              kernels::gemm_nn(a.flat(), b.flat(), out, c.m, c.k, c.n);
          });
          r.packed_us = 1e6 * time_per_call(reps, flops, [&] {
            kernels::gemm_packed(a.flat(), packed, out, c.m);
          });
          r.int8_us = 1e6 * time_per_call(reps, flops, [&] {
            kernels::quantize_rows(a.flat(), c.m, c.k, a8, a_scales);
            if (c.transposed)
              kernels::gemm_s8_nt(a8, q.data, out, c.m, c.k, c.n, a_scales,
                                  q.scales);
            else
              kernels::gemm_s8_nn(a8, q.data, out, c.m, c.k, c.n, a_scales,
                                  q.scales);
          });
          layer_rows.push_back(r);
        }
  }
  const auto layer_gflops = [](const LayerCase& c, double us) {
    return 2.0 * static_cast<double>(c.m * c.k * c.n) / (us * 1e3);
  };
  // The batch-1 Building 5 embedding (1x218 * 218x128): the layer that
  // dominated served predict() before the operands were pre-packed.
  const auto b5_embed = std::find_if(
      layer_rows.begin(), layer_rows.end(), [](const LayerRow& r) {
        return r.shape.building == "Building 5" && r.shape.layer == "embed" &&
               r.shape.m == 1;
      });
  const double packed_b1_speedup = b5_embed->nn_us / b5_embed->packed_us;

  // Batched/strided multi-head attention scores: one strided
  // gemm_batched_nt over the fused B x (H·D) query vs H per-head gemm_nt
  // calls on contiguous per-head copies (the pre-fusion formulation).
  // rows=256 puts the BATCHED total (2·256·16·64·8 ≈ 4.2 MFLOP) past the
  // thread-pool threshold while each per-head GEMM (0.5 MFLOP) stays
  // serial — exactly the regime the fused serving path lives in, and the
  // reason batching wins on multi-core hosts: only the fused call can
  // recruit the pool.
  const std::size_t att_rows = 256, att_heads = 8, att_d = 16, att_m = 64;
  double batched_speedup = 0.0;
  bool batched_close = false;
  {
    Rng rng(41);
    const Tensor q = Tensor::randn({att_rows, att_heads * att_d}, rng);
    const Tensor proto = Tensor::randn({att_heads * att_m, att_d}, rng);
    // Contiguous per-head operands for the looped formulation (the old
    // code held separate head tensors, so the copies are not timed).
    std::vector<Tensor> q_heads(att_heads, Tensor({att_rows, att_d}));
    for (std::size_t h = 0; h < att_heads; ++h)
      for (std::size_t i = 0; i < att_rows; ++i)
        for (std::size_t j = 0; j < att_d; ++j)
          q_heads[h].at(i, j) = q.at(i, h * att_d + j);
    std::vector<Tensor> s_heads(att_heads, Tensor({att_rows, att_m}));
    std::vector<float> s_batched(att_rows * att_heads * att_m);
    kernels::BatchStrides st;
    st.stride_a = att_d;
    st.lda = att_heads * att_d;
    st.stride_b = att_m * att_d;
    st.stride_c = att_m;
    st.ldc = att_heads * att_m;
    // The pool is live for this section when the host has real cores:
    // only the batched call is big enough to recruit it, which is the
    // point being measured (on a single core the pool would just add
    // context switches to the batched side). The two timings interleave
    // rep by rep so slow phases of a noisy container hit both
    // formulations equally instead of skewing one.
    kernels::set_max_threads(std::thread::hardware_concurrency() > 1 ? hw
                                                                     : 1);
    double t_loop = 1e300;
    double t_batched = 1e300;
    for (std::size_t r = 0; r < 3 * reps; ++r) {
      t_loop = std::min(t_loop, time_best(1, [&] {
        for (std::size_t h = 0; h < att_heads; ++h)
          kernels::gemm_nt(q_heads[h].flat(),
                           proto.flat().subspan(h * att_m * att_d,
                                                att_m * att_d),
                           s_heads[h].flat(), att_rows, att_d, att_m);
      }));
      t_batched = std::min(t_batched, time_best(1, [&] {
        kernels::gemm_batched_nt(q.flat(), proto.flat(), s_batched,
                                 att_heads, att_rows, att_d, att_m, st);
      }));
    }
    kernels::set_max_threads(1);
    batched_speedup = t_loop / t_batched;
    batched_close = true;
    for (std::size_t h = 0; h < att_heads && batched_close; ++h)
      for (std::size_t i = 0; i < att_rows && batched_close; ++i)
        for (std::size_t j = 0; j < att_m; ++j)
          if (s_batched[i * att_heads * att_m + h * att_m + j] !=
              s_heads[h].at(i, j)) {
            batched_close = false;
            break;
          }
  }

  // End-to-end accuracy cost of quantization: a fast curriculum run on a
  // simulated venue, then mean localization error fp32 vs int8. CI gates
  // the delta at 0.05 m — the quantized lane must be accuracy-neutral.
  double err_fp32_m = 0.0;
  double err_int8_m = 0.0;
  {
    sim::BuildingSpec spec;
    spec.name = "bench-quant";
    spec.num_aps = 24;
    spec.path_length_m = 14;
    spec.seed = 313;
    const sim::Scenario sc = sim::make_scenario(spec, 999);
    core::CallocConfig cfg;
    cfg.seed = 71;
    cfg.num_lessons = 5;
    cfg.train.max_epochs_per_lesson = 6;
    core::Calloc model(cfg);
    model.fit(sc.train);
    const auto& test = sc.device_tests.front();
    const Tensor x = test.normalized();
    const auto pred_f = model.predict(x);
    auto quantized = model.quantize_int8();
    const auto pred_q = quantized->predict(x);
    err_fp32_m = eval::error_stats(test, pred_f).error_m.mean;
    err_int8_m = eval::error_stats(test, pred_q).error_m.mean;
  }
  const double err_delta_m = err_int8_m - err_fp32_m;

  TextTable table({"shape", "naive GF/s", "blocked GF/s",
                   std::to_string(hw) + "t GF/s", "blocked x", "threads x"});
  for (const auto& r : rows)
    table.add_row({r.shape.label, fmt(r.naive_gflops), fmt(r.blocked_gflops),
                   fmt(r.threaded_gflops), fmt(r.blocked_speedup),
                   fmt(r.threaded_speedup)});
  std::printf("%s\n", table.str().c_str());
  std::printf("fused gemm_nt vs transpose-copy on %s: %.2fx\n",
              att.label.c_str(), fused_speedup);
  const std::string s8_isa = kernels::gemm_s8_isa();
  std::printf("int8 (quantize_rows + gemm_s8_nn) vs fp32 on %s: %.2fx "
              "(%.2f int8 GF/s, %s tier)\n",
              s8shape.label.c_str(), s8_speedup, s8_gflops, s8_isa.c_str());
  std::printf("batched strided q·kᵀ (%zu heads, %zux%zux%zu) vs per-head "
              "loop: %.2fx\n",
              att_heads, att_rows, att_d, att_m, batched_speedup);
  std::printf("localization error: fp32 %.3f m, int8 %.3f m (delta %+.3f "
              "m)\n\n",
              err_fp32_m, err_int8_m, err_delta_m);
  TextTable layers({"CALLOC query-half layer", "m x k x n", "nn/nt us",
                    "packed us", "int8 us", "nn GF/s", "packed GF/s",
                    "int8 GF/s"});
  for (const auto& r : layer_rows) {
    const LayerCase& c = r.shape;
    layers.add_row({c.building + " " + c.layer,
                    std::to_string(c.m) + "x" + std::to_string(c.k) + "x" +
                        std::to_string(c.n),
                    fmt(r.nn_us), fmt(r.packed_us), fmt(r.int8_us),
                    fmt(layer_gflops(c, r.nn_us)),
                    fmt(layer_gflops(c, r.packed_us)),
                    fmt(layer_gflops(c, r.int8_us))});
  }
  std::printf("%s\n", layers.str().c_str());

  // Machine-readable trajectory for CI artifacts.
  {
    FILE* f = std::fopen("BENCH_kernels.json", "w");
    if (f != nullptr) {
      std::fprintf(f, "{\n  \"bench\": \"bench_kernels\",\n");
      std::fprintf(f, "  \"mode\": \"%s\",\n",
                   bench::full_mode() ? "full" : "quick");
      std::fprintf(f, "  \"hw_threads\": %zu,\n  \"shapes\": [\n", hw);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        std::fprintf(
            f,
            "    {\"label\": \"%s\", \"m\": %zu, \"k\": %zu, \"n\": %zu,\n"
            "     \"naive_gflops\": %.3f, \"blocked_gflops\": %.3f,\n"
            "     \"threaded_gflops\": %.3f, \"blocked_speedup\": %.3f,\n"
            "     \"threaded_speedup\": %.3f, \"matches_naive\": %s}%s\n",
            r.shape.label.c_str(), r.shape.m, r.shape.k, r.shape.n,
            r.naive_gflops, r.blocked_gflops, r.threaded_gflops,
            r.blocked_speedup, r.threaded_speedup,
            r.close ? "true" : "false", i + 1 < rows.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n  \"fused_nt_speedup\": %.3f,\n",
                   fused_speedup);
      std::fprintf(f,
                   "  \"int8\": {\"label\": \"%s\", \"speedup_vs_fp32\": "
                   "%.3f, \"gflops\": %.3f, \"isa\": \"%s\"},\n",
                   s8shape.label.c_str(), s8_speedup, s8_gflops,
                   s8_isa.c_str());
      std::fprintf(f,
                   "  \"batched_attention\": {\"heads\": %zu, \"rows\": %zu,"
                   " \"head_dim\": %zu, \"prototypes\": %zu,\n"
                   "   \"speedup_vs_per_head_loop\": %.3f, "
                   "\"matches_loop\": %s},\n",
                   att_heads, att_rows, att_d, att_m, batched_speedup,
                   batched_close ? "true" : "false");
      std::fprintf(f, "  \"query_half_layers\": [\n");
      for (std::size_t i = 0; i < layer_rows.size(); ++i) {
        const LayerRow& r = layer_rows[i];
        const LayerCase& c = r.shape;
        std::fprintf(
            f,
            "    {\"building\": \"%s\", \"layer\": \"%s\", \"m\": %zu, "
            "\"k\": %zu, \"n\": %zu,\n"
            "     \"nn_us\": %.3f, \"packed_us\": %.3f, \"int8_us\": %.3f,\n"
            "     \"nn_gflops\": %.3f, \"packed_gflops\": %.3f, "
            "\"int8_gflops\": %.3f}%s\n",
            c.building.c_str(), c.layer.c_str(), c.m, c.k, c.n, r.nn_us,
            r.packed_us, r.int8_us, layer_gflops(c, r.nn_us),
            layer_gflops(c, r.packed_us), layer_gflops(c, r.int8_us),
            i + 1 < layer_rows.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n");
      std::fprintf(f,
                   "  \"quantized_accuracy\": {\"fp32_mean_error_m\": %.4f,"
                   " \"int8_mean_error_m\": %.4f, \"delta_m\": %.4f}\n}\n",
                   err_fp32_m, err_int8_m, err_delta_m);
      std::fclose(f);
      std::printf("wrote BENCH_kernels.json\n\n");
    }
  }

  bool ok = true;
  for (const auto& r : rows)
    ok &= bench::shape_check(r.close, "blocked matches naive on " +
                                          r.shape.label);
  ok &= bench::shape_check(fused_close, "fused gemm_nt matches copy path");
  ok &= bench::shape_check(
      rows[kTargetShape].blocked_speedup >= 3.0,
      "blocked >=3x naive on " + rows[kTargetShape].shape.label + " (got " +
          fmt(rows[kTargetShape].blocked_speedup) + "x)");
  ok &= bench::shape_check(
      rows.back().threaded_gflops > 0.8 * rows.back().blocked_gflops,
      "thread pool does not regress the largest shape");
  ok &= bench::shape_check(batched_close,
                           "batched strided scores match per-head loop "
                           "bit for bit");
  // The 1.7x int8 floor needs 512-bit integer madd: two AVX2
  // instructions per 16 int8 MACs sit at throughput parity with one
  // 8-MAC fp32 FMA, so the AVX2 tier architecturally tops out near
  // ~1.3x and the scalar tier loses outright. Gate each tier at what
  // its ISA can honestly deliver; the full floor is enforced wherever
  // the dispatcher selected the avx512 tile.
  const double s8_floor =
      s8_isa == "avx512" ? 1.7 : (s8_isa == "avx2" ? 1.0 : 0.2);
  ok &= bench::shape_check(
      s8_speedup >= s8_floor,
      "int8 >=" + fmt(s8_floor) + "x fp32 on " + s8shape.label + " [" +
          s8_isa + " tier] (got " + fmt(s8_speedup) + "x)");
  // Single-core hosts only see the dispatch-amortisation part of the
  // batched win (the pool is the main event), so gate no-regression
  // there and a real win where physical threads exist. hw is clamped to
  // >=2 for the pool timings above, so consult the real core count.
  const double batched_floor =
      std::thread::hardware_concurrency() > 1 ? 1.05 : 0.9;
  ok &= bench::shape_check(
      batched_speedup >= batched_floor,
      "batched attention GEMM beats the per-head loop (floor " +
          fmt(batched_floor) + "x, got " + fmt(batched_speedup) + "x)");
  // Batch-1 serving: a pre-packed operand skips the per-call B pack and
  // the small-row kernel skips the padded rows of a 6-row tile.
  ok &= bench::shape_check(
      packed_b1_speedup >= 3.0,
      "gemm_packed >=3x gemm_nn at batch 1 on 1x218x128 (got " +
          fmt(packed_b1_speedup) + "x)");
  // Signed on purpose: int8 may land BETTER than fp32 (quantization acts
  // as a mild regularizer on this venue) and an improvement must pass.
  ok &= bench::shape_check(
      err_delta_m <= 0.05,
      "int8 localization-error delta within +0.05 m (got " +
          fmt(err_delta_m) + " m)");
  return ok ? 0 : 1;
}

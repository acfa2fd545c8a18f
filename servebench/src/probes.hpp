// Standalone per-layer timings for the traced run: each one calls a public
// function of one layer on the workload's own data and shapes, outside the
// engine, so its cost can be read without queueing around it.
#pragma once

#include "workload.hpp"

namespace servebench {

/// Mean µs of one AnchorScreen::distance call over the workload's scans,
/// on each venue's deployed screen.
double screen_us(const Deployment& dep);

/// Mean µs of FingerprintCache::make_key + lookup over the workload's
/// scans, on a cache of the workload's capacity filled with the first
/// scans. 0 when the workload runs with the cache off.
double cache_us(const WorkloadSpec& spec, const Deployment& dep);

/// Median ms of one attack over venue 0's training set through a
/// replica's own gradients: FGSM at the curriculum's ϵ = 0.1 on every AP
/// (one lesson's crafting), and PGD with the 10-step MITM settings.
double fgsm_ms(Deployment& dep);
double pgd_ms(Deployment& dep);

/// GFLOP/s of the deployed first layer's GEMM: kMaxBatch rows x num_aps of
/// venue 0 x the 128-wide embedding. fp32 times gemm_nn; int8 times
/// quantize_rows + gemm_s8_nn against per-channel quantized weights.
double gemm_fp32_gflops(const Deployment& dep);
double gemm_s8_gflops(const Deployment& dep);

}  // namespace servebench

// Multi-venue online-serving demo: one ServeEngine process guards several
// buildings on ONE shared worker pool. An office runs a trained CALLOC
// model; a lab runs a KNN tenant (the registry is model-agnostic). Fleet
// clients send their real device name as their tenant profile — only the
// OP3 reference model is registered per venue, so the profile fallback
// chain resolves them — while two compromised office devices push PGD
// traffic through a MITM channel, a misconfigured client probes an
// unknown building, and the office model is HOT-RELOADED mid-demo
// (publish + RCU deploy) without dropping a request.
//
// Shows: registry + fallback routing, typed admission (quota shedding),
// per-shard screening thresholds and screening work, tenant-local
// caches, drift trend telemetry, deterministic rejects, hot reload that
// flushes only the reloaded tenant, and the aggregate fleet view.
//
// Run: ./build/examples/serve_demo
#include <cstdio>
#include <filesystem>
#include <future>
#include <thread>

#include "attacks/attack.hpp"
#include "baselines/knn.hpp"
#include "common/table.hpp"
#include "core/calloc.hpp"
#include "serve/engine.hpp"
#include "sim/fleet.hpp"

namespace {

using namespace cal;

/// Blocking submit via the engine's wrapper; the per-client denial count
/// makes the quota's shedding visible in the report.
serve::EngineSubmission submit_blocking(serve::ServeEngine& engine,
                                        const serve::TenantKey& key,
                                        const std::vector<float>& fp,
                                        std::size_t* denials) {
  return engine.submit_blocking(key, fp, denials);
}

}  // namespace

int main() {
  using namespace cal;

  // -- Offline phase: survey two venues -----------------------------------
  std::vector<sim::BuildingSpec> specs(2);
  specs[0].name = "office";
  specs[0].num_aps = 28;
  specs[0].path_length_m = 20;
  specs[0].seed = 424;
  specs[1].name = "lab";
  specs[1].num_aps = 20;
  specs[1].path_length_m = 14;
  specs[1].seed = 527;
  const auto fleet = sim::make_fleet(specs, 21);
  const sim::Scenario& office = fleet[0];
  const sim::Scenario& lab = fleet[1];

  // Train CALLOC for the office (the venue under attack).
  core::CallocConfig ccfg;
  ccfg.train.max_epochs_per_lesson = 8;
  core::Calloc office_model(ccfg);
  std::printf("training CALLOC on %s: %zu fingerprints (%zu RPs, %zu APs)...\n",
              office.building_spec.name.c_str(), office.train.num_samples(),
              office.train.num_rps(), office.train.num_aps());
  office_model.fit(office.train);
  const auto weights =
      (std::filesystem::temp_directory_path() / "serve_demo_weights.bin")
          .string();
  office_model.save_weights(weights);

  // -- Deployment: registry of tenants, published onto ONE shared pool ----
  // Screens calibrate on each venue's clean fleet capture (the online
  // distribution — survey-only calibration would flag legitimate drift).
  const serve::TenantKey office_key{"office", 0, "OP3"};
  const serve::TenantKey lab_key{"lab", 0, "OP3"};
  serve::ModelRegistry registry;
  auto office_spec = [&] {
    serve::TenantSpec spec;
    spec.factory = [&] {
      auto replica = std::make_unique<core::Calloc>(ccfg);
      replica->load_weights(weights, office.train);
      return replica;
    };
    spec.num_aps = office.train.num_aps();
    spec.anchors = office_model.model().anchor_matrix();
    spec.service.num_workers = 3;  // replica slots on the shared pool
    spec.service.max_batch = 16;
    spec.service.queue_capacity = 256;
    spec.service.cache_capacity = 128;
    spec.service.cache_audit_rate = 0.05;
    spec.service.screening = serve::calibrate_thresholds(
        spec.anchors, sim::merged_device_capture(office).normalized(), 95.0,
        3.0);
    // Sustained screening-distance drift flushes this shard's cache.
    spec.service.drift.window = 256;
    spec.service.drift.slope_factor = 2.0;
    // Admission quota: a compromised burst is shed at the door instead of
    // starving the lab's share of the pool.
    spec.service.quota.rate_per_s = 5000.0;
    spec.service.quota.burst = 512.0;
    return spec;
  };
  {
    serve::TenantSpec spec = office_spec();
    std::printf("office screen: flag > %.4f, reject > %.4f (RMS/AP); "
                "quota %.0f req/s (burst %.0f)\n",
                spec.service.screening.flag_distance,
                spec.service.screening.reject_distance,
                spec.service.quota.rate_per_s, spec.service.quota.burst);
    registry.register_tenant(office_key, std::move(spec));
  }
  {
    serve::TenantSpec spec;
    spec.factory = [&] {
      auto model = std::make_unique<baselines::Knn>(3);
      model->fit(lab.train);
      return model;
    };
    spec.num_aps = lab.train.num_aps();
    spec.anchors = serve::anchor_database_from(lab.train);
    spec.service.num_workers = 1;
    spec.service.cache_capacity = 64;
    spec.service.screening = serve::calibrate_thresholds(
        spec.anchors, sim::merged_device_capture(lab).normalized(), 95.0, 3.0);
    registry.register_tenant(lab_key, std::move(spec));
  }
  registry.set_profile_fallbacks({"OP3"});

  // -- Pre-craft the adversarial share of office traffic ------------------
  attacks::AttackConfig atk;
  atk.epsilon = 0.3;
  atk.phi_percent = 80.0;
  atk.num_steps = 8;
  std::vector<Tensor> office_clean;
  std::vector<Tensor> office_attacked;
  for (const auto& test : office.device_tests) {
    office_clean.push_back(test.normalized());
    office_attacked.push_back(
        attacks::pgd_attack(*office_model.gradient_source(),
                            office_clean.back(), test.labels(), atk));
  }

  // -- Online phase: the engine starts now (post-training, post-attack-
  // crafting, so idle time does not dilute the telemetry clock).
  serve::EngineConfig engine_cfg;
  engine_cfg.pool_size = 4;  // for the WHOLE fleet, not per tenant
  serve::ServeEngine engine(registry.publish(), engine_cfg);
  engine.reset_telemetry_clocks();
  std::printf("engine up: %zu tenants share a pool of %zu threads "
              "(epoch %llu)\n",
              engine.num_tenants(), engine.pool_size(),
              static_cast<unsigned long long>(engine.snapshot()->epoch()));

  constexpr std::size_t kRequestsPerDevice = 120;
  struct Sent {
    std::size_t true_rp;
    bool attacked;
    serve::EngineSubmission sub;
  };

  // One client thread per (venue, device). Clients identify themselves by
  // their actual device acronym; only OP3 tenants exist, so every
  // non-OP3 profile resolves through the fallback chain.
  struct Client {
    const sim::Scenario* venue;
    std::size_t device;
    bool compromised;
  };
  std::vector<Client> clients;
  for (std::size_t d = 0; d < office.device_tests.size(); ++d)
    clients.push_back(
        {&office, d, d >= office.device_tests.size() - 2});  // last two
  for (std::size_t d = 0; d < lab.device_tests.size(); ++d)
    clients.push_back({&lab, d, false});
  // Pre-normalised request pools per client (clean, and PGD for the
  // compromised office devices).
  std::vector<const Tensor*> clean_pool(clients.size());
  std::vector<const Tensor*> attack_pool(clients.size(), nullptr);
  std::vector<Tensor> lab_clean;
  for (const auto& test : lab.device_tests)
    lab_clean.push_back(test.normalized());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const Client& cl = clients[c];
    if (cl.venue == &office) {
      clean_pool[c] = &office_clean[cl.device];
      attack_pool[c] = &office_attacked[cl.device];
    } else {
      clean_pool[c] = &lab_clean[cl.device];
    }
  }

  std::vector<std::vector<Sent>> logs(clients.size());
  std::vector<std::size_t> denials(clients.size(), 0);
  std::vector<std::thread> threads;
  // Distinct base seed from EngineConfig::seed (2026): client streams
  // must not collide with the workers' audit streams (rng.hpp contract).
  Rng fleet_rng(909);
  for (std::size_t c = 0; c < clients.size(); ++c) {
    Rng rng = fleet_rng.fork(c + 1);  // private per-thread stream
    threads.emplace_back([&, c, rng]() mutable {
      const Client& cl = clients[c];
      const auto labels = cl.venue->device_tests[cl.device].labels();
      const serve::TenantKey tenant{cl.venue->building_spec.name, 0,
                                    cl.venue->device_names[cl.device]};
      std::size_t row = rng.uniform_index(labels.size());
      for (std::size_t i = 0; i < kRequestsPerDevice; ++i) {
        // A stationary device re-scans its spot more often than it moves.
        if (rng.uniform() < 0.4) row = rng.uniform_index(labels.size());
        const bool attack = cl.compromised && rng.bernoulli(0.4);
        const Tensor& pool = attack ? *attack_pool[c] : *clean_pool[c];
        const auto fp = pool.row(row);
        logs[c].push_back(
            {labels[row], attack,
             submit_blocking(engine, tenant, {fp.begin(), fp.end()},
                             &denials[c])});
      }
    });
  }
  for (auto& t : threads) t.join();

  // A misconfigured client: unknown building, deterministic typed reject.
  const auto fp0 = office_clean[0].row(0);
  auto stray = engine.submit({"warehouse", 0, "OP3"},
                             {fp0.begin(), fp0.end()});
  std::printf("\nstray request to unknown venue 'warehouse': admission=%s, "
              "route=%s, localized=%s\n",
              serve::to_string(stray.admission).c_str(),
              serve::to_string(stray.decision.status).c_str(),
              stray.result.get().localized ? "yes" : "no");

  // -- Hot reload mid-traffic ---------------------------------------------
  // The office model is "retrained" (same weights artefact here) and goes
  // live with a publish + RCU deploy: no drain, no dropped requests, and
  // ONLY the office cache/drift baseline is flushed — the lab keeps
  // serving from its warm cache.
  const auto lru_size = [&engine](const serve::TenantKey& key) {
    for (const auto& t : engine.stats().per_tenant)
      if (t.tenant == key) return t.lru_size;
    return std::size_t{0};
  };
  const std::size_t lab_cache_before = lru_size(lab_key);
  registry.reload_tenant(office_key, office_spec());
  engine.deploy(registry.publish());
  std::printf("\nhot reload: office model redeployed mid-traffic (epoch "
              "%llu); office cache flushed to %zu entries, lab cache kept "
              "%zu/%zu\n",
              static_cast<unsigned long long>(engine.snapshot()->epoch()),
              lru_size(office_key), lru_size(lab_key), lab_cache_before);
  // A short post-reload wave: the fresh deployment serves immediately.
  std::size_t post_reload_ok = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const auto fp = office_clean[0].row(i % office_clean[0].rows());
    auto sub = submit_blocking(engine, office_key,
                               {fp.begin(), fp.end()}, nullptr);
    if (sub.result.get().localized) ++post_reload_ok;
  }
  std::printf("post-reload wave: %zu/32 office requests localized on the "
              "new deployment\n",
              post_reload_ok);

  // -- Per-client report ---------------------------------------------------
  TextTable table({"venue", "device", "route", "traffic", "flagged",
                   "rejected", "cache", "denied", "clean err(m)", "p@clean"});
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const Client& cl = clients[c];
    std::size_t flagged = 0;
    std::size_t rejected = 0;
    std::size_t cached = 0;
    std::size_t clean_n = 0;
    std::size_t clean_correct = 0;
    double clean_err = 0.0;
    std::string route;
    const auto& rps = cl.venue->device_tests[cl.device].rp_positions();
    for (auto& s : logs[c]) {
      route = serve::to_string(s.sub.decision.status);
      const auto r = s.sub.result.get();
      if (r.verdict == serve::Verdict::Flag) ++flagged;
      if (r.verdict == serve::Verdict::Reject) ++rejected;
      if (r.from_cache) ++cached;
      if (!s.attacked && r.localized) {
        ++clean_n;
        clean_err += data::distance_m(rps[r.rp], rps[s.true_rp]);
        if (r.rp == s.true_rp) ++clean_correct;
      }
    }
    char err[32];
    char acc[32];
    std::snprintf(err, sizeof(err), "%.2f",
                  clean_n > 0 ? clean_err / static_cast<double>(clean_n)
                              : 0.0);
    std::snprintf(acc, sizeof(acc), "%.0f%%",
                  clean_n > 0 ? 100.0 * static_cast<double>(clean_correct) /
                                    static_cast<double>(clean_n)
                              : 0.0);
    table.add_row({cl.venue->building_spec.name,
                   cl.venue->device_names[cl.device], route,
                   cl.compromised ? "40% PGD" : "clean",
                   std::to_string(flagged), std::to_string(rejected),
                   std::to_string(cached), std::to_string(denials[c]), err,
                   acc});
  }
  const auto stats = engine.stats();
  engine.shutdown();
  std::printf("\n%zu clients x %zu requests across %zu venues (eps=%.1f, "
              "phi=%.0f%%)\n%s\n",
              clients.size(), kRequestsPerDevice, fleet.size(), atk.epsilon,
              atk.phi_percent, table.str().c_str());

  // -- Per-tenant screening-work telemetry --------------------------------
  const auto snap = engine.snapshot();
  TextTable screen_work({"tenant", "anchors", "screened", "scanned",
                         "mean scanned"});
  for (const auto& t : stats.per_tenant) {
    char mean[32];
    std::snprintf(mean, sizeof(mean), "%.1f", t.stats.mean_anchors_scanned);
    screen_work.add_row(
        {t.tenant.str(),
         std::to_string(snap->find(t.tenant)->screen.num_anchors()),
         std::to_string(t.stats.screened),
         std::to_string(t.stats.anchors_scanned), mean});
  }
  std::printf("per-tenant screening work (each request scans only its "
              "routed shard's anchors)\n%s\n",
              screen_work.str().c_str());

  std::printf("\nfleet telemetry\n---------------\n%s\n",
              stats.str().c_str());
  std::remove(weights.c_str());
  return 0;
}

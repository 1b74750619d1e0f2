// registry_chains: the schema-registry deployment the paper motivates. Set-up
// seeds a registry of schema families and composes every chain once; one op
// is one SchemaRegistry::Step(): a Zipf-drawn append or revision followed by
// the incremental recomposition of that family's chain through the prefix
// cache and the compose service (cache on, as a registry deploys it).

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/runtime/compose_service.h"
#include "src/simulator/registry.h"

namespace perfbench {
namespace {

using namespace mapcomp;

// A round runs kRegistries independent registries (seeds derived from the
// run's seed), kStepsPerRegistry steps each, every one from a freshly
// seeded state, so every round replays the same steps from the same cache
// state. Several registries per round because one registry's cost hangs on
// its few hot families, which moves a lot from seed to seed.
constexpr int kRegistries = 48;
constexpr int kStepsPerRegistry = 48;
constexpr int kStepsPerRound = kRegistries * kStepsPerRegistry;

sim::RegistryOptions MakeOptions(uint64_t seed) {
  sim::RegistryOptions options;
  options.families = 8;
  options.initial_depth = 8;
  options.max_depth = 16;
  options.schema_size = 4;
  options.seed = seed;
  return options;
}

/// One registry and the service its chains compose through.
struct Deployment {
  std::unique_ptr<runtime::ComposeService> service;
  std::unique_ptr<sim::SchemaRegistry> registry;
};

}  // namespace

void RunRegistryChains(const Args& args, Report* report) {
  // Step() waits for compositions that the service runs on pool workers;
  // each round runs them all on one CPU (see PinRound).
  PinRound(0);
  runtime::ComposeServiceOptions service_options;
  service_options.cache_capacity = 1024;
  double generate_s = 0.0;
  // Seeds registry `r` and composes each of its chains once.
  auto deploy = [&](int r, Deployment* d) {
    sim::RegistryOptions options = MakeOptions(args.seed * 64 + r);
    service_options.compose = options.compose;
    d->registry.reset();
    d->service = std::make_unique<runtime::ComposeService>(service_options);
    Clock::time_point gen_start = Clock::now();
    d->registry = std::make_unique<sim::SchemaRegistry>(options,
                                                        d->service.get());
    generate_s += SecondsSince(gen_start);
    for (int f = 0; f < d->registry->families(); ++f) {
      Result<runtime::ChainResult> res = d->registry->ComposeFamily(f);
      if (!res.ok()) {
        report->Fail("registry_chains: seeding family " + std::to_string(f) +
                     " failed: " + res.status().ToString());
        return false;
      }
    }
    return true;
  };

  // ---- set-up: the first round's registries ----
  std::vector<Deployment> deployments(kRegistries);
  for (int r = 0; r < kRegistries; ++r) {
    if (!deploy(r, &deployments[r])) return;
  }
  double setup_s = SecondsSince(ProcessStart());
  const double setup_generate_s = generate_s;

  // ---- measurement ----
  OpTimes step_times(kStepsPerRound);
  // Per registry: family -> fingerprint of its last Step result.
  std::vector<std::map<int, std::string>> last_fingerprint(kRegistries);
  uint64_t steps = 0, prefix_hits = 0, compositions = 0;
  uint64_t service_hits = 0, service_misses = 0;
  uint64_t chain_bytes_peak = 0, service_bytes_peak = 0;
  Clock::time_point measure_start = Clock::now();
  int round = 0;
  while (round == 0 || SecondsSince(measure_start) < args.seconds) {
    PinRound(round);
    for (int r = 0; r < kRegistries; ++r) {
      Deployment& d = deployments[r];
      if (round > 0 && !deploy(r, &d)) return;
      runtime::ServiceStats service_before = d.service->Stats();
      last_fingerprint[r].clear();
      for (int i = 0; i < kStepsPerRegistry; ++i) {
        int op = r * kStepsPerRegistry + i;
        uint64_t op_id = static_cast<uint64_t>(round) * kStepsPerRound + op;
        report->Attempt();
        double step_s = 0.0;
        Result<runtime::ChainResult> res = [&] {
          ScopedCall call(&step_s, "runtime.Step", op_id);
          return d.registry->Step();
        }();
        step_times.Record(op, step_s);
        if (!res.ok()) {
          report->Fail("registry_chains: step failed: " +
                       res.status().ToString());
          continue;
        }
        const runtime::ChainResult& chain = res.value();
        const sim::RegistryEdit& edit = d.registry->last_edit();
        // Every link before the last is either reused from the prefix
        // cache or composed now; a planted fault miscounts one composition.
        int composed = chain.steps_composed + (args.plant_fault ? 1 : 0);
        if (chain.depth != d.registry->ChainDepth(edit.family) ||
            chain.prefix_hits + composed != chain.depth - 1) {
          report->Fail("registry_chains: step " + std::to_string(op_id) +
                       ": prefix hits " + std::to_string(chain.prefix_hits) +
                       " + compositions " + std::to_string(composed) +
                       " != depth " + std::to_string(chain.depth) + " - 1");
        }
        last_fingerprint[r][edit.family] = chain.fingerprint;
        if (round == 0) {
          ++steps;
          prefix_hits += static_cast<uint64_t>(chain.prefix_hits);
          compositions += static_cast<uint64_t>(chain.steps_composed);
        }
      }
      if (round == 0) {
        runtime::ServiceStats service_after = d.service->Stats();
        runtime::ChainStats chain_stats = d.registry->chain_composer()->Stats();
        service_hits += service_after.hits - service_before.hits;
        service_misses += service_after.misses - service_before.misses;
        chain_bytes_peak = std::max(chain_bytes_peak,
                                    chain_stats.cache_bytes_peak);
        service_bytes_peak = std::max(service_bytes_peak,
                                      service_after.cache_bytes_peak);
      }
    }
    ++round;
  }

  // ---- oracle: warm recomposition must equal a cold one, family by family
  for (int r = 0; r < kRegistries; ++r) {
    sim::SchemaRegistry& registry = *deployments[r].registry;
    for (int f = 0; f < registry.families(); ++f) {
      Result<runtime::ChainResult> warm = registry.ComposeFamily(f);
      Result<runtime::ChainResult> cold = registry.ComposeFamilyCold(f);
      if (!warm.ok() || !cold.ok()) {
        report->Fail("registry_chains: final recomposition of family " +
                     std::to_string(f) + " failed");
        continue;
      }
      auto last = last_fingerprint[r].find(f);
      if (warm->fingerprint != cold->fingerprint ||
          (last != last_fingerprint[r].end() &&
           last->second != cold->fingerprint)) {
        report->Fail("registry_chains: family " + std::to_string(f) +
                     " warm fingerprint differs from ComposeFamilyCold");
      }
    }
  }

  std::vector<double> best_us = step_times.BestUs();
  double ops = static_cast<double>(steps == 0 ? 1 : steps);
  report->Add("setup_s", setup_s);
  report->Add("ops_per_s", step_times.OpsPerSecond());
  report->Add("peak_rss_mb", PeakRssMb());
  report->Add("latency_p50_us", Quantile(&best_us, 0.5));

  report->Add("trace.ops_per_s", step_times.OpsPerSecond());
  report->Add("simulator.generate_s", setup_generate_s);
  report->Add("runtime.step_p50_us", Quantile(&best_us, 0.5));
  report->Add("runtime.compositions_per_op", compositions / ops);
  report->Add("runtime.prefix_hits", prefix_hits / ops);
  report->Add("runtime.service_hits", service_hits / ops);
  report->Add("runtime.service_misses", service_misses / ops);
  report->Add("runtime.chain_cache_bytes_peak",
              static_cast<double>(chain_bytes_peak));
  report->Add("runtime.service_cache_bytes_peak",
              static_cast<double>(service_bytes_peak));
}

}  // namespace perfbench

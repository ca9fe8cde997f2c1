// perfbench: runs one workload of the simulator benchmark for a
// fixed host-time budget and prints its metrics.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                         [--fleet-spec FILE] [--quick] [--self-test]
//
// The program repeats the workload (same seed, fresh construction each
// time) until S host seconds have passed, then reports medians over the
// repetitions of throughput in reference seconds (hostspeed.hpp) and of
// set-up time. With --trace 0 it prints the end-to-end metrics from
// untraced repetitions; with --trace 1 it alternates untraced and traced
// repetitions and prints the per-layer metrics of the traced ones. Every
// repetition is checked (packet conservation or the fleet's conformance
// harness) and every repetition, traced or not, must reproduce the
// first one's model outputs exactly; a repetition that fails counts as
// a failed operation. The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// --quick shrinks the simulated input to milliseconds (tests only);
// --self-test runs the checkers against perturbed ledgers and exits
// nonzero if either accepts one.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "checks.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double median_of(const std::vector<RepResult>& reps, F f) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const RepResult& r : reps) v.push_back(f(r));
  return median(v);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }
double count(std::uint64_t v) { return static_cast<double>(v); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double pkts_per_s(const RepResult& r) {
  return ratio(static_cast<double>(r.offered), r.run_s);
}

double pkts_per_ref_s(const RepResult& r) {
  return ratio(static_cast<double>(r.offered), r.ref_run_s);
}

/// Throughput of the whole measurement in host seconds: every
/// repetition's offered packets over their summed run-phase host time.
double aggregate_pkts_per_s(const std::vector<RepResult>& reps) {
  double packets = 0.0;
  double host_s = 0.0;
  for (const RepResult& r : reps) {
    packets += static_cast<double>(r.offered);
    host_s += r.run_s;
  }
  return ratio(packets, host_s);
}

/// End-to-end metrics: host metrics over the untraced repetitions,
/// model metrics from the first (all are identical).
std::vector<Metric> end_to_end(const std::vector<RepResult>& reps) {
  const ModelOutputs& m = reps.front().model;
  const double delivered = static_cast<double>(m.get("delivered"));
  std::vector<Metric> out = {
      {"sim_pkts_per_ref_s", median_of(reps, pkts_per_ref_s), "1/s"},
      {"sim_pkts_per_s", aggregate_pkts_per_s(reps), "1/s"},
      {"host_probe_ms",
       1e3 * median_of(reps, [](const RepResult& r) { return r.probe_s; }),
       "ms"},
      {"setup_s", median_of(reps, [](const RepResult& r) { return r.setup_s; }),
       "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"sim_delivered_ratio",
       ratio(delivered, static_cast<double>(m.get("offered"))), "ratio"},
      {"sim_mean_us", static_cast<double>(m.get("latency_mean_ps")) / 1e6, "us"},
      {"sim_p50_us", static_cast<double>(m.get("latency_p50_ns")) / 1e3, "us"},
      {"sim_p99_us", static_cast<double>(m.get("latency_p99_ns")) / 1e3, "us"},
      {"sim_latency_samples", static_cast<double>(m.get("latency_samples")),
       "count"},
      {"sim_in_order_ratio",
       ratio(static_cast<double>(m.get("delivered_in_order")), delivered),
       "ratio"},
      {"sim_disorder_rate",
       ratio(static_cast<double>(m.get("delivered_disordered")), delivered),
       "ratio"},
      {"sim_order_violations", static_cast<double>(m.get("order_violations")),
       "count"},
      {"slo_availability", reps.front().slo_availability, "ratio"},
      {"slo_blackhole_p99_ms",
       static_cast<double>(m.get("blackhole_p99_ns")) / 1e6, "ms"},
  };
  return out;
}

/// Per-layer metrics. Host times are medians over the traced
/// repetitions; hook counts come from the first traced repetition and
/// the workload's deterministic counts from its first untraced one.
/// `reference` holds untraced repetitions of what was traced (the
/// workload itself, or the fleet's AZ replica).
std::vector<Metric> per_layer(const RunConfig& cfg,
                              const std::vector<RepResult>& untraced,
                              const std::vector<RepResult>& reference,
                              const std::vector<RepResult>& traced) {
  const ModelOutputs& m = untraced.front().model;
  const double offered = static_cast<double>(m.get("offered"));
  const double delivered = static_cast<double>(m.get("delivered"));
  const double traced_offered =
      static_cast<double>(traced.front().model.get("offered"));
  const auto layer = [&traced](auto f) {
    return median_of(traced, [&f](const RepResult& r) {
      return r.layers ? f(*r.layers) : 0.0;
    });
  };

  std::vector<Metric> out;
  const auto add = [&out](const char* name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };
  add("traffic.emit_ns",
      layer([](const LayerTimes& l) { return ratio(l.emit_ns, count(l.emits)); }),
      "ns");
  add("sim.events_per_pkt", ratio(count(m.get("events")), offered), "count");
  add("sim.loop_ns_per_event",
      layer([](const LayerTimes& l) { return ratio(l.loop_ns, count(l.events)); }),
      "ns");
  add("nic.ingress_ns_per_pkt", layer([](const LayerTimes& l) {
        return ratio(l.pump_ns - l.emit_ns, count(l.emits));
      }),
      "ns");
  const LayerTimes first = traced.front().layers.value_or(LayerTimes{});
  add("nic.pkts_per_ingress_call",
      ratio(count(first.emits), count(first.pump_events)), "count");
  add("nic.egress_ns_per_pkt", layer([](const LayerTimes& l) {
        return ratio(l.egress_ns, count(l.writebacks));
      }),
      "ns");
  add("nic.reorder_timeouts_per_mpkt",
      ratio(count(first.reorder_timeouts) * 1e6, traced_offered), "count");
  add("nic.best_effort_per_mpkt",
      ratio(count(first.best_effort) * 1e6, traced_offered), "count");
  add("gateway.deliver_ns_per_pkt", layer([](const LayerTimes& l) {
        return ratio(l.deliver_ns, count(l.data_rx));
      }),
      "ns");
  add("gateway.emit_ns_per_pkt", layer([](const LayerTimes& l) {
        return ratio(l.pod_emit_ns, count(l.forwards + l.pod_drops));
      }),
      "ns");
  const double rx = count(m.get("pod_processed") + m.get("pod_dropped_ring"));
  add("gateway.ring_drop_ratio", ratio(count(m.get("pod_dropped_ring")), rx),
      "ratio");
  add("gateway.core_util_max",
      ratio(count(m.get("core_busy_max_ns")), count(m.get("horizon_ns"))),
      "ratio");
  add("service.ns_per_pkt",
      service_replay_ns_per_pkt(traced_config(cfg),
                                traced.front().model.get("pod_processed")),
      "ns");
  // FlowTableStats::inserts counts successful inserts only.
  add("tables.conntrack_insert_fail_ratio",
      ratio(count(m.get("conntrack_insert_failures")),
            count(m.get("conntrack_inserts") +
                  m.get("conntrack_insert_failures"))),
      "ratio");
  add("tables.conntrack_hit_ratio",
      ratio(count(m.get("conntrack_hits")),
            count(m.get("conntrack_hits") + m.get("conntrack_misses"))),
      "ratio");
  const double fpga = count(m.get("tier_fpga_hits"));
  const double dpu = count(m.get("tier_dpu_hits"));
  add("dpu.fpga_share", ratio(fpga, delivered), "ratio");
  add("dpu.dpu_share", ratio(dpu, delivered), "ratio");
  add("dpu.cpu_share", ratio(delivered - fpga - dpu, delivered), "ratio");
  add("fleet.collect_s",
      median_of(untraced, [](const RepResult& r) { return r.collect_s; }), "s");
  double az_max = 0.0;
  double az_sum = 0.0;
  std::size_t azs = 0;
  for (const auto& [name, v] : m.counts) {
    if (name.rfind("az", 0) == 0 && name.size() > 7 &&
        name.compare(name.size() - 7, 7, "_events") == 0) {
      az_max = std::max(az_max, count(v));
      az_sum += count(v);
      ++azs;
    }
  }
  add("fleet.az_event_imbalance",
      azs != 0 ? ratio(az_max, az_sum / static_cast<double>(azs)) : 1.0,
      "ratio");
  add("trace.overhead_ratio",
      ratio(aggregate_pkts_per_s(reference), aggregate_pkts_per_s(traced)),
      "ratio");
  add("trace.unclassified_ns_per_event", layer([](const LayerTimes& l) {
        return ratio(l.unclassified_ns, count(l.events));
      }),
      "ns");
  return out;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// The result line, values with every digit: the metrics named in
/// `names`, or all of them when `names` is null.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics,
                  const std::vector<const char*>* names) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (names != nullptr &&
        std::find(names->begin(), names->end(), m.name) == names->end()) {
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += std::string(first ? "" : ", ") + "\"" + m.name +
           "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// End-to-end metrics in the result line (BENCHMARK.json); the others
// are printed only. The raw sim_pkts_per_s reads the host's speed phase
// as much as the code (hostspeed.hpp), so the result line carries
// sim_pkts_per_ref_s. The latency quantiles are LogHistogram bucket
// bounds (~3% apart) and read the same for every seed on two workloads,
// so the result line carries the exact mean; p50/p99 are printed above.
const std::vector<const char*> kEndToEnd = {
    "sim_pkts_per_ref_s",  "setup_s",            "peak_rss_mb",
    "sim_delivered_ratio", "sim_in_order_ratio", "sim_mean_us",
    "slo_availability",
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload pod_saturated|tier_overload|"
               "fleet_diurnal --seed N --seconds S --trace 0|1 "
               "[--fleet-spec FILE] [--quick] [--self-test]\n");
  return 2;
}

int run(int argc, char** argv) {
  RunConfig cfg;
  std::string workload;
  double budget_s = -1.0;
  int trace = -1;
  bool self = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      budget_s = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--fleet-spec" && has_value) {
      cfg.fleet_spec_path = argv[++i];
    } else if (a == "--quick") {
      cfg.quick = true;
    } else if (a == "--self-test") {
      self = true;
    } else {
      return usage();
    }
  }

  if (self) {
    RunConfig quick = cfg;
    quick.workload = Workload::kTierOverload;
    quick.quick = true;
    const RepResult r = run_rep(quick, /*traced=*/false);
    const int failures = self_test(r.at_horizon, r.drained, r.model);
    std::printf("self-test: %d checker failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }

  const auto w = parse_workload(workload);
  if (!w || !have_seed || budget_s <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  cfg.workload = *w;
  if (cfg.workload == Workload::kFleetDiurnal && cfg.fleet_spec_path.empty()) {
    return usage();
  }

  // Repeat until the budget is spent; at least three untraced
  // repetitions so the medians and the identity check have company.
  const auto start = Clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const RunConfig traced_cfg = traced_config(cfg);
  const bool replica = traced_cfg.workload != cfg.workload;
  std::vector<RepResult> untraced;
  std::vector<RepResult> replica_untraced;  // fleet: the AZ replica
  std::vector<RepResult> traced;
  do {
    untraced.push_back(run_rep(cfg, false));
    if (trace == 1) {
      if (replica) replica_untraced.push_back(run_rep(traced_cfg, false));
      traced.push_back(run_rep(traced_cfg, true));
    }
  } while (elapsed() < budget_s || untraced.size() < (trace == 1 ? 1u : 3u));
  const std::vector<RepResult>& reference = replica ? replica_untraced : untraced;

  std::size_t failed = 0;
  const auto check = [&failed](const RepResult& r, const RepResult& first,
                               const char* kind, std::size_t i) {
    std::string why = r.failure;
    if (why.empty()) {
      const auto diff = model_differences(first.model, r.model);
      if (!diff.empty()) {
        why = "model outputs differ from the first run:";
        for (const std::string& d : diff) why += " " + d;
      }
    }
    if (!why.empty()) {
      ++failed;
      std::printf("FAILED %s repetition %zu: %s\n", kind, i, why.c_str());
    }
  };
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    check(untraced[i], untraced.front(), "untraced", i);
  }
  for (std::size_t i = 0; i < replica_untraced.size(); ++i) {
    check(replica_untraced[i], reference.front(), "replica", i);
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    check(traced[i], reference.front(), "traced", i);
  }

  const std::size_t attempted =
      untraced.size() + replica_untraced.size() + traced.size();
  std::printf("workload %s seed %llu: %zu untraced + %zu replica + %zu "
              "traced repetitions, %zu failed\n",
              workload_name(cfg.workload),
              static_cast<unsigned long long>(cfg.seed), untraced.size(),
              replica_untraced.size(), traced.size(), failed);
  std::printf("model %s\n", untraced.front().model.to_json().c_str());
  std::printf("sim_pkts_per_s per untraced repetition:");
  for (const RepResult& r : untraced) std::printf(" %.0f", pkts_per_s(r));
  std::printf("\nsim_pkts_per_ref_s per untraced repetition:");
  for (const RepResult& r : untraced) std::printf(" %.0f", pkts_per_ref_s(r));
  std::printf("\nsetup_s per untraced repetition:");
  for (const RepResult& r : untraced) std::printf(" %.4f", r.setup_s);
  std::printf("\n");
  const std::vector<Metric> e2e = end_to_end(untraced);
  print_metrics("end-to-end (untraced):", e2e);
  if (trace == 0) {
    print_result(failed == 0, attempted, failed, e2e, &kEndToEnd);
    return 0;
  }
  if (traced.front().layers) {
    const LayerTimes& l = *traced.front().layers;
    std::printf("hooks (first traced repetition): events %llu, pump events "
                "%llu, emits %llu, data_rx %llu, forwards %llu, pod drops "
                "%llu, write-backs %llu, reorder timeouts %llu, best-effort "
                "%llu, limiter admits %llu, unclassified events %llu\n",
                static_cast<unsigned long long>(l.events),
                static_cast<unsigned long long>(l.pump_events),
                static_cast<unsigned long long>(l.emits),
                static_cast<unsigned long long>(l.data_rx),
                static_cast<unsigned long long>(l.forwards),
                static_cast<unsigned long long>(l.pod_drops),
                static_cast<unsigned long long>(l.writebacks),
                static_cast<unsigned long long>(l.reorder_timeouts),
                static_cast<unsigned long long>(l.best_effort),
                static_cast<unsigned long long>(l.limiter_admits),
                static_cast<unsigned long long>(l.unclassified_events));
  }
  if (replica) {
    std::printf("traced %s model %s\n", workload_name(traced_cfg.workload),
                traced.front().model.to_json().c_str());
  }
  const std::vector<Metric> layers =
      per_layer(cfg, untraced, reference, traced);
  print_metrics("per-layer (traced):", layers);
  print_result(failed == 0, attempted, failed, layers, nullptr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its default. Left dynamic, it rises
  // after the first repetition frees its large tables, later repetitions
  // are built in already-faulted heap memory, and set-up time falls
  // about 4x from the first repetition to the fifth. Pinned, every
  // repetition pays the cold set-up that a single run of the simulator
  // pays.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

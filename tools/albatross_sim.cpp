// albatross_sim — command-line experiment runner. Stands up one
// simulated Albatross GW pod, drives a configurable workload, and
// prints an operator-style report plus (optionally) the full metrics
// exposition. The CLI exists so experiments beyond the canned benches
// are one shell line, not a new C++ file.
//
//   albatross_sim [--service vpc|internet|idc|cloud] [--cores N]
//                 [--mode plb|rss] [--rate-mpps R] [--flows N]
//                 [--duration-ms T] [--hitter-mpps R] [--drop-flag 0|1]
//                 [--offload] [--metrics]
//   albatross_sim --config experiment.json    (see core/config.hpp schema)
//   albatross_sim fuzz [--seed N] [--seeds K] [--ticks T]
//                 [--chaos none|benign|stall] [--dump file.json]
//                 (randomized conformance fuzzing, docs/CONFORMANCE.md;
//                  a violating trace is shrunk and dumped, exit 1)
//   albatross_sim fuzz --replay file.json
//                 (re-runs a dumped trace deterministically)
//   albatross_sim fleet --scenario fleet.json [--out report.json]
//                 [--metrics]
//                 (see fleet/fleet_spec.hpp schema; runs a gateway
//                  fleet scenario — diurnal load, rolling upgrades,
//                  fault script — and prints the incident timelines and
//                  the availability SLO report. A chaos plan is a
//                  one-AZ spec whose faults carry "az": 0; same spec +
//                  seed => identical output.)
//
// Malformed input (bad numbers, unknown names, zero cores or flows)
// prints "error: ..." and exits 1; an unknown flag prints usage, exit 2.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include <fstream>
#include <sstream>

#include "check/fuzz.hpp"
#include "check/testseed.hpp"
#include "core/config.hpp"
#include "fleet/fleet.hpp"
#include "core/platform.hpp"
#include "core/scenario.hpp"
#include "telemetry/metrics.hpp"
#include "traffic/heavy_hitter.hpp"

using namespace albatross;

namespace {

struct Options {
  ServiceKind service = ServiceKind::kVpcVpc;
  std::uint16_t cores = 8;
  LbMode mode = LbMode::kPlb;
  double rate_mpps = 2.0;
  std::size_t flows = 5000;
  NanoTime duration = 100 * kMillisecond;
  double hitter_mpps = 0.0;
  bool drop_flag = true;
  bool offload = false;
  bool metrics = false;
};

[[noreturn]] void usage_and_exit() {
  std::fprintf(
      stderr,
      "usage: albatross_sim [--service vpc|internet|idc|cloud] [--cores N]\n"
      "                     [--mode plb|rss] [--rate-mpps R] [--flows N]\n"
      "                     [--duration-ms T] [--hitter-mpps R]\n"
      "                     [--drop-flag 0|1] [--offload] [--metrics]\n"
      "       albatross_sim --config experiment.json\n"
      "       albatross_sim fuzz [--seed N] [--seeds K] [--ticks T]\n"
      "                     [--tier] [--chaos none|benign|stall]\n"
      "                     [--dump f.json] [--replay f.json]\n"
      "       albatross_sim fleet --scenario fleet.json [--out report.json]\n"
      "                     [--metrics]\n");
  std::exit(2);
}

/// Whole-string numeric flag values: empty input, trailing junk ("8x",
/// "abc") and out-of-range values are errors, not a silent 0.
double number_arg(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) {
    throw std::runtime_error(flag + ": not a number: '" + text + "'");
  }
  return v;
}

template <typename T>
T integer_arg(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !std::in_range<T>(v)) {
    throw std::runtime_error(flag + ": not an integer in range: '" + text +
                             "'");
  }
  return static_cast<T>(v);
}

/// Unknown flags return false (usage, exit 2); malformed values throw.
bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_and_exit();
      return argv[++i];
    };
    if (a == "--service") {
      opt.service = service_from_name(next());
    } else if (a == "--cores") {
      opt.cores = integer_arg<std::uint16_t>(a, next());
    } else if (a == "--mode") {
      opt.mode = mode_from_name(next());
    } else if (a == "--rate-mpps") {
      opt.rate_mpps = number_arg(a, next());
    } else if (a == "--flows") {
      opt.flows = integer_arg<std::size_t>(a, next());
    } else if (a == "--duration-ms") {
      // 32-bit milliseconds keep the nanosecond product in range.
      opt.duration = integer_arg<std::int32_t>(a, next()) * kMillisecond;
    } else if (a == "--hitter-mpps") {
      opt.hitter_mpps = number_arg(a, next());
    } else if (a == "--drop-flag") {
      opt.drop_flag = integer_arg<int>(a, next()) != 0;
    } else if (a == "--offload") {
      opt.offload = true;
    } else if (a == "--metrics") {
      opt.metrics = true;
    } else if (a == "--help" || a == "-h") {
      usage_and_exit();
    } else {
      return false;
    }
  }
  return true;
}

/// The whole file, or nullopt after printing "cannot open".
std::optional<std::string> read_file(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void print_fuzz_report(const check::FuzzReport& r) {
  std::printf("  packets=%llu offered=%llu delivered=%llu events=%llu "
              "ledger=%s violations=%llu\n",
              static_cast<unsigned long long>(r.packets),
              static_cast<unsigned long long>(r.offered),
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.events),
              r.ledger_checked ? "checked" : "skipped",
              static_cast<unsigned long long>(r.violations));
  for (const auto& v : r.details) {
    std::printf("  VIOLATION %s at %lldns: %s\n", v.invariant.c_str(),
                static_cast<long long>(v.at.count()), v.detail.c_str());
  }
}

int run_fuzz(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::uint64_t seeds = 1;
  std::uint64_t ticks = 10'000;
  std::size_t rx_burst = 1;
  bool with_tier = false;
  check::ChaosMode chaos = check::ChaosMode::kBenign;
  std::string dump_path;
  std::string replay_path;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fuzz: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--seed") {
      seed = integer_arg<std::uint64_t>(a, next());
    } else if (a == "--seeds") {
      seeds = integer_arg<std::uint64_t>(a, next());
    } else if (a == "--ticks") {
      ticks = integer_arg<std::uint64_t>(a, next());
    } else if (a == "--burst") {
      rx_burst = std::max<std::size_t>(1, integer_arg<std::size_t>(a, next()));
    } else if (a == "--tier") {
      with_tier = true;
    } else if (a == "--chaos") {
      const std::string v = next();
      if (v == "none") chaos = check::ChaosMode::kNone;
      else if (v == "benign") chaos = check::ChaosMode::kBenign;
      else if (v == "stall") chaos = check::ChaosMode::kReorderStall;
      else {
        std::fprintf(stderr, "fuzz: unknown --chaos %s\n", v.c_str());
        return 2;
      }
    } else if (a == "--dump") {
      dump_path = next();
    } else if (a == "--replay") {
      replay_path = next();
    } else {
      std::fprintf(
          stderr,
          "usage: albatross_sim fuzz [--seed N] [--seeds K] [--ticks T]\n"
          "                          [--burst B] [--tier]\n"
          "                          [--chaos none|benign|stall]\n"
          "                          [--dump file.json] [--replay file.json]\n");
      return 2;
    }
  }

  if (!replay_path.empty()) {
    const auto text = read_file(replay_path.c_str());
    if (!text) return 1;
    auto trace = check::trace_from_json(*text);
    if (!trace) {
      std::fprintf(stderr, "fuzz: %s is not a valid trace\n",
                   replay_path.c_str());
      return 1;
    }
    if (rx_burst != 1) trace->scenario.rx_burst = rx_burst;
    const auto report = check::run_trace(*trace);
    std::printf("fuzz replay %s: seed=%llu ops=%zu %s\n",
                replay_path.c_str(),
                static_cast<unsigned long long>(trace->scenario.seed),
                trace->ops.size(),
                report.violated() ? "VIOLATED" : "clean");
    print_fuzz_report(report);
    return report.violated() ? 1 : 0;
  }

  for (std::uint64_t s = seed; s < seed + seeds; ++s) {
    const auto outcome = check::fuzz_one(s, ticks, chaos, rx_burst, with_tier);
    if (!outcome.report.violated()) {
      std::printf("fuzz seed=%llu ticks=%llu: clean (%llu packets, %llu "
                  "events)\n",
                  static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>(ticks),
                  static_cast<unsigned long long>(outcome.report.packets),
                  static_cast<unsigned long long>(outcome.report.events));
      if (with_tier) {
        std::printf("  tier: fpga=%llu dpu=%llu miss=%llu migrations=%llu "
                    "forced=%llu\n",
                    static_cast<unsigned long long>(
                        outcome.report.tier_fpga_hits),
                    static_cast<unsigned long long>(
                        outcome.report.tier_dpu_hits),
                    static_cast<unsigned long long>(outcome.report.tier_misses),
                    static_cast<unsigned long long>(
                        outcome.report.tier_migrations),
                    static_cast<unsigned long long>(
                        outcome.report.tier_forced_ops));
      }
      continue;
    }
    std::printf("fuzz seed=%llu ticks=%llu: VIOLATED (shrunk to %zu ops)\n",
                static_cast<unsigned long long>(s),
                static_cast<unsigned long long>(ticks),
                outcome.trace.ops.size());
    print_fuzz_report(outcome.report);
    const std::string path = dump_path.empty()
                                 ? "fuzz-trace-" + std::to_string(s) + ".json"
                                 : dump_path;
    std::ofstream out(path);
    out << check::trace_to_json(outcome.trace) << "\n";
    std::printf("  reproducer dumped to %s (replay with: albatross_sim fuzz "
                "--replay %s)\n",
                path.c_str(), path.c_str());
    return 1;
  }
  return 0;
}

int run_fleet_cmd(int argc, char** argv) {
  const char* scenario_path = nullptr;
  std::string out_path;
  bool metrics = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--scenario" && i + 1 < argc) {
      scenario_path = argv[++i];
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--metrics") {
      metrics = true;
    } else {
      std::fprintf(stderr,
                   "usage: albatross_sim fleet --scenario fleet.json "
                   "[--out report.json] [--metrics]\n");
      return 2;
    }
  }
  if (scenario_path == nullptr) {
    std::fprintf(stderr,
                 "usage: albatross_sim fleet --scenario fleet.json "
                 "[--out report.json] [--metrics]\n");
    return 2;
  }
  const auto text = read_file(scenario_path);
  if (!text) return 1;

  fleet::FleetSpec spec = fleet::FleetSpec::from_json_text(*text);
  spec.seed = check::test_seed(spec.seed);
  fleet::FleetEngine engine(spec);
  engine.run();
  const auto result = engine.collect();
  std::printf("%s", result.report_text().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << result.slo.to_json().dump() << "\n";
    // stderr: stdout stays byte-identical across same-seed runs even
    // when the two runs write to different --out paths.
    std::fprintf(stderr, "SLO report written to %s\n", out_path.c_str());
  }
  if (metrics) {
    MetricsRegistry registry;
    register_fleet_metrics(registry, engine);
    std::printf("\n%s", registry.expose().c_str());
  }
  return result.conformance_violations == 0 ? 0 : 1;
}

int run_config(const char* path) {
  const auto text = read_file(path);
  if (!text) return 1;
  const auto result = run_experiment_from_json(*text);
  for (std::size_t i = 0; i < result.pods.size(); ++i) {
    const auto& r = result.pods[i];
    std::printf("pod %zu: delivered %.3f Mpps (loss %.3f%%), mean "
                "%.1f us, p99 %.1f us, disorder %.1e\n",
                i, r.delivered_mpps, r.loss_rate * 100, r.mean_latency_us,
                r.p99_latency_us, r.disorder_rate);
  }
  return 0;
}

int run_flags(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) usage_and_exit();

  auto scenario = SinglePodScenario::make(opt.service, opt.cores, opt.mode,
                                          200, 20'000, opt.drop_flag);
  Platform& platform = *scenario.platform;
  if (opt.offload) platform.nic().enable_session_offload(scenario.pod);
  platform.enable_order_oracle(opt.flows <= 100'000);

  PoissonFlowConfig bg;
  bg.num_flows = opt.flows;
  bg.rate_pps = opt.rate_mpps * 1e6;
  platform.attach_source(std::make_unique<PoissonFlowSource>(bg),
                         scenario.pod);
  if (opt.hitter_mpps > 0.0) {
    HeavyHitterConfig hh;
    hh.flow = make_flow(0x777777, 7, 0);
    hh.profile = RateProfile{{NanoTime{0}, opt.hitter_mpps * 1e6}};
    platform.attach_source(std::make_unique<HeavyHitterSource>(hh),
                           scenario.pod);
  }

  platform.run_until(opt.duration);

  const PodTelemetry& t = platform.telemetry(scenario.pod);
  const auto r = summarize(t, opt.duration);
  std::printf("albatross_sim: %s, %u cores, %s mode, %.2f Mpps offered, "
              "%lld ms\n",
              std::string(service_name(opt.service)).c_str(), opt.cores,
              opt.mode == LbMode::kPlb ? "PLB" : "RSS", opt.rate_mpps,
              static_cast<long long>(opt.duration / kMillisecond));
  std::printf("  delivered    : %.3f Mpps (loss %.3f%%)\n", r.delivered_mpps,
              r.loss_rate * 100);
  std::printf("  latency      : mean %.1f us, p99 %.1f us\n",
              r.mean_latency_us, r.p99_latency_us);
  std::printf("  ordering     : disorder %.1e, violations %llu\n",
              r.disorder_rate,
              static_cast<unsigned long long>(t.flow_order_violations));
  const auto reorder = platform.nic().engine(scenario.pod).total_stats();
  std::printf("  reorder      : in-order %llu, best-effort %llu, HOL "
              "timeouts %llu, drop releases %llu\n",
              static_cast<unsigned long long>(reorder.in_order_tx),
              static_cast<unsigned long long>(reorder.best_effort_tx),
              static_cast<unsigned long long>(reorder.timeout_releases),
              static_cast<unsigned long long>(reorder.drop_releases));
  if (opt.offload) {
    const auto& off = platform.nic().session_offload(scenario.pod).stats();
    std::printf("  offload      : fpga hits %llu, installs %llu\n",
                static_cast<unsigned long long>(off.fast_path_hits),
                static_cast<unsigned long long>(off.installs));
  }

  if (opt.metrics) {
    MetricsRegistry registry;
    register_platform_metrics(registry, platform);
    std::printf("\n%s", registry.expose().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  try {
    // Fleet mode: gateway fleet scenario (or one-AZ chaos plan) with
    // SLO report.
    if (mode == "fleet") return run_fleet_cmd(argc, argv);
    // Fuzz mode: randomized conformance runs with invariant probes armed.
    if (mode == "fuzz") return run_fuzz(argc, argv);
    // Declarative mode: --config file.json runs a whole experiment spec.
    if (argc == 3 && mode == "--config") return run_config(argv[2]);
    return run_flags(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

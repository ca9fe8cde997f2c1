// bench_sim_throughput: hot-path throughput of the simulator itself —
// simulated packets per WALL second, not modelled Mpps. It runs the same
// saturated single-pod workload twice over the one datapath, once with an
// event-loop activation per packet (rx_burst=1, ingress_batch=1) and once
// with 32-packet batches (docs/BURST_API.md), and emits
// BENCH_sim_throughput.json for the CI bench-smoke job to diff against
// the committed baseline.
//
// Usage: bench_sim_throughput [--quick] [--json PATH]
//                             [--check-against BASELINE.json]
//                             [--max-regression FRAC]
//                             [--check-counts BASELINE.json]
//   --quick           50 ms simulated instead of 200 ms (CI smoke)
//   --json            output path (default BENCH_sim_throughput.json)
//   --check-against   committed baseline JSON; exits 1 when the burst
//                     pkts/wall-s falls more than FRAC below it
//   --max-regression  regression tolerance, default 0.20
//   --check-counts    committed baseline JSON; exits 1 unless both
//                     configurations simulate exactly its packet and
//                     event counts (deterministic, so machine-independent)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "common/json.hpp"

namespace {

using namespace albatross;

struct RunResult {
  std::uint64_t packets = 0;  ///< offered packets (every one simulated)
  std::uint64_t events = 0;   ///< event-loop activations
  double wall_seconds = 0.0;
  double pkts_per_wall_second = 0.0;
};

RunResult run_workload(std::size_t rx_burst, std::size_t ingress_batch,
                       NanoTime duration) {
  PlatformConfig pc;
  pc.tenants = 200;
  pc.routes = 20'000;
  pc.tables_data_cores = 8;
  pc.ingress_batch = ingress_batch;
  Platform platform(pc);

  GwPodConfig gp;
  gp.service = ServiceKind::kVpcVpc;
  gp.data_cores = 8;
  gp.rx_burst = rx_burst;
  const PodId pod = platform.create_pod(gp);

  // ~80% of the 8-core pod's capacity: rings stay busy so every layer
  // (pump, GOP, PLB, DMA, pod run loop, reorder, TX) is on the path.
  platform.attach_source(check::make_background_source(9e6, /*seed=*/1),
                         pod);

  const auto start = std::chrono::steady_clock::now();
  platform.run_until(duration);
  const auto stop = std::chrono::steady_clock::now();

  RunResult r;
  r.packets = platform.telemetry(pod).offered;
  r.events = platform.loop().events_processed();
  r.wall_seconds = std::chrono::duration<double>(stop - start).count();
  if (r.wall_seconds > 0.0) {
    r.pkts_per_wall_second =
        static_cast<double>(r.packets) / r.wall_seconds;
  }
  return r;
}

void print_result(const char* name, const RunResult& r) {
  bench::print_row("  %-8s %9llu pkts  %8llu kevents  %6.2fs wall  %8.0f pkts/wall-s",
                   name, static_cast<unsigned long long>(r.packets),
                   static_cast<unsigned long long>(r.events / 1000),
                   r.wall_seconds, r.pkts_per_wall_second);
}

void write_json(const std::string& path, bool quick, const RunResult& scalar,
                const RunResult& burst) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_sim_throughput: cannot write %s\n",
                 path.c_str());
    return;
  }
  const double speedup = scalar.pkts_per_wall_second > 0.0
                             ? burst.pkts_per_wall_second /
                                   scalar.pkts_per_wall_second
                             : 0.0;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"sim_throughput\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f,
               "  \"workload\": {\"service\": \"VPC-VPC\", \"cores\": 8, "
               "\"offered_pps\": 9e6, \"sim_ms\": %d},\n",
               quick ? 50 : 200);
  const auto emit = [f](const char* name, const RunResult& r, bool comma) {
    std::fprintf(f,
                 "  \"%s\": {\"packets\": %llu, \"events\": %llu, "
                 "\"wall_seconds\": %.4f, \"pkts_per_wall_second\": %.0f}%s\n",
                 name, static_cast<unsigned long long>(r.packets),
                 static_cast<unsigned long long>(r.events), r.wall_seconds,
                 r.pkts_per_wall_second, comma ? "," : ",");
  };
  emit("scalar", scalar, true);
  emit("burst", burst, true);
  std::fprintf(f, "  \"speedup_burst_vs_scalar\": %.2f\n", speedup);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

/// Reads a committed baseline bench JSON; nullopt (with a message) when
/// it is missing or lacks the per-configuration objects.
std::optional<JsonValue> load_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_sim_throughput: cannot read baseline %s\n",
                 path.c_str());
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  auto parsed = json_parse(ss.str());
  if (!parsed || !parsed->is_object() || !(*parsed)["scalar"].is_object() ||
      !(*parsed)["burst"].is_object()) {
    std::fprintf(stderr,
                 "bench_sim_throughput: baseline %s is not a bench JSON\n",
                 path.c_str());
    return std::nullopt;
  }
  return parsed;
}

/// Regression gate for CI bench-smoke: compares the burst-config
/// throughput against a committed baseline JSON. Returns 0 on pass,
/// 1 on regression or unreadable baseline. Wall-clock throughput is
/// machine-dependent, so the tolerance is generous (20% default) — the
/// gate exists to catch order-of-magnitude hot-path regressions (an
/// accidental per-packet allocation or event), not 5% jitter.
int check_against(const std::string& baseline_path, double max_regression,
                  const RunResult& burst) {
  const auto baseline = load_baseline(baseline_path);
  if (!baseline) return 1;
  const double base =
      (*baseline)["burst"].get_number("pkts_per_wall_second", 0.0);
  const double floor = base * (1.0 - max_regression);
  const bool ok = burst.pkts_per_wall_second >= floor;
  bench::print_row(
      "  smoke gate: burst %.0f pkts/wall-s vs baseline %.0f "
      "(floor %.0f, tolerance %.0f%%) -> %s",
      burst.pkts_per_wall_second, base, floor, max_regression * 100.0,
      ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

/// Exact gate: virtual time is deterministic, so the packets offered
/// and events processed must equal the baseline's on any machine. One
/// extra event anywhere on the hot path fails it.
int check_counts(const std::string& baseline_path, const RunResult& scalar,
                 const RunResult& burst) {
  const auto baseline = load_baseline(baseline_path);
  if (!baseline) return 1;
  bool ok = true;
  const auto check = [&](const char* name, const RunResult& r) {
    const JsonValue& b = (*baseline)[name];
    const auto packets = static_cast<std::uint64_t>(b.get_int("packets", -1));
    const auto events = static_cast<std::uint64_t>(b.get_int("events", -1));
    const bool same = r.packets == packets && r.events == events;
    bench::print_row(
        "  count gate: %-6s packets %llu (baseline %llu), events %llu "
        "(baseline %llu) -> %s",
        name, static_cast<unsigned long long>(r.packets),
        static_cast<unsigned long long>(packets),
        static_cast<unsigned long long>(r.events),
        static_cast<unsigned long long>(events), same ? "PASS" : "FAIL");
    ok = ok && same;
  };
  check("scalar", scalar);
  check("burst", burst);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_sim_throughput.json";
  std::string baseline_path;
  std::string counts_path;
  double max_regression = 0.20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check-against") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--max-regression") == 0 && i + 1 < argc) {
      max_regression = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--check-counts") == 0 && i + 1 < argc) {
      counts_path = argv[++i];
    }
  }
  const NanoTime duration = (quick ? 50 : 200) * kMillisecond;

  bench::print_header("Simulator hot-path throughput (pkts / wall-second)",
                      "the burst-API redesign gate, docs/BURST_API.md");
  const RunResult scalar = run_workload(/*rx_burst=*/1, /*ingress_batch=*/1,
                                        duration);
  print_result("scalar", scalar);
  const RunResult burst = run_workload(/*rx_burst=*/32, /*ingress_batch=*/32,
                                       duration);
  print_result("burst32", burst);
  if (scalar.pkts_per_wall_second > 0.0) {
    bench::print_row("  burst/scalar speedup: %.2fx",
                     burst.pkts_per_wall_second /
                         scalar.pkts_per_wall_second);
  }
  write_json(json_path, quick, scalar, burst);
  bench::print_row("  wrote %s", json_path.c_str());
  int rc = 0;
  if (!counts_path.empty()) rc |= check_counts(counts_path, scalar, burst);
  if (!baseline_path.empty()) {
    rc |= check_against(baseline_path, max_regression, burst);
  }
  return rc;
}

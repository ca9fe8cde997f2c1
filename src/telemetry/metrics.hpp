// Metrics registry with Prometheus-style text exposition. Production
// gateway fleets live and die by their metrics (the paper's Figs. 10-12
// are straight off such dashboards); the library exposes every counter
// the NIC pipeline, pods and reorder engines maintain through one
// registry so operators (and the bundled CLI) can scrape a consistent
// snapshot.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.hpp"

namespace albatross {

/// A metric label set, e.g. {{"pod","0"},{"queue","3"}}.
using Labels = std::map<std::string, std::string>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One exported sample (flattened; histograms expand to quantiles).
struct MetricSample {
  std::string name;
  Labels labels;
  double value = 0.0;
};

class MetricsRegistry {
 public:
  /// Registers a pull-style metric: `fn` is sampled at collect() time,
  /// so the registry never holds stale copies of live counters.
  void register_counter(std::string name, Labels labels,
                        std::function<double()> fn, std::string help = "");
  void register_gauge(std::string name, Labels labels,
                      std::function<double()> fn, std::string help = "");
  /// Histogram source: sampled quantiles p50/p90/p99/p999 + count/mean.
  void register_histogram(std::string name, Labels labels,
                          std::function<const LogHistogram*()> fn,
                          std::string help = "");

  /// Collects every registered metric into flat samples.
  [[nodiscard]] std::vector<MetricSample> collect() const;

  /// Prometheus text exposition format (HELP/TYPE + samples).
  [[nodiscard]] std::string expose() const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind;
    std::string help;
    std::function<double()> scalar;
    std::function<const LogHistogram*()> histogram;
  };

  static std::string render_labels(const Labels& labels);

  std::vector<Entry> entries_;
};

class Platform;            // forward; defined in core/platform.hpp
class RecoveryController;  // forward; defined in chaos/recovery.hpp
class FaultInjector;       // forward; defined in chaos/injector.hpp

/// Wires a platform's live statistics into a registry: per-pod offered/
/// delivered/drops (including chaos blackholes), wire-latency quantiles,
/// reorder-engine counters, GOP verdicts and pkt_dir classification
/// counts.
void register_platform_metrics(MetricsRegistry& registry, Platform& platform);

/// Wires the chaos/recovery subsystem into a registry: incident
/// counters, packets lost, and the detect/blackhole/recovery latency
/// histograms (plus injector totals when given), every series carrying
/// `labels` (the fleet registers one set per AZ).
void register_chaos_metrics(MetricsRegistry& registry,
                            const RecoveryController& controller,
                            const FaultInjector* injector = nullptr,
                            const Labels& labels = {});

namespace check {
class ConformanceHarness;  // forward; defined in check/probes.hpp
}  // namespace check

/// Wires a conformance harness into a registry: violation totals, probe
/// event counters (reserve/write-back/resolve breakdown) and meter
/// divergence counts. The harness must outlive the registry's scrapes.
void register_conformance_metrics(MetricsRegistry& registry,
                                  const check::ConformanceHarness& harness);

}  // namespace albatross

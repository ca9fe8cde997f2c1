#include "telemetry/metrics.hpp"

#include <sstream>
#include <string_view>
#include <unordered_map>

#include "chaos/recovery.hpp"
#include "check/probes.hpp"
#include "core/platform.hpp"

namespace albatross {

void MetricsRegistry::register_counter(std::string name, Labels labels,
                                       std::function<double()> fn,
                                       std::string help) {
  entries_.push_back(Entry{std::move(name), std::move(labels),
                           MetricKind::kCounter, std::move(help),
                           std::move(fn), nullptr});
}

void MetricsRegistry::register_gauge(std::string name, Labels labels,
                                     std::function<double()> fn,
                                     std::string help) {
  entries_.push_back(Entry{std::move(name), std::move(labels),
                           MetricKind::kGauge, std::move(help), std::move(fn),
                           nullptr});
}

void MetricsRegistry::register_histogram(
    std::string name, Labels labels,
    std::function<const LogHistogram*()> fn, std::string help) {
  entries_.push_back(Entry{std::move(name), std::move(labels),
                           MetricKind::kHistogram, std::move(help), nullptr,
                           std::move(fn)});
}

std::vector<MetricSample> MetricsRegistry::collect() const {
  std::vector<MetricSample> out;
  for (const auto& e : entries_) {
    if (e.kind == MetricKind::kHistogram) {
      const LogHistogram* h = e.histogram();
      if (h == nullptr) continue;
      const std::pair<const char*, double> quantiles[] = {
          {"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}, {"0.999", 0.999}};
      for (const auto& [qname, q] : quantiles) {
        Labels l = e.labels;
        l["quantile"] = qname;
        out.push_back(MetricSample{e.name, std::move(l),
                                   static_cast<double>(h->quantile(q))});
      }
      out.push_back(MetricSample{e.name + "_count", e.labels,
                                 static_cast<double>(h->count())});
      out.push_back(MetricSample{e.name + "_mean", e.labels, h->mean()});
    } else {
      out.push_back(MetricSample{e.name, e.labels, e.scalar()});
    }
  }
  return out;
}

std::string MetricsRegistry::render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ',';
    first = false;
    os << k << "=\"" << v << '"';
  }
  os << '}';
  return os.str();
}

std::string MetricsRegistry::expose() const {
  // One HELP/TYPE header per metric name: series are grouped by name, in
  // the order each name was first registered (per-pod and per-AZ
  // registration interleave names).
  std::vector<std::vector<const Entry*>> groups;
  std::unordered_map<std::string_view, std::size_t> group_of;
  for (const auto& e : entries_) {
    const auto [it, fresh] = group_of.try_emplace(e.name, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(&e);
  }

  std::ostringstream os;
  for (const auto& group : groups) {
    const Entry& head = *group.front();
    if (!head.help.empty()) {
      os << "# HELP " << head.name << ' ' << head.help << '\n';
    }
    os << "# TYPE " << head.name << ' '
       << (head.kind == MetricKind::kCounter
               ? "counter"
               : head.kind == MetricKind::kGauge ? "gauge" : "summary")
       << '\n';
    for (const Entry* series : group) {
      const Entry& e = *series;
      if (e.kind == MetricKind::kHistogram) {
        const LogHistogram* h = e.histogram();
        if (h == nullptr) continue;
        for (const auto& [qname, q] : std::initializer_list<
                 std::pair<const char*, double>>{
                 {"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}, {"0.999", 0.999}}) {
          Labels l = e.labels;
          l["quantile"] = qname;
          os << e.name << render_labels(l) << ' '
             << static_cast<double>(h->quantile(q)) << '\n';
        }
        os << e.name << "_count" << render_labels(e.labels) << ' '
           << h->count() << '\n';
      } else {
        os << e.name << render_labels(e.labels) << ' ' << e.scalar() << '\n';
      }
    }
  }
  return os.str();
}

void register_platform_metrics(MetricsRegistry& registry,
                               Platform& platform) {
  for (PodId pod = 0; pod < platform.pod_count(); ++pod) {
    const Labels l{{"pod", std::to_string(pod)}};
    registry.register_counter(
        "albatross_pod_offered_packets", l,
        [&platform, pod] {
          return static_cast<double>(platform.telemetry(pod).offered);
        },
        "packets offered to the pod at NIC ingress");
    registry.register_counter(
        "albatross_pod_delivered_packets", l,
        [&platform, pod] {
          return static_cast<double>(platform.telemetry(pod).delivered);
        },
        "packets delivered to the wire");
    registry.register_counter(
        "albatross_pod_disordered_packets", l, [&platform, pod] {
          return static_cast<double>(
              platform.telemetry(pod).delivered_disordered);
        });
    registry.register_counter(
        "albatross_pod_rate_limited_packets", l, [&platform, pod] {
          return static_cast<double>(
              platform.telemetry(pod).dropped_rate_limit);
        });
    registry.register_counter(
        "albatross_pod_blackholed_packets", l,
        [&platform, pod] {
          return static_cast<double>(platform.telemetry(pod).blackholed);
        },
        "packets lost to an offline pod (chaos faults)");
    registry.register_gauge(
        "albatross_pod_offline", l,
        [&platform, pod] { return platform.pod_offline(pod) ? 1.0 : 0.0; },
        "1 while the pod blackholes ingress");
    registry.register_histogram(
        "albatross_pod_wire_latency_ns", l,
        [&platform, pod] { return &platform.telemetry(pod).wire_latency; },
        "ingress-to-wire latency");
    registry.register_counter(
        "albatross_reorder_hol_timeouts", l, [&platform, pod] {
          return static_cast<double>(
              platform.nic().engine(pod).total_stats().timeout_releases);
        });
    registry.register_counter(
        "albatross_reorder_drop_releases", l, [&platform, pod] {
          return static_cast<double>(
              platform.nic().engine(pod).total_stats().drop_releases);
        });
    registry.register_counter(
        "albatross_pod_cpu_processed", l, [&platform, pod] {
          return static_cast<double>(platform.pod(pod).stats().processed);
        });
    if (platform.nic().dpu_tier_enabled(pod)) {
      registry.register_counter(
          "albatross_tier_fpga_hits", l,
          [&platform, pod] {
            return static_cast<double>(
                platform.nic().dpu_tier(pod).stats().fpga_hits);
          },
          "packets served by the FPGA tier of the co-offload hierarchy");
      registry.register_counter(
          "albatross_tier_dpu_hits", l,
          [&platform, pod] {
            return static_cast<double>(
                platform.nic().dpu_tier(pod).stats().dpu_hits);
          },
          "packets served on the DPU datapath cores");
      registry.register_counter(
          "albatross_tier_misses", l,
          [&platform, pod] {
            return static_cast<double>(
                platform.nic().dpu_tier(pod).stats().misses);
          },
          "packets that fell through the tiers to a CPU pod");
      registry.register_counter(
          "albatross_tier_admissions", l, [&platform, pod] {
            return static_cast<double>(
                platform.nic().dpu_tier(pod).controller().stats().admissions);
          });
      registry.register_counter(
          "albatross_tier_promotions", l, [&platform, pod] {
            return static_cast<double>(
                platform.nic().dpu_tier(pod).controller().stats().promotions);
          });
      registry.register_counter(
          "albatross_tier_demotions", l, [&platform, pod] {
            return static_cast<double>(
                platform.nic().dpu_tier(pod).controller().stats().demotions +
                platform.nic()
                    .dpu_tier(pod)
                    .controller()
                    .stats()
                    .evictions_cold);
          });
      registry.register_counter(
          "albatross_tier_migrations_deferred", l,
          [&platform, pod] {
            const auto& cs = platform.nic().dpu_tier(pod).controller().stats();
            return static_cast<double>(cs.budget_exhausted +
                                       cs.dwell_suppressed);
          },
          "tier moves deferred by the budget or dwell hysteresis");
    }
  }
  registry.register_counter(
      "albatross_gop_dropped_stage2", {}, [&platform] {
        return static_cast<double>(
            platform.nic().limiter().stats().dropped_stage2);
      });
  registry.register_counter(
      "albatross_gop_heavy_hitters_installed", {}, [&platform] {
        return static_cast<double>(
            platform.nic().limiter().stats().heavy_hitters_installed);
      });
  registry.register_gauge(
      "albatross_cache_l3_hit_rate", {},
      [&platform] { return platform.cache().l3_hit_rate(); },
      "modelled shared-L3 hit rate for the current working set");
}

void register_chaos_metrics(MetricsRegistry& registry,
                            const RecoveryController& controller,
                            const FaultInjector* injector,
                            const Labels& labels) {
  registry.register_counter(
      "albatross_chaos_incidents_total", labels,
      [&controller] {
        return static_cast<double>(controller.incidents_opened());
      },
      "incidents opened by the recovery controller (BFD detections)");
  registry.register_counter(
      "albatross_chaos_incidents_recovered", labels, [&controller] {
        return static_cast<double>(controller.incidents_recovered());
      });
  registry.register_counter(
      "albatross_chaos_redeploys_total", labels,
      [&controller] { return static_cast<double>(controller.redeploys()); },
      "replacement pods deployed after crashes");
  registry.register_counter(
      "albatross_chaos_packets_lost_total", labels, [&controller] {
        return static_cast<double>(controller.packets_lost_total());
      });
  registry.register_histogram(
      "albatross_chaos_detect_latency_ns", labels,
      [&controller] { return &controller.detect_latency_hist(); },
      "fault injection to BFD detection");
  registry.register_histogram(
      "albatross_chaos_blackhole_ns", labels,
      [&controller] { return &controller.blackhole_hist(); },
      "fault injection to upstream route withdrawal");
  registry.register_histogram(
      "albatross_chaos_recovery_ns", labels,
      [&controller] { return &controller.recovery_hist(); },
      "fault injection to traffic restored");
  if (injector != nullptr) {
    registry.register_counter(
        "albatross_chaos_faults_injected", labels,
        [injector] { return static_cast<double>(injector->stats().applied); },
        "fault events applied by the injector");
  }
}

void register_conformance_metrics(MetricsRegistry& registry,
                                  const check::ConformanceHarness& harness) {
  registry.register_counter(
      "albatross_conformance_violations_total", {},
      [&harness] { return static_cast<double>(harness.log().total()); },
      "invariant violations detected by the conformance probes");
  registry.register_counter(
      "albatross_conformance_events_observed", {}, [&harness] {
        return static_cast<double>(harness.events_observed());
      });
  registry.register_counter(
      "albatross_conformance_reorder_reserves", {}, [&harness] {
        return static_cast<double>(harness.reorder_counters().reserves);
      });
  registry.register_counter(
      "albatross_conformance_reorder_resolved_in_order", {}, [&harness] {
        return static_cast<double>(
            harness.reorder_counters().resolved_in_order);
      });
  registry.register_counter(
      "albatross_conformance_reorder_resolved_timeout", {}, [&harness] {
        return static_cast<double>(
            harness.reorder_counters().resolved_timeout);
      });
  registry.register_counter(
      "albatross_conformance_reorder_best_effort", {}, [&harness] {
        return static_cast<double>(harness.reorder_counters().best_effort);
      });
  if (harness.meter() != nullptr) {
    registry.register_counter(
        "albatross_conformance_meter_checks", {},
        [&harness] { return static_cast<double>(harness.meter()->checks()); },
        "rate-limiter decisions cross-checked against the analytic oracle");
    registry.register_counter(
        "albatross_conformance_meter_divergences", {}, [&harness] {
          return static_cast<double>(harness.meter()->divergences());
        });
  }
}

}  // namespace albatross

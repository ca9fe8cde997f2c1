#include "checks.hpp"

#include <cstdio>

namespace perfbench {

namespace {

struct Field {
  const char* name;
  std::uint64_t PodLedger::*member;
};

constexpr Field kLedgerFields[] = {
    {"offered", &PodLedger::offered},
    {"delivered", &PodLedger::delivered},
    {"dropped_rate_limit", &PodLedger::dropped_rate_limit},
    {"dropped_reorder_full", &PodLedger::dropped_reorder_full},
    {"dropped_ring", &PodLedger::dropped_ring},
    {"dropped_service", &PodLedger::dropped_service},
    {"dropped_payload_gone", &PodLedger::dropped_payload_gone},
    {"blackholed", &PodLedger::blackholed},
    {"control_plane", &PodLedger::control_plane},
};

}  // namespace

std::string check_conservation(const PodLedger& at_horizon,
                               const PodLedger& drained,
                               std::uint64_t& in_flight) {
  in_flight = 0;
  for (const Field& f : kLedgerFields) {
    if (drained.*f.member < at_horizon.*f.member) {
      return std::string(f.name) + " fell during the drain";
    }
  }
  if (drained.offered != at_horizon.offered) {
    return "packets were offered after the horizon";
  }
  if (at_horizon.accounted() > at_horizon.offered) {
    return "more outcomes than offered packets at the horizon";
  }
  in_flight = drained.accounted() - at_horizon.accounted();
  const std::uint64_t rhs = at_horizon.accounted() + in_flight;
  if (at_horizon.offered != rhs) {
    return "offered " + std::to_string(at_horizon.offered) +
           " != delivered + drops + in flight " + std::to_string(rhs);
  }
  return {};
}

std::uint64_t ModelOutputs::get(std::string_view name) const {
  for (const auto& [n, v] : counts) {
    if (n == name) return v;
  }
  return 0;
}

std::string ModelOutputs::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + counts[i].first + "\": " + std::to_string(counts[i].second);
  }
  if (!slo_json.empty()) {
    out += std::string(counts.empty() ? "" : ", ") +
           "\"slo_json_bytes\": " + std::to_string(slo_json.size());
  }
  return out + "}";
}

std::vector<std::string> model_differences(const ModelOutputs& a,
                                           const ModelOutputs& b) {
  std::vector<std::string> diff;
  for (const auto& [name, value] : a.counts) {
    bool found = false;
    for (const auto& [n, v] : b.counts) {
      if (n != name) continue;
      found = true;
      if (v != value) diff.push_back(name);
      break;
    }
    if (!found) diff.push_back(name);
  }
  for (const auto& [name, value] : b.counts) {
    bool found = false;
    for (const auto& entry : a.counts) {
      if (entry.first == name) {
        found = true;
        break;
      }
    }
    if (!found) diff.push_back(name);
  }
  if (a.slo_json != b.slo_json) diff.emplace_back("slo_json");
  return diff;
}

int self_test(const PodLedger& at_horizon, const PodLedger& drained,
              const ModelOutputs& model) {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("self-test %-48s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };

  std::uint64_t in_flight = 0;
  expect(check_conservation(at_horizon, drained, in_flight).empty(),
         "conservation accepts the real ledger");

  // Each perturbation invents or loses one packet somewhere in the
  // ledger; the checker must notice every one.
  for (const Field& f : kLedgerFields) {
    PodLedger d = drained;
    ++(d.*f.member);
    const std::string extra = std::string("conservation rejects ") + f.name + " + 1";
    expect(!check_conservation(at_horizon, d, in_flight).empty(),
           extra.c_str());
    d = drained;
    if (d.*f.member > 0) {
      --(d.*f.member);
      const std::string lost = std::string("conservation rejects ") + f.name + " - 1";
      expect(!check_conservation(at_horizon, d, in_flight).empty(),
             lost.c_str());
    }
  }

  expect(model_differences(model, model).empty(),
         "identity accepts an identical run");
  for (std::size_t i = 0; i < model.counts.size(); ++i) {
    ModelOutputs perturbed = model;
    ++perturbed.counts[i].second;
    const auto diff = model_differences(model, perturbed);
    const bool caught = diff.size() == 1 && diff[0] == model.counts[i].first;
    const std::string what = "identity rejects " + model.counts[i].first + " + 1";
    expect(caught, what.c_str());
  }
  ModelOutputs truncated = model;
  if (!truncated.counts.empty()) truncated.counts.pop_back();
  expect(!model_differences(model, truncated).empty(),
         "identity rejects a missing output");
  ModelOutputs slo = model;
  slo.slo_json += " ";
  expect(!model_differences(model, slo).empty(),
         "identity rejects a changed SLO report");
  return failures;
}

}  // namespace perfbench

// Tests for albatross-lint (tools/lint): each domain rule must fire on
// a known-bad snippet, stay silent on clean code and on prose
// (comments/strings), honour inline and file allowlists, and respect
// its path scoping.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint_core.hpp"

namespace albatross::lint {
namespace {

std::vector<std::string> rules_fired(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const auto& f : findings) rules.push_back(f.rule);
  return rules;
}

bool fired(const std::vector<Finding>& findings, const std::string& rule) {
  const auto rules = rules_fired(findings);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

TEST(Lint, WallClockCallFires) {
  const auto f = lint_source("src/sim/event_loop.cpp",
                             "#include <chrono>\n"
                             "auto t = std::chrono::system_clock::now();\n"
                             "long e = time(nullptr);\n"
                             "timeval tv; gettimeofday(&tv, nullptr);\n");
  EXPECT_EQ(f.size(), 3u);
  EXPECT_TRUE(fired(f, "wall-clock"));
  EXPECT_EQ(f[0].line, 2);
}

TEST(Lint, WallClockIgnoresSuffixedIdentifiers) {
  // run_time(...) / head_deadline(...) are not wall-clock reads.
  const auto f = lint_source("src/sim/event_loop.cpp",
                             "auto a = run_time(x);\n"
                             "auto b = q.head_deadline();\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, NondeterministicRngFires) {
  const auto f = lint_source("src/traffic/flow_gen.cpp",
                             "#include <random>\n"
                             "std::random_device rd;\n"
                             "std::mt19937 gen(rd());\n"
                             "int r = rand() % 7;\n");
  EXPECT_TRUE(fired(f, "nondeterministic-rng"));
  EXPECT_EQ(f.size(), 3u);
}

TEST(Lint, RngAllowedInCommonRng) {
  // The seeded PRNG implementation itself is the one legal home.
  const auto f = lint_source("src/common/rng.hpp",
                             "#pragma once\n"
                             "std::mt19937_64 engine_;\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, UnorderedIterationInDispatchLoopFires) {
  const std::string bad =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> flows_;\n"
      "void flush() {\n"
      "  for (const auto& [k, v] : flows_) { emit(v); }\n"
      "}\n";
  const auto f = lint_source("src/nic/plb_dispatch.cpp", bad);
  ASSERT_TRUE(fired(f, "unordered-iteration"));
  EXPECT_EQ(f[0].line, 4);
  // Same code outside the determinism scope is not in jurisdiction.
  EXPECT_TRUE(lint_source("src/traffic/flow_gen.cpp", bad).empty());
}

TEST(Lint, UnorderedIteratorLoopFires) {
  const auto f = lint_source(
      "src/check/oracle.hpp",
      "#pragma once\n"
      "#include <unordered_map>\n"
      "std::unordered_map<int, long> seen_;\n"
      "void age() {\n"
      "  for (auto it = seen_.begin(); it != seen_.end(); ++it) {}\n"
      "}\n");
  EXPECT_TRUE(fired(f, "unordered-iteration"));
}

TEST(Lint, OrderedIterationIsClean) {
  const auto f = lint_source("src/nic/plb_dispatch.cpp",
                             "#include <map>\n"
                             "std::map<int, int> flows_;\n"
                             "void flush() {\n"
                             "  for (const auto& [k, v] : flows_) {}\n"
                             "}\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, NakedTimeLiteralFires) {
  const auto f = lint_source(
      "src/sim/event_loop.cpp",
      "NanoTime deadline = now + budget_ms * 1'000'000;\n"
      "const auto slack = NanoTime{5'000'000};\n");
  EXPECT_EQ(f.size(), 2u);
  EXPECT_TRUE(fired(f, "naked-time-literal"));
}

TEST(Lint, NamedUnitConstantsAreClean) {
  const auto f = lint_source(
      "src/sim/event_loop.cpp",
      "NanoTime deadline = now + 100 * kMicrosecond;\n"
      "const auto gap = nanos_from_double(1e9 / pps);\n"
      "const auto t = 5_us + 2_ms;\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, TimeLiteralAllowedInUnitsHeader) {
  const auto f = lint_source("src/common/units.hpp",
                             "#pragma once\n"
                             "constexpr Nanos kSecond{1'000'000'000};\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, ScalarHotPathPopLoopFires) {
  // Both drain-loop shapes: pop in the loop condition and pop in a
  // short loop body.
  const std::string bad =
      "void drain(Ring& ring) {\n"
      "  while (!ring.empty()) {\n"
      "    auto pkt = ring.pop();\n"
      "    handle(std::move(pkt));\n"
      "  }\n"
      "}\n";
  const auto f = lint_source("src/nic/plb_dispatch.cpp", bad);
  ASSERT_TRUE(fired(f, "scalar-hot-path"));
  EXPECT_EQ(f[0].line, 3);
  const auto cond = lint_source(
      "src/gateway/gw_pod.cpp",
      "void drain(Ring& ring) {\n"
      "  PacketPtr pkt;\n"
      "  while ((pkt = ring.pop()) != nullptr) handle(std::move(pkt));\n"
      "}\n");
  EXPECT_TRUE(fired(cond, "scalar-hot-path"));
}

TEST(Lint, ScalarHotPathScopedAndBurstClean) {
  const std::string bad =
      "void drain(Ring& ring) {\n"
      "  while (!ring.empty()) {\n"
      "    auto pkt = ring.pop();\n"
      "  }\n"
      "}\n";
  // Outside the hot-path scope (sim/, check/, tests) scalar drains are
  // legal — the ring's own implementation pops one at a time.
  EXPECT_TRUE(lint_source("src/sim/ring.cpp", bad).empty());
  // A lone pop outside any loop (cold hook) is fine even in scope.
  EXPECT_TRUE(lint_source("src/nic/nic_pipeline.cpp",
                          "void take_one(Ring& ring) {\n"
                          "  auto pkt = ring.pop();\n"
                          "  handle(std::move(pkt));\n"
                          "}\n")
                  .empty());
  // The burst drain is the sanctioned shape.
  EXPECT_TRUE(lint_source("src/gateway/gw_pod.cpp",
                          "void drain(Ring& ring, Burst& b) {\n"
                          "  const std::size_t n =\n"
                          "      ring.pop_burst(std::span(b.pkts));\n"
                          "  for (std::size_t i = 0; i < n; ++i) use(b, i);\n"
                          "}\n")
                  .empty());
}

TEST(Lint, HeaderHygieneFires) {
  const auto f = lint_source("src/nic/bad.hpp",
                             "#include <string>\n"
                             "using namespace std;\n");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_TRUE(fired(f, "header-hygiene"));
  // .cpp files are free to `using namespace` locally.
  EXPECT_TRUE(
      lint_source("src/nic/ok.cpp", "using namespace std::chrono_literals;\n")
          .empty());
}

TEST(Lint, ProseDoesNotFire) {
  // Comments and string literals are stripped before the rules run.
  const auto f = lint_source(
      "src/sim/event_loop.cpp",
      "// system_clock and rand() are banned here\n"
      "/* std::random_device too */\n"
      "const char* msg = \"never call gettimeofday(now)\";\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, InlineAllowSuppresses) {
  const auto f = lint_source(
      "src/check/probe.cpp",
      "std::unordered_map<int, int> q_;\n"
      "void collect() {\n"
      "  for (const auto& [k, v] : q_) {  // lint:allow(unordered-iteration)\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, AllowlistFileSuppressesByPath) {
  Config config;
  config.allow = parse_allowlist(
      "# comment lines are skipped\n"
      "wall-clock sim/legacy_\n"
      "* vendored/\n");
  ASSERT_EQ(config.allow.size(), 2u);
  const std::string bad = "auto t = std::chrono::system_clock::now();\n";
  EXPECT_TRUE(lint_source("src/sim/legacy_timer.cpp", bad, config).empty());
  EXPECT_TRUE(lint_source("third_party/vendored/x.cpp", bad, config).empty());
  EXPECT_FALSE(lint_source("src/sim/event_loop.cpp", bad, config).empty());
}

TEST(Lint, CleanFixtureIsClean) {
  const auto f = lint_source("src/gateway/gw_pod.cpp",
                             "#include \"gateway/gw_pod.hpp\"\n"
                             "void GwPod::tick(NanoTime now) {\n"
                             "  deadline_ = now + 50 * kMicrosecond;\n"
                             "}\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, UnorderedIterationCoversDpuAndFleet) {
  // src/dpu and src/fleet were added after the rule and must be in its
  // determinism jurisdiction too.
  const std::string bad =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> flows_;\n"
      "void flush() {\n"
      "  for (const auto& [k, v] : flows_) { emit(v); }\n"
      "}\n";
  EXPECT_TRUE(fired(lint_source("src/dpu/dpu_datapath.cpp", bad),
                    "unordered-iteration"));
  EXPECT_TRUE(fired(lint_source("src/fleet/fleet_engine.cpp", bad),
                    "unordered-iteration"));
}

TEST(Lint, SharedStaticFires) {
  const auto f = lint_source(
      "src/fleet/fleet.cpp",
      "static std::uint64_t seen = 0;\n"
      "static std::vector<const char*>\n"
      "    names;\n"
      "struct Registry { static inline int instances = 0; };\n"
      "std::uint64_t next_id() {\n"
      "  static std::uint64_t counter{0};\n"
      "  return ++counter;\n"
      "}\n");
  ASSERT_EQ(f.size(), 4u);
  EXPECT_TRUE(fired(f, "shared-static"));
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(f[1].line, 2);  // reported where the declaration starts
  EXPECT_EQ(f[2].line, 4);
  EXPECT_EQ(f[3].line, 6);
}

TEST(Lint, SharedStaticAcceptsImmutablePerThreadAndFunctions) {
  const auto f = lint_source(
      "src/packet/packet.cpp",
      "static constexpr std::size_t kSlots = 64;\n"
      "static const std::regex re(\"x\");\n"
      "const static int kAlso = 1;\n"
      "template <typename Fn> static constexpr Ops ops = {};\n"
      "struct Pool {\n"
      "  static Pool& local();\n"
      "  static std::function<void(int)> make(int n);\n"
      "};\n"
      "Pool& Pool::local() { static thread_local Pool pool; return pool; }\n"
      "static int wrap(int i) { return static_cast<int>(i % 64); }\n"
      "static_assert(sizeof(int) == 4);\n"
      "// a static counter in prose is fine\n");
  EXPECT_TRUE(f.empty()) << (f.empty() ? "" : f[0].message);
}

TEST(Lint, RuleNamesStable) {
  const auto& names = rule_names();
  EXPECT_EQ(names.size(), 11u);
  EXPECT_TRUE(std::find(names.begin(), names.end(), "shared-static") !=
              names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(), "scalar-hot-path") !=
              names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(), "wall-clock") !=
              names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(),
                        "fpga-budget-overflow") != names.end());
}

// ---- Synthesis-feasibility (fpga-*) rules ------------------------------

TEST(LintFpga, MissingAnnotationFires) {
  const std::string code =
      "#pragma once\n"
      "class PlbEngine {\n"
      " public:\n"
      "  int dispatch();\n"
      "};\n";
  const auto f = lint_source("src/nic/plb_dispatch.hpp", code);
  ASSERT_TRUE(fired(f, "fpga-missing-annotation"));
  EXPECT_EQ(f[0].line, 2);
  // Only headers under nic/ are FPGA-resident jurisdiction.
  EXPECT_TRUE(lint_source("src/sim/event_loop.hpp", code).empty());
  EXPECT_TRUE(lint_source("src/nic/plb_dispatch.cpp", code).empty());
}

TEST(LintFpga, ForwardDeclAndEnumClassAreClean) {
  const auto f = lint_source("src/nic/fwd.hpp",
                             "#pragma once\n"
                             "class ReorderQueue;\n"
                             "enum class PktClass { kPlb, kRss };\n"
                             "template <class T>\n"
                             "void use(T t);\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintFpga, AnnotatedClassIsClean) {
  const auto f = lint_source(
      "src/nic/plb_dispatch.hpp",
      "#pragma once\n"
      "/// Dispatch stage.\n"
      "// fpga: lut=15'012, bram_bits=4'096, cycles=25\n"
      "class PlbEngine {\n"
      "};\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintFpga, MalformedAnnotationFires) {
  const auto f = lint_source("src/nic/plb_dispatch.hpp",
                             "#pragma once\n"
                             "// fpga: lut=15'012, cycles=25\n"
                             "class PlbEngine {\n"
                             "};\n");
  ASSERT_TRUE(fired(f, "fpga-missing-annotation"));
}

TEST(LintFpga, TimingClosureFires) {
  const auto f = lint_source(
      "src/nic/plb_reorder.hpp",
      "#pragma once\n"
      "// fpga: lut=100'000, bram_bits=2'048, cycles=9999\n"
      "class ReorderQueue {\n"
      "};\n");
  ASSERT_TRUE(fired(f, "fpga-timing-closure"));
  EXPECT_EQ(f[0].line, 2);  // anchored at the annotation line
}

TEST(LintFpga, BudgetOverflowFires) {
  const auto bram = lint_source(
      "src/nic/big.hpp",
      "#pragma once\n"
      "// fpga: lut=1'000, bram_bits=300'000'000, cycles=0\n"
      "class BigTable {\n"
      "};\n");
  ASSERT_TRUE(fired(bram, "fpga-budget-overflow"));
  const auto lut = lint_source(
      "src/nic/big.hpp",
      "#pragma once\n"
      "// fpga: lut=1'000'000, bram_bits=0, cycles=0\n"
      "class BigLogic {\n"
      "};\n");
  ASSERT_TRUE(fired(lut, "fpga-budget-overflow"));
}

TEST(LintFpga, StaleAnnotationDrift) {
  const auto annotations = collect_fpga_annotations(
      "src/nic/plb_reorder.hpp",
      "// fpga: lut=100'000, bram_bits=12'058'624, cycles=175\n"
      "class ReorderQueue {\n"
      "};\n");
  ASSERT_EQ(annotations.size(), 1u);
  EXPECT_EQ(annotations[0].module, "ReorderQueue");
  EXPECT_EQ(annotations[0].bram_bits, 12'058'624u);
  // >10% off the structural ledger figure: stale.
  const auto stale = check_fpga_stale(
      annotations, {{"ReorderQueue", 10'000'000}}, 0.10);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "fpga-stale-annotation");
  // Within tolerance: fine.
  EXPECT_TRUE(check_fpga_stale(annotations, {{"ReorderQueue", 12'000'000}},
                               0.10)
                  .empty());
  // Unmapped modules are not stale-checked.
  EXPECT_TRUE(check_fpga_stale(annotations, {{"PktDir", 1}}, 0.10).empty());
}

TEST(LintFpga, InlineAllowSuppresses) {
  const auto f = lint_source(
      "src/nic/host_model.hpp",
      "#pragma once\n"
      "class HostModel {  // lint:allow(fpga-missing-annotation)\n"
      "};\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintFpga, AllowlistSuppressesByPath) {
  Config config;
  config.allow = parse_allowlist("fpga-missing-annotation nic/legacy_\n");
  const std::string code =
      "#pragma once\n"
      "class LegacyStage {\n"
      "};\n";
  EXPECT_TRUE(lint_source("src/nic/legacy_stage.hpp", code, config).empty());
  EXPECT_FALSE(lint_source("src/nic/new_stage.hpp", code, config).empty());
}

TEST(LintFpga, FindingsToJsonDeterministicAndEscaped) {
  EXPECT_EQ(findings_to_json({}), "[]");
  const std::vector<Finding> f = {
      {"a.hpp", 3, "fpga-budget-overflow", "say \"no\"\n"}};
  const auto json = findings_to_json(f);
  EXPECT_NE(json.find("\"file\": \"a.hpp\""), std::string::npos);
  EXPECT_NE(json.find("\\\"no\\\"\\n"), std::string::npos);
}

}  // namespace
}  // namespace albatross::lint

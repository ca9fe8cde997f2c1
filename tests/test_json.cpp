// JSON parser/serializer and the experiment-config loader.
#include <gtest/gtest.h>

#include "common/json.hpp"
#include "core/config.hpp"

namespace albatross {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json_parse("null")->is_null());
  EXPECT_TRUE(json_parse("true")->as_bool());
  EXPECT_FALSE(json_parse("false")->as_bool(true));
  EXPECT_DOUBLE_EQ(json_parse("3.5")->as_number(), 3.5);
  EXPECT_EQ(json_parse("-17")->as_int(), -17);
  EXPECT_DOUBLE_EQ(json_parse("1e3")->as_number(), 1000.0);
  EXPECT_EQ(json_parse("\"hello\"")->as_string(), "hello");
}

TEST(Json, ParsesNestedStructures) {
  const auto v = json_parse(R"({
    "name": "albatross",
    "pods": [{"cores": 44}, {"cores": 20}],
    "nested": {"deep": {"value": 7}},
    "empty_obj": {},
    "empty_arr": []
  })");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)["name"].as_string(), "albatross");
  ASSERT_EQ((*v)["pods"].as_array().size(), 2u);
  EXPECT_EQ((*v)["pods"].as_array()[0]["cores"].as_int(), 44);
  EXPECT_EQ((*v)["nested"]["deep"]["value"].as_int(), 7);
  EXPECT_TRUE((*v)["empty_obj"].is_object());
  EXPECT_TRUE((*v)["empty_arr"].as_array().empty());
  // Missing keys chain safely to null.
  EXPECT_TRUE((*v)["no"]["such"]["key"].is_null());
  EXPECT_EQ((*v)["no"].get_int("x", 9), 9);
}

TEST(Json, StringEscapes) {
  const auto v = json_parse(R"("a\"b\\c\/d\ne\tfAé")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "a\"b\\c/d\ne\tfA\xc3\xa9");
}

TEST(Json, RejectsMalformedInput) {
  JsonParseError err;
  EXPECT_FALSE(json_parse("{", &err).has_value());
  EXPECT_FALSE(json_parse("[1,]", &err).has_value());
  EXPECT_FALSE(json_parse("{\"a\" 1}", &err).has_value());
  EXPECT_FALSE(json_parse("tru", &err).has_value());
  EXPECT_FALSE(json_parse("\"unterminated", &err).has_value());
  EXPECT_FALSE(json_parse("1 2", &err).has_value());
  EXPECT_FALSE(json_parse("", &err).has_value());
  EXPECT_FALSE(err.message.empty());
}

TEST(Json, DumpRoundTrip) {
  const std::string doc =
      R"({"a":[1,2.5,true,null,"x\ny"],"b":{"c":-3},"d":"z"})";
  const auto v = json_parse(doc);
  ASSERT_TRUE(v.has_value());
  // dump -> parse -> dump must be a fixed point.
  const std::string once = v->dump();
  const auto again = json_parse(once);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->dump(), once);
  EXPECT_EQ((*again)["a"].as_array()[1].as_number(), 2.5);
}

TEST(ConfigLoader, BuildsPlatformAndPods) {
  const auto cfg = json_parse(R"({
    "platform": {"tenants": 50, "routes": 1000,
                 "gop": {"enabled": false}},
    "pods": [
      {"service": "internet", "data_cores": 4, "mode": "plb"},
      {"service": "vpc", "data_cores": 2, "mode": "rss",
       "priority_queues": false, "offload": true}
    ]
  })");
  ASSERT_TRUE(cfg.has_value());
  std::vector<PodId> pods;
  auto platform = build_platform_from_json(*cfg, pods);
  ASSERT_EQ(pods.size(), 2u);
  EXPECT_EQ(platform->nic().pod_mode(pods[0]), LbMode::kPlb);
  EXPECT_EQ(platform->nic().pod_mode(pods[1]), LbMode::kRss);
  EXPECT_FALSE(platform->nic().session_offload_enabled(pods[0]));
  EXPECT_TRUE(platform->nic().session_offload_enabled(pods[1]));
  EXPECT_FALSE(platform->nic().config().gop_enabled);
  EXPECT_FALSE(platform->nic()
                   .pkt_dir()
                   .pod_config(pods[1])
                   .priority_queues_enabled);
}

TEST(ConfigLoader, RejectsUnknownNames) {
  std::vector<PodId> pods;
  const auto bad_service =
      json_parse(R"({"pods":[{"service":"warp-drive"}]})");
  EXPECT_THROW(build_platform_from_json(*bad_service, pods),
               std::runtime_error);
  const auto bad_mode =
      json_parse(R"({"pods":[{"service":"vpc","mode":"quantum"}]})");
  EXPECT_THROW(build_platform_from_json(*bad_mode, pods),
               std::runtime_error);
}

TEST(ConfigLoader, EndToEndExperiment) {
  const auto result = run_experiment_from_json(R"({
    "platform": {"tenants": 64, "routes": 2000},
    "pods": [{"service": "vpc", "data_cores": 4}],
    "traffic": [{"type": "poisson", "pod": 0, "rate_mpps": 1.0,
                 "flows": 1000}],
    "duration_ms": 40,
    "order_oracle": true
  })");
  ASSERT_EQ(result.pods.size(), 1u);
  EXPECT_NEAR(result.pods[0].offered_mpps, 1.0, 0.05);
  EXPECT_LT(result.pods[0].loss_rate, 0.01);
  EXPECT_GT(result.pods[0].mean_latency_us, 5.0);
}

TEST(ConfigLoader, HitterStepsAndBadReferences) {
  EXPECT_THROW(run_experiment_from_json(R"({
    "pods": [{"service": "vpc"}],
    "traffic": [{"type": "poisson", "pod": 3}]
  })"),
               std::runtime_error);
  EXPECT_THROW(run_experiment_from_json(R"({
    "pods": [{"service": "vpc"}],
    "traffic": [{"type": "sharknado", "pod": 0}]
  })"),
               std::runtime_error);
  EXPECT_THROW(run_experiment_from_json("{ not json"), std::runtime_error);

  // Hitter with a valid 2-step profile runs clean.
  const auto r = run_experiment_from_json(R"({
    "pods": [{"service": "vpc", "data_cores": 2}],
    "traffic": [{"type": "hitter", "pod": 0, "vni": 9,
                 "steps": [[0, 0.2], [20, 0.5]]}],
    "duration_ms": 40
  })");
  EXPECT_GT(r.pods[0].delivered_mpps, 0.2);
}

TEST(ConfigLoader, ZeroCoresOrFlowsThrowAtBuild) {
  EXPECT_THROW(run_experiment_from_json(R"({
    "pods": [{"service": "vpc", "data_cores": 0}]
  })"),
               std::runtime_error);
  EXPECT_THROW(run_experiment_from_json(R"({
    "pods": [{"service": "vpc"}],
    "traffic": [{"type": "poisson", "pod": 0, "flows": 0}]
  })"),
               std::runtime_error);
}

}  // namespace
}  // namespace albatross

/// Golden wire schema of netpartd's telemetry ops.  One fixed request
/// sequence (ping, load, partition, a traced partition, a malformed frame)
/// is driven at 1 and 2 executor lanes, then the test pins:
///  - the full `stats` JSON key tree (top level, every latency object, each
///    `lanes[]` entry, each `admission.<class>` object);
///  - the ordered `# TYPE netpartd_*` lines of `stats --prom`;
///  - the top-level keys of the `metrics` response.
/// The schema is identical with the obs layer compiled in or out; only the
/// `metrics` → `obs` section depends on the build and on enable_obs.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace netpart::server {
namespace {

std::atomic<int> g_socket_counter{0};

std::string unique_socket() {
  return "@netpart-schema-" + std::to_string(::getpid()) + "-" +
         std::to_string(g_socket_counter.fetch_add(1));
}

/// Server running on its own I/O thread for the duration of a test.
class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions options) : server_(std::move(options)) {
    std::string error;
    if (!server_.start(error)) ADD_FAILURE() << "start: " << error;
    io_thread_ = std::thread([this] { server_.run(); });
  }
  ~ServerFixture() {
    server_.request_stop();
    if (io_thread_.joinable()) io_thread_.join();
  }
  ServerFixture(const ServerFixture&) = delete;
  ServerFixture& operator=(const ServerFixture&) = delete;

 private:
  Server server_;
  std::thread io_thread_;
};

JsonValue rpc(Client& client, const std::string& request) {
  JsonValue response;
  EXPECT_TRUE(client.round_trip_json(request, response))
      << request << " -> " << client.last_error();
  return response;
}

bool get_ok(const JsonValue& v) {
  const JsonValue* f = v.find("ok");
  return f != nullptr && f->is_bool() && f->boolean;
}

/// Dotted key paths of a JSON value in document order.  Array elements
/// contribute `<path>[].<key>` once per distinct key, so arrays of
/// same-shaped objects flatten to one schema regardless of length.
void key_tree(const JsonValue& v, const std::string& prefix,
              std::vector<std::string>& out) {
  if (v.is_object()) {
    for (const auto& [key, child] : v.object) {
      const std::string path = prefix + key;
      if (std::find(out.begin(), out.end(), path) == out.end())
        out.push_back(path);
      key_tree(child, path + ".", out);
    }
  } else if (v.type == JsonValue::Type::kArray) {
    const std::string base =
        prefix.empty() ? "[]." : prefix.substr(0, prefix.size() - 1) + "[].";
    for (const JsonValue& element : v.array) key_tree(element, base, out);
  }
}

std::vector<std::string> top_level_keys(const JsonValue& v) {
  std::vector<std::string> out;
  for (const auto& [key, child] : v.object) out.push_back(key);
  return out;
}

/// `# TYPE netpartd_...` lines of a Prometheus body, in body order.
std::vector<std::string> netpartd_type_lines(const std::string& body) {
  std::vector<std::string> out;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("# TYPE netpartd_", 0) == 0) out.push_back(line);
  return out;
}

/// Keys of one latency object, in wire order.
const std::vector<std::string> kLatencyKeys = {
    "window_ms", "count", "mean", "p50", "p90", "p99", "max"};

void add_latency(std::vector<std::string>& want, const std::string& path) {
  want.push_back(path);
  for (const std::string& k : kLatencyKeys) want.push_back(path + "." + k);
}

/// The ops executed before the `stats` request, as `op_latency_ms` keys.
const std::vector<std::string> kOpsBeforeStats = {"load", "metrics",
                                                  "partition", "ping"};

std::vector<std::string> expected_stats_keys() {
  std::vector<std::string> want = {
      "id", "ok", "uptime_ms", "qps", "requests_total", "responses_ok",
      "responses_error", "cache_hit_rate", "cache_hits", "cache_misses",
      "queue_depth", "queue_capacity", "sessions_live", "rss_bytes",
      "executor_lanes", "write_failures", "lanes", "lanes[].lane",
      "lanes[].queue_depth", "lanes[].busy", "lanes[].executed", "admission",
      "admission.enabled"};
  for (const char* cls : {"hit", "warm", "cold"}) {
    const std::string base = std::string("admission.") + cls;
    want.push_back(base);
    for (const char* k : {"admitted", "shed", "occupancy", "cap", "ema_ms"})
      want.push_back(base + "." + k);
  }
  add_latency(want, "latency_ms");
  for (const char* family : {"class_latency_ms", "class_queue_wait_ms"}) {
    want.push_back(family);
    for (const char* cls : {"hit", "warm", "cold"})
      add_latency(want, std::string(family) + "." + cls);
  }
  for (const char* family : {"lane_queue_wait_ms", "lane_execute_ms"}) {
    want.push_back(family);
    for (const std::string& k : kLatencyKeys)
      want.push_back(std::string(family) + "[]." + k);
  }
  want.push_back("op_latency_ms");
  for (const std::string& op : kOpsBeforeStats)
    add_latency(want, "op_latency_ms." + op);
  return want;
}

std::vector<std::string> expected_prom_types(std::size_t lanes) {
  std::vector<std::string> want;
  const auto type = [&want](const std::string& name, const char* kind) {
    want.push_back("# TYPE netpartd_" + name + " " + kind);
  };
  type("cache_hits_total", "counter");
  type("cache_misses_total", "counter");
  type("connections_total", "counter");
  for (std::size_t i = 0; i < lanes; ++i)
    type("lane_executed_" + std::to_string(i) + "_total", "counter");
  for (const char* c :
       {"parse_errors", "rejected_deadline", "rejected_overload",
        "rejected_oversized", "requests", "responses_error", "responses_ok",
        "sessions_evicted", "shed_cold", "shed_hit", "shed_warm",
        "write_failures"})
    type(std::string(c) + "_total", "counter");
  type("cache_size", "gauge");
  type("executor_lanes", "gauge");
  for (std::size_t i = 0; i < lanes; ++i) {
    type("lane_busy_" + std::to_string(i), "gauge");
    type("lane_queue_depth_" + std::to_string(i), "gauge");
  }
  for (const char* g : {"queue_capacity", "queue_depth", "rss_bytes",
                        "sessions_live", "uptime_seconds"})
    type(g, "gauge");
  for (const char* family : {"class_latency_ms_", "class_queue_wait_ms_"})
    for (const char* cls : {"hit", "warm", "cold"})
      type(std::string(family) + cls, "summary");
  for (const char* family : {"lane_execute_ms_", "lane_queue_wait_ms_"})
    for (std::size_t i = 0; i < lanes; ++i)
      type(family + std::to_string(i), "summary");
  // The JSON `stats` request has run by now, so `stats` joins the ops.
  for (const char* op : {"load", "metrics", "partition", "ping", "stats"})
    type(std::string("op_latency_ms_") + op, "summary");
  type("request_latency_ms", "summary");
  return want;
}

std::vector<std::string> expected_metrics_keys(bool with_obs) {
  std::vector<std::string> want = {
      "id", "ok", "connections_accepted", "requests_total", "responses_ok",
      "responses_error", "parse_errors", "rejected_overload",
      "rejected_deadline", "rejected_oversized", "shed_hit", "shed_warm",
      "shed_cold", "write_failures", "executor_lanes", "cache_hits",
      "cache_misses", "cache_evictions", "cache_size", "cache_capacity",
      "sessions_live", "sessions_evicted", "queue_depth", "queue_capacity"};
  if (with_obs) want.push_back("obs");
  return want;
}

void check_schema(std::size_t lanes, bool enable_obs) {
  SCOPED_TRACE("lanes=" + std::to_string(lanes) +
               " enable_obs=" + std::to_string(enable_obs));
  ServerOptions options;
  options.socket_path = unique_socket();
  options.executor_lanes = lanes;
  options.enable_obs = enable_obs;
  {
    ServerFixture fixture(options);
    Client client;
    ASSERT_TRUE(client.connect(options.socket_path)) << client.last_error();

    EXPECT_TRUE(get_ok(rpc(client, R"({"id":1,"op":"ping"})")));
    EXPECT_TRUE(get_ok(rpc(
        client, R"({"id":2,"op":"load","session":"s","circuit":"bm1"})")));
    EXPECT_TRUE(
        get_ok(rpc(client, R"({"id":3,"op":"partition","session":"s"})")));
    EXPECT_TRUE(get_ok(rpc(
        client, R"({"id":4,"op":"partition","session":"s","trace":true})")));
    EXPECT_FALSE(get_ok(rpc(client, "this is not json")));

    const JsonValue metrics = rpc(client, R"({"id":5,"op":"metrics"})");
    ASSERT_TRUE(get_ok(metrics));
    EXPECT_EQ(top_level_keys(metrics),
              expected_metrics_keys(enable_obs && NETPART_OBS_ENABLED));

    const JsonValue stats = rpc(client, R"({"id":6,"op":"stats"})");
    ASSERT_TRUE(get_ok(stats));
    std::vector<std::string> keys;
    key_tree(stats, "", keys);
    EXPECT_EQ(keys, expected_stats_keys());
    for (const char* array :
         {"lanes", "lane_queue_wait_ms", "lane_execute_ms"}) {
      const JsonValue* v = stats.find(array);
      ASSERT_NE(v, nullptr) << array;
      EXPECT_EQ(v->array.size(), lanes) << array;
    }

    const JsonValue prom =
        rpc(client, R"({"id":7,"op":"stats","format":"prometheus"})");
    ASSERT_TRUE(get_ok(prom));
    const JsonValue* body = prom.find("body");
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(netpartd_type_lines(body->string), expected_prom_types(lanes));
  }
  if (enable_obs) {
    // Lane 0 enabled the process-wide registry; restore the default.
    obs::MetricsRegistry::instance().set_rolling_spans(false);
    obs::MetricsRegistry::instance().set_enabled(false);
    obs::MetricsRegistry::instance().reset();
  }
}

TEST(ServerSchemaTest, StatsAndMetricsSchemaAtOneLane) {
  check_schema(1, /*enable_obs=*/false);
}

TEST(ServerSchemaTest, StatsAndMetricsSchemaAtTwoLanes) {
  check_schema(2, /*enable_obs=*/false);
}

TEST(ServerSchemaTest, StatsAndMetricsSchemaWithObsRegistry) {
  check_schema(1, /*enable_obs=*/true);
}

}  // namespace
}  // namespace netpart::server

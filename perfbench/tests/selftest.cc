// The benchmark's own tests.
//
//   perfbench_selftest ROOT
//
// ROOT is the repository checkout (BENCHMARK.json and
// bench/bench_table4_end_to_end.cc are read from it).  Checks:
//  * every metric name is [A-Za-z0-9_.-]+ and BENCHMARK.json lists exactly
//    the catalogue's names and units;
//  * spans: every span has a parent or is a root, self times are >= 0 and
//    sum to their root span, overlapping children are not double-counted;
//  * te_err_pct arithmetic, and the Table-4 reference equals the one
//    bench_table4_end_to_end prints.
// Exit status 0 when every check passes.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "metrics.h"
#include "spans.h"
#include "stats.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAIL: %s\n", what.c_str());
  }
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// (name, unit) pairs of one BENCHMARK.json metric list, in file order.
std::vector<std::pair<std::string, std::string>> listed(
    const std::string& json, const std::string& key) {
  std::vector<std::pair<std::string, std::string>> out;
  const std::size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return out;
  const std::size_t open = json.find('[', at);
  const std::size_t close = json.find(']', open);
  const std::string body = json.substr(open, close - open);
  static const std::regex entry(
      R"re(\{\s*"name"\s*:\s*"([^"]*)"\s*,\s*"unit"\s*:\s*"([^"]*)")re");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.emplace_back((*it)[1], (*it)[2]);
  }
  return out;
}

void test_metric_names(const std::string& root) {
  const std::string bench = read_file(root + "/BENCHMARK.json");
  expect(!bench.empty(), "BENCHMARK.json is readable");
  const auto check = [&](const std::vector<perfbench::MetricDef>& defs,
                         const std::string& key) {
    const auto file = listed(bench, key);
    expect(file.size() == defs.size(),
           key + ": BENCHMARK.json lists " + std::to_string(file.size()) +
               " metrics, the catalogue " + std::to_string(defs.size()));
    for (std::size_t i = 0; i < defs.size(); ++i) {
      expect(perfbench::valid_metric_name(defs[i].name),
             std::string("metric name ") + defs[i].name);
      if (i < file.size()) {
        expect(file[i].first == defs[i].name && file[i].second == defs[i].unit,
               key + "[" + std::to_string(i) + "]: " + file[i].first + " " +
                   file[i].second + " != " + defs[i].name + " " + defs[i].unit);
      }
    }
  };
  check(perfbench::end_to_end_defs(), "end_to_end");
  check(perfbench::per_layer_defs(), "per_layer");
  for (const char* bad : {"", "a b", "x/y", ".lead", "é"}) {
    expect(!perfbench::valid_metric_name(bad),
           std::string("invalid name accepted: '") + bad + "'");
  }
}

void spin_us(int us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

void test_spans() {
  perfbench::SpanRecorder rec(true, "selftest");
  {
    perfbench::ScopedSpan root(rec, "root");
    spin_us(200);
    for (int i = 0; i < 3; ++i) {
      perfbench::ScopedSpan child(rec, "child");
      spin_us(100);
      perfbench::ScopedSpan leaf(rec, "leaf");
      spin_us(50);
    }
    spin_us(100);
  }
  {
    perfbench::ScopedSpan second(rec, "second_root");
    spin_us(50);
  }
  const auto& spans = rec.spans();
  const auto self = perfbench::self_times_ns(spans);
  std::vector<std::int64_t> tree_self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    expect(p == -1 || (p >= 0 && static_cast<std::size_t>(p) < i),
           "span " + std::to_string(i) + " has a valid parent or is a root");
    expect(spans[i].end_ns >= spans[i].start_ns, "span closed");
    expect(self[i] >= 0, "self time >= 0");
    std::size_t r = i;
    while (spans[r].parent != -1) r = static_cast<std::size_t>(spans[r].parent);
    tree_self[r] += self[i];
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == -1) {
      expect(tree_self[i] == spans[i].duration_ns(),
             "self times of root '" + spans[i].name + "' sum to its duration");
    }
  }
  expect(rec.durations_s("child").size() == 3, "durations_s finds 3 spans");

  // Overlapping and overhanging children are clipped and merged.
  std::vector<perfbench::Span> hand = {
      {"p", 0, 100, -1}, {"a", 10, 50, 0}, {"b", 40, 70, 0}, {"c", 90, 130, 0}};
  const auto hs = perfbench::self_times_ns(hand);
  expect(hs[0] == 100 - 60 - 10, "merged child cover: self(p) == 30");
  expect(hs[1] == 40 && hs[2] == 30 && hs[3] == 40, "leaf self times");

  std::ostringstream os;
  rec.write_chrome_trace(os);
  expect(os.str().find("\"ph\":\"X\"") != std::string::npos &&
             os.str().find("\"workload\":\"selftest\"") != std::string::npos,
         "chrome trace carries complete events with the workload id");

  perfbench::SpanRecorder off(false, "off");
  expect(off.begin("x") == -1 && off.spans().empty(),
         "a disabled recorder records nothing");
}

void test_te_err(const std::string& root) {
  const auto& ref = perfbench::paper_table4();
  std::vector<double> tcp, rpc;
  for (const auto& r : ref) {
    tcp.push_back(r.tcpip);
    rpc.push_back(r.rpc);
  }
  expect(perfbench::te_err_pct(tcp, rpc) == 0, "te_err_pct(paper) == 0");
  // +10% on every TCP/IP cell, exact on RPC: mean error 5%.
  std::vector<double> tcp10;
  for (double t : tcp) tcp10.push_back(t * 1.1);
  expect(std::fabs(perfbench::te_err_pct(tcp10, rpc) - 5.0) < 1e-9,
         "te_err_pct(+10% tcpip) == 5");
  // One cell off by 31.08 us (10% of ALL/TCP): 10% / 12 cells.
  std::vector<double> one = tcp;
  one[5] = ref[5].tcpip - 31.08;
  expect(std::fabs(perfbench::te_err_pct(one, rpc) - 10.0 / 12.0) < 1e-9,
         "te_err_pct(one cell -10%) == 10/12");
  bool threw = false;
  try {
    perfbench::te_err_pct({1.0}, rpc);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "te_err_pct rejects a short row");

  // The reference must equal the table bench_table4_end_to_end prints.
  const std::string src = read_file(root + "/bench/bench_table4_end_to_end.cc");
  static const std::regex cell(
      R"re(\{"(BAD|STD|OUT|CLO|PIN|ALL)",\s*([0-9.]+),\s*([0-9.]+)\})re");
  std::size_t found = 0;
  for (auto it = std::sregex_iterator(src.begin(), src.end(), cell);
       it != std::sregex_iterator() && found < ref.size(); ++it, ++found) {
    const auto& r = ref[found];
    expect((*it)[1] == r.config && std::stod((*it)[2]) == r.tcpip &&
               std::stod((*it)[3]) == r.rpc,
           std::string("Table-4 reference cell ") + r.config);
  }
  expect(found == ref.size(), "bench_table4_end_to_end holds 6 reference rows");
}

void test_stats() {
  expect(perfbench::median({3, 1, 2}) == 2, "median odd");
  expect(perfbench::median({4, 1, 2, 3}) == 2.5, "median even");
  expect(perfbench::percentile({0, 10}, 99) == 9.9, "percentile interpolates");
  expect(perfbench::fmt_num(0.1) == "0.1", "fmt_num shortest form");
  expect(perfbench::json_escape("a\"b\\") == "a\\\"b\\\\", "json_escape");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string root = argc > 1 ? argv[1] : ".";
  test_metric_names(root);
  test_spans();
  test_te_err(root);
  test_stats();
  if (g_failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}

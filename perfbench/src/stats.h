// Small numeric and formatting helpers shared by the perfbench program and
// its self-tests.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Median of `xs` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> xs);

/// Linear-interpolated percentile, q in [0, 100]; 0 when empty.
double percentile(std::vector<double> xs, double q);

/// Metric names the benchmark prints: [A-Za-z0-9_.-]+, at most 64 chars,
/// starting with a letter or digit.
bool valid_metric_name(const std::string& name);

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s);

/// Shortest round-trip decimal form of a double (finite values only;
/// non-finite values print as 0 so the output stays valid JSON).
std::string fmt_num(double v);

/// Paper Table 4 end-to-end roundtrip latency (us), in the order
/// BAD STD OUT CLO PIN ALL — the reference bench_table4_end_to_end prints
/// beside its simulated rows.
struct PaperTe {
  const char* config;
  double tcpip;
  double rpc;
};
const std::vector<PaperTe>& paper_table4();

/// Mean |sim - paper| / paper over every cell, in percent.  `sim_tcpip`
/// and `sim_rpc` are in paper_table4() order; throws std::invalid_argument
/// when a size does not match.
double te_err_pct(const std::vector<double>& sim_tcpip,
                  const std::vector<double>& sim_rpc);

}  // namespace perfbench

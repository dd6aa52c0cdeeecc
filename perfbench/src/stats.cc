#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = (q / 100.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

const std::vector<PaperTe>& paper_table4() {
  static const std::vector<PaperTe> ref = {
      {"BAD", 498.8, 457.1}, {"STD", 351.0, 399.2}, {"OUT", 336.1, 394.6},
      {"CLO", 325.5, 383.1}, {"PIN", 317.1, 367.3}, {"ALL", 310.8, 365.5},
  };
  return ref;
}

double te_err_pct(const std::vector<double>& sim_tcpip,
                  const std::vector<double>& sim_rpc) {
  const auto& ref = paper_table4();
  if (sim_tcpip.size() != ref.size() || sim_rpc.size() != ref.size()) {
    throw std::invalid_argument("te_err_pct: expected " +
                                std::to_string(ref.size()) +
                                " cells per stack");
  }
  double sum = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    sum += std::fabs(sim_tcpip[i] - ref[i].tcpip) / ref[i].tcpip;
    sum += std::fabs(sim_rpc[i] - ref[i].rpc) / ref[i].rpc;
  }
  return 100.0 * sum / static_cast<double>(2 * ref.size());
}

}  // namespace perfbench

// The benchmark's metric catalogue: every end-to-end and per-layer metric
// it prints, with units.  BENCHMARK.json lists the same names (the
// self-test checks that the two agree).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by untraced runs (--trace 0).
const std::vector<MetricDef>& end_to_end_defs();
/// Printed by traced runs (--trace 1).
const std::vector<MetricDef>& per_layer_defs();

/// Values keyed by metric name.  A workload that has no input for a layer
/// metric leaves it unset; perfbench prints 0 for it and lists it under
/// "not_applicable" in the run manifest.
using MetricValues = std::map<std::string, double>;

}  // namespace perfbench

#pragma once
// The benchmark's metric schema (mirrored by BENCHMARK.json) and the
// per-layer values every workload fills from its traced run.

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "evalpath.hpp"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Per-layer metrics, printed by every traced run (0 where a layer does not
/// take part in the workload).
const std::vector<MetricSpec>& per_layer_specs();

/// Per-layer values by metric name, with their sample counts.
class LayerValues {
 public:
  void set(const std::string& name, double value, std::size_t samples = 1,
           std::string note = {});
  /// Emit every per_layer_specs() metric into report.layer, in schema order.
  void emit(Report& report) const;

 private:
  struct V {
    double value = 0.0;
    std::size_t samples = 1;
    std::string note;
  };
  std::map<std::string, V> values_;
};

/// Fill the layer values the offline (sweep / Monte-Carlo) workloads share
/// from a traced window's ledger, the obs deltas over it and the tally.
void offline_layers(LayerValues& out, const Ledger& ledger, const ObsSnap& a,
                    const ObsSnap& b, const LayerTally& tally);

/// Ledger closure and tracing overhead: trace.ledger_error_ratio and
/// trace.overhead_ratio, plus the attribution checks on `report`.
void ledger_checks(LayerValues& out, Report& report, const Ledger& ledger,
                   double span_cost_s);

/// Cost of one span open/close pair on this host, in seconds.
double calibrate_span_cost();

}  // namespace perfbench

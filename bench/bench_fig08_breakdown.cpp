// Fig. 8: per-block power breakdown of the two optimal designs (baseline vs
// CS) selected from the shared Fig. 7 sweep under the paper's >= 98 %
// accuracy constraint, plus the headline power-saving factor.

#include "obs/obs.hpp"

#include <iostream>

#include "core/study.hpp"
#include "util/csv.hpp"

using namespace efficsense;
using namespace efficsense::core;
using namespace efficsense::arch;

int main() {
  efficsense::obs::BenchRun obs_run("bench_fig08_breakdown");
  Study study;
  std::cout << "Fig. 8 reproduction: power breakdown of the optimal designs\n\n";
  const auto result =
      study.run([](const std::string& line) { std::cout << "  [" << line << "]\n"; });
  obs_run.set_points(result.baseline.size() + result.cs.size());

  const double min_acc = study.config().min_accuracy;
  const auto best_base =
      cheapest_with_merit(make_candidates(result.baseline, Merit::Accuracy), min_acc);
  const auto best_cs =
      cheapest_with_merit(make_candidates(result.cs, Merit::Accuracy), min_acc);
  if (!best_base || !best_cs) {
    std::cout << "constraint accuracy >= " << format_number(100.0 * min_acc)
              << " % not reachable at this sweep scale; rerun with more "
                 "segments (EFFICSENSE_SEGMENTS).\n";
    return 0;
  }

  const auto& rb = result.baseline[best_base->tag];
  const auto& rc = result.cs[best_cs->tag];

  std::cout << "\nbaseline optimum: " << describe_result(rb) << "\n";
  std::cout << "CS optimum      : " << describe_result(rc) << "\n\n";

  TablePrinter t({"block", "baseline", "CS"});
  for (const char* block : {kLnaBlock, kSampleHoldBlock, kCsEncoderBlock,
                            kAdcBlock, kTxBlock}) {
    t.add_row({block, format_power(rb.metrics.power_breakdown.watts_of(block)),
               format_power(rc.metrics.power_breakdown.watts_of(block))});
  }
  t.add_row({"TOTAL", format_power(rb.metrics.power_w),
             format_power(rc.metrics.power_w)});
  t.print(std::cout);

  std::cout << "\npower saving: "
            << format_number(rb.metrics.power_w / rc.metrics.power_w)
            << "x (paper: 3.6x; 8.8 uW @ 98.1 % vs 2.44 uW @ 99.3 %)\n"
            << "accuracy: baseline " << format_number(100.0 * rb.metrics.accuracy)
            << " % vs CS " << format_number(100.0 * rc.metrics.accuracy) << " %\n";

  std::cout << "\nExpected shape (paper Fig. 8): the CS optimum saves most of "
               "the transmitter power\n(fewer samples) and most of the LNA "
               "power (higher tolerated noise floor), while paying\na small "
               "digital penalty for the CS encoder logic.\n";
  return 0;
}

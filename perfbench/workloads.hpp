#pragma once
// The four workloads. Each sets itself up from scratch (kSetupReps
// times), measures for opt.seconds, checks its outputs and fills a Report:
// end-to-end metrics when opt.trace is off, per-layer metrics when on.

#include "common.hpp"

namespace perfbench {

Report run_paper_sweep(const Options& opt);
Report run_solver_sweep(const Options& opt);
Report run_mc_yield(const Options& opt);
Report run_gateway_stream(const Options& opt);

}  // namespace perfbench

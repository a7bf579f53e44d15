#pragma once
// One member of the sweep fleet. A Worker joins a spool directory, checks
// the coordinator's manifest against the header it derives from its own
// scenario (digest handshake — a worker pointed at the wrong spool refuses
// to contribute), then loops: read its lease file, evaluate the leased
// range in order, append each point to its own journal
// (<spool>/workers/<name>.jsonl), and re-read the lease before every point
// so a steal-shrink or revocation lands within one in-flight point. A
// background thread rewrites the heartbeat file every ttl/4; when the
// heartbeat stops (SIGKILL), the coordinator expires the lease and
// reassigns the uncommitted remainder.
//
// A worker restarted onto an existing spool resumes its own journal:
// already-committed indices are skipped, so re-granted ranges cost nothing.
// Points are settled and the journal resumed through the same code as the
// DurableSweeper (run::settle_point, run::open_journal), so failures retry
// up to max_attempts and then quarantine into the journal with the same
// record bytes. There is no per-point wall-clock timeout here: a hung
// evaluation is the coordinator's problem, solved by lease expiry.

#include <cstdint>
#include <string>

#include "core/design_space.hpp"
#include "power/tech.hpp"
#include "run/durable.hpp"
#include "run/fleet.hpp"

namespace efficsense::run {

struct WorkerOptions {
  std::string spool_dir;
  /// Worker name = spool file stem; default "w<pid>".
  std::string name;
  /// Caller-side configuration digest (Evaluator::config_digest()); must
  /// reproduce the coordinator's manifest header or the worker refuses.
  std::uint64_t config_digest = 0;
  /// Lease-file poll cadence while idle.
  double poll_interval_s = 0.02;
  /// How long to wait for fleet.json before giving up (coordinator not
  /// started yet).
  double manifest_timeout_s = 30.0;
  /// Evaluation attempts per point before quarantining (>= 1).
  std::uint32_t max_attempts = 3;
  /// Append per-point provenance events alongside journal records.
  bool record_events = true;
};

struct WorkerOutcome {
  std::uint64_t points_evaluated = 0;
  std::uint64_t points_skipped = 0;  ///< leased but already in own journal
  std::uint64_t points_quarantined = 0;
  std::uint64_t leases_completed = 0;
};

class Worker {
 public:
  Worker(DurableSweeper::EvalFn eval, const power::DesignParams& base,
         const core::DesignSpace& space, WorkerOptions options);

  /// Serve leases until the coordinator writes done.json (normal exit) or
  /// its status heartbeat goes stale/disappears (orphaned worker, returns
  /// with whatever was committed). Throws Error when the spool's manifest
  /// is incompatible with this worker's scenario.
  WorkerOutcome run();

  const std::string& name() const { return options_.name; }

 private:
  DurableSweeper::EvalFn eval_;
  power::DesignParams base_;
  core::DesignSpace space_;
  WorkerOptions options_;
};

}  // namespace efficsense::run

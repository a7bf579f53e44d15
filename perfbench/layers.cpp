#include "layers.hpp"

#include <cmath>

namespace perfbench {

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"eeg.synth_s", "s"},
      {"classify.train_s", "s"},
      {"arch.build_s", "s"},
      {"arch.builds", "count"},
      {"sim.busy_s", "s"},
      {"sim.block.source.busy_s", "s"},
      {"sim.block.lna.busy_s", "s"},
      {"sim.block.sh.busy_s", "s"},
      {"sim.block.adc.busy_s", "s"},
      {"sim.block.cs_enc.busy_s", "s"},
      {"sim.block.tx.busy_s", "s"},
      {"sim.lanes_per_batch", "count"},
      {"sim.rng_bulk_fills", "count"},
      {"cs.decode_s.omp", "s"},
      {"cs.decode_s.bsbl", "s"},
      {"cs.decode_s.amp", "s"},
      {"cs.decode_s.compressed_domain", "s"},
      {"cs.solves", "count"},
      {"cs.omp_iters_per_solve", "count"},
      {"cs.multi_solves", "count"},
      {"cs.cache_hit_ratio", "ratio"},
      {"cs.gram_build_s", "s"},
      {"cs.gram_builds_per_miss", "ratio"},
      {"classify.score_s", "s"},
      {"classify.features_s", "s"},
      {"classify.epochs", "count"},
      {"core.point_s.p50", "s"},
      {"core.point_s.tail", "s"},
      {"core.pool_busy_ratio", "ratio"},
      {"core.lane_groups_per_thread", "ratio"},
      {"core.unattributed_s", "s"},
      {"core.idle_s", "s"},
      {"run.commit_s", "s"},
      {"run.fsync_coalesced", "count"},
      {"run.quarantined", "count"},
      {"run.retried", "count"},
      {"serve.wire_s", "s"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.decode_ms.p50", "ms"},
      {"serve.decode_ms.p99", "ms"},
      {"serve.detect_ms.p50", "ms"},
      {"serve.detect_ms.p99", "ms"},
      {"serve.rejects", "count"},
      {"serve.retries", "count"},
      {"serve.queue_depth_max", "count"},
      {"gateway.lat_p50_ms.low", "ms"},
      {"gateway.lat_p99_ms.low", "ms"},
      {"gateway.lat_p50_ms.high", "ms"},
      {"gateway.lat_p99_ms.high", "ms"},
      {"gateway.max_rate_eps", "epochs/s"},
      {"gen.late_ms.p99", "ms"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.ledger_error_ratio", "ratio"},
  };
  return specs;
}

void LayerValues::set(const std::string& name, double value,
                      std::size_t samples, std::string note) {
  values_[name] = {value, samples, std::move(note)};
}

void LayerValues::emit(Report& report) const {
  for (const auto& spec : per_layer_specs()) {
    const auto it = values_.find(spec.name);
    if (it == values_.end()) {
      report.add(report.layer, spec.name, 0.0, spec.unit, 0, "n/a");
    } else {
      report.add(report.layer, spec.name, it->second.value, spec.unit,
                 it->second.samples, it->second.note);
    }
  }
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void offline_layers(LayerValues& out, const Ledger& ledger, const ObsSnap& a,
                    const ObsSnap& b, const LayerTally& tally) {
  const auto count = [&](const char* name) {
    return double(counter_delta(a, b, name));
  };
  const auto spans = [&](const char* name) -> std::vector<double> {
    const auto it = ledger.durations_s.find(name);
    return it == ledger.durations_s.end() ? std::vector<double>{} : it->second;
  };

  out.set("arch.build_s", ledger.layer_self("arch"));
  out.set("arch.builds", double(spans("arch.build").size()));

  out.set("sim.busy_s", ledger.layer_self("sim"));
  for (const auto& [block, s] : tally.block_busy_s()) {
    out.set("sim.block." + block + ".busy_s", s);
  }
  out.set("sim.lanes_per_batch",
          ratio(count("sim/lanes_active"), count("sim/batch_runs")));
  out.set("sim.rng_bulk_fills", double(b.rng_bulk_fills - a.rng_bulk_fills));

  for (const char* solver : {"omp", "bsbl", "amp", "compressed_domain"}) {
    const std::string span = std::string("cs.decode.") + solver;
    out.set(std::string("cs.decode_s.") + solver, ledger.self(span),
            spans(span.c_str()).size());
  }
  const double solves = count("omp/solves");
  out.set("cs.solves", solves);
  out.set("cs.omp_iters_per_solve", ratio(count("omp/iterations"), solves));
  out.set("cs.multi_solves", count("omp/multi_solves"));
  const double hits = count("omp/cache_hits");
  const double misses = count("omp/cache_misses");
  out.set("cs.cache_hit_ratio", ratio(hits, hits + misses),
          std::size_t(hits + misses));
  out.set("cs.gram_build_s", hist_sum_delta(a, b, "time/omp_gram_build"),
          hist_count_delta(a, b, "time/omp_gram_build"));
  out.set("cs.gram_builds_per_miss", ratio(count("omp/gram_builds"), misses),
          std::size_t(misses));

  out.set("classify.score_s", ledger.self("classify.score"),
          spans("classify.score").size());
  out.set("classify.features_s", hist_sum_delta(a, b, "time/detect_features"),
          hist_count_delta(a, b, "time/detect_features"));
  out.set("classify.epochs", double(tally.epochs.load()));

  std::vector<double> units = spans("core.point");
  const auto groups = spans("core.group");
  units.insert(units.end(), groups.begin(), groups.end());
  double busy = 0.0;
  for (const double d : units) busy += d;
  std::string tail_label;
  const double tail_s = tail(units, &tail_label);
  out.set("core.point_s.p50", median(units), units.size());
  out.set("core.point_s.tail", tail_s, units.size(), tail_label);
  out.set("core.pool_busy_ratio",
          ratio(busy, ledger.window_s * double(ledger.executors)));
  out.set("core.unattributed_s",
          ledger.self("core.point") + ledger.self("core.group"));
  out.set("core.idle_s", ledger.idle_s);
  out.set("run.commit_s", ledger.self("run.commit"), spans("run.commit").size());
}

void ledger_checks(LayerValues& out, Report& report, const Ledger& ledger,
                   double span_cost_s) {
  double attributed = 0.0;
  for (const auto& [name, s] : ledger.self_s) attributed += s;
  const double capacity = ledger.window_s * double(ledger.executors);
  const double error =
      ratio(std::fabs(attributed + ledger.idle_s - capacity), capacity);
  out.set("trace.ledger_error_ratio", error, ledger.spans);
  out.set("trace.overhead_ratio", ratio(double(ledger.spans) * span_cost_s,
                                        capacity),
          ledger.spans, "span count x calibrated span cost");
  // The ledger closes when every span nests inside its parent and no more
  // threads ran spans than the workload's executor budget.
  report.check(error <= 0.01,
               "trace: layer self time + unattributed + idle != wall x "
               "executors (error " + std::to_string(error) + ")");
  report.check(ledger.max_concurrency <= ledger.executors,
               "trace: " + std::to_string(ledger.max_concurrency) +
                   " top-level spans ran at once, executor budget " +
                   std::to_string(ledger.executors));
  report.check(ledger.clipped_s <= 1e-3 * capacity,
               "trace: child spans overran their parents");
}

double calibrate_span_cost() {
  Tracer& t = Tracer::instance();
  const bool was = t.enabled();
  t.enable(true);
  const std::uint32_t name = t.intern("trace.calibrate");
  constexpr int kSpans = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) Span s(name, std::uint64_t(i));
  const double cost =
      std::chrono::duration<double>(Clock::now() - t0).count() / kSpans;
  t.clear();
  t.enable(was);
  return cost;
}

}  // namespace perfbench

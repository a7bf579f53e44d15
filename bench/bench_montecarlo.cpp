// Monte-Carlo mismatch analysis of the two headline designs: how robust is
// the pathfinding verdict across fabricated instances? Each instance
// redraws the capacitor mismatch (SAR DAC array; CS capacitor banks) and
// re-scores the design; the yield is the fraction of instances meeting the
// paper's 98 % accuracy constraint.
//
// Perf plumbing: dataset synthesis fans out over EFFICSENSE_THREADS, the
// trained detector is memoized in the repo-local file cache (training is
// deterministic, so warm runs skip it; EFFICSENSE_BENCH_CACHE=0 disables),
// and the run drops a BENCH_sweep.json trajectory file with points/s and
// the reconstruction-kernel instruments next to the console table.
//
// The candidate loop is journal-backed (run::JournalWriter): each finished
// candidate appends one checksummed record to BENCH_montecarlo.journal.jsonl
// (path override: EFFICSENSE_MC_JOURNAL), so a killed bench resumes where it
// stopped instead of redoing 2/3 of the Monte-Carlo work. A journal written
// under different runs/segments/seeds is refused and restarted fresh.

#include "obs/obs.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "arch/architecture.hpp"
#include "classify/detector.hpp"
#include "core/monte_carlo.hpp"
#include "cs/basis.hpp"
#include "cs/effective.hpp"
#include "cs/reconstructor.hpp"
#include "cs/srbm.hpp"
#include "eeg/dataset.hpp"
#include "results_common.hpp"
#include "run/journal.hpp"
#include "util/cache.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace efficsense;
using namespace efficsense::core;

namespace {

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// FNV-1a over the raw bit patterns of each double, LSB first (same scheme
/// as tests/test_arch.cpp) — any single-bit metric divergence between the
/// batched and scalar Monte-Carlo paths changes the checksum.
std::uint64_t fnv1a_doubles(const std::vector<double>& v) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

std::uint64_t mc_metrics_digest(const MonteCarloResult& r) {
  std::vector<double> bits;
  bits.reserve(2 * r.instances.size());
  for (const auto& m : r.instances) {
    bits.push_back(m.snr_db);
    bits.push_back(m.accuracy);
  }
  return fnv1a_doubles(bits);
}

/// Train the bench detector, or load it from the file cache when an
/// identical configuration was trained before (training is deterministic).
classify::EpilepsyDetector trained_detector(const eeg::Generator& gen,
                                            const classify::DetectorConfig& cfg,
                                            ThreadPool* pool,
                                            std::string* provenance) {
  const bool use_cache = env_int("EFFICSENSE_BENCH_CACHE", 1) != 0;
  std::ostringstream key;
  key.precision(17);
  key << "bench_montecarlo/detector/v2;train=30x30@" << derive_seed(2022, 0xDE7)
      << ";fs=" << cfg.fs_hz << ";hidden=" << cfg.hidden_units
      << ";aug_seed=" << cfg.augment.seed << ";train_seed=" << cfg.train.seed;
  const auto cache = default_cache();
  if (use_cache) {
    if (const auto blob = cache.load(key.str())) {
      *provenance = "cache-hit";
      return classify::EpilepsyDetector::from_blob(*blob);
    }
  }
  const auto detector = classify::EpilepsyDetector::train(
      eeg::make_dataset(gen, 30, 30, derive_seed(2022, 0xDE7), pool), cfg);
  if (use_cache) {
    cache.store(key.str(), detector.to_blob());
    *provenance = "cache-miss";
  } else {
    *provenance = "cache-off";
  }
  return detector;
}

/// Per-candidate Monte-Carlo summary, round-trippable through the journal.
struct CandidateStats {
  double acc_mean = 0.0, acc_sigma = 0.0, acc_min = 0.0;
  double snr_mean = 0.0, snr_sigma = 0.0;
  double yield = 0.0;
  double mc_s = 0.0;
};

std::string stats_to_payload(const CandidateStats& s) {
  std::ostringstream os;
  os.precision(17);
  os << s.acc_mean << ',' << s.acc_sigma << ',' << s.acc_min << ','
     << s.snr_mean << ',' << s.snr_sigma << ',' << s.yield << ',' << s.mc_s;
  return os.str();
}

CandidateStats stats_from_payload(const std::string& payload) {
  std::istringstream is(payload);
  CandidateStats s;
  char comma = 0;
  is >> s.acc_mean >> comma >> s.acc_sigma >> comma >> s.acc_min >> comma >>
      s.snr_mean >> comma >> s.snr_sigma >> comma >> s.yield >> comma >> s.mc_s;
  if (is.fail()) throw Error("bench_montecarlo: malformed journal payload");
  return s;
}

}  // namespace

int main() {
  efficsense::obs::BenchRun obs_run("bench_montecarlo");
  const power::TechnologyParams tech;
  const auto n = static_cast<std::size_t>(env_int("EFFICSENSE_SEGMENTS", 10));
  const auto runs = static_cast<std::size_t>(env_int("EFFICSENSE_MC_RUNS", 12));
  const eeg::Generator gen{eeg::GeneratorConfig{}};

  // One pool for dataset synthesis; monte_carlo() resolves its own from the
  // same EFFICSENSE_THREADS knob. Segments derive independent seeds, so the
  // parallel synthesis is bit-identical to the serial one.
  const auto threads = static_cast<std::size_t>(
      std::max<long long>(0, env_int("EFFICSENSE_THREADS", 0)));
  std::unique_ptr<ThreadPool> pool;
  if (threads != 1) {
    pool = std::make_unique<ThreadPool>(threads);
    if (pool->size() <= 1) pool.reset();
  }

  const auto t_dataset = std::chrono::steady_clock::now();
  const auto dataset = eeg::make_dataset(gen, n / 2, n - n / 2,
                                         derive_seed(2022, 0xEA1), pool.get());
  const double dataset_s = seconds_since(t_dataset);

  classify::DetectorConfig det_cfg;
  const auto t_train = std::chrono::steady_clock::now();
  std::string detector_provenance;
  const auto detector =
      trained_detector(gen, det_cfg, pool.get(), &detector_provenance);
  const double train_s = seconds_since(t_train);

  EvalOptions opt;
  opt.recon.residual_tol = 0.02;
  const Evaluator evaluator(tech, &dataset, &detector, opt);

  std::cout << "Monte-Carlo mismatch analysis (" << runs
            << " fabricated instances, " << dataset.size()
            << " segments each, constraint accuracy >= 95 %)\n"
            << "[detector " << detector_provenance << ", trained in "
            << format_number(train_s) << " s]\n\n";

  MonteCarloOptions mc;
  mc.instances = runs;
  obs_run.set_points(runs);
  mc.min_accuracy = 0.95;

  struct Candidate {
    const char* name;
    power::DesignParams design;
  };
  std::vector<Candidate> candidates;
  {
    power::DesignParams baseline;
    baseline.adc_bits = 6;
    baseline.lna_noise_vrms = 6e-6;
    candidates.push_back({"baseline optimum (N=6, 6 uV)", baseline});

    power::DesignParams cs;
    cs.adc_bits = 8;
    cs.lna_noise_vrms = 6e-6;
    cs.cs_m = 75;
    cs.cs_c_hold_f = 1e-12;
    candidates.push_back({"CS optimum (M=75, Ch=1pF)", cs});

    power::DesignParams cs_small = cs;
    cs_small.cs_c_hold_f = 0.05e-12;
    cs_small.cs_c_sample_f = 0.0125e-12;
    candidates.push_back({"CS, aggressively small caps (50 fF)", cs_small});
  }

  // Journal the candidate loop: the header digest pins everything that
  // shapes the Monte-Carlo numbers, so stale journals (different runs,
  // segment count, seed or candidate set) restart fresh instead of mixing.
  const std::string journal_path = [] {
    const char* p = std::getenv("EFFICSENSE_MC_JOURNAL");
    return std::string(p && *p ? p : "BENCH_montecarlo.journal.jsonl");
  }();
  run::JournalHeader header;
  {
    std::ostringstream cfg;
    cfg.precision(17);
    cfg << "bench_montecarlo/v1;eval=" << evaluator.config_digest()
        << ";runs=" << runs << ";mc_seed=" << mc.seed
        << ";min_acc=" << mc.min_accuracy << ";segments=" << n;
    header.config_digest = fnv1a(cfg.str());
    std::string keys;
    for (const auto& c : candidates) keys += c.design.cache_key() + "\n";
    header.space_digest = fnv1a(keys);
    header.total_points = candidates.size();
  }

  std::vector<std::optional<CandidateStats>> adopted(candidates.size());
  std::optional<run::JournalWriter> writer;
  if (const auto journal = run::read_journal(journal_path);
      journal && journal->header.compatible_with(header)) {
    for (const auto& rec : journal->records) {
      if (rec.index >= candidates.size() || rec.status != run::PointStatus::Ok)
        continue;
      if (rec.point_hash != fnv1a(candidates[rec.index].design.cache_key()))
        continue;
      if (!adopted[rec.index]) {
        adopted[rec.index] = stats_from_payload(rec.payload);
        obs::counter("run/points_resumed").inc();
      }
    }
    writer.emplace(run::JournalWriter::resume(journal_path,
                                              journal->valid_bytes));
    std::cout << "[journal: resumed, "
              << obs::counter("run/points_resumed").value()
              << " candidate(s) adopted from " << journal_path << "]\n";
  } else {
    if (journal) {
      std::cout << "[journal: configuration changed, restarting "
                << journal_path << "]\n";
    }
    writer.emplace(run::JournalWriter::create(journal_path, header));
  }

  struct CandidateTiming {
    const char* name;
    double seconds;
    double yield;
  };
  std::vector<CandidateTiming> timings;

  TablePrinter t({"design", "acc mean [%]", "acc sigma [%]", "acc min [%]",
                  "SNR mean [dB]", "SNR sigma", "yield [%]"});
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& c = candidates[i];
    CandidateStats s;
    if (adopted[i]) {
      s = *adopted[i];
    } else {
      const auto t_mc = std::chrono::steady_clock::now();
      const auto r = monte_carlo(evaluator, c.design, mc);
      s = {r.accuracy.mean, r.accuracy.stddev, r.accuracy.min,
           r.snr_db.mean,   r.snr_db.stddev,  r.yield,
           seconds_since(t_mc)};
      obs::counter("run/points_evaluated").inc();
      run::JournalRecord rec;
      rec.index = i;
      rec.point_hash = fnv1a(c.design.cache_key());
      rec.payload = stats_to_payload(s);
      writer->append(rec);
    }
    timings.push_back({c.name, s.mc_s, s.yield});
    t.add_row({c.name, format_number(100.0 * s.acc_mean),
               format_number(100.0 * s.acc_sigma),
               format_number(100.0 * s.acc_min), format_number(s.snr_mean),
               format_number(s.snr_sigma), format_number(100.0 * s.yield)});
  }
  t.print(std::cout);

  std::cout << "\nReading: at the Table III capacitor sizes, mismatch "
               "(Pelgrom sigma ~ 1 %/sqrt(C/fF))\nbarely moves the metrics "
               "and yield stays high. Shrinking the CS capacitors 20x "
               "for\narea costs ~1.7 dB of reconstruction SNR (kT/C + "
               "mismatch) and widens the accuracy\nspread — the "
               "area-vs-robustness coupling behind Fig. 9/10; with a "
               "tighter constraint\nor noisier designs, that spread "
               "becomes yield loss.\n";

  // -------------------------------------------------------------------
  // Lane scaling, as a threads x lanes matrix: each headline design runs
  // the same Monte-Carlo instances at threads {1, default pool} x K {1,
  // lane_width}. All four cells use identical per-instance seeds; the FNV-1a
  // digest over the raw metric bits proves every cell bit-identical to the
  // single-threaded scalar oracle, so the speedups are free of accuracy
  // caveats. The gated ratio is K=lane_width vs K=1 at the same thread
  // count, on the chain-bound baseline optimum: its cost is the block chain
  // + detector, exactly what the lane engine batches. The CS optimum is
  // reported alongside — its Monte-Carlo time is dominated by the per-lane
  // OMP decode, which Amdahl-caps the lane win (DESIGN.md §12).
  const auto lane_width = static_cast<std::size_t>(
      std::max<long long>(2, env_int("EFFICSENSE_LANES", 8)));
  // Full lane groups regardless of the (possibly tiny, in CI smoke) MC run
  // count: a partial tail group would clamp the effective batch width.
  const std::size_t lane_runs =
      lane_width * std::max<std::size_t>(1, runs / lane_width);
  const std::size_t pool_threads = pool ? pool->size() : 1;
  const std::size_t thread_counts[2] = {1, pool_threads};
  struct LaneScaling {
    const char* name;
    /// points/s by [thread row: 1, default pool][K: 1, lane_width].
    double per_s[2][2] = {};
    bool bit_identical = true;
    double speedup(std::size_t row) const {
      return per_s[row][0] > 0.0 ? per_s[row][1] / per_s[row][0] : 0.0;
    }
  };
  std::vector<LaneScaling> lane_rows;
  bool lanes_bit_identical = true;
  MonteCarloOptions lane_mc = mc;
  lane_mc.instances = lane_runs;
  std::cout << "\nlane scaling (" << lane_runs << " instances, threads {1, "
            << pool_threads << "} x K {1, " << lane_width << "}):\n";
  for (std::size_t ci : {std::size_t{0}, std::size_t{1}}) {
    LaneScaling row;
    row.name = candidates[ci].name;
    std::cout << "  " << row.name << ":\n";
    std::uint64_t oracle = 0;
    for (std::size_t t = 0; t < 2; ++t) {
      lane_mc.threads = thread_counts[t];
      for (std::size_t k = 0; k < 2; ++k) {
        lane_mc.lanes = k == 0 ? 1 : lane_width;
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = monte_carlo(evaluator, candidates[ci].design, lane_mc);
        const double secs = seconds_since(t0);
        row.per_s[t][k] =
            secs > 0.0 ? static_cast<double>(lane_runs) / secs : 0.0;
        const std::uint64_t digest = mc_metrics_digest(r);
        if (t == 0 && k == 0) oracle = digest;
        if (digest != oracle) {
          row.bit_identical = false;
          std::cerr << "bench_montecarlo: threads=" << lane_mc.threads
                    << " K=" << lane_mc.lanes
                    << " diverged from the scalar oracle (digest " << std::hex
                    << digest << " vs " << oracle << std::dec << ") on "
                    << row.name << "\n";
        }
      }
      std::cout << "    threads=" << thread_counts[t] << ": K=1 "
                << format_number(row.per_s[t][0]) << " points/s, K="
                << lane_width << " " << format_number(row.per_s[t][1])
                << " points/s (" << format_number(row.speedup(t)) << "x)\n";
    }
    std::cout << "    every cell vs the scalar oracle: "
              << (row.bit_identical ? "bit-identical" : "DIVERGED") << "\n";
    lanes_bit_identical = lanes_bit_identical && row.bit_identical;
    lane_rows.push_back(row);
  }
  if (!lanes_bit_identical) return 1;
  // The gated number rides on the chain-bound baseline candidate.
  const LaneScaling& gated = lane_rows[0];
  obs_run.add_field("lane_speedup_k" + std::to_string(lane_width),
                    gated.speedup(1));

  // -------------------------------------------------------------------
  // Gateway decode-time split across registered solvers: the same
  // charge-sharing measurement stream (a segment's worth of frames at the
  // headline M=75) decoded by OMP, by BSBL, and by the compressed-domain
  // path (no reconstruction — the detector consumes y directly, so the
  // gateway cost collapses to a copy). The compressed-vs-omp speedup is
  // the headline number behind the paper's cheapest decode configuration.
  const std::size_t dec_frames = 16;
  const auto dec_phi = cs::SparseBinaryMatrix::generate(75, 384, 2, 33);
  const auto dec_gains = cs::charge_sharing_gains(0.125e-12, 0.5e-12);
  const auto dec_w =
      cs::effective_entry_weights(dec_phi, dec_gains.a, dec_gains.b);
  linalg::Vector dec_stream;
  {
    Rng dec_rng(44);
    linalg::Vector coeffs(384), frame;
    for (std::size_t f = 0; f < dec_frames; ++f) {
      std::fill(coeffs.begin(), coeffs.end(), 0.0);
      for (std::size_t k = 1; k < 30; ++k) {
        coeffs[k] = dec_rng.gaussian() / (1.0 + 0.3 * static_cast<double>(k));
      }
      frame = cs::dct_inverse(coeffs);
      const auto y = dec_phi.csr().apply(frame, dec_w);
      dec_stream.insert(dec_stream.end(), y.begin(), y.end());
    }
  }
  const auto time_decode = [&](const char* solver) {
    cs::ReconstructorConfig cfg;
    cfg.residual_tol = 0.02;
    cfg.solver = solver;
    const cs::Reconstructor rec(dec_phi, dec_gains, cfg);
    const auto t0 = std::chrono::steady_clock::now();
    const auto x = rec.reconstruct_stream(dec_stream);
    const double s = seconds_since(t0);
    if (x.empty()) return -1.0;
    return s;
  };
  const double dec_omp_s = time_decode("omp");
  const double dec_bsbl_s = time_decode("bsbl");
  double dec_cd_s = 0.0;
  {
    const arch::MeasurementDomainDecoder cd(dec_phi, dec_gains);
    const auto t0 = std::chrono::steady_clock::now();
    const auto x = cd.decode(dec_stream, nullptr);
    dec_cd_s = seconds_since(t0);
    if (x.size() != dec_stream.size()) return 1;
  }
  const double dec_speedup =
      dec_cd_s > 0.0 ? dec_omp_s / dec_cd_s : 0.0;
  std::cout << "\ndecode split (" << dec_frames << " frames, M=75): omp "
            << format_number(dec_omp_s) << " s, bsbl "
            << format_number(dec_bsbl_s) << " s, compressed-domain "
            << format_number(dec_cd_s) << " s ("
            << format_number(dec_speedup) << "x vs omp)\n";

  // Where did the time go? Dataset synthesis is timed explicitly above;
  // the block-sim share is the sum of every Model::run() block execution
  // (the time/block_run histogram), accumulated across synthesis warm-up,
  // training and the Monte-Carlo loop.
  const double block_sim_s = obs::histogram("time/block_run").sum();
  std::cout << "\n[split: dataset synthesis " << format_number(dataset_s)
            << " s, block sim " << format_number(block_sim_s)
            << " s inside " << format_number(obs_run.elapsed_s())
            << " s total]\n";

  // The checked-in sweep trajectory: end-to-end rate plus the kernel
  // instruments, so successive PRs can compare like for like.
  const double duration_s = obs_run.elapsed_s();
  std::ofstream out("BENCH_sweep.json", std::ios::trunc);
  if (out) {
    out.precision(6);
    out << "{\n  \"bench\": \"bench_montecarlo\",\n"
        << "  \"segments\": " << n << ",\n  \"mc_runs\": " << runs << ",\n"
        << "  \"threads\": " << (pool ? pool->size() : 1) << ",\n"
        << "  \"dataset_s\": " << dataset_s << ",\n"
        << "  \"block_sim_s\": " << block_sim_s << ",\n"
        << "  \"detector\": \"" << detector_provenance << "\",\n"
        << "  \"detector_train_s\": " << train_s << ",\n  \"candidates\": [\n";
    for (std::size_t i = 0; i < timings.size(); ++i) {
      out << "    {\"name\": \"" << obs::json_escape(timings[i].name)
          << "\", \"mc_s\": " << timings[i].seconds
          << ", \"yield\": " << timings[i].yield << "}"
          << (i + 1 < timings.size() ? "," : "") << "\n";
    }
    // The top-level keys are the default-pool row of the baseline
    // optimum (the CI gate and bench/baselines.json read them);
    // speedup_threads1 is the same ratio on one thread.
    out << "  ],\n  \"lane_scaling\": {\n"
        << "    \"lanes\": " << lane_width << ",\n"
        << "    \"instances\": " << lane_runs << ",\n"
        << "    \"threads\": " << pool_threads << ",\n"
        << "    \"points_per_s_k1\": " << gated.per_s[1][0] << ",\n"
        << "    \"points_per_s_batched\": " << gated.per_s[1][1] << ",\n"
        << "    \"speedup\": " << gated.speedup(1) << ",\n"
        << "    \"speedup_threads1\": " << gated.speedup(0) << ",\n"
        << "    \"lanes_bit_identical\": "
        << (lanes_bit_identical ? "true" : "false") << ",\n"
        << "    \"candidates\": [\n";
    for (std::size_t i = 0; i < lane_rows.size(); ++i) {
      const auto& r = lane_rows[i];
      out << "      {\"name\": \"" << obs::json_escape(r.name)
          << "\", \"speedup\": " << r.speedup(1)
          << ", \"speedup_threads1\": " << r.speedup(0)
          << ", \"matrix\": [";
      for (std::size_t t = 0; t < 2; ++t) {
        for (std::size_t k = 0; k < 2; ++k) {
          out << (t + k > 0 ? ", " : "") << "{\"threads\": "
              << thread_counts[t]
              << ", \"lanes\": " << (k == 0 ? 1 : lane_width)
              << ", \"points_per_s\": " << r.per_s[t][k] << "}";
        }
      }
      out << "]}" << (i + 1 < lane_rows.size() ? "," : "") << "\n";
    }
    out << "    ]\n  },\n"
        << "  \"decode_split\": {\n"
        << "    \"frames\": " << dec_frames << ",\n"
        << "    \"omp_s\": " << dec_omp_s << ",\n"
        << "    \"bsbl_s\": " << dec_bsbl_s << ",\n"
        << "    \"compressed_domain_s\": " << dec_cd_s << ",\n"
        << "    \"speedup_compressed_vs_omp\": " << dec_speedup << "\n"
        << "  },\n"
        << "  \"duration_s\": " << duration_s
        << ",\n  \"points_per_s\": "
        << (duration_s > 0.0 ? static_cast<double>(runs) / duration_s : 0.0)
        << ",\n  \"omp\": " << bench::omp_instruments_json()
        << ",\n  \"host\": " << bench::host_json() << "\n}\n";
    std::cout << "[writing BENCH_sweep.json]\n";
  }
  return 0;
}

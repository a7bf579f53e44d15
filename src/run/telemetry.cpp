#include "run/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/log.hpp"
#include "obs/sidecar.hpp"
#include "util/atomic_io.hpp"

namespace efficsense::run {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double steady_seconds_between(std::chrono::steady_clock::time_point a,
                              std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Time constant of the settle-rate EWMA, in seconds.
constexpr double kEwmaTau_s = 10.0;

}  // namespace

std::string status_to_json(const StatusSnapshot& s) {
  std::ostringstream os;
  os << "{\"version\":" << s.version
     << ",\"updated_unix_s\":" << fmt_double(s.updated_unix_s)
     << ",\"interval_s\":" << fmt_double(s.interval_s) << ",\"journal\":\""
     << obs::json_escape(s.journal_path) << "\",\"shard\":\""
     << obs::json_escape(s.shard) << "\",\"total_points\":" << s.total_points
     << ",\"owned\":" << s.owned << ",\"committed\":" << s.committed
     << ",\"frontier\":" << s.frontier << ",\"resumed\":" << s.resumed
     << ",\"evaluated\":" << s.evaluated
     << ",\"quarantined\":" << s.quarantined << ",\"retried\":" << s.retried
     << ",\"complete\":" << (s.complete ? "true" : "false")
     << ",\"elapsed_s\":" << fmt_double(s.elapsed_s)
     << ",\"throughput_pps\":" << fmt_double(s.throughput_pps)
     << ",\"throughput_ewma_pps\":" << fmt_double(s.throughput_ewma_pps)
     << ",\"eta_s\":" << fmt_double(s.eta_s)
     << ",\"rss_bytes\":" << fmt_double(s.rss_bytes) << ",\"stages\":[";
  bool first = true;
  for (const auto& st : s.stages) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << obs::json_escape(st.name)
       << "\",\"count\":" << st.stats.count
       << ",\"sum_s\":" << fmt_double(st.stats.sum)
       << ",\"mean_s\":" << fmt_double(st.stats.mean)
       << ",\"p50_s\":" << fmt_double(st.stats.p50)
       << ",\"p90_s\":" << fmt_double(st.stats.p90)
       << ",\"p99_s\":" << fmt_double(st.stats.p99) << "}";
  }
  os << "]}\n";
  return os.str();
}

std::optional<StatusSnapshot> parse_status(const std::string& json) {
  using jsonf::bool_field;
  using jsonf::double_field;
  using jsonf::int_field;
  using jsonf::string_field;

  StatusSnapshot s;
  const auto version = int_field(json, "version");
  const auto updated = double_field(json, "updated_unix_s");
  const auto journal = string_field(json, "journal");
  const auto shard = string_field(json, "shard");
  const auto total = int_field(json, "total_points");
  const auto owned = int_field(json, "owned");
  const auto committed = int_field(json, "committed");
  const auto frontier = int_field(json, "frontier");
  const auto complete = bool_field(json, "complete");
  if (!version || !updated || !journal || !shard || !total || !owned ||
      !committed || !frontier || !complete) {
    return std::nullopt;
  }
  s.version = static_cast<std::uint32_t>(*version);
  s.updated_unix_s = *updated;
  s.interval_s = double_field(json, "interval_s").value_or(0.0);
  s.journal_path = *journal;
  s.shard = *shard;
  s.total_points = *total;
  s.owned = *owned;
  s.committed = *committed;
  s.frontier = *frontier;
  s.resumed = int_field(json, "resumed").value_or(0);
  s.evaluated = int_field(json, "evaluated").value_or(0);
  s.quarantined = int_field(json, "quarantined").value_or(0);
  s.retried = int_field(json, "retried").value_or(0);
  s.complete = *complete;
  s.elapsed_s = double_field(json, "elapsed_s").value_or(0.0);
  s.throughput_pps = double_field(json, "throughput_pps").value_or(0.0);
  s.throughput_ewma_pps =
      double_field(json, "throughput_ewma_pps").value_or(0.0);
  s.eta_s = double_field(json, "eta_s").value_or(0.0);
  s.rss_bytes = double_field(json, "rss_bytes").value_or(0.0);

  // The stage array is flat objects with unique-per-object keys, so split on
  // object boundaries inside "stages":[...] and reuse the field extractors.
  const auto stages_at = json.find("\"stages\":[");
  if (stages_at != std::string::npos) {
    std::size_t pos = stages_at + 10;
    const std::size_t end = json.find(']', pos);
    while (pos != std::string::npos && pos < end) {
      const std::size_t open = json.find('{', pos);
      if (open == std::string::npos || open >= end) break;
      const std::size_t close = json.find('}', open);
      if (close == std::string::npos) break;
      const std::string obj = json.substr(open, close - open + 1);
      StatusSnapshot::Stage st;
      st.name = string_field(obj, "name").value_or("");
      st.stats.count = int_field(obj, "count").value_or(0);
      st.stats.sum = double_field(obj, "sum_s").value_or(0.0);
      st.stats.mean = double_field(obj, "mean_s").value_or(0.0);
      st.stats.p50 = double_field(obj, "p50_s").value_or(0.0);
      st.stats.p90 = double_field(obj, "p90_s").value_or(0.0);
      st.stats.p99 = double_field(obj, "p99_s").value_or(0.0);
      if (!st.name.empty()) s.stages.push_back(std::move(st));
      pos = close + 1;
    }
  }
  return s;
}

std::optional<StatusSnapshot> read_status_file(const std::string& path) {
  const auto text = read_file(path);
  if (!text) return std::nullopt;
  return parse_status(*text);
}

bool status_is_stale(const StatusSnapshot& s, double now_unix_s) {
  if (s.complete) return false;
  const double interval = s.interval_s > 0.0 ? s.interval_s : 5.0;
  return now_unix_s - s.updated_unix_s > 3.0 * interval + 1.0;
}

std::string status_path_for(const std::string& journal_path) {
  if (journal_path.empty()) return "";
  if (const char* env = std::getenv("EFFICSENSE_STATUS")) {
    const std::string v(env);
    if (v == "off" || v == "none" || v == "0") return "";
    if (!v.empty()) return v;
  }
  return journal_path + ".status.json";
}

double status_interval_s_from_env() {
  double interval = 5.0;
  if (const char* env = std::getenv("EFFICSENSE_STATUS_INTERVAL")) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && v > 0.0) interval = v;
  }
  return std::max(0.05, interval);
}

void TelemetryState::configure(const JournalHeader& header,
                               std::uint64_t owned,
                               std::string journal_path) {
  std::lock_guard<std::mutex> lock(mutex_);
  header_ = header;
  journal_path_ = std::move(journal_path);
  owned_ = owned;
  settled_.assign(owned, 0);
  committed_ = 0;
  frontier_ = 0;
  resumed_ = 0;
  evaluated_ = 0;
  quarantined_ = 0;
  retried_ = 0;
  complete_ = false;
  start_ = std::chrono::steady_clock::now();
  ewma_points_ = 0.0;
  ewma_t_s_ = 0.0;
}

void TelemetryState::on_settled(std::uint64_t k, bool resumed,
                                bool quarantined, std::uint32_t attempts) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (k < settled_.size() && !settled_[k]) {
    settled_[k] = 1;
    ++committed_;
    while (frontier_ < settled_.size() && settled_[frontier_]) ++frontier_;
  }
  if (resumed) {
    ++resumed_;
  } else {
    ++evaluated_;
    // Points, not 1/dt per settlement: a burst of settlements microseconds
    // apart adds its count, and the count decays with elapsed time.
    const double t =
        steady_seconds_between(start_, std::chrono::steady_clock::now());
    ewma_points_ = ewma_points_ * std::exp(-(t - ewma_t_s_) / kEwmaTau_s) + 1.0;
    ewma_t_s_ = t;
  }
  if (quarantined) ++quarantined_;
  if (attempts > 1) ++retried_;
}

void TelemetryState::mark_complete() {
  std::lock_guard<std::mutex> lock(mutex_);
  complete_ = true;
}

std::uint64_t TelemetryState::committed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return committed_;
}

std::uint64_t TelemetryState::frontier() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frontier_;
}

StatusSnapshot TelemetryState::snapshot(double interval_s) const {
  const auto metrics = obs::MetricsSnapshot::capture();

  StatusSnapshot s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.updated_unix_s = metrics.taken_unix_s;
    s.interval_s = interval_s;
    s.journal_path = journal_path_;
    s.shard = header_.shard.to_string();
    s.total_points = header_.total_points;
    s.owned = owned_;
    s.committed = committed_;
    s.frontier = frontier_;
    s.resumed = resumed_;
    s.evaluated = evaluated_;
    s.quarantined = quarantined_;
    s.retried = retried_;
    s.complete = complete_;
    s.elapsed_s =
        steady_seconds_between(start_, std::chrono::steady_clock::now());
    if (s.elapsed_s > 1e-9) {
      s.throughput_pps = static_cast<double>(evaluated_) / s.elapsed_s;
    }
    // The decayed count over its weight window tau * (1 - e^(-t/tau)), so
    // the rate is unbiased from the first settlement on and falls while no
    // point settles.
    if (ewma_points_ > 0.0 && s.elapsed_s > 1e-9) {
      s.throughput_ewma_pps =
          ewma_points_ * std::exp(-(s.elapsed_s - ewma_t_s_) / kEwmaTau_s) /
          (kEwmaTau_s * -std::expm1(-s.elapsed_s / kEwmaTau_s));
    }
    const std::uint64_t remaining = owned_ > committed_ ? owned_ - committed_
                                                        : 0;
    const double rate =
        s.throughput_ewma_pps > 0.0 ? s.throughput_ewma_pps : s.throughput_pps;
    if (remaining > 0 && rate > 0.0) {
      s.eta_s = static_cast<double>(remaining) / rate;
    }
  }
  s.rss_bytes = metrics.rss_bytes;
  // Every stage row is always emitted (zeroed when its histogram has no
  // samples yet), so the JSON schema is stable from the first heartbeat on.
  const auto add_stage = [&](const char* name, const char* histogram) {
    StatusSnapshot::Stage st;
    st.name = name;
    if (const auto stats = metrics.stats(histogram)) st.stats = *stats;
    s.stages.push_back(std::move(st));
  };
  for (const auto& stage : kEvalStages) add_stage(stage.name, stage.histogram);
  add_stage("point", "run/point_eval_s");
  return s;
}

StatusWriter::StatusWriter(std::string path, double interval_s,
                           const TelemetryState* state)
    : path_(std::move(path)),
      interval_s_(interval_s > 0.0 ? std::max(0.05, interval_s)
                                   : status_interval_s_from_env()),
      state_(state) {
  write_now();
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::duration<double>(interval_s_),
                   [this] { return stop_; });
      if (stop_) break;
      lock.unlock();
      write_now();
      lock.lock();
    }
  });
}

StatusWriter::~StatusWriter() { stop(); }

void StatusWriter::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ && !thread_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  write_now();
}

void StatusWriter::write_now() const {
  if (path_.empty() || state_ == nullptr) return;
  try {
    atomic_write_file(path_, status_to_json(state_->snapshot(interval_s_)));
  } catch (const std::exception& e) {
    EFFICSENSE_LOG_WARN("could not write status snapshot",
                        {{"path", path_}, {"error", e.what()}});
  }
}

}  // namespace efficsense::run

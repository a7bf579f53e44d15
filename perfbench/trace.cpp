#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::intern(const std::string& name) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return std::uint32_t(i);
  }
  names_.push_back(name);
  return std::uint32_t(names_.size() - 1);
}

Tracer::ThreadBuffer& Tracer::local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    buffer->tid = std::uint32_t(buffers_.size() - 1);
    buffer->spans.reserve(1 << 12);
  }
  return *buffer;
}

std::int32_t Tracer::open(std::uint32_t name, std::uint64_t id) {
  ThreadBuffer& b = local();
  SpanRecord r;
  r.name = name;
  r.id = id;
  r.parent = b.stack.empty() ? -1 : b.stack.back();
  const auto slot = std::int32_t(b.spans.size());
  b.stack.push_back(slot);
  r.t0 = now_ns();
  b.spans.push_back(r);
  return slot;
}

void Tracer::close(std::int32_t slot) {
  const std::int64_t t1 = now_ns();
  ThreadBuffer& b = local();
  b.spans[std::size_t(slot)].t1 = t1;
  if (!b.stack.empty() && b.stack.back() == slot) b.stack.pop_back();
}

void Tracer::record(std::uint32_t name, std::int64_t t0, std::int64_t t1,
                    std::uint64_t id) {
  ThreadBuffer& b = local();
  SpanRecord r;
  r.name = name;
  r.t0 = t0;
  r.t1 = t1;
  r.id = id;
  r.parent = b.stack.empty() ? -1 : b.stack.back();
  b.spans.push_back(r);
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  for (auto& b : buffers_) {
    b->spans.clear();
    b->stack.clear();
  }
}

double Ledger::layer_self(const std::string& layer) const {
  double s = 0.0;
  for (const auto& [name, v] : self_s) {
    if (name.compare(0, layer.size(), layer) == 0 &&
        (name.size() == layer.size() || name[layer.size()] == '.')) {
      s += v;
    }
  }
  return s;
}

double Ledger::self(const std::string& name) const {
  const auto it = self_s.find(name);
  return it == self_s.end() ? 0.0 : it->second;
}

Ledger Tracer::ledger(std::int64_t w0, std::int64_t w1,
                      std::size_t executors) const {
  std::lock_guard lock(mutex_);
  Ledger L;
  L.window_s = double(w1 - w0) * 1e-9;
  L.executors = executors;
  std::vector<std::pair<std::int64_t, int>> edges;  // top-level open/close
  for (const auto& b : buffers_) {
    const auto& spans = b->spans;
    std::vector<double> child_s(spans.size(), 0.0);
    std::vector<bool> inside(spans.size(), false);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      inside[i] = s.t1 > w0 && s.t0 < w1;
      if (!inside[i]) continue;
      const double d = double(std::min(s.t1, w1) - std::max(s.t0, w0)) * 1e-9;
      if (s.parent >= 0) child_s[std::size_t(s.parent)] += d;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (!inside[i]) continue;
      const auto& s = spans[i];
      const double d = double(std::min(s.t1, w1) - std::max(s.t0, w0)) * 1e-9;
      double self = d - child_s[i];
      if (self < 0.0) {
        L.clipped_s -= self;
        self = 0.0;
      }
      const std::string& name = names_[s.name];
      L.self_s[name] += self;
      L.durations_s[name].push_back(double(s.t1 - s.t0) * 1e-9);
      if (s.parent < 0) {
        L.top_s += d;
        edges.emplace_back(std::max(s.t0, w0), +1);
        edges.emplace_back(std::min(s.t1, w1), -1);
      }
      ++L.spans;
    }
  }
  // Closing edges sort before opening ones at equal times.
  std::sort(edges.begin(), edges.end());
  int open = 0;
  for (const auto& [t, delta] : edges) {
    open += delta;
    L.max_concurrency = std::max(L.max_concurrency, std::size_t(std::max(open, 0)));
  }
  L.idle_s = double(executors) * L.window_s - L.top_s;
  return L;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  char line[256];
  for (const auto& b : buffers_) {
    for (const auto& s : b->spans) {
      std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"tid\":%u,\"t0_ns\":%lld,\"t1_ns\":%lld,"
                    "\"parent\":%d,\"id\":%llu}\n",
                    names_[s.name].c_str(), b->tid,
                    static_cast<long long>(s.t0), static_cast<long long>(s.t1),
                    s.parent, static_cast<unsigned long long>(s.id));
      out << line;
    }
  }
}

}  // namespace perfbench

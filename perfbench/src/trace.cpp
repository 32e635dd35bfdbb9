#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {

namespace {

struct ThreadBuf {
  std::vector<Span> spans;
  std::vector<std::uint32_t> open;  ///< indices into spans, innermost last
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_generation{0};
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<std::uint32_t> g_orphan_parent{0};
std::atomic<std::uint32_t> g_orphan_op{0};

std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadBuf>> g_buffers;  // guarded by g_mutex

thread_local ThreadBuf* tl_buf = nullptr;
thread_local std::uint64_t tl_generation = ~std::uint64_t{0};

ThreadBuf& buffer() {
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (tl_buf == nullptr || tl_generation != gen) {
    auto buf = std::make_unique<ThreadBuf>();
    tl_buf = buf.get();
    tl_generation = gen;
    std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(std::move(buf));
  }
  return *tl_buf;
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

bool is_op(const char* name) { return std::strncmp(name, "op.", 3) == 0; }

/// Layer of a span name ("sim.run" -> "sim").
std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot ? std::string(name, static_cast<std::size_t>(dot - name))
             : std::string(name);
}

/// Opens a span in the calling thread's buffer; returns its index + 1.
std::uint32_t open_span(const char* name, std::int64_t start) {
  ThreadBuf& buf = buffer();
  Span s;
  s.name = name;
  s.start_ns = start;
  s.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  if (buf.open.empty()) {
    s.parent = g_orphan_parent.load(std::memory_order_relaxed);
    s.op = g_orphan_op.load(std::memory_order_relaxed);
  } else {
    const Span& up = buf.spans[buf.open.back()];
    s.parent = up.id;
    s.op = up.op;
  }
  if (is_op(name)) s.op = s.id;
  buf.spans.push_back(s);
  return static_cast<std::uint32_t>(buf.spans.size());
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void start() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_buffers.clear();
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  g_orphan_parent.store(0);
  g_orphan_op.store(0);
  g_enabled.store(true, std::memory_order_release);
}

std::vector<Span> stop() {
  g_enabled.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<Span> all;
  for (const auto& buf : g_buffers) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  }
  g_buffers.clear();
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  return all;
}

Scope::Scope(const char* name, bool adopt_orphans) {
  if (!enabled()) return;
  index_ = open_span(name, now_ns());
  generation_ = tl_generation;
  ThreadBuf& buf = *tl_buf;
  buf.open.push_back(index_ - 1);
  if (adopt_orphans) {
    const Span& s = buf.spans[index_ - 1];
    adopted_ = true;
    prev_orphan_parent_ = g_orphan_parent.exchange(s.id);
    prev_orphan_op_ = g_orphan_op.exchange(s.op);
  }
}

Scope::~Scope() {
  // A collection that stopped or restarted meanwhile has freed the buffer.
  if (index_ == 0 || g_generation.load(std::memory_order_acquire) != generation_) {
    return;
  }
  ThreadBuf& buf = *tl_buf;
  buf.spans[index_ - 1].end_ns = now_ns();
  if (!buf.open.empty() && buf.open.back() == index_ - 1) buf.open.pop_back();
  if (adopted_) {
    g_orphan_parent.store(prev_orphan_parent_);
    g_orphan_op.store(prev_orphan_op_);
  }
}

void record(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled()) return;
  const std::uint32_t index = open_span(name, start_ns);
  tl_buf->spans[index - 1].end_ns = end_ns;
}

std::map<std::string, double> self_seconds_by_layer(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (const Span& s : spans) {
    const std::string layer = layer_of(s.name);
    if (layer == "op") continue;
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      cover.clear();
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) cover.emplace_back(a, b);
      }
      std::sort(cover.begin(), cover.end());
      std::int64_t run_a = 0, run_b = -1;
      for (const auto& [a, b] : cover) {
        if (a > run_b) {
          if (run_b > run_a) covered += run_b - run_a;
          run_a = a;
          run_b = b;
        } else {
          run_b = std::max(run_b, b);
        }
      }
      if (run_b > run_a) covered += run_b - run_a;
    }
    out[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

}  // namespace perfbench::trace

// In-memory spans for the traced run.
//
// A span is (name, start, end, parent, op): opened and closed by the
// harness around each call into a layer's public function, or recorded
// after the fact by the ResultStore decorator (traced_store.hpp) for the
// solves and simulations it sees bracketed by a store miss and the matching
// append. Nothing inside src/ is traced. Spans are appended to per-thread
// buffers (no lock on the hot path), kept in memory, and collected when the
// run ends. While tracing is off every call is one relaxed load.
//
// Names are "<layer>.<function>"; the layer is the prefix ("sim", "model",
// "core", "service", "topo"). The harness's own op spans use the layer
// "op" and are excluded from layer self times.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint32_t op = 0;      ///< id of the op span this work belongs to (0 = none)
};

std::int64_t now_ns();

/// Starts collecting (drops spans of any previous collection).
void start();
/// Stops collecting and returns every span recorded since start().
std::vector<Span> stop();

/// RAII span around one call. `adopt_orphans` makes this span the parent of
/// spans opened while it lives on threads with no open span of their own —
/// used for an op whose work the library fans out onto the thread pool.
class Scope {
 public:
  explicit Scope(const char* name, bool adopt_orphans = false);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint32_t index_ = 0;  ///< position in this thread's buffer + 1 (0 = off)
  std::uint64_t generation_ = 0;
  bool adopted_ = false;
  std::uint32_t prev_orphan_parent_ = 0;
  std::uint32_t prev_orphan_op_ = 0;
};

/// Records a finished span measured by the caller, under the calling
/// thread's open span.
void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

/// Self time per layer: each span's duration minus the part of it covered
/// by its children (union of the child intervals clipped to the span).
std::map<std::string, double> self_seconds_by_layer(const std::vector<Span>& spans);

/// Durations (ms) of every span with exactly this name.
std::vector<double> durations_ms(const std::vector<Span>& spans, const std::string& name);

}  // namespace perfbench::trace

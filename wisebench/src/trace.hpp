#pragma once
// In-memory span recorder for the traced run. The benchmark wraps its calls
// into the library's public API (Wise::prepare, PreparedMatrix::run,
// solve_cg and its SpMV operator, spmm_csr, Server::submit) in spans; each
// span has a layer, a name, start and end, its parent on the same thread and
// a request id. Spans stay in per-thread buffers and are written once, when
// the run ends. With tracing disabled a Span is one relaxed load.
#include <cstdint>
#include <string>
#include <vector>

namespace wisebench::trace {

enum class Layer : std::uint8_t {
  kGen,
  kExp,
  kWise,
  kSpmv,
  kSolvers,
  kSpmm,
  kServe,
};
inline constexpr int kLayerCount = 7;
const char* layer_name(Layer layer);

void set_enabled(bool on);
bool enabled();

/// RAII span on the calling thread; nests under the thread's open span.
class Span {
 public:
  Span(Layer layer, const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_ = -1;  ///< slot in the thread's buffer; -1 = off
};

/// Records an already-measured interval (e.g. submit → response on a serve
/// client) as a span with no children.
void record(Layer layer, const char* name, std::int64_t start_ns,
            std::int64_t end_ns, std::uint64_t request);

struct Summary {
  std::uint64_t spans = 0;
  double self_seconds[kLayerCount] = {};  ///< span time minus children
};
Summary summarize();

/// Writes every span as CSV: thread,index,parent,layer,name,request,
/// start_ns,end_ns. Spans of all threads are kept until then.
void write_csv(const std::string& path);

}  // namespace wisebench::trace

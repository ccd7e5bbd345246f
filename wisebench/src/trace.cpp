#include "trace.hpp"

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common.hpp"

namespace wisebench::trace {

namespace {

struct Record {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t request = 0;
  const char* name = "";
  std::int32_t parent = -1;
  Layer layer = Layer::kGen;
};

struct Buffer {
  std::vector<Record> spans;
  std::vector<std::int32_t> open;  ///< stack of unfinished span indices
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;  ///< one per thread, kept

Buffer& local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    buffer = g_buffers.back().get();
    buffer->spans.reserve(1 << 16);
  }
  return *buffer;
}

}  // namespace

const char* layer_name(Layer layer) {
  static const char* const kNames[kLayerCount] = {
      "gen", "exp", "wise", "spmv", "solvers", "spmm", "serve"};
  return kNames[static_cast<int>(layer)];
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(Layer layer, const char* name, std::uint64_t request) {
  if (!enabled()) return;
  Buffer& b = local();
  index_ = static_cast<std::int32_t>(b.spans.size());
  b.spans.push_back({.start = now_ns(),
                     .request = request,
                     .name = name,
                     .parent = b.open.empty() ? -1 : b.open.back(),
                     .layer = layer});
  b.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  Buffer& b = local();
  b.spans[static_cast<std::size_t>(index_)].end = now_ns();
  b.open.pop_back();
}

void record(Layer layer, const char* name, std::int64_t start_ns,
            std::int64_t end_ns, std::uint64_t request) {
  if (!enabled()) return;
  Buffer& b = local();
  b.spans.push_back({.start = start_ns,
                     .end = end_ns,
                     .request = request,
                     .name = name,
                     .parent = b.open.empty() ? -1 : b.open.back(),
                     .layer = layer});
}

Summary summarize() {
  std::lock_guard<std::mutex> lock(g_mutex);
  Summary s;
  for (const auto& b : g_buffers) {
    if (!b->open.empty()) throw std::logic_error("trace: span left open");
    s.spans += b->spans.size();
    for (const Record& r : b->spans) {
      const double d = static_cast<double>(r.end - r.start) * 1e-9;
      s.self_seconds[static_cast<int>(r.layer)] += d;
      if (r.parent >= 0) {
        const Record& p = b->spans[static_cast<std::size_t>(r.parent)];
        s.self_seconds[static_cast<int>(p.layer)] -= d;
      }
    }
  }
  return s;
}

void write_csv(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "thread,index,parent,layer,name,request,start_ns,end_ns\n";
  for (std::size_t t = 0; t < g_buffers.size(); ++t) {
    const auto& spans = g_buffers[t]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Record& r = spans[i];
      out << t << ',' << i << ',' << r.parent << ','
          << layer_name(r.layer) << ',' << r.name << ',' << r.request << ','
          << r.start << ',' << r.end << '\n';
    }
  }
}

}  // namespace wisebench::trace

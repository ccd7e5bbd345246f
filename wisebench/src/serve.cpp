// The serve phase: closed-loop clients against one warmed server. Most
// requests are warm kRun on a small hot set, a steady share is kPredict,
// and a fixed share cycles through a tail set larger than the prepared-cache
// budget, so those requests miss, prepare, insert and evict. The cold share
// sits well above 1% so p99 always falls inside the cold requests.
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "trace.hpp"
#include "util/prng.hpp"

namespace wisebench {

namespace {

using wise::serve::RequestKind;

constexpr double kColdShare = 0.03;
constexpr double kPredictShare = 0.12;

enum class Kind : std::uint8_t { kWarmRun, kPredict, kCold };

struct Sample {
  double latency = 0, queue = 0, service = 0, spmv = 0;
  Kind kind = Kind::kWarmRun;
};

struct Counters {
  wise::serve::ServerStats stats;
  wise::serve::CacheStats cache;
};

Counters read(const wise::serve::Server& s) {
  return {s.stats(), s.cache_stats()};
}

/// Sends requests one at a time while the window's `quota` lasts.
void send(Bench& b, wise::Xoshiro256& rng, std::uint64_t& request,
          std::atomic<int>& quota, std::atomic<std::uint64_t>& tail_cursor,
          std::vector<Sample>& samples, Tally& tally) {
  while (quota.fetch_sub(1) > 0) {
    const double u = rng.next_double();
    const Kind kind = u < kColdShare                     ? Kind::kCold
                      : u < kColdShare + kPredictShare   ? Kind::kPredict
                                                         : Kind::kWarmRun;
    const ServeMatrix& m =
        kind == Kind::kCold
            ? b.tail[tail_cursor.fetch_add(1) % b.tail.size()]
            : b.hot[rng.next_below(b.hot.size())];
    wise::serve::Request req;
    req.kind = kind == Kind::kPredict ? RequestKind::kPredict
                                      : RequestKind::kRun;
    req.matrix = m.m;
    req.fingerprint = m.fingerprint;

    const std::int64_t t0 = now_ns();
    const wise::serve::Response rsp = b.server->submit(std::move(req)).get();
    const std::int64_t t1 = now_ns();
    trace::record(trace::Layer::kServe, "request", t0, t1, ++request);

    tally.record(rsp.ok && rsp.config_name == m.config &&
                 (kind == Kind::kPredict || rsp.checksum == m.checksum));
    samples.push_back({static_cast<double>(t1 - t0) * 1e-9, rsp.queue_seconds,
                       rsp.service_seconds, rsp.spmv_seconds, kind});
  }
}

/// One step is one window of closed-loop traffic: a fixed number of
/// requests, so every window's p99 has the same number of samples beyond it
/// however fast the machine is. Throughput and latency quantiles are taken
/// per window and summarized over windows, like the kernel timings are over
/// batches.
class ServePhase final : public Phase {
 public:
  ServePhase(Bench& b, Tally& tally, std::vector<std::string>& choices)
      : b_(b),
        tally_(tally),
        before_(read(*b.server)),
        samples_(kServeClients),
        tallies_(kServeClients) {
    for (std::size_t i = 0; i < b.hot.size(); ++i) {
      choices.push_back("hot" + std::to_string(i) + "=" + b.hot[i].config);
    }
    for (std::size_t i = 0; i < b.tail.size(); ++i) {
      choices.push_back("tail" + std::to_string(i) + "=" + b.tail[i].config);
    }
    for (int c = 0; c < kServeClients; ++c) {
      clients_.emplace_back([this, c] { client(c); });
    }
  }

  ~ServePhase() override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      quit_ = true;
    }
    wake_.notify_all();
  }

  void step() override {
    const std::int64_t start = now_ns();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      quota_ = kWindowRequests;
      ++window_;
      running_ = kServeClients;
    }
    wake_.notify_all();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_.wait(lock, [&] { return running_ == 0; });
    }
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;

    std::vector<double> latency, queue, service, handoff, spmv;
    for (int c = 0; c < kServeClients; ++c) {
      tally_.attempted += tallies_[c].attempted;
      tally_.failed += tallies_[c].failed;
      tallies_[c] = {};
      for (const Sample& s : samples_[c]) {
        latency.push_back(s.latency);
        queue.push_back(s.queue);
        service.push_back(s.service);
        handoff.push_back(s.latency - s.queue - s.service);
        if (s.kind == Kind::kWarmRun) spmv.push_back(s.spmv);
        if (s.kind == Kind::kCold) cold_.push_back(s.latency);
      }
      samples_[c].clear();
    }
    // Only per-window summaries are kept, so memory does not grow with
    // throughput.
    total_samples_ += latency.size();
    seconds_per_request_.push_back(elapsed /
                                   static_cast<double>(latency.size()));
    p50_.push_back(quantile(latency, 0.5));
    // A window's p99 counts only with at least ten samples beyond it; a
    // window falls short only when a request threw, which is a failure.
    if (latency.size() >= 1000) p99_.push_back(quantile(latency, 0.99));
    queue_p50_.push_back(quantile(queue, 0.5));
    queue_p99_.push_back(quantile(queue, 0.99));
    service_p50_.push_back(quantile(service, 0.5));
    handoff_p50_.push_back(quantile(handoff, 0.5));
    if (!spmv.empty()) spmv_p50_.push_back(quantile(spmv, 0.5));
  }

  void finish(Metrics& out) override {
    if (p99_.empty() || cold_.empty()) {
      throw std::runtime_error("serve phase: too few samples for p99");
    }
    const Counters after = read(*b_.server);
    const auto hits = static_cast<double>(after.cache.prepared_hits -
                                          before_.cache.prepared_hits);
    const auto misses = static_cast<double>(after.cache.prepared_misses -
                                            before_.cache.prepared_misses);
    out.set("throughput_rps", 1 / median(seconds_per_request_), "1/s");
    out.set("latency_p50_ms", median(p50_) * 1e3, "ms");
    out.set("latency_p99_ms", median(p99_) * 1e3, "ms");
    out.set("serve.samples", static_cast<double>(total_samples_), "count");
    out.set("serve.queue_wait_us.p50", median(queue_p50_) * 1e6, "us");
    out.set("serve.queue_wait_us.p99", median(queue_p99_) * 1e6, "us");
    out.set("serve.service_us.p50", median(service_p50_) * 1e6, "us");
    out.set("serve.spmv_us.p50", median(spmv_p50_) * 1e6, "us");
    out.set("serve.handoff_us.p50", median(handoff_p50_) * 1e6, "us");
    out.set("serve.hit_ratio", hits / (hits + misses), "ratio");
    out.set("serve.prepares",
            static_cast<double>(after.stats.prepares - before_.stats.prepares),
            "count");
    out.set("serve.coalesced",
            static_cast<double>(after.stats.coalesced -
                                before_.stats.coalesced),
            "count");
    out.set("serve.evictions",
            static_cast<double>(after.cache.evictions -
                                before_.cache.evictions),
            "count");
    out.set("serve.cold_ms.p50", quantile(cold_, 0.5) * 1e3, "ms");
    out.set("serve.shards", static_cast<double>(b_.server->shard_count()),
            "count");
  }

 private:
  /// About 0.1 s of traffic on the reference machine.
  static constexpr int kWindowRequests = 2000;

  /// A persistent closed-loop client: waits for a window, sends until its
  /// quota is used up, reports back.
  void client(int id) {
    wise::Xoshiro256 rng(b_.opt.seed * 0x9e3779b97f4a7c15ull + id);
    std::uint64_t request = static_cast<std::uint64_t>(id + 1) << 48;
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return quit_ || window_ != seen; });
        if (quit_) return;
        seen = window_;
      }
      try {
        send(b_, rng, request, quota_, tail_cursor_, samples_[id],
             tallies_[id]);
      } catch (const std::exception&) {
        tallies_[id].record(false);  // counted, and the window still ends
      }
      std::lock_guard<std::mutex> lock(mutex_);
      if (--running_ == 0) done_.notify_one();
    }
  }

  Bench& b_;
  Tally& tally_;
  const Counters before_;
  std::atomic<std::uint64_t> tail_cursor_{0};
  std::vector<std::vector<Sample>> samples_;  ///< per client, this window
  std::vector<Tally> tallies_;
  std::mutex mutex_;
  std::condition_variable wake_, done_;
  std::atomic<int> quota_{0};  ///< requests left in this window
  std::uint64_t window_ = 0;  ///< guarded by mutex_, like the two below
  int running_ = 0;
  bool quit_ = false;
  std::size_t total_samples_ = 0;
  std::vector<double> seconds_per_request_, p50_, p99_;
  std::vector<double> queue_p50_, queue_p99_, service_p50_, spmv_p50_,
      handoff_p50_;
  std::vector<double> cold_;  ///< latency of every cold request
  std::vector<std::jthread> clients_;  ///< last: joined before the rest dies
};

}  // namespace

std::unique_ptr<Phase> make_serve_phase(Bench& b, Tally& tally,
                                        std::vector<std::string>& choices) {
  return std::make_unique<ServePhase>(b, tally, choices);
}

}  // namespace wisebench

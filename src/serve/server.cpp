#include "serve/server.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "features/extractor.hpp"
#include "obs/metrics.hpp"
#include "solvers/solvers.hpp"
#include "spmv/plan.hpp"
#include "util/aligned.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"
#include "util/lru.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"
#include "wise/speedup_class.hpp"

namespace wise::serve {

namespace {

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

// Ids interned once per process (first Server construction). By-name
// metric calls go through the registry mutex; the request path records
// exclusively through these pre-interned ids, which only touch the calling
// thread's slab.
struct ServeMetricIds {
  obs::MetricId request_count;
  obs::MetricId reject_count;
  obs::MetricId expired_count;
  obs::MetricId degraded_count;
  obs::MetricId coalesced_count;
  obs::MetricId queue_wait;
  obs::MetricId request_service;
};

const ServeMetricIds& serve_metric_ids() {
  static const ServeMetricIds ids = [] {
    auto& metrics = obs::MetricsRegistry::global();
    ServeMetricIds out;
    out.request_count = metrics.counter_id("serve.request.count");
    out.reject_count = metrics.counter_id("serve.request.reject.count");
    out.expired_count = metrics.counter_id("serve.deadline.expired.count");
    out.degraded_count = metrics.counter_id("serve.degraded.count");
    out.coalesced_count = metrics.counter_id("serve.coalesced.count");
    out.queue_wait = metrics.timer_id("serve.queue.wait");
    out.request_service = metrics.timer_id("serve.request.service");
    return out;
  }();
  return ids;
}

Response error_response(const Request& req, ErrorCategory category,
                        std::string message) {
  Response rsp;
  rsp.id = req.id;
  rsp.ok = false;
  rsp.category = category;
  rsp.error = std::move(message);
  return rsp;
}

std::uint64_t record_since(obs::MetricId id,
                           std::chrono::steady_clock::time_point start) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  obs::MetricsRegistry::global().record_ns(id,
                                           static_cast<std::uint64_t>(ns));
  return static_cast<std::uint64_t>(ns);
}

/// Resolved shard count: explicit values round down to a power of two in
/// [1, 256]; auto (0) additionally caps at both hardware concurrency and
/// the worker count, so a workers=1 server stays a single shard with the
/// pre-sharding single-queue semantics.
int resolve_shards(const ServerOptions& o) {
  int s = o.shards;
  if (s <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    s = static_cast<int>(
        std::min<unsigned>(hw, static_cast<unsigned>(std::max(1, o.workers))));
  }
  s = std::clamp(s, 1, 256);
  int pow2 = 1;
  while (pow2 * 2 <= s) pow2 *= 2;
  return pow2;
}

/// split_budget share with a floor of 1 when the total is bounded: a 0
/// share would mean "unbounded" to the cache, inverting the budget. Only
/// fires in the pathological total < shards case (then the shard sum
/// exceeds the configured total by at most shards-1 units).
std::size_t bounded_share(std::size_t share, std::size_t total) {
  if (total == 0) return 0;  // unbounded stays unbounded on every shard
  return std::max<std::size_t>(1, share);
}

}  // namespace

ServerOptions ServerOptions::from_env() {
  ServerOptions o;
  o.workers = static_cast<int>(env_int("WISE_SERVE_WORKERS", o.workers));
  o.queue_capacity = static_cast<std::size_t>(
      env_int("WISE_SERVE_QUEUE", static_cast<std::int64_t>(o.queue_capacity)));
  const std::string overflow = env_string("WISE_SERVE_OVERFLOW", "block");
  if (overflow == "reject") {
    o.overflow = OverflowPolicy::kReject;
  } else if (overflow != "block") {
    throw Error(ErrorCategory::kValidation,
                "WISE_SERVE_OVERFLOW: expected 'block' or 'reject', got '" +
                    overflow + "'");
  }
  o.cache_bytes = static_cast<std::size_t>(env_int(
      "WISE_SERVE_CACHE_BYTES", static_cast<std::int64_t>(o.cache_bytes)));
  o.choice_entries = static_cast<std::size_t>(env_int(
      "WISE_SERVE_CHOICE_ENTRIES", static_cast<std::int64_t>(o.choice_entries)));
  o.fingerprint_values = env_flag("WISE_SERVE_HASH_VALUES", false);
  o.default_deadline =
      std::chrono::milliseconds(env_int("WISE_SERVE_DEADLINE_MS", 0));
  o.shards = static_cast<int>(env_int("WISE_SERVE_SHARDS", 0));
  return o;
}

Server::Server(std::shared_ptr<const Wise> predictor, ServerOptions options)
    : options_(options) {
  if (!predictor) {
    throw std::invalid_argument("serve::Server: null predictor");
  }
  bank_.store(new BankSlot{std::move(predictor), 1},
              std::memory_order_seq_cst);
  serve_metric_ids();  // intern before the first request can record

  const std::size_t n = static_cast<std::size_t>(resolve_shards(options_));
  options_.shards = static_cast<int>(n);

  // Every per-shard resource is a base + round-robin-remainder split of the
  // configured total (util/lru.hpp split_budget), so the shard sums match
  // the configuration exactly; worker/queue/entry shares are floored at 1
  // because those totals must stay positive per shard.
  const auto worker_shares = split_budget(
      static_cast<std::size_t>(std::max(1, options_.workers)), n);
  const auto queue_shares = split_budget(options_.queue_capacity, n);
  const auto choice_shares = split_budget(options_.choice_entries, n);
  const auto byte_shares = split_budget(options_.cache_bytes, n);

  shards_.reserve(n);
  int total_threads = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int workers =
        static_cast<int>(std::max<std::size_t>(1, worker_shares[i]));
    const std::size_t queue =
        options_.queue_capacity == 0
            ? 0
            : std::max<std::size_t>(1, queue_shares[i]);
    shards_.push_back(std::make_unique<Shard>(
        bounded_share(choice_shares[i], options_.choice_entries),
        bounded_share(byte_shares[i], options_.cache_bytes), workers, queue));
    total_threads += shards_.back()->pool->thread_count();
  }

  auto& metrics = obs::MetricsRegistry::global();
  metrics.set_gauge("serve.workers", static_cast<double>(total_threads));
  metrics.set_gauge("serve.shards", static_cast<double>(n));
}

Server::~Server() {
  // Learners publish through this server and sample into it from worker
  // threads; stop them (joining their retrain threads) before the pools and
  // the bank slots go away.
  for (auto& l : learners_) {
    if (l) l->stop();
  }
  learner_raw_.store(nullptr, std::memory_order_release);
  shutdown(true);
  // Pools are joined: no reader can hold a pin into our slots anymore.
  delete bank_.load(std::memory_order_relaxed);
  for (auto& [slot, epoch] : retired_banks_) delete slot;
  retired_banks_.clear();
}

Server::BankSlot Server::acquire_bank() const {
  // Pin → load → copy: the copy of the shared_ptr happens while the pin
  // guarantees the slot is not freed; after that the shared_ptr itself
  // keeps the Wise alive regardless of slot reclamation.
  EpochDomain::Pin pin(EpochDomain::global());
  return *bank_.load(std::memory_order_seq_cst);
}

std::uint64_t Server::publish_bank(std::shared_ptr<const Wise> wise) {
  if (!wise) {
    throw std::invalid_argument("serve::Server::publish_bank: null bank");
  }
  std::lock_guard<std::mutex> lock(publish_mutex_);
  BankSlot* old = bank_.load(std::memory_order_seq_cst);
  auto* next = new BankSlot{std::move(wise), old->version + 1};
  bank_.store(next, std::memory_order_seq_cst);
  retired_banks_.emplace_back(old, EpochDomain::global().retire_epoch());

  // Reclaim every retired slot no pinned reader can still observe. Readers
  // that copied the shared_ptr before the swap keep serving the old bank —
  // only the slot shell is freed here.
  const std::uint64_t safe = EpochDomain::global().min_active();
  std::erase_if(retired_banks_, [safe](const auto& r) {
    if (safe < r.second) return false;
    delete r.first;
    return true;
  });

  // Cached choices and prepared entries embed the old bank's configurations;
  // drop them so post-swap traffic re-infers. In-flight RUNs keep their
  // entries alive through shared_ptr — nothing is interrupted.
  for (auto& shard : shards_) {
    shard->choice_cache.clear();
    shard->prepared_cache.clear();
  }
  obs::MetricsRegistry::global().set_gauge(
      "serve.bank.version", static_cast<double>(next->version));
  return next->version;
}

std::uint64_t Server::bank_version() const { return acquire_bank().version; }

std::shared_ptr<const Wise> Server::predictor() const {
  return acquire_bank().wise;
}

void Server::attach_learner(std::shared_ptr<learn::OnlineLearner> learner) {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  if (!learner) {
    learner_raw_.store(nullptr, std::memory_order_release);
    return;
  }
  BankSlot* slot = bank_.load(std::memory_order_seq_cst);
  learner->bind(
      [this](std::shared_ptr<const Wise> candidate) {
        return publish_bank(std::move(candidate));
      },
      slot->wise, slot->version);
  learner->start();
  learners_.push_back(std::move(learner));
  learner_raw_.store(learners_.back().get(), std::memory_order_release);
}

std::shared_ptr<learn::OnlineLearner> Server::learner() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return learners_.empty() ? nullptr : learners_.back();
}

void Server::set_spmm_bank(std::shared_ptr<const spmm::SpmmBank> bank) {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  spmm_bank_ = std::move(bank);
}

std::shared_ptr<const spmm::SpmmBank> Server::spmm_bank() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return spmm_bank_;
}

void Server::set_amortized(std::shared_ptr<const AmortizedWise> model) {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  amortized_ = std::move(model);
}

std::shared_ptr<const AmortizedWise> Server::amortized() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return amortized_;
}

std::size_t Server::shard_of(const Fingerprint& fp) const {
  // splitmix64-style finalizer over the fingerprint hash: home shards stay
  // uniform even when structure hashes share low bits (similar matrices).
  std::uint64_t z =
      static_cast<std::uint64_t>(FingerprintHash{}(fp)) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<std::size_t>(z & (shards_.size() - 1));
}

std::future<Response> Server::submit(Request req) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  auto& metrics = obs::MetricsRegistry::global();
  const auto& ids = serve_metric_ids();
  metrics.add(ids.request_count);

  // Fingerprinted requests go to their home shard (its caches and inflight
  // table live there); the rest round-robin across pools and re-home after
  // the worker hashes the matrix.
  Shard* shard =
      req.fingerprint.has_value()
          ? shards_[shard_of(*req.fingerprint)].get()
          : shards_[rr_.fetch_add(1, std::memory_order_relaxed) &
                    (shards_.size() - 1)]
                .get();

  if (!accepting_.load(std::memory_order_acquire)) {
    promise->set_value(error_response(req, ErrorCategory::kResource,
                                      "server is shutting down"));
    shard->counters.rejected.fetch_add(1, std::memory_order_relaxed);
    return future;
  }

  const auto enqueued = std::chrono::steady_clock::now();
  const auto deadline_ms =
      req.deadline.count() > 0 ? req.deadline : options_.default_deadline;
  const auto deadline =
      deadline_ms.count() > 0 ? enqueued + deadline_ms : kNoDeadline;

  const std::string id = req.id;
  auto task = [this, promise, shard, request = std::move(req), enqueued,
               deadline] {
    promise->set_value(process(*shard, request, enqueued, deadline));
  };

  const bool queued = options_.overflow == OverflowPolicy::kBlock
                          ? shard->pool->submit(task)
                          : shard->pool->try_submit(task);
  if (!queued) {
    metrics.add(ids.reject_count);
    // The rejected task was never enqueued but still owns a promise
    // reference; complete the request through our copy.
    Request rejected;
    rejected.id = id;
    promise->set_value(
        error_response(rejected, ErrorCategory::kResource,
                       options_.overflow == OverflowPolicy::kReject
                           ? "request queue is full"
                           : "server is shutting down"));
    shard->counters.rejected.fetch_add(1, std::memory_order_relaxed);
    return future;
  }
  shard->counters.accepted.fetch_add(1, std::memory_order_relaxed);
  return future;
}

Response Server::call(Request req) { return submit(std::move(req)).get(); }

void Server::shutdown(bool drain) {
  accepting_.store(false, std::memory_order_release);
  if (!drain) cancelled_.store(true, std::memory_order_release);
  for (auto& shard : shards_) shard->pool->drain_and_stop();
}

std::size_t Server::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& shard : shards_) depth += shard->pool->queue_depth();
  return depth;
}

ServerStats Server::stats() const {
  ServerStats s;
  for (const auto& shard : shards_) {
    const ShardCounters& c = shard->counters;
    s.accepted += c.accepted.load(std::memory_order_relaxed);
    s.completed += c.completed.load(std::memory_order_relaxed);
    s.rejected += c.rejected.load(std::memory_order_relaxed);
    s.expired += c.expired.load(std::memory_order_relaxed);
    s.failed += c.failed.load(std::memory_order_relaxed);
    s.degraded += c.degraded.load(std::memory_order_relaxed);
    s.coalesced += c.coalesced.load(std::memory_order_relaxed);
    s.prepares += c.prepares.load(std::memory_order_relaxed);
    s.sampled += c.sampled.load(std::memory_order_relaxed);
    s.spmm_requests += c.spmm_requests.load(std::memory_order_relaxed);
    s.sessions_active += c.sessions_active.load(std::memory_order_relaxed);
    s.sessions_completed +=
        c.sessions_completed.load(std::memory_order_relaxed);
    s.session_iters += c.session_iters.load(std::memory_order_relaxed);
  }
  // Gauges refresh here, off the request path (stats() is the poll point).
  obs::MetricsRegistry::global().set_gauge(
      "serve.queue.depth", static_cast<double>(queue_depth()));
  return s;
}

CacheStats Server::cache_stats() const {
  CacheStats cs;
  for (const auto& shard : shards_) {
    cs.choice_hits += shard->choice_cache.hits();
    cs.choice_misses += shard->choice_cache.misses();
    cs.choice_entries += shard->choice_cache.size();
    cs.prepared_hits += shard->prepared_cache.hits();
    cs.prepared_misses += shard->prepared_cache.misses();
    cs.prepared_entries += shard->prepared_cache.size();
    cs.prepared_bytes += shard->prepared_cache.bytes();
    cs.evictions += shard->prepared_cache.evictions();
  }
  auto& metrics = obs::MetricsRegistry::global();
  metrics.set_gauge("serve.cache.bytes",
                    static_cast<double>(cs.prepared_bytes));
  metrics.set_gauge("serve.cache.entries",
                    static_cast<double>(cs.prepared_entries));
  return cs;
}

MethodConfig Server::cheapest_csr_config(const Wise& wise) {
  const auto& configs = wise.bank().configs();
  const MethodConfig* best = nullptr;
  for (const MethodConfig& cfg : configs) {
    if (cfg.kind != MethodKind::kCsr) continue;
    if (best == nullptr || cfg.selection_rank() < best->selection_rank()) {
      best = &cfg;
    }
  }
  return best != nullptr ? *best : MethodConfig{};
}

std::shared_ptr<PreparedEntry> Server::prepare_entry(Shard& home,
                                                     const Request& req,
                                                     const Fingerprint& fp,
                                                     WiseChoice& choice,
                                                     bool preset) {
  home.counters.prepares.fetch_add(1, std::memory_order_relaxed);
  const std::size_t shard_budget = home.prepared_cache.budget();
  const BankSlot slot = acquire_bank();
  // A preset choice (the SOLVE path's amortized selection) is converted
  // as-is; otherwise the bank chooses as part of prepare.
  PreparedMatrix pm = preset
                          ? PreparedMatrix::prepare(*req.matrix, choice.config)
                          : slot.wise->prepare(*req.matrix, choice);
  if (shard_budget > 0 && choice.config.kind != MethodKind::kCsr &&
      prepared_entry_bytes(*req.matrix, pm) > shard_budget) {
    // A layout that alone overflows its shard's prepared-cache budget would
    // evict the shard's whole working set and still not be cacheable: serve
    // it (and cache it) as the cheapest CSR variant instead.
    choice.config = cheapest_csr_config(*slot.wise);
    choice.predicted_class = 0;
    choice.fallback_reason =
        "serve: converted layout exceeds WISE_SERVE_CACHE_BYTES budget of " +
        std::to_string(shard_budget) + " bytes";
    pm = PreparedMatrix::prepare(*req.matrix, choice.config);
    obs::MetricsRegistry::global().add(serve_metric_ids().degraded_count);
    home.counters.degraded.fetch_add(1, std::memory_order_relaxed);
  }

  auto entry = std::make_shared<PreparedEntry>();
  entry->matrix = req.matrix;
  entry->choice = choice;
  entry->bytes = prepared_entry_bytes(*req.matrix, pm);
  entry->prepared = std::move(pm);
  entry->bank_version = slot.version;
  // An amortized (preset) choice answers "best for N iterations", not the
  // bank's N-agnostic PREDICT — keep it out of the choice tier.
  if (!preset) home.choice_cache.put(fp, choice);
  home.prepared_cache.put(fp, entry);
  return entry;
}

std::shared_ptr<PreparedEntry> Server::prepare_or_join(Shard& home,
                                                       const Request& req,
                                                       const Fingerprint& fp,
                                                       Response& rsp,
                                                       bool preset) {
  std::promise<std::shared_ptr<PreparedEntry>> my_promise;
  std::shared_future<std::shared_ptr<PreparedEntry>> fut;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(home.inflight_mutex);
    // Double-check under the inflight lock: a leader publishes to the cache
    // *before* erasing its inflight slot, so a request arriving between
    // those two steps (or between its own miss and this lock) finds the
    // entry here instead of preparing again.
    if (auto cached = home.prepared_cache.peek(fp)) {
      rsp.prepared_cache_hit = true;
      rsp.choice = cached->choice;
      return cached;
    }
    auto it = home.inflight.find(fp);
    if (it != home.inflight.end()) {
      fut = it->second;
    } else {
      fut = my_promise.get_future().share();
      home.inflight.emplace(fp, fut);
      leader = true;
    }
  }

  if (!leader) {
    // Join the in-flight prepare: park on the leader's future. The leader's
    // failure (if any) rethrows here and surfaces as this request's error.
    rsp.coalesced = true;
    home.counters.coalesced.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::global().add(serve_metric_ids().coalesced_count);
    std::shared_ptr<PreparedEntry> entry = fut.get();
    rsp.choice = entry->choice;
    return entry;
  }

  try {
    std::shared_ptr<PreparedEntry> entry =
        prepare_entry(home, req, fp, rsp.choice, preset);
    my_promise.set_value(entry);
    std::lock_guard<std::mutex> lock(home.inflight_mutex);
    home.inflight.erase(fp);
    return entry;
  } catch (...) {
    my_promise.set_exception(std::current_exception());
    {
      std::lock_guard<std::mutex> lock(home.inflight_mutex);
      home.inflight.erase(fp);
    }
    throw;
  }
}

Response Server::run_prepared(Shard& home, const Request& req, Response rsp,
                              const std::shared_ptr<PreparedEntry>& entry) {
  const CsrMatrix& m = *entry->matrix;
  // The input vector is a pure function of the fingerprint, so a RUN served
  // cold and a RUN served from cache compute bit-identical answers — the
  // property the determinism stress test asserts.
  aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()));
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  Xoshiro256 rng(0x517e5eedull ^ rsp.fingerprint.structure);
  for (auto& v : x) v = static_cast<value_t>(rng.next_double());

  const int iters = std::max(1, req.iters);
  {
    // Lock-free concurrent RUNs of one cached entry: everything a run
    // touches is immutable after prepare except the gather scratch buffer,
    // which each worker thread brings itself.
    static thread_local SrvWorkspace run_ws;
    Timer t;
    for (int i = 0; i < iters; ++i) entry->prepared.run(x, y, run_ws);
    rsp.spmv_seconds = t.seconds() / iters;
  }
  double sum = 0;
  for (const value_t v : y) sum += static_cast<double>(v);
  rsp.checksum = sum;

  // Online-learning tap: a sampled RUN additionally times the CSR baseline
  // on the same input, which turns (predicted class, measured relative
  // time) into a labeled observation. Gated by one atomic load when no
  // learner is attached.
  auto* lr = learner_raw_.load(std::memory_order_acquire);
  if (lr != nullptr && lr->should_sample()) {
    observe_run(home, req, rsp, entry, {x.data(), x.size()});
  }
  return rsp;
}

void Server::observe_run(Shard& home, const Request& req, const Response& rsp,
                         const std::shared_ptr<PreparedEntry>& entry,
                         std::span<const value_t> x) {
  auto* lr = learner_raw_.load(std::memory_order_acquire);
  if (lr == nullptr) return;
  // Fallback choices carry no feature vector (pipeline degraded before
  // inference) — there is nothing to retrain on.
  if (!entry->choice.features) return;
  try {
    const CsrMatrix& m = *entry->matrix;
    // Label against the same baseline the training pipeline uses: the
    // library-default CSR configuration, on the same input vector and
    // iteration count as the request itself.
    PreparedMatrix baseline = PreparedMatrix::prepare(m, MethodConfig{});
    aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
    static thread_local SrvWorkspace baseline_ws;
    const int iters = std::max(1, req.iters);
    Timer t;
    for (int i = 0; i < iters; ++i) baseline.run(x, y, baseline_ws);
    const double baseline_per_iter = t.seconds() / iters;
    if (baseline_per_iter <= 0.0) return;

    learn::Sample s;
    s.fingerprint = rsp.fingerprint.structure;
    s.bank_version = entry->bank_version;
    s.predicted_class = entry->choice.predicted_class;
    s.rel_time = rsp.spmv_seconds / baseline_per_iter;
    s.observed_class = classify_relative_time(s.rel_time);
    s.config_name = entry->choice.config.name();
    s.features = *entry->choice.features;
    lr->observe(s);
    home.counters.sampled.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    // Sampling rides on a successful request; it must never fail one.
  }
}

Response Server::process_spmm(Shard& home, const Request& req, Response rsp) {
  const CsrMatrix& m = *req.matrix;
  const index_t k = static_cast<index_t>(std::clamp(req.rhs_cols, 1, 64));
  const auto bank = spmm_bank();
  rsp.bank_version = bank_version();

  spmm::SpmmChoice choice;
  std::shared_ptr<const std::vector<double>> features;
  if (bank != nullptr && bank->trained()) {
    auto fv =
        std::make_shared<std::vector<double>>(extract_features(m).values);
    choice = bank->choose(*fv);
    features = std::move(fv);
    rsp.choice.predicted_class = choice.predicted_class;
  } else {
    choice.config = spmm::spmm_method_configs()[0];
    rsp.choice.fallback_reason =
        "spmm: no bank installed; serving the kb=1 baseline";
  }
  rsp.config_name = choice.config.name();

  // Seeded like kRun: the RHS is a pure function of the fingerprint, so
  // repeated SPMMs of one matrix are bit-identical at any shard count.
  aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()) *
                            static_cast<std::size_t>(k));
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()) *
                            static_cast<std::size_t>(k));
  Xoshiro256 rng(0x517e5eedull ^ rsp.fingerprint.structure);
  for (auto& v : x) v = static_cast<value_t>(rng.next_double());

  const int iters = std::max(1, req.iters);
  const SpmvPlan plan =
      build_csr_plan(m, choice.config.sched, omp_get_max_threads(), false);
  Timer t;
  for (int i = 0; i < iters; ++i) {
    spmm::spmm_csr(m, x, y, k, choice.config, plan);
  }
  rsp.spmv_seconds = t.seconds() / iters;
  double sum = 0;
  for (const value_t v : y) sum += static_cast<double>(v);
  rsp.checksum = sum;
  home.counters.spmm_requests.fetch_add(1, std::memory_order_relaxed);

  auto* lr = learner_raw_.load(std::memory_order_acquire);
  if (lr != nullptr && features != nullptr && lr->should_sample()) {
    observe_spmm(home, rsp, choice, features, m, x, y, k, iters,
                 rsp.spmv_seconds);
  }
  return rsp;
}

void Server::observe_spmm(
    Shard& home, const Response& rsp, const spmm::SpmmChoice& choice,
    const std::shared_ptr<const std::vector<double>>& features,
    const CsrMatrix& m, std::span<const value_t> x, std::span<value_t> y,
    index_t k, int iters, double chosen_per_iter) {
  auto* lr = learner_raw_.load(std::memory_order_acquire);
  if (lr == nullptr || features == nullptr) return;
  try {
    // Label against the SpMM training baseline: kb=1/Dyn, i.e. k repeated
    // plan-SpMVs, on the same RHS.
    const spmm::SpmmConfig& baseline = spmm::spmm_method_configs()[0];
    Timer t;
    for (int i = 0; i < iters; ++i) {
      spmm::spmm_csr(m, x, y, k, baseline);
    }
    const double baseline_per_iter = t.seconds() / iters;
    if (baseline_per_iter <= 0.0 || chosen_per_iter <= 0.0) return;

    learn::Sample s;
    s.fingerprint = rsp.fingerprint.structure;
    s.bank_version = rsp.bank_version;
    s.predicted_class = choice.predicted_class;
    s.rel_time = chosen_per_iter / baseline_per_iter;
    s.observed_class = classify_relative_time(s.rel_time);
    s.config_name = choice.config.name();
    s.features = *features;
    s.workload_class = static_cast<std::uint8_t>(learn::WorkloadClass::kSpmm);
    lr->observe(s);
    home.counters.sampled.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    // Sampling rides on a successful request; it must never fail one.
  }
}

Response Server::process_solve(Shard& home, const Request& req, Response rsp) {
  const CsrMatrix& m = *req.matrix;
  if (m.nrows() != m.ncols()) {
    throw Error(ErrorCategory::kValidation,
                "SOLVE requires a square matrix", {.stage = stage::kServe});
  }
  home.counters.sessions_active.fetch_add(1, std::memory_order_relaxed);
  struct ActiveGuard {
    std::atomic<std::uint64_t>& active;
    ~ActiveGuard() { active.fetch_sub(1, std::memory_order_relaxed); }
  } guard{home.counters.sessions_active};

  const int max_iters = std::max(1, req.iters);

  // Warm session: the layout a previous session (or RUN) prepared for this
  // fingerprint serves every iteration — no choose, no prepare. This cache
  // hit IS the amortization the solve-session perf stage measures.
  std::shared_ptr<PreparedEntry> entry =
      home.prepared_cache.get(rsp.fingerprint);
  if (entry != nullptr) {
    rsp.prepared_cache_hit = true;
    rsp.choice = entry->choice;
  } else {
    const auto model = amortized();
    bool preset = false;
    if (model != nullptr && model->trained()) {
      try {
        auto fv =
            std::make_shared<std::vector<double>>(extract_features(m).values);
        const AmortizedChoice ac =
            model->choose(*fv, static_cast<double>(max_iters));
        rsp.choice = WiseChoice{};
        rsp.choice.config = ac.config;
        rsp.choice.predicted_class = ac.speed_class;
        rsp.choice.features = std::move(fv);
        preset = true;
      } catch (const std::exception&) {
        preset = false;  // degrade to the bank's N-agnostic choose
      }
    }
    entry = prepare_or_join(home, req, rsp.fingerprint, rsp, preset);
  }
  rsp.bank_version = entry->bank_version;

  // Time each SpMV through the operator wrapper: the per-SpMV cost is what
  // the amortized model predicted, and what a sampled session is labeled
  // with (the solver's vector work is excluded from the label).
  static thread_local SrvWorkspace solve_ws;
  double spmv_total = 0;
  int spmv_calls = 0;
  const SpmvOperator op = [&](std::span<const value_t> vx,
                              std::span<value_t> vy) {
    Timer t;
    entry->prepared.run(vx, vy, solve_ws);
    spmv_total += t.seconds();
    ++spmv_calls;
  };

  // b is a pure function of the fingerprint (same seed family as kRun), so
  // a warm session reproduces a cold session's iterates bit for bit.
  aligned_vector<value_t> b(static_cast<std::size_t>(m.nrows()));
  Xoshiro256 rng(0x517e5eedull ^ rsp.fingerprint.structure);
  for (auto& v : b) v = static_cast<value_t>(rng.next_double());

  SolverOptions sopts;
  sopts.max_iterations = max_iters;
  SolverResult result;
  Timer solve_t;
  if (req.solver == "jacobi") {
    aligned_vector<value_t> diag(static_cast<std::size_t>(m.nrows()), 0.0);
    const nnz_t* rp = m.row_ptr().data();
    const index_t* ci = m.col_idx().data();
    const value_t* va = m.vals().data();
    for (index_t i = 0; i < m.nrows(); ++i) {
      for (nnz_t p = rp[i]; p < rp[i + 1]; ++p) {
        if (ci[p] == i) diag[static_cast<std::size_t>(i)] = va[p];
      }
    }
    result = solve_jacobi(op, diag, b, sopts);
  } else if (req.solver == "bicgstab") {
    result = solve_bicgstab(op, b, sopts);
  } else if (req.solver == "cg") {
    result = solve_cg(op, b, sopts);
  } else {
    throw Error(ErrorCategory::kValidation,
                "unknown solver '" + req.solver +
                    "' (expected cg, jacobi, or bicgstab)",
                {.stage = stage::kServe});
  }
  const double solve_seconds = solve_t.seconds();

  rsp.solve_iterations = result.iterations;
  rsp.residual_norm = result.residual_norm;
  rsp.converged = result.converged;
  rsp.spmv_seconds = result.iterations > 0
                         ? solve_seconds / result.iterations
                         : solve_seconds;
  double sum = 0;
  for (const value_t v : result.x) sum += static_cast<double>(v);
  rsp.checksum = sum;

  home.counters.sessions_completed.fetch_add(1, std::memory_order_relaxed);
  home.counters.session_iters.fetch_add(
      static_cast<std::uint64_t>(std::max(0, result.iterations)),
      std::memory_order_relaxed);

  auto* lr = learner_raw_.load(std::memory_order_acquire);
  if (lr != nullptr && spmv_calls > 0 && entry->choice.features != nullptr &&
      lr->should_sample()) {
    observe_session(home, rsp, entry, b, spmv_total / spmv_calls);
  }
  return rsp;
}

void Server::observe_session(Shard& home, const Response& rsp,
                             const std::shared_ptr<PreparedEntry>& entry,
                             std::span<const value_t> b,
                             double chosen_per_spmv) {
  auto* lr = learner_raw_.load(std::memory_order_acquire);
  if (lr == nullptr || entry->choice.features == nullptr) return;
  try {
    const CsrMatrix& m = *entry->matrix;
    PreparedMatrix baseline = PreparedMatrix::prepare(m, MethodConfig{});
    aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
    static thread_local SrvWorkspace baseline_ws;
    const int iters = std::clamp(rsp.solve_iterations, 1, 4);
    Timer t;
    for (int i = 0; i < iters; ++i) baseline.run(b, y, baseline_ws);
    const double baseline_per_iter = t.seconds() / iters;
    if (baseline_per_iter <= 0.0 || chosen_per_spmv <= 0.0) return;

    learn::Sample s;
    s.fingerprint = rsp.fingerprint.structure;
    s.bank_version = entry->bank_version;
    s.predicted_class = entry->choice.predicted_class;
    s.rel_time = chosen_per_spmv / baseline_per_iter;
    s.observed_class = classify_relative_time(s.rel_time);
    s.config_name = entry->choice.config.name();
    s.features = *entry->choice.features;
    s.workload_class =
        static_cast<std::uint8_t>(learn::WorkloadClass::kSession);
    lr->observe(s);
    home.counters.sampled.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    // Sampling rides on a successful request; it must never fail one.
  }
}

Response Server::process(Shard& exec, const Request& req,
                         std::chrono::steady_clock::time_point enqueued,
                         std::chrono::steady_clock::time_point deadline) {
  if (options_.before_process) options_.before_process(req);
  auto& metrics = obs::MetricsRegistry::global();
  const auto& ids = serve_metric_ids();
  const std::uint64_t wait_ns = record_since(ids.queue_wait, enqueued);

  Response rsp;
  const auto finish = [&](Response r) {
    r.queue_seconds = static_cast<double>(wait_ns) * 1e-9;
    exec.counters.completed.fetch_add(1, std::memory_order_relaxed);
    if (!r.ok) exec.counters.failed.fetch_add(1, std::memory_order_relaxed);
    return r;
  };

  if (cancelled_.load(std::memory_order_acquire)) {
    return finish(error_response(req, ErrorCategory::kResource,
                                 "server shut down before the request ran"));
  }
  if (deadline != kNoDeadline && std::chrono::steady_clock::now() > deadline) {
    metrics.add(ids.expired_count);
    exec.counters.expired.fetch_add(1, std::memory_order_relaxed);
    return finish(error_response(req, ErrorCategory::kResource,
                                 "deadline expired while queued"));
  }

  Timer service;
  try {
    obs::ScopedTimer span(ids.request_service, metrics);
    FaultInjector::global().maybe_throw(stage::kServe,
                                        ErrorCategory::kResource);
    if (!req.matrix) {
      throw Error(ErrorCategory::kValidation, "request carries no matrix",
                  {.stage = stage::kServe});
    }
    rsp.id = req.id;
    rsp.fingerprint =
        req.fingerprint.has_value()
            ? *req.fingerprint
            : fingerprint_matrix(*req.matrix, options_.fingerprint_values);
    // Per-fingerprint state always lives on the fingerprint's home shard —
    // for unfingerprinted requests that may differ from the pool that runs
    // the task, so resolve it from the hash just computed.
    Shard& home = *shards_[shard_of(rsp.fingerprint)];

    if (req.kind == RequestKind::kPredict) {
      if (auto cached = home.choice_cache.get(rsp.fingerprint)) {
        rsp.choice = *cached;
        rsp.choice_cache_hit = true;
        // Caches are cleared on publish, so a cached choice belongs to the
        // current bank (modulo a benign swap race: the entry was valid when
        // cached and the version is observability, not a correctness key).
        rsp.bank_version = bank_version();
      } else {
        const BankSlot slot = acquire_bank();
        rsp.choice = slot.wise->choose(*req.matrix);
        rsp.bank_version = slot.version;
        home.choice_cache.put(rsp.fingerprint, rsp.choice);
      }
    } else if (req.kind == RequestKind::kSpmm) {
      rsp = process_spmm(home, req, std::move(rsp));
    } else if (req.kind == RequestKind::kSolve) {
      rsp = process_solve(home, req, std::move(rsp));
    } else {
      std::shared_ptr<PreparedEntry> entry =
          home.prepared_cache.get(rsp.fingerprint);
      if (entry != nullptr) {
        rsp.prepared_cache_hit = true;
        rsp.choice = entry->choice;
      } else {
        entry = prepare_or_join(home, req, rsp.fingerprint, rsp);
      }
      rsp.bank_version = entry->bank_version;
      if (req.kind == RequestKind::kRun) {
        rsp = run_prepared(home, req, std::move(rsp), entry);
      }
    }
    // kSpmm names its SpmmConfig itself; everything else echoes the choice.
    if (rsp.config_name.empty()) {
      rsp.config_name = rsp.choice.config.name();
    }
    rsp.ok = true;
  } catch (const Error& e) {
    rsp = error_response(req, e.category(), e.what());
  } catch (const std::exception& e) {
    rsp = error_response(req, ErrorCategory::kResource, e.what());
  }
  rsp.service_seconds = service.seconds();
  return finish(std::move(rsp));
}

}  // namespace wise::serve

#pragma once
// Concurrent prediction server — the long-lived, multi-tenant front half of
// the WISE pipeline (ROADMAP: "serves heavy traffic").
//
// The server is SHARDED: the fingerprint space is partitioned across N
// shards (N = WISE_SERVE_SHARDS, default: hardware concurrency rounded
// down to a power of two and capped by the worker count). Each shard owns
// its own slice of the serving state — a ChoiceCache, a byte-budgeted
// PreparedCache slice, a worker pool, and an in-flight prepare table — so
// independent hot matrices never touch each other's locks or cache lines.
// submit() routes a fingerprinted request to its home shard by mixing the
// fingerprint bits; requests without a precomputed fingerprint are
// round-robined across pools and re-homed to the owning shard's caches
// once the worker has hashed the matrix.
//
// Within a shard the warm path is lock-FREE, not merely lock-light: both
// cache tiers read through epoch-protected copy-on-write tables
// (util/epoch_lru.hpp), and cached entries execute SpMV through the
// const-thread-safe PreparedMatrix::run overload with a per-thread
// workspace — a warm PREDICT or RUN takes zero mutexes end to end. Server
// counters are per-shard relaxed atomics, aggregated only when stats() is
// called.
//
// Cold misses COALESCE: concurrent requests for the same not-yet-prepared
// fingerprint register on the shard's in-flight table and share one
// prepare — one leader converts the layout, the others park on a
// shared_future and reuse its entry (Response::coalesced). A stampede of
// K identical cold requests costs one conversion, not K.
//
// Request lifecycle:
//   submit() fingerprints nothing and copies nothing — it enqueues the
//   request (shared_ptr to the matrix) and returns a std::future<Response>.
//   When the home shard's queue is full the overflow policy decides: kBlock
//   parks the caller until a slot frees; kReject completes the future
//   immediately with a kResource error. A worker that dequeues an expired
//   request (its deadline passed while queued) completes it with a
//   kResource error without doing the work — deadlines are admission
//   control, not preemption. shutdown(drain=true) stops intake and
//   completes every queued request; shutdown(drain=false) stops intake and
//   completes queued requests with a "shutting down" error (the work is
//   skipped, the future is still fulfilled — promises are never broken).
//
// Degradation: when a converted layout alone would overflow its shard's
// prepared-cache byte budget, the server re-prepares with the bank's
// cheapest CSR configuration instead (fallback_reason "serve: ..."),
// mirroring the pipeline's degrade-don't-die contract. The "serve"
// fault-injection stage (WISE_FAULT_STAGES=serve) makes the overload error
// path deterministic in tests.
//
// Metrics (see docs/SERVING.md): serve.request.count/.reject/.expired,
// serve.degraded.count, serve.coalesced.count, serve.queue.wait +
// serve.request.service timers, the serve.cache.* family from cache.hpp,
// and the serve.shards/serve.workers/serve.queue.depth gauges (queue depth
// and cache gauges refresh on stats()/cache_stats(), keeping gauge writes
// off the request path).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "learn/online.hpp"
#include "serve/cache.hpp"
#include "serve/fingerprint.hpp"
#include "spmm/model.hpp"
#include "util/epoch.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "wise/amortized.hpp"
#include "wise/pipeline.hpp"

namespace wise::serve {

enum class RequestKind {
  kPredict,  ///< choose() only: selection + predicted class
  kPrepare,  ///< choose() + layout conversion, result cached
  kRun,      ///< kPrepare + `iters` SpMV iterations on a seeded vector
  /// Blocked SpMM on a seeded `rhs_cols`-column dense RHS, configuration
  /// chosen by the SpMM bank (set_spmm_bank; src/spmm/). Served from the
  /// CSR arrays directly — no prepared-cache entry — so only the choice is
  /// model work.
  kSpmm,
  /// One whole iterative solve (src/solvers/) as a single request: choose
  /// once with the amortized dual-model selector (set_amortized;
  /// src/wise/amortized.hpp) using `iters` as the expected iteration
  /// count, prepare once into the shard's prepared cache, then run every
  /// solver iteration on that layout. A warm session (fingerprint already
  /// prepared) skips choose AND prepare — the paper's "one-time selection,
  /// many iterations" amortization, measured by the solve-session perf
  /// stage.
  kSolve,
};

enum class OverflowPolicy {
  kBlock,   ///< submit() blocks until the queue has room
  kReject,  ///< submit() completes the future with a kResource error
};

struct Request;

struct ServerOptions {
  int workers = 4;  ///< total across shards
  std::size_t queue_capacity = 64;  ///< total across shards; 0 = unbounded
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  std::size_t cache_bytes = 256u << 20;  ///< prepared-tier budget; 0 = unbounded
  std::size_t choice_entries = 1024;     ///< choice-tier entry cap
  bool fingerprint_values = false;  ///< hash values too (RUN-heavy loads)
  std::chrono::milliseconds default_deadline{0};  ///< 0 = none
  /// Shard count; non-powers-of-two round down, clamped to [1, 256].
  /// 0 = auto: hardware concurrency, capped by `workers`, rounded down to a
  /// power of two — so a workers=1 server is a single shard with a single
  /// queue, exactly the pre-sharding semantics. The resolved value is
  /// reported by options().shards after construction.
  int shards = 0;

  /// Test-only: when set, a worker calls it with each request it dequeues,
  /// before the deadline check. A test uses it to hold the worker on a
  /// latch so queueing and expiry do not depend on timing.
  std::function<void(const Request&)> before_process;

  /// Reads WISE_SERVE_WORKERS, WISE_SERVE_QUEUE, WISE_SERVE_OVERFLOW
  /// (block|reject), WISE_SERVE_CACHE_BYTES, WISE_SERVE_CHOICE_ENTRIES,
  /// WISE_SERVE_HASH_VALUES, WISE_SERVE_DEADLINE_MS, WISE_SERVE_SHARDS
  /// over these defaults.
  static ServerOptions from_env();
};

struct Request {
  RequestKind kind = RequestKind::kPredict;
  std::shared_ptr<const CsrMatrix> matrix;
  std::string id;  ///< caller tag (e.g. file path), echoed in the response
  /// kRun: SpMV iterations. kSpmm: SpMM iterations. kSolve: the solver's
  /// max iteration count AND the amortized selector's expected-N.
  int iters = 1;
  int rhs_cols = 4;  ///< kSpmm: dense RHS column count, clamped to [1, 64]
  /// kSolve: "cg" (default), "jacobi", or "bicgstab".
  std::string solver = "cg";
  /// Per-request deadline override; 0 uses ServerOptions::default_deadline.
  std::chrono::milliseconds deadline{0};
  /// Precomputed cache key, trusted verbatim. The hash is an O(nnz) pass,
  /// so callers that load a matrix once and send many requests against it
  /// (the daemon's loader, steady-state clients) compute it at load time;
  /// leave unset and the worker hashes per request. Also the shard router:
  /// fingerprinted requests go straight to their home shard's queue.
  std::optional<Fingerprint> fingerprint;
};

struct Response {
  bool ok = false;
  std::string id;
  std::string error;  ///< empty when ok
  ErrorCategory category = ErrorCategory::kValidation;  ///< valid when !ok

  WiseChoice choice;        ///< selection outcome (kPredict/kPrepare/kRun)
  std::string config_name;  ///< choice.config.name()
  Fingerprint fingerprint;
  bool choice_cache_hit = false;
  bool prepared_cache_hit = false;
  /// This request's prepare was satisfied by another in-flight request for
  /// the same fingerprint (it waited instead of converting).
  bool coalesced = false;

  double queue_seconds = 0;    ///< time spent waiting for a worker
  double service_seconds = 0;  ///< worker time (fingerprint → done)
  /// kRun/kSpmm: mean seconds per iteration. kSolve: mean seconds per
  /// solver iteration (SpMV + vector work).
  double spmv_seconds = 0;
  /// kRun: sum of the final y. kSpmm: sum of the final Y block. kSolve:
  /// sum of the solution x. Bit-stable across cache temperature and shard
  /// count (the determinism contract).
  double checksum = 0;
  int solve_iterations = 0;  ///< kSolve: iterations the solver executed
  double residual_norm = 0;  ///< kSolve: final ||b - Ax||_2
  bool converged = false;    ///< kSolve: tolerance reached before `iters`
  /// Version of the model bank that served this request (hot-swap
  /// observability; the initial bank is version 1).
  std::uint64_t bank_version = 0;
};

/// Monotonic server counters (separate from the obs registry so STATS works
/// even with metrics disabled). Aggregated across shards at read time.
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;  ///< queue-full rejections
  std::uint64_t expired = 0;   ///< deadline passed while queued
  std::uint64_t failed = 0;    ///< completed with !ok (incl. expired)
  std::uint64_t degraded = 0;  ///< serve-level CSR demotions
  std::uint64_t coalesced = 0;  ///< requests that joined an in-flight prepare
  std::uint64_t prepares = 0;   ///< layout conversions actually executed
  std::uint64_t sampled = 0;    ///< RUNs observed by the online learner
  std::uint64_t spmm_requests = 0;   ///< kSpmm requests completed
  std::uint64_t sessions_active = 0;     ///< kSolve sessions running now
  std::uint64_t sessions_completed = 0;  ///< kSolve sessions finished
  std::uint64_t session_iters = 0;  ///< solver iterations across sessions
};

class Server {
 public:
  /// `predictor` is shared with the caller and must stay alive while the
  /// server runs; it is used strictly through const methods.
  explicit Server(std::shared_ptr<const Wise> predictor,
                  ServerOptions options = {});

  /// Drains and stops (shutdown(true)).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues `req` (see class comment for backpressure/deadline rules).
  /// The returned future is always eventually completed with a Response —
  /// rejections and shutdowns produce !ok responses, never exceptions.
  std::future<Response> submit(Request req);

  /// submit() + wait.
  Response call(Request req);

  /// Stops intake; with `drain` runs every queued request to completion,
  /// without it completes queued requests with a shutdown error. Idempotent.
  void shutdown(bool drain = true);

  ServerStats stats() const;
  CacheStats cache_stats() const;
  const ServerOptions& options() const { return options_; }
  std::size_t queue_depth() const;

  /// Resolved shard count (options().shards after auto-resolution).
  std::size_t shard_count() const { return shards_.size(); }
  /// Home shard index for a fingerprint — exposed so tests and benchmarks
  /// can construct colliding / non-colliding workloads deliberately.
  std::size_t shard_of(const Fingerprint& fp) const;

  /// Atomically replaces the serving model bank (the online-learning
  /// hot-swap). The swap is an atomic pointer exchange under util/epoch
  /// reclamation: requests already holding the old bank (or a cached entry
  /// built from it) finish on it — zero downtime, no lock on the warm
  /// path. Both cache tiers of every shard are cleared (their entries
  /// embed the old bank's choices); in-flight RUNs keep their entries
  /// alive through shared_ptr. Returns the new bank's version (the
  /// constructor-installed bank is version 1). Thread-safe.
  std::uint64_t publish_bank(std::shared_ptr<const Wise> wise);

  /// Version of the bank serving right now.
  std::uint64_t bank_version() const;

  /// The bank serving right now (epoch-protected snapshot).
  std::shared_ptr<const Wise> predictor() const;

  /// Attaches an online learner: binds it to publish_bank and the current
  /// bank, start()s it, and begins sampling RUN completions into it at the
  /// learner's sample rate (each sampled RUN additionally times the CSR
  /// baseline to label the observation). Pass nullptr to detach.
  void attach_learner(std::shared_ptr<learn::OnlineLearner> learner);
  std::shared_ptr<learn::OnlineLearner> learner() const;

  /// Installs the SpMM model bank serving kSpmm requests. Independent of
  /// the SpMV bank (publish_bank never touches it — the §7 add-a-method
  /// separation). Without one, kSpmm serves the kb=1 baseline with a
  /// fallback note. Thread-safe.
  void set_spmm_bank(std::shared_ptr<const spmm::SpmmBank> bank);
  std::shared_ptr<const spmm::SpmmBank> spmm_bank() const;

  /// Installs the amortized dual-model selector kSolve sessions choose
  /// with. Without one, sessions fall back to the SpMV bank's N-agnostic
  /// choose(). Thread-safe.
  void set_amortized(std::shared_ptr<const AmortizedWise> model);
  std::shared_ptr<const AmortizedWise> amortized() const;

 private:
  /// Hot-path counters, one cache-line-padded block per shard. Relaxed
  /// atomics: each event is a single uncontended fetch_add; cross-shard
  /// totals only materialize in stats().
  struct alignas(64) ShardCounters {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> expired{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> coalesced{0};
    std::atomic<std::uint64_t> prepares{0};
    std::atomic<std::uint64_t> sampled{0};
    std::atomic<std::uint64_t> spmm_requests{0};
    std::atomic<std::uint64_t> sessions_active{0};
    std::atomic<std::uint64_t> sessions_completed{0};
    std::atomic<std::uint64_t> session_iters{0};
  };

  /// One slice of the serving state. The inflight table holds prepares
  /// currently executing on this shard, keyed by fingerprint; its mutex is
  /// cold-path only (taken on cache misses and prepare completion, never on
  /// a warm hit).
  struct Shard {
    Shard(std::size_t choice_entries, std::size_t cache_bytes, int workers,
          std::size_t queue_capacity)
        : choice_cache(choice_entries),
          prepared_cache(cache_bytes),
          pool(std::make_unique<ThreadPool>(workers, queue_capacity)) {}

    ChoiceCache choice_cache;
    PreparedCache prepared_cache;
    std::unique_ptr<ThreadPool> pool;
    std::mutex inflight_mutex;
    std::unordered_map<Fingerprint,
                       std::shared_future<std::shared_ptr<PreparedEntry>>,
                       FingerprintHash>
        inflight;
    ShardCounters counters;
  };

  /// The serving bank plus its version, swapped as one unit so a reader
  /// never pairs a new bank with an old version number.
  struct BankSlot {
    std::shared_ptr<const Wise> wise;
    std::uint64_t version = 1;
  };

  /// Epoch-protected snapshot of the current slot: pin, load, copy the
  /// shared_ptr, unpin. Lock-free; the shared_ptr keeps the Wise alive
  /// after the pin drops even if the slot itself is retired.
  BankSlot acquire_bank() const;

  Response process(Shard& exec, const Request& req,
                   std::chrono::steady_clock::time_point enqueued,
                   std::chrono::steady_clock::time_point deadline);
  Response run_prepared(Shard& home, const Request& req, Response rsp,
                        const std::shared_ptr<PreparedEntry>& entry);
  /// kSpmm: choose from the SpMM bank, run the blocked kernel on a seeded
  /// RHS, optionally sample (workload class spmm).
  Response process_spmm(Shard& home, const Request& req, Response rsp);
  /// kSolve: amortized choose + cached prepare + full iterative solve.
  /// Samples carry workload class session.
  Response process_solve(Shard& home, const Request& req, Response rsp);
  /// Labels a sampled RUN: times the CSR baseline on the same input,
  /// classifies the measured relative time against the request's own
  /// timing, and feeds the learner. Any failure is swallowed — sampling
  /// never fails a request.
  void observe_run(Shard& home, const Request& req, const Response& rsp,
                   const std::shared_ptr<PreparedEntry>& entry,
                   std::span<const value_t> x);
  /// Labels a sampled SpMM: times the kb=1/Dyn baseline on the same RHS.
  /// Workload class spmm; failures swallowed like observe_run.
  void observe_spmm(Shard& home, const Response& rsp,
                    const spmm::SpmmChoice& choice,
                    const std::shared_ptr<const std::vector<double>>& features,
                    const CsrMatrix& m, std::span<const value_t> x,
                    std::span<value_t> y, index_t k, int iters,
                    double chosen_per_iter);
  /// Labels a sampled SOLVE session: times the CSR baseline SpMV against
  /// the session's measured per-SpMV time. Workload class session.
  void observe_session(Shard& home, const Response& rsp,
                       const std::shared_ptr<PreparedEntry>& entry,
                       std::span<const value_t> b, double chosen_per_spmv);
  /// Cache-miss path: join the shard's in-flight prepare for `fp` or become
  /// its leader. Exactly one conversion runs per fingerprint no matter how
  /// many requests race. Marks rsp.coalesced on joiners. With `preset` the
  /// choice already in rsp.choice is converted as-is (the SOLVE path, whose
  /// amortized selection must not be re-chosen by the SpMV bank); without
  /// it the bank chooses during prepare.
  std::shared_ptr<PreparedEntry> prepare_or_join(Shard& home,
                                                 const Request& req,
                                                 const Fingerprint& fp,
                                                 Response& rsp,
                                                 bool preset = false);
  std::shared_ptr<PreparedEntry> prepare_entry(Shard& home, const Request& req,
                                               const Fingerprint& fp,
                                               WiseChoice& choice,
                                               bool preset = false);
  static MethodConfig cheapest_csr_config(const Wise& wise);

  /// Current bank slot; readers go through acquire_bank(). Swapped-out
  /// slots are retired to the global epoch domain and reclaimed on later
  /// publishes (or at destruction, after the pools are joined).
  std::atomic<BankSlot*> bank_{nullptr};
  mutable std::mutex publish_mutex_;  ///< serializes publish_bank()
  std::vector<std::pair<BankSlot*, std::uint64_t>>
      retired_banks_;  ///< guarded by publish_mutex_; {slot, retire epoch}

  ServerOptions options_;  ///< with shards resolved to the actual count
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> rr_{0};  ///< router for unfingerprinted requests

  /// Learner plumbing: the hot path gates on one relaxed-ish atomic load;
  /// ownership lives in the vector (learners attached earlier are kept
  /// alive until destruction so an in-flight observe() can never race a
  /// re-attach). Guarded by publish_mutex_ except the atomic.
  std::atomic<learn::OnlineLearner*> learner_raw_{nullptr};
  std::vector<std::shared_ptr<learn::OnlineLearner>> learners_;

  /// SpMM bank + amortized selector (guarded by publish_mutex_; read once
  /// per request on the cold inference path — never on a warm hit).
  std::shared_ptr<const spmm::SpmmBank> spmm_bank_;
  std::shared_ptr<const AmortizedWise> amortized_;

  std::atomic<bool> accepting_{true};
  std::atomic<bool> cancelled_{false};
};

}  // namespace wise::serve

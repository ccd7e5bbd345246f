// Tests for the concurrent prediction server (serve/server.hpp): cache
// hit/miss semantics, determinism under concurrency, backpressure,
// deadlines, graceful shutdown, serve-level degradation, and the
// const-thread-safety contract of the shared Wise pipeline.

#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "serve/server.hpp"
#include "spmm/model.hpp"
#include "spmm/spmm.hpp"
#include "spmv/method.hpp"
#include "test_util.hpp"
#include "util/fault.hpp"
#include "util/prng.hpp"
#include "wise/amortized.hpp"
#include "wise/model_bank.hpp"

namespace wise::serve {
namespace {

using wise::testing::random_csr;

/// Bank over the full 29-config registry where `winner` always predicts the
/// best class and everything else is neutral. Labels are constant per
/// configuration, so each tree is a single leaf and predicts the same class
/// for any real feature vector — making the server's selection fully
/// deterministic in these tests.
ModelBank make_constant_bank(std::size_t winner) {
  const auto configs = all_method_configs();
  std::vector<std::vector<double>> features;
  std::vector<std::vector<double>> rel_times;
  Xoshiro256 rng(99);
  for (int i = 0; i < 12; ++i) {
    std::vector<double> f(feature_count());
    for (auto& v : f) v = rng.next_double() * 100.0;
    features.push_back(std::move(f));
    std::vector<double> rel(configs.size(), 1.0);
    rel[winner] = 0.5;  // class 6: predicted fastest
    rel_times.push_back(std::move(rel));
  }
  ModelBank bank;
  bank.train(configs, features, rel_times, {.max_depth = 3});
  return bank;
}

std::size_t first_config_of_kind(MethodKind kind) {
  const auto configs = all_method_configs();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].kind == kind) return i;
  }
  ADD_FAILURE() << "registry lacks the requested method kind";
  return 0;
}

std::shared_ptr<const Wise> make_predictor(MethodKind winner_kind) {
  return std::make_shared<const Wise>(
      make_constant_bank(first_config_of_kind(winner_kind)));
}

std::shared_ptr<const CsrMatrix> shared_matrix(index_t n, std::uint64_t seed) {
  return std::make_shared<const CsrMatrix>(random_csr(n, n, 6.0, seed));
}

Request run_request(std::shared_ptr<const CsrMatrix> m, std::string id,
                    int iters = 2) {
  Request req;
  req.kind = RequestKind::kRun;
  req.matrix = std::move(m);
  req.id = std::move(id);
  req.iters = iters;
  return req;
}

// ------------------------------------------------------ basic round trips ----

TEST(Server, PredictPrepareRunRoundTrip) {
  Server server(make_predictor(MethodKind::kSellpack), {.workers = 2});
  const auto m = shared_matrix(96, 1);

  Request predict;
  predict.kind = RequestKind::kPredict;
  predict.matrix = m;
  predict.id = "m1";
  const Response p = server.call(predict);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.id, "m1");
  EXPECT_EQ(p.choice.config.kind, MethodKind::kSellpack);
  EXPECT_FALSE(p.choice_cache_hit);

  const Response r = server.call(run_request(m, "m1"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.config_name, p.config_name);
  EXPECT_NE(r.checksum, 0.0);
  EXPECT_GT(r.spmv_seconds, 0.0);
}

TEST(Server, WarmRequestsHitThePreparedCache) {
  Server server(make_predictor(MethodKind::kSellpack), {.workers = 2});
  const auto m = shared_matrix(96, 2);

  const Response cold = server.call(run_request(m, "cold"));
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.prepared_cache_hit);

  const Response warm = server.call(run_request(m, "warm"));
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.prepared_cache_hit);
  // Warm responses are bit-identical to cold ones: same fingerprint-seeded
  // input vector, same prepared layout, deterministic kernels.
  EXPECT_EQ(warm.checksum, cold.checksum);
  EXPECT_EQ(warm.config_name, cold.config_name);
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);

  const CacheStats cs = server.cache_stats();
  EXPECT_EQ(cs.prepared_hits, 1u);
  EXPECT_EQ(cs.prepared_misses, 1u);
  EXPECT_EQ(cs.prepared_entries, 1u);
  EXPECT_GT(cs.prepared_bytes, 0u);
}

TEST(Server, PrecomputedFingerprintMatchesTheWorkerSideHash) {
  Server server(make_predictor(MethodKind::kSellpack), {.workers = 2});
  const auto m = shared_matrix(96, 3);

  const Response cold = server.call(run_request(m, "cold"));  // worker hashes
  ASSERT_TRUE(cold.ok) << cold.error;

  Request warm_req = run_request(m, "warm");
  warm_req.fingerprint = fingerprint_matrix(*m);  // client-side hash
  const Response warm = server.call(std::move(warm_req));
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.prepared_cache_hit)
      << "a load-time fingerprint must key the same cache entry";
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  EXPECT_EQ(warm.checksum, cold.checksum);
}

// --------------------------------------------------- concurrency + caches ----

TEST(Server, ConcurrentStressIsBitIdenticalToColdPath) {
  Server server(make_predictor(MethodKind::kSellpack),
                {.workers = 8, .queue_capacity = 0});
  constexpr int kMatrices = 6;
  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 10;

  std::vector<std::shared_ptr<const CsrMatrix>> matrices;
  std::vector<double> cold_checksums;
  for (int i = 0; i < kMatrices; ++i) {
    matrices.push_back(shared_matrix(64 + 8 * i, 100 + i));
    const Response cold =
        server.call(run_request(matrices.back(), "cold-" + std::to_string(i)));
    ASSERT_TRUE(cold.ok) << cold.error;
    cold_checksums.push_back(cold.checksum);
  }

  std::vector<std::thread> clients;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const int mi = (t + round) % kMatrices;
        const Response rsp = server.call(
            run_request(matrices[static_cast<std::size_t>(mi)],
                        "t" + std::to_string(t)));
        if (!rsp.ok) {
          ++failures[static_cast<std::size_t>(t)];
        } else if (rsp.checksum !=
                   cold_checksums[static_cast<std::size_t>(mi)]) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0);
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0)
        << "thread " << t << " saw a cache-hit response differing from cold";
  }

  const CacheStats cs = server.cache_stats();
  // Every stress request after the cold pass can hit (matrices were all
  // prepared); allow a few races where two workers miss concurrently.
  EXPECT_GE(cs.prepared_hits,
            static_cast<std::uint64_t>(kThreads * kRoundsPerThread - kMatrices));
  const ServerStats st = server.stats();
  EXPECT_EQ(st.accepted, st.completed);
  EXPECT_EQ(st.failed, 0u);
}

TEST(Server, MultiShardWarmColdStressIsBitIdenticalToColdPath) {
  // The sharded counterpart of the stress above: 4 shards explicitly, so
  // routing, per-shard caches, and the lock-free read path all engage even
  // on single-core runners. Half the matrices are prepared up front (warm),
  // half meet the server for the first time mid-stress (cold, racing
  // coalesced prepares) — every response must still be bit-identical to a
  // sequential cold run.
  Server server(make_predictor(MethodKind::kSellpack),
                {.workers = 8, .queue_capacity = 0, .shards = 4});
  ASSERT_EQ(server.shard_count(), 4u);
  constexpr int kMatrices = 8;
  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 12;

  // Reference checksums from an isolated single-shard server so the stress
  // server's cold paths are exercised by the stress itself.
  Server reference(make_predictor(MethodKind::kSellpack),
                   {.workers = 1, .shards = 1});
  std::vector<std::shared_ptr<const CsrMatrix>> matrices;
  std::vector<double> cold_checksums;
  for (int i = 0; i < kMatrices; ++i) {
    matrices.push_back(shared_matrix(64 + 8 * i, 300 + i));
    const Response cold = reference.call(
        run_request(matrices.back(), "ref-" + std::to_string(i)));
    ASSERT_TRUE(cold.ok) << cold.error;
    cold_checksums.push_back(cold.checksum);
    if (i < kMatrices / 2) {  // warm half
      ASSERT_TRUE(
          server.call(run_request(matrices.back(), "warm-" + std::to_string(i)))
              .ok);
    }
  }

  std::vector<std::thread> clients;
  std::vector<int> bad(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const int mi = (t + round) % kMatrices;
        const Response rsp = server.call(
            run_request(matrices[static_cast<std::size_t>(mi)],
                        "t" + std::to_string(t)));
        if (!rsp.ok ||
            rsp.checksum != cold_checksums[static_cast<std::size_t>(mi)]) {
          ++bad[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(bad[static_cast<std::size_t>(t)], 0)
        << "thread " << t << " saw a response differing from the cold run";
  }

  const ServerStats st = server.stats();
  EXPECT_EQ(st.accepted, st.completed);
  EXPECT_EQ(st.failed, 0u);
  // Coalescing bounds the conversions: one per distinct fingerprint, no
  // matter how many requests raced on the cold half.
  EXPECT_EQ(st.prepares, static_cast<std::uint64_t>(kMatrices));
}

TEST(Server, ConcurrentColdRequestsCoalesceIntoOnePrepare) {
  // One shard, several workers: N simultaneous PREPAREs of one fingerprint
  // must execute exactly one layout conversion. Exactly one response is the
  // leader (neither a cache hit nor coalesced); every other is one or the
  // other, depending on whether it arrived during or after the prepare.
  Server server(make_predictor(MethodKind::kSellpack),
                {.workers = 4, .queue_capacity = 0, .shards = 1});
  const auto m = shared_matrix(160, 91);
  const Fingerprint fp = fingerprint_matrix(*m);

  constexpr int kRequests = 16;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    Request req;
    req.kind = RequestKind::kPrepare;
    req.matrix = m;
    req.id = "c" + std::to_string(i);
    req.fingerprint = fp;
    futures.push_back(server.submit(std::move(req)));
  }

  int leaders = 0;
  int coalesced = 0;
  int hits = 0;
  for (auto& f : futures) {
    const Response rsp = f.get();
    ASSERT_TRUE(rsp.ok) << rsp.error;
    if (rsp.coalesced) {
      ++coalesced;
    } else if (rsp.prepared_cache_hit) {
      ++hits;
    } else {
      ++leaders;
    }
  }
  EXPECT_EQ(leaders, 1) << "exactly one request may run the conversion";
  EXPECT_EQ(coalesced + hits, kRequests - 1);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.prepares, 1u);
  EXPECT_EQ(st.coalesced, static_cast<std::uint64_t>(coalesced));
}

TEST(Server, ShardEvictionIsIndependentOfSiblingShards) {
  // Two shards; A and B collide on one shard, C homes on the other. A
  // budget holding one entry per shard means the A/B shard thrashes while
  // C's shard is never disturbed — per-shard eviction determinism.
  const auto predictor = make_predictor(MethodKind::kSellpack);

  ServerOptions probe_opts;
  probe_opts.workers = 2;
  probe_opts.shards = 2;
  Server probe(predictor, probe_opts);
  ASSERT_EQ(probe.shard_count(), 2u);

  // Deterministic search for the colliding/non-colliding triple.
  const auto a = shared_matrix(96, 500);
  const Fingerprint fpa = fingerprint_matrix(*a);
  std::shared_ptr<const CsrMatrix> b;
  std::shared_ptr<const CsrMatrix> c;
  for (std::uint64_t seed = 501; (!b || !c) && seed < 600; ++seed) {
    auto m = shared_matrix(96, seed);
    const std::size_t home = probe.shard_of(fingerprint_matrix(*m));
    if (!b && home == probe.shard_of(fpa)) b = std::move(m);
    else if (!c && home != probe.shard_of(fpa)) c = std::move(m);
  }
  ASSERT_TRUE(b) << "no same-shard matrix found in 100 seeds";
  ASSERT_TRUE(c) << "no other-shard matrix found in 100 seeds";

  std::size_t max_entry = 0;
  for (const auto& m : {a, b, c}) {
    WiseChoice choice;
    const PreparedMatrix pm = predictor->prepare(*m, choice);
    max_entry = std::max(max_entry, prepared_entry_bytes(*m, pm));
  }

  ServerOptions opts;
  opts.workers = 2;
  opts.shards = 2;
  opts.cache_bytes = 2 * (max_entry + max_entry / 2);  // 1.5 entries/shard
  Server server(predictor, opts);

  ASSERT_TRUE(server.call(run_request(a, "a")).ok);   // A's shard: {A}
  ASSERT_TRUE(server.call(run_request(c, "c")).ok);   // C's shard: {C}
  ASSERT_TRUE(server.call(run_request(b, "b")).ok);   // evicts A
  const Response a2 = server.call(run_request(a, "a2"));  // evicts B
  ASSERT_TRUE(a2.ok);
  EXPECT_FALSE(a2.prepared_cache_hit) << "B must have displaced A";
  const Response c2 = server.call(run_request(c, "c2"));
  ASSERT_TRUE(c2.ok);
  EXPECT_TRUE(c2.prepared_cache_hit)
      << "thrash on the A/B shard must not touch C's shard";

  const CacheStats cs = server.cache_stats();
  EXPECT_EQ(cs.evictions, 2u);
  EXPECT_EQ(cs.prepared_entries, 2u);  // one per shard
  EXPECT_EQ(cs.prepared_misses, 4u);   // A, C, B, A-again
  EXPECT_EQ(cs.prepared_hits, 1u);     // C-again
}

TEST(Server, ByteBudgetEvictsDeterministically) {
  // Budget sized to hold exactly one prepared entry: A, B, A again must be
  // miss, miss+evict, miss+evict.
  const auto predictor = make_predictor(MethodKind::kSellpack);
  const auto a = shared_matrix(96, 31);
  const auto b = shared_matrix(96, 32);
  WiseChoice choice;
  const PreparedMatrix pm = predictor->prepare(*a, choice);
  const std::size_t entry_bytes = prepared_entry_bytes(*a, pm);

  ServerOptions opts;
  opts.workers = 1;
  opts.cache_bytes = entry_bytes + entry_bytes / 2;
  Server server(predictor, opts);

  ASSERT_TRUE(server.call(run_request(a, "a")).ok);
  ASSERT_TRUE(server.call(run_request(b, "b")).ok);  // evicts a
  const Response again = server.call(run_request(a, "a-again"));
  ASSERT_TRUE(again.ok);
  EXPECT_FALSE(again.prepared_cache_hit);
  const CacheStats cs = server.cache_stats();
  EXPECT_EQ(cs.prepared_misses, 3u);
  EXPECT_EQ(cs.prepared_hits, 0u);
  EXPECT_EQ(cs.evictions, 2u);
  EXPECT_EQ(cs.prepared_entries, 1u);
}

// ----------------------------------------------- backpressure + deadlines ----

/// Parks the single worker on a long RUN, returning once it has started
/// (queue drained, nothing completed yet).
std::future<Response> park_worker(Server& server,
                                  const std::shared_ptr<const CsrMatrix>& m) {
  auto blocker = server.submit(run_request(m, "blocker", 4000));
  while (server.queue_depth() > 0 ||
         (server.stats().completed == 0 && server.stats().accepted == 0)) {
    std::this_thread::yield();
  }
  // queue_depth()==0 means a worker holds the request (or finished it; the
  // 4000-iteration run makes "finished already" implausible).
  return blocker;
}

/// Holds a server's worker inside its "blocker" request until release(),
/// through ServerOptions::before_process. Release before any assertion
/// that could end the test: the server's destructor joins the worker.
class WorkerLatch {
 public:
  explicit WorkerLatch(ServerOptions& opts) {
    opts.before_process = [this](const Request& req) {
      if (req.id != "blocker") return;
      parked_.set_value();
      released_.wait();
    };
  }
  WorkerLatch(const WorkerLatch&) = delete;
  WorkerLatch& operator=(const WorkerLatch&) = delete;

  /// Submits the blocker and returns once a worker holds it.
  std::future<Response> park(Server& server,
                             const std::shared_ptr<const CsrMatrix>& m) {
    auto blocker = server.submit(run_request(m, "blocker"));
    parked_.get_future().wait();
    return blocker;
  }

  void release() { release_.set_value(); }

 private:
  std::promise<void> parked_;
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
};

TEST(Server, RejectPolicyRejectsWhenQueueIsFull) {
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.overflow = OverflowPolicy::kReject;
  WorkerLatch latch(opts);
  Server server(make_predictor(MethodKind::kSellpack), opts);
  const auto m = shared_matrix(192, 41);

  auto blocker = latch.park(server, m);
  auto queued = server.submit(run_request(m, "queued"));  // fills the queue
  // While the worker is held, everything further must be rejected, not
  // blocked.
  std::vector<Response> overflow;
  for (int i = 0; i < 4; ++i) {
    overflow.push_back(server.call(run_request(m, "overflow")));
  }
  latch.release();
  for (const Response& rsp : overflow) {
    EXPECT_FALSE(rsp.ok);
    EXPECT_EQ(rsp.category, ErrorCategory::kResource);
    EXPECT_NE(rsp.error.find("queue"), std::string::npos) << rsp.error;
  }
  EXPECT_GE(server.stats().rejected, overflow.size());
  EXPECT_TRUE(blocker.get().ok);
  EXPECT_TRUE(queued.get().ok);
}

TEST(Server, DeadlineExpiresWhileQueued) {
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 8;
  WorkerLatch latch(opts);
  Server server(make_predictor(MethodKind::kSellpack), opts);
  const auto m = shared_matrix(192, 42);

  auto blocker = latch.park(server, m);
  Request doomed = run_request(m, "doomed");
  doomed.deadline = std::chrono::milliseconds(1);
  auto doomed_future = server.submit(std::move(doomed));
  // The deadline was stamped inside submit(); once 2 ms have passed it has
  // expired, and only then does the worker move on to the doomed request.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  latch.release();
  const Response rsp = doomed_future.get();
  EXPECT_FALSE(rsp.ok);
  EXPECT_EQ(rsp.category, ErrorCategory::kResource);
  EXPECT_NE(rsp.error.find("deadline"), std::string::npos) << rsp.error;
  EXPECT_EQ(server.stats().expired, 1u);
  EXPECT_TRUE(blocker.get().ok);
}

// ------------------------------------------------------------- shutdown ----

TEST(Server, ShutdownDrainsEveryQueuedRequest) {
  ServerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 0;  // unbounded: everything queues instantly
  Server server(make_predictor(MethodKind::kSellpack), opts);
  const auto m = shared_matrix(96, 51);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(server.submit(run_request(m, "q" + std::to_string(i))));
  }
  server.shutdown(true);
  int ok = 0;
  for (auto& f : futures) {
    if (f.get().ok) ++ok;
  }
  EXPECT_EQ(ok, 32) << "drain must complete queued work, not abandon it";
  const ServerStats st = server.stats();
  EXPECT_EQ(st.accepted, 32u);
  EXPECT_EQ(st.completed, 32u);

  // After shutdown: immediate, non-blocking rejection.
  const Response late = server.call(run_request(m, "late"));
  EXPECT_FALSE(late.ok);
  EXPECT_NE(late.error.find("shutting down"), std::string::npos);
}

TEST(Server, NonDrainingShutdownFailsQueuedRequestsFast) {
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 0;
  Server server(make_predictor(MethodKind::kSellpack), opts);
  const auto m = shared_matrix(192, 52);

  auto blocker = park_worker(server, m);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.submit(run_request(m, "q" + std::to_string(i))));
  }
  server.shutdown(false);
  EXPECT_TRUE(blocker.get().ok);  // in-flight work still completes
  for (auto& f : futures) {
    const Response rsp = f.get();  // promises are fulfilled, never broken
    EXPECT_FALSE(rsp.ok);
    EXPECT_EQ(rsp.category, ErrorCategory::kResource);
  }
}

// ------------------------------------------- degradation + fault injection ----

TEST(Server, DegradesToCsrWhenLayoutOverflowsCacheBudget) {
  ServerOptions opts;
  opts.workers = 1;
  opts.cache_bytes = 1024;  // far below any real converted layout
  Server server(make_predictor(MethodKind::kSellpack), opts);
  const auto m = shared_matrix(128, 61);

  const Response rsp = server.call(run_request(m, "big"));
  ASSERT_TRUE(rsp.ok) << rsp.error;
  EXPECT_EQ(rsp.choice.config.kind, MethodKind::kCsr);
  EXPECT_TRUE(rsp.choice.fell_back());
  EXPECT_NE(rsp.choice.fallback_reason.find("serve:"), std::string::npos)
      << rsp.choice.fallback_reason;
  EXPECT_EQ(server.stats().degraded, 1u);

  // The CSR-demoted entry is cacheable and still correct.
  const Response warm = server.call(run_request(m, "big-again"));
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.prepared_cache_hit);
  EXPECT_EQ(warm.checksum, rsp.checksum);
}

TEST(Server, ServeFaultStageMakesOverloadDeterministic) {
  FaultInjector::global().arm(stage::kServe, 1.0);
  Server server(make_predictor(MethodKind::kSellpack), {.workers = 2});
  const auto m = shared_matrix(64, 71);
  const Response rsp = server.call(run_request(m, "faulted"));
  FaultInjector::global().disarm(stage::kServe);
  EXPECT_FALSE(rsp.ok);
  EXPECT_EQ(rsp.category, ErrorCategory::kResource);
  EXPECT_NE(rsp.error.find("injected fault"), std::string::npos) << rsp.error;

  // Disarmed again: the same request now succeeds.
  const Response healthy = server.call(run_request(m, "healthy"));
  EXPECT_TRUE(healthy.ok) << healthy.error;
}

// --------------------------------------------------------------- options ----

TEST(ServerOptions, FromEnvReadsEveryKnob) {
  ::setenv("WISE_SERVE_WORKERS", "3", 1);
  ::setenv("WISE_SERVE_QUEUE", "17", 1);
  ::setenv("WISE_SERVE_OVERFLOW", "reject", 1);
  ::setenv("WISE_SERVE_CACHE_BYTES", "123456", 1);
  ::setenv("WISE_SERVE_CHOICE_ENTRIES", "9", 1);
  ::setenv("WISE_SERVE_HASH_VALUES", "1", 1);
  ::setenv("WISE_SERVE_DEADLINE_MS", "250", 1);
  ::setenv("WISE_SERVE_SHARDS", "8", 1);
  const ServerOptions o = ServerOptions::from_env();
  EXPECT_EQ(o.workers, 3);
  EXPECT_EQ(o.queue_capacity, 17u);
  EXPECT_EQ(o.overflow, OverflowPolicy::kReject);
  EXPECT_EQ(o.cache_bytes, 123456u);
  EXPECT_EQ(o.choice_entries, 9u);
  EXPECT_TRUE(o.fingerprint_values);
  EXPECT_EQ(o.default_deadline.count(), 250);
  EXPECT_EQ(o.shards, 8);

  ::setenv("WISE_SERVE_OVERFLOW", "bogus", 1);
  EXPECT_THROW(ServerOptions::from_env(), Error);
  for (const char* name :
       {"WISE_SERVE_WORKERS", "WISE_SERVE_QUEUE", "WISE_SERVE_OVERFLOW",
        "WISE_SERVE_CACHE_BYTES", "WISE_SERVE_CHOICE_ENTRIES",
        "WISE_SERVE_HASH_VALUES", "WISE_SERVE_DEADLINE_MS",
        "WISE_SERVE_SHARDS"}) {
    ::unsetenv(name);
  }
}

TEST(ServerOptions, ShardCountResolvesToPowerOfTwo) {
  const auto predictor = make_predictor(MethodKind::kSellpack);
  {
    Server s(predictor, {.workers = 2, .shards = 6});  // rounds down
    EXPECT_EQ(s.shard_count(), 4u);
    EXPECT_EQ(s.options().shards, 4);
  }
  {
    Server s(predictor, {.workers = 1, .shards = 0});  // auto caps at workers
    EXPECT_EQ(s.shard_count(), 1u);
  }
  {
    // Routing stays in range and is fingerprint-deterministic.
    Server s(predictor, {.workers = 4, .shards = 4});
    for (std::uint64_t v = 0; v < 64; ++v) {
      const Fingerprint fp{v * 0x100000001b3ull, 0, false};
      EXPECT_LT(s.shard_of(fp), s.shard_count());
      EXPECT_EQ(s.shard_of(fp), s.shard_of(fp));
    }
  }
}

// ------------------------------------------------------ SOLVE sessions ----

/// Square SPD system CG converges on (solvers_test.cpp's spd_system).
std::shared_ptr<const CsrMatrix> shared_spd(index_t nx, index_t ny) {
  CooMatrix coo = generate_stencil2d(nx, ny, 5);
  for (auto& e : coo.entries()) {
    if (e.row == e.col) e.val += 0.1;
  }
  coo.canonicalize();
  return std::make_shared<const CsrMatrix>(CsrMatrix::from_coo(coo));
}

Request solve_request(std::shared_ptr<const CsrMatrix> m, std::string id,
                      int max_iters = 200, std::string solver = "cg") {
  Request req;
  req.kind = RequestKind::kSolve;
  req.matrix = std::move(m);
  req.id = std::move(id);
  req.iters = max_iters;
  req.solver = std::move(solver);
  return req;
}

TEST(SolveSession, ColdThenWarmAmortizesThePrepareAcrossFourShards) {
  // The ISSUE's session contract: a SOLVE session through a sharded server
  // prepares the layout exactly once; the warm session reuses it (that
  // cache hit is the amortization) and reproduces the cold session's
  // iterates bit for bit.
  Server server(make_predictor(MethodKind::kSellpack),
                {.workers = 4, .shards = 4});
  ASSERT_EQ(server.shard_count(), 4u);
  const auto m = shared_spd(16, 16);

  const Response cold = server.call(solve_request(m, "cold"));
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.prepared_cache_hit);
  EXPECT_TRUE(cold.converged);
  EXPECT_GT(cold.solve_iterations, 0);
  EXPECT_LT(cold.residual_norm, 1e-6);
  EXPECT_NE(cold.checksum, 0.0);

  const Response warm = server.call(solve_request(m, "warm"));
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.prepared_cache_hit)
      << "the second session must reuse the first session's layout";
  // Bit-stable iterates: same fingerprint-seeded b, same prepared layout,
  // deterministic kernels — the whole Krylov trajectory repeats exactly.
  EXPECT_EQ(warm.checksum, cold.checksum);
  EXPECT_EQ(warm.solve_iterations, cold.solve_iterations);
  EXPECT_EQ(warm.residual_norm, cold.residual_norm);
  EXPECT_EQ(warm.config_name, cold.config_name);

  const ServerStats st = server.stats();
  EXPECT_EQ(st.prepares, 1u) << "exactly one prepare across both sessions";
  EXPECT_EQ(st.sessions_completed, 2u);
  EXPECT_EQ(st.sessions_active, 0u);
  EXPECT_EQ(st.session_iters,
            2u * static_cast<std::uint64_t>(cold.solve_iterations));
}

TEST(SolveSession, SolverVariantsRunAndBogusInputsFailCleanly) {
  Server server(make_predictor(MethodKind::kSellpack), {.workers = 2});
  const auto m = shared_spd(8, 8);

  const Response jacobi = server.call(solve_request(m, "j", 300, "jacobi"));
  ASSERT_TRUE(jacobi.ok) << jacobi.error;
  EXPECT_GT(jacobi.solve_iterations, 0);

  const Response bogus = server.call(solve_request(m, "b", 10, "sor"));
  EXPECT_FALSE(bogus.ok);
  EXPECT_EQ(bogus.category, ErrorCategory::kValidation);
  EXPECT_NE(bogus.error.find("unknown solver"), std::string::npos)
      << bogus.error;

  const Response rect = server.call(solve_request(
      std::make_shared<const CsrMatrix>(random_csr(32, 48, 4.0, 7)), "r"));
  EXPECT_FALSE(rect.ok);
  EXPECT_EQ(rect.category, ErrorCategory::kValidation);

  const ServerStats st = server.stats();
  EXPECT_EQ(st.sessions_active, 0u) << "failed sessions must not leak";
}

TEST(SolveSession, AmortizedSelectorDrivesTheColdChoice) {
  // With a dual-model selector installed, a cold SOLVE session picks its
  // configuration through AmortizedWise::choose(features, N) instead of the
  // SpMV bank (whose constant-bank winner is kSellpack). Train the
  // amortized model to prefer plain CSR — zero prep cost, best speed class
  // — and the session must serve CSR.
  const auto configs = all_method_configs();
  const std::size_t winner = first_config_of_kind(MethodKind::kCsr);
  std::vector<std::vector<double>> features;
  std::vector<std::vector<double>> rel_times;
  std::vector<std::vector<double>> prep_iters;
  Xoshiro256 rng(123);
  for (int i = 0; i < 12; ++i) {
    std::vector<double> f(feature_count());
    for (auto& v : f) v = rng.next_double() * 100.0;
    features.push_back(std::move(f));
    std::vector<double> rel(configs.size(), 1.0);
    rel[winner] = 0.5;
    rel_times.push_back(std::move(rel));
    std::vector<double> prep(configs.size(), 10.0);
    prep[winner] = 0.0;
    prep_iters.push_back(std::move(prep));
  }
  auto amortized = std::make_shared<AmortizedWise>();
  amortized->train(configs, features, rel_times, prep_iters, {.max_depth = 3});

  Server server(make_predictor(MethodKind::kSellpack), {.workers = 2});
  server.set_amortized(amortized);
  const auto m = shared_spd(12, 12);

  const Response rsp = server.call(solve_request(m, "amortized", 64));
  ASSERT_TRUE(rsp.ok) << rsp.error;
  EXPECT_EQ(rsp.choice.config.kind, MethodKind::kCsr)
      << "served " << rsp.config_name;

  // A plain RUN of a different matrix still selects through the SpMV bank.
  const auto m2 = shared_matrix(96, 77);
  const Response run = server.call(run_request(m2, "run"));
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.choice.config.kind, MethodKind::kSellpack);
}

// ------------------------------------------------------- SPMM requests ----

Request spmm_request(std::shared_ptr<const CsrMatrix> m, std::string id,
                     int rhs_cols = 8) {
  Request req;
  req.kind = RequestKind::kSpmm;
  req.matrix = std::move(m);
  req.id = std::move(id);
  req.rhs_cols = rhs_cols;
  req.iters = 1;
  return req;
}

TEST(Spmm, WithoutABankServesTheBaselineAndSaysSo) {
  Server server(make_predictor(MethodKind::kSellpack), {.workers = 2});
  const auto m = shared_matrix(96, 201);
  const Response rsp = server.call(spmm_request(m, "nobank"));
  ASSERT_TRUE(rsp.ok) << rsp.error;
  EXPECT_EQ(rsp.config_name, spmm::spmm_method_configs()[0].name());
  EXPECT_NE(rsp.choice.fallback_reason.find("no bank"), std::string::npos)
      << rsp.choice.fallback_reason;
  EXPECT_EQ(server.stats().spmm_requests, 1u);
}

TEST(Spmm, ServedFromItsOwnBankBitIdenticalToTheReference) {
  // Train a real (tiny) SpMM bank and install it next to the SpMV bank —
  // the §7 separation thread through serving. The response checksum must
  // equal the serial reference on the same fingerprint-seeded RHS: the
  // served blocked kernel is bit-identical, whatever config the bank picks.
  std::vector<CsrMatrix> corpus;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    corpus.push_back(random_csr(64, 64, 5.0, 210 + s));
  }
  spmm::SpmmTrainOptions topts;
  topts.k = 4;
  topts.iters = 1;
  auto bank = std::make_shared<const spmm::SpmmBank>(
      spmm::train_spmm_bank(corpus, topts));

  Server server(make_predictor(MethodKind::kSellpack), {.workers = 2});
  server.set_spmm_bank(bank);
  const auto m = shared_matrix(128, 220);
  constexpr int kCols = 8;

  const Response rsp = server.call(spmm_request(m, "banked", kCols));
  ASSERT_TRUE(rsp.ok) << rsp.error;
  EXPECT_EQ(rsp.config_name.rfind("SpMM/", 0), 0u) << rsp.config_name;
  EXPECT_TRUE(rsp.choice.fallback_reason.empty())
      << rsp.choice.fallback_reason;

  // Recompute what the server computed: same seeded X, serial reference.
  std::vector<value_t> x(static_cast<std::size_t>(m->ncols()) * kCols);
  Xoshiro256 rng(0x517e5eedull ^ rsp.fingerprint.structure);
  for (auto& v : x) v = static_cast<value_t>(rng.next_double());
  std::vector<value_t> y(static_cast<std::size_t>(m->nrows()) * kCols);
  spmm::spmm_reference(*m, x, y, kCols);
  double sum = 0;
  for (const value_t v : y) sum += static_cast<double>(v);
  EXPECT_EQ(rsp.checksum, sum);

  // Repeated SPMM of the same matrix: deterministic, same checksum.
  const Response again = server.call(spmm_request(m, "again", kCols));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.checksum, rsp.checksum);
  EXPECT_EQ(again.config_name, rsp.config_name);
  EXPECT_EQ(server.stats().spmm_requests, 2u);
}

// ------------------------------------------- Wise const-thread-safety ----

TEST(WiseThreadSafety, ConcurrentChooseOnSharedPredictorIsConsistent) {
  // The contract serve/server.hpp builds on (documented in
  // wise/pipeline.hpp): N threads may call choose() on one shared const
  // Wise. Every thread must get the same deterministic choice.
  const auto predictor = make_predictor(MethodKind::kSellCSigma);
  const CsrMatrix m = random_csr(128, 128, 6.0, 81);
  const WiseChoice expected = predictor->choose(m);
  ASSERT_FALSE(expected.fell_back()) << expected.fallback_reason;

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int> wrong(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5; ++i) {
        const WiseChoice c = predictor->choose(m);
        if (!(c.config == expected.config) ||
            c.predicted_class != expected.predicted_class) {
          ++wrong[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(wrong[static_cast<std::size_t>(t)], 0);
  }
}

}  // namespace
}  // namespace wise::serve

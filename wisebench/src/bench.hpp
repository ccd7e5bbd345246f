#pragma once
// State built at set-up and the measured phases. Every run executes every
// phase, so every metric is measured on every workload; the workload decides
// which phases get most of the run (see main.cpp).
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/server.hpp"
#include "spmm/model.hpp"
#include "wise/pipeline.hpp"

namespace wisebench {

/// A fixed iterate matrix; `spd` ones are also solved with CG.
struct IterMatrix {
  std::string name;
  wise::CsrMatrix m;
  bool spd = false;
};

/// A held-out matrix with its frozen per-config timings.
struct PoolMatrix {
  std::string spec;
  wise::CsrMatrix m;
  std::vector<double> seconds;  ///< all_method_configs() order
};

/// A matrix the serve clients send, with the answers its warm-up produced.
struct ServeMatrix {
  std::shared_ptr<const wise::CsrMatrix> m;
  wise::serve::Fingerprint fingerprint;
  double checksum = 0;      ///< kRun answer at warm-up
  std::string config;       ///< config chosen at warm-up
};

struct Bench {
  Options opt;
  std::shared_ptr<const wise::Wise> wise;
  std::shared_ptr<const wise::spmm::SpmmBank> spmm_bank;
  std::vector<IterMatrix> iter;
  std::vector<PoolMatrix> pool;
  std::vector<ServeMatrix> hot;
  std::vector<ServeMatrix> tail;  ///< cycled; larger than the cache budget
  std::unique_ptr<wise::serve::Server> server;
  double gen_seconds = 0;
  double train_seconds = 0;
};

/// Generates every input, trains both banks from the frozen labels, builds
/// and warms the server. Warm-up answers that are not ok are failures.
void setup(Bench& b, Tally& tally);

/// A measured phase, run as many short steps (a few to ~100 ms each) that
/// the scheduler in main.cpp interleaves with the other phases, so every
/// phase samples the whole run and a slow spell of the machine hits all of
/// them alike. Each step checks its outputs into the tally.
class Phase {
 public:
  Phase() = default;
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  virtual ~Phase() = default;
  virtual void step() = 0;
  /// Writes the phase's metrics (end-to-end and per-layer) into `out`.
  virtual void finish(Metrics& out) = 0;
};

/// The phases append "<input>=<config>" for every choice they make to
/// `choices`. The iterate workload is three phases: the SpMV loop, CG and
/// SpMM.
std::unique_ptr<Phase> make_spmv_phase(Bench& b, Tally& tally,
                                       std::vector<std::string>& choices);
std::unique_ptr<Phase> make_cg_phase(Bench& b, Tally& tally);
std::unique_ptr<Phase> make_spmm_phase(Bench& b, Tally& tally,
                                       std::vector<std::string>& choices);
std::unique_ptr<Phase> make_select_phase(Bench& b, Tally& tally,
                                         std::vector<std::string>& choices);
std::unique_ptr<Phase> make_serve_phase(Bench& b, Tally& tally,
                                        std::vector<std::string>& choices);
/// Writes calib.sweep_us, the median time of a fixed benchmark-owned sweep.
std::unique_ptr<Phase> make_calibration_phase();

}  // namespace wisebench

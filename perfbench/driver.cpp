/// perfbench driver: runs one workload of the repository benchmark and
/// prints its raw measurements as one JSON line on stdout.  perfbench/run.py
/// builds this binary, starts netpartd for serve_mix, and reduces the raw
/// samples to the named metrics; see perfbench/README.md for the workloads.
///
/// Usage:
///   perfbench_driver <workload> --seed <n> --seconds <s> --trace <0|1>
///                    [--socket <@name>]
///   perfbench_driver inputs --seed <n>        # content hashes only
///   perfbench_driver stall_probe --socket <@name>
///   perfbench_driver daemon_flags              # netpartd flags, as JSON
///
/// Every generated input derives from --seed: the seed relabels fixed-shape
/// generated netlists (module and net ids permuted), drives the ECO stream,
/// and picks sessions and edits in the serve_mix schedule.  Relabelling
/// keeps each problem's structure, so run-to-run spread measures the host
/// and the code, not a different instance.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "circuits/generator.hpp"
#include "cluster/multilevel.hpp"
#include "core/partitioner.hpp"
#include "graph/intersection_graph.hpp"
#include "hypergraph/content_hash.hpp"
#include "hypergraph/cut_metrics.hpp"
#include "igmatch/igmatch.hpp"
#include "io/netlist_io.hpp"
#include "linalg/fiedler.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "repart/edit_script.hpp"
#include "repart/session.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/runtime/executor_pool.hpp"
#include "server/socket_util.hpp"

namespace {

using namespace netpart;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

// --- workload constants ---------------------------------------------------
// Set-up is repeated and reported as a median: one sub-second sample is
// at the mercy of a 2-3 s slow phase on a shared host.  A few set-ups run
// at the start; the rest are spread over the run, as the operations are.
constexpr int kStartSetups = 3;
// batch_mix: one round cold-partitions the flat set and the V-cycle netlist,
// then takes kEcoStepsPerRound ECO steps on the warm session.
constexpr int kBatchSetupsPerRound = 2;  ///< one set-up is ~0.2 s
constexpr int kEcoStepsPerRound = 10;
constexpr int kEcoGeomeanSteps = 100;  ///< ratio_geomean covers exactly these
constexpr int kMinRounds = kEcoGeomeanSteps / kEcoStepsPerRound;
constexpr std::int32_t kFlatModules = 6000;  ///< + the 9 paper circuits
constexpr std::int32_t kVcycleModules = 100000;
constexpr std::int32_t kEcoModules = 2000;
constexpr int kEcoColdEvery = 10;  ///< traced: cold reference cadence

// serve_mix: open loop at a fixed rate, 80% hit / 12% warm / 8% cold in a
// fixed 25-slot pattern (the bench/loadtest mix); 4 of the 20 hit slots go
// through the result cache, the other 16 replay a primed session's answer.
// The rate is half the rate at which the cold lane saturates on the 4-vCPU
// reference host (README.md records the measurement).
constexpr double kServeRate = 55.0;
constexpr int kPatternLen = 25;
constexpr int kWarmSlots[3] = {3, 11, 19};
constexpr int kColdSlots[2] = {7, 23};
constexpr int kCacheSlots[4] = {1, 9, 15, 21};
constexpr std::size_t kServeChunk = 250;  ///< events between re-primes
constexpr int kHitSessions = 8;
constexpr int kHitCircuits = 4;
constexpr std::int32_t kHitModules = 600;
constexpr int kWarmSessions = 8;
constexpr std::int32_t kWarmModules = 150;
constexpr int kColdPool = 8;
constexpr std::int32_t kColdModules = 1000;
constexpr std::size_t kServeLanes = 2;       ///< netpartd --pool-lanes
constexpr std::size_t kDaemonColdSlots = 8;  ///< netpartd --cold-slots
constexpr std::size_t kInteractiveLane = 0;
constexpr std::size_t kColdLane = 1;
constexpr int kReadTimeoutMs = 60000;

// --- seeded inputs ----------------------------------------------------------

struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); the modulo bias is irrelevant at these sizes.
  std::int32_t below(std::int32_t n) {
    return static_cast<std::int32_t>(next() % static_cast<std::uint64_t>(n));
  }
};

/// Independent stream `stream` of the run's seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix{seed * 0x100000001B3ULL + stream};
  return mix.next();
}

/// `h` with module ids and net order permuted by `seed`: an isomorphic
/// instance, so the problem stays the same and only its labels change.
/// `module_of`, when given, receives the module permutation.
Hypergraph relabel(const Hypergraph& h, std::uint64_t seed,
                   std::vector<std::int32_t>* module_of_out = nullptr) {
  SplitMix64 rng{seed};
  auto shuffled = [&rng](std::int32_t n) {
    std::vector<std::int32_t> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 0);
    for (std::int32_t i = n - 1; i > 0; --i)
      std::swap(v[static_cast<std::size_t>(i)],
                v[static_cast<std::size_t>(rng.below(i + 1))]);
    return v;
  };
  const std::vector<std::int32_t> module_of = shuffled(h.num_modules());
  const std::vector<std::int32_t> net_order = shuffled(h.num_nets());
  HypergraphBuilder builder(h.num_modules());
  builder.set_name(h.name());
  std::vector<ModuleId> pins;
  for (const NetId n : net_order) {
    pins.clear();
    for (const ModuleId m : h.pins(n))
      pins.push_back(module_of[static_cast<std::size_t>(m)]);
    builder.add_net(pins, h.net_weight(n));
  }
  if (module_of_out != nullptr) *module_of_out = module_of;
  return builder.build();
}

/// The workload's fixed-shape netlist, before relabelling.
Hypergraph canonical(const std::string& name, std::int32_t modules) {
  GeneratorConfig config;
  config.name = name;
  config.num_modules = modules;
  config.num_nets = modules + modules / 10;
  return generate_circuit(config).hypergraph;
}

Hypergraph generated(const std::string& name, std::int32_t modules,
                     std::uint64_t seed) {
  return relabel(canonical(name, modules), seed);
}

struct Instance {
  std::string name;
  Hypergraph h;
};

std::vector<Instance> flat_inputs(std::uint64_t seed) {
  std::vector<Instance> out;
  std::uint64_t stream = 0;
  for (const BenchmarkSpec& spec : benchmark_suite())
    out.push_back({spec.name, relabel(make_benchmark(spec.name).hypergraph,
                                      stream_seed(seed, stream++))});
  out.push_back({"gen6k", generated("perfbench-flat", kFlatModules,
                                     stream_seed(seed, stream))});
  return out;
}

Hypergraph vcycle_input(std::uint64_t seed) {
  return generated("perfbench-vcycle", kVcycleModules, stream_seed(seed, 100));
}

/// The ECO workload's netlist in its canonical labelling, and relabelled.
struct EcoInput {
  Hypergraph canonical;
  std::vector<std::int32_t> module_of;
  Hypergraph h;
};

EcoInput eco_input(std::uint64_t seed) {
  EcoInput in;
  in.canonical = canonical("perfbench-eco", kEcoModules);
  in.h = relabel(in.canonical, stream_seed(seed, 200), &in.module_of);
  return in;
}

std::string to_hgr(const Hypergraph& h) {
  std::ostringstream out;
  io::write_hgr(out, h);
  return out.str();
}

// --- results and checks -----------------------------------------------------

/// Raw measurements of one run: sample arrays and scalar values by metric
/// name, plus the operation count and the failures among them.
struct Report {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  std::vector<std::pair<std::string, std::string>> inputs;  // name, hash
  std::vector<std::string> failures;  // first few messages
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  void add(const std::string& name, double v) { samples[name].push_back(v); }
};

std::uint64_t sides_hash(const Partition& p) {
  Fnv1a f;
  for (ModuleId m = 0; m < p.num_modules(); ++m)
    f.add_byte(p.side(m) == Side::kLeft ? 0 : 1);
  return f.digest();
}

/// One solve's observable result; two solves agree when all fields do.
struct Outcome {
  std::uint64_t sides = 0;
  std::int32_t cut = 0;
  double ratio = 0.0;
  bool operator==(const Outcome&) const = default;
};

/// The partition is proper and the reported cut and ratio are exactly what
/// net_cut / ratio_cut recompute.
bool consistent(const Hypergraph& h, const Partition& p, std::int32_t cut,
                double ratio) {
  return p.num_modules() == h.num_modules() && p.is_proper() &&
         net_cut(h, p) == cut && ratio_cut(h, p) == ratio;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

void add_input(Report& r, const std::string& name, const Hypergraph& h) {
  r.inputs.emplace_back(name, format_content_hash(netlist_content_hash(h)));
}

/// Runs `round` until `seconds` have passed (at least kMinRounds times), never
/// starting a round the previous one says would overrun by more than half.
template <typename Round>
void run_rounds(double seconds, Round&& round) {
  const auto start = Clock::now();
  double last_ms = 0.0;
  for (int n = 0;; ++n) {
    const double elapsed = ms_since(start);
    if (n >= kMinRounds && elapsed + 0.5 * last_ms >= seconds * 1000.0) break;
    const auto t0 = Clock::now();
    round(n);
    last_ms = ms_since(t0);
  }
}

/// Runs `setup` once and records its time in seconds.
template <typename Setup>
auto time_setup(Report& r, Setup& setup) {
  const auto t0 = Clock::now();
  auto state = setup();
  r.add("setup_s", ms_since(t0) / 1000.0);
  return state;
}

template <typename Setup>
void resample_setup(Report& r, Setup&& setup) {
  (void)time_setup(r, setup);
}

/// Runs `setup` kStartSetups times; returns the last result.  Every
/// workload repeats its set-up during the run too (resample_setup), so the
/// median spans the run's slow and fast phases like the operations do.
template <typename Setup>
auto timed_setups(Report& r, Setup&& setup) {
  for (int i = 1; i < kStartSetups; ++i) resample_setup(r, setup);
  return time_setup(r, setup);
}

// --- batch_mix ----------------------------------------------------------------

/// Busy time per layer of one traced solve, split into the public calls
/// run_partitioner makes on the flat IG-Match route.
struct FlatLayers {
  double ig_ms = 0, laplacian_ms = 0, fiedler_ms = 0, sort_ms = 0,
         sweep_ms = 0;
  std::int64_t ig_nnz = 0, iterations = 0, unconverged = 0;
};

Outcome flat_split(const Hypergraph& h, FlatLayers& t) {
  const IgMatchOptions options;  // the defaults run_partitioner passes
  auto t0 = Clock::now();
  const WeightedGraph ig = intersection_graph(h, options.weighting);
  t.ig_ms += ms_since(t0);
  t.ig_nnz += ig.num_edges() * 2;
  t0 = Clock::now();
  const linalg::CsrMatrix q = ig.laplacian();
  t.laplacian_ms += ms_since(t0);
  t0 = Clock::now();
  const linalg::FiedlerResult f = linalg::fiedler_pair(q, options.lanczos);
  t.fiedler_ms += ms_since(t0);
  t.iterations += f.lanczos_iterations;
  t.unconverged += f.converged ? 0 : 1;
  t0 = Clock::now();
  const std::vector<std::int32_t> order = linalg::sorted_order(f.vector);
  t.sort_ms += ms_since(t0);
  // igmatch_partition builds the IG a second time for the sweep; so do we.
  t0 = Clock::now();
  const WeightedGraph sweep_ig = intersection_graph(h, options.weighting);
  t.ig_ms += ms_since(t0);
  t0 = Clock::now();
  const IgMatchResult r = igmatch_sweep(h, sweep_ig, order, {}, options);
  t.sweep_ms += ms_since(t0);
  const std::int32_t cut = net_cut(h, r.partition);
  return {sides_hash(r.partition), cut,
          ratio_cut_value(cut, r.partition.size(Side::kLeft),
                          r.partition.size(Side::kRight))};
}

/// The ECO stream: batches of 1-3 edits, each an add-net, a move-pin or a
/// remove-net.  Edits are local, as real ECOs are: a new net joins 2-4
/// modules that already share nets, and a moved pin lands next to the net's
/// other pins.  Moves and removals touch only nets the stream added, so the
/// original netlist, and its connectivity, is never reduced.  The stream is
/// drawn in the canonical labelling and mapped through the run's module
/// permutation, so every seed replays the same edits on its relabelled
/// netlist and step costs compare across seeds.
class EcoStream {
 public:
  EcoStream(const Hypergraph& canonical, std::vector<std::int32_t> module_of)
      : base_(canonical), module_of_(std::move(module_of)) {}

  void apply_batch(repart::EditableNetlist& nl) {
    const int ops = 1 + rng_.below(3);
    for (int k = 0; k < ops; ++k) {
      const std::int32_t kind = rng_.below(10);
      if (kind < 4 || added_.empty()) {
        std::vector<ModuleId> pins{rng_.below(base_.num_modules())};
        const auto size = static_cast<std::size_t>(2 + rng_.below(3));
        for (int tries = 0; pins.size() < size && tries < 64; ++tries) {
          const ModuleId m = neighbour(pins);
          if (std::find(pins.begin(), pins.end(), m) == pins.end())
            pins.push_back(m);
        }
        std::vector<ModuleId> mapped;
        for (const ModuleId m : pins) mapped.push_back(map(m));
        added_.push_back(nl.add_net(mapped));
        pins_.push_back(std::move(pins));
        continue;
      }
      const auto pick = static_cast<std::size_t>(
          rng_.below(static_cast<std::int32_t>(added_.size())));
      const NetId n = added_[pick];
      if (kind < 7) {
        std::vector<ModuleId>& pins = pins_[pick];
        ModuleId to = neighbour(pins);
        for (int tries = 0;
             std::find(pins.begin(), pins.end(), to) != pins.end(); ++tries)
          to = tries < 64 ? neighbour(pins) : rng_.below(base_.num_modules());
        ModuleId& from = pins[static_cast<std::size_t>(
            rng_.below(static_cast<std::int32_t>(pins.size())))];
        nl.move_pin(n, map(from), map(to));
        from = to;
      } else {
        nl.remove_net(n);  // shifts every higher net id down by one
        added_.erase(added_.begin() + static_cast<std::ptrdiff_t>(pick));
        pins_.erase(pins_.begin() + static_cast<std::ptrdiff_t>(pick));
        for (NetId& id : added_) id -= id > n ? 1 : 0;
      }
    }
  }

 private:
  ModuleId map(ModuleId m) const {
    return module_of_[static_cast<std::size_t>(m)];
  }

  /// A module sharing a base net with a random member of `pins`.
  ModuleId neighbour(const std::vector<ModuleId>& pins) {
    const ModuleId from = pins[static_cast<std::size_t>(
        rng_.below(static_cast<std::int32_t>(pins.size())))];
    const auto nets = base_.nets_of(from);
    const auto net_pins = base_.pins(nets[static_cast<std::size_t>(
        rng_.below(static_cast<std::int32_t>(nets.size())))]);
    return net_pins[static_cast<std::size_t>(
        rng_.below(static_cast<std::int32_t>(net_pins.size())))];
  }

  const Hypergraph& base_;
  std::vector<std::int32_t> module_of_;
  SplitMix64 rng_{0xEC0};
  std::vector<NetId> added_;               // current ids in the netlist
  std::vector<std::vector<ModuleId>> pins_;  // their canonical pins
};

/// The batch workload's inputs.  Set-up builds them all, including the ECO
/// session's first, cold repartition().
struct BatchInputs {
  std::vector<Instance> cold;  ///< the flat set, then the V-cycle netlist
  EcoInput eco;
  std::unique_ptr<repart::RepartitionSession> session;
};

BatchInputs batch_inputs(Report& r, std::uint64_t seed) {
  BatchInputs in;
  in.cold = flat_inputs(seed);
  in.cold.push_back({"gen100k", vcycle_input(seed)});
  in.eco = eco_input(seed);
  in.session = std::make_unique<repart::RepartitionSession>(in.eco.h);
  const repart::RepartitionResult cold = in.session->repartition();
  r.record(consistent(in.session->hypergraph(), cold.partition,
                      cold.nets_cut, cold.ratio),
           "eco: cold repartition inconsistent");
  return in;
}

/// ECO-step counters of the traced run, for the repart.* fractions.
struct EcoCounters {
  std::int64_t steps = 0, warm = 0, prev_kept = 0, reused = 0, touched = 0,
               evaluated = 0, ranks = 0;
};

void batch_mix(Report& r, std::uint64_t seed, double seconds, bool trace) {
  const auto setup = [&r, seed] { return batch_inputs(r, seed); };
  const BatchInputs in = timed_setups(r, setup);
  for (const Instance& x : in.cold) add_input(r, x.name, x.h);
  repart::RepartitionSession& session = *in.session;
  add_input(r, "gen2k", session.hypergraph());
  const std::size_t big = in.cold.size() - 1;  // the V-cycle netlist

  PartitionerConfig config;
  config.algorithm = Algorithm::kIgMatch;  // auto-routes 100k to the V-cycle
  MultilevelOptions ml_options;            // what that route passes
  ml_options.coarsen_to = config.multilevel_coarsen_to;
  ml_options.vcycles = config.multilevel_vcycles;
  ml_options.igmatch.weighting = config.weighting;
  ml_options.igmatch.lanczos = config.lanczos;
  ml_options.igmatch.threshold_net_size = config.threshold_net_size;

  std::vector<Outcome> reference;  // one per cold instance, from round 0
  EcoStream stream(in.eco.canonical, in.eco.module_of);
  EcoCounters eco;
  double eco_log_ratio_sum = 0.0;
  int step = 0;

  // Untraced cold solves: every instance through run_partitioner.
  auto cold_round = [&] {
    std::vector<Outcome> outcomes;
    std::vector<bool> ok;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < in.cold.size(); ++i) {
      if (i == big) {
        r.add("path.flat_ms", ms_since(t0));
        t0 = Clock::now();
      }
      const Hypergraph& h = in.cold[i].h;
      const PartitionResult p = run_partitioner(h, config);
      outcomes.push_back({sides_hash(p.partition), p.nets_cut, p.ratio});
      ok.push_back(p.via_multilevel == (i == big) &&
                   consistent(h, p.partition, p.nets_cut, p.ratio));
    }
    r.add("path.vcycle_ms", ms_since(t0));
    if (reference.empty()) reference = outcomes;
    for (std::size_t i = 0; i < in.cold.size(); ++i)
      r.record(ok[i] && outcomes[i] == reference[i],
               in.cold[i].name + ": inconsistent or not repeatable");
  };

  // kEcoStepsPerRound ECO steps; `split` times the two calls of each step
  // and keeps the repart.* counters.  Returns the steps' time in ms,
  // without the traced cold reference solves.
  auto eco_steps = [&](bool split) {
    double steps_ms = 0.0;
    for (int k = 0; k < kEcoStepsPerRound; ++k, ++step) {
      const auto t0 = Clock::now();
      stream.apply_batch(session.netlist());
      const auto t1 = Clock::now();
      const repart::RepartitionResult res = session.repartition();
      const auto t2 = Clock::now();
      steps_ms += ms_between(t0, t2);
      const Hypergraph& h = session.hypergraph();
      r.record(consistent(h, res.partition, res.nets_cut, res.ratio),
               "eco step " + std::to_string(step) + ": inconsistent");
      if (step < kEcoGeomeanSteps) eco_log_ratio_sum += std::log(res.ratio);
      if (!split) {
        r.add("path.eco_step_ms", ms_between(t0, t2));
        continue;
      }
      r.add("repart.edit_ms", ms_between(t0, t1));
      r.add("repart.repartition_ms", ms_between(t1, t2));
      r.add("repart.lanczos_iters", res.lanczos_iterations);
      ++eco.steps;
      eco.warm += res.warm_started ? 1 : 0;
      eco.prev_kept += res.used_previous_partition ? 1 : 0;
      eco.reused += res.ig_rows_reused;
      eco.touched += res.ig_rows_reused + res.ig_rows_rebuilt;
      eco.evaluated += res.sweep_ranks_evaluated;
      eco.ranks += res.sweep_ranks_total;
      if (step % kEcoColdEvery == 0) {
        const IgMatchResult cold = igmatch_partition(h);
        r.add("repart.ratio_vs_cold", res.ratio / cold.ratio);
      }
    }
    return steps_ms;
  };

  // Traced cold solves: each instance split into the public calls its route
  // makes.  Each result must equal the untraced one.  Returns the time of
  // the calls that stand for the untraced solves (the flat splits and
  // multilevel_partition); the extra coarsen_hierarchy and vcycle_refine
  // calls are timed on their own.
  auto traced_cold = [&] {
    FlatLayers t;
    double gen_fiedler_ms = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < big; ++i) {
      const double before = t.fiedler_ms;
      const std::int64_t iters_before = t.iterations;
      const Outcome o = flat_split(in.cold[i].h, t);
      r.record(o == reference[i], in.cold[i].name + ": split differs");
      if (in.cold[i].name == "gen6k") {
        gen_fiedler_ms = t.fiedler_ms - before;
        const double iters = static_cast<double>(t.iterations - iters_before);
        r.values["linalg.lanczos_iters_gen"] = iters;
        r.values["linalg.basis_mb"] =
            iters * in.cold[i].h.num_nets() * 8.0 / (1024.0 * 1024.0);
      }
    }
    const double flat_ms = ms_since(t0);
    r.add("graph.ig_build_ms", t.ig_ms);
    r.add("graph.laplacian_ms", t.laplacian_ms);
    r.add("linalg.fiedler_ms", t.fiedler_ms);
    r.add("linalg.fiedler_ms_gen", gen_fiedler_ms);
    r.add("spectral.sort_ms", t.sort_ms);
    r.add("igmatch.sweep_ms", t.sweep_ms);
    r.add("layer_sum_ms", t.ig_ms + t.laplacian_ms + t.fiedler_ms +
                              t.sort_ms + t.sweep_ms);
    r.values["graph.ig_nnz"] = static_cast<double>(t.ig_nnz);
    r.values["linalg.lanczos_iters"] = static_cast<double>(t.iterations);

    const Hypergraph& h = in.cold[big].h;
    auto t1 = Clock::now();
    const MultilevelHierarchy hierarchy = coarsen_hierarchy(h, ml_options);
    r.add("cluster.coarsen_ms", ms_since(t1));
    r.values["cluster.levels"] = static_cast<double>(hierarchy.levels.size());
    t1 = Clock::now();
    const MultilevelResult ml = multilevel_partition(h, ml_options);
    const double ml_ms = ms_since(t1);
    r.add("cluster.ml_total_ms", ml_ms);
    r.values["cluster.coarsest_modules"] = ml.coarsest_modules;
    r.values["cluster.vcycles_run"] = ml.vcycles_run;
    r.values["linalg.unconverged"] =
        static_cast<double>(t.unconverged) + (ml.eigen_converged ? 0.0 : 1.0);
    const std::int32_t cut = net_cut(h, ml.partition);
    r.record(Outcome{sides_hash(ml.partition), cut,
                     ratio_cut(h, ml.partition)} == reference[big],
             "gen100k: traced multilevel_partition differs");
    t1 = Clock::now();
    std::int32_t cycles = 0;
    const Partition refined =
        vcycle_refine(h, ml.partition, ml_options, &cycles);
    r.add("fm.vcycle_refine_ms", ms_since(t1));
    r.record(refined.is_proper() &&
                 ratio_cut(h, refined) <= ratio_cut(h, ml.partition),
             "gen100k: vcycle_refine made the ratio worse");
    return flat_ms + ml_ms;
  };

  // A traced run alternates untraced and traced rounds: the pair gives the
  // tracing overhead.
  run_rounds(seconds, [&](int n) {
    for (int k = 0; k < kBatchSetupsPerRound; ++k) resample_setup(r, setup);
    if (!trace || n % 2 == 0) {
      const auto t0 = Clock::now();
      cold_round();
      eco_steps(false);
      r.add("op_ms", ms_since(t0));
      return;
    }
    const double cold_ms = traced_cold();
    r.add("traced_op_ms", cold_ms + eco_steps(true));
  });

  if (trace) {
    // One SpMV on the 6k instance's Laplacian, timed call by call.
    const linalg::CsrMatrix q =
        intersection_graph(in.cold[big - 1].h).laplacian();
    std::vector<double> x(static_cast<std::size_t>(q.dim()));
    std::vector<double> y(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = 1.0 / static_cast<double>(i + 1);
    for (int i = 0; i < 300; ++i) {
      const auto t0 = Clock::now();
      q.multiply(x, y);
      r.add("linalg.spmv_ms", ms_since(t0));
    }
    const auto frac = [](std::int64_t a, std::int64_t b) {
      return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    r.values["repart.warm_frac"] = frac(eco.warm, eco.steps);
    r.values["repart.prev_kept_frac"] = frac(eco.prev_kept, eco.steps);
    r.values["repart.ig_reuse_frac"] = frac(eco.reused, eco.touched);
    r.values["repart.sweep_frac"] = frac(eco.evaluated, eco.ranks);
  }
  // One geometric mean per path, then their geometric mean: the flat set,
  // the V-cycle netlist, and the first kEcoGeomeanSteps ECO steps.
  double flat_log_sum = 0.0;
  for (std::size_t i = 0; i < big; ++i)
    flat_log_sum += std::log(reference[i].ratio);
  r.values["ratio_geomean"] =
      std::exp((flat_log_sum / static_cast<double>(big) +
                std::log(reference[big].ratio) +
                eco_log_ratio_sum / kEcoGeomeanSteps) /
               3.0);
}

// --- open-loop client ---------------------------------------------------------

/// One NDJSON connection written by the scheduling thread and read by its
/// own reader thread; the two share nothing but the descriptor.
class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool connect(const std::string& socket) {
    sockaddr_un addr{};
    socklen_t len = 0;
    std::string error;
    if (!server::make_unix_address(socket, addr, len, error)) return false;
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    return fd_ >= 0 &&
           ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), len) == 0;
  }

  bool send(const std::string& line) const {
    std::string framed = line + '\n';
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next response line, or false on EOF, error or `timeout_ms` of silence.
  bool read_line(std::string& out, int timeout_ms) {
    for (;;) {
      const std::size_t nl = inbuf_.find('\n');
      if (nl != std::string::npos) {
        out.assign(inbuf_, 0, nl);
        inbuf_.erase(0, nl + 1);
        return true;
      }
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) return false;
      char buf[65536];
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n <= 0) return false;
      inbuf_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string inbuf_;
};

/// A scheduled event: request lines sent back to back on one connection at
/// `due_ms` after the start; its latency ends when the response to line
/// `final_line` arrives.  Each line's id is `first_id` + its index.
struct Event {
  double due_ms = 0.0;
  std::size_t conn = 0;
  std::vector<std::string> lines;
  std::size_t final_line = 0;
  std::int64_t first_id = 0;
};

struct OpenLoopResult {
  std::map<std::int64_t, std::pair<double, std::string>> responses;  // by id
  std::vector<double> late_ms;  // send time - due time, per event
  std::int64_t backlog_max = 0;
  bool transport_ok = true;
};

std::int64_t response_id(const std::string& line) {
  const std::size_t at = line.find("\"id\":");
  return at == std::string::npos ? -1
                                 : std::strtoll(line.c_str() + at + 5, nullptr, 10);
}

/// Sends every event at its due time, whatever has come back, and records
/// each response's arrival time relative to the schedule start.  Latency is
/// later taken from the due time, so a stall charges every request due
/// while it lasted, not only the one that met it.
OpenLoopResult run_open_loop(const std::string& socket,
                             const std::vector<Event>& events,
                             std::size_t num_conns) {
  OpenLoopResult out;
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<std::size_t> expected(num_conns, 0);
  for (const Event& e : events) expected[e.conn] += e.lines.size();
  for (std::size_t c = 0; c < num_conns; ++c) {
    conns.push_back(std::make_unique<Connection>());
    if (!conns.back()->connect(socket)) {
      out.transport_ok = false;
      return out;
    }
  }
  const auto start = Clock::now() + std::chrono::milliseconds(50);
  std::atomic<std::int64_t> received{0};
  std::vector<std::vector<std::pair<double, std::string>>> got(num_conns);
  std::vector<char> reader_ok(num_conns, 1);
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < num_conns; ++c)
    readers.emplace_back([&, c] {
      std::string line;
      for (std::size_t k = 0; k < expected[c]; ++k) {
        if (!conns[c]->read_line(line, kReadTimeoutMs)) {
          reader_ok[c] = 0;
          return;
        }
        got[c].emplace_back(ms_since(start), std::move(line));
        received.fetch_add(1, std::memory_order_relaxed);
      }
    });
  std::int64_t sent = 0;
  for (const Event& e : events) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(e.due_ms));
    std::this_thread::sleep_until(due);
    out.late_ms.push_back(ms_since(due));
    out.backlog_max = std::max(
        out.backlog_max, sent - received.load(std::memory_order_relaxed));
    for (const std::string& line : e.lines) {
      out.transport_ok = conns[e.conn]->send(line) && out.transport_ok;
      ++sent;
    }
  }
  for (std::thread& t : readers) t.join();
  for (std::size_t c = 0; c < num_conns; ++c) {
    out.transport_ok = out.transport_ok && reader_ok[c] != 0;
    for (auto& [t, line] : got[c]) {
      const std::int64_t id = response_id(line);
      out.responses[id] = {t, std::move(line)};
    }
  }
  return out;
}

// --- serve_mix ----------------------------------------------------------------

std::string lane_pinned_name(const std::string& prefix, std::size_t lane) {
  for (int salt = 0;; ++salt) {
    std::string name = prefix + "-" + std::to_string(salt);
    if (server::runtime::ExecutorPool::lane_for_session(name, kServeLanes) ==
        lane)
      return name;
  }
}

std::string request(std::int64_t id, const std::string& op,
                    const std::string& session, const std::string& extra) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op +
         "\",\"session\":\"" + session + "\"" + extra + "}";
}

std::string get_string(const server::JsonValue& v, std::string_view key) {
  const server::JsonValue* f = v.find(key);
  return f != nullptr && f->is_string() ? f->string : std::string();
}
double get_number(const server::JsonValue& v, std::string_view key) {
  const server::JsonValue* f = v.find(key);
  return f != nullptr && f->is_number() ? f->number : -1.0;
}
bool is_ok(const server::JsonValue& v) {
  const server::JsonValue* f = v.find("ok");
  return f != nullptr && f->is_bool() && f->boolean;
}

Partition parse_assignment(const std::string& a) {
  std::vector<Side> sides;
  for (const char c : a) sides.push_back(c == 'L' ? Side::kLeft : Side::kRight);
  return Partition(std::move(sides));
}

/// A partition response is ok and consistent with `h`.
bool partition_response_ok(const server::JsonValue& v, const Hypergraph& h) {
  if (!is_ok(v)) return false;
  const std::string a = get_string(v, "assignment");
  if (static_cast<std::int32_t>(a.size()) != h.num_modules()) return false;
  return consistent(h, parse_assignment(a),
                    static_cast<std::int32_t>(get_number(v, "cut")),
                    get_number(v, "ratio"));
}

struct Fixture {
  std::string session;
  Hypergraph h;
  std::string hgr;
  std::string hash;
};

struct ServeFixtures {
  std::vector<Fixture> hit, warm, cold;
};

Fixture make_fixture(const std::string& session, const Hypergraph& h) {
  return {session, h, to_hgr(h), format_content_hash(netlist_content_hash(h))};
}

ServeFixtures make_serve_fixtures(std::uint64_t seed) {
  ServeFixtures f;
  std::vector<Hypergraph> hit_circuits;
  for (int i = 0; i < kHitCircuits; ++i)
    hit_circuits.push_back(generated("perfbench-hit" + std::to_string(i),
                                     kHitModules, stream_seed(seed, 300 + static_cast<std::uint64_t>(i))));
  for (int i = 0; i < kHitSessions; ++i)
    f.hit.push_back(make_fixture(
        lane_pinned_name("hit" + std::to_string(i), kInteractiveLane),
        hit_circuits[static_cast<std::size_t>(i % kHitCircuits)]));
  const Hypergraph warm =
      generated("perfbench-warm", kWarmModules, stream_seed(seed, 400));
  for (int i = 0; i < kWarmSessions; ++i)
    f.warm.push_back(make_fixture(
        lane_pinned_name("warm" + std::to_string(i), kInteractiveLane), warm));
  for (int i = 0; i < kColdPool; ++i)
    f.cold.push_back(make_fixture(
        "", generated("perfbench-cold", kColdModules, stream_seed(seed, 500 + static_cast<std::uint64_t>(i)))));
  return f;
}

/// Loads and cold-partitions every hit and warm session (bypassing the
/// result cache, so each set-up computes), checking each result against the
/// first compute of its content.  A load replaces a session of the same
/// name, so priming again resets the warm sessions' netlists.
bool prime_sessions(const std::string& socket, const ServeFixtures& f,
                    Report& r, std::map<std::string, std::string>& first) {
  server::Client client;
  if (!client.connect(socket)) return false;
  for (const std::vector<Fixture>* group : {&f.hit, &f.warm})
    for (const Fixture& fx : *group) {
      server::JsonValue v;
      if (!client.round_trip_json(
              request(1, "load", fx.session,
                      ",\"hgr\":\"" + obs::json_escape(fx.hgr) + "\""),
              v) ||
          !is_ok(v))
        return false;
      r.record(get_string(v, "hash") == fx.hash, fx.session + ": hash differs");
      if (!client.round_trip_json(
              request(2, "partition", fx.session, ",\"use_cache\":false"), v))
        return false;
      const std::string a = get_string(v, "assignment");
      const auto [it, fresh] = first.emplace(fx.hash, a);
      r.record(partition_response_ok(v, fx.h) && it->second == a,
               fx.session + ": priming partition inconsistent");
    }
  return true;
}

std::string trace_id(std::uint64_t seed, std::size_t event) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(seed + 1),
                static_cast<unsigned long long>(event + 1));
  return buf;
}

/// hit: partition of a primed session, replayed from the session.
/// cache: load a fresh session of a hit netlist, partition it through the
/// result cache, unload it.  warm: edit + repartition.  cold: load +
/// uncached partition + unload on the cold lane.
enum Kind { kHit, kCache, kWarm, kCold };
constexpr const char* kClass[4] = {"hit", "cache", "warm", "cold"};

Kind kind_of(std::size_t event) {
  const int slot = static_cast<int>(event % kPatternLen);
  for (const int s : kWarmSlots)
    if (slot == s) return kWarm;
  for (const int s : kColdSlots)
    if (slot == s) return kCold;
  for (const int s : kCacheSlots)
    if (slot == s) return kCache;
  return kHit;
}

/// serve_mix state that lasts across chunks: the schedule's generators and
/// what the checks add up.
struct ServeState {
  std::map<std::string, std::string> first;  // first compute, by hash
  std::vector<std::string> cold_first = std::vector<std::string>(kColdPool);
  SplitMix64 rng{0};
  std::size_t warm_rr = 0, cold_rr = 0;
  std::int64_t shed[4] = {0, 0, 0, 0};
  std::int64_t cache_events = 0, cache_served = 0;
  std::vector<double> late_ms;
  std::int64_t backlog_max = 0;
};

/// Runs events [begin, end) of the schedule as one open loop against
/// freshly primed sessions, then checks every response.
void serve_chunk(Report& r, const ServeFixtures& f, ServeState& st,
                 std::uint64_t seed, bool trace, const std::string& socket,
                 std::size_t begin, std::size_t end) {
  struct Meta {
    Kind kind;
    std::size_t fixture;
    std::string script;  // warm: the edit applied before the repartition
    bool traced;
  };
  std::vector<Event> events;
  std::vector<Meta> meta;
  std::vector<std::int64_t> warm_ops(kWarmSessions, 0);
  for (std::size_t i = begin; i < end; ++i) {
    const Kind kind = kind_of(i);
    // Traced runs trace every other event; the untraced half is the
    // in-run baseline for the tracing overhead.
    const bool traced = trace && i % 2 == 1;
    const std::string tr =
        traced ? ",\"trace_id\":\"" + trace_id(seed, i) + "\"" : "";
    Event e;
    e.due_ms = 1000.0 * static_cast<double>(i - begin) / kServeRate;
    e.first_id = static_cast<std::int64_t>(i) * 4 + 1;
    Meta m{kind, 0, "", traced};
    if (kind == kHit) {
      m.fixture = static_cast<std::size_t>(st.rng.below(kHitSessions));
      e.conn = 0;
      e.lines = {request(e.first_id, "partition", f.hit[m.fixture].session, tr)};
    } else if (kind == kCache) {
      m.fixture = static_cast<std::size_t>(st.rng.below(kHitSessions));
      const std::string s =
          lane_pinned_name("cache" + std::to_string(i), kInteractiveLane);
      e.conn = 0;
      e.lines = {request(e.first_id, "load", s,
                         ",\"hgr\":\"" + obs::json_escape(f.hit[m.fixture].hgr) + "\""),
                 request(e.first_id + 1, "partition", s, tr),
                 request(e.first_id + 2, "unload", s, "")};
      e.final_line = 1;
    } else if (kind == kWarm) {
      m.fixture = st.warm_rr++ % kWarmSessions;
      const std::int64_t k = warm_ops[m.fixture]++;
      // Alternate adding a net and removing the one just added, so each
      // warm session's netlist stays the same size across the run.
      if (k % 2 == 0) {
        std::vector<std::int32_t> pins;
        while (pins.size() < 3) {
          const std::int32_t p = st.rng.below(kWarmModules);
          if (std::find(pins.begin(), pins.end(), p) == pins.end())
            pins.push_back(p);
        }
        m.script = "add-net pb" + std::to_string(k) + " " +
                   std::to_string(pins[0]) + " " + std::to_string(pins[1]) +
                   " " + std::to_string(pins[2]) + "\n";
      } else {
        m.script = "remove-net pb" + std::to_string(k - 1) + "\n";
      }
      const std::string& s = f.warm[m.fixture].session;
      e.conn = 1;
      e.lines = {request(e.first_id, "edit", s,
                         ",\"script\":\"" + obs::json_escape(m.script) + "\""),
                 request(e.first_id + 1, "repartition", s, tr)};
      e.final_line = 1;
    } else {
      m.fixture = st.cold_rr++ % kColdPool;
      const std::string s = lane_pinned_name("cold" + std::to_string(i), kColdLane);
      e.conn = 2;
      e.lines = {request(e.first_id, "load", s,
                         ",\"hgr\":\"" + obs::json_escape(f.cold[m.fixture].hgr) + "\""),
                 request(e.first_id + 1, "partition", s, ",\"use_cache\":false" + tr),
                 request(e.first_id + 2, "unload", s, "")};
      e.final_line = 1;
    }
    events.push_back(std::move(e));
    meta.push_back(std::move(m));
  }

  const OpenLoopResult run = run_open_loop(socket, events, 3);
  if (!run.transport_ok) throw std::runtime_error("serve_mix: transport failed");
  st.late_ms.insert(st.late_ms.end(), run.late_ms.begin(), run.late_ms.end());
  st.backlog_max = std::max(st.backlog_max, run.backlog_max);

  // Replay each warm session's edits on a local mirror to check its results.
  std::vector<std::unique_ptr<repart::EditableNetlist>> mirrors;
  std::vector<std::unique_ptr<repart::EditScriptApplier>> appliers;
  for (const Fixture& fx : f.warm) {
    mirrors.push_back(std::make_unique<repart::EditableNetlist>(fx.h));
    appliers.push_back(std::make_unique<repart::EditScriptApplier>(*mirrors.back()));
  }
  for (std::size_t j = 0; j < events.size(); ++j) {
    const Event& e = events[j];
    const Meta& m = meta[j];
    const std::string event = std::to_string(begin + j);
    bool ok = true;
    std::vector<server::JsonValue> v(e.lines.size());
    for (std::size_t k = 0; k < e.lines.size(); ++k) {
      const auto it = run.responses.find(e.first_id + static_cast<std::int64_t>(k));
      std::string error;
      ok = ok && it != run.responses.end() &&
           server::parse_json(it->second.second, v[k], error);
    }
    if (!ok) {
      r.record(false, "event " + event + ": missing response");
      continue;
    }
    const server::JsonValue& final_v = v[e.final_line];
    for (const server::JsonValue& x : v) {
      const server::JsonValue* err = x.find("error");
      if (err != nullptr && get_string(*err, "code") == "overloaded") {
        ++st.shed[m.kind];
        ok = false;
      }
    }
    const std::string assignment = get_string(final_v, "assignment");
    if (m.kind == kHit || m.kind == kCache) {
      const Fixture& fx = f.hit[m.fixture];
      ok = ok && partition_response_ok(final_v, fx.h) &&
           assignment == st.first[fx.hash];
      if (m.kind == kCache) {
        // The first cache event of each content computes and fills the
        // cache; the others must be served from it.
        const std::string from = get_string(final_v, "served_from");
        ++st.cache_events;
        st.cache_served += from == "cache" ? 1 : 0;
        ok = ok && get_string(v[0], "hash") == fx.hash &&
             (from == "cache" || from == "compute");
      }
    } else if (m.kind == kWarm) {
      std::istringstream script(m.script);
      appliers[m.fixture]->apply(repart::read_edit_script(script).batches.at(0));
      ok = ok && is_ok(v[0]) &&
           partition_response_ok(final_v, mirrors[m.fixture]->materialize());
      r.add("repart.lanczos_iters", get_number(final_v, "lanczos_iterations"));
    } else {
      const Fixture& fx = f.cold[m.fixture];
      std::string& first = st.cold_first[m.fixture];
      if (first.empty()) first = assignment;
      ok = ok && get_string(v[0], "hash") == fx.hash &&
           partition_response_ok(final_v, fx.h) && assignment == first;
      r.add("linalg.lanczos_iters", get_number(final_v, "lanczos_iterations"));
      const server::JsonValue* conv = final_v.find("eigen_converged");
      r.values["linalg.unconverged"] +=
          conv != nullptr && conv->is_bool() && !conv->boolean ? 1.0 : 0.0;
    }
    r.record(ok, std::string(kClass[m.kind]) + " event " + event + " failed");
    const double latency =
        run.responses.at(e.first_id + static_cast<std::int64_t>(e.final_line)).first -
        e.due_ms;
    // p50_ms is the median replay hit.  A median over every class would sit
    // at the 78th percentile of the replays, just below the 2 ms mode of
    // the cache class, and flip between the two with the host's phases.
    if (m.kind == kHit) r.add(m.traced ? "traced_op_ms" : "op_ms", latency);
    r.add(std::string("client.") + kClass[m.kind] + "_ms", latency);
    if (!m.traced) continue;
    const server::JsonValue* stages = final_v.find("stages_us");
    if (stages == nullptr || !stages->is_object()) {
      r.record(false, "event " + event + ": no stages_us");
      continue;
    }
    r.add("server.parse_us", get_number(*stages, "parse"));
    r.add("server.admission_us", get_number(*stages, "admission"));
    r.add("server.serialize_us", get_number(*stages, "serialize"));
    r.add(std::string("server.queue_us.") + kClass[m.kind],
          get_number(*stages, "queue"));
    r.add(std::string("server.execute_us.") + kClass[m.kind],
          get_number(*stages, "execute"));
  }
}

void serve_mix(Report& r, std::uint64_t seed, double seconds, bool trace,
               const std::string& socket) {
  ServeState st;
  st.rng = SplitMix64{stream_seed(seed, 600)};
  const auto setup = [&] {
    ServeFixtures fx = make_serve_fixtures(seed);
    if (!prime_sessions(socket, fx, r, st.first))
      throw std::runtime_error("serve_mix: priming failed");
    return fx;
  };
  const ServeFixtures f = timed_setups(r, setup);
  for (const Fixture& fx : f.hit) add_input(r, fx.session, fx.h);
  add_input(r, "warm", f.warm.front().h);
  for (const Fixture& fx : f.cold) add_input(r, "cold", fx.h);

  // The schedule runs in chunks with a full set-up (fixtures and priming)
  // between them, so setup_s samples the whole run as p50_ms does.  Each
  // chunk is its own open loop, started on an idle server.
  const auto total = static_cast<std::size_t>(kServeRate * seconds);
  for (std::size_t begin = 0; begin < total; begin += kServeChunk) {
    if (begin > 0) resample_setup(r, setup);
    serve_chunk(r, f, st, seed, trace, socket, begin,
                std::min(total, begin + kServeChunk));
  }

  for (int c = 0; c < 4; ++c)
    r.values[std::string("server.shed.") + kClass[c]] =
        static_cast<double>(st.shed[c]);
  r.values["server.cache_hit_frac"] =
      st.cache_events > 0 ? static_cast<double>(st.cache_served) /
                                static_cast<double>(st.cache_events)
                          : 0.0;
  r.samples["client.late_ms"] = st.late_ms;
  r.values["client.backlog_max"] = static_cast<double>(st.backlog_max);
  r.values["serve.rate_per_s"] = kServeRate;

  double log_sum = 0.0;
  std::size_t count = 0;
  for (const Fixture& fx : f.hit) {
    log_sum += std::log(ratio_cut(fx.h, parse_assignment(st.first[fx.hash])));
    ++count;
  }
  for (std::size_t k = 0; k < f.cold.size(); ++k)
    if (!st.cold_first[k].empty()) {
      log_sum += std::log(
          ratio_cut(f.cold[k].h, parse_assignment(st.cold_first[k])));
      ++count;
    }
  r.values["ratio_geomean"] = std::exp(log_sum / static_cast<double>(count));
}

/// netpartd flags serve_mix relies on: the lane count that session names
/// are pinned against, one compute thread (the baseline convention), and
/// the cold-class occupancy bound.
void print_daemon_flags() {
  std::cout << "[\"--threads\",\"1\",\"--pool-lanes\",\"" << kServeLanes
            << "\",\"--cold-slots\",\"" << kDaemonColdSlots << "\"]\n";
}

/// Self-test of the open-loop accounting: a 300 ms `sleep` on the single
/// lane, sent between pings due every 10 ms, must show up as latency on the
/// pings due during the stall.  Prints latency per ping, by due order.
void stall_probe(Report& r, const std::string& socket) {
  std::vector<Event> events;
  for (std::int64_t i = 0; i < 60; ++i) {
    Event e;
    e.due_ms = 10.0 * static_cast<double>(i);
    e.first_id = i + 1;
    e.lines = {i == 10 ? "{\"id\":11,\"op\":\"sleep\",\"sleep_ms\":300}"
                       : "{\"id\":" + std::to_string(i + 1) + ",\"op\":\"ping\"}"};
    events.push_back(std::move(e));
  }
  const OpenLoopResult run = run_open_loop(socket, events, 1);
  for (const Event& e : events) {
    const auto it = run.responses.find(e.first_id);
    r.record(it != run.responses.end(), "missing response");
    if (it != run.responses.end()) r.add("op_ms", it->second.first - e.due_ms);
  }
}

// --- output -----------------------------------------------------------------------

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_report(const Report& r, const std::string& workload) {
  std::string out = "{\"workload\":\"" + workload + "\",\"attempted\":" +
                    std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) + ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    out += (i ? ",\"" : "\"") + obs::json_escape(r.failures[i]) + "\"";
  out += "],\"inputs\":[";
  for (std::size_t i = 0; i < r.inputs.size(); ++i)
    out += std::string(i ? "," : "") + "[\"" + obs::json_escape(r.inputs[i].first) +
           "\",\"" + r.inputs[i].second + "\"]";
  out += "],\"values\":{";
  bool sep = false;
  for (const auto& [k, v] : r.values) {
    out += std::string(sep ? "," : "") + "\"" + k + "\":" + json_double(v);
    sep = true;
  }
  out += "},\"samples\":{";
  sep = false;
  for (const auto& [k, vs] : r.samples) {
    out += std::string(sep ? "," : "") + "\"" + k + "\":[";
    for (std::size_t i = 0; i < vs.size(); ++i)
      out += (i ? "," : "") + json_double(vs[i]);
    out += "]";
    sep = true;
  }
  out += "},\"build\":{\"type\":\"" PERFBENCH_BUILD_TYPE
         "\",\"compiler\":\"" PERFBENCH_COMPILER "\"}}";
  std::cout << out << '\n';
}

int usage() {
  std::cerr << "usage: perfbench_driver <batch_mix|serve_mix|"
               "inputs|stall_probe|daemon_flags> --seed <n> --seconds <s> "
               "--trace <0|1> [--socket <@name>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string workload = argv[1];
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string socket;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") trace = value == "1";
    else if (flag == "--socket") socket = value;
    else return usage();
  }
  // Batch workloads run the deterministic pool at one lane (the baseline
  // convention); netpartd gets --threads 1 from run.py for the same reason.
  parallel::ThreadPool::instance().configure(1);
  Report r;
  try {
    if (workload == "batch_mix") batch_mix(r, seed, seconds, trace);
    else if (workload == "serve_mix") serve_mix(r, seed, seconds, trace, socket);
    else if (workload == "stall_probe") stall_probe(r, socket);
    else if (workload == "daemon_flags") {
      print_daemon_flags();
      return 0;
    }
    else if (workload == "inputs") {
      for (const Instance& in : flat_inputs(seed)) add_input(r, in.name, in.h);
      add_input(r, "gen100k", vcycle_input(seed));
      add_input(r, "gen2k", eco_input(seed).h);
      const ServeFixtures f = make_serve_fixtures(seed);
      for (const std::vector<Fixture>* g : {&f.hit, &f.warm, &f.cold})
        for (const Fixture& fx : *g) r.inputs.emplace_back(fx.session, fx.hash);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 1;
  }
  r.values["peak_rss_mb"] = peak_rss_mb();
  print_report(r, workload);
  return 0;
}

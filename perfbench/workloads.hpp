// The benchmark's four workloads, each run against the library's public
// entry points on the default MultiQueue (mq_config{}: beta = 1, d = 2,
// c = 2, dary_heap<4> slots, uint64 keys and values). See README.md for
// why each workload exists and which layer it loads.
//
// Every workload:
//   - builds its inputs from the seed alone (same seed, same inputs);
//   - times its set-up several times and reports the median;
//   - checks every output before any number counts (`correct`);
//   - untraced: runs the raw queue type for the whole window and fills
//     the end-to-end metrics;
//   - traced: runs the raw queue for half of the window and the traced
//     wrappers for the other half, fills the per-layer metrics from the
//     traced half (the overhead from comparing the two), and writes a
//     span dump.

#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/multi_queue.hpp"
#include "core/rank_recorder.hpp"
#include "exec/dag_workloads.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/parallel_sssp.hpp"
#include "heap/dary_heap.hpp"
#include "service/dispatch.hpp"
#include "service/server.hpp"
#include "sim/graph_process.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "trace.hpp"
#include "traced.hpp"

namespace pcqbench {

/// The raw queue every workload runs untraced.
using raw_queue = pcq::multi_queue<std::uint64_t, std::uint64_t>;

/// Sizes of the workloads. The defaults are the benchmark; the self-test
/// runs the same code at `tiny()` sizes.
struct scale {
  std::size_t threads = 4;
  /// pq_mixed live elements: 7 * 2^19, so the 8 slots sit ~2^18.8 deep
  /// (~7 MB each), clear of the 2^19 boundary where a slot's buffer
  /// doubles: a slot that crossed it mid-run would add a reallocation to
  /// the peak memory at random.
  std::size_t prefill = std::size_t{7} << 19;
  std::size_t replay_prefill = std::size_t{1} << 20;
  std::size_t replay_pairs = std::size_t{1} << 17;  ///< per thread
  std::uint32_t grid = 1024;  ///< road network side (sssp_road, exec_dag)
  std::uint32_t kernel_rounds = 64;
  std::size_t svc_workers = 2;
  double svc_rho = 0.7;
  double svc_mean_s = 50e-6;
  int setup_reps = 5;
  std::size_t micro_ops = std::size_t{1} << 20;

  static scale tiny() {
    scale s;
    s.prefill = 1 << 12;
    s.replay_prefill = 1 << 10;
    s.replay_pairs = 1 << 10;
    s.grid = 48;
    s.kernel_rounds = 4;
    s.setup_reps = 1;
    s.micro_ops = 1 << 10;
    return s;
  }
};

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< span dump goes here when tracing
  /// Every n-th hot-path op is kept as a span; 1 keeps all (self-test).
  std::uint64_t sample_every = 1024;
  scale size;
};

struct result {
  bool correct = true;
  std::string error;  ///< first failed check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> info;  ///< context, not compared

  void fail(const std::string& what) {
    if (correct) error = what;
    correct = false;
  }
};

/// Per-layer metric names, all reported by every traced run; a layer a
/// workload does not exercise reports 0.
inline const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = {
      "core.push_ns_p50", "core.push_ns_p99", "core.pop_ns_p50",
      "core.pop_ns_p99", "core.pop_fail_frac", "core.busy_frac",
      "core.mean_rank", "core.p99_rank", "heap.pushpop_ns", "heap.slot_depth",
      "graph.relaxations", "graph.stale_pops", "graph.stale_frac",
      "graph.self_frac", "graph.idle_frac", "graph.seq_dijkstra_s",
      "graph.speedup", "exec.executed", "exec.spawned", "exec.kernel_s",
      "exec.overhead_ns_per_task", "exec.idle_frac",
      "service.dispatch_ns_p99", "service.fetch_ns_p50",
      "service.fetch_fail_frac", "service.wait_us_p50",
      "service.wait_us_p99", "service.real_over_virtual_p99",
      "service.virtual_p99_us", "service.p99_us", "service.miss_frac",
      "benchlib.arrival_late_us_p50", "benchlib.arrival_late_us_p99",
      "benchlib.trace_overhead_frac", "benchlib.unattributed_frac",
      "util.rng_ns", "util.spinlock_cycle_ns"};
  return names;
}

namespace detail {

inline double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

inline double median(std::vector<double> v) {
  return v.empty() ? 0.0 : pcq::percentile(std::move(v), 0.5);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Runs `build` `reps` times and returns the median wall time; the
/// object built last is kept in `out`.
template <typename T, typename Build>
double timed_setup(int reps, std::unique_ptr<T>& out, Build build) {
  std::vector<double> times;
  for (int i = 0; i < std::max(reps, 1); ++i) {
    out.reset();
    const std::int64_t t0 = now_ns();
    out = build();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

inline std::atomic<std::uint64_t>& sink() {
  static std::atomic<std::uint64_t> s{0};
  return s;
}

/// Median over 5 repetitions of the cost of one `body(i)`, in ns.
template <typename Body>
double per_op_ns(std::size_t ops, Body body) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < ops; ++i) body(i);
    reps.push_back(static_cast<double>(now_ns() - t0) /
                   static_cast<double>(ops));
  }
  return median(reps);
}

/// Standalone calls into heap/ and util/, the layers the queue wrapper
/// cannot see: a push+pop pair on the default slot substrate filled to
/// `depth`, one RNG draw, one uncontended lock/unlock cycle.
inline void standalone_layers(std::size_t depth, std::uint64_t seed,
                              std::size_t ops, result& out) {
  using slot_heap =
      pcq::heap_substrate_t<pcq::dary_heap<4>, std::uint64_t, std::uint64_t,
                            std::less<std::uint64_t>>;
  pcq::xoshiro256ss rng(pcq::derive_seed(seed, 0x4ea9));
  slot_heap heap;
  const std::size_t fill = std::max<std::size_t>(depth, 1);
  heap.reserve(fill + 1);
  for (std::size_t i = 0; i < fill; ++i) {
    const std::uint64_t k = rng() >> 1;
    heap.push(k, k);
  }
  std::uint64_t acc = 0;
  out.metrics["heap.pushpop_ns"] = per_op_ns(ops, [&](std::size_t) {
    const std::uint64_t k = rng() >> 1;
    heap.push(k, k);
    acc += heap.pop().first;
  });
  out.metrics["util.rng_ns"] =
      per_op_ns(ops * 16, [&](std::size_t) { acc ^= rng(); });
  pcq::spinlock lock;
  out.metrics["util.spinlock_cycle_ns"] =
      per_op_ns(ops * 4, [&](std::size_t i) {
        lock.lock();
        acc += i;
        lock.unlock();
      });
  sink().fetch_add(acc, std::memory_order_relaxed);
}

/// Fills the per-layer metrics every workload derives from the tracer.
inline void core_layer_metrics(const tracer& tr, result& out) {
  const op_stats push = tr.merged(op::push);
  const op_stats pop = tr.merged(op::pop);
  out.metrics["core.push_ns_p50"] = push.hist.quantile(0.50);
  out.metrics["core.push_ns_p99"] = push.hist.quantile(0.99);
  out.metrics["core.pop_ns_p50"] = pop.hist.quantile(0.50);
  out.metrics["core.pop_ns_p99"] = pop.hist.quantile(0.99);
  out.metrics["core.pop_fail_frac"] =
      pop.calls ? static_cast<double>(pop.fails) / pop.calls : 0.0;
  const auto self = tr.self_ns();
  const double wall = static_cast<double>(tr.wall_ns());
  const auto frac = [&](const char* layer) {
    auto it = self.find(layer);
    return it == self.end() || wall <= 0 ? 0.0 : it->second / wall;
  };
  out.metrics["core.busy_frac"] = frac("core");
  // Unattributed is measured, not derived from the self times: worker
  // wall time minus the top-level scopes. The self-test checks that the
  // self times add up to exactly the covered part.
  const std::int64_t unattributed = tr.wall_ns() - tr.covered_ns();
  out.metrics["benchlib.unattributed_frac"] = wall > 0 ? unattributed / wall : 0.0;
  out.info["wall_ns"] = wall;
  out.info["unattributed_ns"] = static_cast<double>(unattributed);
  for (const auto& kv : self) {
    out.info["self_ns." + kv.first] = static_cast<double>(kv.second);
  }
  for (const auto& kv : offline_self(tr)) {
    out.info["offline_self_ns." + kv.first] = static_cast<double>(kv.second);
  }
  std::uint64_t depth_sum = 0, depth_samples = 0;
  std::int64_t idle = 0;
  for (std::size_t i = 0; i < tr.num_slots(); ++i) {
    depth_sum += tr.slot(i).depth_sum;
    depth_samples += tr.slot(i).depth_samples;
    idle += tr.slot(i).idle_ns;
  }
  out.info["live_size_mean"] =
      depth_samples ? static_cast<double>(depth_sum) / depth_samples : 0.0;
  out.info["idle_frac"] = wall > 0 ? idle / wall : 0.0;
}

inline void write_trace(const tracer& tr, const options& opt) {
  if (opt.trace_dir.empty()) return;
  tr.write_chrome_trace(opt.trace_dir + "/" + opt.workload + "-seed" +
                            std::to_string(opt.seed) + ".trace.json",
                        20000);
}

}  // namespace detail

// ---------------------------------------------------------------------
// pq_mixed: the paper's Section 5 loop. Prefill, then every thread
// alternates push(uniform key) and try_pop.
// ---------------------------------------------------------------------

namespace detail {

struct pq_thread {
  std::uint64_t pairs = 0;
  std::uint64_t empty = 0;
  std::uint64_t pushed_sum = 0;  ///< wrapping sums: a multiset checksum
  std::uint64_t popped_sum = 0;
  std::vector<std::uint32_t> block_ns;  ///< one entry per 64 pairs
  std::int64_t end = 0;
};

constexpr std::uint64_t kBlock = 64;

/// One timed trial of `secs` seconds on `q` (raw or traced).
template <typename Q>
double pq_trial(Q& q, std::size_t threads, std::uint64_t seed, double secs,
                tracer* tr, std::vector<pq_thread>& st) {
  std::atomic<bool> go{false}, stop{false};
  if (tr) tr->begin_root("benchlib.trial", static_cast<std::uint32_t>(threads));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto h = q.get_handle(t);
      pcq::xoshiro256ss keys(pcq::derive_seed(seed, t));
      slot_log* log = tr ? &tr->slot(t) : nullptr;
      pq_thread& s = st[t];
      s.block_ns.reserve(static_cast<std::size_t>(secs * 1e5) + 64);
      while (!go.load(std::memory_order_acquire)) pcq::cpu_relax();
      if (log) log->enter();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::int64_t b0 = now_ns();
        for (std::uint64_t i = 0; i < kBlock; ++i) {
          const std::uint64_t k = keys() >> 1;
          h.push(k, k);
          s.pushed_sum += k;
          std::uint64_t pk = 0, pv = 0;
          if (h.try_pop(pk, pv)) {
            s.popped_sum += pk;
          } else {
            ++s.empty;
          }
        }
        s.block_ns.push_back(static_cast<std::uint32_t>(now_ns() - b0));
        s.pairs += kBlock;
      }
      if (log) log->exit_span("benchlib.worker");
      s.end = now_ns();
    });
  }
  const std::int64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(secs));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : pool) th.join();
  if (tr) tr->end_root();
  std::int64_t end = t0;
  for (const pq_thread& s : st) end = std::max(end, s.end);
  return static_cast<double>(end - t0) * 1e-9;
}

/// Timed-API replay: exact ranks of every pop of a short run through
/// the wrapper's timed extension, merged by linearization ticket.
inline void pq_rank_replay(const options& opt, result& out) {
  const scale& sz = opt.size;
  raw_queue inner(pcq::mq_config{}, sz.threads);
  tracer scratch(sz.threads, 0);
  traced_pq<raw_queue> q(inner, scratch);
  pcq::rank_recorder rec(sz.threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < sz.threads; ++t) {
    pool.emplace_back([&, t] {
      auto h = q.get_handle(t);
      pcq::xoshiro256ss keys(pcq::derive_seed(opt.seed, 0x7e00 + t));
      auto& log = rec.log(t);
      log.reserve(sz.replay_prefill / sz.threads + 2 * sz.replay_pairs + 1);
      for (std::size_t i = 0; i < sz.replay_prefill / sz.threads; ++i) {
        const std::uint64_t k = keys() >> 1;
        log.push_back({h.push_timed(k, k), k, pcq::event_kind::insert});
      }
    });
  }
  for (auto& th : pool) th.join();
  pool.clear();
  for (std::size_t t = 0; t < sz.threads; ++t) {
    pool.emplace_back([&, t] {
      auto h = q.get_handle(t);
      pcq::xoshiro256ss keys(pcq::derive_seed(opt.seed, 0x7f00 + t));
      auto& log = rec.log(t);
      for (std::size_t i = 0; i < sz.replay_pairs; ++i) {
        const std::uint64_t k = keys() >> 1;
        log.push_back({h.push_timed(k, k), k, pcq::event_kind::insert});
        std::uint64_t pk = 0, pv = 0, ts = 0;
        if (h.try_pop_timed(pk, pv, ts)) {
          log.push_back({ts, pk, pcq::event_kind::remove});
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  const std::vector<pcq::mq_event> merged = pcq::merge_events(rec.logs());
  std::vector<std::uint64_t> keys;
  keys.reserve(merged.size());
  for (const auto& e : merged) keys.push_back(e.key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  pcq::rank_oracle oracle(keys.size());
  std::vector<double> ranks;
  std::uint64_t unmatched = 0;
  for (const auto& e : merged) {
    const auto label = static_cast<std::size_t>(
        std::lower_bound(keys.begin(), keys.end(), e.key) - keys.begin());
    if (e.kind == pcq::event_kind::insert) {
      oracle.insert(label);
    } else if (oracle.contains(label)) {
      ranks.push_back(static_cast<double>(oracle.remove(label)));
    } else {
      ++unmatched;
    }
  }
  if (unmatched != 0) out.fail("pq_mixed: rank replay found unmatched removes");
  double sum = 0.0;
  for (double r : ranks) sum += r;
  out.metrics["core.mean_rank"] = ranks.empty() ? 0.0 : sum / ranks.size();
  out.metrics["core.p99_rank"] =
      ranks.empty() ? 0.0 : pcq::percentile(std::move(ranks), 0.99);
}

}  // namespace detail

inline result run_pq_mixed(const options& opt) {
  const scale& sz = opt.size;
  result out;
  // One thread prefills, so slot buffers grow one reallocation at a time
  // and the set-up's peak memory does not depend on thread timing.
  std::uint64_t prefill_sum = 0;
  std::unique_ptr<raw_queue> q;
  const double setup_s = detail::timed_setup(sz.setup_reps, q, [&] {
    std::unique_ptr<raw_queue> fresh(new raw_queue(pcq::mq_config{}, sz.threads));
    auto h = fresh->get_handle(0);
    pcq::xoshiro256ss keys(pcq::derive_seed(opt.seed, 0x100));
    prefill_sum = 0;
    for (std::size_t i = 0; i < sz.prefill; ++i) {
      const std::uint64_t k = keys() >> 1;
      h.push(k, k);
      prefill_sum += k;
    }
    return fresh;
  });
  const std::uint64_t prefilled = sz.prefill;

  // Ten trials; when tracing, the last five go through the wrapper.
  constexpr int kTrials = 10;
  tracer tr(sz.threads, opt.sample_every);
  traced_pq<raw_queue> tq(*q, tr);
  std::vector<double> raw_mops, traced_mops;
  std::vector<double> pair_us;  ///< per trial: median push+pop pair time
  std::uint64_t pushes = prefilled, pops = 0, attempts = 0, empty = 0;
  std::uint64_t pushed_sum = prefill_sum, popped_sum = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<detail::pq_thread> st(sz.threads);
    const bool traced = opt.trace && trial >= kTrials / 2;
    const std::uint64_t seed = pcq::derive_seed(opt.seed, 0x200 + trial);
    const double secs = opt.seconds / kTrials;
    const double wall =
        traced ? detail::pq_trial(tq, sz.threads, seed, secs, &tr, st)
               : detail::pq_trial(*q, sz.threads, seed, secs, nullptr, st);
    std::uint64_t trial_ops = 0;
    std::vector<double> trial_block_us;
    for (const detail::pq_thread& s : st) {
      trial_ops += 2 * s.pairs;
      pushes += s.pairs;
      attempts += s.pairs;
      pops += s.pairs - s.empty;
      empty += s.empty;
      pushed_sum += s.pushed_sum;
      popped_sum += s.popped_sum;
      for (std::uint32_t b : s.block_ns)
        trial_block_us.push_back(b / 1e3 / static_cast<double>(detail::kBlock));
    }
    pair_us.push_back(detail::median(std::move(trial_block_us)));
    (traced ? traced_mops : raw_mops).push_back(trial_ops / wall / 1e6);
  }

  // Correctness: quiescent size and a drain that returns exactly the
  // multiset still owed (count and wrapping key sum).
  const std::size_t live = q->size();
  if (live != pushes - pops) out.fail("pq_mixed: size() != pushes - pops");
  {
    auto h = q->get_handle(0);
    std::uint64_t drained = 0, drained_sum = 0, k = 0, v = 0;
    while (h.try_pop(k, v)) {
      ++drained;
      drained_sum += k;
    }
    if (drained != pushes - pops || drained_sum != pushed_sum - popped_sum)
      out.fail("pq_mixed: drain does not return the elements still owed");
  }
  out.attempted = attempts;
  out.failed = empty;
  out.info["pop_attempts"] = static_cast<double>(attempts);
  out.info["empty_pops"] = static_cast<double>(empty);

  if (!opt.trace) {
    out.metrics["setup_s"] = setup_s;
    out.metrics["throughput_mps"] = detail::median(raw_mops);
    out.metrics["latency_p50_us"] = detail::median(pair_us);
    out.metrics["work_ratio"] =
        pops ? static_cast<double>(attempts) / static_cast<double>(pops) : 0.0;
    out.metrics["peak_rss_mb"] = detail::peak_rss_mb();
    return out;
  }
  detail::core_layer_metrics(tr, out);
  out.metrics["benchlib.trace_overhead_frac"] =
      detail::median(raw_mops) / detail::median(traced_mops) - 1.0;
  const double depth =
      static_cast<double>(live) / static_cast<double>(q->num_queues());
  out.metrics["heap.slot_depth"] = depth;
  q.reset();
  detail::pq_rank_replay(opt, out);
  detail::standalone_layers(static_cast<std::size_t>(depth), opt.seed,
                            sz.micro_ops, out);
  detail::write_trace(tr, opt);
  return out;
}

// ---------------------------------------------------------------------
// sssp_road and exec_dag: repeated whole-graph jobs on a road grid.
// ---------------------------------------------------------------------

namespace detail {

inline pcq::graph::csr_graph road(const options& opt) {
  pcq::graph::road_network_params p;
  p.width = opt.size.grid;
  p.height = opt.size.grid;
  p.seed = pcq::derive_seed(opt.seed, 1);
  return pcq::graph::make_road_network(p);
}

/// Runs the measured window in rounds, one per set-up: each round
/// rebuilds the input with `build` (timed; `setup_s` is the median), then
/// runs `job(traced, tracer*)` until the round's share of the window has
/// passed, at least once. Rebuilding spreads the jobs of a run over
/// several memory layouts of the input; one layout alone moved every job
/// of a run by up to 10%. When tracing, each round's first half is raw
/// and its second half traced.
template <typename Build, typename Job>
double run_rounds(const options& opt, tracer& tr, Build build, Job job,
                  std::vector<double>& raw_s, std::vector<double>& traced_s,
                  result& out) {
  const int rounds = std::max(opt.size.setup_reps, 1);
  const int phases = opt.trace ? 2 : 1;
  const double window = opt.seconds / rounds / phases;
  std::vector<double> setups;
  for (int round = 0; round < rounds; ++round) {
    const std::int64_t t0 = now_ns();
    build();
    setups.push_back(seconds_since(t0));
    for (int phase = 0; phase < phases; ++phase) {
      const bool traced = phase == 1;
      std::vector<double>& times = traced ? traced_s : raw_s;
      const std::int64_t p0 = now_ns();
      do {
        times.push_back(job(traced, traced ? &tr : nullptr));
      } while (seconds_since(p0) < window);
    }
  }
  out.info["job_s_p25"] = pcq::percentile(raw_s, 0.25);
  out.info["job_s_p75"] = pcq::percentile(raw_s, 0.75);
  return median(setups);
}

}  // namespace detail

inline result run_sssp_road(const options& opt) {
  namespace g = pcq::graph;
  const scale& sz = opt.size;
  result out;
  std::unique_ptr<g::csr_graph> graph;
  g::dijkstra_result ref;
  double dijkstra_s = 0.0;
  tracer tr(sz.threads, opt.sample_every);
  std::vector<double> work, relaxations, stale;
  std::vector<double> raw_s, traced_s;
  const auto build = [&] {
    graph.reset();
    graph.reset(new g::csr_graph(detail::road(opt)));
  };
  const double setup_s = detail::run_rounds(opt, tr, build, [&](bool traced, tracer* t) {
    if (ref.distance.empty()) {  // every round rebuilds the same graph
      const std::int64_t t0 = now_ns();
      ref = g::dijkstra(*graph, 0);
      dijkstra_s = detail::seconds_since(t0);
    }
    const double reachable = static_cast<double>(ref.settled);
    raw_queue q(pcq::mq_config{}, sz.threads);
    g::sssp_result r;
    if (traced) {
      traced_pq<raw_queue> tq(q, *t, "graph.worker");
      t->begin_root("benchlib.solve", static_cast<std::uint32_t>(sz.threads));
      r = g::parallel_sssp(*graph, 0, sz.threads, tq);
      t->end_root();
      relaxations.push_back(static_cast<double>(r.relaxations));
      stale.push_back(static_cast<double>(r.stale_pops));
    } else {
      r = g::parallel_sssp(*graph, 0, sz.threads, q);
      work.push_back((r.relaxations + 1) / reachable);
    }
    ++out.attempted;
    if (r.distance != ref.distance) {
      ++out.failed;
      out.fail("sssp_road: distances differ from sequential Dijkstra");
    }
    return r.seconds;
  }, raw_s, traced_s, out);
  const double reachable = static_cast<double>(ref.settled);
  out.info["nodes"] = static_cast<double>(graph->num_nodes());
  out.info["reachable"] = reachable;
  out.info["solves"] = static_cast<double>(raw_s.size() + traced_s.size());

  const double solve_s = detail::median(raw_s);
  if (!opt.trace) {
    out.metrics["setup_s"] = setup_s;
    out.metrics["throughput_mps"] = reachable / solve_s / 1e6;
    out.metrics["latency_p50_us"] = solve_s * 1e6;
    out.metrics["work_ratio"] = detail::median(work);
    out.metrics["peak_rss_mb"] = detail::peak_rss_mb();
    return out;
  }
  detail::core_layer_metrics(tr, out);
  const double wall = static_cast<double>(tr.wall_ns());
  const auto self = tr.self_ns();
  out.metrics["graph.self_frac"] = self.count("graph") ? self.at("graph") / wall : 0.0;
  out.metrics["graph.idle_frac"] = out.info["idle_frac"];
  const double relax = detail::median(relaxations);
  const double stale_pops = detail::median(stale);
  out.metrics["graph.relaxations"] = relax;
  out.metrics["graph.stale_pops"] = stale_pops;
  out.metrics["graph.stale_frac"] = stale_pops / (relax + 1);
  out.metrics["graph.seq_dijkstra_s"] = dijkstra_s;
  out.metrics["graph.speedup"] = dijkstra_s / solve_s;
  out.metrics["benchlib.trace_overhead_frac"] =
      detail::median(traced_s) / solve_s - 1.0;
  const double depth = out.info["live_size_mean"] /
                       static_cast<double>(sz.threads * pcq::mq_config{}.queue_factor);
  out.metrics["heap.slot_depth"] = depth;
  detail::standalone_layers(static_cast<std::size_t>(depth), opt.seed,
                            sz.micro_ops, out);
  detail::write_trace(tr, opt);
  return out;
}

inline result run_exec_dag(const options& opt) {
  namespace g = pcq::graph;
  const scale& sz = opt.size;
  result out;
  std::unique_ptr<g::csr_graph> dag;
  std::vector<std::uint64_t> oracle;
  double kernel_s = 0.0;
  tracer tr(sz.threads, opt.sample_every);
  std::vector<double> work, executed, spawned;
  std::vector<double> raw_s, traced_s;
  const auto build = [&] {
    dag.reset();
    dag.reset(new g::csr_graph(pcq::sim::make_dag(detail::road(opt))));
  };
  const double setup_s = detail::run_rounds(opt, tr, build, [&](bool traced, tracer* t) {
    if (oracle.empty()) {  // every round rebuilds the same DAG
      const std::int64_t t0 = now_ns();
      oracle = pcq::exec::sequential_dag_outputs(*dag, sz.kernel_rounds);
      kernel_s = detail::seconds_since(t0);
    }
    const std::size_t n = dag->num_nodes();
    raw_queue q(pcq::mq_config{}, sz.threads);
    pcq::exec::dag_exec_result r;
    if (traced) {
      traced_pq<raw_queue> tq(q, *t, "exec.worker");
      t->begin_root("benchlib.dag", static_cast<std::uint32_t>(sz.threads));
      r = pcq::exec::run_dag_executor(*dag, sz.threads, tq, sz.kernel_rounds);
      t->end_root();
      executed.push_back(static_cast<double>(r.stats.executed));
      spawned.push_back(static_cast<double>(r.stats.spawned));
    } else {
      r = pcq::exec::run_dag_executor(*dag, sz.threads, q, sz.kernel_rounds);
      work.push_back(static_cast<double>(r.stats.executed) / n);
    }
    ++out.attempted;
    if (!r.topo_ok || r.settled != n || r.outputs != oracle) {
      ++out.failed;
      out.fail("exec_dag: outputs, topological order or settled count wrong");
    }
    return r.stats.seconds;
  }, raw_s, traced_s, out);
  const std::size_t n = dag->num_nodes();
  out.info["nodes"] = static_cast<double>(n);
  out.info["runs"] = static_cast<double>(raw_s.size() + traced_s.size());

  const double run_s = detail::median(raw_s);
  if (!opt.trace) {
    out.metrics["setup_s"] = setup_s;
    out.metrics["throughput_mps"] = static_cast<double>(n) / run_s / 1e6;
    out.metrics["latency_p50_us"] = run_s * 1e6;
    out.metrics["work_ratio"] = detail::median(work);
    out.metrics["peak_rss_mb"] = detail::peak_rss_mb();
    return out;
  }
  detail::core_layer_metrics(tr, out);
  const auto self = tr.self_ns();
  double idle = 0.0;
  for (std::size_t i = 0; i < tr.num_slots(); ++i) idle += tr.slot(i).idle_ns;
  const double exec_self = self.count("exec") ? self.at("exec") : 0.0;
  const double tasks = std::accumulate(executed.begin(), executed.end(), 0.0);
  out.metrics["exec.executed"] = detail::median(executed);
  out.metrics["exec.spawned"] = detail::median(spawned);
  out.metrics["exec.kernel_s"] = kernel_s;
  out.metrics["exec.overhead_ns_per_task"] =
      (exec_self - idle - kernel_s * 1e9 * executed.size()) / tasks;
  out.metrics["exec.idle_frac"] = out.info["idle_frac"];
  out.metrics["benchlib.trace_overhead_frac"] =
      detail::median(traced_s) / run_s - 1.0;
  const double depth = out.info["live_size_mean"] /
                       static_cast<double>(sz.threads * pcq::mq_config{}.queue_factor);
  out.metrics["heap.slot_depth"] = depth;
  detail::standalone_layers(static_cast<std::size_t>(depth), opt.seed,
                            sz.micro_ops, out);
  detail::write_trace(tr, opt);
  return out;
}

// ---------------------------------------------------------------------
// service_open: open-loop Poisson arrivals into the MultiQueue-EDF
// dispatcher, realtime and in virtual time on the same trace.
// ---------------------------------------------------------------------

namespace detail {

inline std::vector<pcq::service::request> service_trace(const options& opt,
                                                        double seconds,
                                                        std::uint64_t stream) {
  namespace s = pcq::service;
  const scale& sz = opt.size;
  s::workload_config cfg;
  cfg.service = s::service_dist::exponential_mean(sz.svc_mean_s);
  cfg.arrival_rate = s::arrival_rate_for_load(sz.svc_rho, sz.svc_workers,
                                              cfg.service);
  cfg.num_requests = static_cast<std::size_t>(cfg.arrival_rate * seconds);
  cfg.seed = pcq::derive_seed(opt.seed, stream);
  return s::make_open_loop_trace(cfg);
}

/// The first tenth of the trace warms the system up and is not counted.
inline double warmup_end(const std::vector<pcq::service::request>& trace) {
  return 0.1 * pcq::service::trace_span(trace);
}

/// Conservation and exactly-once completion.
inline void check_service(const pcq::service::service_result& r,
                          std::size_t requests, result& out) {
  out.attempted += r.dispatched;
  out.failed += r.shed + r.lost + (r.dispatched - std::min(r.dispatched, r.completed));
  std::vector<bool> seen(requests, false);
  bool once = true;
  for (const auto& shard : r.worker_logs) {
    for (const auto& rec : shard) {
      if (rec.seq >= requests || seen[rec.seq]) once = false;
      else seen[rec.seq] = true;
    }
  }
  if (r.stalled || r.completed + r.shed + r.lost != r.dispatched ||
      r.completed != requests || !once)
    out.fail("service_open: a request was lost, duplicated or stalled");
}

struct sojourns {
  std::vector<double> sojourn_us, wait_us;
  std::uint64_t missed = 0;
  double last_completion = 0.0;
};

inline sojourns kept(const pcq::service::service_result& r,
                     const std::vector<pcq::service::request>& trace) {
  sojourns s;
  const double warm = warmup_end(trace);
  for (const auto& shard : r.worker_logs) {
    for (const auto& rec : shard) {
      if (rec.arrival < warm) continue;
      s.sojourn_us.push_back((rec.completion - rec.arrival) * 1e6);
      s.wait_us.push_back((rec.start - rec.arrival) * 1e6);
      if (rec.completion > trace[rec.seq].deadline) ++s.missed;
      s.last_completion = std::max(s.last_completion, rec.completion);
    }
  }
  return s;
}

/// The 10th percentile over 20 equal arrival-time segments (after
/// warm-up) of each segment's median sojourn. On a shared host, vCPU
/// preemption can slow most of a run (the median of the segment medians
/// read 100 and 141 us against 65-75 us in 2 of 10 runs); the quietest
/// segments still show what the code decides. Intermittent slowness
/// shows in service.p99_us.
inline double quiet_segment_p50_us(const pcq::service::service_result& r,
                             const std::vector<pcq::service::request>& trace) {
  constexpr std::size_t kSegments = 20;
  const double warm = warmup_end(trace);
  const double width = (pcq::service::trace_span(trace) - warm) / kSegments;
  std::vector<std::vector<double>> seg(kSegments);
  for (const auto& shard : r.worker_logs) {
    for (const auto& rec : shard) {
      if (rec.arrival < warm) continue;
      const auto i = static_cast<std::size_t>((rec.arrival - warm) / width);
      seg[std::min(i, kSegments - 1)].push_back(
          (rec.completion - rec.arrival) * 1e6);
    }
  }
  std::vector<double> p50s;
  for (auto& s : seg)
    if (!s.empty()) p50s.push_back(pcq::percentile(std::move(s), 0.5));
  return pcq::percentile(std::move(p50s), 0.1);
}

inline double virtual_p99_us(const std::vector<pcq::service::request>& trace,
                             std::size_t workers, bool relaxed) {
  namespace s = pcq::service;
  s::service_result v;
  if (relaxed) {
    auto d = s::make_mq_dispatcher(workers);
    v = s::run_service_virtual(trace, d, workers);
  } else {
    auto d = s::make_edf_dispatcher(workers);
    v = s::run_service_virtual(trace, d, workers);
  }
  return pcq::percentile(kept(v, trace).sojourn_us, 0.99);
}

}  // namespace detail

inline result run_service_open(const options& opt) {
  namespace s = pcq::service;
  const scale& sz = opt.size;
  const std::size_t workers = sz.svc_workers;
  result out;
  const double half = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::unique_ptr<std::vector<s::request>> trace;
  const double setup_s =
      detail::timed_setup(sz.setup_reps * 4 + 1, trace, [&] {
        auto t = std::unique_ptr<std::vector<s::request>>(
            new std::vector<s::request>(detail::service_trace(opt, half, 3)));
        auto d = s::make_mq_dispatcher(workers);
        (void)d;
        return t;
      });

  auto d = s::make_mq_dispatcher(workers);
  const s::service_result real = s::run_service_realtime(*trace, d, workers);
  detail::check_service(real, trace->size(), out);
  const detail::sojourns rs = detail::kept(real, *trace);
  const double vp99 = detail::virtual_p99_us(*trace, workers, true);
  const double p50 = pcq::percentile(rs.sojourn_us, 0.5);
  const double p99 = pcq::percentile(rs.sojourn_us, 0.99);
  out.info["requests"] = static_cast<double>(trace->size());
  out.info["kept"] = static_cast<double>(rs.sojourn_us.size());

  if (!opt.trace) {
    const double warm = detail::warmup_end(*trace);
    out.metrics["setup_s"] = setup_s;
    out.metrics["throughput_mps"] =
        rs.sojourn_us.size() / (rs.last_completion - warm) / 1e6;
    out.metrics["latency_p50_us"] = detail::quiet_segment_p50_us(real, *trace);
    out.metrics["work_ratio"] =
        vp99 / detail::virtual_p99_us(*trace, workers, false);
    out.metrics["peak_rss_mb"] = detail::peak_rss_mb();
    return out;
  }
  out.metrics["service.virtual_p99_us"] = vp99;
  out.metrics["service.p99_us"] = p99;
  out.metrics["service.real_over_virtual_p99"] = p99 / vp99;
  out.metrics["service.miss_frac"] =
      static_cast<double>(rs.missed) / rs.sojourn_us.size();
  out.metrics["service.wait_us_p50"] = pcq::percentile(rs.wait_us, 0.5);
  out.metrics["service.wait_us_p99"] = pcq::percentile(rs.wait_us, 0.99);

  // Traced half: a second trace through both wrappers.
  const std::vector<s::request> trace2 = detail::service_trace(opt, half, 4);
  tracer tr(workers + 1, opt.sample_every);
  raw_queue inner(pcq::mq_config{}, workers + 1);
  using traced_disp = s::pq_dispatcher<traced_pq<raw_queue>>;
  traced_disp pd(std::unique_ptr<traced_pq<raw_queue>>(
                     new traced_pq<raw_queue>(inner, tr)),
                 workers, s::priority_policy::deadline);
  traced_dispatcher<traced_disp> td(pd, tr, workers, trace2.size());
  tr.begin_root("benchlib.service", static_cast<std::uint32_t>(workers + 1));
  const s::service_result traced = s::run_service_realtime(trace2, td, workers);
  tr.end_root();
  detail::check_service(traced, trace2.size(), out);

  // The runner's clock epoch, from the tightest fetch-end/start pair:
  // each fetch returns before its worker reads the start time.
  std::int64_t epoch = std::numeric_limits<std::int64_t>::min();
  for (const auto& shard : traced.worker_logs)
    for (const auto& rec : shard)
      epoch = std::max<std::int64_t>(
          epoch, td.fetch_end[rec.seq] - std::llround(rec.start * 1e9));
  const double warm = detail::warmup_end(trace2);
  std::vector<double> late_us;
  for (std::size_t w = 0; w < traced.worker_logs.size(); ++w) {
    for (const auto& rec : traced.worker_logs[w]) {
      tr.slot(w).add_span("service.request", td.dispatch_span[rec.seq],
                          rec.seq, epoch + std::llround(rec.start * 1e9),
                          epoch + std::llround(rec.completion * 1e9));
    }
  }
  for (const s::request& r : trace2) {
    if (r.arrival < warm) continue;
    late_us.push_back(
        (td.dispatch_start[r.seq] - epoch - std::llround(r.arrival * 1e9)) / 1e3);
  }
  std::vector<double> dispatch_ns;
  for (const span_rec& sp : tr.slot(workers).spans)
    if (!sp.sampled) dispatch_ns.push_back(static_cast<double>(sp.end - sp.start));
  const op_stats fetch = tr.merged(op::fetch);
  detail::core_layer_metrics(tr, out);
  out.metrics["service.dispatch_ns_p99"] = pcq::percentile(dispatch_ns, 0.99);
  out.metrics["service.fetch_ns_p50"] = fetch.hist.quantile(0.5);
  out.metrics["service.fetch_fail_frac"] =
      fetch.calls ? static_cast<double>(fetch.fails) / fetch.calls : 0.0;
  out.metrics["benchlib.arrival_late_us_p50"] = pcq::percentile(late_us, 0.5);
  out.metrics["benchlib.arrival_late_us_p99"] = pcq::percentile(late_us, 0.99);
  const detail::sojourns ts = detail::kept(traced, trace2);
  out.metrics["benchlib.trace_overhead_frac"] =
      pcq::percentile(ts.sojourn_us, 0.5) / p50 - 1.0;
  const double depth = out.info["live_size_mean"] /
                       static_cast<double>((workers + 1) * pcq::mq_config{}.queue_factor);
  out.metrics["heap.slot_depth"] = depth;
  detail::standalone_layers(static_cast<std::size_t>(depth), opt.seed,
                            sz.micro_ops, out);
  detail::write_trace(tr, opt);
  return out;
}

inline result run_workload(const options& opt) {
  if (opt.workload == "pq_mixed") return run_pq_mixed(opt);
  if (opt.workload == "sssp_road") return run_sssp_road(opt);
  if (opt.workload == "exec_dag") return run_exec_dag(opt);
  if (opt.workload == "service_open") return run_service_open(opt);
  result r;
  r.fail("unknown workload: " + opt.workload);
  return r;
}

/// Fills every per-layer metric a workload did not set with 0.
inline void complete_layer_metrics(result& r) {
  for (const std::string& name : layer_metric_names())
    r.metrics.emplace(name, 0.0);
}

}  // namespace pcqbench

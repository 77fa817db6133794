// Parallel single-source shortest paths over ANY queue modeling the
// handle concept of core/pq_handle.hpp — the paper's Figure 3 workload
// (parallel Dijkstra on a road network), written once and instantiated
// for all five queues.
//
// Algorithm (label-correcting Dijkstra, relaxed in chunks):
//
//   dist[] is an array of atomic 64-bit tentative distances. A worker
//   pops a CHUNK of up to kChunk entries with one try_pop_batch (one
//   lock / epoch pin for the chunk) and processes its entries in turn.
//   For each (d, v): if dist[v] < d the entry is STALE — some thread,
//   or an earlier entry of this same chunk, already improved v past the
//   priority this entry was queued at — and is dropped without scanning
//   v's arcs (the stale-entry elision; it runs per entry, at processing
//   time, not once at pop time). Otherwise the worker relaxes v's arcs
//   with a CAS-min loop per head node and appends one new entry per
//   successful decrease to the chunk's successor vector. After the last
//   entry, ONE push_batch publishes the successors of the whole chunk.
//   So a processed entry costs about 2/kChunk queue round trips instead
//   of two. Every dist[] decrease is monotone, so the fixpoint is the
//   exact shortest-path distances — for relaxed AND strict queues;
//   relaxation costs extra stale work, never correctness. fig3 and the
//   ctest suite assert exact equality against sequential Dijkstra.
//
//   Relaxation bound: on the MultiQueue a chunk is the kChunk smallest
//   entries of one slot (one heap's pops under one lock), the same
//   shape as the pop buffer's B argument in core/multi_queue.hpp, with
//   kChunk playing B. A chunk entry can be overtaken only by the at
//   most kChunk-1 entries ahead of it in its chunk, plus whatever other
//   workers pop meanwhile; successors wait for the end of their chunk.
//   On a strict queue each chunk is an exact run of deleteMins. Larger
//   chunks trade extra relaxations for fewer round trips: kChunk comes
//   from a sweep on perfbench sssp_road (docs/BENCHMARKS.md).
//
// Termination (the concept makes emptiness RELAXED — a false try_pop
// means "looked empty", so it can never end the loop by itself) uses
// the per-worker lanes of util/in_flight.hpp, whose header carries the
// proof: the seed is counted on lane 0 before the workers start; a
// chunk's successors are counted on the worker's lane BEFORE push_batch
// publishes them; the chunk's entries are marked done, with one
// done(tid, n) store, only after all of them are fully processed
// (successors counted and pushed). A worker whose pop fails stops iff
// the detector is quiescent, and otherwise backs off (pcq::backoff
// ladder) and retries: an element exists or is about to, and
// handle-buffered elements (k-LSM local components, MultiQueue pop
// buffers) stay counted and poppable by their owner. A quiescent
// verdict synchronizes with every worker's last done, so every dist[]
// write is ordered before any worker returns.
//
// Workers join before the function returns, so reading the final
// distances out of the atomics is race-free.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/pq_handle.hpp"
#include "graph/csr_graph.hpp"
#include "graph/dijkstra.hpp"
#include "util/in_flight.hpp"
#include "util/spinlock.hpp"
#include "util/timer.hpp"

namespace pcq {
namespace graph {

/// Entries a worker pops per try_pop_batch and relaxes before one
/// push_batch publishes their successors. Chosen from a sweep on
/// perfbench sssp_road (docs/BENCHMARKS.md): 8 left throughput on the
/// table, 32 cost ~5% extra relaxations.
constexpr std::size_t kChunk = 16;

struct sssp_result {
  std::vector<std::uint64_t> distance;  ///< kUnreachable if no path
  double seconds = 0.0;                 ///< threaded phase wall time
  std::uint64_t relaxations = 0;        ///< successful dist[] decreases
  std::uint64_t stale_pops = 0;         ///< entries dropped by elision
};

/// Runs SSSP from `source` with `num_threads` workers sharing `queue`
/// (passed in empty; configured by the caller — this is where fig3's
/// beta/k knobs live). Queue entries are (distance, node).
template <typename Queue>
sssp_result parallel_sssp(const csr_graph& g, csr_graph::node_id source,
                          std::size_t num_threads, Queue& queue) {
  PCQ_ASSERT_PQ_CONCEPT(Queue);
  using entry = typename Queue::entry;

  const std::size_t n = g.num_nodes();
  const std::size_t threads = num_threads > 0 ? num_threads : 1;
  std::unique_ptr<std::atomic<std::uint64_t>[]> dist(
      new std::atomic<std::uint64_t>[n]);
  for (std::size_t i = 0; i < n; ++i) {
    dist[i].store(kUnreachable, std::memory_order_relaxed);
  }
  in_flight detector(threads);
  std::vector<std::uint64_t> relaxed(threads, 0), stale(threads, 0);

  dist[source].store(0, std::memory_order_relaxed);
  detector.pushed(0);
  {
    // Scoped so buffering queues (k-LSM) flush the seed entry into
    // shared visibility before any worker starts.
    auto seeder = queue.get_handle(0);
    seeder.push(0, source);
  }

  auto worker = [&](std::size_t tid) {
    auto handle = queue.get_handle(tid);
    std::array<entry, kChunk> chunk;
    std::vector<entry> successors;
    backoff bo;
    std::uint64_t my_relaxed = 0, my_stale = 0;
    while (true) {
      const std::size_t got = handle.try_pop_batch(chunk.data(), kChunk);
      if (got == 0) {
        if (detector.quiescent()) break;
        bo.pause();
        continue;
      }
      bo.reset();
      successors.clear();
      for (std::size_t i = 0; i < got; ++i) {
        const auto d = static_cast<std::uint64_t>(chunk[i].first);
        const auto u = static_cast<csr_graph::node_id>(chunk[i].second);
        if (dist[u].load(std::memory_order_acquire) < d) {
          ++my_stale;  // stale-entry elision: u was improved past d
          continue;
        }
        for (const csr_graph::arc& a : g.out(u)) {
          const std::uint64_t nd = d + a.weight;
          std::uint64_t cur = dist[a.head].load(std::memory_order_relaxed);
          while (nd < cur) {
            if (dist[a.head].compare_exchange_weak(
                    cur, nd, std::memory_order_acq_rel,
                    std::memory_order_relaxed)) {
              successors.push_back(entry(nd, a.head));
              ++my_relaxed;
              break;
            }
          }
        }
      }
      if (!successors.empty()) {
        // Count BEFORE publishing: an entry must never be poppable
        // while uncounted, or a racing quiescence check could stop
        // workers with work still queued.
        detector.pushed(tid, successors.size());
        handle.push_batch(successors.data(), successors.size());
      }
      // The chunk is fully processed only now (successors counted and
      // pushed); the release store orders its dist[] writes before any
      // quiescent verdict that counts it.
      detector.done(tid, got);
    }
    relaxed[tid] = my_relaxed;
    stale[tid] = my_stale;
  };

  wall_timer timer;
  {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker, t);
    worker(0);
    for (auto& t : pool) t.join();
  }

  sssp_result result;
  result.seconds = timer.elapsed_seconds();
  result.distance.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.distance[i] = dist[i].load(std::memory_order_relaxed);
  }
  for (std::size_t t = 0; t < threads; ++t) {
    result.relaxations += relaxed[t];
    result.stale_pops += stale[t];
  }
  return result;
}

}  // namespace graph
}  // namespace pcq

// Termination detection for worker pools that drain a relaxed queue —
// the one primitive graph/parallel_sssp.hpp, exec/executor.hpp and
// sim/graph_process.hpp share. The queues' emptiness is relaxed (a
// failed try_pop means "looked empty"), so a worker that fails a pop
// asks this detector whether anything is still in flight: queued,
// buffered in some handle, or being processed.
//
// One cache-line-padded lane per worker, each holding two monotone
// counters that only that worker writes:
//
//   pushed(w, n)  worker w is about to make n entries poppable; a
//                 relaxed store, made BEFORE the queue push publishes
//                 them (seed pushes go to lane 0 before workers start);
//   done(w, n)    worker w has fully processed n popped entries,
//                 successors already counted and pushed; a release
//                 store, made AFTER the processing (a worker that pops
//                 a chunk marks the whole chunk with one store).
//
// quiescent() reads every `done` lane, then every `pushed` lane, all
// with acquire loads, and returns true iff the two sums are equal. The
// hot path has no read-modify-write and no write to a shared line.
//
// Proof that quiescent() == true means nothing is in flight and nothing
// can be pushed again. Call D the completions the done scan saw and P
// the pushes the pushed scan saw; the sums are |D| and |P|. Every entry
// has one push, by the worker processing its parent (or the seeder),
// and one completion, by the worker that popped it.
//
//   1. Every completion in D has its push in P. The push is sequenced
//      before the queue publish, the publish synchronizes with the pop,
//      the pop is sequenced before the release `done` store, and the
//      scan's acquire load of that lane synchronizes with it. So the
//      push happens-before the pushed scan, which by coherence reads it
//      or a later value of the pushing lane. Reading `done` before
//      `pushed` is what makes this hold: in the other order a push made
//      between the two scans could be missed while its completion is
//      counted.
//   2. If |D| == |P|, then by 1 the map from D to the pushes of its
//      entries is a bijection onto P: every entry whose push was seen
//      is done.
//   3. An entry pushed while its parent was in flight is pushed before
//      the parent's `done` store on the same lane: a `done(w, n)` store
//      is made only once all n entries it marks are fully processed, so
//      it follows every push made for any of them. So if the parent's
//      completion is in D the child's push happens-before the pushed
//      scan and is in P.
//   4. Induction from the seed: seed pushes happen before any worker
//      starts, so they are in P, hence done by 2. If an entry's push is
//      in P it is done (2), so its completion is in D and every child
//      it pushed is in P (3). Every entry that ever exists descends
//      from the seed, so every one of them is in P and done: no entry
//      is queued, buffered or running, and since pushes happen only
//      while processing an entry, none can be pushed again.
//
// The acquire loads also order every write made before a `done` store
// (dist[] updates, task outputs) before quiescent() returns true.
//
// Why not a striped counter of signed per-worker balances (+1 per push,
// -1 per completion) summed in one pass: that sum can read 0 while work
// remains. Lane B holds X (+1) and the scan reads A = 0; A pops X,
// pushes Y and Z, finishes X (A = +1); C pops Z and finishes it with no
// successors (C = -1); the scan reads B = +1, C = -1 and sums 0 while Y
// is still queued. Separate monotone counters read done-first rule this
// out (step 1).
//
// Liveness: entries buffered in a handle (k-LSM local components,
// MultiQueue pop buffers) stay counted and are poppable by their owner,
// so a worker that sees quiescent() == false after a failed pop backs
// off and retries, and some worker always makes progress.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pcq {

class in_flight {
 public:
  explicit in_flight(std::size_t workers) : lanes_(workers > 0 ? workers : 1) {}

  in_flight(const in_flight&) = delete;
  in_flight& operator=(const in_flight&) = delete;

  /// Worker `w` is about to make `n` entries poppable. Call before the
  /// queue push that publishes them.
  void pushed(std::size_t w, std::uint64_t n = 1) {
    std::atomic<std::uint64_t>& c = lanes_[w].pushed;
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  /// Worker `w` has fully processed `n` popped entries: everything it
  /// pushed while processing them is already counted and pushed.
  void done(std::size_t w, std::uint64_t n = 1) {
    std::atomic<std::uint64_t>& c = lanes_[w].done;
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_release);
  }

  /// True iff nothing is in flight and nothing can be pushed again (the
  /// proof above). Call only while holding no popped, unfinished entry.
  bool quiescent() const {
    std::uint64_t done_sum = 0;
    for (const lane& l : lanes_)
      done_sum += l.done.load(std::memory_order_acquire);
    std::uint64_t pushed_sum = 0;
    for (const lane& l : lanes_)
      pushed_sum += l.pushed.load(std::memory_order_acquire);
    return done_sum == pushed_sum;
  }

 private:
  struct alignas(64) lane {
    std::atomic<std::uint64_t> pushed{0};
    std::atomic<std::uint64_t> done{0};
  };
  std::vector<lane> lanes_;
};

}  // namespace pcq

// util/in_flight.hpp, the termination detector shared by parallel_sssp,
// the executor and the graph process. Single-threaded lane cases pin
// the counting rules; a hammer then drains thousands of short random
// spawn trees through a shared stack with per-worker pop buffers, one
// fresh detector per tree, at 4 threads and again at 8 (oversubscribed
// on a 4-core box, so a scan can be preempted halfway). Every tree has
// exactly one true quiescent point, and its shape keeps one to three
// entries in flight while work keeps moving between lanes, so each
// round offers many near-zero moments in which a wrong quiescence check
// would let a worker leave early. Each node does ~1 us of ALU work, so
// other workers move entries between lanes while a scan is under way.
// Each worker checks the ground truth as it leaves: an exact shared
// count of unfinished entries must be zero, and every node of the tree
// must have run exactly once.
//
// Mutation check on a 4-core x86 VM: with quiescent() replaced by a
// one-pass sum of signed per-lane balances (which can read 0 while an
// entry is queued), 30 of 30 runs failed, 28 of them already in the
// 4-thread pass; with the scan reading `pushed` before `done`, 10 of 10
// failed.

#include "util/in_flight.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "test_macros.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"

namespace {

void test_seed_only() {
  pcq::in_flight d(4);
  CHECK(d.quiescent());  // nothing was ever pushed
  d.pushed(0);           // the seed, counted on lane 0
  CHECK(!d.quiescent());
  d.done(2);             // popped and finished by worker 2
  CHECK(d.quiescent());

  pcq::in_flight none(0);  // zero workers still get one lane
  none.pushed(0);
  CHECK(!none.quiescent());
  none.done(0);
  CHECK(none.quiescent());
}

void test_handle_buffered() {
  // Worker 1 drains all three seeds into its handle's pop buffer: they
  // are counted and no longer in the shared queue, but not done.
  pcq::in_flight d(4);
  d.pushed(0, 3);
  CHECK(!d.quiescent());
  d.done(1);
  CHECK(!d.quiescent());
  d.done(1);
  CHECK(!d.quiescent());
  d.done(1);
  CHECK(d.quiescent());
}

void test_count_before_publish() {
  // Worker 1 processes the seed and counts two children before it
  // publishes them; from the count on, no scan can call the run idle.
  pcq::in_flight d(4);
  d.pushed(0);
  d.pushed(1, 2);
  CHECK(!d.quiescent());
  d.done(1);  // the seed is finished, its children are still pending
  CHECK(!d.quiescent());
  d.done(2);
  CHECK(!d.quiescent());
  d.pushed(3);  // worker 3 runs the second child, which spawns one more
  d.done(3);
  CHECK(!d.quiescent());
  d.done(0);
  CHECK(d.quiescent());
}

void test_chunked_done() {
  // Workers that pop chunks mark a whole chunk with one done(w, n). It
  // must give the same verdicts as n single done(w) calls: compare two
  // detectors step by step through the same pops, chunk sizes 1-5.
  pcq::in_flight chunked(4), single(4);
  pcq::xoshiro256ss rng(0xc4u);
  chunked.pushed(0, 3);
  single.pushed(0, 3);
  std::uint64_t queued = 3;
  for (int step = 0; step < 200 && queued > 0; ++step) {
    const std::size_t w = rng.bounded(4);
    const std::uint64_t n =
        1 + rng.bounded(std::min<std::uint64_t>(queued, 5));
    queued -= n;
    const std::uint64_t kids = step < 150 ? rng.bounded(2 * n + 1) : 0;
    chunked.pushed(w, kids);
    single.pushed(w, kids);
    queued += kids;
    CHECK(chunked.quiescent() == single.quiescent());
    CHECK(!chunked.quiescent());  // the chunk is popped, not yet done
    chunked.done(w, n);
    for (std::uint64_t i = 0; i < n; ++i) single.done(w);
    CHECK(chunked.quiescent() == single.quiescent());
    CHECK(chunked.quiescent() == (queued == 0));
  }
  CHECK(queued == 0);
  CHECK(chunked.quiescent() && single.quiescent());
}

// A random caterpillar: a spine of up to 160 nodes, each spine node
// spawning the next one plus 0-2 leaves, in random order. A spine step
// moves one or two net entries onto the processing worker's lane, and a
// leaf step takes one off another lane, which is the pattern a one-pass
// signed sum misreads.
std::vector<std::vector<std::uint32_t>> random_tree(pcq::xoshiro256ss& rng) {
  const std::size_t spine = 1 + rng.bounded(160);
  std::vector<std::vector<std::uint32_t>> children(1);
  std::uint32_t cur = 0;
  for (std::size_t i = 1; i < spine; ++i) {
    std::vector<std::uint32_t> kids;
    for (std::uint64_t leg = rng.bounded(3); leg > 0; --leg) {
      kids.push_back(static_cast<std::uint32_t>(children.size()));
      children.emplace_back();
    }
    const auto next = static_cast<std::uint32_t>(children.size());
    children.emplace_back();
    kids.insert(kids.begin() + rng.bounded(kids.size() + 1), next);
    children[cur] = kids;
    cur = next;
  }
  return children;
}

// A node's body: 256 splitmix64-style rounds, checked after the run.
std::uint64_t node_work(std::uint32_t v) {
  std::uint64_t x = v;
  for (int r = 0; r < 256; ++r) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x ^= x >> 31;
  }
  return x;
}

struct round_state {
  explicit round_state(std::size_t nodes)
      : ran(new std::atomic<int>[nodes]), out(nodes, 0) {
    for (std::size_t i = 0; i < nodes; ++i)
      ran[i].store(0, std::memory_order_relaxed);
  }
  std::mutex lock;
  std::vector<std::uint32_t> stack;  // the shared "queue"
  std::unique_ptr<std::atomic<int>[]> ran;
  std::vector<std::uint64_t> out;  // plain writes: one runner per node
  std::atomic<std::int64_t> unfinished{0};  // exact ground truth
};

// Returns the number of worker exits that found the ground truth busy.
// Pop buffers hold one entry in even rounds and two in odd ones.
std::size_t hammer(std::size_t rounds, std::size_t threads) {
  pcq::xoshiro256ss rng(0x1f1f + threads);
  std::atomic<std::size_t> early_exits{0};
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto children = random_tree(rng);
    const std::size_t nodes = children.size();
    round_state st(nodes);
    pcq::in_flight d(threads);
    st.unfinished.store(1, std::memory_order_relaxed);
    d.pushed(0);
    st.stack.push_back(0);
    const std::size_t buffer_cap = 1 + r % 2;

    auto worker = [&](std::size_t tid) {
      std::vector<std::uint32_t> buffer;  // a handle's pop buffer
      pcq::backoff bo;
      for (;;) {
        if (buffer.empty()) {
          std::lock_guard<std::mutex> g(st.lock);
          while (buffer.size() < buffer_cap && !st.stack.empty()) {
            buffer.push_back(st.stack.back());
            st.stack.pop_back();
          }
        }
        if (buffer.empty()) {
          if (d.quiescent()) break;
          bo.pause();
          continue;
        }
        bo.reset();
        const std::uint32_t v = buffer.back();
        buffer.pop_back();
        st.ran[v].fetch_add(1, std::memory_order_relaxed);
        st.out[v] = node_work(v);
        if (!children[v].empty()) {
          const auto n = children[v].size();
          st.unfinished.fetch_add(static_cast<std::int64_t>(n),
                                  std::memory_order_relaxed);
          d.pushed(tid, n);
          std::lock_guard<std::mutex> g(st.lock);
          st.stack.insert(st.stack.end(), children[v].begin(),
                          children[v].end());
        }
        st.unfinished.fetch_sub(1, std::memory_order_release);
        d.done(tid);
      }
      bool ok = st.unfinished.load(std::memory_order_acquire) == 0;
      for (std::size_t i = 0; i < nodes; ++i)
        ok = ok && st.ran[i].load(std::memory_order_relaxed) == 1;
      if (!ok) early_exits.fetch_add(1, std::memory_order_relaxed);
    };

    std::vector<std::thread> pool;
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker, t);
    worker(0);
    for (auto& t : pool) t.join();

    CHECK(d.quiescent());
    CHECK(st.stack.empty());
    for (std::uint32_t i = 0; i < nodes; ++i) {
      CHECK(st.ran[i].load() == 1);
      CHECK(st.out[i] == node_work(i));
    }
  }
  return early_exits.load();
}

}  // namespace

int main() {
  test_seed_only();
  test_handle_buffered();
  test_count_before_publish();
  test_chunked_done();

  const std::size_t rounds = 4000;
  for (std::size_t threads : {4, 8}) {
    const std::size_t early = hammer(rounds, threads);
    std::printf("in_flight hammer: %zu trees at %zu threads, %zu early exits\n",
                rounds, threads, early);
    CHECK(early == 0);
  }
  std::printf("test_in_flight OK\n");
  return 0;
}

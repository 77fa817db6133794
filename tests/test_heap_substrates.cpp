// heap/ substrate family — concept conformance and behavioral equivalence
// for every sequential substrate, plus the queues they plug into.
//
// Per substrate: the granular PCQ_ASSERT_HEAP_CONCEPT asserts; randomized
// interleaved push/pop against a std::priority_queue oracle (6k steps over
// 48 keys and 20k steps over 500, so duplicate keys are constantly
// exercised); full ordered drains checked key-for-key against the sorted
// input (wide keys, and a duplicate-heavy range); move-construction
// mid-stream; reserve under later growth; and a std::greater
// instantiation (max-heap semantics). The dary_heap<2>/<8> cells are the
// only coverage of the Arity parameter away from its default.
//
// Per queue: the shared conformance suite over multi_queue instantiated
// with each substrate selector, and over coarse_pq with a non-default
// substrate + expected_capacity hint — the substrate knob must be
// invisible at the handle-concept level.
//
// Adaptive pop_batch: the controller's grow/shrink/bounds transitions are
// a pure function of refill outcomes, tested exhaustively; an end-to-end
// deterministic drain plus a concurrent conformance suite cover the wired
// queue path.

#include "heap/binary_heap.hpp"
#include "heap/dary_heap.hpp"
#include "heap/heap_concept.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "core/baselines/coarse_pq.hpp"
#include "core/multi_queue.hpp"
#include "pq_test_harness.hpp"
#include "test_macros.hpp"
#include "util/rng.hpp"

namespace {

using u64 = std::uint64_t;

template <typename Selector>
using sub_t = pcq::heap_substrate_t<Selector, u64, u64, std::less<u64>>;
template <typename Selector>
using max_sub_t = pcq::heap_substrate_t<Selector, u64, u64, std::greater<u64>>;

// Concept conformance, min- and max-heap instantiations of every selector.
#define ASSERT_BOTH(Selector)                  \
  PCQ_ASSERT_HEAP_CONCEPT(sub_t<Selector>);    \
  PCQ_ASSERT_HEAP_CONCEPT(max_sub_t<Selector>)
ASSERT_BOTH(pcq::binary_heap);
ASSERT_BOTH(pcq::dary_heap<2>);
ASSERT_BOTH(pcq::dary_heap<4>);
ASSERT_BOTH(pcq::dary_heap<8>);
#undef ASSERT_BOTH

constexpr u64 kValueMix = 0x9E3779B97F4A7C15ull;
u64 value_of(u64 key) { return key * kValueMix + 1; }

using min_oracle =
    std::priority_queue<u64, std::vector<u64>, std::greater<u64>>;

/// Random interleaved ops against the STL oracle. Keys are drawn from a
/// bounded range so duplicates pile up; values are key-derived, so
/// checking value_of(key) proves the (key, value) pairing traveled intact
/// even when the pop order among equal keys is substrate-specific.
template <typename Heap>
void oracle_interleaved(std::uint64_t seed, std::size_t ops, u64 key_range) {
  Heap h;
  min_oracle oracle;
  pcq::xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < ops; ++i) {
    if (oracle.empty() || rng.bounded(100) < 55) {
      const u64 k = rng.bounded(key_range);
      h.push(k, value_of(k));
      oracle.push(k);
    } else {
      const auto e = h.pop();
      CHECK(e.first == oracle.top());
      CHECK(e.second == value_of(e.first));
      oracle.pop();
    }
    CHECK(h.size() == oracle.size());
    CHECK(h.empty() == oracle.empty());
    if (!h.empty()) {
      CHECK(h.top_key() == oracle.top());
      CHECK(h.top().first == h.top_key());
      CHECK(h.top().second == value_of(h.top().first));
    }
  }
  while (!h.empty()) {
    CHECK(h.pop().first == oracle.top());
    oracle.pop();
  }
}

/// Bulk push, full drain: the pops reproduce the sorted pushed multiset
/// key for key, with values intact. key_range == 0 draws from the full
/// (halved) 64-bit range; a small key_range forces duplicate runs.
template <typename Heap>
void ordered_drain(std::uint64_t seed, std::size_t n, u64 key_range) {
  Heap h;
  pcq::xoshiro256ss rng(seed);
  std::vector<u64> keys;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 k = key_range == 0 ? rng() >> 1 : rng.bounded(key_range);
    h.push(k, value_of(k));
    keys.push_back(k);
  }
  CHECK(h.size() == n);
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < n; ++i) {
    CHECK(h.top_key() == keys[i]);
    const auto e = h.pop();
    CHECK(e.first == keys[i]);
    CHECK(e.second == value_of(e.first));
  }
  CHECK(h.empty());
}

/// Move-construct mid-stream; the new object continues against the
/// oracle, proving internal pointers/indices survived the move.
template <typename Heap>
void move_mid_stream(std::uint64_t seed) {
  Heap a;
  min_oracle oracle;
  pcq::xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < 300; ++i) {
    const u64 k = rng.bounded(1000);
    a.push(k, value_of(k));
    oracle.push(k);
  }
  for (std::size_t i = 0; i < 50; ++i) {
    CHECK(a.pop().first == oracle.top());
    oracle.pop();
  }
  Heap b(std::move(a));
  CHECK(b.size() == oracle.size());
  for (std::size_t i = 0; i < 100; ++i) {
    const u64 k = rng.bounded(1000);
    b.push(k, value_of(k));
    oracle.push(k);
  }
  while (!b.empty()) {
    CHECK(b.pop().first == oracle.top());
    oracle.pop();
  }
  CHECK(oracle.empty());
}

/// reserve is a hint, never a limit: growth far past it stays correct.
template <typename Heap>
void reserve_then_overflow(std::uint64_t seed) {
  Heap h;
  h.reserve(128);
  pcq::xoshiro256ss rng(seed);
  u64 sum_in = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    const u64 k = rng() >> 1;
    h.push(k, 0);
    sum_in += k;
  }
  u64 sum_out = 0;
  while (!h.empty()) sum_out += h.pop().first;
  CHECK(sum_in == sum_out);
}

/// std::greater flips the substrate into a max-heap: drain non-increasing.
template <typename MaxHeap>
void max_heap_drain(std::uint64_t seed) {
  MaxHeap h;
  pcq::xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < 500; ++i) h.push(rng.bounded(100), 0);
  u64 prev = ~u64{0};
  while (!h.empty()) {
    const u64 k = h.pop().first;
    CHECK(k <= prev);
    prev = k;
  }
}

template <typename Selector>
void substrate_suite(std::uint64_t seed) {
  oracle_interleaved<sub_t<Selector>>(seed, 6000, 48);
  oracle_interleaved<sub_t<Selector>>(seed + 5, 20000, 500);
  ordered_drain<sub_t<Selector>>(seed + 1, 4096, 0);
  ordered_drain<sub_t<Selector>>(seed + 6, 5000, 1000);
  move_mid_stream<sub_t<Selector>>(seed + 2);
  reserve_then_overflow<sub_t<Selector>>(seed + 3);
  max_heap_drain<max_sub_t<Selector>>(seed + 4);
}

// ---- queues parameterized by substrate ----

template <typename Selector>
void mq_suite_with(std::uint64_t seed) {
  using queue_t = pcq::multi_queue<u64, u64, std::less<u64>, Selector>;
  pcq::testing::run_standard_suite(
      [](std::size_t threads) {
        pcq::mq_config cfg;
        cfg.expected_capacity = 4096;
        return std::make_unique<queue_t>(cfg, threads);
      },
      /*drain_exact=*/false, seed);
}

void coarse_suite_nondefault() {
  using queue_t = pcq::coarse_pq<u64, u64, std::less<u64>, pcq::binary_heap>;
  pcq::testing::run_standard_suite(
      [](std::size_t /*threads*/) {
        return std::make_unique<queue_t>(/*expected_capacity=*/2048);
      },
      /*drain_exact=*/true);
}

// ---- adaptive pop_batch ----

void adaptive_controller_transitions() {
  // Grow on full refills, doubling to the cap and holding there.
  pcq::adaptive_batch_controller c(1, 64);
  CHECK(c.batch() == 1);
  const std::size_t grown[] = {2, 4, 8, 16, 32, 64, 64};
  for (std::size_t expect : grown) {
    c.on_refill(c.batch(), c.batch(), /*contended=*/false);
    CHECK(c.batch() == expect);
  }
  // Short refill (under half of requested) shrinks.
  c.on_refill(64, 10, false);
  CHECK(c.batch() == 32);
  // In [half, full) and uncontended: hold.
  c.on_refill(32, 20, false);
  CHECK(c.batch() == 32);
  // Contention grows even on a partial refill.
  c.on_refill(32, 20, true);
  CHECK(c.batch() == 64);
  // Emptiness shrinks all the way to the floor and stays there.
  const std::size_t shrunk[] = {32, 16, 8, 4, 2, 1, 1, 1};
  for (std::size_t expect : shrunk) {
    c.on_refill(c.batch(), 0, /*contended=*/false);
    CHECK(c.batch() == expect);
  }
  // Empty-but-contended: the shrink signal wins.
  c.on_refill(1, 1, false);  // allow one grow first
  CHECK(c.batch() == 2);
  c.on_refill(2, 0, /*contended=*/true);
  CHECK(c.batch() == 1);
  // Constructor clamps: initial above max, zero initial, zero max.
  CHECK(pcq::adaptive_batch_controller(100, 64).batch() == 64);
  CHECK(pcq::adaptive_batch_controller(0, 8).batch() == 1);
  CHECK(pcq::adaptive_batch_controller(5, 0).batch() == 1);
}

/// Deterministic single-thread end-to-end: an adaptive handle must
/// conserve elements exactly through grow/shrink cycles (push phase,
/// full drain, emptiness verdict).
void adaptive_queue_drain() {
  pcq::mq_config cfg;
  cfg.adaptive_batch = true;
  cfg.pop_batch_max = 32;
  cfg.expected_capacity = 10000;
  pcq::multi_queue<u64, u64> queue(cfg, 2);
  auto handle = queue.get_handle(0);
  pcq::xoshiro256ss rng(0xadab);
  u64 sum_in = 0;
  for (std::size_t i = 0; i < 10000; ++i) {
    const u64 k = rng() >> 1;
    handle.push(k, value_of(k));
    sum_in += k;
  }
  u64 sum_out = 0;
  std::size_t got = 0;
  u64 key = 0, value = 0;
  while (handle.try_pop(key, value)) {
    CHECK(value == value_of(key));
    sum_out += key;
    ++got;
  }
  CHECK(got == 10000);
  CHECK(sum_in == sum_out);
  CHECK(queue.size() == 0);
}

void adaptive_mq_suite() {
  using queue_t = pcq::multi_queue<u64, u64>;
  pcq::testing::run_standard_suite(
      [](std::size_t threads) {
        pcq::mq_config cfg;
        cfg.adaptive_batch = true;
        cfg.pop_batch_max = 16;
        return std::make_unique<queue_t>(cfg, threads);
      },
      /*drain_exact=*/false, 0xada0);
}

}  // namespace

int main() {
  substrate_suite<pcq::binary_heap>(0x5b1);
  substrate_suite<pcq::dary_heap<2>>(0x5d2);
  substrate_suite<pcq::dary_heap<4>>(0x5d4);
  substrate_suite<pcq::dary_heap<8>>(0x5d8);

  mq_suite_with<pcq::binary_heap>(0x311);
  mq_suite_with<pcq::dary_heap<8>>(0x312);
  coarse_suite_nondefault();

  adaptive_controller_transitions();
  adaptive_queue_drain();
  adaptive_mq_suite();

  std::printf("test_heap_substrates OK\n");
  return 0;
}

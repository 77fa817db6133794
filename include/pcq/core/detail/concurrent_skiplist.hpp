// Lock-free skiplist substrate shared by the Lindén–Jonsson-style and
// SprayList-style baseline priority queues (core/baselines/).
//
// Design, after Lindén & Jonsson (OPODIS 2013):
//
//   - Nodes are key-ordered at every level. A node is logically deleted
//     (claimed) by setting the mark bit (LSB) of its *own* level-0 next
//     pointer with a single fetch_or — the deleteMin linearization point.
//     Once marked, a node's level-0 next pointer is immutable (every CAS
//     expects an unmarked value), so the chain of deleted nodes at the
//     front of the list is frozen.
//   - try_pop_front traverses the deleted prefix read-only and claims the
//     first live node with one fetch_or. Physical unlinking is batched:
//     only when the observed prefix exceeds kPrefixBound does the claiming
//     thread swing the head pointers past it (restructure), so the common
//     deleteMin issues one atomic write instead of a CAS per level.
//   - Inserts splice over marked nodes they walk past at level 0 (helping
//     physical deletion), which also handles inserting a new minimum into
//     the dead prefix.
//   - try_pop_spray implements the SprayList descent: a random walk of
//     bounded jumps per level that lands O(polylog) positions from the
//     front, then claims the first live node from there. Sprays never
//     restructure; spray_pq mixes in cleaner (front) pops for that.
//
// Upper levels are Harris lists of their own (Fraser's skiplist): a
// claimed node's level-i pointer gets its own mark bit, which freezes it,
// and only a node frozen at level i may be unlinked at level i (by
// swinging its predecessor to its frozen successor). Freezing runs top
// down (mark_upper), by any thread, once level 0 is claimed. Claims do not
// freeze; searches that meet a claimed tower freeze and snip it, and a
// level-0 detach freezes every tower it detaches first. Three invariants
// follow, for every level i >= 1:
//
//   (I1) a node linked at level i and unmarked there is reachable at
//        level i (it was linked behind a node unmarked at the time, and
//        unlinking needs a mark);
//   (I2) marked at level i-1 implies marked at level i (top-down), so a
//        node unmarked at level i is also reachable at level i-1;
//   (I3) a node unmarked at level 1 has not been detached at level 0.
//
// Traversals therefore descend only from the head or from a node they
// saw unmarked at the level they leave; from such a node every pointer
// they follow (frozen ones included) leads to a node that was reachable
// at some instant after they pinned.
//
// Memory reclamation is a template policy:
//
//   - reclaim_deferred: nodes are threaded onto striped allocation lists
//     at creation and freed only by the destructor. Traversals are safe
//     and the bottom-level CAS is ABA-free without any per-op cost, but
//     memory grows with the total insert count — acceptable only for
//     bench-lifetime queues.
//   - reclaim_ebr (default for the pq wrappers): epoch-based reclamation
//     via util/ebr.hpp. Every operation runs under a pinned epoch. The two
//     sites that make dead nodes unreachable at level 0 — the prefix
//     restructure's head swing and an insert's Harris-style dead-run
//     unlink — own the nodes their successful CAS detached (CAS
//     uniqueness makes ownership exclusive). The owner sweeps the detached
//     key range at every upper level, snipping each frozen node, and then
//     retires the nodes to the epoch domain, which frees them two epoch
//     advances later. By the invariants above, no operation that pins
//     after the retire can reach them. Pinning also keeps every CAS
//     ABA-safe: a node's address cannot be recycled while any operation
//     that could have read it is still pinned.
//
//     One race remains: a node can be claimed and detached while its
//     inserter is still linking its upper levels, and the inserter's
//     last link can land after the owner's sweep. A per-node link_state
//     settles it. The owner CASes kLinking -> kHandedOff and, on success,
//     leaves the node to its inserter, which finds the mark, stops
//     linking, sweeps, and retires the node itself. An inserter that
//     finishes first CASes kLinking -> kLinked, and the owner then
//     sweeps and retires as usual.
//
// Key and Value must be trivially copyable and trivially destructible
// (nodes are raw storage, and keys/values are read after a claim without
// further synchronization beyond the pointer acquire).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>

#include "util/ebr.hpp"
#include "util/rng.hpp"
#include "util/striped_counter.hpp"

namespace pcq {

/// Reclamation policy tags for concurrent_skiplist (and the pq wrappers
/// built on it).
struct reclaim_deferred {};
struct reclaim_ebr {};

namespace detail {

template <typename Node, typename Policy>
class reclaim_state;

/// Striped allocation lists; everything is freed at destruction. The
/// handle and guard are empty so the hot paths compile to nothing.
template <typename Node>
class reclaim_state<Node, reclaim_deferred> {
 public:
  struct handle_type {};
  struct guard_type {
    void unpin_lazy() {}
  };
  static constexpr bool kEager = false;

  handle_type get_handle() { return {}; }
  static guard_type pin(handle_type&) { return {}; }
  static guard_type pin_resume(handle_type&) { return {}; }

  void on_alloc(Node* n) {
    auto& list = stripes_[stripe_of(n)].allocated;
    Node* old = list.load(std::memory_order_relaxed);
    do {
      n->alloc_next = old;
    } while (!list.compare_exchange_weak(old, n, std::memory_order_release,
                                         std::memory_order_relaxed));
  }
  static void on_unlinked(handle_type&, Node*) {}

  std::size_t reclaimed_quiescent() const { return 0; }
  std::size_t limbo_quiescent() const { return 0; }

  ~reclaim_state() {
    for (auto& stripe : stripes_) {
      Node* cur = stripe.allocated.load(std::memory_order_relaxed);
      while (cur != nullptr) {
        Node* next = cur->alloc_next;
        ::operator delete(cur);
        cur = next;
      }
    }
  }

 private:
  static constexpr std::size_t kStripes = 64;
  struct alignas(64) stripe_t {
    std::atomic<Node*> allocated{nullptr};
  };
  static std::size_t stripe_of(const Node* n) {
    return (reinterpret_cast<std::uintptr_t>(n) >> 6) & (kStripes - 1);
  }
  stripe_t stripes_[kStripes];
};

/// Epoch-based reclamation: unlinked nodes are retired into the owning
/// handle's limbo and freed after the grace period. The node's alloc_next
/// field doubles as the limbo link (a node is tracked either by the
/// allocation stripes or by limbo, never both).
template <typename Node>
class reclaim_state<Node, reclaim_ebr> {
 public:
  struct traits {
    static Node*& limbo_next(Node* n) { return n->alloc_next; }
    static void reclaim(Node* n) { ::operator delete(n); }
  };
  using domain_type = ebr_domain<Node, traits>;
  using handle_type = typename domain_type::handle;
  using guard_type = typename domain_type::guard;
  static constexpr bool kEager = true;

  handle_type get_handle() { return domain_.get_handle(); }
  static guard_type pin(handle_type& h) { return h.pin(); }
  static guard_type pin_resume(handle_type& h) { return h.pin_resume(); }
  void on_alloc(Node*) {}
  static void on_unlinked(handle_type& h, Node* n) { h.retire(n); }

  std::size_t reclaimed_quiescent() const {
    return domain_.reclaimed_quiescent();
  }
  std::size_t limbo_quiescent() const { return domain_.limbo_quiescent(); }

 private:
  domain_type domain_;
};

template <typename Key, typename Value, typename Compare = std::less<Key>,
          typename Reclaim = reclaim_deferred>
class concurrent_skiplist {
  static_assert(std::is_trivially_copyable<Key>::value &&
                    std::is_trivially_destructible<Key>::value,
                "concurrent_skiplist keys must be trivially copyable and "
                "destructible");
  static_assert(std::is_trivially_copyable<Value>::value &&
                    std::is_trivially_destructible<Value>::value,
                "concurrent_skiplist values must be trivially copyable and "
                "destructible");

  struct node;
  using reclaim_type = reclaim_state<node, Reclaim>;

 public:
  /// Tallest tower: supports ~2^24 elements at the classic p = 1/2
  /// level-promotion rate.
  static constexpr int kMaxHeight = 24;
  /// Marked-prefix length that triggers a head restructure.
  static constexpr std::size_t kPrefixBound = 128;

  /// Per-thread reclamation registration; every operation takes one by
  /// reference. Empty (and free) under reclaim_deferred.
  using reclaim_handle = typename reclaim_type::handle_type;

  concurrent_skiplist() : head_(make_node(kMaxHeight, Key{}, Value{})) {}

  concurrent_skiplist(const concurrent_skiplist&) = delete;
  concurrent_skiplist& operator=(const concurrent_skiplist&) = delete;

  ~concurrent_skiplist() {
    if (kEager) {
      // Limbo nodes are freed by the domain member's destructor; the
      // level-0 chain (live + marked-but-unclaimed-by-restructure) is
      // ours to free here. Retired nodes are never level-0 reachable, so
      // the two sets are disjoint.
      node* cur = ptr_of(head_->tower()[0].load(std::memory_order_relaxed));
      while (cur != nullptr) {
        node* next =
            ptr_of(cur->tower()[0].load(std::memory_order_relaxed));
        ::operator delete(cur);
        cur = next;
      }
    }
    ::operator delete(head_);
  }

  reclaim_handle get_reclaim_handle() { return reclaim_.get_handle(); }

  /// Caller-held epoch pin. The `*_pinned` operation variants run under a
  /// guard obtained here, so a batch of operations pays one pin/unpin
  /// (store + seq_cst fence + load) instead of one per element — the
  /// pin/unpin elision the baseline batch APIs are built on. Guards are
  /// not reentrant: never call a pinning (non-`_pinned`) operation while
  /// holding one. An empty no-op under reclaim_deferred.
  using pin_guard = typename reclaim_type::guard_type;
  pin_guard pin(reclaim_handle& rh) { return reclaim_type::pin(rh); }

  /// Like pin(), but resumes a pin the caller previously ended with
  /// guard.unpin_lazy() — one CAS instead of store+fence+re-read when
  /// the same handle's operations run back to back (the scalar-op pin
  /// elision; see util/ebr.hpp). Identical guarantees either way.
  pin_guard pin_resume(reclaim_handle& rh) {
    return reclaim_type::pin_resume(rh);
  }

  /// Live elements (inserted minus claimed), summed over striped counters.
  /// Approximate under concurrency, exact when quiescent.
  std::size_t size() const { return count_.sum_clamped(); }

  /// Nodes allocated and not yet freed (excludes the head sentinel).
  /// Under reclaim_ebr this is live + marked-but-unreclaimed + limbo and
  /// stays bounded under churn; under reclaim_deferred it is the total
  /// insert count. Quiescent-only accuracy.
  std::size_t allocated_nodes() const {
    const std::size_t created = created_.sum_clamped();
    const std::size_t freed = reclaim_.reclaimed_quiescent();
    return created > freed ? created - freed : 0;
  }

  /// Nodes waiting out their grace period (0 under reclaim_deferred).
  /// Quiescent-only accuracy.
  std::size_t limbo_nodes() const { return reclaim_.limbo_quiescent(); }

  void insert(reclaim_handle& rh, xoshiro256ss& rng, Key key,
              const Value& value) {
    auto epoch_guard = reclaim_type::pin(rh);
    (void)epoch_guard;
    insert_pinned(rh, rng, key, value);
  }

  /// insert body; caller holds a pin() guard for rh. The key is taken by
  /// value: the upper-level re-search reads it after the level-0 link has
  /// made the node poppable, when the caller's object may already be gone
  /// (the executor's job, run and deleted by another worker).
  void insert_pinned(reclaim_handle& rh, xoshiro256ss& rng, Key key,
                     const Value& value) {
    const int height = sample_height(rng());
    node* n = make_node(height, key, value);
    reclaim_.on_alloc(n);
    created_.add(stripe_of(n), 1);

    node* preds[kMaxHeight];
    node* succs[kMaxHeight];
    while (true) {
      locate_preds(key, preds, succs);
      node* pred = preds[0];
      std::uintptr_t pred_next = pred->tower()[0].load(std::memory_order_acquire);
      if (is_marked(pred_next)) {
        // The located predecessor died under us. The head never dies, and
        // after a restructure the dead prefix is short, so restart the
        // level-0 walk from it.
        pred = head_;
        pred_next = pred->tower()[0].load(std::memory_order_acquire);
      }
      // Walk to the splice point, physically unlinking every dead run on
      // the way (Harris-style helping). Without this, nodes claimed
      // off-front (sprays) accumulate between live nodes faster than the
      // head-anchored prefix collection can remove them, and every walk
      // through the front region degrades linearly in the op count.
      bool restart = false;
      while (true) {
        node* cur = ptr_of(pred_next);
        if (cur == nullptr) break;  // succ is end-of-list
        const std::uintptr_t cur_next =
            cur->tower()[0].load(std::memory_order_acquire);
        if (is_marked(cur_next)) {
          // Freeze every tower of the run before detaching it (I3).
          mark_upper(cur);
          node* run_end = ptr_of(cur_next);
          while (run_end != nullptr) {
            const std::uintptr_t run_next =
                run_end->tower()[0].load(std::memory_order_acquire);
            if (!is_marked(run_next)) break;
            mark_upper(run_end);
            run_end = ptr_of(run_next);
          }
          if (!pred->tower()[0].compare_exchange_strong(
                  pred_next, tag_of(run_end), std::memory_order_release,
                  std::memory_order_relaxed)) {
            restart = true;
            break;
          }
          // The successful CAS detached [cur, run_end) — this thread owns
          // the run exclusively and is the one that must reclaim it.
          retire_chain(rh, cur, run_end);
          pred_next = tag_of(run_end);
          continue;
        }
        if (!compare_(cur->key, key)) break;  // succ is cur (live)
        pred = cur;
        pred_next = cur_next;
      }
      if (restart) continue;
      n->tower()[0].store(pred_next, std::memory_order_relaxed);
      if (pred->tower()[0].compare_exchange_strong(pred_next, tag_of(n),
                                                   std::memory_order_release,
                                                   std::memory_order_relaxed)) {
        break;
      }
    }
    note(n, +1);

    // Link the upper levels bottom-up (Fraser): point n at the located
    // successor, then swing the predecessor; re-search on a lost race.
    // Stop as soon as n is claimed — its towers are (about to be) frozen,
    // and the CAS on n's own pointer fails once they are.
    for (int lvl = 1; lvl < height; ++lvl) {
      bool linked = false;
      while (!is_marked(n->tower()[0].load(std::memory_order_acquire))) {
        std::uintptr_t own = n->tower()[lvl].load(std::memory_order_seq_cst);
        const std::uintptr_t succ_t = tag_of(succs[lvl]);
        if (is_marked(own) ||
            (own != succ_t &&
             !n->tower()[lvl].compare_exchange_strong(
                 own, succ_t, std::memory_order_seq_cst,
                 std::memory_order_relaxed))) {
          break;  // frozen: n was claimed
        }
        std::uintptr_t expected = succ_t;
        if (preds[lvl]->tower()[lvl].compare_exchange_strong(
                expected, tag_of(n), std::memory_order_seq_cst,
                std::memory_order_relaxed)) {
          linked = true;
          break;
        }
        locate_preds(key, preds, succs);
      }
      if (!linked) break;
    }
    finish_linking(rh, n);
  }

  /// Lindén–Jonsson deleteMin: walk the frozen marked prefix read-only,
  /// claim the first live node with one fetch_or, batch physical cleanup.
  /// Returns false when the traversal reaches the end of the list
  /// (relaxed: concurrent inserts may race with the emptiness verdict).
  bool try_pop_front(reclaim_handle& rh, Key& key, Value& value) {
    auto epoch_guard = reclaim_type::pin(rh);
    (void)epoch_guard;
    return try_pop_front_pinned(rh, key, value);
  }

  /// try_pop_front body; caller holds a pin() guard for rh.
  bool try_pop_front_pinned(reclaim_handle& rh, Key& key, Value& value) {
    const std::uintptr_t observed =
        head_->tower()[0].load(std::memory_order_acquire);
    node* cur = ptr_of(observed);
    std::size_t offset = 0;
    while (cur != nullptr) {
      std::uintptr_t next = cur->tower()[0].load(std::memory_order_acquire);
      if (!is_marked(next)) {
        next = cur->tower()[0].fetch_or(1, std::memory_order_seq_cst);
        if (!is_marked(next)) {
          key = cur->key;
          value = cur->value;
          note(cur, -1);
          if (offset + 1 >= kPrefixBound) collect_prefix(rh);
          return true;
        }
      }
      ++offset;
      cur = ptr_of(next);
    }
    return false;
  }

  /// SprayList descent: from `start_height`, walk a uniform number of
  /// steps in [0, max_jump] per level, descend, then claim the first live
  /// node at or after the landing point. Returns false if the spray ran
  /// off the end of the list (caller retries or cleans from the front).
  bool try_pop_spray(reclaim_handle& rh, xoshiro256ss& rng, int start_height,
                     std::uint64_t max_jump, Key& key, Value& value) {
    auto epoch_guard = reclaim_type::pin(rh);
    (void)epoch_guard;
    return try_pop_spray_pinned(rh, rng, start_height, max_jump, key, value);
  }

  /// try_pop_spray body; caller holds a pin() guard for rh (the handle
  /// parameter is kept for signature symmetry — sprays never restructure,
  /// so they retire nothing themselves). Upper-level steps land only on
  /// nodes seen unmarked at that level, stepping over frozen ones, so
  /// every descent starts from a node reachable one level down (I2, I3).
  bool try_pop_spray_pinned([[maybe_unused]] reclaim_handle& rh,
                            xoshiro256ss& rng, int start_height,
                            std::uint64_t max_jump, Key& key, Value& value) {
    node* cur = head_;
    const int top = start_height < kMaxHeight - 1 ? start_height : kMaxHeight - 1;
    for (int lvl = top; lvl >= 0; --lvl) {
      std::uint64_t jump = rng.bounded(max_jump + 1);
      while (jump-- > 0) {
        node* next = ptr_of(cur->tower()[lvl].load(std::memory_order_seq_cst));
        while (lvl > 0 && next != nullptr) {
          const std::uintptr_t next_next =
              next->tower()[lvl].load(std::memory_order_seq_cst);
          if (!is_marked(next_next)) break;
          next = ptr_of(next_next);
        }
        if (next == nullptr) break;
        cur = next;
      }
    }
    if (cur == head_) {
      cur = ptr_of(head_->tower()[0].load(std::memory_order_acquire));
    }
    while (cur != nullptr) {
      std::uintptr_t next = cur->tower()[0].load(std::memory_order_acquire);
      if (!is_marked(next)) {
        next = cur->tower()[0].fetch_or(1, std::memory_order_seq_cst);
        if (!is_marked(next)) {
          key = cur->key;
          value = cur->value;
          note(cur, -1);
          return true;
        }
      }
      cur = ptr_of(next);
    }
    return false;
  }

 private:
  static constexpr bool kEager = reclaim_type::kEager;

  /// Who reclaims a detached node whose inserter may still be linking
  /// its upper levels (see the header comment).
  enum : std::uint8_t { kLinking, kLinked, kHandedOff };

  struct node {
    Key key;
    Value value;
    int height;
    std::atomic<std::uint8_t> link_state;
    /// Reclamation link: striped all-allocations list (reclaim_deferred)
    /// or limbo list once retired (reclaim_ebr). Never a traversal edge.
    node* alloc_next;
    // Tower of tagged pointers (LSB = mark: claimed at level 0, frozen at
    // levels >= 1). Trailing-array idiom: make_node() allocates `height`
    // slots.
    std::atomic<std::uintptr_t> next_[1];

    std::atomic<std::uintptr_t>* tower() { return next_; }
  };

  static constexpr std::size_t kStripes = 64;

  static node* ptr_of(std::uintptr_t tagged) {
    return reinterpret_cast<node*>(tagged & ~static_cast<std::uintptr_t>(1));
  }
  static bool is_marked(std::uintptr_t tagged) { return (tagged & 1) != 0; }
  static std::uintptr_t tag_of(node* p) {
    return reinterpret_cast<std::uintptr_t>(p);
  }

  static int sample_height(std::uint64_t bits) {
    int height = 1;
    while ((bits & 1) != 0 && height < kMaxHeight) {
      ++height;
      bits >>= 1;
    }
    return height;
  }

  static node* make_node(int height, const Key& key, const Value& value) {
    const std::size_t bytes =
        sizeof(node) +
        static_cast<std::size_t>(height - 1) * sizeof(std::atomic<std::uintptr_t>);
    node* n = static_cast<node*>(::operator new(bytes));
    n->key = key;
    n->value = value;
    n->height = height;
    new (&n->link_state) std::atomic<std::uint8_t>(
        height > 1 ? std::uint8_t{kLinking} : std::uint8_t{kLinked});
    n->alloc_next = nullptr;
    for (int i = 0; i < height; ++i) {
      new (&n->tower()[i]) std::atomic<std::uintptr_t>(0);
    }
    return n;
  }

  std::size_t stripe_of(const node* n) const {
    return (reinterpret_cast<std::uintptr_t>(n) >> 6) & (kStripes - 1);
  }

  void note(const node* n, std::int64_t delta) {
    count_.add(stripe_of(n), delta);
  }

  /// Freeze a claimed node's upper levels, top down (I2). Idempotent and
  /// safe from any thread once level 0 is marked.
  static void mark_upper(node* n) {
    for (int lvl = n->height - 1; lvl >= 1; --lvl) {
      if (!is_marked(n->tower()[lvl].load(std::memory_order_seq_cst))) {
        n->tower()[lvl].fetch_or(1, std::memory_order_seq_cst);
      }
    }
  }

  /// End of an insert's upper-level linking. If the node was detached
  /// and handed off meanwhile, its reclamation falls to us: no link of
  /// ours can land any more, so sweep it out and retire it.
  void finish_linking([[maybe_unused]] reclaim_handle& rh, node* n) {
    if constexpr (kEager) {
      std::uint8_t expected = kLinking;
      if (n->height > 1 &&
          !n->link_state.compare_exchange_strong(expected, kLinked,
                                                 std::memory_order_seq_cst)) {
        sweep_upper(n->key, n->key);
        reclaim_type::on_unlinked(rh, n);
      }
    }
  }

  /// Reclaim a chain of claimed, frozen nodes that a successful CAS just
  /// detached from level 0: [first, end), linked by their frozen level-0
  /// pointers and key-sorted. Nodes whose inserter is still linking are
  /// handed to it; the rest are swept out of the upper levels in one
  /// pass over their key range and retired. No-op under
  /// reclaim_deferred.
  void retire_chain([[maybe_unused]] reclaim_handle& rh, node* first,
                    node* end) {
    if constexpr (kEager) {
      node* lo = nullptr;
      node* hi = nullptr;
      for (node* n = first; n != end;
           n = ptr_of(n->tower()[0].load(std::memory_order_relaxed))) {
        std::uint8_t expected = kLinking;
        if (n->link_state.compare_exchange_strong(
                expected, kHandedOff, std::memory_order_seq_cst)) {
          continue;
        }
        if (n->height > 1) {
          if (lo == nullptr) lo = n;
          hi = n;
        }
      }
      if (lo != nullptr) sweep_upper(lo->key, hi->key);
      node* n = first;
      while (n != end) {
        node* next = ptr_of(n->tower()[0].load(std::memory_order_relaxed));
        if (n->link_state.load(std::memory_order_relaxed) != kHandedOff) {
          reclaim_type::on_unlinked(rh, n);
        }
        n = next;
      }
    }
  }

  /// Unlink every frozen node with key in [lo, hi] from every upper
  /// level. Descends like a search for `lo`, then walks each level past
  /// `hi`, snipping frozen successors; a walker node that freezes under
  /// us forces a restart from the head (Harris). Afterwards every node in
  /// the range that was frozen before the call is unlinked everywhere.
  void sweep_upper(const Key& lo, const Key& hi) {
    while (!try_sweep_upper(lo, hi)) {
    }
  }

  bool try_sweep_upper(const Key& lo, const Key& hi) {
    node* pred = head_;  // last node seen unmarked with key < lo
    for (int lvl = kMaxHeight - 1; lvl >= 1; --lvl) {
      node* walker = pred;
      while (true) {
        std::uintptr_t cur_t = walker->tower()[lvl].load(std::memory_order_seq_cst);
        if (is_marked(cur_t)) return false;
        node* cur = ptr_of(cur_t);
        if (cur == nullptr) break;
        const std::uintptr_t cur_next =
            cur->tower()[lvl].load(std::memory_order_seq_cst);
        if (is_marked(cur_next)) {
          walker->tower()[lvl].compare_exchange_strong(
              cur_t, cur_next & ~std::uintptr_t{1}, std::memory_order_seq_cst,
              std::memory_order_relaxed);
          continue;  // re-read walker's pointer either way
        }
        if (compare_(hi, cur->key)) break;
        if (compare_(cur->key, lo)) pred = cur;
        walker = cur;
      }
    }
    return true;
  }

  /// Fraser search: preds[lvl] = last node seen unmarked with key < `key`,
  /// succs[lvl] = its successor (first key >= `key`, or null), for every
  /// level >= 1; frozen nodes met on the way are snipped, and claimed
  /// towers not yet frozen are frozen first, so upper levels do not rot
  /// into chains of dead towers. Level 0 is walked read-only from
  /// preds[1]; preds[0] may be dead (the caller validates). Restarts from
  /// the head when a predecessor freezes under it.
  void locate_preds(const Key& key, node** preds, node** succs) {
    while (!try_locate_preds(key, preds, succs)) {
    }
  }

  bool try_locate_preds(const Key& key, node** preds, node** succs) {
    node* pred = head_;
    for (int lvl = kMaxHeight - 1; lvl >= 1; --lvl) {
      node* cur = nullptr;
      while (true) {
        std::uintptr_t cur_t = pred->tower()[lvl].load(std::memory_order_seq_cst);
        if (is_marked(cur_t)) return false;
        cur = ptr_of(cur_t);
        if (cur == nullptr) break;
        std::uintptr_t cur_next =
            cur->tower()[lvl].load(std::memory_order_seq_cst);
        if (!is_marked(cur_next) &&
            is_marked(cur->tower()[0].load(std::memory_order_seq_cst))) {
          mark_upper(cur);
          cur_next = cur->tower()[lvl].load(std::memory_order_seq_cst);
        }
        if (is_marked(cur_next)) {
          pred->tower()[lvl].compare_exchange_strong(
              cur_t, cur_next & ~std::uintptr_t{1}, std::memory_order_seq_cst,
              std::memory_order_relaxed);
          continue;  // re-read pred's pointer either way
        }
        if (!compare_(cur->key, key)) break;
        pred = cur;
      }
      preds[lvl] = pred;
      succs[lvl] = cur;
    }
    node* cur = ptr_of(pred->tower()[0].load(std::memory_order_acquire));
    while (cur != nullptr && compare_(cur->key, key)) {
      pred = cur;
      cur = ptr_of(cur->tower()[0].load(std::memory_order_acquire));
    }
    preds[0] = pred;
    succs[0] = cur;
    return true;
  }

  /// Batched physical deletion: swing the head past the currently-marked
  /// prefix. The prefix chain is frozen (every node in it is marked, so
  /// its level-0 pointers are immutable), which means a CAS anchored on a
  /// fresh read of head->next[0] can only ever unlink dead nodes. Each
  /// tower is frozen before the swing (I3). The cut retries with
  /// re-reads a few times: under front churn (inserts of new minima,
  /// concurrent claims) a one-shot CAS nearly always loses and the prefix
  /// would grow without bound.
  void collect_prefix(reclaim_handle& rh) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      std::uintptr_t first = head_->tower()[0].load(std::memory_order_acquire);
      node* cur = ptr_of(first);
      std::size_t walked = 0;
      while (cur != nullptr && walked < 8 * kPrefixBound) {
        const std::uintptr_t next =
            cur->tower()[0].load(std::memory_order_acquire);
        if (!is_marked(next)) break;
        mark_upper(cur);
        cur = ptr_of(next);
        ++walked;
      }
      if (walked == 0) return;
      if (head_->tower()[0].compare_exchange_strong(
              first, tag_of(cur), std::memory_order_release,
              std::memory_order_relaxed)) {
        // The head swing detached [first, cur) — ours to reclaim.
        retire_chain(rh, ptr_of(first), cur);
        return;
      }
    }
  }

  Compare compare_{};
  node* head_;
  striped_counter<kStripes> count_;
  striped_counter<kStripes> created_;
  reclaim_type reclaim_;
};

}  // namespace detail
}  // namespace pcq

// Pass-through wrappers that put the traced run's spans around calls
// into the library's layers, without touching the library.
//
// traced_pq<Queue> models the pq handle concept of core/pq_handle.hpp
// (six ops plus the timed extension) by forwarding every call to the
// wrapped queue, so parallel_sssp, the executor and pq_dispatcher take
// it unchanged. Each op is an aggregated scope on the handle's slot
// (slot = the thread id passed to get_handle). Optionally each handle's
// lifetime is a recorded span: the graph and exec layers create one
// handle per worker at the top of the worker loop and drop it at the
// end, so the handle's lifetime is that layer's worker span and the
// queue ops nest inside it.
//
// traced_dispatcher<Dispatcher> times dispatch (a recorded span per
// request, on the arrival thread's slot) and fetch (an aggregated op on
// the worker's slot) inside run_service_realtime.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/pq_handle.hpp"
#include "service/workload.hpp"
#include "trace.hpp"

namespace pcqbench {

/// Handles ever created by any traced_pq. The untraced runs must leave
/// it at zero (checked by the self-test).
inline std::atomic<std::uint64_t>& traced_handles_created() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

template <typename Queue>
class traced_pq {
 public:
  using entry = typename Queue::entry;
  using key_type = typename entry::first_type;
  using value_type = typename entry::second_type;

  /// `worker_span` names the span each handle's lifetime records, or
  /// nullptr for handles that do not live exactly as long as a worker.
  traced_pq(Queue& inner, tracer& t, const char* worker_span = nullptr)
      : inner_(inner), tracer_(t), worker_span_(worker_span) {}

  class handle {
   public:
    handle(handle&& o) noexcept
        : h_(std::move(o.h_)),
          q_(o.q_),
          log_(o.log_),
          live_(std::exchange(o.live_, false)) {}
    handle& operator=(handle&&) = delete;
    handle(const handle&) = delete;
    handle& operator=(const handle&) = delete;

    ~handle() {
      if (!live_) return;
      if (log_->idle_since >= 0) {
        log_->idle_ns += now_ns() - log_->idle_since;
        log_->idle_since = -1;
      }
      if (q_->worker_span_ != nullptr) log_->exit_span(q_->worker_span_);
    }

    void push(const key_type& k, const value_type& v) {
      log_->enter();
      h_.push(k, v);
      log_->exit_op(op::push, true);
    }

    void push_batch(const entry* items, std::size_t n) {
      log_->enter();
      h_.push_batch(items, n);
      log_->exit_op(op::push, true);
    }

    bool try_pop(key_type& k, value_type& v) {
      const std::int64_t start = begin_pop();
      const bool ok = h_.try_pop(k, v);
      end_pop(start, ok);
      return ok;
    }

    std::size_t try_pop_batch(entry* out, std::size_t max_n) {
      const std::int64_t start = begin_pop();
      const std::size_t got = h_.try_pop_batch(out, max_n);
      end_pop(start, got > 0);
      return got;
    }

    std::uint64_t push_timed(const key_type& k, const value_type& v) {
      log_->enter();
      const std::uint64_t ts = h_.push_timed(k, v);
      log_->exit_op(op::push, true);
      return ts;
    }

    bool try_pop_timed(key_type& k, value_type& v, std::uint64_t& ts) {
      const std::int64_t start = begin_pop();
      const bool ok = h_.try_pop_timed(k, v, ts);
      end_pop(start, ok);
      return ok;
    }

   private:
    friend class traced_pq;
    handle(traced_pq* q, std::size_t thread_id)
        : h_(q->inner_.get_handle(thread_id)),
          q_(q),
          log_(&q->tracer_.slot(thread_id)) {
      traced_handles_created().fetch_add(1, std::memory_order_relaxed);
      if (q_->worker_span_ != nullptr) log_->enter();
    }

    std::int64_t begin_pop() {
      log_->enter();
      return log_->open_start();
    }

    // Idle time runs from the first failed pop of a streak to the start
    // of the next successful one. Every 1024th pop samples the queue's
    // live size, the basis of the mean slot depth.
    void end_pop(std::int64_t start, bool ok) {
      log_->exit_op(op::pop, ok);
      if (!ok) {
        if (log_->idle_since < 0) log_->idle_since = start;
      } else if (log_->idle_since >= 0) {
        log_->idle_ns += start - log_->idle_since;
        log_->idle_since = -1;
      }
      if (log_->ops[static_cast<std::size_t>(op::pop)].calls % 1024 == 0) {
        log_->depth_sum += q_->inner_.size();
        ++log_->depth_samples;
      }
    }

    pcq::pq_handle_t<Queue> h_;
    traced_pq* q_;
    slot_log* log_;
    bool live_ = true;
  };

  handle get_handle(std::size_t thread_id) { return handle(this, thread_id); }
  std::size_t size() const { return inner_.size(); }

 private:
  Queue& inner_;
  tracer& tracer_;
  const char* worker_span_;
};

template <typename Dispatcher>
class traced_dispatcher {
 public:
  /// Slots [0, workers) are the workers, slot `workers` the arrival
  /// thread. `requests` sizes the per-request timestamp tables.
  traced_dispatcher(Dispatcher& inner, tracer& t, std::size_t workers,
                    std::size_t requests)
      : inner_(inner),
        tracer_(t),
        arrival_slot_(workers),
        dispatch_start(requests, 0),
        dispatch_span(requests, kNone),
        fetch_end(requests, 0) {}

  void dispatch(const pcq::service::request& r) {
    slot_log& log = tracer_.slot(arrival_slot_);
    dispatch_span[r.seq] = log.enter();
    dispatch_start[r.seq] = log.open_start();
    inner_.dispatch(r);
    log.exit_span("service.dispatch", r.seq);
  }

  bool fetch(std::size_t worker, std::uint64_t& seq) {
    slot_log& log = tracer_.slot(worker);
    log.enter();
    const bool ok = inner_.fetch(worker, seq);
    log.exit_op(op::fetch, ok);
    if (ok) fetch_end[seq] = log.last_end();
    return ok;
  }

  void seal() { inner_.seal(); }

 private:
  Dispatcher& inner_;
  tracer& tracer_;
  std::size_t arrival_slot_;

 public:
  // Per request, indexed by seq; read after the run has joined.
  std::vector<std::int64_t> dispatch_start;
  std::vector<std::uint64_t> dispatch_span;
  std::vector<std::int64_t> fetch_end;
};

}  // namespace pcqbench

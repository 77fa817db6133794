// The worker-pool server: runs an open-loop trace through a dispatcher
// (service/dispatch.hpp) under a fault plan and degradation policy
// (service/fault.hpp; both default to none) and records per-request
// wait / service / sojourn times.
//
// Two runners, one semantics:
//
//   run_service_virtual — single-threaded discrete-event simulation in
//     VIRTUAL time. Deterministic by construction (event order is a pure
//     function of the trace, the plan and the dispatcher's seeded
//     decisions), so tests pin EXACT schedules: EDF through a strict
//     queue is the earliest-deadline schedule, FCFS is arrival order, a
//     MultiQueue with d = #queues degenerates to strict and must match
//     EDF trace-for-trace, and a fault run is byte-stable for a fixed
//     (config, seed).
//
//   run_service_realtime — the same semantics with real threads against
//     the wall clock. One arrival thread paces (and sheds) the trace
//     open-loop, worker threads fetch and spin out each request's demand
//     while honoring their roles, and a SUPERVISOR thread runs retry
//     timers, failover scans, dead-worker reclaim and the watchdog. Each
//     worker logs into its own shard, so logging needs no sharing. This
//     is the measured path of bench_service and the TSan target
//     (dispatch/fetch race by design).
//
// Virtual-time event order (the determinism contract the tests pin):
//   1. Events run in time order. At equal times: finishes (completion or
//      crash abandon) < idle-worker crashes < failovers < retry wakes <
//      arrivals < stall-end wakes, ties by lowest worker index (retry
//      wakes: first scheduled). A freed worker thus sees a simultaneous
//      arrival in its fetch round.
//   2. After every event, idle eligible workers (not dead, not inside a
//      stall window) fetch in worker-index order, recovery queue first,
//      until a fetch fails. A request fetched at t starts at t
//      (wait = t − arrival) and finishes at its role's closed-form time.
//   3. The dispatcher is sealed right after the last arrival, flushing
//      dispatch-side buffering (k-LSM local blocks) that could otherwise
//      strand the tail of the trace invisibly.
//
// Re-dispatches (crash retry, stall failover, reclaim) travel through a
// runner-owned RECOVERY queue that workers drain before fetch(), never
// through dispatch(): dispatch() is the arrival thread's alone and may
// already be sealed when a late retry fires, and one recovery path
// makes the benches compare policies, not four retry paths.
//
// THE conservation invariant (bench_fault exits nonzero on violation):
//
//   completed + shed + lost == dispatched (== trace size)
//
// Every request is served (possibly past its deadline, counted in
// `missed`), shed at admission, or lost to a crash with retries
// exhausted, exactly once: a per-request settled table drops failover
// duplicates, so they never double-count.
//
// Termination is by that count, never by a failed fetch: emptiness is
// relaxed all the way down (core/pq_handle.hpp), so "looked empty"
// proves nothing while requests remain. A nonconforming dispatcher that
// loses a request would leave the count short forever, so both runners
// fail closed instead of hanging: the virtual runner returns when no
// event is runnable, and the realtime supervisor is a stall WATCHDOG —
// no fetch, completion, drop or settlement anywhere for
// stall_timeout_seconds while requests are unaccounted → stop every
// thread and return short with `stalled` set. Callers then fail on the
// count in bounded time instead of wedging CI.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "service/fault.hpp"
#include "service/workload.hpp"
#include "util/spinlock.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace pcq {
namespace service {

/// One completed request, as its worker saw it.
struct request_record {
  std::uint64_t seq = 0;
  double arrival = 0.0;
  double start = 0.0;       ///< fetch instant: wait = start − arrival
  double completion = 0.0;  ///< sojourn = completion − arrival
  double service = 0.0;     ///< the demanded service time
};

struct service_result {
  std::uint64_t completed = 0;
  /// Requests presented to the dispatch layer (= trace size); the
  /// runners keep completed + shed + lost == dispatched.
  std::uint64_t dispatched = 0;
  std::uint64_t shed = 0;    ///< dropped by admission control at dispatch
  std::uint64_t lost = 0;    ///< crash-abandoned with retries exhausted
  std::uint64_t missed = 0;  ///< completions that finished past deadline
  std::uint64_t retries = 0;    ///< crash-recovery re-dispatches issued
  std::uint64_t failovers = 0;  ///< stalled in-flight requests duplicated
  /// Requests drained from a DEAD worker's private backlog (dispatcher
  /// reclaim()) and re-routed through recovery. Only dispatchers with
  /// per-worker queues (po2) ever strand work this way; the rest
  /// report 0.
  std::uint64_t reclaimed = 0;
  /// Realtime runner only: the stall watchdog fired — nothing moved
  /// with requests still unaccounted for, and the run stopped early.
  bool stalled = false;
  double seconds = 0.0;  ///< makespan: last completion (virtual) or wall
  std::vector<std::vector<request_record>> worker_logs;  ///< shard per worker
  /// Completions per worker — the realtime runner's progress counters
  /// surfaced (each worker owns its log shard, so the count is exact).
  /// The fault bench asserts a crashed worker completed nothing after
  /// its crash tick against these plus the shard timestamps.
  std::vector<std::uint64_t> worker_completions;
  /// Virtual runner only: seq of every request in completion order (the
  /// deterministic object the exact-order tests assert on).
  std::vector<std::uint64_t> completion_order;

  /// Deadline-miss fraction among COMPLETED requests (shed/lost work
  /// never completes, so it is accounted by its own fractions below).
  double miss_frac() const {
    return completed > 0
               ? static_cast<double>(missed) / static_cast<double>(completed)
               : 0.0;
  }
  double shed_frac() const {
    return dispatched > 0
               ? static_cast<double>(shed) / static_cast<double>(dispatched)
               : 0.0;
  }
  double lost_frac() const {
    return dispatched > 0
               ? static_cast<double>(lost) / static_cast<double>(dispatched)
               : 0.0;
  }
};

/// Merges the per-worker shards into exact mergeable summaries — the
/// sorted-merge path of util/stats.hpp's latency_summary, so these equal
/// the percentiles of the concatenated sample sets bit-for-bit.
struct latency_report {
  latency_summary sojourn;
  latency_summary wait;
  latency_summary service;
};

inline latency_report summarize(const service_result& result) {
  latency_report report;
  for (const auto& shard : result.worker_logs) {
    latency_summary sojourn, wait, service;
    for (const request_record& r : shard) {
      sojourn.add(r.completion - r.arrival);
      wait.add(r.start - r.arrival);
      service.add(r.service);
    }
    report.sojourn.merge(sojourn);
    report.wait.merge(wait);
    report.service.merge(service);
  }
  return report;
}

/// Optional dispatcher members (service/dispatch.hpp), found with the
/// detection idiom core/pq_handle.hpp uses for the timed API.
template <typename Dispatcher, typename = void>
struct has_reclaim : std::false_type {};
template <typename Dispatcher>
struct has_reclaim<Dispatcher,
                   std::void_t<decltype(std::declval<Dispatcher&>().reclaim(
                       std::size_t{},
                       std::declval<std::vector<std::uint64_t>&>()))>>
    : std::true_type {};

template <typename Dispatcher, typename = void>
struct has_backlog : std::false_type {};
template <typename Dispatcher>
struct has_backlog<
    Dispatcher,
    std::void_t<decltype(std::declval<const Dispatcher&>().backlog())>>
    : std::true_type {};

namespace detail {

/// Admission control is armed only with a service estimate to shed
/// against, and then reads the dispatcher's backlog() as its load
/// signal; a dispatcher without one cannot be shed against.
template <typename Dispatcher>
bool admission_armed(const degrade_config& degrade) {
  const bool armed = degrade.admission_control && degrade.est_service > 0.0;
  if (armed && !has_backlog<Dispatcher>::value) {
    throw std::invalid_argument(
        "admission control needs a dispatcher with backlog()");
  }
  return armed;
}

}  // namespace detail

/// Deterministic single-threaded discrete-event run in virtual time —
/// the byte-stable object the service and fault tests pin; see the
/// header comment for the event order. The trace must be sorted by
/// arrival (make_open_loop_trace's output is; hand-built test traces
/// are by construction).
template <typename Dispatcher>
service_result run_service_virtual(const std::vector<request>& trace,
                                   Dispatcher& dispatcher,
                                   std::size_t workers,
                                   const fault_plan& plan = {},
                                   const degrade_config& degrade = {}) {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
  const bool admission = detail::admission_armed<Dispatcher>(degrade);

  service_result result;
  result.worker_logs.resize(workers);
  result.worker_completions.assign(workers, 0);
  result.dispatched = trace.size();
  result.completion_order.reserve(trace.size());

  std::vector<worker_fault> faults = plan.workers;
  faults.resize(workers);  // missing entries default to ok

  std::vector<std::uint64_t> running(workers, kNone);
  std::vector<double> started(workers, 0.0);
  std::vector<double> finish(workers, kNever);    // completion or abandon
  std::vector<bool> abandons(workers, false);     // finish is an abandon
  std::vector<double> failover_at(workers, kNever);
  std::vector<bool> dead(workers, false);
  std::vector<bool> crash_pending(workers, false);  // death event not yet run
  for (std::size_t w = 0; w < workers; ++w) {
    crash_pending[w] = faults[w].kind == fault_kind::crash;
  }

  // Per-request settled flag: set exactly once, when the request is
  // completed, lost or shed; a duplicate copy (failover) that finds it
  // set is dropped without being counted.
  std::vector<bool> settled(trace.size(), false);
  std::vector<std::uint8_t> attempts;  // sized on the first abandon
  std::deque<std::uint64_t> recovery;                    // ready now
  std::vector<std::pair<double, std::uint64_t>> timers;  // retry wakes

  std::size_t next_arrival = 0;
  double now = 0.0;
  std::uint64_t accounted = 0;  // completed + shed + lost

  const auto eligible = [&](std::size_t w) {
    const worker_fault& f = faults[w];
    if (dead[w]) return false;
    if (f.kind == fault_kind::crash && now >= f.crash_time) return false;
    if (f.kind == fault_kind::stall && now >= f.stall_start &&
        now < f.stall_end) {
      return false;
    }
    return true;
  };

  // Closed-form finish time for worker w starting duration-d work at t,
  // plus the abandon/failover schedule the role implies.
  const auto schedule = [&](std::size_t w, double t, double dur) {
    const worker_fault& f = faults[w];
    double end = t + dur * (f.kind == fault_kind::slow ? f.slow_factor : 1.0);
    abandons[w] = false;
    failover_at[w] = kNever;
    if (f.kind == fault_kind::stall && t < f.stall_start &&
        end > f.stall_start) {
      end += f.stall_end - f.stall_start;  // suspended across the window
      const double t_f = f.stall_start + degrade.failover_timeout;
      if (t_f < f.stall_end) failover_at[w] = t_f;
    }
    if (f.kind == fault_kind::crash && end > f.crash_time) {
      end = f.crash_time;
      abandons[w] = true;
    }
    finish[w] = end;
  };

  const auto record_completion = [&](std::size_t w) {
    const std::uint64_t seq = running[w];
    if (!settled[seq]) {
      const request& r = trace[seq];
      request_record rec;
      rec.seq = seq;
      rec.arrival = r.arrival;
      rec.start = started[w];
      rec.completion = now;
      rec.service = r.service;
      result.worker_logs[w].push_back(rec);
      result.completion_order.push_back(seq);
      ++result.worker_completions[w];
      ++result.completed;
      if (now > r.deadline) ++result.missed;
      settled[seq] = true;
      ++accounted;
    }
    // else: a failover duplicate finished second — dropped, uncounted.
    running[w] = kNone;
    finish[w] = kNever;
    failover_at[w] = kNever;
  };

  // Drain the dead worker's private backlog (po2 FIFO; a dispatcher
  // without reclaim() strands nothing) into recovery so live workers
  // can serve the orphans — the health-check rerouting a real load
  // balancer does.
  std::vector<std::uint64_t> reclaim_buf;
  const auto reclaim_worker = [&](std::size_t w) {
    if constexpr (has_reclaim<Dispatcher>::value) {
      reclaim_buf.clear();
      dispatcher.reclaim(w, reclaim_buf);
      for (std::uint64_t seq : reclaim_buf) {
        if (!settled[seq]) {
          recovery.push_back(seq);
          ++result.reclaimed;
        }
      }
    }
  };

  const auto abandon_inflight = [&](std::size_t w) {
    const std::uint64_t seq = running[w];
    dead[w] = true;
    crash_pending[w] = false;
    running[w] = kNone;
    finish[w] = kNever;
    failover_at[w] = kNever;
    reclaim_worker(w);
    if (settled[seq]) return;  // duplicate; already done
    if (attempts.empty()) attempts.assign(trace.size(), 0);
    if (attempts[seq] < degrade.max_retries) {
      ++attempts[seq];
      const double wake = now + degrade.retry_backoff *
                                    detail::backoff_factor(attempts[seq]);
      timers.emplace_back(wake, seq);
      ++result.retries;
    } else {
      settled[seq] = true;
      ++result.lost;
      ++accounted;
    }
  };

  const auto start_idle_workers = [&] {
    for (std::size_t w = 0; w < workers; ++w) {
      if (running[w] != kNone || !eligible(w)) continue;
      while (true) {
        std::uint64_t seq = kNone;
        if (!recovery.empty()) {
          seq = recovery.front();
          recovery.pop_front();
        } else if (!dispatcher.fetch(w, seq)) {
          break;
        }
        if (settled[seq]) continue;  // stale duplicate
        running[w] = seq;
        started[w] = now;
        schedule(w, now, trace[seq].service);
        break;
      }
    }
  };

  while (accounted < trace.size()) {
    // Candidate events, ordered (time, class, index): class 0 finish
    // (completion or abandon), 1 idle-worker crash (death with nothing
    // in flight — still an event, because its private backlog must be
    // reclaimed), 2 failover, 3 retry wake, 4 arrival, 5 stall-end wake
    // (no-op that re-triggers fetches).
    double best_t = kNever;
    int best_class = 6;
    std::size_t best_w = workers;
    std::size_t best_timer = timers.size();

    for (std::size_t w = 0; w < workers; ++w) {
      if (running[w] != kNone && finish[w] < best_t) {
        best_t = finish[w];
        best_class = 0;
        best_w = w;
      }
    }
    for (std::size_t w = 0; w < workers; ++w) {
      if (crash_pending[w] && running[w] == kNone &&
          faults[w].crash_time < best_t) {
        best_t = faults[w].crash_time;
        best_class = 1;
        best_w = w;
      }
    }
    for (std::size_t w = 0; w < workers; ++w) {
      if (running[w] != kNone && failover_at[w] < best_t) {
        best_t = failover_at[w];
        best_class = 2;
        best_w = w;
      }
    }
    for (std::size_t i = 0; i < timers.size(); ++i) {
      if (timers[i].first < best_t) {
        best_t = timers[i].first;
        best_class = 3;
        best_timer = i;
      }
    }
    if (next_arrival < trace.size() &&
        trace[next_arrival].arrival < best_t) {
      best_t = trace[next_arrival].arrival;
      best_class = 4;
    }
    for (std::size_t w = 0; w < workers; ++w) {
      const worker_fault& f = faults[w];
      if (f.kind == fault_kind::stall && !dead[w] && running[w] == kNone &&
          f.stall_end > now && f.stall_end < best_t) {
        best_t = f.stall_end;
        best_class = 5;
        best_w = w;
      }
    }

    if (best_class == 6) break;  // nothing runnable: fail closed, short
    now = best_t;

    switch (best_class) {
      case 0:
        if (abandons[best_w]) {
          abandon_inflight(best_w);
        } else {
          record_completion(best_w);
        }
        break;
      case 1:
        dead[best_w] = true;
        crash_pending[best_w] = false;
        reclaim_worker(best_w);
        break;
      case 2: {
        // Failover: duplicate the frozen worker's in-flight request into
        // the recovery queue. The original stays scheduled; whichever
        // copy finishes first settles the request.
        recovery.push_back(running[best_w]);
        failover_at[best_w] = kNever;
        ++result.failovers;
        break;
      }
      case 3: {
        recovery.push_back(timers[best_timer].second);
        timers.erase(timers.begin() +
                     static_cast<std::ptrdiff_t>(best_timer));
        break;
      }
      case 4: {
        const request& r = trace[next_arrival];
        bool sheds = false;
        if constexpr (has_backlog<Dispatcher>::value) {
          sheds = admission &&
                  detail::admission_sheds(
                      r, now, dispatcher.backlog() + recovery.size(),
                      workers, degrade);
        }
        if (sheds) {
          settled[r.seq] = true;
          ++result.shed;
          ++accounted;
        } else {
          dispatcher.dispatch(r);
          // A dead worker's (empty, hence attractive) po2 FIFO can keep
          // collecting arrivals; re-route them immediately.
          for (std::size_t w = 0; w < workers; ++w) {
            if (dead[w]) reclaim_worker(w);
          }
        }
        ++next_arrival;
        if (next_arrival == trace.size()) dispatcher.seal();
        break;
      }
      default:
        break;  // stall-end wake: fetches below do the work
    }
    start_idle_workers();
  }
  result.seconds = now;
  return result;
}

/// Real-threads run against the wall clock: the virtual runner's
/// semantics with one arrival thread, `workers` worker threads and a
/// supervisor (see the header comment). Trace times are wall seconds —
/// generate traces whose span fits the time you are willing to measure.
///
/// `stall_timeout_seconds` arms the watchdog. Progress counts fetches
/// and drops as well as settlements, so one long in-service request
/// cannot trip it; pick it above the largest single service demand and
/// above the longest interval in which EVERY surviving worker can be
/// frozen at once, or a healthy run is failed closed spuriously.
template <typename Dispatcher>
service_result run_service_realtime(const std::vector<request>& trace,
                                    Dispatcher& dispatcher,
                                    std::size_t workers,
                                    const fault_plan& plan = {},
                                    const degrade_config& degrade = {},
                                    double stall_timeout_seconds = 5.0) {
  constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
  const bool admission = detail::admission_armed<Dispatcher>(degrade);

  service_result result;
  result.worker_logs.resize(workers);
  result.worker_completions.assign(workers, 0);
  result.dispatched = trace.size();

  std::vector<worker_fault> faults = plan.workers;
  faults.resize(workers);

  const std::uint64_t total = trace.size();
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> lost{0};
  std::atomic<std::uint64_t> missed{0};
  std::atomic<std::uint64_t> started{0};  // successful fetches
  std::atomic<std::uint64_t> dropped{0};  // settled duplicates discarded
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> failovers{0};
  std::atomic<std::uint64_t> reclaimed{0};
  std::atomic<bool> done{false};
  std::atomic<bool> stalled{false};

  std::vector<std::atomic<bool>> settled(total);  // as in the virtual runner
  for (auto& s : settled) s.store(false, std::memory_order_relaxed);

  // In-flight table for the supervisor's failover scan. seq is the
  // gate: it is stored AFTER since_us, so a reader that sees a live seq
  // sees a start time no newer than the fetch (a stale-but-older start
  // can only make failover fire later within one scan period — benign).
  struct alignas(64) inflight_slot {
    std::atomic<std::uint64_t> seq{
        std::numeric_limits<std::uint64_t>::max()};
    std::atomic<std::uint64_t> since_us{0};
  };
  std::vector<inflight_slot> inflight(workers);

  spinlock recovery_lock;
  std::deque<std::uint64_t> recovery;  // ready-to-refetch duplicates
  spinlock abandoned_lock;
  std::deque<std::uint64_t> abandoned;  // crash-abandoned, awaiting retry

  wall_timer clock;

  const auto in_stall = [&](std::size_t w, double t) {
    const worker_fault& f = faults[w];
    return f.kind == fault_kind::stall && t >= f.stall_start &&
           t < f.stall_end;
  };

  std::thread arrivals([&] {
    for (const request& r : trace) {
      while (true) {
        const double gap = r.arrival - clock.elapsed_seconds();
        if (gap <= 0.0) break;
        if (gap > 100e-6) {
          std::this_thread::yield();
        } else {
          cpu_relax();
        }
      }
      if constexpr (has_backlog<Dispatcher>::value) {
        if (admission) {
          recovery_lock.lock();
          const std::size_t in_recovery = recovery.size();
          recovery_lock.unlock();
          if (detail::admission_sheds(r, clock.elapsed_seconds(),
                                      dispatcher.backlog() + in_recovery,
                                      workers, degrade)) {
            settled[r.seq].store(true, std::memory_order_release);
            shed.fetch_add(1, std::memory_order_release);
            continue;
          }
        }
      }
      dispatcher.dispatch(r);
    }
    dispatcher.seal();
  });

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      const worker_fault& f = faults[w];
      auto& log = result.worker_logs[w];
      backoff bo;
      while (!done.load(std::memory_order_acquire)) {
        double t = clock.elapsed_seconds();
        if (f.kind == fault_kind::crash && t >= f.crash_time) break;
        if (in_stall(w, t)) {  // frozen: no fetches, no progress
          std::this_thread::yield();
          continue;
        }
        std::uint64_t seq = kNone;
        recovery_lock.lock();
        if (!recovery.empty()) {
          seq = recovery.front();
          recovery.pop_front();
        }
        recovery_lock.unlock();
        if (seq == kNone && !dispatcher.fetch(w, seq)) {
          bo.pause();
          continue;
        }
        bo.reset();
        if (settled[seq].load(std::memory_order_acquire)) {
          dropped.fetch_add(1, std::memory_order_relaxed);
          continue;  // stale duplicate (failover loser / late retry)
        }
        started.fetch_add(1, std::memory_order_relaxed);
        const request& r = trace[seq];
        const double start = clock.elapsed_seconds();
        inflight[w].since_us.store(
            static_cast<std::uint64_t>(start * 1e6),
            std::memory_order_relaxed);
        inflight[w].seq.store(seq, std::memory_order_release);

        // Spin out the demand, honoring the role: slow inflates it,
        // stall windows freeze progress, crash abandons mid-service.
        const double dur =
            r.service * (f.kind == fault_kind::slow ? f.slow_factor : 1.0);
        double progressed = 0.0;
        double last = start;
        bool abandoned_here = false;
        while (progressed < dur) {
          t = clock.elapsed_seconds();
          if (f.kind == fault_kind::crash && t >= f.crash_time) {
            abandoned_here = true;
            break;
          }
          if (!in_stall(w, t)) progressed += t - last;
          last = t;
          cpu_relax();
        }
        inflight[w].seq.store(kNone, std::memory_order_release);
        if (abandoned_here) {
          abandoned_lock.lock();
          abandoned.push_back(seq);
          abandoned_lock.unlock();
          break;  // the worker is dead from here
        }
        bool expect = false;
        if (settled[seq].compare_exchange_strong(
                expect, true, std::memory_order_acq_rel)) {
          request_record rec;
          rec.seq = seq;
          rec.arrival = r.arrival;
          rec.start = start;
          rec.completion = clock.elapsed_seconds();
          rec.service = r.service;
          log.push_back(rec);
          if (rec.completion > r.deadline) {
            missed.fetch_add(1, std::memory_order_relaxed);
          }
          completed.fetch_add(1, std::memory_order_release);
        } else {
          dropped.fetch_add(1, std::memory_order_relaxed);  // lost the race
        }
      }
    });
  }

  // Supervisor: retry timers, failover scans, termination, watchdog.
  std::thread supervisor([&] {
    std::vector<std::uint8_t> attempts;  // sized on the first abandon
    std::vector<std::pair<double, std::uint64_t>> timers;
    std::vector<std::uint64_t> last_failover(workers, kNone);
    std::vector<std::uint64_t> reclaim_buf;
    std::uint64_t seen_progress = 0;
    double idle_since = clock.elapsed_seconds();
    while (!done.load(std::memory_order_acquire)) {
      const double t = clock.elapsed_seconds();

      abandoned_lock.lock();
      std::deque<std::uint64_t> fresh;
      fresh.swap(abandoned);
      abandoned_lock.unlock();
      for (const std::uint64_t seq : fresh) {
        if (settled[seq].load(std::memory_order_acquire)) continue;
        if (attempts.empty()) attempts.assign(total, 0);
        if (attempts[seq] < degrade.max_retries) {
          ++attempts[seq];
          timers.emplace_back(t + degrade.retry_backoff *
                                      detail::backoff_factor(attempts[seq]),
                              seq);
        } else {
          bool expect = false;
          if (settled[seq].compare_exchange_strong(
                  expect, true, std::memory_order_acq_rel)) {
            lost.fetch_add(1, std::memory_order_release);
          }
        }
      }
      for (std::size_t i = 0; i < timers.size();) {
        if (timers[i].first <= t) {
          recovery_lock.lock();
          recovery.push_back(timers[i].second);
          recovery_lock.unlock();
          retries.fetch_add(1, std::memory_order_relaxed);
          timers.erase(timers.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }

      // Reclaim dead workers' stranded backlogs (po2 FIFOs). Every tick,
      // because the dead worker's empty FIFO keeps attracting arrivals.
      // The dead worker may still be inside a fetch(w) it began before
      // its crash tick; reclaim(w) must be safe against that.
      if constexpr (has_reclaim<Dispatcher>::value) {
        for (std::size_t w = 0; w < workers; ++w) {
          const worker_fault& f = faults[w];
          if (f.kind != fault_kind::crash || t < f.crash_time) continue;
          reclaim_buf.clear();
          if (dispatcher.reclaim(w, reclaim_buf) == 0) continue;
          recovery_lock.lock();
          for (const std::uint64_t seq : reclaim_buf) recovery.push_back(seq);
          recovery_lock.unlock();
          reclaimed.fetch_add(reclaim_buf.size(), std::memory_order_relaxed);
        }
      }

      for (std::size_t w = 0; w < workers; ++w) {
        if (!in_stall(w, t)) continue;
        const std::uint64_t seq =
            inflight[w].seq.load(std::memory_order_acquire);
        if (seq == kNone || last_failover[w] == seq) continue;
        const double since =
            static_cast<double>(
                inflight[w].since_us.load(std::memory_order_relaxed)) /
            1e6;
        const double frozen_since = std::max(faults[w].stall_start, since);
        if (t - frozen_since < degrade.failover_timeout) continue;
        if (settled[seq].load(std::memory_order_acquire)) continue;
        last_failover[w] = seq;
        recovery_lock.lock();
        recovery.push_back(seq);
        recovery_lock.unlock();
        failovers.fetch_add(1, std::memory_order_relaxed);
      }

      const std::uint64_t accounted =
          completed.load(std::memory_order_acquire) +
          shed.load(std::memory_order_acquire) +
          lost.load(std::memory_order_acquire);
      if (accounted >= total) {
        done.store(true, std::memory_order_release);
        break;
      }
      const std::uint64_t progress =
          accounted + started.load(std::memory_order_relaxed) +
          dropped.load(std::memory_order_relaxed);
      if (progress != seen_progress) {
        seen_progress = progress;
        idle_since = t;
      } else if (t - idle_since > stall_timeout_seconds) {
        stalled.store(true, std::memory_order_release);
        done.store(true, std::memory_order_release);
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  arrivals.join();
  supervisor.join();
  for (auto& t : pool) t.join();
  result.completed = completed.load();
  result.shed = shed.load();
  result.lost = lost.load();
  result.missed = missed.load();
  result.retries = retries.load();
  result.failovers = failovers.load();
  result.reclaimed = reclaimed.load();
  result.stalled = stalled.load();
  result.seconds = clock.elapsed_seconds();
  for (std::size_t w = 0; w < workers; ++w) {
    result.worker_completions[w] = result.worker_logs[w].size();
  }
  return result;
}

}  // namespace service
}  // namespace pcq

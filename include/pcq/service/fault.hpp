// Fault injection + graceful degradation for the service layer.
//
// The rank-error bound is a PROXY for what a user pays; the cost becomes
// real when the world misbehaves — workers slow down, freeze, or die,
// and arrivals burst past the provisioned load. This header makes that
// regime first-class: a deterministic, seeded FAULT PLAN injected into
// both service runners, plus the degradation policies a production
// scheduler needs to fail gracefully instead of falling over. The
// robustness question it answers (bench_fault): does queue-level choice
// (MultiQueue-EDF) keep its latency/deadline advantage over strict EDF,
// FCFS, and scheduler-level po2 when the fault intensity rises?
//
// Fault model — one role per worker, windows in trace seconds:
//
//   ok            — healthy.
//   slow(factor)  — every service demand it executes is multiplied by
//                   `slow_factor` (thermal throttling, a noisy
//                   neighbor, a degraded disk).
//   stall[s0,s1)  — transiently frozen: fetches are suppressed and an
//                   in-flight request makes NO progress during the
//                   window (GC pause, VM migration). Service resumes at
//                   s1; the completion is pushed out by the overlap.
//   crash(t)      — permanently dead from t on: never fetches again,
//                   and an in-flight request is ABANDONED at t.
//
// Arrival bursts are a trace perturbation, not a worker role:
// `apply_bursts` compresses inter-arrival gaps inside seeded windows by
// a rate factor (flash crowd), preserving request count, arrival order,
// and each request's arrival-relative deadline slack — so every
// dispatcher still sees the identical (perturbed) trace.
//
// Degradation policies (degrade_config):
//
//   admission control — at dispatch time, a request predicted to miss
//     its deadline is SHED instead of queued: predicted completion =
//     now + backlog/workers · est_service + service. Shedding at the
//     door converts a guaranteed deadline miss (plus the queueing it
//     inflicts on everyone behind it) into an explicit, counted drop.
//   retry-with-backoff — a request abandoned by a crashed worker is
//     re-dispatched after retry_backoff · 2^(attempt-1) seconds, at
//     most max_retries times; exhaustion marks it LOST. Retries bypass
//     admission control (the request was already admitted once).
//   stall failover — the watchdog's graceful sibling: when a stalled
//     worker has held an in-flight request for failover_timeout while
//     still inside its stall window, the request is RE-DISPATCHED so a
//     live worker can serve it. First completion wins: the settled
//     table drops the loser, so failover never double-counts.
//
//   dead-worker reclaim — a dispatcher with per-worker queues (po2)
//     strands a dead worker's queued backlog: nobody else ever pops it.
//     The recovery agent calls the dispatcher's reclaim(w) once worker
//     w is crashed (and again after later arrivals, since the dead
//     worker's drained — hence short — queue keeps attracting new
//     dispatches) and re-routes the orphans through recovery. Shared
//     queues reclaim nothing: any live worker can pop a dead worker's
//     work, which is itself a robustness result the bench surfaces via
//     `reclaimed`.
//
// The runners that inject a plan and apply these policies, their event
// order and the conservation invariant live in service/server.hpp.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "service/workload.hpp"
#include "util/rng.hpp"

namespace pcq {
namespace service {

enum class fault_kind { ok, slow, stall, crash };

/// One worker's role for a run. Roles are exclusive by construction
/// (make_fault_plan assigns disjoint sets), which keeps the completion
/// arithmetic closed-form in the virtual runner.
struct worker_fault {
  fault_kind kind = fault_kind::ok;
  double slow_factor = 1.0;  ///< slow: multiplies every service demand
  double stall_start = 0.0;  ///< stall: frozen during [start, end)
  double stall_end = 0.0;
  double crash_time = std::numeric_limits<double>::infinity();
};

/// Arrival-rate multiplier window: gaps inside [start, end) divide by
/// rate_factor.
struct burst_window {
  double start = 0.0;
  double end = 0.0;
  double rate_factor = 1.0;
};

/// Seeded fault-plan recipe. Fractions are of the worker count; windows
/// and times are fractions of the trace span. `at_intensity` is the
/// bench's ladder: level 1 is healthy, levels 2..5 turn every knob up.
struct fault_config {
  std::uint64_t seed = 0x4661756Cu;  // "Faul"
  double slow_fraction = 0.0;
  double slow_factor = 1.0;
  double stall_fraction = 0.0;
  double stall_start_frac = 0.3;     ///< window start, fraction of span
  double stall_duration_frac = 0.0;  ///< window length, fraction of span
  double crash_fraction = 0.0;
  double crash_time_frac = 0.5;  ///< crash instant, fraction of span
  std::size_t bursts = 0;
  double burst_duration_frac = 0.15;
  double burst_rate_factor = 1.0;

  static fault_config at_intensity(unsigned level, std::uint64_t seed) {
    fault_config cfg;
    cfg.seed = seed;
    if (level <= 1) return cfg;  // healthy anchor
    const double x = static_cast<double>(level - 1) / 4.0;  // 0.25..1.0
    cfg.slow_fraction = 0.25 + 0.25 * x;
    cfg.slow_factor = 1.0 + 2.0 * x;  // 1.5x .. 3x
    cfg.stall_fraction = level >= 3 ? 0.25 : 0.0;
    cfg.stall_start_frac = 0.35;
    cfg.stall_duration_frac = level >= 3 ? 0.10 + 0.10 * x : 0.0;
    cfg.crash_fraction = level >= 4 ? 0.25 : 0.0;
    cfg.crash_time_frac = 0.5;
    cfg.bursts = level >= 2 ? 1u + (level >= 4 ? 1u : 0u) : 0u;
    cfg.burst_duration_frac = 0.15;
    cfg.burst_rate_factor = 1.0 + 1.0 * x;  // 1.25x .. 2x arrivals
    return cfg;
  }
};

struct fault_plan {
  std::vector<worker_fault> workers;
  std::vector<burst_window> bursts;

  bool any_crash() const {
    for (const worker_fault& w : workers) {
      if (w.kind == fault_kind::crash) return true;
    }
    return false;
  }
};

/// Seeded burst windows over [0.1·span, 0.9·span), non-overlapping by
/// rejection (deterministic draw order; at most 8 attempts per window).
inline std::vector<burst_window> plan_bursts(const fault_config& cfg,
                                             double span) {
  std::vector<burst_window> windows;
  if (cfg.bursts == 0 || cfg.burst_rate_factor <= 1.0 || span <= 0.0) {
    return windows;
  }
  xoshiro256ss rng(derive_seed(cfg.seed, 0x42));
  const double duration = cfg.burst_duration_frac * span;
  for (std::size_t b = 0; b < cfg.bursts; ++b) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const double start = (0.1 + 0.8 * rng.next_double()) * span;
      const double end = start + duration;
      bool overlaps = false;
      for (const burst_window& w : windows) {
        if (start < w.end && end > w.start) overlaps = true;
      }
      if (overlaps) continue;
      windows.push_back({start, end, cfg.burst_rate_factor});
      break;
    }
  }
  std::sort(windows.begin(), windows.end(),
            [](const burst_window& a, const burst_window& b) {
              return a.start < b.start;
            });
  return windows;
}

/// Compresses inter-arrival gaps inside burst windows by rate_factor.
/// Order, count, seq, service demands, and arrival-relative deadline
/// slack are preserved; only arrival instants (and with them absolute
/// deadlines) move. Window membership is judged on the ORIGINAL
/// timeline, so the perturbation is a pure per-gap function of the
/// input trace.
inline std::vector<request> apply_bursts(
    const std::vector<request>& trace,
    const std::vector<burst_window>& bursts) {
  if (bursts.empty()) return trace;
  std::vector<request> out;
  out.reserve(trace.size());
  double prev_in = 0.0;
  double clock = 0.0;
  for (const request& r : trace) {
    double gap = r.arrival - prev_in;
    for (const burst_window& w : bursts) {
      if (r.arrival >= w.start && r.arrival < w.end) {
        gap /= w.rate_factor;
        break;
      }
    }
    clock += gap;
    request moved = r;
    moved.deadline = clock + (r.deadline - r.arrival);
    moved.arrival = clock;
    prev_in = r.arrival;
    out.push_back(moved);
  }
  return out;
}

/// Assigns worker roles deterministically: a seeded shuffle of the
/// worker ids, then roles claimed in order crash, stall, slow (the
/// rest stay ok). Counts are max(1, round(fraction·workers)) when the
/// fraction is positive; crashes are capped at workers−1 so the run
/// always keeps at least one worker that can eventually serve.
inline fault_plan make_fault_plan(const fault_config& cfg,
                                  std::size_t workers, double span) {
  fault_plan plan;
  plan.workers.assign(workers, worker_fault{});
  plan.bursts = plan_bursts(cfg, span);
  if (workers == 0) return plan;

  std::vector<std::size_t> order(workers);
  for (std::size_t w = 0; w < workers; ++w) order[w] = w;
  xoshiro256ss rng(derive_seed(cfg.seed, 0x51));
  for (std::size_t i = workers; i > 1; --i) {
    std::swap(order[i - 1], order[rng.bounded(i)]);
  }

  const auto count_for = [workers](double fraction) -> std::size_t {
    if (fraction <= 0.0) return 0;
    const std::size_t n = static_cast<std::size_t>(
        std::llround(fraction * static_cast<double>(workers)));
    return std::max<std::size_t>(1, std::min(n, workers));
  };

  std::size_t cursor = 0;
  std::size_t n_crash = count_for(cfg.crash_fraction);
  if (n_crash >= workers) n_crash = workers - 1;  // keep a survivor
  for (std::size_t i = 0; i < n_crash && cursor < workers; ++i, ++cursor) {
    worker_fault& f = plan.workers[order[cursor]];
    f.kind = fault_kind::crash;
    f.crash_time = cfg.crash_time_frac * span;
  }
  for (std::size_t i = 0, n = count_for(cfg.stall_fraction);
       i < n && cursor < workers; ++i, ++cursor) {
    worker_fault& f = plan.workers[order[cursor]];
    f.kind = fault_kind::stall;
    f.stall_start = cfg.stall_start_frac * span;
    f.stall_end = f.stall_start + cfg.stall_duration_frac * span;
  }
  for (std::size_t i = 0, n = count_for(cfg.slow_fraction);
       i < n && cursor < workers; ++i, ++cursor) {
    worker_fault& f = plan.workers[order[cursor]];
    f.kind = fault_kind::slow;
    f.slow_factor = cfg.slow_factor;
  }
  return plan;
}

/// Graceful-degradation policy knobs. Defaults are fail-hard (no
/// shedding, no retries, no failover): the plain server's semantics,
/// so turning one policy on isolates its effect.
struct degrade_config {
  /// Shed at dispatch when now + backlog/workers·est_service + service
  /// exceeds the deadline. est_service must be > 0 to arm the check,
  /// and an armed check needs a dispatcher with backlog().
  bool admission_control = false;
  double est_service = 0.0;
  /// Crash recovery: re-dispatch after retry_backoff·2^(attempt−1),
  /// at most max_retries attempts; exhaustion marks the request lost.
  std::size_t max_retries = 0;
  double retry_backoff = 0.0;
  /// Stall failover: re-dispatch a stalled worker's in-flight request
  /// once it has been frozen this long (infinity = never).
  double failover_timeout = std::numeric_limits<double>::infinity();
};

namespace detail {

/// Exponential backoff multiplier for retry attempt k (1-based),
/// exponent clamped so the shift can never overflow.
inline double backoff_factor(std::size_t attempt) {
  return std::ldexp(1.0, static_cast<int>(
                             std::min<std::size_t>(attempt - 1, 30)));
}

/// The shed test: predicted completion past the deadline. The runners
/// call it only while admission control is armed.
inline bool admission_sheds(const request& r, double now,
                            std::size_t queued, std::size_t workers,
                            const degrade_config& degrade) {
  const double predicted =
      now +
      static_cast<double>(queued) * degrade.est_service /
          static_cast<double>(workers == 0 ? 1 : workers) +
      r.service;
  return predicted > r.deadline;
}

}  // namespace detail

}  // namespace service
}  // namespace pcq

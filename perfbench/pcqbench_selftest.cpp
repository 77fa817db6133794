// Self-test of the benchmark itself (not of the library):
//
//   1. traced_pq passes PCQ_ASSERT_PQ_CONCEPT and forwards all six ops
//      (and the timed extension) without changing any result;
//   2. on tiny traced runs of every workload, the layer self times plus
//      the unattributed time add up to the worker wall time exactly, and
//      equal the self times recomputed offline from the span dump;
//   3. the virtual-time p99 of service_open repeats bit for bit;
//   4. the untraced runs use the raw queue type and never create a
//      wrapper handle, and every tiny run passes its output checks.
//
// Exit status 0 iff every check passed. Run by `run.py --selftest`.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

using pcqbench::raw_queue;
using traced = pcqbench::traced_pq<raw_queue>;

PCQ_ASSERT_PQ_CONCEPT(traced);
static_assert(pcq::has_timed_api<traced>::value,
              "traced_pq must forward the timed extension");
static_assert(std::is_same<raw_queue,
                           pcq::multi_queue<std::uint64_t, std::uint64_t>>::value,
              "untraced runs must use the raw MultiQueue");

/// The same scripted op sequence on a raw and a wrapped queue (one
/// thread, same config seed, so the MultiQueue is deterministic) must
/// return identical results at every step.
void test_forwarding() {
  using entry = raw_queue::entry;
  raw_queue raw(pcq::mq_config{}, 1);
  raw_queue inner(pcq::mq_config{}, 1);
  pcqbench::tracer tr(1);
  traced wrapped(inner, tr);
  auto a = raw.get_handle(0);
  auto b = wrapped.get_handle(0);
  pcq::xoshiro256ss rng(42);
  bool same = true;
  for (int step = 0; step < 4000 && same; ++step) {
    const std::uint64_t k = rng() >> 1;
    switch (rng.bounded(6)) {
      case 0:
        a.push(k, k + 1);
        b.push(k, k + 1);
        break;
      case 1: {
        const entry batch[3] = {{k, 1}, {k / 2, 2}, {k / 3, 3}};
        a.push_batch(batch, 3);
        b.push_batch(batch, 3);
        break;
      }
      case 2: {
        std::uint64_t ka = 0, va = 0, kb = 0, vb = 0;
        same = a.try_pop(ka, va) == b.try_pop(kb, vb) && ka == kb && va == vb;
        break;
      }
      case 3: {
        entry oa[4], ob[4];
        const std::size_t na = a.try_pop_batch(oa, 4);
        const std::size_t nb = b.try_pop_batch(ob, 4);
        same = na == nb && std::equal(oa, oa + na, ob);
        break;
      }
      case 4:
        same = a.push_timed(k, k) == b.push_timed(k, k);
        break;
      default: {
        std::uint64_t ka = 0, va = 0, ta = 0, kb = 0, vb = 0, tb = 0;
        same = a.try_pop_timed(ka, va, ta) == b.try_pop_timed(kb, vb, tb) &&
               ka == kb && va == vb && ta == tb;
        break;
      }
    }
    same = same && raw.size() == wrapped.size();
  }
  check(same, "traced_pq forwards push/push_batch/try_pop/try_pop_batch/"
              "size and the timed ops unchanged");
  check(tr.merged(pcqbench::op::push).calls > 0 &&
            tr.merged(pcqbench::op::pop).calls > 0,
        "traced_pq counts the ops it forwards");
}

pcqbench::options tiny(const std::string& workload, bool trace) {
  pcqbench::options opt;
  opt.workload = workload;
  opt.seed = 7;
  opt.seconds = 0.3;
  opt.trace = trace;
  opt.sample_every = 1;
  opt.size = pcqbench::scale::tiny();
  return opt;
}

void test_accounting(const std::string& workload) {
  const pcqbench::result r = pcqbench::run_workload(tiny(workload, true));
  check(r.correct, workload + " traced: output checks pass " + r.error);
  double self_sum = 0.0;
  bool offline_equal = true;
  for (const auto& kv : r.info) {
    if (kv.first.rfind("self_ns.", 0) != 0) continue;
    self_sum += kv.second;
    auto off = r.info.find("offline_" + kv.first);
    const bool eq = off != r.info.end() && off->second == kv.second;
    if (!eq)
      std::printf("      %s online %.0f offline %.0f\n", kv.first.c_str(),
                  kv.second, off == r.info.end() ? -1.0 : off->second);
    offline_equal = offline_equal && eq;
  }
  const double wall = r.info.at("wall_ns");
  const double unattributed = r.info.at("unattributed_ns");
  check(wall > 0 && self_sum + unattributed == wall,
        workload + ": layer self times + unattributed == worker wall (" +
            std::to_string(self_sum) + " + " + std::to_string(unattributed) +
            " vs " + std::to_string(wall) + " ns)");
  check(offline_equal,
        workload + ": self times from the span dump equal the online ones");
  const auto& names = pcqbench::layer_metric_names();
  bool known = true;
  for (const auto& kv : r.metrics)
    known = known && std::find(names.begin(), names.end(), kv.first) != names.end();
  bool common = true;
  for (const char* m : {"core.busy_frac", "core.pop_ns_p50", "heap.pushpop_ns",
                        "util.rng_ns", "benchlib.trace_overhead_frac",
                        "benchlib.unattributed_frac"})
    common = common && r.metrics.count(m) == 1;
  check(known && common,
        workload + ": traced run reports the per-layer metrics every "
                   "workload has, and no other names");
}

void test_virtual_repeats() {
  const pcqbench::options opt = tiny("service_open", false);
  const auto t1 = pcqbench::detail::service_trace(opt, 0.5, 3);
  const auto t2 = pcqbench::detail::service_trace(opt, 0.5, 3);
  const double a = pcqbench::detail::virtual_p99_us(t1, 2, true);
  const double b = pcqbench::detail::virtual_p99_us(t2, 2, true);
  check(a > 0 && std::memcmp(&a, &b, sizeof a) == 0,
        "service virtual p99 repeats bit for bit for one seed");
}

void test_untraced_raw() {
  const std::uint64_t before = pcqbench::traced_handles_created().load();
  for (const char* w : {"pq_mixed", "sssp_road", "exec_dag", "service_open"}) {
    const pcqbench::result r = pcqbench::run_workload(tiny(w, false));
    check(r.correct, std::string(w) + " untraced: output checks pass " + r.error);
    check(r.metrics.size() == 5, std::string(w) + ": five end-to-end metrics");
  }
  check(pcqbench::traced_handles_created().load() == before,
        "untraced runs create no wrapper handle");
}

}  // namespace

int main() {
  test_forwarding();
  test_untraced_raw();
  for (const char* w : {"pq_mixed", "sssp_road", "exec_dag", "service_open"})
    test_accounting(w);
  test_virtual_repeats();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}

// Span recording for the benchmark's traced run.
//
// Every layer boundary the benchmark can see is a *scope*: a begin/end
// pair on one thread slot. Scopes on a slot form a stack, so a scope's
// children are exactly the scopes opened while it was open, and its
// self time is its duration minus the time those children covered.
// Each scope is either
//
//   - a recorded span (worker loops, dispatch calls, harness roots):
//     kept in memory with name, start, end, parent and request id, and
//     written to the span dump at the end; or
//   - an aggregated op (the hot queue paths: push, pop, fetch): folded
//     into per-slot totals and a log-bucket histogram with exact counts,
//     so memory stays bounded however many ops run. Every
//     `sample_every`-th op is also kept as a span for the dump.
//
// A slot belongs to one thread at a time, so slots share nothing on the
// hot path: ids are (slot << 40) | local counter, with no atomics.
//
// Accounting: a harness *root* span stands for the wall time of `width`
// worker slots. Per slot, `covered_ns` sums the top-level scopes, so
//   sum over layers of self time + unattributed == worker wall time,
// with unattributed = width * root duration - covered. `offline_self`
// recomputes the self times from the recorded spans alone (duration
// minus the union of same-slot children); with every op sampled the two
// agree exactly, which the self-test checks.

#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pcqbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Log-linear histogram of non-negative integers: 8 sub-buckets per
/// power of two (12.5% resolution), exact counts, fixed 4 KB.
class log_hist {
 public:
  void add(std::uint64_t v) {
    ++n_[index(v)];
    ++count_;
  }
  void merge(const log_hist& o) {
    for (std::size_t i = 0; i < n_.size(); ++i) n_[i] += o.n_[i];
    count_ += o.count_;
  }

  /// Midpoint of the bucket holding the q-quantile; 0 when empty.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < n_.size(); ++i) {
      seen += n_[i];
      if (seen >= target) return midpoint(i);
    }
    return midpoint(n_.size() - 1);
  }

 private:
  static constexpr std::size_t kBuckets = 496;

  static std::size_t index(std::uint64_t v) {
    if (v < 8) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);  // v in [2^e, 2^(e+1)), e >= 3
    const auto sub = static_cast<std::size_t>((v >> (e - 3)) & 7);
    return static_cast<std::size_t>(e - 2) * 8 + sub;
  }
  static double midpoint(std::size_t i) {
    if (i < 8) return static_cast<double>(i);
    const std::size_t e = i / 8 + 2;
    const double width = static_cast<double>(std::uint64_t{1} << (e - 3));
    return static_cast<double>(8 + i % 8) * width + width / 2.0;
  }

  std::array<std::uint64_t, kBuckets> n_{};
  std::uint64_t count_ = 0;
};

constexpr std::uint64_t kNone = ~std::uint64_t{0};

struct span_rec {
  std::uint64_t id = 0;
  std::uint64_t parent = kNone;
  std::uint64_t request = kNone;
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t child_ns = 0;  ///< time covered by nested scopes
  std::uint32_t slot = 0;
  bool sampled = false;  ///< an aggregated op kept for the dump
};

/// The aggregated hot-path ops.
enum class op : std::uint8_t { push, pop, fetch, count };
constexpr const char* kOpName[] = {"core.push", "core.pop", "service.fetch"};

struct op_stats {
  std::uint64_t calls = 0;
  std::uint64_t fails = 0;
  std::uint64_t ns = 0;
  std::uint64_t child_ns = 0;
  log_hist hist;
};

/// Per-slot trace state. Used by one thread at a time.
class alignas(64) slot_log {
 public:
  /// Opens a scope and returns its id.
  std::uint64_t enter() {
    const std::uint64_t id = base_ | ++local_;
    stack_.push_back(open_scope{now_ns(), 0, id});
    return id;
  }

  /// Closes the innermost scope as an aggregated op.
  void exit_op(op kind, bool ok) {
    const open_scope s = close();
    const std::int64_t dur = end_ - s.start;
    op_stats& st = ops[static_cast<std::size_t>(kind)];
    ++st.calls;
    if (!ok) ++st.fails;
    st.ns += static_cast<std::uint64_t>(dur);
    st.child_ns += static_cast<std::uint64_t>(s.child_ns);
    st.hist.add(static_cast<std::uint64_t>(dur));
    if (sample_every != 0 && st.calls % sample_every == 0) {
      record(s, kOpName[static_cast<std::size_t>(kind)], kNone, true);
    }
  }

  /// Closes the innermost scope as a recorded span.
  void exit_span(const char* name, std::uint64_t request = kNone) {
    record(close(), name, request, false);
  }

  /// Adds a span measured elsewhere (on this slot, outside any scope).
  void add_span(const char* name, std::uint64_t parent, std::uint64_t request,
                std::int64_t start, std::int64_t end) {
    span_rec r;
    r.id = base_ | ++local_;
    r.parent = parent;
    r.request = request;
    r.name = name;
    r.start = start;
    r.end = end;
    r.slot = slot;
    spans.push_back(r);
    covered_ns += end - start;
  }

  /// Start of the innermost open scope; end of the last closed one.
  std::int64_t open_start() const { return stack_.back().start; }
  std::int64_t last_end() const { return end_; }

  std::uint32_t slot = 0;
  std::uint64_t root = kNone;
  std::uint64_t sample_every = 0;
  std::int64_t covered_ns = 0;  ///< sum of top-level scopes
  std::array<op_stats, static_cast<std::size_t>(op::count)> ops{};
  std::vector<span_rec> spans;
  // Layer-specific state kept by the wrappers.
  std::int64_t idle_ns = 0;
  std::int64_t idle_since = -1;
  std::uint64_t depth_sum = 0;
  std::uint64_t depth_samples = 0;

 private:
  friend class tracer;
  struct open_scope {
    std::int64_t start;
    std::int64_t child_ns;
    std::uint64_t id;
  };

  /// Id of the innermost open scope, or of the current root.
  std::uint64_t current() const {
    return stack_.empty() ? root : stack_.back().id;
  }

  open_scope close() {
    end_ = now_ns();
    const open_scope s = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = end_ - s.start;
    if (stack_.empty()) {
      covered_ns += dur;
    } else {
      stack_.back().child_ns += dur;
    }
    return s;
  }

  void record(const open_scope& s, const char* name, std::uint64_t request,
              bool sampled) {
    span_rec r;
    r.id = s.id;
    r.parent = current();
    r.request = request;
    r.name = name;
    r.start = s.start;
    r.end = end_;
    r.child_ns = s.child_ns;
    r.slot = slot;
    r.sampled = sampled;
    spans.push_back(r);
  }

  std::uint64_t base_ = 0;
  std::uint64_t local_ = 0;
  std::int64_t end_ = 0;
  std::vector<open_scope> stack_;
};

/// Layer of a span or op name: the text before the first '.'.
inline std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

struct root_span {
  std::uint64_t id;
  const char* name;
  std::int64_t start;
  std::int64_t end;
  std::uint32_t width;  ///< worker slots this root's wall time stands for
};

class tracer {
 public:
  explicit tracer(std::size_t slots, std::uint64_t sample_every = 1024)
      : slots_(new slot_log[slots]), num_slots_(slots) {
    for (std::size_t i = 0; i < slots; ++i) {
      slots_[i].slot = static_cast<std::uint32_t>(i);
      slots_[i].base_ = (static_cast<std::uint64_t>(i) + 1) << 40;
      slots_[i].sample_every = sample_every;
      slots_[i].stack_.reserve(8);
    }
  }

  slot_log& slot(std::size_t i) { return slots_[i]; }
  const slot_log& slot(std::size_t i) const { return slots_[i]; }
  std::size_t num_slots() const { return num_slots_; }

  /// Starts a harness root for slots [0, width). Call before the
  /// threads that use those slots start.
  std::uint64_t begin_root(const char* name, std::uint32_t width) {
    const std::uint64_t id = ++root_ids_;
    roots_.push_back(root_span{id, name, now_ns(), 0, width});
    for (std::uint32_t i = 0; i < width; ++i) slots_[i].root = id;
    return id;
  }
  /// Ends the latest root. Call after those threads have joined.
  void end_root() { roots_.back().end = now_ns(); }

  std::int64_t wall_ns() const {
    std::int64_t wall = 0;
    for (const root_span& r : roots_) wall += (r.end - r.start) * r.width;
    return wall;
  }

  std::int64_t covered_ns() const {
    std::int64_t covered = 0;
    for (std::size_t i = 0; i < num_slots_; ++i)
      covered += slots_[i].covered_ns;
    return covered;
  }

  /// Self time per layer from the scope stacks: span duration (or op
  /// total) minus the time its nested scopes covered.
  std::map<std::string, std::int64_t> self_ns() const {
    std::map<std::string, std::int64_t> self;
    for (std::size_t i = 0; i < num_slots_; ++i) {
      const slot_log& s = slots_[i];
      for (std::size_t k = 0; k < s.ops.size(); ++k) {
        if (s.ops[k].calls == 0) continue;
        self[layer_of(kOpName[k])] += static_cast<std::int64_t>(
            s.ops[k].ns - s.ops[k].child_ns);
      }
      for (const span_rec& r : s.spans) {
        if (!r.sampled) self[layer_of(r.name)] += r.end - r.start - r.child_ns;
      }
    }
    return self;
  }

  op_stats merged(op kind) const {
    op_stats m;
    for (std::size_t i = 0; i < num_slots_; ++i) {
      const op_stats& s = slots_[i].ops[static_cast<std::size_t>(kind)];
      m.calls += s.calls;
      m.fails += s.fails;
      m.ns += s.ns;
      m.child_ns += s.child_ns;
      m.hist.merge(s.hist);
    }
    return m;
  }

  /// Writes every root and span as a Chrome trace-event JSON array
  /// (loadable by Perfetto or chrome://tracing). At most `cap` spans
  /// per name and slot are written; the in-memory accounting covers all.
  void write_chrome_trace(const std::string& path, std::size_t cap) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    const std::int64_t t0 = roots_.empty() ? 0 : roots_.front().start;
    std::fputs("[\n", f);
    bool first = true;
    const auto emit = [&](const char* name, std::uint32_t tid,
                          std::int64_t start, std::int64_t end,
                          std::uint64_t id, std::uint64_t parent,
                          std::uint64_t request, std::int64_t self) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%lld,\"request\":%lld,\"self_ns\":%lld}}",
                   first ? "" : ",\n", name, tid, (start - t0) / 1e3,
                   (end - start) / 1e3, static_cast<unsigned long long>(id),
                   parent == kNone ? -1LL : static_cast<long long>(parent),
                   request == kNone ? -1LL : static_cast<long long>(request),
                   static_cast<long long>(self));
      first = false;
    };
    for (const root_span& r : roots_) {
      emit(r.name, 1000, r.start, r.end, r.id, kNone, kNone, 0);
    }
    for (std::size_t i = 0; i < num_slots_; ++i) {
      std::map<std::string, std::size_t> written;
      for (const span_rec& r : slots_[i].spans) {
        if (written[r.name]++ >= cap) continue;
        emit(r.name, r.slot, r.start, r.end, r.id, r.parent, r.request,
             r.end - r.start - r.child_ns);
      }
    }
    std::fputs("\n]\n", f);
    std::fclose(f);
  }

 private:
  std::unique_ptr<slot_log[]> slots_;
  std::size_t num_slots_;
  std::vector<root_span> roots_;
  std::uint64_t root_ids_ = 0;
};

/// Self time per layer recomputed from recorded spans only: each span's
/// duration minus the union of its same-slot children's intervals.
/// Equals tracer::self_ns() when every op is sampled (sample_every = 1).
inline std::map<std::string, std::int64_t> offline_self(const tracer& t) {
  std::map<std::string, std::int64_t> self;
  for (std::size_t i = 0; i < t.num_slots(); ++i) {
    const std::vector<span_rec>& spans = t.slot(i).spans;
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const span_rec& r : spans) children[r.parent].push_back({r.start, r.end});
    for (const span_rec& r : spans) {
      auto it = children.find(r.id);
      std::int64_t covered = 0;
      if (it != children.end()) {
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t lo = 0, hi = -1;
        bool open = false;
        for (auto [a, b] : iv) {
          a = std::max(a, r.start);
          b = std::min(b, r.end);
          if (b <= a) continue;
          if (open && a <= hi) {
            hi = std::max(hi, b);
          } else {
            if (open) covered += hi - lo;
            lo = a;
            hi = b;
            open = true;
          }
        }
        if (open) covered += hi - lo;
      }
      self[layer_of(r.name)] += r.end - r.start - covered;
    }
  }
  return self;
}

}  // namespace pcqbench

// Host-time ledger of the lifecycle benchmark.
//
// Every span wraps one public call into a layer of the stack, made from the
// benchmark's own code (or from a hook the stack already offers to outside
// code: a bundle listener, a delegating ResolvingService, a component body).
// Nothing inside src/ is instrumented. Spans are kept in memory and written
// out once, at exit, as Chrome trace-event JSON.
//
// A layer's self time is its span time minus the time its child spans cover.
// Very short calls made at high rates (typed calls, cap-inbox drains) are not
// stored as spans: their durations are folded into the innermost open span as
// child time ("leaf" time), and calls shorter than the clock's resolution are
// counted but add no time.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Smallest non-zero step between two consecutive clock reads.
[[nodiscard]] std::int64_t clock_resolution_ns();

enum class Layer : std::uint8_t {
  kXml,
  kOsgi,
  kDrcomResolve,
  kDrcomAdmission,
  kDrcomMode,
  kCap,
  kRtosDispatch,
  kIpc,
  kFed,
  kCount,
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer layer);

enum class Phase : std::uint8_t { kSetup, kTimed, kAfter, kCount };
inline constexpr std::size_t kPhases = static_cast<std::size_t>(Phase::kCount);

class Ledger {
 public:
  explicit Ledger(bool on, std::int64_t resolution_ns)
      : on_(on), resolution_ns_(resolution_ns) {}

  [[nodiscard]] bool on() const { return on_; }
  void set_phase(Phase phase) { phase_ = phase; }
  void set_op(std::uint32_t op) { op_ = op; }

  /// Opens a span (no-op returning -1 when the ledger is off).
  std::int32_t begin(const char* name, Layer layer);
  void end(std::int32_t id);
  /// Folds one short call of `layer` into the innermost open span.
  void leaf(Layer layer, std::int64_t ns);

  struct Totals {
    std::array<double, kLayers> busy_ns{};  ///< outermost span time per layer
    std::array<double, kLayers> self_ns{};
  };
  [[nodiscard]] const Totals& totals(Phase phase) const {
    return totals_[static_cast<std::size_t>(phase)];
  }
  /// Sum of root-span durations opened in `phase`.
  [[nodiscard]] double root_ns(Phase phase) const {
    return root_ns_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] std::uint64_t leaf_calls(Layer layer) const {
    return leaf_calls_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::uint64_t leaf_below_resolution(Layer layer) const {
    return leaf_below_res_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

  /// Totals of every span with this name, over all phases.
  struct NameTotals {
    std::uint64_t calls = 0;
    double busy_ns = 0.0;
    double self_ns = 0.0;
  };
  [[nodiscard]] NameTotals by_name(const char* name) const;

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps
  /// relative to the first span); one lane per phase.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Layer layer;
    Phase phase;
    std::uint32_t op;
    std::int32_t parent;
    std::int64_t start;
    std::int64_t end;
    std::int64_t child;
  };

  bool on_;
  std::int64_t resolution_ns_;
  Phase phase_ = Phase::kSetup;
  std::uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::array<Totals, kPhases> totals_{};
  std::array<double, kPhases> root_ns_{};
  std::array<std::uint64_t, kLayers> leaf_calls_{};
  std::array<std::uint64_t, kLayers> leaf_below_res_{};
  struct NameLess {
    bool operator()(const char* a, const char* b) const {
      return std::strcmp(a, b) < 0;
    }
  };
  std::map<const char*, NameTotals, NameLess> by_name_;
};

/// RAII span.
class Span {
 public:
  Span(Ledger& ledger, const char* name, Layer layer)
      : ledger_(&ledger), id_(ledger.begin(name, layer)) {}
  ~Span() { ledger_->end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
  std::int32_t id_;
};

/// Latency samples of one kind of call (host ns).
class Samples {
 public:
  void add(std::int64_t ns) { values_.push_back(ns); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  /// Nearest-rank quantile in ns (0 when empty).
  [[nodiscard]] double quantile(double q) const;
  /// Samples strictly above the q-quantile.
  [[nodiscard]] std::size_t beyond(double q) const;
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }

 private:
  std::vector<std::int64_t> values_;
};

/// 64-bit FNV-1a, for the virtual-time digest.
class Digest {
 public:
  void mix(std::uint64_t value);
  void mix(const std::string& text);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench

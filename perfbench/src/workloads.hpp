// The three workloads. Each builds its inputs from the seed, measures its
// timed phase for `options.seconds` of host time (but never fewer steps than
// the fixed checkpoint, where the virtual-time digest is taken), checks the
// stack afterwards, and fills the report.
#pragma once

#include <algorithm>

#include "harness.hpp"

namespace perfbench {

void run_steady(const Options& options, Report& report);
void run_churn(const Options& options, Report& report);
void run_fed(const Options& options, Report& report);

// ----------------------------------------------------- shared plumbing --

/// Runs steps until both the host-time budget and the checkpoint are met.
class TimedLoop {
 public:
  TimedLoop(double seconds, std::size_t checkpoint)
      : seconds_(seconds), checkpoint_(checkpoint), started_(now_ns()) {}
  [[nodiscard]] bool more() const {
    return steps_ < checkpoint_ || elapsed_s() < seconds_;
  }
  /// Counts one finished step; true exactly when it was the checkpoint step.
  bool step() { return ++steps_ == checkpoint_; }
  [[nodiscard]] double elapsed_s() const {
    return static_cast<double>(now_ns() - started_) / 1e9;
  }
  [[nodiscard]] std::size_t steps() const { return steps_; }

 private:
  double seconds_;
  std::size_t checkpoint_;
  std::int64_t started_;
  std::size_t steps_ = 0;
};

/// Throughput over groups of timed-phase steps. Every group holds the same
/// work: one 10 ms slice (steady), one deck of ops (churn) or one deck of
/// windows (fed). The benchmark reports the highest percentile of the group
/// rates that has ten groups beyond it, kept between the 95th and the 99th
/// (the 99th from 1000 groups on). The host speed of a shared machine flips
/// between a contended and an uncontended state many times a second; the
/// mean or the median of the groups follow whichever state dominated the
/// run, while the upper percentile tracks what the program does when it has
/// the CPU, and the higher it is the fewer uncontended groups it needs.
class RateGroups {
 public:
  struct Totals {
    double jobs = 0;
    double msgs = 0;
  };

  RateGroups(std::size_t steps_per_group, Totals start)
      : per_group_(steps_per_group), last_(start), last_ns_(now_ns()) {}
  /// Call after every step with a reader of the running totals.
  template <typename Read>
  void step(Read&& read) {
    if (++steps_ % per_group_ != 0) return;
    const Totals now = read();
    const std::int64_t t = now_ns();
    const double seconds = static_cast<double>(t - last_ns_) / 1e9;
    jobs_.push_back((now.jobs - last_.jobs) / seconds);
    msgs_.push_back((now.msgs - last_.msgs) / seconds);
    last_ = now;
    last_ns_ = t;
  }
  /// The reported percentile, as a fraction.
  [[nodiscard]] double reported() const {
    return std::clamp(1.0 - 10.0 / static_cast<double>(jobs_.size()), 0.95,
                      0.99);
  }
  [[nodiscard]] double jobs_per_s() const { return quantile(jobs_, reported()); }
  [[nodiscard]] double msgs_per_s() const { return quantile(msgs_, reported()); }
  [[nodiscard]] const std::vector<double>& job_rates() const { return jobs_; }

 private:
  std::size_t per_group_;
  std::size_t steps_ = 0;
  Totals last_;
  std::int64_t last_ns_;
  std::vector<double> jobs_;
  std::vector<double> msgs_;
};

/// Host-time spent on discarded set-ups before the measured ones: host CPUs
/// ramp up under sustained load over a fraction of a second, and the first
/// set-ups of a process also fault in its heap.
inline constexpr double kSetupWarmupS = 1.0;

/// Repeats `setup` (returns false on failure) for kSetupWarmupS of host time;
/// returns how many succeeded, 0 when one failed.
template <typename Setup>
std::size_t warmup_setups(Setup&& setup) {
  const std::int64_t started = now_ns();
  std::size_t done = 0;
  while (static_cast<double>(now_ns() - started) / 1e9 < kSetupWarmupS) {
    if (!setup()) return 0;
    ++done;
  }
  return done;
}

/// Virtual-time digest at the checkpoint: the DRCR event hash plus the
/// rtos / ipc / cap (and fed) counters at that instant.
std::string checkpoint_digest(const Digest& events,
                              const std::map<std::string, double>& counters,
                              SimTime now, Report& report);

/// Host latency of every reconfiguration call, and how the calls ended.
struct Reconfig {
  Samples all;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t intended_refusals = 0;
};

/// Fills the end-to-end metrics shared by every workload.
void report_end_to_end(Report& report, const std::vector<double>& setup_s,
                       const RateGroups& rates, double phase_s,
                       const Reconfig& reconfig);

/// Per-layer metrics every workload reports (the workload adds its own).
struct LayerInputs {
  const Ledger* ledger = nullptr;
  const Samples* parse_ns = nullptr;
  std::uint64_t parse_errors = 0;
  std::map<std::string, double> life;  ///< counters at the end of the run
  std::map<std::string, double> before;  ///< counters at timed-phase start
  std::map<std::string, double> after;   ///< ... and end
  std::uint64_t reconfig_calls = 0;      ///< on the measured stack(s)
  std::uint64_t admit_calls = 0;
  std::uint64_t admit_rejects = 0;
  std::uint64_t admit_useful = 0;
  Samples admit_ns;
  double run_events = 0;        ///< engine events fired in the timed phase
  double live_slabs_peak = 0;
  double phase_ns = 0;          ///< timed-phase wall time
  double target_self_ns = 0;    ///< self time of the workload's own layers
  double fed_arrived = 0;       ///< NodeChannel arrivals in the timed phase
  double fed_rejected = 0;
  double fed_migrate_fail_ratio = 0;
};
void report_layers(Report& report, const LayerInputs& in);

/// Writes the traced run's spans to options.trace_out (Chrome trace JSON).
void write_trace(const Ledger& ledger, const Options& options, Report& report);

/// Runs the invariant oracle over one DRCR and records any violation.
void check_oracle(const drcom::Drcr& drcr, const std::string& where,
                  Report& report);

}  // namespace perfbench

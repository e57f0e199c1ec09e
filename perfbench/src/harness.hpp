// Shared pieces of the lifecycle benchmark: options and report, the seeded
// generator of descriptors and bundles, the component bodies, the delegating
// admission timer, and one single-node stack (engine, kernel, framework,
// DRCR) wired for outside-only measurement.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "drcom/drcr.hpp"
#include "drcom/resolver.hpp"
#include "ledger.hpp"
#include "osgi/framework.hpp"
#include "rtos/kernel.hpp"
#include "rtos/sim_engine.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace drt;

// ------------------------------------------------------------ run options --

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8.0;
  bool trace = false;
  bool small = false;          ///< self-test size: seconds, not minutes
  std::string trace_out;       ///< Chrome trace path (traced runs)
};

/// One named value of the run report.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines: final counters, intended refusals, ratios.
  std::vector<std::string> notes;
  std::string digest;
  /// VmHWM when the checkpoint was reached: after a fixed amount of work, so
  /// it does not grow with how fast the timed phase ran.
  double checkpoint_rss_mib = 0.0;

  void fail(std::string problem) {
    correct = false;
    problems.push_back(std::move(problem));
  }
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

// ----------------------------------------------------------- body probes --

/// Shared by every component body of one run: the ledger (typed calls and
/// cap-inbox drains are timed from inside the benchmark's own bodies) and
/// the typed-call outcome tally.
struct Probe {
  Ledger* ledger = nullptr;
  std::uint64_t calls = 0;
  std::uint64_t accepted = 0;
  std::uint64_t revoked = 0;
  std::uint64_t other_errors = 0;
  std::uint64_t bad_frames = 0;
};

/// What a generated component does on each job.
enum class Role : std::uint8_t {
  kCalc,      ///< 1 kHz producer; one-way typed call to its chain's mid
  kMid,       ///< 100 Hz stage; serves "ctl", drains it every job
  kDisplay,   ///< 4 Hz consumer of the mid stage
  kAgg,       ///< 10 Hz consumer of another bundle's producer
  kExtra,     ///< churn pool: consumer of some producer
  kProvider,  ///< federation: serves "rx" for remote binds, drains it
  kPlain,     ///< federation: compute only
};

/// Factory for the benchmark's component bodies. The body reads its cost
/// ("exec" property, ns) once, then per job: consume, read the first
/// in-port, write the first out-port, and do its role's call or drain.
std::unique_ptr<drcom::RtComponent> make_body(Role role, Probe& probe);

// ------------------------------------------------------------ generator --

struct GenComponent {
  drcom::ComponentDescriptor descriptor;
  Role role = Role::kPlain;
  std::string xml;  ///< write_descriptor() output the stack receives
};

struct GenBundle {
  std::string symbolic_name;
  std::string manifest_text;
  std::vector<std::string> bincodes;
  std::vector<std::size_t> members;  ///< indices into BaseSystem::components
};

/// The §4.2-style base system of steady and churn: chains calc -> mid ->
/// display (1 kHz / 100 Hz / 4 Hz) plus one cross-bundle aggregator per
/// bundle, spread over 2 CPUs at ~0.6 utilization each.
struct BaseSystem {
  std::vector<GenComponent> components;
  std::vector<GenBundle> bundles;
  /// churn only: standalone descriptors for parse + register/unregister.
  std::vector<GenComponent> extras;
  std::map<std::string, Role> roles;  ///< bincode -> body role
};

struct BaseShape {
  std::size_t bundles = 16;
  std::size_t chains_per_bundle = 5;
  std::size_t extras = 0;
  bool modes = false;  ///< declare degraded (half budget) and overload modes
};

BaseSystem generate_base(std::uint64_t seed, const BaseShape& shape);

/// `prefix` followed by `index` zero-padded to `width` digits.
std::string numbered(const char* prefix, std::size_t index, int width);
/// Fixes the declared cpuusage from the demand (x a 1.1 margin) and, with
/// `modes`, declares "degraded" (half budget) and "overload" (a whole CPU
/// each, which no CPU carrying two components can hold) modes.
void declare(GenComponent& component, bool modes);
/// One-way protocol with a single 8-byte method, ordinal 1.
cap::ProtocolSpec tick_protocol(const char* name);

/// Serializes and checks that the XML parses back to the same contract (a
/// timed call into the xml layer; the parse is what the stack will do).
bool roundtrip_xml(GenComponent& component, Ledger& ledger,
                   Samples& parse_ns);

osgi::BundleDefinition make_bundle(const GenBundle& bundle,
                                   const BaseSystem& system, Probe& probe,
                                   osgi::Manifest manifest);

/// Activator that registers the bodies for `bincodes` with the DRCR found in
/// the service registry (and unregisters them on stop).
std::function<std::unique_ptr<osgi::BundleActivator>()> activator_for(
    std::vector<std::pair<std::string, Role>> bincodes, Probe& probe);

// ------------------------------------------------------ admission timer --

/// Delegating ResolvingService installed with set_internal_resolver. Every
/// hook forwards unchanged (name() included, which rejection messages
/// embed), so decisions and the digest are those of the wrapped resolver.
class TimedResolver final : public drcom::ResolvingService {
 public:
  TimedResolver(std::unique_ptr<drcom::ResolvingService> inner,
                Ledger& ledger)
      : inner_(std::move(inner)), ledger_(&ledger) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] Result<void> admit(const drcom::ComponentDescriptor& candidate,
                                   const drcom::SystemView& view) override;
  [[nodiscard]] std::vector<std::string> revoke(
      const drcom::SystemView& view) override {
    return inner_->revoke(view);
  }
  void begin_batch(const drcom::SystemView& view) override {
    pending_ = 0;
    inner_->begin_batch(view);
  }
  void on_candidate_admitted(
      const drcom::ComponentDescriptor& candidate) override {
    ++pending_;
    inner_->on_candidate_admitted(candidate);
  }
  void end_batch(bool committed) override {
    if (committed) useful += pending_;
    pending_ = 0;
    inner_->end_batch(committed);
  }

  std::uint64_t calls = 0;
  std::uint64_t rejects = 0;
  std::uint64_t useful = 0;  ///< admitted in a batch that was committed
  Samples latency;           ///< traced runs only; ns per admit()

 private:
  std::unique_ptr<drcom::ResolvingService> inner_;
  Ledger* ledger_;
  std::uint64_t pending_ = 0;
};

// ---------------------------------------------------------------- stack --

/// Hashes every DRCR lifecycle event (virtual time, type, component, reason,
/// typed code) in delivery order.
void attach_digest(drcom::Drcr& drcr, Digest& digest);

/// Opens a drcom.resolve span around the DRCR's own bundle-event handling:
/// one listener registered before the DRCR, one after, so the DRCR's
/// listener runs between them. Returns nothing; the listeners live as long
/// as the framework.
class BundleEventSpans {
 public:
  void install_before(osgi::Framework& framework, Ledger& ledger);
  void install_after(osgi::Framework& framework);

 private:
  Ledger* ledger_ = nullptr;
  std::vector<std::int32_t> open_;
};

/// One simulated machine built the way an application would build it.
struct Stack {
  Stack(std::uint64_t seed, Ledger& ledger, bool rta, Digest* digest);

  rtos::SimEngine engine;
  rtos::RtKernel kernel;
  /// Declared before the framework: the framework's destructor still fires
  /// bundle events into these listeners.
  BundleEventSpans bundle_spans;
  osgi::Framework framework;
  std::unique_ptr<drcom::Drcr> drcr;
  TimedResolver* resolver = nullptr;
  std::vector<BundleId> bundle_ids;
};

/// Installs and starts every bundle; returns false (with `why`) when a call
/// fails or the deployed set is not fully ACTIVE afterwards.
bool deploy(Stack& stack, const BaseSystem& system, Probe& probe,
            Ledger& ledger, Samples* reconfig, std::string* why);

// ------------------------------------------------------------- readouts --

/// Counter values of one registry by name.
std::map<std::string, double> read_counters(const obs::MetricsRegistry& r);
void add_counters(std::map<std::string, double>& into,
                  const std::map<std::string, double>& from);
[[nodiscard]] double delta(const std::map<std::string, double>& after,
                           const std::map<std::string, double>& before,
                           const std::string& name);

/// VmHWM of this process in MiB.
[[nodiscard]] double peak_rss_mib();

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank q-quantile (0 when empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Clock resolution measured at start-up (ns).
[[nodiscard]] std::int64_t resolution_ns();

}  // namespace perfbench

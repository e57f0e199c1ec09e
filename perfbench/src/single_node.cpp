// steady and churn: one DRCR stack running the generated base system.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>

#include "cap/channel.hpp"
#include "rtos/ipc.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr SimDuration kWarmup = milliseconds(200);

/// Setups per untraced run; setup_s is their median. A traced run sets up
/// once, so its ledger and the stack's counters describe the same stack.
std::size_t setup_repeats(const Options& options) {
  return options.trace ? 1 : 15;
}

BaseShape base_shape(const Options& options, bool churn) {
  BaseShape shape;
  if (options.small) {
    shape.bundles = 4;
    shape.chains_per_bundle = 2;
  }
  if (churn) {
    shape.extras = options.small ? 8 : 32;
    shape.modes = true;
  }
  return shape;
}

/// Everything the single-node workloads share: generation, repeated setup,
/// the warm-up, and the ledger/probe of the measured stack.
struct Bench {
  Bench(const Options& opts, bool churn)
      : options(opts),
        ledger(opts.trace, resolution_ns()),
        system(generate_base(opts.seed, base_shape(opts, churn))),
        rta(churn) {
    probe.ledger = &ledger;
  }

  bool generate_checked(Report& report) {
    for (auto& component : system.components) {
      if (!roundtrip_xml(component, ledger, parse_ns)) ++parse_errors;
    }
    for (auto& component : system.extras) {
      if (!roundtrip_xml(component, ledger, parse_ns)) ++parse_errors;
    }
    if (parse_errors > 0) {
      report.fail(std::to_string(parse_errors) +
                  " generated descriptors do not round-trip through XML");
      return false;
    }
    return true;
  }

  /// Builds the stack `setup_repeats` times, keeping the last one, after
  /// discarded warm-up builds (kSetupWarmupS) that record nothing.
  bool set_up(Report& report) {
    Ledger quiet(false, 0);
    Probe quiet_probe;
    quiet_probe.ledger = &quiet;
    const std::size_t warmups = warmup_setups([&] {
      Stack warm(options.seed, quiet, rta, nullptr);
      std::string why;
      return deploy(warm, system, quiet_probe, quiet, nullptr, &why);
    });
    if (warmups == 0) {
      report.fail("warm-up setup failed");
      return false;
    }
    for (std::size_t r = 0; r < setup_repeats(options); ++r) {
      stack.reset();
      events = Digest{};
      const std::int64_t started = now_ns();
      stack = std::make_unique<Stack>(options.seed, ledger, rta, &events);
      if (!system.extras.empty()) {
        Probe* p = &probe;
        stack->drcr->factories().register_factory(
            "x.extra", [p] { return make_body(Role::kExtra, *p); });
      }
      std::string why;
      const bool ok = deploy(*stack, system, probe, ledger,
                             r + 1 == setup_repeats(options) ? &setup_calls
                                                             : nullptr,
                             &why);
      setup_s.push_back(static_cast<double>(now_ns() - started) / 1e9);
      if (!ok) {
        report.fail("setup: " + why);
        return false;
      }
    }
    return true;
  }

  /// One slice of simulated time, as an rtos.run span.
  void run(SimDuration amount) {
    Span span(ledger, "rtos.run", Layer::kRtosDispatch);
    run_events += static_cast<double>(
        stack->engine.run_until(stack->engine.now() + amount));
  }

  std::map<std::string, double> counters() const {
    return read_counters(stack->kernel.metrics());
  }

  /// Running totals behind jobs_per_s and msgs_per_s (registry handles,
  /// looked up once).
  RateGroups::Totals totals() {
    if (completions == nullptr) {
      obs::MetricsRegistry& metrics = stack->kernel.metrics();
      completions = metrics.counter("rtos.completions");
      received = metrics.counter("ipc.mailbox_received");
      accepted = metrics.counter("cap.accepted");
    }
    return {static_cast<double>(completions->value()),
            static_cast<double>(received->value() + accepted->value())};
  }

  const Options& options;
  Ledger ledger;
  Probe probe;
  BaseSystem system;
  bool rta;
  Samples parse_ns;
  std::uint64_t parse_errors = 0;
  std::unique_ptr<Stack> stack;
  Digest events;
  std::vector<double> setup_s;
  Samples setup_calls;  ///< the measured setup's Framework::start calls
  double run_events = 0;
  obs::Counter* completions = nullptr;
  obs::Counter* received = nullptr;
  obs::Counter* accepted = nullptr;
};

std::uint64_t live_slabs() {
  return rtos::MessagePool::instance().stats().live_slabs;
}

void report_common_layers(Report& report, Bench& bench, LayerInputs& in,
                          std::uint64_t reconfig_calls) {
  in.ledger = &bench.ledger;
  in.parse_ns = &bench.parse_ns;
  in.parse_errors = bench.parse_errors;
  in.life = bench.counters();
  in.reconfig_calls = reconfig_calls;
  in.admit_calls = bench.stack->resolver->calls;
  in.admit_rejects = bench.stack->resolver->rejects;
  in.admit_useful = bench.stack->resolver->useful;
  in.admit_ns = bench.stack->resolver->latency;
  report_layers(report, in);
}

/// Typed calls may only be accepted or refused as revoked, and every frame a
/// mid stage drained must carry the declared payload. (Per-connection
/// conservation is oracle invariant 12.)
void check_typed_calls(const Bench& bench, Report& report) {
  if (bench.probe.bad_frames > 0) {
    report.fail(std::to_string(bench.probe.bad_frames) + " malformed frames");
  }
  if (bench.probe.other_errors > 0) {
    report.fail(std::to_string(bench.probe.other_errors) +
                " typed calls refused with an unexpected code");
  }
}

}  // namespace

// ------------------------------------------------------------------ steady --

void run_steady(const Options& options, Report& report) {
  Bench bench(options, /*churn=*/false);
  if (!bench.generate_checked(report) || !bench.set_up(report)) return;
  Stack& stack = *bench.stack;
  Ledger& ledger = bench.ledger;
  bench.run(kWarmup);

  // Timed phase: nothing but simulated time, in 10 ms slices.
  const auto before = bench.counters();
  const Probe probe_before = bench.probe;
  ledger.set_phase(Phase::kTimed);
  double slabs_peak = static_cast<double>(live_slabs());
  const double events_before = bench.run_events;
  TimedLoop loop(options.seconds, options.small ? 20 : 200);
  RateGroups rates(1, bench.totals());
  while (loop.more()) {
    ledger.set_op(static_cast<std::uint32_t>(loop.steps()));
    bench.run(milliseconds(10));
    rates.step([&] { return bench.totals(); });
    if (ledger.on()) {
      slabs_peak = std::max(slabs_peak, static_cast<double>(live_slabs()));
    }
    if (loop.step()) {
      report.digest = checkpoint_digest(bench.events, bench.counters(),
                                        stack.engine.now(), report);
    }
  }
  const double phase_s = loop.elapsed_s();
  const auto after = bench.counters();
  ledger.set_phase(Phase::kAfter);
  check_oracle(*stack.drcr, "after the timed phase", report);
  check_typed_calls(bench, report);
  const std::uint64_t typed_calls = bench.probe.calls - probe_before.calls;
  const std::uint64_t typed_failed =
      (bench.probe.revoked - probe_before.revoked) +
      (bench.probe.other_errors - probe_before.other_errors);
  if (stack.drcr->active_count() != bench.system.components.size()) {
    report.fail("not every component stayed ACTIVE through the timed phase");
  }

  // Operator probe: steady's reconfiguration metrics come from calls made
  // after the timed phase, dealt in decks of kProbePairs disable/enable pairs
  // of displays plus one stop/start of a bundle at a seeded place in the
  // deck. A bundle stop costs about twice a start and twenty times a toggle
  // and is 1 call in 96, so the p99 reads the fastest few stops and the p50
  // the fastest few disables. A shared host slows for seconds or minutes at
  // a time with short fast spells between; the lowest quantiles of a class
  // of calls still catch those spells, while its median and tail move by up
  // to the host's slow-down.
  constexpr std::size_t kProbePairs = 47;
  Reconfig reconfig;
  std::vector<std::string> displays;
  for (const GenComponent& c : bench.system.components) {
    if (c.role == Role::kDisplay) displays.push_back(c.descriptor.name);
  }
  Rng rng(options.seed ^ 0x57eadULL);
  auto probe_call = [&](const char* name, Layer layer, auto&& fn) {
    const std::int64_t started = now_ns();
    Result<void> result = [&] {
      Span span(ledger, name, layer);
      return fn();
    }();
    reconfig.all.add(now_ns() - started);
    ++reconfig.attempted;
    if (!result.ok()) ++reconfig.failed;
    bench.run(milliseconds(1));
  };
  // Bundles are stopped in seeded rounds that each visit every bundle once,
  // so every bundle weighs the same in the sample.
  std::vector<BundleId> bundle_order;
  // At least 12 decks (1152 calls, so at least 10 lie beyond the p99) and
  // at least --seconds of host time.
  const std::int64_t probe_started = now_ns();
  for (std::size_t deck = 0;
       deck < 12 || static_cast<double>(now_ns() - probe_started) / 1e9 <
                        options.seconds;
       ++deck) {
    const auto bundle_at = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(kProbePairs) - 1));
    for (std::size_t i = 0; i < kProbePairs; ++i) {
      if (i == bundle_at) {
        if (bundle_order.empty()) {
          bundle_order = stack.bundle_ids;
          for (std::size_t j = bundle_order.size() - 1; j > 0; --j) {
            std::swap(bundle_order[j],
                      bundle_order[static_cast<std::size_t>(
                          rng.uniform(0, static_cast<std::int64_t>(j)))]);
          }
        }
        const BundleId id = bundle_order.back();
        bundle_order.pop_back();
        probe_call("osgi.stop", Layer::kOsgi,
                   [&] { return stack.framework.stop(id); });
        probe_call("osgi.start", Layer::kOsgi,
                   [&] { return stack.framework.start(id); });
      }
      const std::string& name = displays[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(displays.size()) - 1))];
      probe_call("drcom.disable", Layer::kDrcomResolve,
                 [&] { return stack.drcr->disable_component(name); });
      probe_call("drcom.enable", Layer::kDrcomResolve,
                 [&] { return stack.drcr->enable_component(name); });
    }
  }
  if (stack.drcr->active_count() != bench.system.components.size()) {
    report.fail("the operator probe left components inactive");
  }
  check_oracle(*stack.drcr, "after the operator probe", report);

  report.attempted = typed_calls + reconfig.attempted;
  report.failed = typed_failed + reconfig.failed;
  report_end_to_end(report, bench.setup_s, rates, phase_s, reconfig);
  report.notes.push_back(
      "deadline_miss_ratio = " +
      std::to_string(delta(after, before, "rtos.deadline_misses") /
                     std::max(1.0, delta(after, before, "rtos.releases"))) +
      " ratio");

  LayerInputs in;
  in.before = before;
  in.after = after;
  in.run_events = bench.run_events - events_before;
  in.live_slabs_peak = slabs_peak;
  in.phase_ns = phase_s * 1e9;
  const Ledger::Totals& timed = ledger.totals(Phase::kTimed);
  in.target_self_ns =
      timed.self_ns[static_cast<std::size_t>(Layer::kRtosDispatch)] +
      timed.self_ns[static_cast<std::size_t>(Layer::kIpc)] +
      timed.self_ns[static_cast<std::size_t>(Layer::kCap)];

  // Teardown through the framework, like an operator shutting down.
  for (const BundleId id : stack.bundle_ids) {
    Span span(ledger, "osgi.stop", Layer::kOsgi);
    if (!stack.framework.stop(id).ok()) report.fail("teardown stop failed");
  }
  report_common_layers(report, bench, in,
                       bench.setup_calls.size() + reconfig.attempted +
                           stack.bundle_ids.size());
  write_trace(ledger, options, report);
}

// ------------------------------------------------------------------- churn --

namespace {

enum class Op : std::uint8_t {
  kBundle,     ///< Framework::stop / start of one bundle
  kRegister,   ///< parse + Drcr::register_component / unregister_component
  kToggle,     ///< Drcr::disable_component / enable_component
  kMode,       ///< committed base <-> degraded transition
  kOverload,   ///< infeasible overload transition (intended refusal)
  kProvider,   ///< disable / enable a capability provider (revoke, rebind)
};

/// The op script is dealt in decks of 20: every deck holds exactly this mix,
/// in a seeded order, so any stretch of the script has the same proportions.
constexpr std::array<std::pair<Op, int>, 6> kDeck = {{{Op::kBundle, 2},
                                                      {Op::kRegister, 5},
                                                      {Op::kToggle, 5},
                                                      {Op::kMode, 2},
                                                      {Op::kOverload, 2},
                                                      {Op::kProvider, 4}}};

constexpr std::size_t kDeckSize = 20;

class OpScript {
 public:
  explicit OpScript(std::uint64_t seed) : rng_(seed) {}
  Op next() {
    if (next_ == deck_.size()) {
      deck_.clear();
      for (const auto& [op, count] : kDeck) deck_.insert(deck_.end(), count, op);
      for (std::size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[static_cast<std::size_t>(rng_.uniform(
                                0, static_cast<std::int64_t>(i)))]);
      }
      next_ = 0;
    }
    return deck_[next_++];
  }

 private:
  Rng rng_;
  std::vector<Op> deck_;
  std::size_t next_ = 0;
};

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& from) {
  return from[static_cast<std::size_t>(
      rng.uniform(0, static_cast<std::int64_t>(from.size()) - 1))];
}

}  // namespace

void run_churn(const Options& options, Report& report) {
  Bench bench(options, /*churn=*/true);
  if (!bench.generate_checked(report) || !bench.set_up(report)) return;
  Stack& stack = *bench.stack;
  drcom::Drcr& drcr = *stack.drcr;
  Ledger& ledger = bench.ledger;
  const BaseSystem& system = bench.system;
  bench.run(kWarmup);

  // Op-script state: which bundles run, which extras are registered, and
  // which components the script itself disabled.
  std::vector<bool> bundle_up(system.bundles.size(), true);
  std::vector<bool> extra_up(system.extras.size(), false);
  std::set<std::string> disabled;
  std::set<std::string> disabled_providers;
  std::string mode;
  std::optional<std::size_t> stopped_bundle;  ///< between a pair's two ops
  constexpr std::size_t kMaxDisabled = 16;
  constexpr std::size_t kMaxProvidersDown = 4;

  Reconfig reconfig;
  Samples commit_ns;
  Samples reject_ns;
  std::uint64_t commits = 0;
  std::uint64_t rejections = 0;
  auto call = [&](const char* name, Layer layer, auto&& fn,
                  bool refusal_intended) -> Result<void> {
    const std::int64_t started = now_ns();
    Result<void> result = [&] {
      Span span(ledger, name, layer);
      return fn();
    }();
    const std::int64_t elapsed = now_ns() - started;
    reconfig.all.add(elapsed);
    ++reconfig.attempted;
    if (!result.ok()) {
      if (refusal_intended && result.error().code == "drcom.mode_rejected") {
        ++reconfig.intended_refusals;
      } else {
        ++reconfig.failed;
        if (reconfig.failed <= 5) {
          report.notes.push_back(std::string("unexpected refusal of ") + name +
                                 ": " + result.error().to_string());
        }
      }
    }
    return result;
  };
  // Candidates among components of running bundles.
  auto live_members = [&](Role role, bool want_disabled,
                          const std::set<std::string>& set) {
    std::vector<std::string> out;
    for (std::size_t b = 0; b < system.bundles.size(); ++b) {
      if (!bundle_up[b]) continue;
      for (const std::size_t m : system.bundles[b].members) {
        const GenComponent& c = system.components[m];
        const bool is_target =
            role == Role::kMid ? c.role == Role::kMid
                               : (c.role == Role::kDisplay || c.role == Role::kAgg);
        if (is_target && set.contains(c.descriptor.name) == want_disabled) {
          out.push_back(c.descriptor.name);
        }
      }
    }
    return out;
  };
  auto forget_bundle = [&](std::size_t b) {
    for (const std::size_t m : system.bundles[b].members) {
      disabled.erase(system.components[m].descriptor.name);
      disabled_providers.erase(system.components[m].descriptor.name);
    }
  };

  const auto before = bench.counters();
  const Probe probe_before = bench.probe;
  const double events_before = bench.run_events;
  ledger.set_phase(Phase::kTimed);
  Rng rng(options.seed ^ 0xc4u);
  OpScript script(options.seed ^ 0xdec4u);
  TimedLoop loop(options.seconds, options.small ? 100 : 1500);
  RateGroups rates(kDeckSize, bench.totals());
  while (loop.more()) {
    ledger.set_op(static_cast<std::uint32_t>(loop.steps()));
    const Op op = script.next();
    switch (op) {
      case Op::kBundle: {
        // Bundle ops come in pairs within a deck: stop a running bundle,
        // then start the same one again.
        if (stopped_bundle.has_value()) {
          const std::size_t b = *stopped_bundle;
          if (call("osgi.start", Layer::kOsgi,
                   [&] { return stack.framework.start(stack.bundle_ids[b]); },
                   false)) {
            bundle_up[b] = true;
          }
          stopped_bundle.reset();
          break;
        }
        const auto b = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(bundle_up.size()) - 1));
        if (call("osgi.stop", Layer::kOsgi,
                 [&] { return stack.framework.stop(stack.bundle_ids[b]); },
                 false)) {
          bundle_up[b] = false;
          forget_bundle(b);
          stopped_bundle = b;
        }
        break;
      }
      case Op::kRegister: {
        const auto x = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(system.extras.size()) - 1));
        const GenComponent& extra = system.extras[x];
        if (extra_up[x]) {
          if (call("drcom.unregister", Layer::kDrcomResolve,
                   [&] { return drcr.unregister_component(extra.descriptor.name); },
                   false)) {
            extra_up[x] = false;
          }
          break;
        }
        const std::int64_t parse_started = now_ns();
        Result<drcom::ComponentDescriptor> parsed = [&] {
          Span span(ledger, "xml.parse", Layer::kXml);
          return drcom::parse_descriptor(extra.xml);
        }();
        bench.parse_ns.add(now_ns() - parse_started);
        if (!parsed.ok()) {
          ++bench.parse_errors;
          report.fail("extra descriptor failed to parse: " +
                      parsed.error().to_string());
          break;
        }
        if (call("drcom.register", Layer::kDrcomResolve,
                 [&] { return drcr.register_component(std::move(parsed).take()); },
                 false)) {
          extra_up[x] = true;
        }
        break;
      }
      case Op::kToggle:
      case Op::kProvider: {
        const bool provider = op == Op::kProvider;
        const Role role = provider ? Role::kMid : Role::kDisplay;
        std::set<std::string>& off_set = provider ? disabled_providers : disabled;
        const std::size_t limit = provider ? kMaxProvidersDown : kMaxDisabled;
        const std::vector<std::string> off = live_members(role, true, off_set);
        const bool enable =
            off.size() >= limit || (!off.empty() && rng.uniform(0, 1) == 0);
        if (enable) {
          const std::string name = pick(rng, off);
          if (call("drcom.enable", Layer::kDrcomResolve,
                   [&] { return drcr.enable_component(name); }, false)) {
            off_set.erase(name);
          }
          break;
        }
        const std::vector<std::string> on = live_members(role, false, off_set);
        if (on.empty()) break;
        const std::string name = pick(rng, on);
        if (call("drcom.disable", Layer::kDrcomResolve,
                 [&] { return drcr.disable_component(name); }, false)) {
          off_set.insert(name);
        }
        break;
      }
      case Op::kMode: {
        const std::string target = mode.empty() ? "degraded" : "";
        const std::int64_t started = now_ns();
        Result<void> result = call(
            "drcom.transition", Layer::kDrcomMode,
            [&] { return drcr.mode_controller().transition_to(target); }, true);
        const std::int64_t elapsed = now_ns() - started;
        if (result.ok()) {
          mode = target;
          ++commits;
          commit_ns.add(elapsed);
        } else {
          ++rejections;
          reject_ns.add(elapsed);
        }
        break;
      }
      case Op::kOverload: {
        const std::int64_t started = now_ns();
        Result<void> result = call(
            "drcom.transition", Layer::kDrcomMode,
            [&] { return drcr.mode_controller().transition_to("overload"); },
            true);
        const std::int64_t elapsed = now_ns() - started;
        if (result.ok()) {
          report.fail("the infeasible overload mode was committed");
          mode = "overload";
        } else {
          ++rejections;
          reject_ns.add(elapsed);
        }
        break;
      }
    }
    bench.run(milliseconds(1));
    rates.step([&] { return bench.totals(); });
    if (loop.step()) {
      report.digest = checkpoint_digest(bench.events, bench.counters(),
                                        stack.engine.now(), report);
    }
  }
  const double phase_s = loop.elapsed_s();
  const auto after = bench.counters();
  ledger.set_phase(Phase::kAfter);
  check_oracle(drcr, "after the timed phase", report);
  check_typed_calls(bench, report);

  const std::uint64_t typed_calls = bench.probe.calls - probe_before.calls;
  const std::uint64_t typed_revoked = bench.probe.revoked - probe_before.revoked;
  const std::uint64_t typed_failed =
      bench.probe.other_errors - probe_before.other_errors;
  report.attempted = typed_calls + reconfig.attempted;
  report.failed = typed_failed + reconfig.failed;
  report_end_to_end(report, bench.setup_s, rates, phase_s, reconfig);
  report.notes.push_back("intended refusals: " +
                         std::to_string(reconfig.intended_refusals) +
                         " drcom.mode_rejected, " +
                         std::to_string(typed_revoked) +
                         " typed calls on revoked routes");
  report.notes.push_back("mode transitions committed " +
                         std::to_string(commits) + ", rejected " +
                         std::to_string(rejections));

  LayerInputs in;
  in.before = before;
  in.after = after;
  in.run_events = bench.run_events - events_before;
  in.live_slabs_peak = static_cast<double>(live_slabs());
  in.phase_ns = phase_s * 1e9;
  const Ledger::Totals& timed = ledger.totals(Phase::kTimed);
  for (const Layer layer : {Layer::kXml, Layer::kOsgi, Layer::kDrcomResolve,
                            Layer::kDrcomAdmission, Layer::kDrcomMode}) {
    in.target_self_ns += timed.self_ns[static_cast<std::size_t>(layer)];
  }
  report.layer("drcom.mode.commit_p50_us", commit_ns.quantile(0.5) / 1e3, "us");
  report.layer("drcom.mode.reject_p50_us", reject_ns.quantile(0.5) / 1e3, "us");
  for (std::size_t b = 0; b < stack.bundle_ids.size(); ++b) {
    if (!bundle_up[b]) continue;
    Span span(ledger, "osgi.stop", Layer::kOsgi);
    if (!stack.framework.stop(stack.bundle_ids[b]).ok()) {
      report.fail("teardown stop failed");
    }
  }
  report_common_layers(report, bench, in,
                       bench.setup_calls.size() + reconfig.attempted +
                           stack.bundle_ids.size());
  write_trace(ledger, options, report);
}

}  // namespace perfbench

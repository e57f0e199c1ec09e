// fed: a federation of single-CPU-group nodes on one sequential engine, one
// shard per node, with components placed by the FederationCoordinator and
// cross-node traffic over NodeChannels and remote capability binds.
#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <memory>

#include "fed/coordinator.hpp"
#include "fed/federation.hpp"
#include "osgi/manifest.hpp"
#include "rtos/ipc.hpp"
#include "testing/oracle.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kWorkersPerNode = 12;
constexpr SimDuration kWindow = milliseconds(2);
constexpr int kRingBurst = 4;
constexpr const char* kInbox = "fed.inbox";
constexpr const char* kImplManifest =
    "Bundle-SymbolicName: perf.fedimpl\nBundle-Version: 1.0.0\n"
    "Bundle-Name: perfbench federation node code\n";

struct FedInputs {
  std::vector<GenComponent> workers;    ///< placed by the coordinator
  std::vector<GenComponent> providers;  ///< one pinned per node, serves "rx"
};

FedInputs generate_fed(std::uint64_t seed, std::size_t nodes) {
  Rng rng(seed * 0xd1b54a32d192ed03ULL + 0xfed);
  FedInputs out;
  constexpr std::array<double, 3> kRates = {50.0, 100.0, 200.0};
  for (std::size_t i = 0; i < nodes * kWorkersPerNode; ++i) {
    GenComponent worker;
    worker.role = Role::kPlain;
    drcom::ComponentDescriptor& d = worker.descriptor;
    d.name = numbered("w", i, 4);
    d.description = "perfbench worker";
    d.type = rtos::TaskType::kPeriodic;
    d.bincode = "fed.worker";
    const auto rate = static_cast<std::size_t>(rng.uniform(0, 2));
    const double hz = kRates[rate];
    d.periodic = drcom::PeriodicSpec{hz, static_cast<CpuId>(i % 2),
                                     static_cast<int>(5 - rate)};
    // ~2% of a CPU each, jittered.
    const double demand = 0.02 * (0.8 + 0.4 * rng.next_double());
    d.properties.set("exec",
                     static_cast<std::int64_t>(std::llround(demand / hz * 1e9)));
    declare(worker, false);
    out.workers.push_back(std::move(worker));
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    GenComponent provider;
    provider.role = Role::kProvider;
    drcom::ComponentDescriptor& d = provider.descriptor;
    d.name = numbered("p", n, 3);
    d.description = "perfbench remote-call provider";
    d.type = rtos::TaskType::kPeriodic;
    d.bincode = "fed.prov";
    d.periodic = drcom::PeriodicSpec{100.0, 0, 1};
    d.properties.set("exec", static_cast<std::int64_t>(
                                 15'000 + rng.uniform(0, 10'000)));
    d.protocols.push_back(tick_protocol("rx"));
    d.exposes.push_back({"rx", 64});
    declare(provider, false);
    out.providers.push_back(std::move(provider));
  }
  for (auto& c : out.workers) c.xml = drcom::write_descriptor(c.descriptor);
  for (auto& c : out.providers) c.xml = drcom::write_descriptor(c.descriptor);
  return out;
}

enum class StreamOp : std::uint8_t { kMigrate, kFailover, kQuiet };
constexpr std::size_t kStreamDeckSize = 10;  ///< windows per deck

class Stream {
 public:
  explicit Stream(std::uint64_t seed) : rng_(seed) {}
  StreamOp next() {
    if (next_ == deck_.size()) {
      deck_.assign(6, StreamOp::kMigrate);
      deck_.push_back(StreamOp::kFailover);
      deck_.resize(kStreamDeckSize, StreamOp::kQuiet);
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
  std::vector<StreamOp> deck_;
  std::size_t next_ = 0;
};

fed::FederationConfig federation_config(std::uint64_t seed,
                                        std::size_t nodes) {
  fed::FederationConfig config;
  config.nodes = nodes;
  config.engine = rtos::EngineKind::kSequential;
  config.kernel.cpus = 2;
  config.kernel.seed = seed;
  config.inbox_capacity = 64;
  return config;
}

/// One deployed federation: nodes with their code bundle started, pinned
/// providers registered, workers placed, remote binds made.
struct World {
  std::unique_ptr<fed::Federation> federation;
  std::unique_ptr<fed::FederationCoordinator> coordinator;
  std::vector<TimedResolver*> resolvers;
  std::vector<BundleId> impl_bundles;
  std::vector<std::pair<std::size_t, cap::Connection*>> remote;  ///< (client node, conn)
  std::vector<std::size_t> provider_of_client;  ///< provider node per remote
};

Result<drcom::ComponentDescriptor> parse_timed(const GenComponent& c,
                                               Ledger& ledger,
                                               Samples& parse_ns) {
  const std::int64_t started = now_ns();
  Result<drcom::ComponentDescriptor> parsed = [&] {
    Span span(ledger, "xml.parse", Layer::kXml);
    return drcom::parse_descriptor(c.xml);
  }();
  parse_ns.add(now_ns() - started);
  return parsed;
}

bool build_world(World& world, const Options& options, std::size_t nodes,
                 const FedInputs& inputs, Ledger& ledger, Probe& probe,
                 Digest& events, Samples& parse_ns, std::uint64_t& parse_errors,
                 Samples* place_ns, std::string* why) {
  world.federation = std::make_unique<fed::Federation>(
      federation_config(options.seed, nodes));
  fed::Federation& federation = *world.federation;
  for (std::size_t n = 0; n < nodes; ++n) {
    fed::Node& node = federation.node(n);
    node.kernel->metrics().enable();
    auto timed = std::make_unique<TimedResolver>(
        std::make_unique<drcom::UtilizationBudgetResolver>(
            federation.config().cpu_budget),
        ledger);
    world.resolvers.push_back(timed.get());
    node.drcr->set_internal_resolver(std::move(timed));
    attach_digest(*node.drcr, events);
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    fed::Node& node = federation.node(n);
    Result<osgi::Manifest> manifest = [&] {
      Span span(ledger, "osgi.manifest", Layer::kOsgi);
      return osgi::Manifest::parse(kImplManifest);
    }();
    if (!manifest.ok()) {
      *why = manifest.error().to_string();
      return false;
    }
    osgi::BundleDefinition definition;
    definition.manifest = std::move(manifest).take();
    definition.activator_factory = activator_for(
        {{"fed.worker", Role::kPlain}, {"fed.prov", Role::kProvider}}, probe);
    Result<BundleId> installed = [&] {
      Span span(ledger, "osgi.install", Layer::kOsgi);
      return node.framework.install(std::move(definition));
    }();
    if (!installed.ok()) {
      *why = installed.error().to_string();
      return false;
    }
    Result<void> started = [&] {
      Span span(ledger, "osgi.start", Layer::kOsgi);
      return node.framework.start(installed.value());
    }();
    if (!started.ok()) {
      *why = started.error().to_string();
      return false;
    }
    world.impl_bundles.push_back(installed.value());
  }
  world.coordinator = std::make_unique<fed::FederationCoordinator>(federation);
  // Providers are pinned: remote binds target them by node.
  for (std::size_t n = 0; n < nodes; ++n) {
    auto parsed = parse_timed(inputs.providers[n], ledger, parse_ns);
    if (!parsed.ok()) {
      ++parse_errors;
      *why = parsed.error().to_string();
      return false;
    }
    Result<void> registered = [&] {
      Span span(ledger, "drcom.register", Layer::kDrcomResolve);
      return federation.node(n).drcr->register_component(
          std::move(parsed).take());
    }();
    if (!registered.ok()) {
      *why = registered.error().to_string();
      return false;
    }
  }
  world.coordinator->publish_all();
  for (const GenComponent& worker : inputs.workers) {
    auto parsed = parse_timed(worker, ledger, parse_ns);
    if (!parsed.ok()) {
      ++parse_errors;
      *why = parsed.error().to_string();
      return false;
    }
    const std::int64_t started = now_ns();
    Result<fed::NodeIndex> placed = [&] {
      Span span(ledger, "fed.place", Layer::kFed);
      return world.coordinator->place(parsed.value());
    }();
    if (place_ns != nullptr) place_ns->add(now_ns() - started);
    if (!placed.ok()) {
      *why = "place: " + placed.error().to_string();
      return false;
    }
  }
  std::size_t active = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    active += federation.node(n).drcr->active_count();
  }
  if (active != inputs.workers.size() + inputs.providers.size()) {
    *why = std::to_string(active) + " of " +
           std::to_string(inputs.workers.size() + inputs.providers.size()) +
           " components ACTIVE";
    return false;
  }
  // Remote binds: client on node n -> provider on node n + shift, so every
  // provider serves exactly one remote client.
  const std::size_t shift = 1 + options.seed % (nodes - 1);
  for (std::size_t n = 0; n < nodes; ++n) {
    const std::size_t target = (n + shift) % nodes;
    Result<cap::Connection*> bound = [&] {
      Span span(ledger, "fed.bind", Layer::kFed);
      return federation.bind_capability(n, numbered("r", n, 3), target,
                                        inputs.providers[target].descriptor.name,
                                        "rx");
    }();
    if (!bound.ok()) {
      *why = "bind: " + bound.error().to_string();
      return false;
    }
    world.remote.emplace_back(n, bound.value());
    world.provider_of_client.push_back(target);
  }
  return true;
}

std::map<std::string, double> fed_counters(World& world) {
  std::map<std::string, double> out;
  fed::Federation& federation = *world.federation;
  for (std::size_t n = 0; n < federation.size(); ++n) {
    add_counters(out, read_counters(federation.node(n).kernel->metrics()));
  }
  add_counters(out, read_counters(world.coordinator->metrics()));
  const rtos::ChannelStats channels = federation.channel_totals();
  out["fed.channel_sent"] = static_cast<double>(channels.sent);
  out["fed.channel_arrived"] = static_cast<double>(channels.arrived);
  out["fed.channel_rejected"] = static_cast<double>(channels.rejected);
  out["fed.channel_severed"] = static_cast<double>(channels.severed);
  return out;
}

}  // namespace

void run_fed(const Options& options, Report& report) {
  const std::size_t nodes = options.small ? 8 : 64;
  Ledger ledger(options.trace, resolution_ns());
  Probe probe;
  probe.ledger = &ledger;
  const FedInputs inputs = generate_fed(options.seed, nodes);

  Samples parse_ns;
  std::uint64_t parse_errors = 0;
  Samples place_ns;
  std::vector<double> setup_s;
  Digest events;
  World world;
  {
    Ledger quiet(false, 0);
    Probe quiet_probe;
    quiet_probe.ledger = &quiet;
    Digest unused;
    Samples unused_parse;
    std::uint64_t unused_errors = 0;
    const std::size_t warmups = warmup_setups([&] {
      World warm;
      std::string why;
      const bool ok = build_world(warm, options, nodes, inputs, quiet,
                                  quiet_probe, unused, unused_parse,
                                  unused_errors, nullptr, &why);
      warm.coordinator.reset();  // before the federation it points into
      return ok;
    });
    if (warmups == 0) {
      report.fail("warm-up setup failed");
      return;
    }
  }
  const std::size_t repeats = options.trace ? 1 : 15;
  for (std::size_t r = 0; r < repeats; ++r) {
    world.coordinator.reset();  // before the federation it points into
    world = World{};
    events = Digest{};
    place_ns = Samples{};
    std::string why;
    const std::int64_t started = now_ns();
    const bool ok = build_world(world, options, nodes, inputs, ledger, probe,
                                events, parse_ns, parse_errors, &place_ns,
                                &why);
    setup_s.push_back(static_cast<double>(now_ns() - started) / 1e9);
    if (!ok) {
      report.fail("setup: " + why);
      return;
    }
  }
  fed::Federation& federation = *world.federation;
  fed::FederationCoordinator& coordinator = *world.coordinator;
  double run_events = 0;
  auto run = [&](SimDuration amount) {
    Span span(ledger, "rtos.run", Layer::kRtosDispatch);
    run_events += static_cast<double>(federation.advance(amount));
  };
  std::uint64_t inbox_received = 0;
  std::uint64_t bad_payloads = 0;
  auto drain_inboxes = [&] {
    Span span(ledger, "ipc.drain", Layer::kIpc);
    for (std::size_t n = 0; n < nodes; ++n) {
      fed::Node& node = federation.node(n);
      while (auto message = node.kernel->mailbox_try_receive(*node.inbox)) {
        ++inbox_received;
        if (message->size() != sizeof(std::uint64_t)) ++bad_payloads;
      }
    }
  };
  run(milliseconds(50));
  drain_inboxes();

  std::vector<rtos::NodeChannel*> ring(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    ring[n] = &federation.channel(n, (n + 1) % nodes, kInbox);
  }

  Reconfig reconfig;
  Samples migrate_ns;
  std::uint64_t migrations = 0;
  std::uint64_t migration_failures = 0;
  std::uint64_t sends = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t remote_calls = 0;
  std::uint64_t remote_failures = 0;
  std::deque<std::size_t> down;
  std::uint64_t payload = 0;
  auto reconfigure = [&](const char* name, auto&& fn) -> Result<void> {
    const std::int64_t started = now_ns();
    Result<void> result = [&] {
      Span span(ledger, name, Layer::kFed);
      return fn();
    }();
    reconfig.all.add(now_ns() - started);
    ++reconfig.attempted;
    if (!result.ok()) {
      ++reconfig.failed;
      if (reconfig.failed <= 5) {
        report.notes.push_back(std::string("unexpected refusal of ") + name +
                               ": " + result.error().to_string());
      }
    }
    return result;
  };

  const auto before = fed_counters(world);
  const double events_before = run_events;
  ledger.set_phase(Phase::kTimed);
  Rng rng(options.seed ^ 0xfedfedULL);
  Stream stream(options.seed ^ 0x57eaULL);
  TimedLoop loop(options.seconds, options.small ? 50 : 500);
  std::vector<std::array<obs::Counter*, 3>> handles;
  for (std::size_t n = 0; n < nodes; ++n) {
    obs::MetricsRegistry& metrics = federation.node(n).kernel->metrics();
    handles.push_back({metrics.counter("rtos.completions"),
                       metrics.counter("ipc.mailbox_received"),
                       metrics.counter("cap.accepted")});
  }
  auto totals = [&] {
    RateGroups::Totals out;
    for (const auto& h : handles) {
      out.jobs += static_cast<double>(h[0]->value());
      out.msgs += static_cast<double>(h[1]->value() + h[2]->value());
    }
    out.msgs += static_cast<double>(federation.channel_totals().arrived);
    return out;
  };
  RateGroups rates(kStreamDeckSize, totals());
  while (loop.more()) {
    ledger.set_op(static_cast<std::uint32_t>(loop.steps()));
    {
      Span span(ledger, "fed.send", Layer::kFed);
      auto send = [&](rtos::NodeChannel& channel) {
        ++payload;
        ++sends;
        if (!channel.send(rtos::Message(&payload, sizeof(payload)))) {
          ++send_failures;
        }
      };
      for (std::size_t n = 0; n < nodes; ++n) {
        if (!federation.alive(n) || !federation.alive((n + 1) % nodes)) continue;
        for (int b = 0; b < kRingBurst; ++b) send(*ring[n]);
      }
      for (std::size_t m = 0; m < nodes / 2; ++m) {
        const auto from = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(nodes) - 1));
        const auto to = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(nodes) - 1));
        if (from == to || !federation.alive(from) || !federation.alive(to)) {
          continue;
        }
        send(federation.channel(from, to, kInbox));
      }
      for (std::size_t i = 0; i < world.remote.size(); ++i) {
        const auto [client_node, connection] = world.remote[i];
        if (!federation.alive(client_node) ||
            !federation.alive(world.provider_of_client[i])) {
          continue;
        }
        std::array<std::byte, 8> bytes{};
        std::memcpy(bytes.data(), &payload, sizeof(payload));
        ++remote_calls;
        if (connection->call(1, bytes) != ErrorCode::kNone) ++remote_failures;
      }
    }
    run(kWindow);
    drain_inboxes();

    // The reconfiguration stream between windows, dealt in decks of ten
    // windows: six migrations, one failover step, three quiet windows.
    const StreamOp stream_op = stream.next();
    if (stream_op == StreamOp::kMigrate) {
      // Redraw until the worker's node and the target are distinct and up
      // (at most two of the nodes are ever down).
      const GenComponent* worker = nullptr;
      std::size_t target = 0;
      for (int attempt = 0; attempt < 64 && worker == nullptr; ++attempt) {
        const GenComponent& candidate = inputs.workers[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(inputs.workers.size()) - 1))];
        const auto source = coordinator.node_of(candidate.descriptor.name);
        target = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(nodes) - 1));
        if (source.has_value() && *source != target &&
            federation.alive(*source) && federation.alive(target)) {
          worker = &candidate;
        }
      }
      if (worker != nullptr) {
        const std::int64_t started = now_ns();
        Result<void> moved = reconfigure("fed.migrate", [&] {
          return coordinator.migrate(worker->descriptor.name, target);
        });
        migrate_ns.add(now_ns() - started);
        ++migrations;
        if (!moved.ok()) ++migration_failures;
      }
    } else if (stream_op == StreamOp::kFailover) {
      if (!down.empty() && (down.size() >= 2 || rng.uniform(0, 1) == 0)) {
        const std::size_t n = down.front();
        down.pop_front();
        (void)reconfigure("fed.join", [&] {
          federation.join(n);
          return Result<void>::success();
        });
      } else {
        std::size_t n = 0;
        do {
          n = static_cast<std::size_t>(
              rng.uniform(0, static_cast<std::int64_t>(nodes) - 1));
        } while (!federation.alive(n));
        down.push_back(n);
        (void)reconfigure("fed.leave", [&] {
          federation.leave(n);
          return Result<void>::success();
        });
      }
    }
    rates.step(totals);
    if (loop.step()) {
      report.digest = checkpoint_digest(events, fed_counters(world),
                                        federation.now(), report);
    }
  }
  const double phase_s = loop.elapsed_s();
  const auto after = fed_counters(world);
  ledger.set_phase(Phase::kAfter);

  if (const auto violation = testing::check_federation(federation)) {
    report.fail("check_federation: " + violation->invariant + ": " +
                violation->detail);
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    check_oracle(*federation.node(n).drcr, "on node " + std::to_string(n),
                 report);
  }
  if (bad_payloads > 0 || probe.bad_frames > 0) {
    report.fail("malformed messages delivered");
  }
  if (probe.calls > 0) report.fail("fed components made typed calls");

  report.attempted = reconfig.attempted + sends + remote_calls;
  report.failed = reconfig.failed + send_failures + remote_failures;
  const double arrived = delta(after, before, "fed.channel_arrived");
  report_end_to_end(report, setup_s, rates, phase_s, reconfig);
  report.notes.push_back(
      "deadline_miss_ratio = " +
      std::to_string(delta(after, before, "rtos.deadline_misses") /
                     std::max(1.0, delta(after, before, "rtos.releases"))) +
      " ratio");
  report.notes.push_back("migrations " + std::to_string(migrations) +
                         " (failed " + std::to_string(migration_failures) +
                         "), channel sends " + std::to_string(sends) +
                         ", remote typed calls " + std::to_string(remote_calls) +
                         ", inbox messages drained " +
                         std::to_string(inbox_received) + ", live channels " +
                         std::to_string(federation.channel_count()));

  LayerInputs in;
  in.ledger = &ledger;
  in.parse_ns = &parse_ns;
  in.parse_errors = parse_errors;
  in.before = before;
  in.after = after;
  in.run_events = run_events - events_before;
  in.live_slabs_peak = static_cast<double>(
      rtos::MessagePool::instance().stats().live_slabs);
  in.phase_ns = phase_s * 1e9;
  const Ledger::Totals& timed = ledger.totals(Phase::kTimed);
  in.target_self_ns =
      timed.self_ns[static_cast<std::size_t>(Layer::kFed)] +
      timed.self_ns[static_cast<std::size_t>(Layer::kRtosDispatch)];
  in.fed_arrived = arrived;
  in.fed_rejected = delta(after, before, "fed.channel_rejected");
  in.fed_migrate_fail_ratio =
      migrations > 0 ? static_cast<double>(migration_failures) /
                           static_cast<double>(migrations)
                     : 0.0;
  for (const TimedResolver* resolver : world.resolvers) {
    in.admit_calls += resolver->calls;
    in.admit_rejects += resolver->rejects;
    in.admit_useful += resolver->useful;
    in.admit_ns.append(resolver->latency);
  }
  const double cross_ns =
      timed.busy_ns[static_cast<std::size_t>(Layer::kFed)] +
      timed.busy_ns[static_cast<std::size_t>(Layer::kRtosDispatch)];
  report.layer("fed.place.p50_us", place_ns.quantile(0.5) / 1e3, "us");
  report.layer("fed.migrate.p50_us", migrate_ns.quantile(0.5) / 1e3, "us");
  report.layer("fed.ns_per_cross_msg", arrived > 0 ? cross_ns / arrived : 0.0,
               "ns");

  for (std::size_t n = 0; n < nodes; ++n) {
    Span span(ledger, "osgi.stop", Layer::kOsgi);
    if (!federation.node(n).framework.stop(world.impl_bundles[n]).ok()) {
      report.fail("teardown stop failed");
    }
  }
  in.life = fed_counters(world);
  in.reconfig_calls = nodes * 2 + inputs.workers.size() + reconfig.attempted;
  report_layers(report, in);
  write_trace(ledger, options, report);
}

}  // namespace perfbench

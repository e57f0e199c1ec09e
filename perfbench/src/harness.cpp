#include "harness.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "cap/channel.hpp"
#include "osgi/manifest.hpp"

namespace perfbench {

// ---------------------------------------------------------------- bodies --

namespace {

class Body final : public drcom::RtComponent {
 public:
  Body(Role role, Probe& probe) : role_(role), probe_(&probe) {}

  rtos::TaskCoro run(drcom::JobContext& job) override {
    const SimDuration exec = job.property_int("exec").value_or(10'000);
    const auto inports = job.descriptor().inports();
    const auto outports = job.descriptor().outports();
    const std::string in = inports.empty() ? std::string{} : inports[0]->name;
    const std::string out =
        outports.empty() ? std::string{} : outports[0]->name;
    const char* served = role_ == Role::kMid        ? "ctl"
                         : role_ == Role::kProvider ? "rx"
                                                    : nullptr;
    cap::Connection* client =
        role_ == Role::kCalc ? job.capability("ctl") : nullptr;
    cap::ServerEnd* server = nullptr;
    Ledger& ledger = *probe_->ledger;
    const bool timed = ledger.on();
    std::int32_t seq = 0;
    while (job.active()) {
      co_await job.consume(exec);
      ++seq;
      const std::int32_t upstream =
          in.empty() ? 0 : job.read_i32(in, 0).value_or(-1);
      if (!out.empty()) {
        job.write_i32(out, 0, seq);
        job.write_i32(out, 1, upstream);
      }
      if (client != nullptr) {
        std::array<std::byte, 8> payload{};
        std::memcpy(payload.data(), &seq, sizeof(seq));
        const std::int64_t started = timed ? now_ns() : 0;
        const ErrorCode code = client->call(1, payload);
        if (timed) ledger.leaf(Layer::kCap, now_ns() - started);
        ++probe_->calls;
        if (code == ErrorCode::kNone) {
          ++probe_->accepted;
        } else if (code == ErrorCode::kCapabilityRevoked) {
          ++probe_->revoked;
        } else {
          ++probe_->other_errors;
        }
      }
      if (served != nullptr) {
        if (server == nullptr) server = job.cap_server(served);
        if (server != nullptr) {
          const std::int64_t started = timed ? now_ns() : 0;
          while (auto frame = server->try_next()) {
            if (frame->payload().size() != 8) ++probe_->bad_frames;
          }
          if (timed) ledger.leaf(Layer::kIpc, now_ns() - started);
        }
      }
      co_await job.next_cycle();
    }
  }

 private:
  Role role_;
  Probe* probe_;
};

/// Registers the bundle's component factories with the DRCR it finds in the
/// service registry — the "code" half of a bundle (Java's class loading).
class BenchActivator final : public osgi::BundleActivator {
 public:
  BenchActivator(std::vector<std::pair<std::string, Role>> bincodes,
                 Probe& probe)
      : bincodes_(std::move(bincodes)), probe_(&probe) {}

  void start(osgi::BundleContext& context) override {
    drcom::Drcr* drcr = find_drcr(context);
    if (drcr == nullptr) throw std::runtime_error("no DRCR service");
    for (const auto& [bincode, role] : bincodes_) {
      Probe* probe = probe_;
      const Role body_role = role;
      drcr->factories().register_factory(
          bincode, [body_role, probe] { return make_body(body_role, *probe); });
    }
  }
  void stop(osgi::BundleContext& context) override {
    drcom::Drcr* drcr = find_drcr(context);
    if (drcr == nullptr) return;  // the DRCR is already gone (shutdown)
    for (const auto& [bincode, role] : bincodes_) {
      (void)drcr->factories().unregister_factory(bincode);
    }
  }

 private:
  static drcom::Drcr* find_drcr(osgi::BundleContext& context) {
    const auto reference =
        context.get_service_reference(drcom::kDrcrServiceInterface);
    if (!reference.has_value()) return nullptr;
    const auto handle = context.get_service<drcom::DrcrHandle>(*reference);
    return handle == nullptr ? nullptr : handle->drcr;
  }

  std::vector<std::pair<std::string, Role>> bincodes_;
  Probe* probe_;
};

struct StageShape {
  Role role;
  const char* prefix;
  const char* bincode;
  double hz;
  SimDuration exec_ns;  ///< before seeded jitter and per-CPU scaling
  int priority;
};

constexpr StageShape kCalc{Role::kCalc, "c", "calc", 1000.0, 10'000, 2};
constexpr StageShape kMid{Role::kMid, "m", "mid", 100.0, 35'000, 4};
constexpr StageShape kDisplay{Role::kDisplay, "d", "disp", 4.0, 280'000, 8};
constexpr StageShape kAgg{Role::kAgg, "a", "agg", 10.0, 200'000, 6};
constexpr StageShape kExtra{Role::kExtra, "x", "extra", 50.0, 50'000, 5};

/// Per-CPU utilization the base system is scaled to (steady's ~0.6).
constexpr double kTargetUtilization = 0.6;
/// Declared cpuusage = measured demand x this margin.
constexpr double kDeclaredMargin = 1.1;

}  // namespace

std::string numbered(const char* prefix, std::size_t index, int width) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%s%0*zu", prefix, width, index);
  return buffer;
}

namespace {

drcom::PortSpec port(drcom::PortDirection direction, std::string name) {
  drcom::PortSpec spec;
  spec.direction = direction;
  spec.name = std::move(name);
  spec.interface = drcom::PortInterface::kShm;
  spec.data_type = rtos::DataType::kInteger;
  spec.size = 2;
  return spec;
}

GenComponent make_component(const StageShape& shape, std::string name,
                            std::string bincode, CpuId cpu, Rng& rng) {
  GenComponent out;
  out.role = shape.role;
  drcom::ComponentDescriptor& d = out.descriptor;
  d.name = std::move(name);
  d.description = std::string("perfbench ") + shape.bincode;
  d.type = rtos::TaskType::kPeriodic;
  d.bincode = std::move(bincode);
  d.periodic = drcom::PeriodicSpec{shape.hz, cpu, shape.priority};
  const double jitter = 0.8 + 0.4 * rng.next_double();
  d.properties.set("exec", static_cast<std::int64_t>(
                               std::llround(shape.exec_ns * jitter)));
  return out;
}

/// The "exec" property (ns of CPU demand per job).
std::int64_t exec_of(const GenComponent& component) {
  return component.descriptor.properties.get_int("exec").value_or(0);
}

/// Demand as a CPU fraction: exec x frequency.
double demand_of(const GenComponent& component) {
  return static_cast<double>(exec_of(component)) *
         component.descriptor.periodic->frequency_hz / 1e9;
}

}  // namespace

/// Fixes the declared contract (and the optional modes) from the demand.
void declare(GenComponent& component, bool modes) {
  drcom::ComponentDescriptor& d = component.descriptor;
  const double declared =
      std::ceil(demand_of(component) * kDeclaredMargin * 1e6) / 1e6;
  d.cpu_usage = declared;
  if (modes) {
    d.modes.push_back({"degraded", std::ceil(declared * 0.5 * 1e6) / 1e6,
                       true});
    d.modes.push_back({"overload", 1.0, true});
  }
}

cap::ProtocolSpec tick_protocol(const char* name) {
  cap::ProtocolSpec spec;
  spec.name = name;
  cap::MethodSpec tick;
  tick.name = "tick";
  tick.ordinal = 1;
  tick.request_bytes = 8;
  spec.methods.push_back(std::move(tick));
  return spec;
}

std::unique_ptr<drcom::RtComponent> make_body(Role role, Probe& probe) {
  return std::make_unique<Body>(role, probe);
}

// ------------------------------------------------------------- generator --

BaseSystem generate_base(std::uint64_t seed, const BaseShape& shape) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  BaseSystem system;
  const std::size_t chains = shape.bundles * shape.chains_per_bundle;
  auto calc_port = [](std::size_t chain) { return numbered("pc", chain, 3); };

  for (std::size_t b = 0; b < shape.bundles; ++b) {
    GenBundle bundle;
    bundle.symbolic_name = numbered("perf.b", b, 2);
    const std::string ns = numbered("b", b, 2) + ".";
    auto add = [&](GenComponent component) {
      bundle.members.push_back(system.components.size());
      system.components.push_back(std::move(component));
    };
    for (std::size_t j = 0; j < shape.chains_per_bundle; ++j) {
      const std::size_t g = b * shape.chains_per_bundle + j;
      // A chain lives on one CPU; CPUs alternate so both carry half.
      const auto cpu = static_cast<CpuId>(g % 2);
      GenComponent calc = make_component(kCalc, numbered("c", g, 3),
                                         ns + kCalc.bincode, cpu, rng);
      calc.descriptor.ports.push_back(
          port(drcom::PortDirection::kOut, calc_port(g)));
      calc.descriptor.uses.push_back({"ctl", numbered("m", g, 3)});
      GenComponent mid = make_component(kMid, numbered("m", g, 3),
                                        ns + kMid.bincode, cpu, rng);
      mid.descriptor.ports.push_back(
          port(drcom::PortDirection::kIn, calc_port(g)));
      mid.descriptor.ports.push_back(
          port(drcom::PortDirection::kOut, numbered("pm", g, 3)));
      mid.descriptor.protocols.push_back(tick_protocol("ctl"));
      mid.descriptor.exposes.push_back({"ctl", 64});
      GenComponent display = make_component(kDisplay, numbered("d", g, 3),
                                            ns + kDisplay.bincode, cpu, rng);
      display.descriptor.ports.push_back(
          port(drcom::PortDirection::kIn, numbered("pm", g, 3)));
      add(std::move(calc));
      add(std::move(mid));
      add(std::move(display));
    }
    // The aggregator reads the next bundle's first producer, so stopping a
    // bundle cascades into its neighbour.
    const std::size_t next = ((b + 1) % shape.bundles) * shape.chains_per_bundle;
    GenComponent agg = make_component(kAgg, numbered("a", b, 2),
                                      ns + kAgg.bincode,
                                      static_cast<CpuId>(b % 2), rng);
    agg.descriptor.ports.push_back(
        port(drcom::PortDirection::kIn, calc_port(next)));
    add(std::move(agg));
    for (const StageShape* stage : {&kCalc, &kMid, &kDisplay, &kAgg}) {
      bundle.bincodes.push_back(ns + stage->bincode);
      system.roles[ns + stage->bincode] = stage->role;
    }
    system.bundles.push_back(std::move(bundle));
  }

  // Scale every CPU's demand to the target, so seeds differ in the task
  // set's detail but not in its load.
  std::array<double, 2> demand{};
  for (const auto& c : system.components) {
    demand[c.descriptor.target_cpu()] += demand_of(c);
  }
  for (auto& c : system.components) {
    const double scale = kTargetUtilization / demand[c.descriptor.target_cpu()];
    c.descriptor.properties.set(
        "exec", static_cast<std::int64_t>(std::llround(
                    static_cast<double>(exec_of(c)) * scale)));
    declare(c, shape.modes);
  }

  for (std::size_t x = 0; x < shape.extras; ++x) {
    GenComponent extra =
        make_component(kExtra, numbered("x", x, 3), "x.extra",
                       static_cast<CpuId>(x % 2), rng);
    const auto chain = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(chains) - 1));
    extra.descriptor.ports.push_back(
        port(drcom::PortDirection::kIn, calc_port(chain)));
    declare(extra, shape.modes);
    system.extras.push_back(std::move(extra));
  }
  system.roles["x.extra"] = Role::kExtra;

  for (auto& bundle : system.bundles) {
    std::string manifest = "Bundle-SymbolicName: " + bundle.symbolic_name +
                           "\nBundle-Version: 1.0.0\nBundle-Name: perfbench " +
                           bundle.symbolic_name + "\nDRT-Components: ";
    for (std::size_t i = 0; i < bundle.members.size(); ++i) {
      if (i > 0) manifest += ", ";
      manifest += "DRT-INF/" +
                  system.components[bundle.members[i]].descriptor.name + ".xml";
    }
    bundle.manifest_text = manifest + "\n";
  }
  for (auto& c : system.components) c.xml = drcom::write_descriptor(c.descriptor);
  for (auto& c : system.extras) c.xml = drcom::write_descriptor(c.descriptor);
  return system;
}

bool roundtrip_xml(GenComponent& component, Ledger& ledger,
                   Samples& parse_ns) {
  const std::int64_t started = now_ns();
  Result<drcom::ComponentDescriptor> parsed = [&] {
    Span span(ledger, "xml.parse", Layer::kXml);
    return drcom::parse_descriptor(component.xml);
  }();
  parse_ns.add(now_ns() - started);
  return parsed.ok() &&
         drcom::write_descriptor(parsed.value()) == component.xml;
}

osgi::BundleDefinition make_bundle(const GenBundle& bundle,
                                   const BaseSystem& system, Probe& probe,
                                   osgi::Manifest manifest) {
  osgi::BundleDefinition definition;
  definition.manifest = std::move(manifest);
  for (const std::size_t member : bundle.members) {
    const GenComponent& c = system.components[member];
    definition.resources["DRT-INF/" + c.descriptor.name + ".xml"] = c.xml;
  }
  std::vector<std::pair<std::string, Role>> bincodes;
  for (const auto& bincode : bundle.bincodes) {
    bincodes.emplace_back(bincode, system.roles.at(bincode));
  }
  definition.activator_factory = activator_for(std::move(bincodes), probe);
  return definition;
}

std::function<std::unique_ptr<osgi::BundleActivator>()> activator_for(
    std::vector<std::pair<std::string, Role>> bincodes, Probe& probe) {
  Probe* probe_ptr = &probe;
  return [bincodes = std::move(bincodes), probe_ptr] {
    return std::make_unique<BenchActivator>(bincodes, *probe_ptr);
  };
}

// ------------------------------------------------------ admission timer --

Result<void> TimedResolver::admit(const drcom::ComponentDescriptor& candidate,
                                  const drcom::SystemView& view) {
  ++calls;
  if (!ledger_->on()) {
    Result<void> result = inner_->admit(candidate, view);
    if (!result.ok()) ++rejects;
    return result;
  }
  const std::int64_t started = now_ns();
  const std::int32_t span = ledger_->begin("drcom.admit", Layer::kDrcomAdmission);
  Result<void> result = inner_->admit(candidate, view);
  ledger_->end(span);
  const std::int64_t elapsed = now_ns() - started;
  if (elapsed >= resolution_ns()) latency.add(elapsed);
  if (!result.ok()) ++rejects;
  return result;
}

// ---------------------------------------------------------------- stack --

void attach_digest(drcom::Drcr& drcr, Digest& digest) {
  Digest* sink = &digest;
  drcr.add_listener([sink](const drcom::DrcrEvent& event) {
    sink->mix(static_cast<std::uint64_t>(event.when));
    sink->mix(static_cast<std::uint64_t>(event.type));
    sink->mix(event.component);
    sink->mix(event.reason);
    sink->mix(static_cast<std::uint64_t>(event.code));
  });
}

void BundleEventSpans::install_before(osgi::Framework& framework,
                                      Ledger& ledger) {
  ledger_ = &ledger;
  framework.add_bundle_listener([this](const osgi::BundleEvent& event) {
    const bool handled_by_drcr =
        event.type == osgi::BundleEventType::kStarted ||
        event.type == osgi::BundleEventType::kStopped ||
        event.type == osgi::BundleEventType::kUninstalled ||
        event.type == osgi::BundleEventType::kUpdated;
    open_.push_back(handled_by_drcr
                        ? ledger_->begin("drcom.bundle_event",
                                         Layer::kDrcomResolve)
                        : -1);
  });
}

void BundleEventSpans::install_after(osgi::Framework& framework) {
  framework.add_bundle_listener([this](const osgi::BundleEvent&) {
    ledger_->end(open_.back());
    open_.pop_back();
  });
}

namespace {
rtos::KernelConfig kernel_config(std::uint64_t seed) {
  rtos::KernelConfig config;
  config.cpus = 2;
  config.seed = seed;
  return config;  // light_load(), the paper's non-stress setting
}
}  // namespace

Stack::Stack(std::uint64_t seed, Ledger& ledger, bool rta, Digest* digest)
    : kernel(engine, kernel_config(seed)) {
  kernel.metrics().enable();
  bundle_spans.install_before(framework, ledger);
  drcom::DrcrConfig config;
  config.engine = rtos::EngineKind::kSequential;
  drcr = std::make_unique<drcom::Drcr>(framework, kernel, config);
  bundle_spans.install_after(framework);
  std::unique_ptr<drcom::ResolvingService> inner;
  if (rta) {
    inner = std::make_unique<drcom::ResponseTimeResolver>();
  } else {
    inner = std::make_unique<drcom::UtilizationBudgetResolver>(config.cpu_budget);
  }
  auto timed = std::make_unique<TimedResolver>(std::move(inner), ledger);
  resolver = timed.get();
  drcr->set_internal_resolver(std::move(timed));
  if (digest != nullptr) attach_digest(*drcr, *digest);
}

bool deploy(Stack& stack, const BaseSystem& system, Probe& probe,
            Ledger& ledger, Samples* reconfig, std::string* why) {
  for (const GenBundle& bundle : system.bundles) {
    Result<osgi::Manifest> manifest = [&] {
      Span span(ledger, "osgi.manifest", Layer::kOsgi);
      return osgi::Manifest::parse(bundle.manifest_text);
    }();
    if (!manifest.ok()) {
      *why = "manifest: " + manifest.error().to_string();
      return false;
    }
    osgi::BundleDefinition definition =
        make_bundle(bundle, system, probe, std::move(manifest).take());
    Result<BundleId> installed = [&] {
      Span span(ledger, "osgi.install", Layer::kOsgi);
      return stack.framework.install(std::move(definition));
    }();
    if (!installed.ok()) {
      *why = "install: " + installed.error().to_string();
      return false;
    }
    stack.bundle_ids.push_back(installed.value());
  }
  for (const BundleId id : stack.bundle_ids) {
    const std::int64_t started = now_ns();
    Result<void> started_ok = [&] {
      Span span(ledger, "osgi.start", Layer::kOsgi);
      return stack.framework.start(id);
    }();
    if (reconfig != nullptr) reconfig->add(now_ns() - started);
    if (!started_ok.ok()) {
      *why = "start: " + started_ok.error().to_string();
      return false;
    }
  }
  if (stack.drcr->active_count() != system.components.size()) {
    *why = "only " + std::to_string(stack.drcr->active_count()) + " of " +
           std::to_string(system.components.size()) + " components ACTIVE";
    return false;
  }
  return true;
}

// ------------------------------------------------------------- readouts --

std::map<std::string, double> read_counters(const obs::MetricsRegistry& r) {
  std::map<std::string, double> out;
  const obs::MetricsSnapshot snapshot = r.snapshot();
  for (const auto& counter : snapshot.counters) {
    out[counter.name] = static_cast<double>(counter.value);
  }
  return out;
}

void add_counters(std::map<std::string, double>& into,
                  const std::map<std::string, double>& from) {
  for (const auto& [name, value] : from) into[name] += value;
}

double delta(const std::map<std::string, double>& after,
             const std::map<std::string, double>& before,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

double peak_rss_mib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::atof(line + 6);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::int64_t resolution_ns() {
  static const std::int64_t resolution = clock_resolution_ns();
  return resolution;
}

}  // namespace perfbench

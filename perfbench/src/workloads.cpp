#include "workloads.hpp"

#include <algorithm>
#include <cstdio>

#include "rtos/fault.hpp"
#include "testing/oracle.hpp"

namespace perfbench {

namespace {

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

std::string format(const char* name, double value, const char* unit) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "%s = %.6g %s", name, value, unit);
  return buffer;
}

bool in_digest(const std::string& name) {
  for (const char* prefix : {"rtos.", "ipc.", "cap.", "fed.", "drcom."}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

}  // namespace

std::string checkpoint_digest(const Digest& events,
                              const std::map<std::string, double>& counters,
                              SimTime now, Report& report) {
  report.checkpoint_rss_mib = peak_rss_mib();
  Digest digest = events;
  digest.mix(static_cast<std::uint64_t>(now));
  std::string line = "checkpoint counters:";
  for (const auto& [name, value] : counters) {
    if (!in_digest(name)) continue;
    digest.mix(name);
    digest.mix(static_cast<std::uint64_t>(value));
    if (name.find(".conn.") != std::string::npos) continue;  // per-route
    line += " " + name + "=" + std::to_string(static_cast<std::uint64_t>(value));
  }
  report.notes.push_back("checkpoint virtual time = " + std::to_string(now) +
                         " ns");
  report.notes.push_back(line);
  return digest.hex();
}

void report_end_to_end(Report& report, const std::vector<double>& setup_s,
                       const RateGroups& rates, double phase_s,
                       const Reconfig& reconfig) {
  report.e2e("setup_s", median(setup_s), "s");
  std::string samples = "setup samples (s):";
  for (const double value : setup_s) samples += " " + std::to_string(value);
  report.notes.push_back(samples);
  report.e2e("jobs_per_s", rates.jobs_per_s(), "jobs/s");
  report.e2e("msgs_per_s", rates.msgs_per_s(), "msg/s");
  const std::vector<double>& rates_seen = rates.job_rates();
  char spread[200];
  std::snprintf(spread, sizeof(spread),
                "jobs/s over %zu groups: p10 %.0f, median %.0f, p95 %.0f, "
                "p99 %.0f (reported: p%.1f)",
                rates_seen.size(), quantile(rates_seen, 0.1),
                quantile(rates_seen, 0.5), quantile(rates_seen, 0.95),
                quantile(rates_seen, 0.99), rates.reported() * 100);
  report.notes.push_back(spread);
  report.e2e("reconfig_p50_us", reconfig.all.quantile(0.5) / 1e3, "us");
  report.e2e("reconfig_p99_us", reconfig.all.quantile(0.99) / 1e3, "us");
  report.e2e("peak_rss_mb", report.checkpoint_rss_mib, "MiB");
  report.notes.push_back(format("peak RSS at exit", peak_rss_mib(), "MiB"));
  const std::size_t beyond = reconfig.all.beyond(0.99);
  report.notes.push_back("reconfig samples = " +
                         std::to_string(reconfig.all.size()) + " (" +
                         std::to_string(beyond) + " beyond p99)");
  if (beyond < 10) {
    report.fail("reconfig_p99_us has fewer than 10 samples beyond it");
  }
  report.notes.push_back(format("timed phase", phase_s, "s"));
  report.notes.push_back(
      format("op_fail_ratio", ratio(static_cast<double>(report.failed),
                                    static_cast<double>(report.attempted)),
             "ratio"));
}

void report_layers(Report& report, const LayerInputs& in) {
  const Ledger& ledger = *in.ledger;
  auto busy = [&](Layer layer) {
    double sum = 0.0;
    for (std::size_t p = 0; p < kPhases; ++p) {
      sum += ledger.totals(static_cast<Phase>(p))
                 .busy_ns[static_cast<std::size_t>(layer)];
    }
    return sum;
  };
  auto self = [&](Layer layer) {
    double sum = 0.0;
    for (std::size_t p = 0; p < kPhases; ++p) {
      sum += ledger.totals(static_cast<Phase>(p))
                 .self_ns[static_cast<std::size_t>(layer)];
    }
    return sum;
  };
  auto life = [&](const char* name) {
    const auto found = in.life.find(name);
    return found == in.life.end() ? 0.0 : found->second;
  };
  auto timed = [&](const char* name) { return delta(in.after, in.before, name); };

  report.layer("xml.parse.calls", static_cast<double>(in.parse_ns->size()),
               "count");
  report.layer("xml.parse.busy_ms", busy(Layer::kXml) / 1e6, "ms");
  report.layer("xml.parse.p50_us", in.parse_ns->quantile(0.5) / 1e3, "us");
  report.layer("xml.parse.errors", static_cast<double>(in.parse_errors),
               "count");

  const Ledger::NameTotals start = ledger.by_name("osgi.start");
  const Ledger::NameTotals stop = ledger.by_name("osgi.stop");
  report.layer("osgi.start.calls", static_cast<double>(start.calls), "count");
  report.layer("osgi.start.self_ms", start.self_ns / 1e6, "ms");
  report.layer("osgi.stop.calls", static_cast<double>(stop.calls), "count");
  report.layer("osgi.stop.self_ms", stop.self_ns / 1e6, "ms");
  report.layer("osgi.service_lookups", life("osgi.service_lookups"), "count");
  report.layer("osgi.events_dispatched", life("osgi.events_dispatched"),
               "count");

  report.layer("drcom.resolve.busy_ms", busy(Layer::kDrcomResolve) / 1e6,
               "ms");
  report.layer("drcom.resolve.self_ms", self(Layer::kDrcomResolve) / 1e6,
               "ms");
  report.layer("drcom.resolution_rounds", life("drcom.resolution_rounds"),
               "count");
  report.layer("drcom.rounds_per_op",
               ratio(life("drcom.resolution_rounds"),
                     static_cast<double>(in.reconfig_calls)),
               "rounds/op");
  report.layer("drcom.activations", life("drcom.activations"), "count");
  report.layer("drcom.deactivations", life("drcom.deactivations"), "count");

  const auto admits = static_cast<double>(in.admit_calls);
  report.layer("drcom.admission.calls", admits, "count");
  report.layer("drcom.admission.busy_ms", busy(Layer::kDrcomAdmission) / 1e6,
               "ms");
  report.layer("drcom.admission.p50_ns", in.admit_ns.quantile(0.5), "ns");
  report.layer("drcom.admission.reject_ratio",
               ratio(static_cast<double>(in.admit_rejects), admits), "ratio");
  report.layer("drcom.admission.useful_ratio",
               ratio(static_cast<double>(in.admit_useful), admits), "ratio");
  report.layer("drcom.mode_transitions", life("drcom.mode_transitions"),
               "count");
  report.layer("drcom.mode_rejections", life("drcom.mode_rejections"),
               "count");

  const double calls = timed("cap.calls");
  report.layer("cap.calls", calls, "count");
  report.layer("cap.accepted", timed("cap.accepted"), "count");
  report.layer("cap.rejected", timed("cap.rejected"), "count");
  report.layer("cap.revoked_calls", timed("cap.revoked_calls"), "count");
  report.layer("cap.binds", timed("cap.binds"), "count");
  report.layer("cap.revocations", timed("cap.revocations"), "count");
  report.layer("cap.accept_ratio", ratio(timed("cap.accepted"), calls),
               "ratio");

  const double run_ns = ledger.totals(Phase::kTimed)
                            .busy_ns[static_cast<std::size_t>(Layer::kRtosDispatch)];
  report.layer("rtos.run.busy_ms", run_ns / 1e6, "ms");
  report.layer("rtos.events", in.run_events, "count");
  report.layer("rtos.ns_per_event", ratio(run_ns, in.run_events), "ns");
  report.layer("rtos.ns_per_job", ratio(run_ns, timed("rtos.completions")),
               "ns");
  report.layer("rtos.dispatches", timed("rtos.dispatches"), "count");
  report.layer("rtos.preemptions", timed("rtos.preemptions"), "count");
  report.layer("rtos.releases", timed("rtos.releases"), "count");
  report.layer("rtos.completions", timed("rtos.completions"), "count");
  report.layer("rtos.deadline_misses", timed("rtos.deadline_misses"), "count");

  const double sent = timed("ipc.mailbox_sent");
  report.layer("ipc.mailbox_sent", sent, "count");
  report.layer("ipc.mailbox_received", timed("ipc.mailbox_received"), "count");
  report.layer("ipc.mailbox_handoff", timed("ipc.mailbox_handoff"), "count");
  report.layer("ipc.mailbox_dropped", timed("ipc.mailbox_dropped"), "count");
  report.layer("ipc.handoff_ratio", ratio(timed("ipc.mailbox_handoff"), sent),
               "ratio");
  report.layer("ipc.pool.live_slabs_peak", in.live_slabs_peak, "count");

  report.layer("fed.channel.arrived", in.fed_arrived, "count");
  report.layer("fed.channel.rejected", in.fed_rejected, "count");
  report.layer("fed.migrate.fail_ratio", in.fed_migrate_fail_ratio, "ratio");

  report.layer("trace.coverage",
               ratio(ledger.root_ns(Phase::kTimed), in.phase_ns), "ratio");
  report.layer("trace.target_share", ratio(in.target_self_ns, in.phase_ns),
               "ratio");
  report.layer("trace.spans", static_cast<double>(ledger.span_count()),
               "count");
  for (const Layer layer : {Layer::kCap, Layer::kIpc}) {
    report.notes.push_back(
        std::string(layer_name(layer)) + " leaf calls timed: " +
        std::to_string(ledger.leaf_calls(layer)) + " (" +
        std::to_string(ledger.leaf_below_resolution(layer)) +
        " below the clock resolution, counted only)");
  }
  std::string shares = "timed-phase self time by layer (share of wall):";
  for (std::size_t l = 0; l < kLayers; ++l) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), " %s=%.3f",
                  layer_name(static_cast<Layer>(l)),
                  ratio(ledger.totals(Phase::kTimed).self_ns[l], in.phase_ns));
    shares += buffer;
  }
  report.notes.push_back(shares);
}

void write_trace(const Ledger& ledger, const Options& options,
                 Report& report) {
  if (!options.trace || options.trace_out.empty()) return;
  if (!ledger.write_chrome_trace(options.trace_out)) {
    report.fail("cannot write " + options.trace_out);
    return;
  }
  report.notes.push_back("trace written to " + options.trace_out);
}

void check_oracle(const drcom::Drcr& drcr, const std::string& where,
                  Report& report) {
  const rtos::FaultPlan no_faults;
  testing::InvariantOracle oracle(drcr, no_faults, 0.9);
  if (const auto violation = oracle.check()) {
    report.fail("oracle " + where + ": " + violation->invariant + ": " +
                violation->detail);
  }
}

}  // namespace perfbench

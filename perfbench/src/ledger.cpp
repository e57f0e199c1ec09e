#include "ledger.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

std::int64_t clock_resolution_ns() {
  std::int64_t best = INT64_MAX;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t a = now_ns();
    std::int64_t b = now_ns();
    while (b == a) b = now_ns();
    best = std::min(best, b - a);
  }
  return best;
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kXml: return "xml";
    case Layer::kOsgi: return "osgi";
    case Layer::kDrcomResolve: return "drcom.resolve";
    case Layer::kDrcomAdmission: return "drcom.admission";
    case Layer::kDrcomMode: return "drcom.mode";
    case Layer::kCap: return "cap";
    case Layer::kRtosDispatch: return "rtos.dispatch";
    case Layer::kIpc: return "ipc";
    case Layer::kFed: return "fed";
    case Layer::kCount: break;
  }
  return "?";
}

std::int32_t Ledger::begin(const char* name, Layer layer) {
  if (!on_) return -1;
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, layer, phase_, op_, parent, now_ns(), 0, 0});
  open_.push_back(id);
  return id;
}

void Ledger::end(std::int32_t id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = now_ns();
  open_.pop_back();
  const auto duration = static_cast<double>(span.end - span.start);
  const auto layer = static_cast<std::size_t>(span.layer);
  Totals& totals = totals_[static_cast<std::size_t>(span.phase)];
  totals.self_ns[layer] += duration - static_cast<double>(span.child);
  // Busy time counts a layer's outermost spans only, so a layer re-entered
  // below itself is not counted twice.
  bool nested_in_same_layer = false;
  for (const std::int32_t open : open_) {
    if (spans_[static_cast<std::size_t>(open)].layer == span.layer) {
      nested_in_same_layer = true;
      break;
    }
  }
  if (!nested_in_same_layer) totals.busy_ns[layer] += duration;
  NameTotals& named = by_name_[span.name];
  ++named.calls;
  named.busy_ns += duration;
  named.self_ns += duration - static_cast<double>(span.child);
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child += span.end - span.start;
  } else {
    root_ns_[static_cast<std::size_t>(span.phase)] += duration;
  }
}

Ledger::NameTotals Ledger::by_name(const char* name) const {
  const auto found = by_name_.find(name);
  return found == by_name_.end() ? NameTotals{} : found->second;
}

void Ledger::leaf(Layer layer, std::int64_t ns) {
  const auto index = static_cast<std::size_t>(layer);
  ++leaf_calls_[index];
  if (ns < resolution_ns_) {
    ++leaf_below_res_[index];
    return;
  }
  Totals& totals = totals_[static_cast<std::size_t>(phase_)];
  totals.self_ns[index] += static_cast<double>(ns);
  totals.busy_ns[index] += static_cast<double>(ns);
  if (!open_.empty()) {
    spans_[static_cast<std::size_t>(open_.back())].child += ns;
  } else {
    root_ns_[static_cast<std::size_t>(phase_)] += static_cast<double>(ns);
  }
}

bool Ledger::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  static constexpr const char* kPhaseNames[] = {"setup", "timed", "after"};
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (std::size_t p = 0; p < kPhases; ++p) {
    std::fprintf(out,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                 "\"args\":{\"name\":\"%s\"}},\n",
                 p, kPhaseNames[p]);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::int64_t start = span.start - origin;
    const std::int64_t duration = span.end - span.start;
    std::fprintf(out,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%" PRId64 ".%03" PRId64
                 ",\"dur\":%" PRId64 ".%03" PRId64
                 ",\"args\":{\"op\":%u,\"id\":%zu,\"parent\":%d,"
                 "\"child_ns\":%" PRId64 "}}%s\n",
                 span.name, layer_name(span.layer),
                 static_cast<unsigned>(span.phase), start / 1000, start % 1000,
                 duration / 1000, duration % 1000, span.op, i, span.parent,
                 span.child, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(out) == 0;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<std::int64_t> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(q * n + 0.999999999);
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

std::size_t Samples::beyond(double q) const {
  const double threshold = quantile(q);
  return static_cast<std::size_t>(
      std::count_if(values_.begin(), values_.end(), [&](std::int64_t v) {
        return static_cast<double>(v) > threshold;
      }));
}

void Digest::mix(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffU;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::mix(const std::string& text) {
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
  mix(static_cast<std::uint64_t>(text.size()));
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash_);
  return buffer;
}

}  // namespace perfbench

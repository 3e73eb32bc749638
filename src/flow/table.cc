#include "flow/table.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "util/check.h"

namespace sdnprobe::flow {
namespace {

telemetry::Histogram& input_space_cubes() {
  static auto& h = telemetry::MetricsRegistry::global().histogram(
      "flow.input_space.cubes", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  return h;
}

// input_space()'s shadow list, reused across every call on the thread
// (graph construction, churn refresh).
std::vector<int>& shadow_scratch() {
  thread_local std::vector<int> s;
  return s;
}

}  // namespace

void FlowTable::insert(const FlowEntry& e) {
  SDNPROBE_DCHECK_GT(e.match.width(), 0) << "entry has no match field";
  if (!entries_.empty()) {
    SDNPROBE_DCHECK_EQ(e.match.width(), entries_.front().match.width())
        << "all entries of a table must share one header width";
  }
  // Stable position: after all entries with priority >= e.priority.
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&e](const FlowEntry& x) {
                           return x.priority < e.priority;
                         });
  entries_.insert(it, e);
}

bool FlowTable::erase(EntryId id) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [id](const FlowEntry& x) { return x.id == id; });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

bool FlowTable::update_actions(EntryId id, const hsa::TernaryString& set_field,
                               const Action& action) {
  for (auto& e : entries_) {
    if (e.id == id) {
      e.set_field = set_field;
      e.action = action;
      return true;
    }
  }
  return false;
}

const FlowEntry* FlowTable::lookup(const hsa::TernaryString& header) const {
  if (!entries_.empty()) {
    SDNPROBE_DCHECK_EQ(header.width(), entries_.front().match.width());
  }
  for (const auto& e : entries_) {
    if (e.match.covers(header)) return &e;
  }
  return nullptr;
}

std::vector<const FlowEntry*> FlowTable::overlapping_above(
    const FlowEntry& e) const {
  std::vector<const FlowEntry*> out;
  for (const auto& q : entries_) {
    if (q.priority <= e.priority) break;  // sorted descending
    if (q.id != e.id && q.match.intersects(e.match)) out.push_back(&q);
  }
  return out;
}

hsa::HeaderSpace FlowTable::input_space(EntryId id) const {
  const auto target = std::find_if(
      entries_.begin(), entries_.end(),
      [id](const FlowEntry& e) { return e.id == id; });
  if (target == entries_.end()) return hsa::HeaderSpace();
  std::vector<int>& shadows = shadow_scratch();
  shadows.clear();
  for (auto it = entries_.begin(); it != target; ++it) {
    if (it->match.intersects(target->match)) {
      shadows.push_back(static_cast<int>(it - entries_.begin()));
    }
  }
  return shadow_chain(static_cast<std::size_t>(target - entries_.begin()),
                      shadows);
}

PrefixIndex FlowTable::shadow_index() const {
  PrefixIndex index(entries_.empty() ? 0 : entries_.front().match.width());
  for (std::size_t pos = 0; pos < entries_.size(); ++pos) {
    index.add(static_cast<int>(pos), entries_[pos].match);
  }
  return index;
}

hsa::HeaderSpace FlowTable::input_space_at(std::size_t pos,
                                           const PrefixIndex& index) const {
  // The index returns the intersecting matches before `pos` grouped by
  // bucket; sorting puts them back in table order, the order input_space()
  // subtracts them in.
  std::vector<int>& shadows = shadow_scratch();
  shadows.clear();
  index.collect(
      entries_[pos].match,
      [this](int q) -> const hsa::TernaryString& {
        return entries_[static_cast<std::size_t>(q)].match;
      },
      shadows, static_cast<int>(pos));
  std::sort(shadows.begin(), shadows.end());
  return shadow_chain(pos, shadows);
}

hsa::HeaderSpace FlowTable::shadow_chain(std::size_t pos,
                                         std::span<const int> shadows) const {
  // r.in = match minus every overlap that wins lookup over r (§V-A). The
  // lookup winner is the first covering entry in table order — strictly
  // higher priority, or equal priority inserted earlier — so the
  // subtraction walks the whole table prefix preceding r, not only
  // overlapping_above(). (OpenFlow leaves same-priority overlap undefined;
  // the simulated switch resolves it by insertion order, and the analysis
  // must model the switch it verifies.)
  // input_space feeds volume-weighted probe-header sampling, which depends
  // on the exact cube list, so the fold's order is part of the contract.
  hsa::HeaderSpace in(entries_[pos].match);
  for (const int q : shadows) {
    SDNPROBE_DCHECK_LT(static_cast<std::size_t>(q), pos);
    in = in.subtract(entries_[static_cast<std::size_t>(q)].match);
    if (in.is_empty()) break;
  }
  input_space_cubes().record(static_cast<double>(in.cube_count()));
  return in;
}

}  // namespace sdnprobe::flow

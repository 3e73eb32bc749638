#include "flow/prefix_index.h"

#include <algorithm>

#include "util/check.h"

namespace sdnprobe::flow {

PrefixIndex::PrefixIndex(int width)
    : bits_(std::min(kIndexBits, width)),
      all_exact_((std::uint32_t{1} << bits_) - 1) {}

PrefixIndex::Key PrefixIndex::key_of(const hsa::TernaryString& t) const {
  Key key;
  for (int k = 0; k < bits_; ++k) {
    const hsa::Trit tr = t.get(k);
    key.value = (key.value << 1) | (tr == hsa::Trit::kOne ? 1u : 0u);
    key.exact = (key.exact << 1) | (tr == hsa::Trit::kWild ? 0u : 1u);
  }
  return key;
}

void PrefixIndex::add(int id, const hsa::TernaryString& match) {
  const Key key = key_of(match);
  std::vector<int>& ids =
      key.exact == all_exact_ ? exact_[key.value] : wildcard_;
  SDNPROBE_DCHECK(ids.empty() || ids.back() < id)
      << "PrefixIndex ids must be added in ascending order";
  ids.push_back(id);
}

}  // namespace sdnprobe::flow

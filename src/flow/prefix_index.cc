#include "flow/prefix_index.h"

#include <algorithm>

#include "util/check.h"

namespace sdnprobe::flow {

PrefixIndex::PrefixIndex(int width)
    : bits_(std::min(kIndexBits, width)),
      all_exact_((std::uint32_t{1} << bits_) - 1) {}

void PrefixIndex::add(int id, const hsa::TernaryString& match) {
  const PrefixKey key = prefix_key(match, bits_);
  std::vector<int>& ids =
      key.exact == all_exact_ ? exact_[key.value] : wildcard_;
  SDNPROBE_DCHECK(ids.empty() || ids.back() < id)
      << "PrefixIndex ids must be added in ascending order";
  ids.push_back(id);
}

}  // namespace sdnprobe::flow

#include "incremental/sample_store.h"

#include <cstdint>
#include <fstream>
#include <limits>
#include <string>

#include "util/logging.h"

namespace deepdive::incremental {

namespace {
constexpr uint64_t kStoreMagic = 0xdd5a3b1e'20260611ULL;
}  // namespace

void SampleStore::Add(BitVector sample) {
  if (!samples_.empty()) DD_CHECK_EQ(sample.size(), samples_[0].size());
  samples_.push_back(std::move(sample));
}

size_t SampleStore::ByteSize() const {
  size_t total = 0;
  for (const BitVector& s : samples_) total += s.ByteSize();
  return total;
}

const BitVector* SampleStore::NextProposal() {
  if (cursor_ >= samples_.size()) return nullptr;
  return &samples_[cursor_++];
}

void SampleStore::Clear() {
  samples_.clear();
  cursor_ = 0;
}

Status SampleStore::Save(const std::string& path) const {
  const uint64_t magic = kStoreMagic;
  const uint64_t count = samples_.size();
  const uint64_t width = num_vars();
  if (width == 0 && count > 0) {
    return Status::InvalidArgument("a store of " + std::to_string(count) +
                                   " zero-width samples cannot be loaded; not saving it");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot open '" + path + "' for writing");
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(&width), sizeof(width));
  for (const BitVector& sample : samples_) {
    for (size_t i = 0; i < width; i += 8) {
      uint8_t byte = 0;
      for (size_t b = 0; b < 8 && i + b < width; ++b) {
        if (sample.Get(i + b)) byte |= static_cast<uint8_t>(1u << b);
      }
      out.write(reinterpret_cast<const char*>(&byte), 1);
    }
  }
  if (!out) return Status::Internal("write to '" + path + "' failed");
  return Status::OK();
}

StatusOr<SampleStore> SampleStore::Load(const std::string& path,
                                        size_t expected_width) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  uint64_t magic = 0, count = 0, width = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  in.read(reinterpret_cast<char*>(&width), sizeof(width));
  if (!in || magic != kStoreMagic) {
    return Status::InvalidArgument("'" + path + "' is not a sample store");
  }
  if (expected_width != 0 && width != expected_width) {
    return Status::InvalidArgument(
        "sample store '" + path + "' holds " + std::to_string(width) +
        "-variable samples but the target graph has " +
        std::to_string(expected_width) + " variables");
  }
  // The header is checked against the file before anything is allocated:
  // the rest of the file must be exactly `count` samples of ceil(width / 8)
  // bytes each, and a zero-width sample, which takes no bytes, is refused.
  if (width == 0 && count > 0) {
    return Status::InvalidArgument("sample store '" + path + "' claims " +
                                   std::to_string(count) + " zero-width samples");
  }
  const uint64_t sample_bytes = width / 8 + (width % 8 != 0 ? 1 : 0);
  const std::streampos body_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff body_bytes = in.tellg() - body_start;
  in.seekg(body_start);
  if (!in || (sample_bytes != 0 &&
              count > std::numeric_limits<uint64_t>::max() / sample_bytes) ||
      count * sample_bytes != static_cast<uint64_t>(body_bytes)) {
    return Status::InvalidArgument(
        "sample store '" + path + "' claims " + std::to_string(count) + " samples of " +
        std::to_string(width) + " variables but holds " + std::to_string(body_bytes) +
        " bytes of samples");
  }
  SampleStore store;
  for (uint64_t s = 0; s < count; ++s) {
    BitVector sample(width);
    for (size_t i = 0; i < width; i += 8) {
      uint8_t byte = 0;
      in.read(reinterpret_cast<char*>(&byte), 1);
      if (!in) return Status::InvalidArgument("truncated sample store");
      for (size_t b = 0; b < 8 && i + b < width; ++b) {
        sample.Set(i + b, (byte >> b) & 1);
      }
    }
    store.Add(std::move(sample));
  }
  return store;
}

}  // namespace deepdive::incremental

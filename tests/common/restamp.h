// Edits one payload byte of a checkpoint blob and re-stamps that
// section's CRC, so the edited blob passes every frame check and reaches
// the checks a loader makes on its own section.
#pragma once

#include "core/checkpoint.h"

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace icgkit::test {

/// One section of a checkpoint blob: its tag and where its payload lies.
struct BlobSection {
  std::string tag;
  std::size_t payload = 0;  ///< offset of the first payload byte
  std::size_t len = 0;      ///< payload length
};

/// Every section of an intact blob, in order.
inline std::vector<BlobSection> blob_sections(const std::vector<std::uint8_t>& blob) {
  std::vector<BlobSection> out;
  std::size_t pos = 8;  // past magic and version
  while (pos + 8 <= blob.size()) {
    std::size_t len = 0;
    for (std::size_t i = 4; i-- > 0;) len = (len << 8) | blob[pos + 4 + i];
    out.push_back({std::string(blob.begin() + static_cast<std::ptrdiff_t>(pos),
                               blob.begin() + static_cast<std::ptrdiff_t>(pos + 4)),
                   pos + 8, len});
    pos += 8 + len + 4;
  }
  return out;
}

/// `blob` with payload byte `offset` of section `tag` XORed with `mask`
/// and the section's CRC recomputed.
inline std::vector<std::uint8_t> restamped(std::vector<std::uint8_t> blob,
                                           const std::string& tag, std::size_t offset,
                                           std::uint8_t mask) {
  for (const BlobSection& s : blob_sections(blob)) {
    if (s.tag != tag) continue;
    blob.at(s.payload + offset) ^= mask;
    const std::uint32_t crc = core::checkpoint_crc32(blob.data() + s.payload, s.len);
    for (std::size_t i = 0; i < 4; ++i)
      blob[s.payload + s.len + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    return blob;
  }
  throw std::invalid_argument("restamped: no section '" + tag + "'");
}

}  // namespace icgkit::test

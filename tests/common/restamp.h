// Edits one payload byte of a framed stream and frames that section anew
// through StateWriter, so the edited stream passes every frame check and
// reaches the checks a loader or a wire decoder makes on its own section.
// Both streams it serves start with an 8-byte header: a checkpoint blob's
// magic/version, or the wire's "ICGW" stream header.
#pragma once

#include "core/checkpoint.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace icgkit::test {

/// One section of a framed stream: its tag and where its payload lies.
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
/// and the section framed anew by StateWriter, so its CRC follows the
/// one rule core/checkpoint.h sets for what a frame's CRC covers.
inline std::vector<std::uint8_t> restamped(std::vector<std::uint8_t> blob,
                                           const std::string& tag, std::size_t offset,
                                           std::uint8_t mask) {
  for (const BlobSection& s : blob_sections(blob)) {
    if (s.tag != tag) continue;
    blob.at(s.payload + offset) ^= mask;
    char section[5] = {};
    tag.copy(section, 4);
    core::StateWriter w = core::StateWriter::continuation();
    w.begin_section(section);
    w.bytes(blob.data() + s.payload, s.len);
    w.end_section();
    const std::vector<std::uint8_t> framed = w.take();
    std::copy(framed.begin(), framed.end(),
              blob.begin() + static_cast<std::ptrdiff_t>(s.payload - 8));
    return blob;
  }
  throw std::invalid_argument("restamped: no section '" + tag + "'");
}

}  // namespace icgkit::test

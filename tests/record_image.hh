/**
 * @file
 * The record image of .whrt versions 1 and 2: each record's native
 * 24-byte layout with its 4 tail-padding bytes zeroed. The library
 * reads these versions but no longer writes them, so the tests that
 * build v1/v2 files by hand, and those that compare record arrays
 * byte for byte, write the image here.
 */

#ifndef WHISPER_TESTS_RECORD_IMAGE_HH
#define WHISPER_TESTS_RECORD_IMAGE_HH

#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "trace/branch_record.hh"

namespace whisper::test
{

/** pc, target, kind, taken, instGap, then the tail padding. */
constexpr size_t kImagePaddingAt =
    offsetof(BranchRecord, instGap) + sizeof(uint16_t);
static_assert(sizeof(BranchRecord) == kImagePaddingAt + sizeof(uint32_t));

/** Append the image of @p records to @p out. */
inline void
appendRecordImage(std::vector<unsigned char> &out,
                  std::span<const BranchRecord> records)
{
    const auto *raw =
        reinterpret_cast<const unsigned char *>(records.data());
    size_t at = out.size();
    out.insert(out.end(), raw, raw + records.size_bytes());
    for (size_t i = at + kImagePaddingAt; i < out.size();
         i += sizeof(BranchRecord)) {
        std::memset(out.data() + i, 0, sizeof(uint32_t));
    }
}

/** The image of @p records alone: equal images mean equal records. */
inline std::vector<unsigned char>
imageOf(std::span<const BranchRecord> records)
{
    std::vector<unsigned char> image;
    appendRecordImage(image, records);
    return image;
}

} // namespace whisper::test

#endif // WHISPER_TESTS_RECORD_IMAGE_HH

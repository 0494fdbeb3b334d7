#include "core/whisper_io.hh"

#include <algorithm>
#include <cstdio>

#include "util/byte_codec.hh"

namespace whisper
{

namespace
{

constexpr uint32_t kHintMagic = 0x57484E54; // "WHNT"
constexpr uint32_t kVersion = 1;

/** Hard cap on the hint and placement counts of a bundle. */
constexpr uint64_t kMaxHints = 1ULL << 24;
/** The largest .hints file the caps allow: magic and version, two
 * counts, kMaxHints 44-byte hints and as many 40-byte placements. A
 * larger file is rejected before any of it is read. */
constexpr uint64_t kMaxHintFileBytes = 8 + 2 * 8 + kMaxHints * (44 + 40);

void
putBundleBody(ByteWriter &w, const HintBundle &bundle)
{
    w.put(static_cast<uint64_t>(bundle.hints.size()));
    for (const auto &h : bundle.hints) {
        w.put(h.pc);
        w.put(h.hint.encode());
        w.put(h.historyLength);
        w.put(h.expectedMispredicts);
        w.put(h.profiledMispredicts);
        w.put(h.executions);
    }
    w.put(static_cast<uint64_t>(bundle.placements.size()));
    for (const auto &p : bundle.placements) {
        w.put(p.branchPc);
        w.put(p.predecessorPc);
        w.put(p.coverage);
        w.put(p.precision);
        w.put(p.predecessorExecutions);
    }
}

bool
getBundleBody(ByteReader &r, HintBundle &bundle)
{
    // Entries are appended as they arrive, so a smashed count can
    // allocate no more than the input actually holds.
    uint64_t n = 0;
    r.get(n);
    if (!r.ok() || n > kMaxHints)
        return false;
    bundle.hints.clear();
    for (uint64_t i = 0; i < n; ++i) {
        TrainedHint &h = bundle.hints.emplace_back();
        uint64_t encoded = 0;
        r.get(h.pc);
        r.get(encoded);
        if (!r.ok() || !BrHint::validEncoding(encoded))
            return false;
        h.hint = BrHint::decode(encoded);
        r.get(h.historyLength);
        r.get(h.expectedMispredicts);
        r.get(h.profiledMispredicts);
        r.get(h.executions);
    }
    r.get(n);
    if (!r.ok() || n > kMaxHints)
        return false;
    bundle.placements.clear();
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
        HintPlacement &p = bundle.placements.emplace_back();
        r.get(p.branchPc);
        r.get(p.predecessorPc);
        r.get(p.coverage);
        r.get(p.precision);
        r.get(p.predecessorExecutions);
    }
    if (!r.ok())
        return false;
    // A placement installs its branch's hint, so it must name one.
    std::vector<uint64_t> hinted;
    for (const TrainedHint &h : bundle.hints)
        hinted.push_back(h.pc);
    std::sort(hinted.begin(), hinted.end());
    return std::all_of(
        bundle.placements.begin(), bundle.placements.end(),
        [&](const HintPlacement &p) {
            return std::binary_search(hinted.begin(), hinted.end(),
                                      p.branchPc);
        });
}

/** Read all of @p f into @p out. @return false on a read error or
 * when the file holds more than @p maxBytes, which is checked before
 * anything is allocated. */
bool
readAll(std::FILE *f, uint64_t maxBytes, std::vector<unsigned char> &out)
{
    if (std::fseek(f, 0, SEEK_END) != 0)
        return false;
    long size = std::ftell(f);
    if (size < 0 || static_cast<uint64_t>(size) > maxBytes ||
        std::fseek(f, 0, SEEK_SET) != 0)
        return false;
    out.resize(static_cast<size_t>(size));
    // fread's buffer must not be null, even for zero bytes.
    return out.empty() ||
           std::fread(out.data(), 1, out.size(), f) == out.size();
}

} // namespace

bool
saveHintBundle(const HintBundle &bundle, const std::string &path)
{
    ByteWriter w;
    w.put(kHintMagic);
    w.put(kVersion);
    putBundleBody(w, bundle);
    const std::vector<unsigned char> bytes = w.take();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    return std::fclose(f) == 0 && ok;
}

IoStatus
loadHintBundle(HintBundle &bundle, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return IoStatus::missingFile(path);
    std::vector<unsigned char> bytes;
    bool read = readAll(f, kMaxHintFileBytes, bytes);
    std::fclose(f);
    if (!read)
        return IoStatus::corruptFile(
            path, "unreadable or larger than any bundle");

    ByteReader r(bytes);
    uint32_t magic = 0, version = 0;
    r.get(magic);
    r.get(version);
    if (!r.ok() || magic != kHintMagic)
        return IoStatus::corruptFile(
            path, "bad magic (not a hint bundle)");
    if (version != kVersion)
        return IoStatus::corruptFile(path,
                                     "unsupported bundle version");
    HintBundle loaded;
    if (!getBundleBody(r, loaded) || !r.done())
        return IoStatus::corruptFile(
            path, "truncated, damaged or trailing bytes");
    bundle = std::move(loaded);
    return IoStatus::okStatus();
}

std::vector<unsigned char>
encodeVersionedBundle(const VersionedHintBundle &bundle)
{
    ByteWriter w;
    w.put(bundle.epoch);
    w.put(bundle.validationAccuracy);
    putBundleBody(w, bundle.bundle);
    return w.take();
}

bool
decodeVersionedBundle(VersionedHintBundle &bundle,
                      const unsigned char *data, size_t size)
{
    ByteReader r(data, size);
    VersionedHintBundle loaded;
    r.get(loaded.epoch);
    r.get(loaded.validationAccuracy);
    if (!getBundleBody(r, loaded.bundle) || !r.done())
        return false; // truncated, out of bounds or trailing garbage
    bundle = std::move(loaded);
    return true;
}

} // namespace whisper

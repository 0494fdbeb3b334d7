#include "core/whisper_io.hh"

#include <algorithm>
#include <cstdio>
#include <type_traits>

#include "util/byte_codec.hh"

namespace whisper
{

namespace
{

constexpr uint32_t kProfileMagic = 0x57485052; // "WHPR"
constexpr uint32_t kHintMagic = 0x57484E54;    // "WHNT"
constexpr uint32_t kEpochMagic = 0x57484550;   // "WHEP"
constexpr uint32_t kVersion = 1;

/** Hard caps on untrusted length fields (counts, not bytes). */
constexpr uint64_t kMaxHints = 1ULL << 24;
constexpr uint64_t kMaxBranches = 1ULL << 32;
/** Widest hashed history a 256-bit formula truth table can score. */
constexpr unsigned kMaxHashWidth = 8;

/** Checked binary writer/reader over stdio: the file-backed twin
 * of ByteWriter/ByteReader, same put/get/putVec32/getVec32/ok()
 * interface, so putBundleBody/getBundleBody serve files and byte
 * buffers alike. */
class BinFile
{
  public:
    BinFile(const std::string &path, const char *mode)
        : f_(std::fopen(path.c_str(), mode))
    {
    }
    ~BinFile()
    {
        if (f_)
            std::fclose(f_);
    }
    BinFile(const BinFile &) = delete;
    BinFile &operator=(const BinFile &) = delete;

    bool opened() const { return f_ != nullptr; }
    bool ok() const { return f_ != nullptr && ok_; }

    template <typename T>
    void
    put(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (ok() && std::fwrite(&v, 1, sizeof(T), f_) != sizeof(T))
            ok_ = false;
    }

    template <typename T>
    void
    get(T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (ok() && std::fread(&v, 1, sizeof(T), f_) != sizeof(T))
            ok_ = false;
    }

    void
    putVec32(const std::vector<uint32_t> &v)
    {
        put(static_cast<uint64_t>(v.size()));
        if (ok() && !v.empty() &&
            std::fwrite(v.data(), sizeof(uint32_t), v.size(), f_) !=
                v.size()) {
            ok_ = false;
        }
    }

    bool
    getVec32(std::vector<uint32_t> &v, uint64_t maxSize)
    {
        uint64_t n = 0;
        get(n);
        if (!ok() || n > maxSize)
            return false;
        v.resize(n);
        if (!v.empty() &&
            std::fread(v.data(), sizeof(uint32_t), v.size(), f_) !=
                v.size()) {
            ok_ = false;
        }
        return ok();
    }

  private:
    std::FILE *f_;
    bool ok_ = true;
};

void
putSampleTable(BinFile &f, const HashedSampleTable &t)
{
    f.putVec32(t.taken);
    f.putVec32(t.notTaken);
}

/** Read one T/NT table pair; both halves must have exactly
 * 2^@p keyBits entries. */
bool
getSampleTable(BinFile &f, HashedSampleTable &t, unsigned keyBits)
{
    uint64_t keys = 1ULL << keyBits;
    return f.getVec32(t.taken, keys) && t.taken.size() == keys &&
           f.getVec32(t.notTaken, keys) && t.notTaken.size() == keys;
}

template <typename Writer>
void
putBundleBody(Writer &f, const HintBundle &bundle)
{
    f.put(static_cast<uint64_t>(bundle.hints.size()));
    for (const auto &h : bundle.hints) {
        f.put(h.pc);
        f.put(h.hint.encode());
        f.put(h.historyLength);
        f.put(h.expectedMispredicts);
        f.put(h.profiledMispredicts);
        f.put(h.executions);
    }
    f.put(static_cast<uint64_t>(bundle.placements.size()));
    for (const auto &p : bundle.placements) {
        f.put(p.branchPc);
        f.put(p.predecessorPc);
        f.put(p.coverage);
        f.put(p.precision);
        f.put(p.predecessorExecutions);
    }
}

template <typename Reader>
bool
getBundleBody(Reader &f, HintBundle &bundle)
{
    // Entries are appended as they arrive, so a smashed count can
    // allocate no more than the input actually holds.
    uint64_t n = 0;
    f.get(n);
    if (!f.ok() || n > kMaxHints)
        return false;
    bundle.hints.clear();
    for (uint64_t i = 0; i < n; ++i) {
        TrainedHint &h = bundle.hints.emplace_back();
        uint64_t encoded = 0;
        f.get(h.pc);
        f.get(encoded);
        if (!f.ok() || !BrHint::validEncoding(encoded))
            return false;
        h.hint = BrHint::decode(encoded);
        f.get(h.historyLength);
        f.get(h.expectedMispredicts);
        f.get(h.profiledMispredicts);
        f.get(h.executions);
    }
    f.get(n);
    if (!f.ok() || n > kMaxHints)
        return false;
    bundle.placements.clear();
    for (uint64_t i = 0; i < n && f.ok(); ++i) {
        HintPlacement &p = bundle.placements.emplace_back();
        f.get(p.branchPc);
        f.get(p.predecessorPc);
        f.get(p.coverage);
        f.get(p.precision);
        f.get(p.predecessorExecutions);
    }
    if (!f.ok())
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

} // namespace

bool
saveProfile(const BranchProfile &profile, const std::string &path)
{
    BinFile f(path, "wb");
    if (!f.ok())
        return false;

    f.put(kProfileMagic);
    f.put(kVersion);
    const WhisperConfig &cfg = profile.config();
    f.put(cfg.minHistoryLength);
    f.put(cfg.maxHistoryLength);
    f.put(cfg.numHistoryLengths);
    f.put(cfg.hashWidth);
    f.put(profile.totalInstructions);
    f.put(profile.totalConditionals);
    f.put(profile.totalMispredicts);

    f.put(static_cast<uint64_t>(profile.numBranches()));
    for (const auto &[pc, e] : profile.entries()) {
        f.put(e.pc);
        f.put(e.executions);
        f.put(e.takenCount);
        f.put(e.baselineMispredicts);
        f.put(static_cast<uint8_t>(e.hard));
        if (e.hard) {
            for (const auto &table : e.byLength)
                putSampleTable(f, table);
            putSampleTable(f, e.raw4);
            putSampleTable(f, e.raw8);
        }
    }
    return f.ok();
}

IoStatus
loadProfile(BranchProfile &profile, const std::string &path)
{
    BinFile f(path, "rb");
    if (!f.opened())
        return IoStatus::missingFile(path);

    uint32_t magic = 0, version = 0;
    f.get(magic);
    f.get(version);
    if (!f.ok() || magic != kProfileMagic)
        return IoStatus::corruptFile(path,
                                     "bad magic (not a profile)");
    if (version != kVersion)
        return IoStatus::corruptFile(path,
                                     "unsupported profile version");

    WhisperConfig cfg;
    f.get(cfg.minHistoryLength);
    f.get(cfg.maxHistoryLength);
    f.get(cfg.numHistoryLengths);
    f.get(cfg.hashWidth);
    if (!f.ok() || cfg.numHistoryLengths < 2 ||
        cfg.numHistoryLengths > 16 || cfg.minHistoryLength < 1 ||
        cfg.minHistoryLength >= cfg.maxHistoryLength ||
        cfg.hashWidth < 1 || cfg.hashWidth > kMaxHashWidth) {
        return IoStatus::corruptFile(path,
                                     "implausible profile config");
    }

    BranchProfile loaded(cfg);
    f.get(loaded.totalInstructions);
    f.get(loaded.totalConditionals);
    f.get(loaded.totalMispredicts);

    uint64_t numBranches = 0;
    f.get(numBranches);
    if (!f.ok() || numBranches > kMaxBranches)
        return IoStatus::corruptFile(path,
                                     "branch count out of bounds");

    for (uint64_t i = 0; i < numBranches; ++i) {
        uint64_t pc = 0;
        f.get(pc);
        if (!f.ok())
            return IoStatus::corruptFile(path, "truncated entry");
        BranchProfileEntry &e = loaded.entry(pc);
        f.get(e.executions);
        f.get(e.takenCount);
        f.get(e.baselineMispredicts);
        uint8_t hard = 0;
        f.get(hard);
        if (!f.ok())
            return IoStatus::corruptFile(path, "truncated entry");
        if (hard) {
            loaded.markHard(pc);
            for (auto &table : e.byLength) {
                if (!getSampleTable(f, table, cfg.hashWidth)) {
                    return IoStatus::corruptFile(
                        path, "damaged sample table");
                }
            }
            if (!getSampleTable(f, e.raw4, 4) ||
                !getSampleTable(f, e.raw8, 8)) {
                return IoStatus::corruptFile(path,
                                             "damaged sample table");
            }
        }
    }
    if (!f.ok())
        return IoStatus::corruptFile(path, "truncated profile");
    profile = std::move(loaded);
    return IoStatus::okStatus();
}

bool
saveHintBundle(const HintBundle &bundle, const std::string &path)
{
    BinFile f(path, "wb");
    if (!f.ok())
        return false;
    f.put(kHintMagic);
    f.put(kVersion);
    putBundleBody(f, bundle);
    return f.ok();
}

IoStatus
loadHintBundle(HintBundle &bundle, const std::string &path)
{
    BinFile f(path, "rb");
    if (!f.opened())
        return IoStatus::missingFile(path);
    uint32_t magic = 0, version = 0;
    f.get(magic);
    f.get(version);
    if (!f.ok() || magic != kHintMagic)
        return IoStatus::corruptFile(
            path, "bad magic (not a hint bundle)");
    if (version != kVersion)
        return IoStatus::corruptFile(path,
                                     "unsupported bundle version");

    HintBundle loaded;
    if (!getBundleBody(f, loaded))
        return IoStatus::corruptFile(path,
                                     "truncated or damaged bundle");
    bundle = std::move(loaded);
    return IoStatus::okStatus();
}

bool
saveVersionedBundle(const VersionedHintBundle &bundle,
                    const std::string &path)
{
    BinFile f(path, "wb");
    if (!f.ok())
        return false;
    f.put(kEpochMagic);
    f.put(kVersion);
    f.put(bundle.epoch);
    f.put(bundle.validationAccuracy);
    putBundleBody(f, bundle.bundle);
    return f.ok();
}

IoStatus
loadVersionedBundle(VersionedHintBundle &bundle,
                    const std::string &path)
{
    BinFile f(path, "rb");
    if (!f.opened())
        return IoStatus::missingFile(path);
    uint32_t magic = 0, version = 0;
    f.get(magic);
    f.get(version);
    if (!f.ok() || magic != kEpochMagic)
        return IoStatus::corruptFile(
            path, "bad magic (not a versioned bundle)");
    if (version != kVersion)
        return IoStatus::corruptFile(path,
                                     "unsupported bundle version");

    VersionedHintBundle loaded;
    f.get(loaded.epoch);
    f.get(loaded.validationAccuracy);
    if (!f.ok())
        return IoStatus::corruptFile(path, "truncated epoch header");
    if (!getBundleBody(f, loaded.bundle))
        return IoStatus::corruptFile(path,
                                     "truncated or damaged bundle");
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

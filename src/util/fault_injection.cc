#include "util/fault_injection.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace whisper
{

namespace
{

/** SplitMix64: cheap, seedable, stateless-per-call mixing. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Split "a:b" (both optional) around the first ':'. */
void
splitPair(const std::string &value, std::string &a, std::string &b)
{
    size_t colon = value.find(':');
    if (colon == std::string::npos) {
        a = value;
        b.clear();
    } else {
        a = value.substr(0, colon);
        b = value.substr(colon + 1);
    }
}

/** A whole number that fits in 64 bits. strtoull alone would skip
 * leading whitespace, negate a leading '-' and saturate on overflow,
 * so a digit must come first and ERANGE fails. */
bool
parseU64(const std::string &s, uint64_t &out)
{
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s.c_str(), &end, 0);
    return *end == '\0' && errno != ERANGE;
}

} // namespace

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::reset()
{
    enabled_ = false;
    flipChunks_ = false;
    flipPeriod_ = 100;
    flipSeed_ = 0x77486973ULL;
    framesSeen_ = 0;
    failReads_ = 0;
    readsAttempted_ = 0;
    tornAppend_ = 0;
    failTrainEnabled_ = false;
    failTrainIndex_ = 0;
    wireCorruptPeriod_ = 0;
    wireTearPeriod_ = 0;
    wireKillPeriod_ = 0;
    wireStallPeriod_ = 0;
    wireStallMs_ = 50;
    wireSends_ = 0;
    listenerRestartAfter_ = 0;
    listenerChunks_ = 0;
    listenerRestartDone_ = false;
    framesCorrupted_ = 0;
    readsFailed_ = 0;
    writesTorn_ = 0;
    trainFailures_ = 0;
    wireCorrupted_ = 0;
    wireTorn_ = 0;
    wireKills_ = 0;
    wireStalled_ = 0;
    listenerRestarts_ = 0;
}

bool
FaultInjector::configure(const std::string &spec, std::string *error)
{
    reset();
    if (spec.empty())
        return true;

    auto fail = [&](const std::string &msg) {
        reset();
        if (error)
            *error = msg;
        return false;
    };

    size_t at = 0;
    while (at <= spec.size()) {
        size_t comma = spec.find(',', at);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string token = spec.substr(at, comma - at);
        at = comma + 1;
        if (token.empty())
            continue;

        std::string key = token, value;
        size_t eq = token.find('=');
        if (eq != std::string::npos) {
            key = token.substr(0, eq);
            value = token.substr(eq + 1);
        }

        if (key == "flip-chunks") {
            flipChunks_ = true;
            if (!value.empty()) {
                // Accept either a whole period ("100") or a rate
                // ("0.01", at least 1e-18 so the period fits).
                uint64_t period = 0;
                char *end = nullptr;
                double rate = std::strtod(value.c_str(), &end);
                if (parseU64(value, period) && period >= 1)
                    flipPeriod_ = period;
                else if (*end == '\0' && rate >= 1e-18 && rate < 1.0)
                    flipPeriod_ =
                        static_cast<uint64_t>(std::llround(1.0 / rate));
                else
                    return fail("flip-chunks: bad value '" + value +
                                "'");
            }
        } else if (key == "fail-read") {
            failReads_ = 2;
            if (!value.empty() && !parseU64(value, failReads_))
                return fail("fail-read: bad value '" + value + "'");
        } else if (key == "truncate-journal") {
            tornAppend_ = 2;
            if (!value.empty() && !parseU64(value, tornAppend_))
                return fail("truncate-journal: bad value '" + value +
                            "'");
            if (tornAppend_ == 0)
                return fail("truncate-journal: value is 1-based");
        } else if (key == "fail-train") {
            failTrainEnabled_ = true;
            uint64_t v = 0;
            if (!value.empty() && !parseU64(value, v))
                return fail("fail-train: bad index '" + value + "'");
            failTrainIndex_ = static_cast<size_t>(v);
        } else if (key == "wire-corrupt") {
            wireCorruptPeriod_ = 8;
            if (!value.empty() &&
                (!parseU64(value, wireCorruptPeriod_) ||
                 wireCorruptPeriod_ == 0)) {
                return fail("wire-corrupt: bad period '" + value +
                            "'");
            }
        } else if (key == "wire-tear") {
            wireTearPeriod_ = 16;
            if (!value.empty() &&
                (!parseU64(value, wireTearPeriod_) ||
                 wireTearPeriod_ == 0)) {
                return fail("wire-tear: bad period '" + value + "'");
            }
        } else if (key == "wire-kill") {
            wireKillPeriod_ = 16;
            if (!value.empty() &&
                (!parseU64(value, wireKillPeriod_) ||
                 wireKillPeriod_ == 0)) {
                return fail("wire-kill: bad period '" + value + "'");
            }
        } else if (key == "wire-stall") {
            wireStallPeriod_ = 32;
            if (!value.empty()) {
                std::string period, ms;
                splitPair(value, period, ms);
                if (!period.empty() &&
                    (!parseU64(period, wireStallPeriod_) ||
                     wireStallPeriod_ == 0)) {
                    return fail("wire-stall: bad period '" + period +
                                "'");
                }
                if (!ms.empty() && !parseU64(ms, wireStallMs_))
                    return fail("wire-stall: bad ms '" + ms + "'");
            }
        } else if (key == "restart-listener") {
            listenerRestartAfter_ = 8;
            if (!value.empty() &&
                (!parseU64(value, listenerRestartAfter_) ||
                 listenerRestartAfter_ == 0)) {
                return fail("restart-listener: bad count '" + value +
                            "'");
            }
        } else if (key == "seed") {
            if (!parseU64(value, flipSeed_))
                return fail("seed: bad value '" + value + "'");
        } else {
            return fail("unknown fault token '" + key + "'");
        }
    }
    enabled_ = true;
    return true;
}

bool
FaultInjector::corruptFrame(void *data, size_t bytes)
{
    if (!enabled_ || !flipChunks_ || bytes == 0)
        return false;
    uint64_t frame = framesSeen_.fetch_add(1);
    // Periodic and phase-0, so even a short stream sees at least one
    // corrupted frame — a probabilistic 1% would usually see none.
    if (frame % flipPeriod_ != 0)
        return false;
    auto *p = static_cast<unsigned char *>(data);
    uint64_t r = mix64(flipSeed_ ^ frame);
    p[r % bytes] ^= static_cast<unsigned char>(1u << ((r >> 32) & 7));
    framesCorrupted_.fetch_add(1);
    return true;
}

bool
FaultInjector::failRead()
{
    if (!enabled_ || failReads_ == 0)
        return false;
    if (readsAttempted_.fetch_add(1) >= failReads_)
        return false;
    readsFailed_.fetch_add(1);
    return true;
}

FaultInjector::WritePlan
FaultInjector::journalWritePlan(uint64_t appendIndex)
{
    if (!enabled_ || tornAppend_ == 0 ||
        appendIndex + 1 != tornAppend_) {
        return WritePlan::Full;
    }
    writesTorn_.fetch_add(1);
    return WritePlan::Torn;
}

FaultInjector::WireSendPlan
FaultInjector::wireSendPlan(unsigned attempt)
{
    bool any = wireCorruptPeriod_ || wireTearPeriod_ ||
               wireKillPeriod_ || wireStallPeriod_;
    if (!enabled_ || !any || attempt != 1)
        return WireSendPlan::Normal;
    // The index advances on first attempts only, so a chunk that was
    // faulted once retransmits clean — every injected fault makes
    // progress instead of livelocking.
    uint64_t n = wireSends_.fetch_add(1);
    // Distinct phase offsets so co-armed tokens with common factors
    // do not all claim the same send (folded by each period so a
    // period-1 token still fires on every send).
    if (wireCorruptPeriod_ &&
        n % wireCorruptPeriod_ == 0 % wireCorruptPeriod_) {
        wireCorrupted_.fetch_add(1);
        return WireSendPlan::CorruptPayload;
    }
    if (wireTearPeriod_ &&
        n % wireTearPeriod_ == 1 % wireTearPeriod_) {
        wireTorn_.fetch_add(1);
        return WireSendPlan::TearAndDrop;
    }
    if (wireKillPeriod_ &&
        n % wireKillPeriod_ == 2 % wireKillPeriod_) {
        wireKills_.fetch_add(1);
        return WireSendPlan::KillAfterSend;
    }
    if (wireStallPeriod_ &&
        n % wireStallPeriod_ == 3 % wireStallPeriod_) {
        wireStalled_.fetch_add(1);
        return WireSendPlan::StallMidFrame;
    }
    return WireSendPlan::Normal;
}

bool
FaultInjector::shouldRestartListener()
{
    if (!enabled_ || listenerRestartAfter_ == 0)
        return false;
    if (listenerChunks_.fetch_add(1) + 1 < listenerRestartAfter_)
        return false;
    if (listenerRestartDone_.exchange(true))
        return false;
    listenerRestarts_.fetch_add(1);
    return true;
}

bool
FaultInjector::failTraining(size_t taskIndex)
{
    if (!enabled_ || !failTrainEnabled_ ||
        taskIndex != failTrainIndex_)
        return false;
    trainFailures_.fetch_add(1);
    return true;
}

} // namespace whisper

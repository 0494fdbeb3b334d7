#include "util/fault_injection.hh"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <vector>

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

bool
parseU64(const std::string &s, uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 0);
    return end && *end == '\0';
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
    stallEnabled_ = false;
    stallMs_ = 400;
    stallDone_ = false;
    killEnabled_ = false;
    killDone_ = false;
    failTrainEnabled_ = false;
    failTrainIndex_ = 0;
    failTrainAttempts_ = 1'000'000;
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
    workerStalls_ = 0;
    workerKills_ = 0;
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
                // Accept either a period ("100") or a rate ("0.01").
                double rate = std::atof(value.c_str());
                if (rate <= 0.0)
                    return fail("flip-chunks: bad value '" + value +
                                "'");
                flipPeriod_ =
                    rate < 1.0
                        ? static_cast<uint64_t>(std::lround(1.0 / rate))
                        : static_cast<uint64_t>(std::lround(rate));
                if (flipPeriod_ == 0)
                    flipPeriod_ = 1;
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
        } else if (key == "stall-worker") {
            // Like kill-worker, the stall lands on the first claim
            // by any worker: a fixed worker id may never claim.
            stallEnabled_ = true;
            if (!value.empty() && !parseU64(value, stallMs_))
                return fail("stall-worker: bad ms '" + value + "'");
        } else if (key == "kill-worker") {
            // Which worker claims first is not observable under
            // work stealing, so there is no worker id to pick.
            if (!value.empty())
                return fail("kill-worker: takes no value, got '" +
                            value + "'");
            killEnabled_ = true;
        } else if (key == "fail-train") {
            failTrainEnabled_ = true;
            if (!value.empty()) {
                std::string idx, n;
                splitPair(value, idx, n);
                uint64_t v = 0;
                if (!idx.empty()) {
                    if (!parseU64(idx, v))
                        return fail("fail-train: bad index '" + idx +
                                    "'");
                    failTrainIndex_ = static_cast<size_t>(v);
                }
                if (!n.empty()) {
                    if (!parseU64(n, v))
                        return fail("fail-train: bad count '" + n +
                                    "'");
                    failTrainAttempts_ = static_cast<unsigned>(v);
                }
            }
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

void
FaultInjector::maybeStallWorker()
{
    if (!enabled_ || !stallEnabled_)
        return;
    if (stallDone_.exchange(true))
        return;
    workerStalls_.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(stallMs_));
}

bool
FaultInjector::shouldKillWorker()
{
    if (!enabled_ || !killEnabled_)
        return false;
    if (killDone_.exchange(true))
        return false;
    workerKills_.fetch_add(1);
    return true;
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
FaultInjector::failTraining(size_t taskIndex, unsigned attempt)
{
    if (!enabled_ || !failTrainEnabled_ ||
        taskIndex != failTrainIndex_ ||
        attempt > failTrainAttempts_) {
        return false;
    }
    trainFailures_.fetch_add(1);
    return true;
}

} // namespace whisper

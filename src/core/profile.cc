#include "core/profile.hh"

#include <algorithm>

#include "util/logging.hh"

namespace whisper
{

void
HashedSampleTable::addFrom(const HashedSampleTable &other)
{
    if (other.taken.empty())
        return;
    if (taken.empty()) {
        taken = other.taken;
        notTaken = other.notTaken;
        return;
    }
    whisper_assert(taken.size() == other.taken.size());
    for (size_t i = 0; i < taken.size(); ++i) {
        taken[i] += other.taken[i];
        notTaken[i] += other.notTaken[i];
    }
}

uint64_t
HashedSampleTable::totalSamples() const
{
    uint64_t sum = 0;
    for (size_t i = 0; i < taken.size(); ++i)
        sum += taken[i] + notTaken[i];
    return sum;
}

uint64_t
HashedSampleTable::oracleMispredicts() const
{
    uint64_t sum = 0;
    for (size_t i = 0; i < taken.size(); ++i)
        sum += std::min(taken[i], notTaken[i]);
    return sum;
}

GlobalHistory
sampleHistory(const WhisperConfig &cfg)
{
    GlobalHistory history(2 * cfg.maxHistoryLength);
    for (unsigned len : geometricLengths(cfg))
        history.addFoldedView(len, cfg.hashWidth);
    whisper_assert(history.numViews() <= BranchProfileEntry::kMaxLengths,
                   "too many candidate history lengths");
    return history;
}

BranchProfile::BranchProfile(const WhisperConfig &cfg)
    : cfg_(cfg), lengths_(geometricLengths(cfg))
{
}

BranchProfileEntry &
BranchProfile::entry(uint64_t pc)
{
    auto [it, inserted] = entries_.try_emplace(pc);
    if (inserted)
        it->second.pc = pc;
    return it->second;
}

BranchProfileEntry *
BranchProfile::count(const BranchRecord &rec, bool miss,
                     BranchProfileEntry *known)
{
    totalInstructions += static_cast<uint64_t>(rec.instGap) + 1;
    if (!rec.isConditional())
        return nullptr;
    ++totalConditionals;
    BranchProfileEntry &e = known ? *known : entry(rec.pc);
    ++e.executions;
    if (rec.taken)
        ++e.takenCount;
    if (miss) {
        ++e.baselineMispredicts;
        ++totalMispredicts;
    }
    return &e;
}

void
BranchProfile::markHard(uint64_t pc)
{
    BranchProfileEntry &e = entry(pc);
    if (e.hard)
        return;
    e.hard = true;
    e.byLength.assign(lengths_.size(),
                      HashedSampleTable(cfg_.hashWidth));
    e.raw4 = HashedSampleTable(4);
    e.raw8 = HashedSampleTable(8);
}

size_t
BranchProfile::numHardBranches() const
{
    size_t n = 0;
    for (const auto &[pc, e] : entries_)
        if (e.hard)
            ++n;
    return n;
}

std::vector<const BranchProfileEntry *>
BranchProfile::hardBranches() const
{
    std::vector<const BranchProfileEntry *> hard;
    for (const auto &[pc, e] : entries_)
        if (e.hard)
            hard.push_back(&e);
    std::sort(hard.begin(), hard.end(),
              [](const BranchProfileEntry *a,
                 const BranchProfileEntry *b) {
                  if (a->baselineMispredicts != b->baselineMispredicts)
                      return a->baselineMispredicts >
                             b->baselineMispredicts;
                  return a->pc < b->pc;
              });
    return hard;
}

void
BranchProfile::mergeFrom(const BranchProfile &other)
{
    whisper_assert(lengths_ == other.lengths_,
                   "merging profiles with different length series");
    totalInstructions += other.totalInstructions;
    totalConditionals += other.totalConditionals;
    totalMispredicts += other.totalMispredicts;

    for (const auto &[pc, oe] : other.entries_) {
        BranchProfileEntry &e = entry(pc);
        e.executions += oe.executions;
        e.takenCount += oe.takenCount;
        e.baselineMispredicts += oe.baselineMispredicts;
        if (oe.hard) {
            if (!e.hard)
                markHard(pc);
            for (size_t l = 0; l < e.byLength.size(); ++l)
                e.byLength[l].addFrom(oe.byLength[l]);
            e.raw4.addFrom(oe.raw4);
            e.raw8.addFrom(oe.raw8);
        }
    }
}

} // namespace whisper

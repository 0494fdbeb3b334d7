#include "service/hint_store.hh"

#include "util/logging.hh"

namespace whisper
{

size_t
HintStore::restore(std::vector<VersionedHintBundle> history)
{
    VersionedHintBundle *last = nullptr;
    size_t kept = 0;
    for (VersionedHintBundle &bundle : history) {
        uint64_t lastEpoch = last ? last->epoch : 0;
        if (bundle.epoch <= lastEpoch) {
            whisper_warn("hint store: dropping non-monotonic journal "
                         "record (epoch ", bundle.epoch, " after ",
                         lastEpoch, ")");
            continue;
        }
        last = &bundle;
        ++kept;
    }
    if (!last)
        return 0;

    std::lock_guard<std::mutex> lock(mutex_);
    whisper_assert(!current_, "restore() must precede any deployment");
    nextEpoch_.store(last->epoch + 1, std::memory_order_relaxed);
    current_ = std::make_shared<VersionedHintBundle>(std::move(*last));
    return kept;
}

void
HintStore::attachJournal(HintJournal *journal)
{
    journal_ = journal;
}

bool
HintStore::propose(HintBundle candidate, double candidateAccuracy,
                   double incumbentAccuracy, double margin)
{
    if (candidateAccuracy <= incumbentAccuracy + margin) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    auto version = std::make_shared<VersionedHintBundle>();
    version->epoch =
        nextEpoch_.fetch_add(1, std::memory_order_relaxed);
    version->validationAccuracy = candidateAccuracy;
    version->bundle = std::move(candidate);
    if (journal_ && !journal_->append(*version))
        whisper_warn("hint store: journal append failed for epoch ",
                     version->epoch, " (deployment proceeds, "
                     "durability degraded)");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        current_ = std::move(version);
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

HintStoreConsultant::HintStoreConsultant(const HintStore &store,
                                         const WhisperConfig &cfg,
                                         const TruthTableCache &cache,
                                         BaselineFactory baseline)
    : store_(store), cfg_(cfg), cache_(cache),
      baseline_(std::move(baseline))
{
}

WhisperPredictor &
HintStoreConsultant::predictor()
{
    if (!active_) {
        HintStore::Snapshot snap = store_.current();
        static const std::vector<TrainedHint> noHints;
        static const std::vector<HintPlacement> noPlacements;
        active_ = std::make_unique<WhisperPredictor>(
            baseline_(), cfg_, cache_,
            snap ? snap->bundle.hints : noHints,
            snap ? snap->bundle.placements : noPlacements);
        seenEpoch_ = snap ? snap->epoch : 0;
    }
    return *active_;
}

BranchPredictor *
HintStoreConsultant::refresh(uint64_t)
{
    HintStore::Snapshot snap = store_.current();
    if (!snap || snap->epoch == seenEpoch_)
        return nullptr;
    if (active_) {
        active_->replaceHints(snap->bundle.hints,
                              snap->bundle.placements);
    } else {
        active_ = std::make_unique<WhisperPredictor>(
            baseline_(), cfg_, cache_, snap->bundle.hints,
            snap->bundle.placements);
    }
    seenEpoch_ = snap->epoch;
    return active_.get();
}

} // namespace whisper

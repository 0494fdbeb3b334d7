/**
 * @file
 * Profile-guided static prediction (Fisher & Freudenberger, one of
 * the classic offline methods the paper's related work surveys):
 * every static branch is predicted in its profiled majority
 * direction, with no dynamic state at all. Included as the floor
 * reference for what profile information alone buys.
 */

#ifndef WHISPER_CORE_STATIC_PROFILE_HH
#define WHISPER_CORE_STATIC_PROFILE_HH

#include <cstdint>
#include <unordered_map>

#include "bp/branch_predictor.hh"

namespace whisper
{

class BranchProfile;

/** Static majority-direction predictor from a profile. */
class StaticProfilePredictor : public BranchPredictor
{
  public:
    /**
     * @param profile training profile supplying per-branch majority
     *        directions
     * @param fallbackTaken direction for branches absent from the
     *        profile (backward-taken heuristics are out of scope:
     *        the synthetic traces carry no loop-direction encoding)
     */
    explicit StaticProfilePredictor(const BranchProfile &profile,
                                    bool fallbackTaken = true);

    void step(std::span<const BranchRecord> records, uint8_t *miss,
              const uint8_t *noAllocate = nullptr) override;
    std::string name() const override { return "profile-static"; }

    size_t coveredBranches() const { return direction_.size(); }

  private:
    std::unordered_map<uint64_t, bool> direction_;
    bool fallbackTaken_;
};

} // namespace whisper

#endif // WHISPER_CORE_STATIC_PROFILE_HH

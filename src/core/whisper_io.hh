/**
 * @file
 * The deployable hint bundle and its two encodings.
 *
 * Offline analysis hands the binary one artifact (paper Fig. 10,
 * step 3): the trained hints and their brhint placements. The .hints
 * file holds one bundle; whisper_train and whisperd --out-dir write
 * it, whisper_eval --hints and whisper_train --warm-hints read it.
 * loadHintBundle returns IoStatus so a caller can tell a missing
 * file (regenerate it) from a corrupt one (raise an incident); every
 * count is bounds-checked, so a damaged or hostile length can never
 * drive an unbounded allocation.
 *
 * A bundle stamped with its deployment epoch is encoded to / decoded
 * from a memory buffer: the payload of a hint-store journal record
 * and of the wire protocol's BUNDLE reply.
 */

#ifndef WHISPER_CORE_WHISPER_IO_HH
#define WHISPER_CORE_WHISPER_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/hint_injection.hh"
#include "core/whisper_trainer.hh"
#include "util/io_status.hh"

namespace whisper
{

/** Trained hints plus their placements: one deployable bundle. */
struct HintBundle
{
    std::vector<TrainedHint> hints;
    std::vector<HintPlacement> placements;

    bool operator==(const HintBundle &o) const = default;
};

/**
 * A hint bundle stamped with its deployment epoch and the validation
 * accuracy it was accepted with — what whisperd's versioned hint
 * store persists so a restarted consumer can tell which generation
 * of hints it is running.
 */
struct VersionedHintBundle
{
    uint64_t epoch = 0;
    double validationAccuracy = 0.0;
    HintBundle bundle;

    bool operator==(const VersionedHintBundle &o) const = default;
};

/** Save/load a hint bundle (.hints). A load rejects a bad header,
 * a damaged body and trailing bytes as corrupt. */
bool saveHintBundle(const HintBundle &bundle,
                    const std::string &path);
IoStatus loadHintBundle(HintBundle &bundle, const std::string &path);

/** Serialize a versioned bundle to bytes (journal record payload). */
std::vector<unsigned char>
encodeVersionedBundle(const VersionedHintBundle &bundle);

/** Parse bytes produced by encodeVersionedBundle. @return false on
 * any truncation or bounds violation. */
bool decodeVersionedBundle(VersionedHintBundle &bundle,
                           const unsigned char *data, size_t size);

} // namespace whisper

#endif // WHISPER_CORE_WHISPER_IO_HH

/**
 * @file
 * Byte-stable text serialization for `RoundNoiseProfile` — the bridge
 * artifact between compilation and simulation, persisted by the artifact
 * store so a warm store can rebuild the noisy circuit without re-running
 * the annotator. Same discipline as `schedule_io`/`dem_io`: exact
 * doubles, strict field counts, CRLF tolerance, error-string failures.
 */
#ifndef TIQEC_NOISE_PROFILE_IO_H
#define TIQEC_NOISE_PROFILE_IO_H

#include <string>
#include <string_view>

#include "noise/annotator.h"

namespace tiqec::noise {

/** Serializes `profile` to the `tiqec-noise v1` text format. */
std::string FormatNoiseProfile(const RoundNoiseProfile& profile);

/**
 * Parses text produced by `FormatNoiseProfile`. Returns true on success;
 * on failure returns false with a diagnostic in `*error` and leaves
 * `*profile` unspecified.
 */
bool ParseNoiseProfile(std::string_view text, RoundNoiseProfile* profile,
                       std::string* error);

}  // namespace tiqec::noise

#endif  // TIQEC_NOISE_PROFILE_IO_H

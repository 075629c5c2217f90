/**
 * @file
 * Byte-stable text serialization for `NoisyCircuit`. The parser rebuilds
 * the circuit by replaying every instruction through the public Add*
 * methods, so all derived state (measurement record counter, observable
 * count, detector metadata) is reconstructed by the same code paths that
 * built the original — there is no second bookkeeping implementation to
 * drift. Exact-double discipline as in `schedule_io`; parse failures are
 * reported as error strings so the artifact store can isolate a corrupt
 * file like a compile error.
 */
#ifndef TIQEC_SIM_CIRCUIT_IO_H
#define TIQEC_SIM_CIRCUIT_IO_H

#include <optional>
#include <string>
#include <string_view>

#include "sim/noisy_circuit.h"

namespace tiqec::sim {

/** Serializes `circuit` to the `tiqec-circuit v2` text format. */
std::string FormatNoisyCircuit(const NoisyCircuit& circuit);

/**
 * Parses text produced by `FormatNoisyCircuit`. Returns the rebuilt
 * circuit, or nullopt with a diagnostic in `*error`.
 */
std::optional<NoisyCircuit> ParseNoisyCircuit(std::string_view text,
                                              std::string* error);

}  // namespace tiqec::sim

#endif  // TIQEC_SIM_CIRCUIT_IO_H

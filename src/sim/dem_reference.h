/**
 * @file
 * Differential oracle for `sim::BuildDem`: the forward bit-lane DEM
 * extractor, kept verbatim for tests and benchmarks. Production code
 * (core/, store/, tools/) never calls it and no option selects it.
 */
#ifndef TIQEC_SIM_DEM_REFERENCE_H
#define TIQEC_SIM_DEM_REFERENCE_H

#include "sim/dem.h"

namespace tiqec::sim {

/** Extracts the DEM of `circuit` by forward propagation of one bit-lane
 *  per error component. Output is byte-identical to `BuildDem` under
 *  `FormatDem`; cost is quadratic in circuit length. */
DetectorErrorModel BuildDemReference(const NoisyCircuit& circuit);

}  // namespace tiqec::sim

#endif  // TIQEC_SIM_DEM_REFERENCE_H

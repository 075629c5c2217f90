/**
 * @file
 * Simulated logical workloads: which one a candidate runs, and the
 * builder that turns a compiled round into its noisy experiment.
 *
 * The evaluation tool flow (core/pipeline.h) compiles one parity-check
 * round of a code onto a device and annotates it with schedule-derived
 * noise; `BuildExperiment` then assembles the full noisy circuit the
 * Monte-Carlo estimate samples: preparation, `rounds` repetitions of
 * the compiled round, detectors, readout, and logical observables.
 *
 * Three single-code workloads are provided (DESIGN.md §5):
 *
 *  - memory: the logical-identity benchmark (paper §6.1), built by
 *    `sim::BuildMemory`.
 *  - surgery: a joint-parity measurement on a merged double patch
 *    (paper §8, qec/surgery.h) - transversal split-state preparation,
 *    `rounds` merged rounds whose first round measures the joint
 *    parity, transversal split readout. Observables: the joint parity
 *    and both patch logicals.
 *  - stability: the same merged-round circuit tracking only the joint
 *    parity - Gidney's "stability experiment", the timelike dual of a
 *    memory experiment; `rounds` is its distance knob. Surgery *is* a
 *    stability experiment for its parity outcome, which is why the two
 *    share the circuit.
 */
#ifndef TIQEC_WORKLOADS_EXPERIMENT_H
#define TIQEC_WORKLOADS_EXPERIMENT_H

#include <cstdint>
#include <memory>
#include <string>

#include "circuit/circuit.h"
#include "noise/annotator.h"
#include "noise/noise_model.h"
#include "qec/code.h"
#include "sim/memory_experiment.h"
#include "sim/noisy_circuit.h"

namespace tiqec::workloads {

class BoundProgram;

/** Which logical workload a candidate simulates. */
enum class WorkloadKind : std::uint8_t
{
    kMemory,
    kStability,
    kSurgery,
    /** A bound logical program (workloads/program.h): a multi-patch
     *  lattice-surgery sequence stitched from compiled phase rounds. */
    kProgram,
};

std::string WorkloadKindName(WorkloadKind kind);

/** Parses "memory" | "stability" | "surgery" | "program" (throws
 *  std::invalid_argument on anything else). */
WorkloadKind ParseWorkloadKind(const std::string& name);

/**
 * The experiment shape of one candidate: the workload plus its
 * workload-specific parameters. Memory reads `basis`; surgery and
 * stability take their orientation from the code itself (they require a
 * `qec::MergedPatchCode`, whose `parity()` fixes the measured joint
 * parity); a program workload carries the bound program whose phases
 * the pipeline compiles and stitches (the candidate's `code` must be
 * the program's primary phase code).
 *
 * This is the single workload-selection surface consumed uniformly by
 * `core::SweepRunner` (and so `core::Evaluate`) and
 * `core::BuildSimArtifacts`. Select a workload by setting `kind` (and
 * `basis` for memory); a bare `WorkloadKind` does not convert.
 */
struct WorkloadSpec
{
    WorkloadKind kind = WorkloadKind::kMemory;
    /** Protected logical memory (memory workload only). */
    sim::MemoryBasis basis = sim::MemoryBasis::kZ;
    /** The bound program (program workload only). */
    std::shared_ptr<const BoundProgram> program;

    WorkloadSpec() = default;
    explicit WorkloadSpec(WorkloadKind kind) : kind(kind) {}
    WorkloadSpec(WorkloadKind kind, sim::MemoryBasis basis)
        : kind(kind), basis(basis)
    {
    }

    /** Spec for a bound program workload. */
    static WorkloadSpec Program(std::shared_ptr<const BoundProgram> bound)
    {
        WorkloadSpec spec(WorkloadKind::kProgram);
        spec.program = std::move(bound);
        return spec;
    }
};

/** Observable layout of the surgery experiment. */
inline constexpr int kJointParityObservable = 0;
inline constexpr int kPatchALogicalObservable = 1;
inline constexpr int kPatchBLogicalObservable = 2;

/**
 * Assembles the noisy experiment `spec` selects over `rounds` compiled
 * rounds: `sim::BuildMemory` for memory, `BuildSurgery`
 * (workloads/surgery.h) for surgery and stability. A pure function of
 * its arguments, the property the sweep engine's artifact cache
 * depends on.
 *
 * @param round_circuit One compiled parity-check round in the QEC IR
 *        (the circuit the profile was annotated against).
 * @param profile Schedule-derived per-gate noise for one round.
 * @param params Noise parameters (data prep / readout errors).
 *
 * Throws std::invalid_argument when the code cannot host the workload
 * (surgery/stability on anything that is not a `qec::MergedPatchCode`)
 * and for the program workload, which has no single-code experiment.
 */
sim::NoisyCircuit BuildExperiment(const qec::StabilizerCode& code,
                                  const circuit::Circuit& round_circuit,
                                  const noise::RoundNoiseProfile& profile,
                                  const noise::NoiseParams& params,
                                  int rounds, const WorkloadSpec& spec);

}  // namespace tiqec::workloads

#endif  // TIQEC_WORKLOADS_EXPERIMENT_H

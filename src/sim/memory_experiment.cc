#include "sim/memory_experiment.h"

#include <cassert>
#include <vector>

#include "sim/round_ops.h"

namespace tiqec::sim {

NoisyCircuit
BuildMemory(const qec::StabilizerCode& code,
            const circuit::Circuit& round_circuit,
            const noise::RoundNoiseProfile& profile,
            const noise::NoiseParams& params, int rounds,
            MemoryBasis basis)
{
    assert(rounds >= 1);
    // The "anchor" check type is stabilised by the prepared state, so its
    // round-0 outcomes are deterministic and it carries the space-like
    // final layer; the other type only gets consecutive-round detectors.
    const qec::CheckType anchor = basis == MemoryBasis::kZ
                                      ? qec::CheckType::kZ
                                      : qec::CheckType::kX;
    NoisyCircuit sim(code.num_qubits());
    const RoundOps round_ops(code, round_circuit, profile);

    // Transversal preparation of the data qubits: |0>^n for memory-Z,
    // |+>^n (reset then H) for memory-X.
    for (const QubitId q : code.data_qubits()) {
        sim.AddReset(q.value, params.ResetError());
        if (basis == MemoryBasis::kX) {
            sim.AddH(q.value);
        }
    }

    // meas[r][k] = record index of check k's measurement in round r.
    std::vector<std::vector<int>> meas(rounds);

    for (int r = 0; r < rounds; ++r) {
        round_ops.AppendRound(sim, meas[r]);
        // Time-like detectors.
        for (int k = 0; k < code.num_ancillas(); ++k) {
            const auto& chk = code.checks()[k];
            const Coord coord = code.qubit(chk.ancilla).coord;
            if (chk.type == anchor && r == 0) {
                sim.AddDetector({meas[0][k]}, coord, 0, BasisOf(chk.type));
            } else if (r >= 1) {
                sim.AddDetector({meas[r][k], meas[r - 1][k]}, coord, r,
                                BasisOf(chk.type));
            }
        }
    }

    // Transversal readout of the data qubits in the memory basis (an H
    // before a Z-basis measurement reads X).
    std::vector<int> data_record(code.num_qubits(), -1);
    for (const QubitId q : code.data_qubits()) {
        if (basis == MemoryBasis::kX) {
            sim.AddH(q.value);
        }
        data_record[q.value] = sim.AddMeasure(q.value, params.MeasureError());
    }
    // Space-like final detectors for the anchor checks.
    for (int k = 0; k < code.num_ancillas(); ++k) {
        const auto& chk = code.checks()[k];
        if (chk.type != anchor) {
            continue;
        }
        std::vector<std::int32_t> targets = {meas[rounds - 1][k]};
        for (const QubitId dq : chk.data_order) {
            if (dq.valid()) {
                targets.push_back(data_record[dq.value]);
            }
        }
        sim.AddDetector(std::move(targets),
                        code.qubit(chk.ancilla).coord, rounds,
                        BasisOf(chk.type));
    }
    // The protected logical observable.
    const auto& logical = basis == MemoryBasis::kZ ? code.logical_z()
                                                   : code.logical_x();
    std::vector<std::int32_t> obs_targets;
    for (const QubitId q : logical) {
        obs_targets.push_back(data_record[q.value]);
    }
    sim.AddObservableInclude(0, std::move(obs_targets));
    return sim;
}

}  // namespace tiqec::sim

/**
 * @file
 * Content-addressed artifact keys (DESIGN.md §7.1): the one cache
 * identity of the stage chain. The sweep runner's in-memory cache and
 * the on-disk artifact store both key every compile bundle, noise
 * profile and experiment + DEM by these canonical strings, so two
 * candidates share an artifact exactly when the content the stage is a
 * pure function of is equal: the full code definition, the device
 * graph (or the synthesis parameters), the architecture knobs, the
 * experiment shape, and a toolchain fingerprint (compiler banner +
 * build type + source tree hash) so artifacts built by a different
 * binary never alias.
 *
 * The key string is hashed (FNV-1a 64) into the file name; the full
 * string is stored inside the artifact and compared on load, so a hash
 * collision or a stale file degrades to a cache miss, never to wrong
 * artifacts.
 */
#ifndef TIQEC_STORE_KEYS_H
#define TIQEC_STORE_KEYS_H

#include <cstdint>
#include <string>
#include <string_view>

#include "core/architecture.h"
#include "qccd/topology.h"
#include "qec/code.h"
#include "workloads/experiment.h"

namespace tiqec::store {

/** A fully-resolved store key: the canonical content string and the
 *  artifact kind ("compile" | "noise" | "sim") it addresses. */
struct StoreKey
{
    std::string kind;
    std::string canonical;

    /** `<fnv1a64-hex>.art` — the on-disk file name under `<root>/<kind>/`. */
    std::string FileName() const;
};

/** FNV-1a 64-bit hash (stable across platforms and runs). */
std::uint64_t Fnv1a64(std::string_view data);

/** Hash of the src/ tree captured at build time, or "unversioned" when
 *  the build did not generate one (editor/lint compiles). */
std::string SourceFingerprint();

/** Compiler banner + build type + source fingerprint: artifacts from a
 *  different binary must never alias (extends bench::ToolchainRecord's
 *  provenance discipline to the store). */
std::string ToolchainFingerprint();

/** Canonical content description of a code: name, distance, every qubit
 *  (role + layout coordinate), every check (ancilla, type, dance order),
 *  the logical operator supports, and for a `qec::MergedPatchCode` its
 *  parity and patch distance (a merged patch has the same geometry as
 *  a plain rectangle but hosts the surgery workloads). */
std::string CodeFingerprint(const qec::StabilizerCode& code);

/** Canonical content description of a device graph: topology, capacity,
 *  nodes (kind, capacity, coordinate) and segments (endpoints). */
std::string DeviceFingerprint(const qccd::DeviceGraph& graph);

/**
 * Compile-stage key: code + device override (or the (topology,
 * capacity) synthesis inputs) + wiring + compile_rounds. `device` may
 * be null (device synthesised via `MakeDeviceFor`).
 */
StoreKey CompileStoreKey(const qec::StabilizerCode& code,
                         const core::ArchitectureConfig& arch,
                         int compile_rounds,
                         const qccd::DeviceGraph* device);

/** Noise-stage key: compile key + gate-improvement scenario. */
StoreKey NoiseStoreKey(const StoreKey& compile_key, double gate_improvement);

/** Sim-stage key: noise key + experiment shape (rounds, basis,
 *  workload). A program workload additionally passes the program's
 *  canonical text (`workloads::BoundProgram::canonical_text()`),
 *  appended as `|program={...}`; the default empty string keeps every
 *  non-program key byte-identical to the historical format. */
StoreKey SimStoreKey(const StoreKey& noise_key, int rounds, int basis,
                     int workload, const std::string& program_canonical = "");

/** The sim-stage key of a candidate running `spec`: only the memory
 *  workload reads the basis, so every other workload keys basis 0 and
 *  basis-varying candidates share one experiment + DEM; a program
 *  contributes its canonical text. */
StoreKey SimStoreKey(const StoreKey& noise_key, int rounds,
                     const workloads::WorkloadSpec& spec);

}  // namespace tiqec::store

#endif  // TIQEC_STORE_KEYS_H

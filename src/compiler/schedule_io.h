/**
 * @file
 * Schedule serialisation: CSV export of a timed instruction stream for
 * offline analysis and visualisation (Gantt charts of trap / junction /
 * segment occupancy), a parser for the same format, and a compact
 * per-pass summary. These are the artefacts a hardware team would hand
 * to the control-system generator.
 *
 * The CSV round-trips: doubles are written in shortest exact
 * (round-trippable) form, so serialise -> parse -> re-serialise is
 * byte-stable and parsing loses no timing information.
 */
#ifndef TIQEC_COMPILER_SCHEDULE_IO_H
#define TIQEC_COMPILER_SCHEDULE_IO_H

#include <ostream>
#include <string>
#include <string_view>

#include "compiler/schedule.h"

namespace tiqec::compiler {

/**
 * Writes one row per operation:
 * `index,pass,kind,ion0,ion1,node,segment,start_us,duration_us,chain,nbar,source_gate`.
 * (`duration_us` rather than the derived end time: the stored field
 * round-trips exactly, where `end - start` need not in floating point.)
 */
void WriteScheduleCsv(const Schedule& schedule, std::ostream& os);

/** Returns the CSV as a string (convenience for tests and tools). */
std::string ScheduleCsv(const Schedule& schedule);

/**
 * Parses the `WriteScheduleCsv` format back into a schedule. Aggregate
 * stats (makespan, movement ops/time) are recomputed from the parsed
 * ops and `num_passes` from the pass column; the QEC-IR `source_gate`
 * link round-trips via the last column, so a parsed schedule can be
 * re-annotated (the artifact store depends on this). CRLF input is
 * accepted; short rows and rows with a trailing empty field are
 * rejected explicitly.
 *
 * @throws std::invalid_argument on a malformed header, row, field, or
 *   unknown op kind (the offending line is quoted).
 */
Schedule ParseScheduleCsv(std::string_view csv);

/**
 * Per-pass summary: pass index, time window, gate and movement op
 * counts. One line per pass, human-readable.
 */
std::string ScheduleSummary(const Schedule& schedule);

}  // namespace tiqec::compiler

#endif  // TIQEC_COMPILER_SCHEDULE_IO_H

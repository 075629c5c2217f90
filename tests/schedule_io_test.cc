/**
 * @file
 * Tests for schedule serialisation and the compiler's ablation options.
 */
#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "compiler/schedule_io.h"
#include "noise/annotator.h"
#include "qccd/device_state.h"

namespace tiqec::compiler {
namespace {

using qccd::TimingModel;
using qccd::TopologyKind;

CompilationResult
CompileD3(const CompilerOptions& options = {})
{
    static const qec::RotatedSurfaceCode code(3);
    const TimingModel timing;
    const auto graph = MakeDeviceFor(code, TopologyKind::kGrid, 2);
    return CompileParityCheckRounds(code, 1, graph, timing, options);
}

TEST(ScheduleIoTest, CsvHasHeaderAndOneRowPerOp)
{
    const auto result = CompileD3();
    ASSERT_TRUE(result.ok);
    const std::string csv = ScheduleCsv(result.schedule);
    const auto rows = std::count(csv.begin(), csv.end(), '\n');
    EXPECT_EQ(rows, static_cast<long>(result.schedule.ops.size()) + 1);
    EXPECT_EQ(csv.rfind("index,pass,kind,", 0), 0u);
    EXPECT_NE(csv.find("SPLIT"), std::string::npos);
    EXPECT_NE(csv.find("MEAS"), std::string::npos);
}

TEST(ScheduleIoTest, CsvTimesAreConsistent)
{
    const auto result = CompileD3();
    ASSERT_TRUE(result.ok);
    std::istringstream in(ScheduleCsv(result.schedule));
    std::string line;
    std::getline(in, line);  // header
    size_t i = 0;
    while (std::getline(in, line)) {
        // start_us is field 8, duration_us field 9 (0-based 7, 8).
        std::vector<std::string> fields;
        std::string field;
        std::istringstream ls(line);
        while (std::getline(ls, field, ',')) {
            fields.push_back(field);
        }
        ASSERT_EQ(fields.size(), 12u) << line;
        const double start = std::stod(fields[7]);
        const double duration = std::stod(fields[8]);
        // Shortest-exact formatting: the parsed values are the doubles.
        EXPECT_EQ(start, result.schedule.ops[i].start);
        EXPECT_EQ(duration, result.schedule.ops[i].duration);
        ++i;
    }
    EXPECT_EQ(i, result.schedule.ops.size());
}

// ---- CSV round-trip over every schedule a small sweep emits. ----

std::vector<CompilationResult>
SmallSweepCompilations()
{
    const TimingModel timing;
    std::vector<CompilationResult> results;
    for (const int d : {2, 3}) {
        for (const TopologyKind topology :
             {TopologyKind::kLinear, TopologyKind::kGrid,
              TopologyKind::kSwitch}) {
            for (const int cap : {2, 3}) {
                const auto code = qec::MakeCode("rotated", d);
                const auto graph = MakeDeviceFor(*code, topology, cap);
                auto result =
                    CompileParityCheckRounds(*code, 1, graph, timing);
                if (result.ok) {
                    results.push_back(std::move(result));
                }
            }
        }
    }
    return results;
}

TEST(ScheduleIoRoundTripTest, ParseInvertsWriteOverASmallSweep)
{
    const auto results = SmallSweepCompilations();
    ASSERT_GE(results.size(), 8u);
    for (const auto& result : results) {
        const std::string csv = ScheduleCsv(result.schedule);
        const Schedule parsed = ParseScheduleCsv(csv);
        ASSERT_EQ(parsed.ops.size(), result.schedule.ops.size());
        for (size_t i = 0; i < parsed.ops.size(); ++i) {
            const TimedOp& a = result.schedule.ops[i];
            const TimedOp& b = parsed.ops[i];
            EXPECT_EQ(a.op.kind, b.op.kind) << i;
            EXPECT_EQ(a.op.pass, b.op.pass) << i;
            EXPECT_EQ(a.op.ion0, b.op.ion0) << i;
            EXPECT_EQ(a.op.ion1, b.op.ion1) << i;
            EXPECT_EQ(a.op.node, b.op.node) << i;
            EXPECT_EQ(a.op.segment, b.op.segment) << i;
            // Exact: shortest round-trip formatting loses nothing.
            EXPECT_EQ(a.start, b.start) << i;
            EXPECT_EQ(a.duration, b.duration) << i;
            EXPECT_EQ(a.chain_size, b.chain_size) << i;
            EXPECT_EQ(a.nbar, b.nbar) << i;
            EXPECT_EQ(a.op.source_gate, b.op.source_gate) << i;
        }
        EXPECT_EQ(parsed.makespan, result.schedule.makespan);
        EXPECT_EQ(parsed.num_movement_ops,
                  result.schedule.num_movement_ops);
        EXPECT_EQ(parsed.num_passes, result.schedule.num_passes);
    }
}

TEST(ScheduleIoRoundTripTest, ReserializationIsByteStable)
{
    for (const auto& result : SmallSweepCompilations()) {
        const std::string csv = ScheduleCsv(result.schedule);
        const std::string twice = ScheduleCsv(ParseScheduleCsv(csv));
        EXPECT_EQ(csv, twice);
    }
}

TEST(ScheduleIoRoundTripTest, AnnotatedSchedulesRoundTripToo)
{
    // chain_size / nbar are back-filled by the noise annotator; the
    // round-trip must carry them (nbar is a non-trivial double).
    const qec::RotatedSurfaceCode code(3);
    const TimingModel timing;
    const auto graph = MakeDeviceFor(code, TopologyKind::kGrid, 2);
    auto result = CompileParityCheckRounds(code, 1, graph, timing);
    ASSERT_TRUE(result.ok);
    noise::AnnotateRound(code, graph, result, noise::NoiseParams{},
                         timing, &result.schedule);
    const std::string csv = ScheduleCsv(result.schedule);
    const Schedule parsed = ParseScheduleCsv(csv);
    bool saw_nontrivial_nbar = false;
    ASSERT_EQ(parsed.ops.size(), result.schedule.ops.size());
    for (size_t i = 0; i < parsed.ops.size(); ++i) {
        EXPECT_EQ(parsed.ops[i].chain_size,
                  result.schedule.ops[i].chain_size);
        EXPECT_EQ(parsed.ops[i].nbar, result.schedule.ops[i].nbar);
        saw_nontrivial_nbar |= parsed.ops[i].nbar != 0.0;
    }
    EXPECT_TRUE(saw_nontrivial_nbar);
    EXPECT_EQ(csv, ScheduleCsv(parsed));
}

TEST(ScheduleIoRoundTripTest, MalformedInputThrows)
{
    EXPECT_THROW(ParseScheduleCsv(std::string("not,a,header\n")),
                 std::invalid_argument);
    const std::string header =
        "index,pass,kind,ion0,ion1,node,segment,start_us,duration_us,"
        "chain,nbar,source_gate\n";
    EXPECT_THROW(
        ParseScheduleCsv(header + "0,0,BOGUS,0,-1,0,-1,0,1,1,0,-1\n"),
        std::invalid_argument);
    EXPECT_THROW(ParseScheduleCsv(header + "0,0,MS,0,-1,0,-1\n"),
                 std::invalid_argument);
    EXPECT_THROW(
        ParseScheduleCsv(header + "5,0,MS,0,-1,0,-1,0,1,1,0,-1\n"),
        std::invalid_argument);
    EXPECT_THROW(
        ParseScheduleCsv(header + "0,0,MS,x,-1,0,-1,0,1,1,0,-1\n"),
        std::invalid_argument);
    // An empty schedule round-trips to just the header.
    const Schedule empty = ParseScheduleCsv(header);
    EXPECT_TRUE(empty.ops.empty());
    EXPECT_EQ(ScheduleCsv(empty), header);
}

TEST(ScheduleIoRoundTripTest, CrlfInputParsesIdentically)
{
    // Regression: the parser used to compare the header including the
    // '\r' (failing every CRLF file) and, when the header was forced
    // through, parsed "0\r" as a corrupt trailing field.
    const auto result = CompileD3();
    ASSERT_TRUE(result.ok);
    const std::string csv = ScheduleCsv(result.schedule);
    std::string crlf;
    crlf.reserve(csv.size() + csv.size() / 40);
    for (const char c : csv) {
        if (c == '\n') {
            crlf += '\r';
        }
        crlf += c;
    }
    const Schedule parsed = ParseScheduleCsv(crlf);
    // Re-serialising the CRLF parse reproduces the LF original exactly.
    EXPECT_EQ(ScheduleCsv(parsed), csv);
}

TEST(ScheduleIoRoundTripTest, TrailingEmptyFieldIsRejected)
{
    // Regression: the getline(',') field loop silently dropped a
    // trailing empty field, so a row truncated after the final comma
    // parsed as a short row with a wrong nbar instead of erroring.
    const std::string header =
        "index,pass,kind,ion0,ion1,node,segment,start_us,duration_us,"
        "chain,nbar,source_gate\n";
    // 12 commas -> 13 fields once the trailing empty one is counted.
    EXPECT_THROW(
        ParseScheduleCsv(header + "0,0,MS,0,-1,0,-1,0,1,1,0,-1,\n"),
        std::invalid_argument);
    // Final field empty (row ends in ','): the empty field must be an
    // explicit parse error, not silently dropped.
    EXPECT_THROW(ParseScheduleCsv(header + "0,0,MS,0,-1,0,-1,0,1,1,0,\n"),
                 std::invalid_argument);
}

TEST(ScheduleIoTest, SummaryListsEveryPass)
{
    const auto result = CompileD3();
    ASSERT_TRUE(result.ok);
    const std::string summary = ScheduleSummary(result.schedule);
    for (int p = 0; p < result.routing.num_passes; ++p) {
        EXPECT_NE(summary.find("pass " + std::to_string(p) + ":"),
                  std::string::npos)
            << summary;
    }
    EXPECT_NE(summary.find("makespan"), std::string::npos);
}

TEST(AblationOptionsTest, DisablingHomePreferenceStillCompiles)
{
    CompilerOptions options;
    options.router.prefer_home = false;
    const auto result = CompileD3(options);
    ASSERT_TRUE(result.ok) << result.error;
    // Without the anchor policy the schedule is strictly worse.
    const auto full = CompileD3();
    EXPECT_GT(result.schedule.makespan, full.schedule.makespan);
}

TEST(AblationOptionsTest, AllowingDetoursStillCompiles)
{
    CompilerOptions options;
    options.router.reject_detours = false;
    const auto result = CompileD3(options);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_GE(result.routing.num_movement_ops, 288);
}

TEST(AblationOptionsTest, NaivePlacementIsMuchWorse)
{
    CompilerOptions naive;
    naive.naive_placement = true;
    const auto result = CompileD3(naive);
    ASSERT_TRUE(result.ok) << result.error;
    const auto full = CompileD3();
    EXPECT_GT(result.schedule.makespan, 3.0 * full.schedule.makespan)
        << "geometric placement should be the largest single win";
}

TEST(AblationOptionsTest, NaivePlacementStreamIsStillValid)
{
    // Even the ablated configurations must respect hardware constraints.
    CompilerOptions naive;
    naive.naive_placement = true;
    naive.router.prefer_home = false;
    naive.router.reject_detours = false;
    const qec::RotatedSurfaceCode code(3);
    const TimingModel timing;
    const auto graph = MakeDeviceFor(code, TopologyKind::kGrid, 2);
    const auto result =
        CompileParityCheckRounds(code, 1, graph, timing, naive);
    ASSERT_TRUE(result.ok) << result.error;
    qccd::DeviceState state(graph, code.num_qubits());
    for (int q = 0; q < code.num_qubits(); ++q) {
        state.LoadIon(QubitId(q), result.placement.qubit_trap[q]);
    }
    for (const auto& op : result.routing.ops) {
        const auto err = state.TryApply(op);
        ASSERT_FALSE(err.has_value()) << *err;
    }
}

}  // namespace
}  // namespace tiqec::compiler

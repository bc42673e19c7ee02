#ifndef ADARTS_BENCH_E2E_CHECKS_H_
#define ADARTS_BENCH_E2E_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "client.h"
#include "common/status.h"
#include "la/vector_ops.h"
#include "ts/time_series.h"

namespace adarts::e2e {

// The benchmark's correctness checks. Each returns OK or an error naming
// the first offending item; a failed check fails the run.

/// `got[i] == expected[i]` for every i, with equal sizes. Used for served
/// recommendations against an in-process engine loaded from the same
/// snapshot, and for race elites of the stage-composed replay against Train.
Status CheckSameSequence(std::string_view what,
                         const std::vector<std::string>& expected,
                         const std::vector<std::string>& got);

/// Bit-for-bit equality of two vectors (the replay's composed feature
/// vector against `Adarts::ExtractFeatures`).
Status CheckBitIdentical(std::string_view what, const la::Vector& expected,
                         const la::Vector& got);

/// A repaired set has the input's shape, no missing or non-finite value,
/// and every observed input value unchanged bit for bit.
Status CheckRepairedSet(const std::vector<ts::TimeSeries>& input,
                        const std::vector<ts::TimeSeries>& output);

/// During hot swaps every successful reply names a published engine version,
/// and at least two versions answered. Replies that never reached an engine
/// (shed, deadline, error: engine_version 0) are failures counted elsewhere,
/// not version evidence, and are skipped.
Status CheckSwapVersions(const std::vector<Reply>& replies,
                         const std::vector<std::uint64_t>& published);

/// Every attempted request was answered.
Status CheckAllAnswered(std::size_t attempted, std::size_t answered);

/// No attempted operation failed: the workloads are sized so that none
/// does, so a shed, an error or a deadline makes the run incorrect.
Status CheckNoneFailed(std::uint64_t attempted, std::uint64_t failed);

}  // namespace adarts::e2e

#endif  // ADARTS_BENCH_E2E_CHECKS_H_

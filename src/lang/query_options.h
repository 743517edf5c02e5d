#ifndef EGOCENSUS_LANG_QUERY_OPTIONS_H_
#define EGOCENSUS_LANG_QUERY_OPTIONS_H_

// The one parser of census-shaping query settings, shared by the ecensus
// CLI and the daemon's QUERY headers (docs/SERVER.md, "QUERY headers").

#include <map>
#include <string>

#include "lang/engine.h"
#include "util/status.h"

namespace egocensus {

/// Query settings keyed as the wire protocol spells its headers:
///   algorithm       auto|nd-bas|nd-pvot|nd-diff|pt-bas|pt-opt|pt-rnd
///   matcher         cn|gql
///   fast_path       auto|force|off
///   threads         unsigned (0 = all cores)
///   seed            unsigned RND() seed
///   degrade-approx  present = degrade stopped censuses to estimates;
///                   value = sample rate in permille (1..1000)
/// Absent keys keep the defaults: the planner picks the engine (`auto`),
/// CN matcher, fast path available to the planner, one thread, seed 99.
/// The CLI maps its flags onto the same keys.
using QuerySettings = std::map<std::string, std::string>;

/// Value lists for usage text, matching what ParseQueryOptions accepts.
inline constexpr const char* kAlgorithmValues =
    "auto|nd-bas|nd-pvot|nd-diff|pt-bas|pt-opt|pt-rnd";
inline constexpr const char* kMatcherValues = "cn|gql";
inline constexpr const char* kFastPathValues = "auto|force|off";

/// Fills `options` from `settings`. An explicit algorithm runs exactly
/// that engine; the fast path then runs only with fast_path=force.
/// Returns InvalidArgument naming the first bad setting.
[[nodiscard]] Status ParseQueryOptions(const QuerySettings& settings,
                                       QueryEngine::Options* options);

}  // namespace egocensus

#endif  // EGOCENSUS_LANG_QUERY_OPTIONS_H_

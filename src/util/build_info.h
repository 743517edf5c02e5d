#ifndef EGOCENSUS_UTIL_BUILD_INFO_H_
#define EGOCENSUS_UTIL_BUILD_INFO_H_

// Build identity of this binary: git revision, build type, and whether the
// fault-injection failpoints are compiled in. The daemon stamps this string
// on every response (`server` header) and in STATUS; `ecensus --version`
// and `ecensusd --version` print it.

#include <string>

namespace egocensus {

/// Structured build identity (each field also appears in the STATUS JSON).
struct BuildInfo {
  std::string git_describe;  // `git describe --always --dirty` at configure
  std::string build_type;    // CMAKE_BUILD_TYPE
  bool failpoints_enabled = false;  // EGOCENSUS_FAILPOINTS (fault injection)
};

/// The identity baked into this binary.
BuildInfo GetBuildInfo();

/// One-line rendering:
///   egocensus <git> (<build-type>; failpoints=on|off)
std::string BuildInfoString();

}  // namespace egocensus

#endif  // EGOCENSUS_UTIL_BUILD_INFO_H_

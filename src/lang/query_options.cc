#include "lang/query_options.h"

#include "util/strings.h"

namespace egocensus {
namespace {

const std::string* Find(const QuerySettings& settings, const char* key) {
  auto it = settings.find(key);
  return it == settings.end() ? nullptr : &it->second;
}

[[nodiscard]] Status ParseUnsigned(const QuerySettings& settings,
                                   const char* key, std::uint64_t* value) {
  const std::string* text = Find(settings, key);
  if (text == nullptr) return Status::Ok();
  std::uint64_t parsed = 0;
  for (char c : *text) {
    if (c < '0' || c > '9' || parsed > (~0ull - 9) / 10) {
      return Status::InvalidArgument(std::string("bad ") + key + " '" +
                                     *text + "' (expected unsigned integer)");
    }
    parsed = parsed * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (text->empty()) {
    return Status::InvalidArgument(std::string("empty ") + key);
  }
  *value = parsed;
  return Status::Ok();
}

}  // namespace

[[nodiscard]] Status ParseQueryOptions(const QuerySettings& settings,
                                       QueryEngine::Options* options) {
  if (Status s = ParseUnsigned(settings, "seed", &options->rnd_seed);
      !s.ok()) {
    return s;
  }
  std::uint64_t threads = options->census.num_threads;
  if (Status s = ParseUnsigned(settings, "threads", &threads); !s.ok()) {
    return s;
  }
  if (threads > 0xFFFFFFFFull) {
    return Status::InvalidArgument("threads " + std::to_string(threads) +
                                   " out of range");
  }
  options->census.num_threads = static_cast<std::uint32_t>(threads);

  if (const std::string* name = Find(settings, "algorithm")) {
    const std::string wanted = ToLower(*name);
    bool known = false;
    for (CensusAlgorithm algorithm :
         {CensusAlgorithm::kAuto, CensusAlgorithm::kNdBas,
          CensusAlgorithm::kNdPvot, CensusAlgorithm::kNdDiff,
          CensusAlgorithm::kPtBas, CensusAlgorithm::kPtOpt,
          CensusAlgorithm::kPtRnd}) {
      if (wanted == CensusAlgorithmFlag(algorithm)) {
        options->census.algorithm = algorithm;
        options->auto_algorithm = algorithm == CensusAlgorithm::kAuto;
        known = true;
      }
    }
    if (!known) {
      return Status::InvalidArgument("unknown algorithm " + *name +
                                     " (expected " + kAlgorithmValues + ")");
    }
  }

  if (const std::string* matcher = Find(settings, "matcher")) {
    const std::string wanted = ToLower(*matcher);
    if (wanted != "cn" && wanted != "gql") {
      return Status::InvalidArgument("unknown matcher " + *matcher +
                                     " (expected cn or gql)");
    }
    options->census.use_gql_matcher = wanted == "gql";
  }

  if (const std::string* mode = Find(settings, "fast_path")) {
    const std::string wanted = ToLower(*mode);
    if (wanted == "auto") {
      options->census.fast_path = FastPathMode::kAuto;
    } else if (wanted == "force") {
      options->census.fast_path = FastPathMode::kForce;
    } else if (wanted == "off") {
      options->census.fast_path = FastPathMode::kOff;
    } else {
      return Status::InvalidArgument("unknown fast_path " + *mode +
                                     " (expected auto, force or off)");
    }
  }

  if (const std::string* degrade = Find(settings, "degrade-approx")) {
    options->census.degrade_to_approx = true;
    std::uint64_t permille = 0;
    if (!degrade->empty()) {
      if (Status s = ParseUnsigned(settings, "degrade-approx", &permille);
          !s.ok()) {
        return s;
      }
    }
    if (permille > 0 && permille <= 1000) {
      options->census.degrade_sample_rate =
          static_cast<double>(permille) / 1000.0;
    }
  }
  return Status::Ok();
}

}  // namespace egocensus

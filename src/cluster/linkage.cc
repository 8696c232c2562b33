#include "cluster/linkage.h"

#include "util/string_util.h"

namespace dust::cluster {

const char* LinkageName(Linkage linkage) {
  switch (linkage) {
    case Linkage::kSingle:
      return "single";
    case Linkage::kComplete:
      return "complete";
    case Linkage::kAverage:
      return "average";
    case Linkage::kWard:
      return "ward";
  }
  // A value outside the enum is a corrupted tag; naming it "?" would let it
  // keep flowing. Abort.
  DUST_CHECK(false && "invalid Linkage enum value");
  return "";
}

Result<Linkage> LinkageFromName(const std::string& name) {
  std::string lower = ToLower(name);
  if (lower == "single") return Linkage::kSingle;
  if (lower == "complete") return Linkage::kComplete;
  if (lower == "average") return Linkage::kAverage;
  if (lower == "ward") return Linkage::kWard;
  return Status::InvalidArgument(
      "unknown linkage \"" + name +
      "\" (expected single, complete, average, or ward)");
}

}  // namespace dust::cluster

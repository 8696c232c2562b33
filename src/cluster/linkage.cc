#include "cluster/linkage.h"

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

}  // namespace dust::cluster

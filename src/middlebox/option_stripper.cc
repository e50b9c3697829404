#include "middlebox/option_stripper.h"

namespace mptcp {

void OptionStripper::process(TcpSegment seg) {
  if (in_scope(seg)) {
    const size_t before = seg.options.size();
    switch (what_) {
      case What::kAllMptcp:
        seg.options.erase_if(
            [](const TcpOption& o) { return is_mptcp_option(o); });
        break;
      case What::kMpCapable:
        remove_options<MpCapableOption>(seg.options);
        break;
      case What::kMpJoin:
        remove_options<MpJoinOption>(seg.options);
        break;
      case What::kDss:
        remove_options<DssOption>(seg.options);
        break;
      case What::kAllUnknown:
        seg.options.erase_if([](const TcpOption& o) {
          return !(std::holds_alternative<MssOption>(o) ||
                   std::holds_alternative<WindowScaleOption>(o) ||
                   std::holds_alternative<TimestampOption>(o) ||
                   std::holds_alternative<SackPermittedOption>(o) ||
                   std::holds_alternative<SackOption>(o));
        });
        break;
    }
    removed_ += before - seg.options.size();
  }
  emit(std::move(seg));
}

}  // namespace mptcp

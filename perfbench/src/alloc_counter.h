// Allocation counting for the traced run only.
//
// The replacement operator new in alloc_counter.cpp checks one relaxed flag
// per allocation and adds to a shared counter only while counting is
// enabled. The untraced (end-to-end) runs leave it disabled, so the shared
// atomic add never sits inside their timing.
#pragma once

#include <cstdint>

namespace perfbench {

/// Turns counting on or off (process-wide).
void set_alloc_counting(bool on);

/// Allocations counted while counting was on, since process start.
std::uint64_t allocations();

}  // namespace perfbench

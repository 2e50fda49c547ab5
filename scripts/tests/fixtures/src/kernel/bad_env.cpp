// Fixture: process-global state inside the kernel layer. The primitives
// run inside every refit, so picking an implementation from the
// environment or timing a call there would make fit results depend on the
// host; every marked line must produce a [wall-clock] finding.
#include <chrono>
#include <cstdlib>

bool use_alternate_table() {
  const char* env = std::getenv("KERNEL_TABLE");  // BAD: env-selected table
  return env != nullptr;
}

double timed_call() {
  auto t = std::chrono::steady_clock::now();  // BAD: wall clock in a kernel
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

// Mentioning getenv( in a comment must NOT fire.

// Self-test of the benchmark's own rules and gates (see selftest.cpp).
#pragma once

namespace e2e {

/// Runs every self-check; prints one line per failure and a summary.
/// Returns the process exit code (0 when all pass).
int run_self_test();

}  // namespace e2e

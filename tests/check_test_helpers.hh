/**
 * @file
 * Helpers for test_check.cc, compiled in sibling TUs that pin the
 * contract macros on (JUMANJI_FORCE_CHECKS) or off
 * (JUMANJI_DISABLE_CHECKS), so one test binary can verify both modes
 * regardless of the build type it was compiled under.
 */

#ifndef JUMANJI_TESTS_CHECK_TEST_HELPERS_HH
#define JUMANJI_TESTS_CHECK_TEST_HELPERS_HH

namespace jumanji::checktest {

// Compiled with JUMANJI_FORCE_CHECKS (test_check_forced.cc).
void forcedAssert(bool ok, int *evalCount);
void forcedInvariant(bool ok, int *evalCount);
[[noreturn]] void forcedUnreachable();
/** Runs an EventQueue whose agent calls schedule() from resume(). */
void forcedScheduleFromResume();

// Compiled with JUMANJI_DISABLE_CHECKS (test_check_disabled.cc).
// The condition increments *evalCount and is false, so if a disabled
// macro ever evaluated or enforced it, the tests would see it.
void disabledAssert(int *evalCount);
void disabledInvariant(int *evalCount);

} // namespace jumanji::checktest

#endif // JUMANJI_TESTS_CHECK_TEST_HELPERS_HH

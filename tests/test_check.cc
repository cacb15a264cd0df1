/**
 * @file
 * Tests for the contract-checking layer (src/sim/check.hh): failing
 * checks throw PanicError with the simulation context in the message
 * (death-test style, but catchable because checks panic rather than
 * abort), and disabled checks are free — they never evaluate their
 * expression. The force/disable helper TUs make both modes testable
 * from any build type.
 */

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <thread>

#include "src/sim/check.hh"
#include "src/sim/logging.hh"
#include "tests/check_test_helpers.hh"

namespace jumanji {
namespace {

using checktest::disabledAssert;
using checktest::disabledInvariant;
using checktest::forcedAssert;
using checktest::forcedInvariant;
using checktest::forcedScheduleFromResume;
using checktest::forcedUnreachable;

class CheckTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Known context so message assertions are exact.
        checkSetTick(0);
        checkSetBank(kInvalidBank);
        checkSetCore(-1);
        checkSetPhase("startup");
    }
};

std::string
failureMessage(void (*fn)(bool, int *))
{
    int evals = 0;
    try {
        fn(false, &evals);
    } catch (const PanicError &e) {
        return e.what();
    }
    ADD_FAILURE() << "check did not throw";
    return "";
}

TEST_F(CheckTest, PassingChecksReturnQuietly)
{
    int evals = 0;
    EXPECT_NO_THROW(forcedAssert(true, &evals));
    EXPECT_NO_THROW(forcedInvariant(true, &evals));
    EXPECT_EQ(evals, 2);
}

TEST_F(CheckTest, FailingAssertThrowsPanicError)
{
    int evals = 0;
    EXPECT_THROW(forcedAssert(false, &evals), PanicError);
    EXPECT_EQ(evals, 1);
}

TEST_F(CheckTest, FailingInvariantThrowsPanicError)
{
    int evals = 0;
    EXPECT_THROW(forcedInvariant(false, &evals), PanicError);
    EXPECT_EQ(evals, 1);
}

TEST_F(CheckTest, ScheduleFromResumeBreaksTheQueueContract)
{
    // EventQueue replaces the resumed agent's top entry in place, so
    // a resume() that schedules would corrupt the heap order.
    EXPECT_THROW(forcedScheduleFromResume(), PanicError);
}

TEST_F(CheckTest, UnreachableThrowsPanicError)
{
    EXPECT_THROW(forcedUnreachable(), PanicError);
}

TEST_F(CheckTest, MessageNamesExpressionAndKind)
{
    std::string msg = failureMessage(forcedAssert);
    EXPECT_NE(msg.find("assertion failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("count(ok, evalCount)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("forced assert message"), std::string::npos) << msg;
    EXPECT_NE(msg.find("test_check_forced.cc"), std::string::npos) << msg;

    msg = failureMessage(forcedInvariant);
    EXPECT_NE(msg.find("invariant failed"), std::string::npos) << msg;
}

TEST_F(CheckTest, MessageCarriesSimulationContext)
{
    checkSetTick(123456);
    checkSetBank(7);
    checkSetCore(3);
    checkSetPhase("reconfigure");
    std::string msg = failureMessage(forcedAssert);
    EXPECT_NE(msg.find("tick=123456"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bank=7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("core=3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("phase=reconfigure"), std::string::npos) << msg;
}

TEST_F(CheckTest, UnsetContextRendersDashes)
{
    std::string msg = failureMessage(forcedAssert);
    EXPECT_NE(msg.find("bank=-"), std::string::npos) << msg;
    EXPECT_NE(msg.find("core=-"), std::string::npos) << msg;
    EXPECT_NE(msg.find("phase=startup"), std::string::npos) << msg;
}

TEST_F(CheckTest, DisabledChecksNeitherEvaluateNorThrow)
{
    int evals = 0;
    EXPECT_NO_THROW(disabledAssert(&evals));
    EXPECT_NO_THROW(disabledInvariant(&evals));
    EXPECT_EQ(evals, 0) << "disabled check evaluated its expression";
}

TEST_F(CheckTest, ContextSettersAreObservable)
{
    checkSetTick(42);
    checkSetBank(1);
    checkSetCore(2);
    checkSetPhase("simulate");
    EXPECT_EQ(checkContext().tick, 42u);
    EXPECT_EQ(checkContext().bank, 1);
    EXPECT_EQ(checkContext().core, 2);
    EXPECT_STREQ(checkContext().phase, "simulate");
}

TEST_F(CheckTest, ContextIsThreadLocal)
{
    // Each worker thread publishes into its own context: writes from
    // another thread must never be observable here.
    checkSetTick(111);
    checkSetPhase("main");

    std::promise<void> wrote;
    std::promise<void> checked;
    std::thread other([&] {
        checkSetTick(222);
        checkSetBank(9);
        checkSetPhase("worker");
        wrote.set_value();
        // Hold the thread (and its context) alive until the main
        // thread has verified isolation.
        checked.get_future().wait();
        EXPECT_EQ(checkContext().tick, 222u);
        EXPECT_STREQ(checkContext().phase, "worker");
    });
    wrote.get_future().wait();
    EXPECT_EQ(checkContext().tick, 111u);
    EXPECT_EQ(checkContext().bank, kInvalidBank);
    EXPECT_STREQ(checkContext().phase, "main");
    checked.set_value();
    other.join();
}

TEST_F(CheckTest, ScopeResetsContextOnEntryAndExit)
{
    checkSetTick(777);
    checkSetPhase("stale");
    {
        CheckContextScope scope;
        EXPECT_EQ(checkContext().tick, 0u);
        EXPECT_STREQ(checkContext().phase, "startup");
        EXPECT_TRUE(checkContext().active);
    }
    EXPECT_FALSE(checkContext().active);
    EXPECT_EQ(checkContext().tick, 0u);
}

TEST_F(CheckTest, ScopeRejectsInterleavedRunsOnOneWorker)
{
    CheckContextScope live;
    if (checksActiveInCore()) {
        // A second live run on the same worker thread is a driver
        // bug; Debug builds reject it.
        EXPECT_THROW(CheckContextScope nested, PanicError);
    } else {
        EXPECT_NO_THROW(CheckContextScope nested);
    }
}

TEST_F(CheckTest, ScopesOnDistinctThreadsDoNotCollide)
{
    CheckContextScope live;
    std::thread other([] {
        EXPECT_NO_THROW(CheckContextScope theirs);
    });
    other.join();
}

} // namespace
} // namespace jumanji

// Pins the contract macros ON for this TU (see check_test_helpers.hh).
#define JUMANJI_FORCE_CHECKS 1

#include "src/sim/check.hh"

#include "src/sim/event_queue.hh"
#include "tests/check_test_helpers.hh"

static_assert(JUMANJI_CHECKS_ACTIVE == 1,
              "JUMANJI_FORCE_CHECKS must win over NDEBUG");

namespace jumanji::checktest {

namespace {

bool
count(bool ok, int *evalCount)
{
    (*evalCount)++;
    return ok;
}

} // namespace

void
forcedAssert(bool ok, int *evalCount)
{
    JUMANJI_ASSERT(count(ok, evalCount), "forced assert message");
}

void
forcedInvariant(bool ok, int *evalCount)
{
    JUMANJI_INVARIANT(count(ok, evalCount), "forced invariant message");
}

void
forcedUnreachable()
{
    JUMANJI_UNREACHABLE("forced unreachable message");
}

void
forcedScheduleFromResume()
{
    // Breaks EventQueue's contract: schedules from inside resume().
    class Spawner : public Agent
    {
      public:
        Spawner(EventQueue *queue, Agent *child)
            : queue_(queue), child_(child)
        {
        }

        Tick
        resume(Tick now) override
        {
            queue_->schedule(child_, now);
            return now + 1;
        }

      private:
        EventQueue *queue_;
        Agent *child_;
    };
    class Retiring : public Agent
    {
      public:
        Tick resume(Tick) override { return kTickMax; }
    };

    EventQueue queue;
    Retiring child;
    Spawner spawner(&queue, &child);
    queue.schedule(&spawner, 0);
    queue.runUntil(10);
}

} // namespace jumanji::checktest

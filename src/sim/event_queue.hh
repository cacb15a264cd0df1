/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The simulator is agent-based: each Agent (a core running an app, an
 * attacker thread, the runtime's epoch timer) is resumed at its next
 * wake-up tick and returns the tick at which it next wants to run.
 * A binary heap orders agents by wake-up time; ties break by a stable
 * sequence number so runs are deterministic.
 */

#ifndef JUMANJI_SIM_EVENT_QUEUE_HH
#define JUMANJI_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/check.hh"
#include "src/sim/types.hh"

namespace jumanji {

/**
 * Something that executes at discrete ticks.
 *
 * resume() performs the agent's next unit of work (e.g., one memory
 * access plus the compute burst before it) and returns the tick at
 * which the agent should next be resumed, or kTickMax to retire.
 */
class Agent
{
  public:
    virtual ~Agent() = default;

    /**
     * Runs the agent's next step.
     *
     * @param now The current simulated tick.
     * @return The tick at which to resume this agent next;
     *         kTickMax retires the agent permanently.
     */
    virtual Tick resume(Tick now) = 0;
};

/**
 * The DES kernel: schedules agents and advances simulated time.
 *
 * Contract: Agent::resume() must not call schedule(). The resumed
 * agent's entry stays at the top of the heap while it runs and is
 * then replaced in place by its next wake-up (one sift-down per
 * event instead of a pop plus a push). Because (when, seq) keys are
 * unique, this visits agents in exactly the order a pop-then-push
 * heap would.
 */
class EventQueue
{
  public:
    /** Registers @p agent to first run at @p when. Non-owning. */
    void
    schedule(Agent *agent, Tick when)
    {
        heap_.push_back(Entry{when, seq_++, agent});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** True when no agent remains scheduled. */
    bool empty() const { return heap_.empty(); }

    /**
     * Runs agents until simulated time reaches @p until or the queue
     * drains. Agents scheduled exactly at @p until do not run.
     *
     * @return The tick at which execution stopped.
     */
    Tick
    runUntil(Tick until)
    {
        while (!heap_.empty() && heap_.front().when < until) {
            Entry &top = heap_.front();
            // Event-queue monotonicity: the heap must never surface
            // an event from the past.
            JUMANJI_INVARIANT(top.when >= now_,
                              "event queue went backwards in time");
            now_ = top.when;
            checkSetTick(now_);
            [[maybe_unused]] const std::size_t size = heap_.size();
            Tick next = top.agent->resume(now_);
            JUMANJI_INVARIANT(heap_.size() == size,
                              "Agent::resume called EventQueue::schedule");
            if (next == kTickMax) {
                heap_.front() = heap_.back();
                heap_.pop_back();
            } else {
                // Time must advance; a zero-delay self-loop would hang.
                if (next <= now_) next = now_ + 1;
                heap_.front().when = next;
                heap_.front().seq = seq_++;
            }
            if (!heap_.empty()) siftDownTop();
        }
        if (now_ < until) now_ = until;
        checkSetTick(now_);
        return now_;
    }

    /** Runs until the queue drains. */
    Tick
    runToCompletion()
    {
        return runUntil(kTickMax);
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Agent *agent;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when) return when > o.when;
            return seq > o.seq;
        }
    };

    /**
     * Restores the heap after heap_[0] changed, moving it towards the
     * leaves until no child is earlier. Children of i sit at 2i+1 and
     * 2i+2, the layout std::push_heap keeps.
     */
    void
    siftDownTop()
    {
        const Entry e = heap_.front();
        const std::size_t n = heap_.size();
        std::size_t i = 0;
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n) break;
            if (child + 1 < n && heap_[child] > heap_[child + 1]) child++;
            if (!(e > heap_[child])) break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = e;
    }

    /** Min-heap on (when, seq); heap_[0] runs next. */
    std::vector<Entry> heap_;
    std::uint64_t seq_ = 0;
    Tick now_ = 0;
};

} // namespace jumanji

#endif // JUMANJI_SIM_EVENT_QUEUE_HH

#include "src/sim/profiler.hh"

#include <chrono>
#include <cstdio>
#include <ostream>

#include "src/sim/check.hh"

namespace jumanji {
namespace prof {

namespace {

// The sanctioned host clock read (clock-routing): everything in
// src/ that wants wall time goes through a Profiler, and every
// Profiler defaults to this. Monotonic, so scope math never sees
// time move backwards.
std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

bool enabled = false;

std::string
secondsString(std::uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f",
                  static_cast<double>(ns) / 1e9);
    return buf;
}

} // namespace

Profiler::Profiler() : clock_(&steadyNowNs) {}

ScopeId
Profiler::intern(const std::string &name)
{
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    ScopeId id = static_cast<ScopeId>(slots_.size());
    ids_.emplace(name, id);
    Slot slot;
    slot.name = name;
    slots_.push_back(std::move(slot));
    return id;
}

const std::string &
Profiler::name(ScopeId id) const
{
    JUMANJI_ASSERT(id < slots_.size(), "unknown scope id");
    return slots_[id].name;
}

void
Profiler::enter(ScopeId id)
{
    JUMANJI_ASSERT(id < slots_.size(), "enter of un-interned scope");
    slots_[id].open++;
    stack_.push_back({id, clock_(), 0});
}

void
Profiler::leave(ScopeId id)
{
    JUMANJI_ASSERT(!stack_.empty() && stack_.back().id == id,
                   "scope leave does not match innermost enter");
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::uint64_t end = clock_();
    const std::uint64_t elapsed =
        end >= frame.startNs ? end - frame.startNs : 0;

    Slot &slot = slots_[id];
    slot.calls++;
    slot.open--;
    // Recursive re-entries only extend the outermost activation, so
    // inclusive time counts each wall-clock second once.
    if (slot.open == 0) slot.inclusiveNs += elapsed;
    const std::uint64_t child =
        frame.childNs > elapsed ? elapsed : frame.childNs;
    slot.exclusiveNs += elapsed - child;
    if (!stack_.empty()) stack_.back().childNs += elapsed;
}

bool
Profiler::empty() const
{
    for (const Slot &slot : slots_)
        if (slot.calls > 0) return false;
    return true;
}

std::vector<ScopeTotals>
Profiler::totals() const
{
    std::vector<ScopeTotals> out;
    out.reserve(ids_.size());
    // ids_ is an ordered map keyed by name: report order is name
    // order regardless of interning order.
    for (const auto &entry : ids_) {
        const Slot &slot = slots_[entry.second];
        if (slot.calls == 0) continue;
        ScopeTotals t;
        t.name = slot.name;
        t.calls = slot.calls;
        t.inclusiveNs = slot.inclusiveNs;
        t.exclusiveNs = slot.exclusiveNs;
        out.push_back(std::move(t));
    }
    return out;
}

void
Profiler::mergeFrom(const Profiler &other)
{
    for (const ScopeTotals &t : other.totals()) {
        Slot &slot = slots_[intern(t.name)];
        slot.calls += t.calls;
        slot.inclusiveNs += t.inclusiveNs;
        slot.exclusiveNs += t.exclusiveNs;
    }
}

void
Profiler::reset()
{
    for (Slot &slot : slots_) {
        slot.calls = 0;
        slot.inclusiveNs = 0;
        slot.exclusiveNs = 0;
        slot.open = 0;
    }
    stack_.clear();
}

void
Profiler::setClock(ClockFn clock)
{
    clock_ = clock == nullptr ? &steadyNowNs : clock;
}

void
Profiler::writeJson(std::ostream &os) const
{
    os << "{\n  \"schema\": \"jumanji-profile-v1\",\n  \"scopes\": [";
    bool first = true;
    for (const ScopeTotals &t : totals()) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"name\": \"" << t.name
           << "\", \"calls\": " << t.calls
           << ", \"inclusive_ns\": " << t.inclusiveNs
           << ", \"exclusive_ns\": " << t.exclusiveNs
           << ", \"inclusive_s\": " << secondsString(t.inclusiveNs)
           << ", \"exclusive_s\": " << secondsString(t.exclusiveNs)
           << "}";
    }
    os << (first ? "" : "\n  ") << "]\n}\n";
}

Profiler &
Profiler::current()
{
    static thread_local Profiler profiler;
    return profiler;
}

void
setProfilingEnabled(bool value)
{
    enabled = value;
}

bool
profilingEnabled()
{
    return enabled;
}

Profiler &
aggregateProfile()
{
    static Profiler aggregate;
    return aggregate;
}

void
flushThreadProfile()
{
    Profiler &mine = Profiler::current();
    if (mine.depth() != 0 || mine.empty()) return;
    aggregateProfile().mergeFrom(mine);
    mine.reset();
}

} // namespace prof
} // namespace jumanji

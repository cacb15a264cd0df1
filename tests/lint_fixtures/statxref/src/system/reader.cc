// Fixture: one resolvable and one dangling stat lookup, plus one
// resolvable and one impossible timeline selector, and one impossible
// selector handed to StatRegistry::resolve.
double
readBack(const StatRegistry &reg)
{
    double ok = reg.value("llc.hits");
    double indexed = reg.value("apps.a03.ipc");
    double bad = reg.value("llc.misses");
    return ok + indexed + bad;
}

void
startTimeline(StatRegistry &reg)
{
    EpochRecorder rec(&reg, {"llc.", "bogus.prefix."});
    rec.record(0);
}

std::size_t
countLeaves(const StatRegistry &reg)
{
    return reg.resolve({"gone.prefix."}).size();
}

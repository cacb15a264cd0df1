/**
 * @file
 * The per-file token rules of jumanji_lint. Each rule walks a
 * token stream (tools/lint/lexer.hh), so string literals, char
 * literals, comments, raw strings, and line-spliced constructs can
 * never produce false matches — the exact blind spots of the
 * regex-era tool.
 *
 * Rule scopes (paths are repo-relative):
 *
 *   no-unseeded-rand     rand/srand/random_device everywhere
 *   clock-routing        wall-clock reads in src/ and bench/ minus
 *                        the two sanctioned readers, the profiler
 *                        (src/sim/profiler.cc) and driver telemetry
 *                        (src/driver/telemetry.cc); tools print wall
 *                        timing by design and are not scanned
 *   rng-routing          everywhere except src/sim/rng.hh
 *   unordered-iter       everywhere (cross-file: declarations in
 *                        headers are matched against loops in .cc)
 *   raw-new-delete       everywhere
 *   no-float             src/ and bench/ (identifier use and
 *                        f-suffixed literals)
 *   io-routing           src/ minus the logging/stats/trace sinks
 *                        and the driver telemetry heartbeat
 *   env-routing          bench/
 *   hot-path-container   src/cache|cpu|dnuca|mem
 *   concurrency-routing  src/ minus src/driver/
 */

#include "tools/lint/lint.hh"

#include <cstring>

namespace jlint {

namespace {

using Tokens = std::vector<Token>;

bool
nextIs(const Tokens &ts, std::size_t i, const char *text)
{
    return i + 1 < ts.size() && ts[i + 1].kind == Tok::Punct &&
           ts[i + 1].text == text;
}

/** True when ts[i] is directly preceded by `.` or `->`. */
bool
prevIsMemberAccess(const Tokens &ts, std::size_t i)
{
    if (i == 0) return false;
    const Token &p = ts[i - 1];
    if (p.kind != Tok::Punct) return false;
    if (p.text == ".") return true;
    return p.text == ">" && i >= 2 && ts[i - 2].kind == Tok::Punct &&
           ts[i - 2].text == "-" &&
           ts[i - 2].offset + 1 == p.offset; // `->`, not `a - >b`
}

bool
prevIsIdent(const Tokens &ts, std::size_t i, const char *text = nullptr)
{
    if (i == 0 || ts[i - 1].kind != Tok::Ident) return false;
    return text == nullptr || ts[i - 1].text == text;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.compare(0, std::strlen(prefix), prefix) == 0;
}

// --- no-unseeded-rand -------------------------------------------------

void
checkRandAndClocks(LintContext &ctx, const SourceFile &sf)
{
    struct Banned
    {
        const char *word;
        bool requiresCall; // only flag `word(`
        const char *why;
    };
    static const Banned kBanned[] = {
        {"rand", true, "libc rand() is unseeded global state"},
        {"srand", true, "seed through Rng, not global srand()"},
        {"random_device", false,
         "std::random_device is nondeterministic by design"},
    };
    const Tokens &ts = sf.lexed.tokens;
    for (std::size_t i = 0; i < ts.size(); i++) {
        if (ts[i].kind != Tok::Ident) continue;
        for (const auto &b : kBanned) {
            if (ts[i].text != b.word) continue;
            if (b.requiresCall) {
                if (!nextIs(ts, i, "(")) continue;
                // Member calls (x.rand()) are not libc.
                if (prevIsMemberAccess(ts, i)) continue;
                // Declarations like `int rand(...)`: a preceding
                // identifier means declarator, not call.
                if (prevIsIdent(ts, i)) continue;
            }
            ctx.report(sf, "no-unseeded-rand", ts[i].line,
                       ts[i].offset,
                       std::string(b.word) + ": " + b.why);
        }
    }
}

// --- clock-routing ----------------------------------------------------

/**
 * Wall-clock reads in simulation code break reproducibility, so host
 * time is measured by exactly two files: the profiler's clock source
 * (src/sim/profiler.cc) and the driver telemetry sink
 * (src/driver/telemetry.cc). Tools and tests print wall timing by
 * design and are not scanned.
 */
bool
clockRoutingApplies(const std::string &relPath)
{
    if (!startsWith(relPath, "src/") &&
        !startsWith(relPath, "bench/"))
        return false;
    for (const char *sink : {"sim/profiler.cc", "driver/telemetry.cc"})
        if (pathEndsWith(relPath, sink)) return false;
    return true;
}

void
checkClockRouting(LintContext &ctx, const SourceFile &sf)
{
    if (!clockRoutingApplies(sf.relPath)) return;
    struct Banned
    {
        const char *word;
        bool requiresCall; // only flag `word(`
    };
    static const Banned kBanned[] = {
        {"time", true},          {"clock", true},
        {"gettimeofday", false}, {"system_clock", false},
        {"steady_clock", false}, {"high_resolution_clock", false},
    };
    const Tokens &ts = sf.lexed.tokens;
    for (std::size_t i = 0; i < ts.size(); i++) {
        if (ts[i].kind != Tok::Ident) continue;
        for (const auto &b : kBanned) {
            if (ts[i].text != b.word) continue;
            if (b.requiresCall) {
                if (!nextIs(ts, i, "(")) continue;
                // Member calls (x.time(), x->clock()) are not libc.
                if (prevIsMemberAccess(ts, i)) continue;
                // Declarations like `Tick time(...)`: a preceding
                // identifier means declarator, not call.
                if (prevIsIdent(ts, i)) continue;
            }
            ctx.report(sf, "clock-routing", ts[i].line, ts[i].offset,
                       std::string(b.word) +
                           ": wall-clock reads break reproducibility; "
                           "host time is read only by the profiler "
                           "(src/sim/profiler.cc) and driver "
                           "telemetry (src/driver/telemetry.cc)");
        }
    }
}

// --- rng-routing ------------------------------------------------------

void
checkRngRouting(LintContext &ctx, const SourceFile &sf)
{
    // rng.hh is the one sanctioned RNG implementation.
    if (pathEndsWith(sf.relPath, "rng.hh")) return;
    static const char *kBanned[] = {
        "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
        "ranlux24", "ranlux48", "knuth_b", "default_random_engine",
        "uniform_int_distribution", "uniform_real_distribution",
        "bernoulli_distribution", "normal_distribution",
        "exponential_distribution", "poisson_distribution",
        "discrete_distribution",
    };
    for (const Token &t : sf.lexed.tokens) {
        if (t.kind != Tok::Ident) continue;
        for (const char *word : kBanned)
            if (t.text == word)
                ctx.report(sf, "rng-routing", t.line, t.offset,
                           std::string(word) +
                               ": route all randomness through "
                               "src/sim/rng.hh (Rng)");
    }
    for (const IncludeDirective &inc : sf.lexed.includes)
        if (inc.angled && inc.target == "random")
            ctx.report(sf, "rng-routing", inc.line, inc.offset,
                       "#include <random>: route all randomness "
                       "through src/sim/rng.hh (Rng)");
}

// --- unordered-iter ---------------------------------------------------

/**
 * Pass 1: names declared anywhere in the scanned set with an
 * unordered container type — `unordered_map<K, V> name` — so a
 * member declared in a header is caught iterating in a .cc. The
 * template argument list is skipped with bracket counting (each `>`
 * of `>>` is its own token, so nested closers count correctly).
 */
void
collectUnorderedNames(const SourceFile &sf, std::set<std::string> &names)
{
    const Tokens &ts = sf.lexed.tokens;
    for (std::size_t i = 0; i < ts.size(); i++) {
        if (ts[i].kind != Tok::Ident) continue;
        if (ts[i].text != "unordered_map" &&
            ts[i].text != "unordered_set" &&
            ts[i].text != "unordered_multimap" &&
            ts[i].text != "unordered_multiset")
            continue;
        std::size_t j = i + 1;
        if (j >= ts.size() || ts[j].kind != Tok::Punct ||
            ts[j].text != "<")
            continue;
        int depth = 0;
        while (j < ts.size()) {
            if (ts[j].kind == Tok::Punct && ts[j].text == "<") depth++;
            else if (ts[j].kind == Tok::Punct && ts[j].text == ">" &&
                     --depth == 0) {
                j++;
                break;
            }
            j++;
        }
        // Skip ref/pointer declarators.
        while (j < ts.size() && ts[j].kind == Tok::Punct &&
               (ts[j].text == "&" || ts[j].text == "*"))
            j++;
        if (j < ts.size() && ts[j].kind == Tok::Ident)
            names.insert(ts[j].text);
    }
}

/**
 * Pass 2: range-for (`for (... : name)`) and explicit iterator
 * loops (`name.begin()` / `name.cbegin()`) over collected names.
 * Keyed lookups (find/count/at/[]) are order-insensitive and not
 * flagged.
 */
void
checkUnorderedIteration(LintContext &ctx, const SourceFile &sf,
                        const std::set<std::string> &names)
{
    const Tokens &ts = sf.lexed.tokens;
    for (std::size_t i = 0; i < ts.size(); i++) {
        if (ts[i].kind != Tok::Ident || names.count(ts[i].text) == 0)
            continue;
        const std::string &name = ts[i].text;
        std::size_t memberAt = 0;
        if (nextIs(ts, i, ".")) memberAt = i + 2;
        else if (nextIs(ts, i, "-") && i + 2 < ts.size() &&
                 ts[i + 2].kind == Tok::Punct && ts[i + 2].text == ">" &&
                 ts[i + 1].offset + 1 == ts[i + 2].offset)
            memberAt = i + 3;
        if (memberAt != 0) {
            if (memberAt < ts.size() &&
                ts[memberAt].kind == Tok::Ident &&
                (ts[memberAt].text == "begin" ||
                 ts[memberAt].text == "cbegin" ||
                 ts[memberAt].text == "rbegin"))
                ctx.report(sf, "unordered-iter", ts[i].line,
                           ts[i].offset,
                           name + "." + ts[memberAt].text +
                               "(): unordered iteration order is "
                               "nondeterministic; use std::map or a "
                               "sorted vector");
            continue;
        }
        // Range-for: previous token is ':' (but not '::').
        if (i >= 1 && ts[i - 1].kind == Tok::Punct &&
            ts[i - 1].text == ":" &&
            !(i >= 2 && ts[i - 2].kind == Tok::Punct &&
              ts[i - 2].text == ":" &&
              ts[i - 2].offset + 1 == ts[i - 1].offset))
            ctx.report(sf, "unordered-iter", ts[i].line, ts[i].offset,
                       "range-for over " + name +
                           ": unordered iteration order is "
                           "nondeterministic; use std::map or a "
                           "sorted vector");
    }
}

// --- raw-new-delete ---------------------------------------------------

void
checkRawNewDelete(LintContext &ctx, const SourceFile &sf)
{
    const Tokens &ts = sf.lexed.tokens;
    for (std::size_t i = 0; i < ts.size(); i++) {
        if (ts[i].kind != Tok::Ident) continue;
        if (ts[i].text == "new") {
            if (prevIsIdent(ts, i, "operator")) continue;
            ctx.report(sf, "raw-new-delete", ts[i].line, ts[i].offset,
                       "raw new: use std::make_unique/"
                       "std::make_shared");
        } else if (ts[i].text == "delete") {
            if (prevIsIdent(ts, i, "operator")) continue;
            // `= delete` declares a deleted function.
            if (i >= 1 && ts[i - 1].kind == Tok::Punct &&
                ts[i - 1].text == "=")
                continue;
            ctx.report(sf, "raw-new-delete", ts[i].line, ts[i].offset,
                       "raw delete: owning pointers must be smart "
                       "pointers");
        }
    }
}

// --- no-float ---------------------------------------------------------

/** A decimal floating literal with an f/F suffix (hex is exempt). */
bool
isFloatSuffixedLiteral(const std::string &num)
{
    if (num.size() < 2) return false;
    char last = num.back();
    if (last != 'f' && last != 'F') return false;
    if (num.size() > 1 && num[0] == '0' &&
        (num[1] == 'x' || num[1] == 'X'))
        return false;
    // Require a fractional or exponent part so 32-suffix typos in
    // macros ("0xFFu" is already excluded above) stay out of scope.
    return num.find('.') != std::string::npos ||
           num.find('e') != std::string::npos ||
           num.find('E') != std::string::npos;
}

void
checkFloat(LintContext &ctx, const SourceFile &sf)
{
    if (!startsWith(sf.relPath, "src/") &&
        !startsWith(sf.relPath, "bench/"))
        return;
    for (const Token &t : sf.lexed.tokens) {
        if (t.kind == Tok::Ident && t.text == "float")
            ctx.report(sf, "no-float", t.line, t.offset,
                       "float: Tick/latency arithmetic must stay in "
                       "double (32-bit rounding diverges across "
                       "toolchains)");
        else if (t.kind == Tok::Number &&
                 isFloatSuffixedLiteral(t.text))
            ctx.report(sf, "no-float", t.line, t.offset,
                       t.text +
                           ": f-suffixed literal is single-precision; "
                           "drop the suffix to stay in double");
    }
}

// --- io-routing -------------------------------------------------------

/**
 * Only src/ is held to the routing discipline: tools, benches, and
 * tests are user-facing programs whose job is to print.
 */
bool
ioRoutingApplies(const std::string &relPath)
{
    if (!startsWith(relPath, "src/")) return false;
    for (const char *sink :
         {"sim/logging.cc", "sim/statreg.cc", "sim/tracing.cc",
          "driver/telemetry.cc"})
        if (pathEndsWith(relPath, sink)) return false;
    return true;
}

void
checkIoRouting(LintContext &ctx, const SourceFile &sf)
{
    if (!ioRoutingApplies(sf.relPath)) return;
    struct Banned
    {
        const char *word;
        bool requiresCall;
    };
    static const Banned kBanned[] = {
        {"printf", true},   {"fprintf", true}, {"vprintf", true},
        {"vfprintf", true}, {"puts", true},    {"fputs", true},
        {"fputc", true},    {"putc", true},    {"putchar", true},
        {"fwrite", true},   {"cout", false},   {"cerr", false},
        {"clog", false},
    };
    const Tokens &ts = sf.lexed.tokens;
    for (std::size_t i = 0; i < ts.size(); i++) {
        if (ts[i].kind != Tok::Ident) continue;
        for (const auto &b : kBanned) {
            if (ts[i].text != b.word) continue;
            if (b.requiresCall) {
                if (!nextIs(ts, i, "(")) continue;
                // Member calls (x.puts()) are not stdio.
                if (prevIsMemberAccess(ts, i)) continue;
            }
            ctx.report(sf, "io-routing", ts[i].line, ts[i].offset,
                       std::string(b.word) +
                           ": direct output in src/ bypasses the "
                           "logging (src/sim/logging.hh) and "
                           "stats/trace serialization sinks");
        }
    }
}

// --- env-routing ------------------------------------------------------

/**
 * Benches read environment knobs only through the src/driver/env.hh
 * parsers (driver::orchestratorOptionsFromEnv, driver::seedFromEnv,
 * ...); src/ keeps its own sanctioned readers (driver/env.cc,
 * driver/telemetry.cc) and is not scanned by this rule.
 */
void
checkEnvRouting(LintContext &ctx, const SourceFile &sf)
{
    if (!startsWith(sf.relPath, "bench/")) return;
    const Tokens &ts = sf.lexed.tokens;
    for (std::size_t i = 0; i < ts.size(); i++) {
        if (ts[i].kind != Tok::Ident || ts[i].text != "getenv")
            continue;
        if (!nextIs(ts, i, "(")) continue;
        // Member calls (x.getenv()) are not libc.
        if (prevIsMemberAccess(ts, i)) continue;
        ctx.report(sf, "env-routing", ts[i].line, ts[i].offset,
                   "getenv: benches read env knobs through the "
                   "src/driver/env.hh parsers (driver::seedFromEnv, "
                   "driver::mixCountFromEnv, ...), not directly");
    }
}

// --- hot-path-container -----------------------------------------------

/**
 * The per-access subsystems are the simulator's hot path; everything
 * else (sim/, core/, driver/, system/) may keep node-based maps for
 * cold bookkeeping.
 */
bool
hotPathContainerApplies(const std::string &relPath)
{
    for (const char *dir :
         {"src/cache/", "src/cpu/", "src/dnuca/", "src/mem/"})
        if (startsWith(relPath, dir)) return true;
    return false;
}

void
checkHotPathContainers(LintContext &ctx, const SourceFile &sf)
{
    if (!hotPathContainerApplies(sf.relPath)) return;
    // Type uses: the container name followed by a template argument
    // list. Exact-identifier matching keeps SmallIdMap/FlatMap and
    // friends from tripping the "map" entry.
    const Tokens &ts = sf.lexed.tokens;
    for (std::size_t i = 0; i < ts.size(); i++) {
        if (ts[i].kind != Tok::Ident) continue;
        if (ts[i].text != "map" && ts[i].text != "multimap" &&
            ts[i].text != "unordered_map" &&
            ts[i].text != "unordered_multimap")
            continue;
        if (!nextIs(ts, i, "<")) continue;
        ctx.report(sf, "hot-path-container", ts[i].line, ts[i].offset,
                   ts[i].text +
                       ": node-based maps tree-walk per access; use "
                       "SmallIdMap/FlatMap (src/sim/flat_map.hh) in "
                       "per-access code");
    }
    for (const IncludeDirective &inc : sf.lexed.includes) {
        if (!inc.angled ||
            (inc.target != "map" && inc.target != "unordered_map"))
            continue;
        ctx.report(sf, "hot-path-container", inc.line, inc.offset,
                   "#include <" + inc.target +
                       ">: node-based maps tree-walk per access; use "
                       "SmallIdMap/FlatMap (src/sim/flat_map.hh) in "
                       "per-access code");
    }
}

// --- concurrency-routing ----------------------------------------------

/**
 * Simulation code must stay provably single-threaded; the driver's
 * parallelFor in src/driver/ is the only sanctioned home for
 * threading primitives. Everything else in src/ is scanned.
 */
void
checkConcurrencyRouting(LintContext &ctx, const SourceFile &sf)
{
    if (!startsWith(sf.relPath, "src/") ||
        startsWith(sf.relPath, "src/driver/"))
        return;
    // Exact-identifier matches, so the (allowed) thread_local
    // keyword never trips the "thread" entry.
    static const char *kBanned[] = {
        "thread", "jthread", "this_thread", "mutex", "shared_mutex",
        "recursive_mutex", "timed_mutex", "recursive_timed_mutex",
        "atomic", "atomic_flag", "atomic_ref", "condition_variable",
        "condition_variable_any", "future", "shared_future", "promise",
        "async", "lock_guard", "unique_lock", "shared_lock",
        "scoped_lock", "call_once", "once_flag", "latch", "barrier",
        "counting_semaphore", "binary_semaphore", "stop_token",
        "stop_source",
    };
    for (const Token &t : sf.lexed.tokens) {
        if (t.kind != Tok::Ident) continue;
        for (const char *word : kBanned)
            if (t.text == word)
                ctx.report(sf, "concurrency-routing", t.line, t.offset,
                           std::string(word) +
                               ": threading primitives live in "
                               "src/driver/ only; simulation code is "
                               "single-threaded");
    }
    static const char *kHeaders[] = {
        "thread",    "mutex", "shared_mutex",       "atomic",
        "condition_variable", "future", "semaphore", "latch",
        "barrier",   "stop_token",
    };
    for (const IncludeDirective &inc : sf.lexed.includes) {
        if (!inc.angled) continue;
        for (const char *header : kHeaders)
            if (inc.target == header)
                ctx.report(sf, "concurrency-routing", inc.line,
                           inc.offset,
                           "#include <" + inc.target +
                               ">: threading primitives live in "
                               "src/driver/ only");
    }
}

} // namespace

void
runTokenRules(LintContext &ctx)
{
    std::set<std::string> unorderedNames;
    for (const SourceFile &sf : ctx.files)
        collectUnorderedNames(sf, unorderedNames);
    for (const SourceFile &sf : ctx.files) {
        checkRandAndClocks(ctx, sf);
        checkClockRouting(ctx, sf);
        checkRngRouting(ctx, sf);
        checkUnorderedIteration(ctx, sf, unorderedNames);
        checkRawNewDelete(ctx, sf);
        checkFloat(ctx, sf);
        checkIoRouting(ctx, sf);
        checkEnvRouting(ctx, sf);
        checkHotPathContainers(ctx, sf);
        checkConcurrencyRouting(ctx, sf);
    }
}

} // namespace jlint

/**
 * @file
 * Include-graph passes for jumanji_lint.
 *
 * layering-dag — quoted includes are repo-root-relative
 * ("src/cache/cache_bank.hh"), so every one is an edge between two
 * subsystems. The pass checks each edge against the declared
 * layering (see kRankOf/kIntraLayer below and INTERNALS.md §8):
 * lower layers never see higher ones, and same-layer dependencies
 * exist only where declared. It also walks the resolved file-level
 * graph for include cycles.
 *
 * unused-include — a file that includes a project header but never
 * mentions any name the header exports is carrying a stale edge;
 * stale edges are how layering violations sneak in unnoticed. The
 * export extraction is heuristic (macros, class/struct/enum names,
 * alias targets, namespace-scope functions and constants) and the
 * rule stays silent when it extracts nothing.
 */

#include "tools/lint/lint.hh"

#include <algorithm>
#include <functional>

namespace jlint {

namespace {

/**
 * Layer rank per subsystem. An include edge must point from a
 * higher rank to a strictly lower one, except where kIntraLayer
 * declares a same-rank dependency.
 *
 *   rank 0  sim
 *   rank 1  cache cpu dnuca mem noc metrics security
 *   rank 2  core system workloads
 *   rank 3  driver
 *   rank 4  bench tools
 *   rank 5  tests examples (may include anything)
 */
const std::map<std::string, int> kRankOf = {
    {"sim", 0},      {"cache", 1},   {"cpu", 1},
    {"dnuca", 1},    {"mem", 1},     {"noc", 1},
    {"metrics", 1},  {"security", 1},{"core", 2},
    {"system", 2},   {"workloads", 2},{"driver", 3},
    {"bench", 4},    {"tools", 4},   {"tests", 5},
    {"examples", 5},
};

/** Declared same-rank edges (closed transitively at pass start). */
const std::vector<std::pair<std::string, std::string>> kIntraLayer = {
    {"mem", "noc"},        {"cpu", "cache"}, {"cpu", "dnuca"},
    {"cpu", "mem"},        {"cpu", "noc"},   {"security", "cache"},
    {"security", "cpu"},   {"security", "dnuca"},
    {"system", "core"},    {"system", "workloads"},
};

std::set<std::pair<std::string, std::string>>
closedIntraLayer()
{
    std::set<std::pair<std::string, std::string>> edges(
        kIntraLayer.begin(), kIntraLayer.end());
    bool grew = true;
    while (grew) {
        grew = false;
        for (const auto &a : edges)
            for (const auto &b : edges)
                if (a.second == b.first &&
                    edges.insert({a.first, b.second}).second)
                    grew = true;
    }
    return edges;
}

bool
isProjectInclude(const IncludeDirective &inc)
{
    return !inc.angled;
}

// --- unused-include ---------------------------------------------------

/**
 * Names a header contributes to its includers: macro definitions,
 * class/struct/enum names, `using N = ...` aliases, and
 * namespace-scope identifiers directly followed by `(` (functions)
 * or `=` (constants). Brace depth tracking distinguishes namespace
 * scope from class/function bodies.
 */
std::set<std::string>
exportedNames(const SourceFile &sf)
{
    std::set<std::string> names;
    const std::vector<Token> &ts = sf.lexed.tokens;
    // true = namespace brace, false = any other brace.
    std::vector<bool> braces;
    bool nextBraceIsNamespace = false;
    auto atNamespaceScope = [&] {
        for (bool ns : braces)
            if (!ns) return false;
        return true;
    };
    for (std::size_t i = 0; i < ts.size(); i++) {
        const Token &t = ts[i];
        if (t.kind == Tok::Punct) {
            if (t.text == "{") {
                braces.push_back(nextBraceIsNamespace);
                nextBraceIsNamespace = false;
            } else if (t.text == "}" && !braces.empty()) {
                braces.pop_back();
            } else if (t.text == ";") {
                nextBraceIsNamespace = false;
            }
            continue;
        }
        if (t.kind != Tok::Ident) continue;
        auto ident = [&](std::size_t j) {
            return j < ts.size() && ts[j].kind == Tok::Ident;
        };
        auto punct = [&](std::size_t j, const char *p) {
            return j < ts.size() && ts[j].kind == Tok::Punct &&
                   ts[j].text == p;
        };
        if (t.inDirective) {
            if (t.text == "define" && i >= 1 && ts[i - 1].text == "#" &&
                ident(i + 1))
                names.insert(ts[i + 1].text);
            continue;
        }
        if (t.text == "namespace") {
            nextBraceIsNamespace = true;
            continue;
        }
        if (t.text == "class" || t.text == "struct") {
            if (ident(i + 1)) names.insert(ts[i + 1].text);
            continue;
        }
        if (t.text == "enum") {
            std::size_t j = i + 1;
            if (ident(j) &&
                (ts[j].text == "class" || ts[j].text == "struct"))
                j++;
            if (ident(j)) names.insert(ts[j].text);
            continue;
        }
        if (t.text == "using" && ident(i + 1) && punct(i + 2, "="))
            names.insert(ts[i + 1].text);
        // Namespace-scope `name(` or `name =`: a function or
        // constant definition/declaration.
        if (atNamespaceScope() &&
            (punct(i + 1, "(") || punct(i + 1, "=")) && i >= 1 &&
            !punct(i - 1, ".") && !punct(i - 1, "#"))
            names.insert(t.text);
    }
    return names;
}

std::string
stripExtension(const std::string &path)
{
    std::size_t dot = path.rfind('.');
    std::size_t slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path;
    return path.substr(0, dot);
}

} // namespace

void
runIncludeGraphPass(LintContext &ctx)
{
    const auto intra = closedIntraLayer();

    std::map<std::string, const SourceFile *> byRel;
    for (const SourceFile &sf : ctx.files)
        byRel.emplace(sf.relPath, &sf);

    // --- layering-dag: edge checks -----------------------------------
    for (const SourceFile &sf : ctx.files) {
        const std::string from = subsystemOf(sf.relPath);
        auto fromRank = kRankOf.find(from);
        if (fromRank == kRankOf.end()) continue;
        for (const IncludeDirective &inc : sf.lexed.includes) {
            if (!isProjectInclude(inc)) continue;
            const std::string to = subsystemOf(inc.target);
            auto toRank = kRankOf.find(to);
            if (toRank == kRankOf.end()) continue;
            if (from == to) continue;
            if (toRank->second < fromRank->second) continue;
            if (toRank->second == fromRank->second &&
                intra.count({from, to}) != 0)
                continue;
            ctx.report(sf, "layering-dag", inc.line, inc.offset,
                       "include of \"" + inc.target +
                           "\" breaks the layering DAG: " + from +
                           " may not depend on " + to);
        }
    }

    // --- layering-dag: file-level include cycles ---------------------
    // DFS over resolved project includes; each back edge is one
    // cycle, reported at the include that closes it.
    std::map<std::string, int> color; // 0 white, 1 grey, 2 black
    std::vector<std::string> stack;
    std::function<void(const SourceFile &)> visit =
        [&](const SourceFile &sf) {
            color[sf.relPath] = 1;
            stack.push_back(sf.relPath);
            for (const IncludeDirective &inc : sf.lexed.includes) {
                if (!isProjectInclude(inc)) continue;
                auto it = byRel.find(inc.target);
                if (it == byRel.end()) continue;
                int c = color[it->first];
                if (c == 1) {
                    std::string chain;
                    auto at = std::find(stack.begin(), stack.end(),
                                        it->first);
                    for (; at != stack.end(); ++at)
                        chain += *at + " -> ";
                    chain += it->first;
                    ctx.report(sf, "layering-dag", inc.line,
                               inc.offset,
                               "include cycle: " + chain);
                } else if (c == 0) {
                    visit(*it->second);
                }
            }
            stack.pop_back();
            color[sf.relPath] = 2;
        };
    for (const SourceFile &sf : ctx.files)
        if (color[sf.relPath] == 0) visit(sf);

    // --- unused-include ----------------------------------------------
    std::map<std::string, std::set<std::string>> exportsOf;
    for (const SourceFile &sf : ctx.files) {
        std::set<std::string> mentioned;
        for (const Token &t : sf.lexed.tokens)
            if (t.kind == Tok::Ident) mentioned.insert(t.text);
        for (const IncludeDirective &inc : sf.lexed.includes) {
            if (!isProjectInclude(inc)) continue;
            auto it = byRel.find(inc.target);
            if (it == byRel.end()) continue;
            // A .cc always keeps its own header.
            if (stripExtension(inc.target) ==
                stripExtension(sf.relPath))
                continue;
            auto [eit, inserted] =
                exportsOf.try_emplace(inc.target);
            if (inserted) eit->second = exportedNames(*it->second);
            const std::set<std::string> &exports = eit->second;
            if (exports.empty()) continue;
            bool used = false;
            for (const std::string &name : exports)
                if (mentioned.count(name) != 0) {
                    used = true;
                    break;
                }
            if (!used)
                ctx.report(sf, "unused-include", inc.line, inc.offset,
                           "nothing exported by \"" + inc.target +
                               "\" is referenced here; drop the "
                               "include");
        }
    }
}

} // namespace jlint

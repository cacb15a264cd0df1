/**
 * @file
 * Tests for the jumanji_lint static analyzer (tools/lint/): the
 * lexer's literal/comment handling, the stat-name pattern
 * intersection, the suppression machinery, the report renderers, and
 * one seeded fixture tree per pass family under tests/lint_fixtures/
 * (which the repo-wide scan skips on purpose).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "tools/lint/lint.hh"

namespace jlint {
namespace {

std::vector<Finding>
lintFixture(const std::string &name)
{
    LintContext ctx;
    runLint(ctx, {std::string(JUMANJI_SOURCE_DIR) +
                  "/tests/lint_fixtures/" + name});
    return ctx.findings;
}

std::vector<Finding>
lintMemory(
    const std::vector<std::pair<std::string, std::string>> &files)
{
    LintContext ctx;
    for (const auto &[path, raw] : files) addSource(ctx, path, raw);
    runAllPasses(ctx);
    return ctx.findings;
}

std::size_t
countRule(const std::vector<Finding> &fs, const std::string &rule)
{
    return static_cast<std::size_t>(std::count_if(
        fs.begin(), fs.end(),
        [&](const Finding &f) { return f.rule == rule; }));
}

bool
hasFinding(const std::vector<Finding> &fs, const std::string &rule,
           const std::string &fileSuffix, const std::string &msgPart)
{
    for (const Finding &f : fs)
        if (f.rule == rule && pathEndsWith(f.file, fileSuffix) &&
            f.message.find(msgPart) != std::string::npos)
            return true;
    return false;
}

bool
hasIdent(const LexedSource &lx, const std::string &text)
{
    for (const Token &t : lx.tokens)
        if (t.kind == Tok::Ident && t.text == text) return true;
    return false;
}

// ------------------------------------------------------------- Lexer

TEST(LintLexer, RawStringBodyIsOneTokenNotCode)
{
    LexedSource lx =
        lex("auto s = R\"x(rand() \"quoted\" )x\"; int y;");
    std::size_t strings = 0;
    for (const Token &t : lx.tokens)
        if (t.kind == Tok::String) {
            strings++;
            EXPECT_NE(t.text.find("rand()"), std::string::npos);
            EXPECT_NE(t.text.find("\"quoted\""), std::string::npos);
        }
    EXPECT_EQ(strings, 1u);
    EXPECT_FALSE(hasIdent(lx, "rand"));
    EXPECT_TRUE(hasIdent(lx, "y"));
}

TEST(LintLexer, SplicedLineCommentSwallowsContinuation)
{
    LexedSource lx = lex("// hidden \\\n rand() more\nint z;");
    EXPECT_FALSE(hasIdent(lx, "rand"));
    EXPECT_TRUE(hasIdent(lx, "z"));
    ASSERT_EQ(lx.comments.count(1), 1u);
    EXPECT_NE(lx.comments.at(1).find("rand()"), std::string::npos);
}

TEST(LintLexer, CharLiteralWithQuoteDoesNotOpenString)
{
    LexedSource lx = lex("char c = '\"'; int after = 3;");
    std::size_t chars = 0;
    for (const Token &t : lx.tokens)
        if (t.kind == Tok::Char) {
            chars++;
            EXPECT_EQ(t.text, "\"");
        }
    EXPECT_EQ(chars, 1u);
    EXPECT_TRUE(hasIdent(lx, "after"));
    for (const Token &t : lx.tokens)
        EXPECT_NE(t.kind, Tok::String);
}

TEST(LintLexer, IncludeTargetsRecordedAndEmitNoTokens)
{
    LexedSource lx = lex("#include <vector>\n"
                         "#include \"src/sim/types.hh\"\n"
                         "int a;\n");
    ASSERT_EQ(lx.includes.size(), 2u);
    EXPECT_EQ(lx.includes[0].target, "vector");
    EXPECT_TRUE(lx.includes[0].angled);
    EXPECT_EQ(lx.includes[0].line, 1u);
    EXPECT_EQ(lx.includes[1].target, "src/sim/types.hh");
    EXPECT_FALSE(lx.includes[1].angled);
    EXPECT_FALSE(hasIdent(lx, "vector"));
    EXPECT_FALSE(hasIdent(lx, "include"));
    EXPECT_TRUE(hasIdent(lx, "a"));
}

TEST(LintLexer, NonIncludeDirectiveTokensAreFlagged)
{
    LexedSource lx = lex("#define FOO 1\nint b;\n");
    bool sawFoo = false;
    for (const Token &t : lx.tokens) {
        if (t.kind == Tok::Ident && t.text == "FOO") {
            sawFoo = true;
            EXPECT_TRUE(t.inDirective);
        }
        if (t.kind == Tok::Ident && t.text == "b") {
            EXPECT_FALSE(t.inDirective);
        }
    }
    EXPECT_TRUE(sawFoo);
}

// ---------------------------------------------------------- Patterns

TEST(LintPatterns, LiteralsMustMatchExactly)
{
    EXPECT_TRUE(patternsIntersect("llc.hits", "llc.hits"));
    EXPECT_FALSE(patternsIntersect("llc.hits", "llc.miss"));
}

TEST(LintPatterns, AnyWildAbsorbsZeroOrMoreChars)
{
    const std::string sel = std::string("llc.") + kAnyWild;
    EXPECT_TRUE(patternsIntersect(sel, "llc.bank00.hits"));
    EXPECT_TRUE(patternsIntersect(std::string("x") + kAnyWild, "x"));
    EXPECT_FALSE(patternsIntersect(sel, "mem.reads"));
}

TEST(LintPatterns, NumWildRequiresAtLeastOneDigit)
{
    const std::string pat =
        std::string("apps.a") + kNumWild + ".ipc";
    EXPECT_TRUE(patternsIntersect(pat, "apps.a07.ipc"));
    EXPECT_TRUE(patternsIntersect(pat, "apps.a123.ipc"));
    EXPECT_FALSE(patternsIntersect(pat, "apps.ax.ipc"));
    EXPECT_FALSE(patternsIntersect(std::string("a") + kNumWild, "a"));
}

// ------------------------------------------------------------- Paths

TEST(LintPaths, RepoRelativeAnchorsAtLastKnownComponent)
{
    EXPECT_EQ(
        repoRelative("/x/tests/lint_fixtures/rules/src/cache/a.cc"),
        "src/cache/a.cc");
    EXPECT_EQ(repoRelative("src/sim/rng.hh"), "src/sim/rng.hh");
    EXPECT_EQ(subsystemOf("src/cache/foo.hh"), "cache");
    EXPECT_EQ(subsystemOf("bench/foo.cc"), "bench");
}

// ------------------------------------------------------ Suppressions

TEST(LintSuppressions, LineWaiverCoversTheLineBelow)
{
    const std::string code =
        "int f()\n"
        "{\n"
        "    // lint-allow: no-unseeded-rand test waiver\n"
        "    int x = rand();\n"
        "    return x;\n"
        "}\n";
    auto fs = lintMemory({{"src/cache/mem.cc", code}});
    EXPECT_TRUE(fs.empty());
}

TEST(LintSuppressions, FileWideWaiverWorksAndStaleOneIsAudited)
{
    const std::string code =
        "// lint-allow-file: no-float whole file is math scratch\n"
        "float kW = 1.0f;\n"
        "// lint-allow: io-routing stale on purpose\n"
        "int done = 1;\n";
    auto fs = lintMemory({{"src/cache/mem2.cc", code}});
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "suppression-audit");
    EXPECT_NE(fs[0].message.find("stale waiver"), std::string::npos);
    EXPECT_NE(fs[0].message.find("io-routing"), std::string::npos);
}

// ------------------------------------------------------- Clock rule

TEST(LintRules, ClockRoutingFlagsCallsButNotDeclaratorsOrMembers)
{
    const std::string code =
        "long now = time(nullptr);\n"  // libc call: fires
        "long t2 = obj.time(3);\n"     // member call: quiet
        "Tick time(Tick when);\n"      // declarator: quiet
        "long c = clock();\n";         // libc call: fires
    auto fs = lintMemory({{"src/cache/clocky.cc", code}});
    EXPECT_EQ(countRule(fs, "clock-routing"), 2u);
    EXPECT_TRUE(hasFinding(fs, "clock-routing", "src/cache/clocky.cc",
                           "time"));
    EXPECT_TRUE(hasFinding(fs, "clock-routing", "src/cache/clocky.cc",
                           "clock"));

    // The chrono clock types fire on sight (no call heuristics), but
    // never inside the two sanctioned sink files.
    const std::string chrono =
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_EQ(countRule(lintMemory({{"src/noc/ticker.cc", chrono}}),
                        "clock-routing"),
              1u);
    EXPECT_EQ(
        countRule(lintMemory({{"src/sim/profiler.cc", chrono}}),
                  "clock-routing"),
        0u);
    EXPECT_EQ(
        countRule(lintMemory({{"src/driver/telemetry.cc", chrono}}),
                  "clock-routing"),
        0u);
    // And tools/ is out of scope entirely: perf_history and the CLI
    // may time themselves however they like.
    EXPECT_EQ(countRule(lintMemory({{"tools/timer.cc", chrono}}),
                        "clock-routing"),
              0u);
}

// --------------------------------------------------------- Renderers

TEST(LintRender, TextJsonAndSarifShapes)
{
    std::vector<Finding> fs{
        {"src/cache/a.cc", 3, "no-float", "msg \"quoted\"",
         "float x;"}};
    const std::string text = renderText(fs, 1);
    EXPECT_NE(text.find("src/cache/a.cc:3: [no-float]"),
              std::string::npos);
    EXPECT_NE(text.find("1 files scanned, 1 finding(s)"),
              std::string::npos);
    const std::string js = renderJson(fs);
    EXPECT_NE(js.find("\"rule\": \"no-float\""), std::string::npos);
    EXPECT_NE(js.find("\\\"quoted\\\""), std::string::npos);
    const std::string sarif = renderSarif(fs);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"no-float\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
}

// ---------------------------------------------------- Fixture: rules

TEST(LintFixtures, TokenRulesFireAndBlindSpotsStayQuiet)
{
    auto fs = lintFixture("rules");
    EXPECT_EQ(countRule(fs, "no-unseeded-rand"), 1u);
    EXPECT_TRUE(hasFinding(fs, "no-unseeded-rand",
                           "src/cache/bad_rand.cc", "rand"));
    EXPECT_EQ(countRule(fs, "clock-routing"), 2u);
    EXPECT_TRUE(hasFinding(fs, "clock-routing",
                           "src/cache/bad_clock.cc", "steady_clock"));
    EXPECT_TRUE(hasFinding(fs, "clock-routing", "bench/bad_walltime.cc",
                           "gettimeofday"));
    EXPECT_EQ(countRule(fs, "rng-routing"), 1u);
    EXPECT_TRUE(hasFinding(fs, "rng-routing", "src/cache/bad_rng.cc",
                           "mt19937"));
    EXPECT_EQ(countRule(fs, "unordered-iter"), 1u);
    EXPECT_TRUE(hasFinding(fs, "unordered-iter",
                           "src/sim/unordered_iter.cc",
                           "cells.begin"));
    EXPECT_EQ(countRule(fs, "raw-new-delete"), 2u);
    EXPECT_EQ(countRule(fs, "no-float"), 2u);
    EXPECT_EQ(countRule(fs, "io-routing"), 1u);
    EXPECT_EQ(countRule(fs, "env-routing"), 1u);
    EXPECT_EQ(countRule(fs, "hot-path-container"), 2u);
    EXPECT_EQ(countRule(fs, "concurrency-routing"), 2u);
    // The blind-spot file (banned words only in strings/comments/raw
    // strings), the out-of-scope tools file, and the sanctioned
    // clock/io sinks (paths ending in sim/profiler.cc and
    // driver/telemetry.cc) must stay silent.
    for (const Finding &f : fs) {
        EXPECT_EQ(f.file.find("quiet_blindspots"), std::string::npos)
            << f.file << ": " << f.message;
        EXPECT_EQ(f.file.find("ok_wallclock"), std::string::npos)
            << f.file << ": " << f.message;
        EXPECT_NE(f.file, "src/sim/profiler.cc")
            << f.file << ": " << f.message;
        EXPECT_NE(f.file, "src/driver/telemetry.cc")
            << f.file << ": " << f.message;
    }
    EXPECT_EQ(fs.size(), 15u);
}

// ------------------------------------------------- Fixture: layering

TEST(LintFixtures, LayeringBackEdgeCycleAndUnusedInclude)
{
    auto fs = lintFixture("layering");
    EXPECT_TRUE(hasFinding(fs, "layering-dag",
                           "src/cache/bad_layer.cc",
                           "cache may not depend on driver"));
    EXPECT_TRUE(hasFinding(fs, "layering-dag", "src/sim/cycle_b.hh",
                           "include cycle"));
    EXPECT_TRUE(hasFinding(fs, "unused-include",
                           "src/noc/stale_include.cc",
                           "src/sim/cycle_a.hh"));
    EXPECT_EQ(fs.size(), 3u);
}

// ------------------------------------------------- Fixture: stat-xref

TEST(LintFixtures, StatXrefFlagsDanglingCppReferences)
{
    // A dangling lookup and two impossible selectors (a recorder's
    // and a resolve() call's). Scenario-side references are resolved
    // at runtime by driver::checkSpec (tests/test_spec.cc), not here.
    auto fs = lintFixture("statxref");
    EXPECT_TRUE(hasFinding(fs, "stat-xref", "src/system/reader.cc",
                           "llc.misses"));
    EXPECT_TRUE(hasFinding(fs, "stat-xref", "src/system/reader.cc",
                           "bogus.prefix."));
    EXPECT_TRUE(hasFinding(fs, "stat-xref", "src/system/reader.cc",
                           "gone.prefix."));
    EXPECT_EQ(fs.size(), 3u);
}

// ----------------------------------------------- Fixture: suppressions

TEST(LintFixtures, SuppressionAuditFlagsStaleAndUnjustified)
{
    auto fs = lintFixture("suppress");
    EXPECT_EQ(countRule(fs, "suppression-audit"), 2u);
    EXPECT_TRUE(hasFinding(fs, "suppression-audit", "waived.cc",
                           "stale waiver"));
    EXPECT_TRUE(hasFinding(fs, "suppression-audit", "waived.cc",
                           "no justification"));
    EXPECT_EQ(fs.size(), 2u);
}

} // namespace
} // namespace jlint

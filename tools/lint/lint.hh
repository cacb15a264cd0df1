/**
 * @file
 * jumanji_lint core: the pass framework behind the project's static
 * analyzer (docs/INTERNALS.md §8).
 *
 * The analyzer is a pipeline: every C++ source file is lexed once
 * (tools/lint/lexer.hh), then a fixed sequence of passes walks the
 * token streams and reports findings. It reads no JSON: scenario
 * documents are checked against the live stat registry by
 * jumanji_cli --scenario-check instead. Three pass families:
 *
 *   rules.cc          the per-file token rules (no-unseeded-rand,
 *                     clock-routing, rng-routing, unordered-iter,
 *                     raw-new-delete, no-float, io-routing,
 *                     env-routing, hot-path-container,
 *                     concurrency-routing)
 *   include_graph.cc  layering-dag (subsystem DAG conformance,
 *                     include cycles) and unused-include
 *   stat_xref.cc      stat-xref (dotted stat names and timeline
 *                     selectors referenced by string in C++ must
 *                     be bindable)
 *
 * Suppressions: "lint-allow" / "lint-allow-file" comments (see
 * parseSuppressions). Every suppression must actually suppress
 * something — the post-pass audit reports stale waivers under the
 * suppression-audit rule, and audit findings are themselves not
 * suppressible, so waivers cannot rot silently.
 *
 * The analyzer is standalone on purpose: it must build and run even
 * when the simulator library is broken, so nothing here may include
 * src/.
 */

#ifndef JUMANJI_LINT_LINT_HH
#define JUMANJI_LINT_LINT_HH

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/lexer.hh"

namespace jlint {

struct Finding
{
    std::string file;
    std::size_t line = 0;
    std::string rule;
    std::string message;
    std::string snippet;
};

struct Suppression
{
    std::string rule; // "*" matches every rule
    std::string justification;
    std::size_t line = 0; // declaration line
    bool fileWide = false;
    /** Set when a finding was discarded because of this waiver. */
    mutable bool used = false;
};

struct SourceFile
{
    /** Path as given on the command line (absolute or relative). */
    std::string path;
    /**
     * Path relative to the repository root ("src/cache/foo.cc"),
     * derived from the last src/bench/tools/tests/examples path
     * component — all path-scoped decisions use this, so fixture
     * trees can emulate any layout.
     */
    std::string relPath;
    std::string raw;
    LexedSource lexed;
    /** line -> suppressions declared on that line. */
    std::map<std::size_t, std::vector<Suppression>> lineAllows;
    std::vector<Suppression> fileAllows;
};

/** The whole scan set plus the findings accumulated so far. */
struct LintContext
{
    std::vector<SourceFile> files;
    std::vector<Finding> findings;

    /**
     * Reports a finding unless a matching waiver exists (which is
     * then marked used). Line-scoped waivers match the finding line
     * or the line above.
     */
    void report(const SourceFile &sf, const std::string &rule,
                std::size_t line, std::size_t offset,
                const std::string &message);

    /** Untrimmed source line at @p offset, trimmed for the report. */
    static std::string snippetAt(const SourceFile &sf,
                                 std::size_t offset);
};

// --- Passes (each appends to ctx.findings) ----------------------------

/** The ten per-file token rules. */
void runTokenRules(LintContext &ctx);

/** layering-dag + unused-include over the project include graph. */
void runIncludeGraphPass(LintContext &ctx);

/** stat-xref: C++ stat references against C++ stat bindings. */
void runStatXrefPass(LintContext &ctx);

/**
 * The suppression audit: every waiver parsed from the scan set must
 * have suppressed at least one finding. Runs last.
 */
void runSuppressionAudit(LintContext &ctx);

// --- Driver -----------------------------------------------------------

/**
 * Loads, lexes, and scans @p roots (files or directories;
 * directories are walked recursively for .cc/.hh/.cpp/.hpp/.h).
 * Directories named
 * "lint_fixtures" are skipped — they hold deliberate violations for
 * tests/test_lint.cc. Leaves ctx.findings sorted by (file, line,
 * rule). Throws std::runtime_error on IO errors.
 */
void runLint(LintContext &ctx, const std::vector<std::string> &roots);

/** All passes plus the audit and the final sort (ctx pre-loaded). */
void runAllPasses(LintContext &ctx);

/** Loads one in-memory file into @p ctx (tests). */
void addSource(LintContext &ctx, const std::string &path,
               const std::string &raw);

/** Sorts findings by (file, line, rule, message). */
void sortFindings(std::vector<Finding> &findings);

/** Plain-text report (one line + snippet per finding + summary). */
std::string renderText(const std::vector<Finding> &findings,
                       std::size_t filesScanned);

/** The findings array jumanji_lint has always emitted for --json. */
std::string renderJson(const std::vector<Finding> &findings);

/** SARIF 2.1.0 document for CI annotation (--sarif). */
std::string renderSarif(const std::vector<Finding> &findings);

// --- Shared helpers ---------------------------------------------------

bool pathEndsWith(const std::string &path, const std::string &suffix);

/**
 * Repo-relative form of @p path: the suffix starting at the last
 * path component in {src, bench, tools, tests, examples}, or the
 * path unchanged when none matches.
 */
std::string repoRelative(const std::string &path);

/** First path component of @p relPath ("src", "bench", ...). */
std::string topDirOf(const std::string &relPath);

/**
 * Subsystem of a repo-relative path: "sim", "cache", ... for
 * src/<sub>/ files, else the top directory ("bench", "tools",
 * "tests", "examples"). Empty when the path is not project-shaped.
 */
std::string subsystemOf(const std::string &relPath);

// --- Stat-name patterns (stat_xref, exposed for tests) ----------------

/**
 * A dotted-name pattern: literal characters plus two wildcard bytes
 * — kAnyWild ("some unknown substring", from non-literal expression
 * parts) and kNumWild ("a run of digits", from statIndexName calls).
 */
constexpr char kAnyWild = '\x01';
constexpr char kNumWild = '\x02';

/**
 * True when some concrete string is generatable by both patterns
 * (glob intersection over the two wildcard kinds).
 */
bool patternsIntersect(const std::string &a, const std::string &b);

} // namespace jlint

#endif // JUMANJI_LINT_LINT_HH

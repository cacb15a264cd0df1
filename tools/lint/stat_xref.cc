/**
 * @file
 * The stat-xref pass of jumanji_lint: C++ stat references checked
 * against C++ stat bindings.
 *
 * Stat names are a string-keyed contract: bindings
 * (StatRegistry::addCounter/addGauge/addFormula/addDistribution)
 * create dotted names, and benches, tests and tools reference them by
 * string. Names are often built by concatenation, so both sides are
 * abstracted into patterns over literals plus two wildcards: ANY (an
 * unknown subexpression, zero or more chars) and NUM (a
 * statIndexName() call, one or more digits). A reference is dangling
 * when its pattern intersects no binding pattern (glob intersection,
 * patternsIntersect); dotted references only, so opaque lookups stay
 * out of scope. Distribution leaves (.count/.mean/.p50/.../.bNN) are
 * handled by a strip-and-retry. Timeline selectors (StatRegistry
 * prefix matching) are checked against literal-leading name
 * fragments instead: any constructible prefix chain ("llc.bank" +
 * statIndexName(b) + ".").
 *
 * Scenario documents are not scanned: jumanji_cli --scenario-check
 * resolves their columns and selectors against the live registry
 * (driver::checkSpec), which no pattern algebra can match for
 * exactness. A scan set with no bindings checks nothing.
 */

#include "tools/lint/lint.hh"

#include <cctype>
#include <cstring>
#include <functional>

namespace jlint {

// --- Pattern intersection ---------------------------------------------

bool
patternsIntersect(const std::string &a, const std::string &b)
{
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    // 0 unknown, 1 false, 2 true.
    std::vector<signed char> memo((n + 1) * (m + 1), 0);
    std::function<bool(std::size_t, std::size_t)> go =
        [&](std::size_t i, std::size_t j) -> bool {
        signed char &slot = memo[i * (m + 1) + j];
        if (slot != 0) return slot == 2;
        bool r = false;
        if (i == n && j == m) {
            r = true;
        } else if (i < n && a[i] == kAnyWild) {
            r = go(i + 1, j) || (j < m && go(i, j + 1));
        } else if (j < m && b[j] == kAnyWild) {
            r = go(i, j + 1) || (i < n && go(i + 1, j));
        } else if (i == n || j == m) {
            r = false;
        } else if (a[i] == kNumWild && b[j] == kNumWild) {
            r = go(i + 1, j + 1) || go(i, j + 1) || go(i + 1, j);
        } else if (a[i] == kNumWild) {
            r = std::isdigit(static_cast<unsigned char>(b[j])) != 0 &&
                (go(i, j + 1) || go(i + 1, j + 1));
        } else if (b[j] == kNumWild) {
            r = std::isdigit(static_cast<unsigned char>(a[i])) != 0 &&
                (go(i + 1, j) || go(i + 1, j + 1));
        } else {
            r = a[i] == b[j] && go(i + 1, j + 1);
        }
        slot = r ? 2 : 1;
        return r;
    };
    return go(0, 0);
}

namespace {

using Tokens = std::vector<Token>;

bool
isWild(char c)
{
    return c == kAnyWild || c == kNumWild;
}

std::string
collapseWilds(const std::string &p)
{
    std::string out;
    for (char c : p) {
        if (c == kAnyWild && !out.empty() && out.back() == kAnyWild)
            continue;
        out += c;
    }
    return out;
}

bool
hasLiteralChar(const std::string &p)
{
    for (char c : p)
        if (!isWild(c)) return true;
    return false;
}

bool
hasLiteralDot(const std::string &p)
{
    return p.find('.') != std::string::npos;
}

bool
literalLeading(const std::string &p)
{
    return !p.empty() && !isWild(p[0]);
}

/** Human form of a pattern: ANY as '*', NUM as "NN". */
std::string
display(const std::string &p)
{
    std::string out;
    for (char c : p) {
        if (c == kAnyWild) out += '*';
        else if (c == kNumWild) out += "NN";
        else out += c;
    }
    return out;
}

// --- Token expression parsing -----------------------------------------

bool
tokIs(const Tokens &ts, std::size_t i, const char *punct)
{
    return i < ts.size() && ts[i].kind == Tok::Punct &&
           ts[i].text == punct;
}

bool
prevIsDotArrow(const Tokens &ts, std::size_t i)
{
    if (i == 0) return false;
    if (tokIs(ts, i - 1, ".")) return true;
    return tokIs(ts, i - 1, ">") && i >= 2 && tokIs(ts, i - 2, "-") &&
           ts[i - 2].offset + 1 == ts[i - 1].offset;
}

/** Index one past the ")" matching the "(" at @p iOpen. */
std::size_t
skipBalancedParens(const Tokens &ts, std::size_t iOpen)
{
    int depth = 0;
    std::size_t j = iOpen;
    while (j < ts.size()) {
        if (tokIs(ts, j, "(")) depth++;
        else if (tokIs(ts, j, ")") && --depth == 0) return j + 1;
        j++;
    }
    return j;
}

/**
 * Abstracts a string-building expression starting at @p i into a
 * pattern: string literals contribute their text, statIndexName(...)
 * contributes NUM, everything else contributes ANY. Stops at the
 * first ',', ')', ';', or '}' outside nested parentheses and stores
 * that position in @p end.
 */
std::string
parseChain(const Tokens &ts, std::size_t i, std::size_t *end = nullptr)
{
    std::string pat;
    std::size_t j = i;
    while (j < ts.size()) {
        const Token &t = ts[j];
        if (t.kind == Tok::Punct) {
            if (t.text == "(") {
                pat += kAnyWild;
                j = skipBalancedParens(ts, j);
                continue;
            }
            if (t.text == ")" || t.text == "," || t.text == ";" ||
                t.text == "}")
                break;
            if (t.text == "?" || t.text == ":") pat += kAnyWild;
            j++;
            continue;
        }
        if (t.kind == Tok::String) {
            pat += t.text;
            j++;
            continue;
        }
        if (t.kind == Tok::Ident) {
            if (t.text == "c_str" && prevIsDotArrow(ts, j)) {
                // ("..." ).c_str() does not change the value.
                if (tokIs(ts, j + 1, "("))
                    j = skipBalancedParens(ts, j + 1);
                else j++;
                continue;
            }
            if (t.text == "statIndexName" && tokIs(ts, j + 1, "(")) {
                pat += kNumWild;
                j = skipBalancedParens(ts, j + 1);
                continue;
            }
            pat += kAnyWild;
            if (tokIs(ts, j + 1, "(")) j = skipBalancedParens(ts, j + 1);
            else j++;
            continue;
        }
        pat += kAnyWild; // Number / Char
        j++;
    }
    if (end != nullptr) *end = j;
    return collapseWilds(pat);
}

/** Strips one distribution/histogram leaf suffix, if present. */
std::string
stripLeafSuffix(const std::string &p)
{
    static const char *kLeaves[] = {
        ".count", ".mean", ".min",       ".max",      ".p50",
        ".p95",   ".p99",  ".total",     ".underflow", ".overflow"};
    for (const char *leaf : kLeaves)
        if (pathEndsWith(p, leaf))
            return p.substr(0, p.size() - std::strlen(leaf));
    std::size_t k = p.size();
    while (k > 0 &&
           std::isdigit(static_cast<unsigned char>(p[k - 1])) != 0)
        k--;
    if (k < p.size() && k >= 2 && p[k - 1] == 'b' && p[k - 2] == '.')
        return p.substr(0, k - 2);
    return p;
}

// --- Extraction -------------------------------------------------------

struct StatRef
{
    const SourceFile *sf = nullptr;
    std::size_t line = 0;
    std::size_t offset = 0;
    std::string pattern;
};

struct Extracted
{
    std::vector<std::string> bindings;
    std::vector<StatRef> refs;      // dotted lookups, full-name match
    std::vector<StatRef> selectors; // prefix match
    std::vector<std::string> candidates; // literal-leading fragments
};

bool
isBindingCall(const std::string &name)
{
    return name == "addCounter" || name == "addGauge" ||
           name == "addFormula" || name == "addDistribution";
}

bool
isLookupCall(const std::string &name)
{
    return name == "stat" || name == "value" || name == "has" ||
           name == "columnIndex";
}

bool
isSelectorCall(const std::string &name)
{
    return name == "snapshot" || name == "leaves" || name == "resolve";
}

void
extractFromFile(const SourceFile &sf, Extracted &out)
{
    const Tokens &ts = sf.lexed.tokens;
    // String tokens consumed as references or selectors must not
    // double as match candidates — a bogus selector would otherwise
    // satisfy itself.
    std::vector<bool> consumed(ts.size(), false);
    for (std::size_t i = 0; i < ts.size(); i++) {
        const Token &t = ts[i];
        if (t.kind != Tok::Ident) continue;

        if (isBindingCall(t.text) && tokIs(ts, i + 1, "(")) {
            std::string pat = parseChain(ts, i + 2);
            if (hasLiteralChar(pat)) out.bindings.push_back(pat);
            continue;
        }
        if (isLookupCall(t.text) && tokIs(ts, i + 1, "(") &&
            prevIsDotArrow(ts, i)) {
            std::size_t end = i + 2;
            std::string pat = parseChain(ts, i + 2, &end);
            if (hasLiteralDot(pat)) {
                out.refs.push_back(
                    StatRef{&sf, t.line, t.offset, pat});
                for (std::size_t j = i + 2; j < end; j++)
                    consumed[j] = true;
            }
            continue;
        }
        // timelineStats = {"apps.", ...}
        if (t.text == "timelineStats" && tokIs(ts, i + 1, "=") &&
            tokIs(ts, i + 2, "{")) {
            for (std::size_t j = i + 3;
                 j < ts.size() && !tokIs(ts, j, "}"); j++)
                if (ts[j].kind == Tok::String) {
                    out.selectors.push_back(StatRef{
                        &sf, ts[j].line, ts[j].offset, ts[j].text});
                    consumed[j] = true;
                }
            continue;
        }
        // EpochRecorder rec(&reg, {"llc.", ...}) and
        // reg.snapshot({...}) / leaves / resolve.
        std::size_t iOpen = 0;
        if (t.text == "EpochRecorder" && i + 2 < ts.size() &&
            ts[i + 1].kind == Tok::Ident && tokIs(ts, i + 2, "("))
            iOpen = i + 2;
        else if (isSelectorCall(t.text) && tokIs(ts, i + 1, "(") &&
                 prevIsDotArrow(ts, i))
            iOpen = i + 1;
        if (iOpen != 0) {
            std::size_t close = skipBalancedParens(ts, iOpen);
            for (std::size_t j = iOpen; j < close; j++)
                if (ts[j].kind == Tok::String &&
                    hasLiteralDot(ts[j].text)) {
                    out.selectors.push_back(StatRef{
                        &sf, ts[j].line, ts[j].offset, ts[j].text});
                    consumed[j] = true;
                }
        }
    }
    // Literal-leading name fragments: every remaining constructible
    // string containing a dot is a potential stat-name prefix.
    for (std::size_t i = 0; i < ts.size(); i++)
        if (ts[i].kind == Tok::String && !consumed[i] &&
            hasLiteralDot(ts[i].text))
            out.candidates.push_back(parseChain(ts, i));
}

} // namespace

// --- The pass ---------------------------------------------------------

void
runStatXrefPass(LintContext &ctx)
{
    Extracted ex;
    for (const SourceFile &sf : ctx.files) extractFromFile(sf, ex);
    // A partial scan with no bindings cannot tell dangling from
    // out-of-scope, so it checks nothing.
    if (ex.bindings.empty()) return;

    auto resolves = [&](const std::string &pat) {
        for (const std::string &b : ex.bindings)
            if (patternsIntersect(pat, b)) return true;
        std::string stripped = stripLeafSuffix(pat);
        if (stripped != pat)
            for (const std::string &b : ex.bindings)
                if (patternsIntersect(stripped, b)) return true;
        return false;
    };

    std::vector<std::string> prefixCands;
    for (const std::string &c : ex.candidates)
        if (literalLeading(c)) prefixCands.push_back(c);
    auto selectorResolves = [&](const std::string &sel) {
        for (const std::string &c : prefixCands)
            if (patternsIntersect(sel + kAnyWild, c + kAnyWild))
                return true;
        return false;
    };

    for (const StatRef &r : ex.refs)
        if (!resolves(r.pattern))
            ctx.report(*r.sf, "stat-xref", r.line, r.offset,
                       "stat reference \"" + display(r.pattern) +
                           "\" matches no registered stat binding");
    for (const StatRef &s : ex.selectors)
        if (!selectorResolves(s.pattern))
            ctx.report(*s.sf, "stat-xref", s.line, s.offset,
                       "timeline selector \"" + display(s.pattern) +
                           "\" can never match a registered stat "
                           "name");
}

} // namespace jlint

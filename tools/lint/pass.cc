/**
 * @file
 * Pass framework for jumanji_lint: file loading, suppression
 * handling, the suppression audit, and the three report renderers
 * (text, findings JSON, SARIF). The passes themselves live in
 * rules.cc, include_graph.cc, and stat_xref.cc.
 */

#include "tools/lint/lint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace fs = std::filesystem;

namespace jlint {

namespace {

bool
isSourcePath(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp" || ext == ".h";
}

/**
 * Extracts waivers from the comment stream. Syntax (unchanged from
 * the regex-era tool):
 *
 *   // lint-allow <rule> <why>        -- with a colon after "allow";
 *   // lint-allow-file <rule> <why>   -- spelled out in INTERNALS §8
 *
 * (The colon is elided above so this comment is not itself parsed as
 * a waiver.) The line form covers its own line and the one below;
 * "*" matches every rule. The declaration line is recorded so the
 * audit can point at stale waivers.
 */
void
parseSuppressions(SourceFile &sf)
{
    for (const auto &[line, text] : sf.lexed.comments) {
        std::size_t pos = 0;
        while (true) {
            bool fileWide = false;
            std::size_t at = text.find("lint-allow:", pos);
            std::size_t atFile = text.find("lint-allow-file:", pos);
            if (atFile != std::string::npos &&
                (at == std::string::npos || atFile < at)) {
                at = atFile;
                fileWide = true;
            }
            if (at == std::string::npos) break;
            std::size_t cursor =
                at + (fileWide ? sizeof("lint-allow-file:")
                               : sizeof("lint-allow:")) -
                1;
            std::istringstream rest(text.substr(cursor));
            Suppression s;
            rest >> s.rule;
            std::getline(rest, s.justification);
            std::size_t first =
                s.justification.find_first_not_of(" \t");
            s.justification = first == std::string::npos
                                  ? ""
                                  : s.justification.substr(first);
            s.line = line;
            s.fileWide = fileWide;
            if (!s.rule.empty()) {
                if (fileWide) sf.fileAllows.push_back(s);
                else sf.lineAllows[line].push_back(s);
            }
            pos = cursor;
        }
    }
}

std::string
jsonEscape(const std::string &in)
{
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Byte offset of the start of 1-based @p line in @p raw. */
std::size_t
lineStartOffset(const std::string &raw, std::size_t line)
{
    std::size_t offset = 0;
    for (std::size_t ln = 1; ln < line && offset < raw.size(); ln++) {
        std::size_t nl = raw.find('\n', offset);
        if (nl == std::string::npos) break;
        offset = nl + 1;
    }
    return offset;
}

} // namespace

// --- Shared helpers ---------------------------------------------------

bool
pathEndsWith(const std::string &path, const std::string &suffix)
{
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

std::string
repoRelative(const std::string &path)
{
    std::string norm = path;
    std::replace(norm.begin(), norm.end(), '\\', '/');
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= norm.size()) {
        std::size_t slash = norm.find('/', start);
        if (slash == std::string::npos) {
            parts.push_back(norm.substr(start));
            break;
        }
        parts.push_back(norm.substr(start, slash - start));
        start = slash + 1;
    }
    std::size_t anchor = parts.size();
    for (std::size_t i = 0; i < parts.size(); i++)
        if (parts[i] == "src" || parts[i] == "bench" ||
            parts[i] == "tools" || parts[i] == "tests" ||
            parts[i] == "examples")
            anchor = i;
    if (anchor == parts.size()) return norm;
    std::string rel;
    for (std::size_t i = anchor; i < parts.size(); i++) {
        if (!rel.empty()) rel += '/';
        rel += parts[i];
    }
    return rel;
}

std::string
topDirOf(const std::string &relPath)
{
    std::size_t slash = relPath.find('/');
    return slash == std::string::npos ? std::string()
                                      : relPath.substr(0, slash);
}

std::string
subsystemOf(const std::string &relPath)
{
    std::string top = topDirOf(relPath);
    if (top != "src") return top;
    std::size_t first = relPath.find('/');
    std::size_t second = relPath.find('/', first + 1);
    if (second == std::string::npos) return std::string();
    return relPath.substr(first + 1, second - first - 1);
}

// --- Context ----------------------------------------------------------

std::string
LintContext::snippetAt(const SourceFile &sf, std::size_t offset)
{
    const std::string &raw = sf.raw;
    if (offset > raw.size()) offset = raw.size();
    std::size_t begin =
        offset == 0 ? std::string::npos : raw.rfind('\n', offset - 1);
    begin = begin == std::string::npos ? 0 : begin + 1;
    std::size_t end = raw.find('\n', offset);
    if (end == std::string::npos) end = raw.size();
    std::string text = raw.substr(begin, end - begin);
    std::size_t first = text.find_first_not_of(" \t");
    std::size_t last = text.find_last_not_of(" \t\r");
    text = first == std::string::npos
               ? std::string()
               : text.substr(first, last - first + 1);
    if (text.size() > 160) text = text.substr(0, 157) + "...";
    return text;
}

void
LintContext::report(const SourceFile &sf, const std::string &rule,
                    std::size_t line, std::size_t offset,
                    const std::string &message)
{
    auto matches = [&](const Suppression &s) {
        return s.rule == "*" || s.rule == rule;
    };
    bool waived = false;
    for (const auto &s : sf.fileAllows)
        if (matches(s)) {
            s.used = true;
            waived = true;
        }
    // Same line or the immediately preceding line.
    for (std::size_t ln : {line, line > 1 ? line - 1 : line}) {
        auto it = sf.lineAllows.find(ln);
        if (it != sf.lineAllows.end())
            for (const auto &s : it->second)
                if (matches(s)) {
                    s.used = true;
                    waived = true;
                }
    }
    if (waived) return;
    findings.push_back(
        Finding{sf.relPath, line, rule, message, snippetAt(sf, offset)});
}

// --- Suppression audit ------------------------------------------------

void
runSuppressionAudit(LintContext &ctx)
{
    // Audit findings bypass report() on purpose: a waiver cannot
    // waive the audit of itself.
    for (const auto &sf : ctx.files) {
        auto audit = [&](const Suppression &s) {
            std::string snippet = LintContext::snippetAt(
                sf, lineStartOffset(sf.raw, s.line));
            if (!s.used) {
                ctx.findings.push_back(Finding{
                    sf.relPath, s.line, "suppression-audit",
                    "stale waiver: '" + s.rule +
                        "' suppresses no finding here; remove it",
                    snippet});
            } else if (s.justification.empty()) {
                ctx.findings.push_back(Finding{
                    sf.relPath, s.line, "suppression-audit",
                    "waiver for '" + s.rule +
                        "' has no justification; say why the "
                        "exemption is sound",
                    snippet});
            }
        };
        for (const auto &s : sf.fileAllows) audit(s);
        for (const auto &[line, list] : sf.lineAllows)
            for (const auto &s : list) audit(s);
    }
}

// --- Driver -----------------------------------------------------------

void
addSource(LintContext &ctx, const std::string &path,
          const std::string &raw)
{
    SourceFile sf;
    sf.path = path;
    sf.relPath = repoRelative(path);
    sf.raw = raw;
    sf.lexed = lex(sf.raw);
    parseSuppressions(sf);
    ctx.files.push_back(std::move(sf));
}

void
sortFindings(std::vector<Finding> &findings)
{
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file) return a.file < b.file;
                  if (a.line != b.line) return a.line < b.line;
                  if (a.rule != b.rule) return a.rule < b.rule;
                  return a.message < b.message;
              });
}

void
runAllPasses(LintContext &ctx)
{
    runTokenRules(ctx);
    runIncludeGraphPass(ctx);
    runStatXrefPass(ctx);
    runSuppressionAudit(ctx);
    sortFindings(ctx.findings);
}

void
runLint(LintContext &ctx, const std::vector<std::string> &roots)
{
    std::vector<fs::path> paths;
    for (const auto &root : roots) {
        std::error_code ec;
        if (fs::is_directory(root, ec)) {
            for (auto it = fs::recursive_directory_iterator(root, ec);
                 it != fs::recursive_directory_iterator(); ++it) {
                if (it->is_directory() &&
                    it->path().filename() == "lint_fixtures") {
                    it.disable_recursion_pending();
                    continue;
                }
                if (it->is_regular_file() && isSourcePath(it->path()))
                    paths.push_back(it->path());
            }
        } else if (fs::is_regular_file(root, ec)) {
            paths.emplace_back(root);
        } else {
            throw std::runtime_error("cannot read " + root);
        }
    }
    std::sort(paths.begin(), paths.end());

    for (const auto &p : paths) {
        std::ifstream in(p, std::ios::binary);
        if (!in)
            throw std::runtime_error("cannot read " + p.string());
        std::ostringstream buf;
        buf << in.rdbuf();
        addSource(ctx, p.string(), buf.str());
    }
    runAllPasses(ctx);
}

// --- Renderers --------------------------------------------------------

std::string
renderText(const std::vector<Finding> &findings,
           std::size_t filesScanned)
{
    std::string out;
    for (const auto &f : findings)
        out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule +
               "] " + f.message + "\n    " + f.snippet + "\n";
    out += std::to_string(filesScanned) + " files scanned, " +
           std::to_string(findings.size()) + " finding(s)\n";
    return out;
}

std::string
renderJson(const std::vector<Finding> &findings)
{
    std::string out = "[\n";
    for (std::size_t i = 0; i < findings.size(); i++) {
        const Finding &f = findings[i];
        out += "  {\"file\": \"" + jsonEscape(f.file) +
               "\", \"line\": " + std::to_string(f.line) +
               ", \"rule\": \"" + jsonEscape(f.rule) +
               "\", \"message\": \"" + jsonEscape(f.message) +
               "\", \"snippet\": \"" + jsonEscape(f.snippet) + "\"}";
        out += i + 1 < findings.size() ? ",\n" : "\n";
    }
    out += "]\n";
    return out;
}

std::string
renderSarif(const std::vector<Finding> &findings)
{
    std::set<std::string> ruleIds;
    for (const auto &f : findings) ruleIds.insert(f.rule);

    std::string out;
    out += "{\n";
    out += "  \"$schema\": "
           "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
    out += "  \"version\": \"2.1.0\",\n";
    out += "  \"runs\": [\n    {\n";
    out += "      \"tool\": {\n        \"driver\": {\n";
    out += "          \"name\": \"jumanji_lint\",\n";
    out += "          \"informationUri\": "
           "\"docs/INTERNALS.md\",\n";
    out += "          \"rules\": [\n";
    std::size_t i = 0;
    for (const auto &rule : ruleIds) {
        out += "            {\"id\": \"" + jsonEscape(rule) + "\"}";
        out += ++i < ruleIds.size() ? ",\n" : "\n";
    }
    out += "          ]\n        }\n      },\n";
    out += "      \"results\": [\n";
    for (std::size_t j = 0; j < findings.size(); j++) {
        const Finding &f = findings[j];
        out += "        {\n";
        out += "          \"ruleId\": \"" + jsonEscape(f.rule) +
               "\",\n";
        out += "          \"level\": \"error\",\n";
        out += "          \"message\": {\"text\": \"" +
               jsonEscape(f.message) + "\"},\n";
        out += "          \"locations\": [\n";
        out += "            {\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \"" +
               jsonEscape(f.file) +
               "\"}, \"region\": {\"startLine\": " +
               std::to_string(f.line == 0 ? 1 : f.line) + "}}}\n";
        out += "          ]\n        }";
        out += j + 1 < findings.size() ? ",\n" : "\n";
    }
    out += "      ]\n    }\n  ]\n}\n";
    return out;
}

} // namespace jlint

/**
 * @file
 * jumanji_lint entry point.
 *
 * Usage:
 *   jumanji_lint [--json | --sarif] [--report <path>] <file-or-dir>...
 *
 * Directories are scanned recursively for C++ sources only (scenario
 * JSON is checked by jumanji_cli --scenario-check); directories
 * named "lint_fixtures" are skipped (they hold deliberate violations
 * for tests/test_lint.cc). --report writes the findings JSON to a file
 * regardless of the stdout format.
 *
 * Exit status: 0 clean, 1 findings, 2 usage/IO error.
 */

#include "tools/lint/lint.hh"

#include <cstdio>
#include <exception>
#include <fstream>

int
main(int argc, char **argv)
{
    using namespace jlint;

    enum class Format
    {
        Text,
        Json,
        Sarif
    };
    Format format = Format::Text;
    std::string reportPath;
    std::vector<std::string> roots;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--json") {
            format = Format::Json;
        } else if (arg == "--sarif") {
            format = Format::Sarif;
        } else if (arg == "--report") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--report needs a path\n");
                return 2;
            }
            reportPath = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s [--json | --sarif] "
                        "[--report <path>] <file-or-dir>...\n",
                        argv[0]);
            return 0;
        } else {
            roots.push_back(arg);
        }
    }
    if (roots.empty()) {
        std::fprintf(stderr,
                     "usage: %s [--json | --sarif] [--report <path>] "
                     "<file-or-dir>...\n",
                     argv[0]);
        return 2;
    }

    LintContext ctx;
    try {
        runLint(ctx, roots);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    std::string output;
    switch (format) {
    case Format::Text:
        output = renderText(ctx.findings, ctx.files.size());
        break;
    case Format::Json: output = renderJson(ctx.findings); break;
    case Format::Sarif: output = renderSarif(ctx.findings); break;
    }
    std::fputs(output.c_str(), stdout);

    if (!reportPath.empty()) {
        std::ofstream out(reportPath);
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         reportPath.c_str());
            return 2;
        }
        out << renderJson(ctx.findings);
    }
    return ctx.findings.empty() ? 0 : 1;
}

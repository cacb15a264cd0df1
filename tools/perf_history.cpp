/**
 * @file
 * perf_history: compare two bench/profile JSON snapshots with
 * tolerance bands, and maintain a JSONL perf-trajectory file — the
 * seed of a perf-regression gate.
 *
 * Usage:
 *   perf_history compare <baseline.json> <candidate.json>
 *                [--tolerance FRAC] [--strict]
 *   perf_history append <snapshot.json> <trajectory.jsonl>
 *
 * compare flattens both documents to dotted numeric leaves
 * ("wall_seconds"; "a.b" in a nested object) and classifies each
 * shared key:
 *
 *  - semantic counters (simulated_accesses, jobs, mixes, seed) must
 *    match exactly — a drift means the measured work changed, which
 *    is a correctness problem, not a perf one;
 *  - timing keys (wall_seconds, accesses_per_sec, anything ending
 *    in _s or _ns) are held to a relative tolerance band (default
 *    ±15%, sized for a noisy 1-CPU CI runner);
 *  - everything else is reported informationally.
 *
 * Keys present in only one snapshot are informational (the bench
 * schema may grow fields). A semantic mismatch always exits 1.
 * Out-of-band timing keys only warn and leave the exit status 0 —
 * wall-clock on shared runners is too noisy to gate on; --strict
 * turns them into exit 1 for byte-controlled environments.
 *
 * append validates the snapshot parses and appends it as one
 * compact JSONL line, so the trajectory file is greppable history:
 * one line per (codeVersion, machine, run).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/sim/json.hh"

using jumanji::JsonValue;

namespace {

[[noreturn]] void
usage(int exitCode)
{
    std::fprintf(
        exitCode == 0 ? stdout : stderr,
        "usage: perf_history compare <baseline.json> <candidate.json>"
        " [--tolerance FRAC] [--strict]\n"
        "       perf_history append <snapshot.json> <trajectory.jsonl>"
        "\n");
    std::exit(exitCode);
}

JsonValue
loadJson(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "perf_history: cannot open %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    return JsonValue::parse(text, path);
}

struct NumericLeaf
{
    std::string key; // dotted path
    double value = 0.0;
};

void
flattenNumbers(const JsonValue &doc, const std::string &prefix,
               std::vector<NumericLeaf> &out)
{
    if (doc.isNumber()) {
        out.push_back({prefix, doc.asDouble(prefix)});
        return;
    }
    if (doc.isObject()) {
        for (const auto &member : doc.members())
            flattenNumbers(member.second,
                           prefix.empty()
                               ? member.first
                               : prefix + "." + member.first,
                           out);
    }
    // Arrays (profile scope lists) are positional, not stable keys:
    // comparing scopes[3] across runs with different scope sets
    // would misattribute, so array contents are skipped here.
}

const NumericLeaf *
findLeaf(const std::vector<NumericLeaf> &leaves, const std::string &key)
{
    for (const NumericLeaf &leaf : leaves)
        if (leaf.key == key) return &leaf;
    return nullptr;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** Counters whose drift means the measured *work* changed. */
bool
isSemanticKey(const std::string &key)
{
    return endsWith(key, "simulated_accesses") ||
           endsWith(key, "jobs") || endsWith(key, "mixes") ||
           endsWith(key, "seed") || endsWith(key, "calls");
}

/** Wall-clock-derived keys, held to the tolerance band. */
bool
isTimingKey(const std::string &key)
{
    return endsWith(key, "wall_seconds") ||
           endsWith(key, "accesses_per_sec") || endsWith(key, "_s") ||
           endsWith(key, "_ns");
}

/**
 * @p v as printf text: integers in full (counters such as
 * 6299686 must not round to 6.29969e+06), the rest in %.6g.
 */
std::string
formatValue(double v)
{
    char buf[64];
    if (std::fabs(v) < 9.007199254740992e15 && v == std::trunc(v))
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

int
runCompare(const std::string &basePath, const std::string &candPath,
           double tolerance, bool strict)
{
    std::vector<NumericLeaf> base, cand;
    flattenNumbers(loadJson(basePath), "", base);
    flattenNumbers(loadJson(candPath), "", cand);

    std::size_t compared = 0;
    std::size_t mismatches = 0;
    std::size_t violations = 0;
    for (const NumericLeaf &b : base) {
        const NumericLeaf *c = findLeaf(cand, b.key);
        if (c == nullptr) {
            std::printf("  -     %-28s only in baseline\n",
                        b.key.c_str());
            continue;
        }
        compared++;
        const std::string was = formatValue(b.value);
        const std::string now = formatValue(c->value);
        if (isSemanticKey(b.key)) {
            if (b.value == c->value) {
                std::printf("  ok    %-28s %s (exact)\n", b.key.c_str(),
                            was.c_str());
            } else {
                mismatches++;
                std::printf("  FAIL  %-28s %s -> %s (semantic "
                            "counter must match exactly)\n",
                            b.key.c_str(), was.c_str(), now.c_str());
            }
            continue;
        }
        if (isTimingKey(b.key) && b.value != 0.0) {
            const double rel = (c->value - b.value) / b.value;
            if (std::fabs(rel) <= tolerance) {
                std::printf("  ok    %-28s %s -> %s (%+.1f%%)\n",
                            b.key.c_str(), was.c_str(), now.c_str(),
                            rel * 100.0);
            } else {
                violations++;
                std::printf("  WARN  %-28s %s -> %s (%+.1f%%, "
                            "band ±%.0f%%)\n",
                            b.key.c_str(), was.c_str(), now.c_str(),
                            rel * 100.0, tolerance * 100.0);
            }
            continue;
        }
        std::printf("  info  %-28s %s -> %s\n", b.key.c_str(),
                    was.c_str(), now.c_str());
    }
    for (const NumericLeaf &c : cand)
        if (findLeaf(base, c.key) == nullptr)
            std::printf("  +     %-28s only in candidate\n",
                        c.key.c_str());

    std::printf("perf_history: %zu keys compared, %zu semantic "
                "mismatches, %zu out of band (tolerance ±%.0f%%)%s\n",
                compared, mismatches, violations, tolerance * 100.0,
                strict ? "" : ", timing warn-only");
    return (mismatches > 0 || (strict && violations > 0)) ? 1 : 0;
}

int
runAppend(const std::string &snapshotPath,
          const std::string &trajectoryPath)
{
    // Parse first: an unreadable snapshot must not corrupt the
    // trajectory with a partial or non-JSON line.
    JsonValue doc = loadJson(snapshotPath);
    std::ofstream os(trajectoryPath, std::ios::app);
    if (!os) {
        std::fprintf(stderr, "perf_history: cannot open %s\n",
                     trajectoryPath.c_str());
        return 2;
    }
    os << doc.dump(-1) << "\n";
    os.close();

    std::ifstream is(trajectoryPath);
    std::size_t lines = 0;
    std::string line;
    while (std::getline(is, line))
        if (!line.empty()) lines++;
    std::printf("perf_history: appended %s to %s (%zu entries)\n",
                snapshotPath.c_str(), trajectoryPath.c_str(), lines);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) usage(2);
    const std::string mode = argv[1];
    try {
        if (mode == "compare") {
            double tolerance = 0.15;
            bool strict = false;
            std::vector<std::string> paths;
            for (int i = 2; i < argc; i++) {
                const std::string arg = argv[i];
                if (arg == "--tolerance") {
                    if (i + 1 >= argc) usage(2);
                    tolerance = std::strtod(argv[++i], nullptr);
                    if (tolerance <= 0.0) usage(2);
                } else if (arg == "--strict") {
                    strict = true;
                } else {
                    paths.push_back(arg);
                }
            }
            if (paths.size() != 2) usage(2);
            return runCompare(paths[0], paths[1], tolerance, strict);
        }
        if (mode == "append") {
            if (argc != 4) usage(2);
            return runAppend(argv[2], argv[3]);
        }
        if (mode == "--help" || mode == "-h") usage(0);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perf_history: %s\n", e.what());
        return 2;
    }
    usage(2);
}

/**
 * @file
 * Reads back the driver's JSONL event log (`--events-out` /
 * JUMANJI_EVENTS) for the tests that check what a run logged.
 */

#ifndef JUMANJI_TESTS_EVENT_LOG_HH
#define JUMANJI_TESTS_EVENT_LOG_HH

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "src/sim/json.hh"

namespace jumanji {

/** Parses a JSONL event log into one JsonValue per line. */
inline std::vector<JsonValue>
readEvents(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << path;
    std::vector<JsonValue> events;
    std::string line;
    while (std::getline(is, line))
        if (!line.empty())
            events.push_back(JsonValue::parse(line, path));
    return events;
}

} // namespace jumanji

#endif // JUMANJI_TESTS_EVENT_LOG_HH

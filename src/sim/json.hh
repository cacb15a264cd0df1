/**
 * @file
 * Minimal JSON value/parser/writer for the declarative scenario
 * layer (config serialization, experiment specs).
 *
 * Deliberately small and strict rather than general:
 *  - objects preserve insertion order, so serialized configs read in
 *    the same order the schema documents and diffs stay stable;
 *  - integers are kept exact (64-bit magnitude + sign) so seeds and
 *    tick counts round-trip without double rounding;
 *  - parse errors carry line:column positions, and every typed
 *    accessor throws FatalError with the offending path, so scenario
 *    files fail with a precise "field: reason" diagnostic instead of
 *    a silent default.
 *
 * No external dependency: the container ships no JSON library, and
 * the simulator must stay self-contained.
 */

#ifndef JUMANJI_SIM_JSON_HH
#define JUMANJI_SIM_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace jumanji {

class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** Constructs null. */
    JsonValue() = default;

    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v);
    static JsonValue makeU64(std::uint64_t v);
    static JsonValue makeI64(std::int64_t v);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray();
    static JsonValue makeObject();

    Kind kind() const { return kind_; }
    const char *kindName() const;

    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /**
     * Typed accessors. @p path names the value in thrown
     * diagnostics ("mesh.cols"); accessors throw FatalError
     * "<path>: expected <type>, got <kind>" on a kind mismatch and
     * "<path>: <reason>" on a range violation.
     */
    bool asBool(const std::string &path) const;
    double asDouble(const std::string &path) const;
    /** Requires a non-negative integral number that fits uint64. */
    std::uint64_t asU64(const std::string &path) const;
    /** asU64 plus an upper bound (for uint32 fields). */
    std::uint32_t asU32(const std::string &path) const;
    const std::string &asString(const std::string &path) const;

    // ---- Arrays ----

    void push(JsonValue v);
    const std::vector<JsonValue> &items() const { return items_; }

    // ---- Objects (insertion-ordered) ----

    /** Adds or replaces @p key. */
    void set(const std::string &key, JsonValue v);
    /** Member lookup; nullptr when absent (or not an object). */
    const JsonValue *find(const std::string &key) const;
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }

    /**
     * Serializes with two-space indentation (compact when
     * @p indent < 0). Integral numbers print exactly; other doubles
     * print with round-trip precision.
     */
    std::string dump(int indent = 0) const;

    /**
     * Parses @p text. Throws FatalError
     * "<where>:<line>:<col>: <reason>" on malformed input; @p where
     * labels the source (a file name, "<scenario>", ...).
     */
    static JsonValue parse(const std::string &text,
                           const std::string &where = "<json>");

    bool operator==(const JsonValue &other) const;
    bool operator!=(const JsonValue &other) const
    {
        return !(*this == other);
    }

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    /** Exact integral storage (magnitude + sign) when integral_. */
    bool integral_ = false;
    bool negative_ = false;
    std::uint64_t magnitude_ = 0;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;

    void dumpTo(std::string &out, int indent, int depth) const;
};

/**
 * Strict object walker shared by the config and spec readers: get()
 * marks a member consumed, finish() rejects every unconsumed one as
 * "<path>: unknown key". Member order is irrelevant; unknown keys are
 * fatal so a typo can never silently no-op.
 */
class ObjectReader
{
  public:
    /**
     * @param prefix Dotted path of @p json in its document ("" at the
     *        root); every diagnostic is prefixed with it.
     * @param rootName Names a root (@p prefix empty) in the "expected
     *        object" diagnostic: "config", "scenario".
     */
    ObjectReader(const JsonValue &json, std::string prefix,
                 const std::string &rootName = "document");

    /** Member named @p key, or nullptr when absent. */
    const JsonValue *get(const std::string &key);

    /** Dotted path of member @p key ("llc.ways"). */
    std::string path(const std::string &key) const;

    /** Throws FatalError naming the first unconsumed member. */
    void finish() const;

  private:
    const JsonValue &json_;
    std::string prefix_;
    std::vector<bool> consumed_;
};

} // namespace jumanji

#endif // JUMANJI_SIM_JSON_HH

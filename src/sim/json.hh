/**
 * @file
 * Minimal JSON reader.
 *
 * tools/tlrreport must parse the simulator's own JSON dumps without any
 * external dependency, so this is a small recursive-descent parser
 * covering the full JSON grammar the repo emits: objects (member order
 * preserved), arrays, numbers (held as double — exact for the < 2^53
 * counter values we dump), strings with the common escapes, booleans
 * and null. It is a reader for trusted tool input, not a hardened
 * general-purpose parser.
 */

#ifndef TLR_SIM_JSON_HH
#define TLR_SIM_JSON_HH

#include <string>
#include <utility>
#include <vector>

namespace tlr
{

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<std::pair<std::string, JsonValue>> members; ///< objects
    std::vector<JsonValue> elements;                        ///< arrays

    bool isNumber() const { return kind == Kind::Number; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
};

/** Parse @p text into @p out. On failure returns false and describes
 *  the first error (with byte offset) in @p err. */
bool parseJson(const std::string &text, JsonValue &out, std::string &err);

} // namespace tlr

#endif // TLR_SIM_JSON_HH

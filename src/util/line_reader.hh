/**
 * @file
 * The line reader every ovlsim text format is parsed through.
 *
 * Seven formats read through it: traces and overlap metadata
 * (trace/trace_io.hh), scenarios (scen/scenario.hh), fault models
 * and availability traces (res/fault_model.hh), platform files
 * (sim/platform_file.hh) and workload files (gen/workload_file.hh).
 * It owns what they share, so each gets it one way:
 *
 * - Comments: a `#` that begins a token comments out the rest of the
 *   line (`at 5 recover all  # repaired` reads `at 5 recover all`;
 *   `a#b` is one token). A line with no token left is skipped. A
 *   magic first line such as `#OVLSIM-TRACE 1` is matched by
 *   expectMagic() before this rule applies.
 * - Errors: a FatalError raised while a line is handled, by the
 *   reader's own checks or by anything the handler calls, reaches
 *   the caller as `<source> line <n>: <message>`; one raised by a
 *   check() after the last line reads `<source>: <message>`, or
 *   names the line the check is about. A file read while a line is
 *   handled keeps its own prefix inside the outer one:
 *   `a.platform line 3: b.scen line 1: <message>`.
 * - Numbers: parseNumber() reads a field as exactly its type: no
 *   silent narrowing, no `-` where the type is unsigned, and only
 *   finite doubles.
 * - Keys: keyValue() splits `key = value` and, like once(), makes a
 *   key's second line fatal, naming its first. A file describes one
 *   object, so a repeated key is a typo, not last-one-wins.
 */

#ifndef OVLSIM_UTIL_LINE_READER_HH
#define OVLSIM_UTIL_LINE_READER_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ovlsim {

/** The values a number field admits beyond what its type holds. */
enum class Sign { any, nonNegative, positive };

/**
 * `text` as a T (int, std::int64_t, std::uint64_t or double), or a
 * FatalError: not a number (a leading `+` included), out of T's
 * range, a `-` where T is unsigned or `sign` is not `any`, a double
 * that is not finite, or not positive where `sign` asks.
 */
template <typename T>
T parseNumber(std::string_view text, Sign sign = Sign::any);

/** One stream read line by line under the rules above. */
class LineReader
{
  public:
    /** `source` names the stream in every error (a file's path). */
    LineReader(std::istream &in, std::string source);

    /** Fatal unless the first line reads `magic`. */
    void expectMagic(std::string_view magic);

    /**
     * Call `handle` for every line that holds a token, in order;
     * the accessors below describe that line. A FatalError it
     * raises gains `<source> line <n>: `.
     */
    void forEachLine(const std::function<void()> &handle);

    /**
     * Run a check after the last line. A FatalError it raises gains
     * `<source> line <line>: `, or `<source>: ` when `line` is 0.
     */
    void check(const std::function<void()> &body,
               std::size_t line = 0) const;

    /** Number of the current line, counting from 1. */
    std::size_t line() const { return line_; }

    /** Tokens on the current line. */
    std::size_t size() const { return tokens_.size(); }
    const std::string &operator[](std::size_t i) const
    {
        return tokens_[i];
    }

    /** Token `i`; fatal ("missing <what>") when the line is shorter. */
    const std::string &token(std::size_t i, std::string_view what) const;

    /** Fatal unless the line holds exactly `n` tokens; `usage` spells
     * the expected line. */
    void expectTokens(std::size_t n, std::string_view usage) const;

    /** The line after its first token, trimmed: a `name` that may
     * hold spaces. */
    std::string rest() const;

    /** The line split at its first `=` into trimmed key and value;
     * the key is claimed as by once(). */
    std::pair<std::string, std::string> keyValue();

    /** Claim `key` for this line; fatal when an earlier line did. */
    void once(const std::string &key);

    /** Line that claimed `key`, or 0. */
    std::size_t seenLine(const std::string &key) const;

  private:
    std::istream &in_;
    std::string source_;
    std::size_t line_ = 0;
    /** The current line up to its comment, trimmed. */
    std::string text_;
    std::vector<std::string> tokens_;
    std::map<std::string, std::size_t> claimed_;
};

} // namespace ovlsim

#endif // OVLSIM_UTIL_LINE_READER_HH

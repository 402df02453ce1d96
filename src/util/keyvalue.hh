/**
 * @file
 * Line-oriented `key = value` configuration reader.
 *
 * Platform files and workload files share the same surface syntax
 * and the same robustness guarantees: comments and blank lines are
 * skipped, malformed lines and duplicate keys are fatal with the
 * file and line number, and every numeric value is domain-checked
 * (NaN, inf and out-of-domain signs rejected) right at the parse
 * with the offending key in the error. This reader factors those
 * guarantees out so every new file format gets them by construction
 * instead of re-implementing them. Fault-model files
 * (res/fault_model.hh) have their own `process ...` lines and do
 * not use it; their reader rejects repeated keys by hand.
 */

#ifndef OVLSIM_UTIL_KEYVALUE_HH
#define OVLSIM_UTIL_KEYVALUE_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "util/logging.hh"

namespace ovlsim {

/**
 * Pull-style reader over one `key = value` stream.
 *
 * Call next() in a loop; while it returns true, key()/value() hold
 * the current trimmed pair and the numeric helpers parse value()
 * under a domain check. A repeated key is fatal at its second
 * occurrence, naming the first line — a config describes one object,
 * so a duplicate is a typo (and silent last-one-wins made such
 * typos expensive to spot).
 */
class KeyValueReader
{
  public:
    KeyValueReader(std::istream &is, std::string source);

    /** Advance to the next key/value pair; false at end of stream. */
    bool next();

    const std::string &key() const { return key_; }
    const std::string &value() const { return value_; }
    std::size_t line() const { return line_; }
    const std::string &source() const { return source_; }

    /** Line a key was first parsed on, or 0 when never seen. */
    std::size_t seenLine(const std::string &key) const;

    /** Fatal error prefixed with `<source> line <line>: `. */
    template <typename... Args>
    [[noreturn]] void
    fail(Args &&...args) const
    {
        fatal(source_, " line ", line_, ": ",
              std::forward<Args>(args)...);
    }

    // Domain-checked parses of the current value; every error names
    // the file, line and key so an out-of-domain value can never
    // flow onward and surface as a confusing cost or assertion
    // later.
    double finiteDouble() const;
    double nonNegativeDouble() const;
    double positiveDouble() const;
    std::int64_t integer() const;
    std::int64_t nonNegativeInt() const;
    std::int64_t positiveInt() const;
    bool boolean() const;

  private:
    std::istream &is_;
    std::string source_;
    std::string key_;
    std::string value_;
    std::size_t line_ = 0;
    /** First-seen line of every key, for duplicate reporting. */
    std::map<std::string, std::size_t> seen_;
};

} // namespace ovlsim

#endif // OVLSIM_UTIL_KEYVALUE_HH

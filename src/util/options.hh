/**
 * @file
 * Minimal command-line option parser for the examples and benches.
 *
 * Supports "--key=value", "--key value" and boolean "--flag" forms.
 * Unknown options and arguments that are not options raise
 * FatalError so typos surface immediately, and every number is read
 * by parseNumber (util/line_reader.hh), the parser every text format
 * uses, with any error naming the option.
 */

#ifndef OVLSIM_UTIL_OPTIONS_HH
#define OVLSIM_UTIL_OPTIONS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "line_reader.hh"

namespace ovlsim {

/** Parsed command line with typed accessors and defaults. */
class Options
{
  public:
    /**
     * Declare an option before parsing.
     *
     * @param name option name without leading dashes
     * @param default_value textual default
     * @param help one-line description for usage output
     */
    void declare(const std::string &name,
                 const std::string &default_value,
                 const std::string &help);

    /** Parse argv; throws FatalError on undeclared options and on
     * arguments that do not start with `--`. */
    void parse(int argc, const char *const *argv);

    std::string getString(const std::string &name) const;

    /**
     * The option as an integer in [lo, hi]: a value outside raises
     * FatalError naming the option, the range and the value. Every
     * read that narrows the result or changes its sign passes the
     * bounds it needs, so no typo wraps silently.
     */
    std::int64_t
    getInt(const std::string &name,
           std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
           std::int64_t hi = std::numeric_limits<std::int64_t>::max())
        const;

    /** The option as a finite double that meets `sign`. */
    double getDouble(const std::string &name,
                     Sign sign = Sign::any) const;
    bool getBool(const std::string &name) const;

    /** Render a usage block listing all declared options. */
    std::string usage(const std::string &program) const;

  private:
    struct Decl
    {
        std::string defaultValue;
        std::string help;
    };

    const std::string &lookup(const std::string &name) const;

    std::map<std::string, Decl> decls_;
    std::map<std::string, std::string> values_;
};

} // namespace ovlsim

#endif // OVLSIM_UTIL_OPTIONS_HH

#include "options.hh"

#include <sstream>

#include "logging.hh"
#include "strings.hh"

namespace ovlsim {

void
Options::declare(const std::string &name,
                 const std::string &default_value,
                 const std::string &help)
{
    ovlAssert(!name.empty(), "option name must not be empty");
    ovlAssert(!decls_.count(name), "option '", name,
              "' declared twice");
    decls_[name] = Decl{default_value, help};
}

void
Options::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (!startsWith(arg, "--"))
            fatal("unexpected argument '", arg,
                  "' (options start with --)");
        arg = arg.substr(2);
        std::string name;
        std::string value;
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else {
            name = arg;
            const auto it = decls_.find(name);
            if (it == decls_.end())
                fatal("unknown option --", name);
            // Boolean flags may omit the value; other options
            // consume the next argument.
            const bool is_flag = it->second.defaultValue == "true" ||
                it->second.defaultValue == "false";
            if (is_flag) {
                value = "true";
            } else {
                if (i + 1 >= argc)
                    fatal("option --", name, " expects a value");
                value = argv[++i];
            }
        }
        if (!decls_.count(name))
            fatal("unknown option --", name);
        values_[name] = value;
    }
}

const std::string &
Options::lookup(const std::string &name) const
{
    const auto vit = values_.find(name);
    if (vit != values_.end())
        return vit->second;
    const auto dit = decls_.find(name);
    if (dit == decls_.end())
        fatal("option '", name, "' was never declared");
    return dit->second.defaultValue;
}

std::string
Options::getString(const std::string &name) const
{
    return lookup(name);
}

namespace {

/** `text`, the value of option `name`, read by parseNumber<T>; an
 * error names the option. */
template <typename T>
T
optionNumber(const std::string &name, const std::string &text,
             Sign sign)
{
    try {
        return parseNumber<T>(text, sign);
    } catch (const FatalError &err) {
        fatal("option --", name, ": ", err.what());
    }
}

} // namespace

std::int64_t
Options::getInt(const std::string &name, std::int64_t lo,
                std::int64_t hi) const
{
    const auto value =
        optionNumber<std::int64_t>(name, lookup(name), Sign::any);
    if (value < lo || value > hi)
        fatal("option --", name, " must be in [", lo, ", ", hi,
              "], got ", value);
    return value;
}

double
Options::getDouble(const std::string &name, Sign sign) const
{
    return optionNumber<double>(name, lookup(name), sign);
}

bool
Options::getBool(const std::string &name) const
{
    return parseBool(lookup(name));
}

std::string
Options::usage(const std::string &program) const
{
    std::ostringstream os;
    os << "usage: " << program << " [options]\n";
    for (const auto &[name, decl] : decls_) {
        os << "  --" << name << " (default: "
           << (decl.defaultValue.empty() ? "\"\"" : decl.defaultValue)
           << ")\n      " << decl.help << "\n";
    }
    return os.str();
}

} // namespace ovlsim

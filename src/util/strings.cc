#include "strings.hh"

#include <cctype>
#include <cstdarg>
#include <cstdio>

#include "logging.hh"

namespace ovlsim {

std::vector<std::string>
split(std::string_view text, char delim)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(delim, start);
        if (pos == std::string_view::npos) {
            fields.emplace_back(text.substr(start));
            break;
        }
        fields.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
    return fields;
}

std::string
trim(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return std::string(text.substr(begin, end - begin));
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.substr(0, prefix.size()) == prefix;
}

std::string
toLower(std::string_view text)
{
    std::string out(text);
    for (auto &c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::string
strformat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args_copy);
        panic("strformat: invalid format string");
    }
    std::string out(static_cast<std::size_t>(needed), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    va_end(args_copy);
    return out;
}

std::string
humanBytes(Bytes bytes)
{
    static const char *units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    auto value = static_cast<double>(bytes);
    std::size_t unit = 0;
    while (value >= 1024.0 && unit + 1 < std::size(units)) {
        value /= 1024.0;
        ++unit;
    }
    if (unit == 0)
        return strformat("%llu B",
                         static_cast<unsigned long long>(bytes));
    return strformat("%.2f %s", value, units[unit]);
}

std::string
humanTime(SimTime t)
{
    const double ns = static_cast<double>(t.ns());
    const double abs_ns = ns < 0 ? -ns : ns;
    if (abs_ns < 1e3)
        return strformat("%.0f ns", ns);
    if (abs_ns < 1e6)
        return strformat("%.2f us", ns / 1e3);
    if (abs_ns < 1e9)
        return strformat("%.2f ms", ns / 1e6);
    return strformat("%.3f s", ns / 1e9);
}

bool
parseBool(std::string_view text)
{
    const std::string s = toLower(trim(text));
    if (s == "true" || s == "1" || s == "yes" || s == "on")
        return true;
    if (s == "false" || s == "0" || s == "no" || s == "off")
        return false;
    fatal("parseBool: cannot parse '", s, "' as boolean");
}

} // namespace ovlsim

#include "line_reader.hh"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <istream>
#include <type_traits>

#include "util/logging.hh"
#include "util/strings.hh"

namespace ovlsim {

namespace {

constexpr const char *whitespace = " \t\n\v\f\r";

} // namespace

template <typename T>
T
parseNumber(std::string_view text, Sign sign)
{
    if ((std::is_unsigned_v<T> || sign != Sign::any) &&
        text.starts_with('-')) {
        fatal("negative value '", text, "'");
    }
    T value{};
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        fatal("value '", text, "' out of range");
    if (ec != std::errc() || stop != end)
        fatal("cannot parse '", text, "' as a number");
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value))
            fatal("value '", text, "' is not finite");
    }
    if (sign == Sign::positive && !(value > T{}))
        fatal("value '", text, "' must be positive");
    return value;
}

template int parseNumber<int>(std::string_view, Sign);
template std::int64_t parseNumber<std::int64_t>(std::string_view, Sign);
template std::uint64_t parseNumber<std::uint64_t>(std::string_view,
                                                  Sign);
template double parseNumber<double>(std::string_view, Sign);

LineReader::LineReader(std::istream &in, std::string source)
    : in_(in), source_(std::move(source))
{}

void
LineReader::expectMagic(std::string_view magic)
{
    std::string raw;
    line_ = 1;
    if (!std::getline(in_, raw) || trim(raw) != magic)
        fatal(source_, " line 1: expected '", magic, "'");
}

void
LineReader::forEachLine(const std::function<void()> &handle)
{
    std::string raw;
    while (std::getline(in_, raw)) {
        ++line_;
        tokens_.clear();
        for (std::size_t at = raw.find_first_not_of(whitespace);
             at != std::string::npos;
             at = raw.find_first_not_of(whitespace, at)) {
            if (raw[at] == '#') {
                raw.resize(at);
                break;
            }
            const std::size_t end = raw.find_first_of(whitespace, at);
            tokens_.push_back(raw.substr(at, end - at));
            at = end;
        }
        if (tokens_.empty())
            continue;
        text_ = trim(raw);
        try {
            handle();
        } catch (const FatalError &err) {
            throw FatalError(strformat("%s line %zu: %s",
                                       source_.c_str(), line_,
                                       err.what()));
        }
    }
}

void
LineReader::check(const std::function<void()> &body,
                  std::size_t line) const
{
    try {
        body();
    } catch (const FatalError &err) {
        throw FatalError(
            line == 0 ? source_ + ": " + err.what()
                      : strformat("%s line %zu: %s", source_.c_str(),
                                  line, err.what()));
    }
}

const std::string &
LineReader::token(std::size_t i, std::string_view what) const
{
    if (i >= tokens_.size())
        fatal("missing ", what);
    return tokens_[i];
}

void
LineReader::expectTokens(std::size_t n, std::string_view usage) const
{
    if (tokens_.size() != n)
        fatal("expected `", usage, "`, got ", tokens_.size(),
              " fields");
}

std::string
LineReader::rest() const
{
    const std::size_t end = text_.find_first_of(whitespace);
    return end == std::string::npos ? std::string()
                                    : trim(text_.substr(end));
}

std::pair<std::string, std::string>
LineReader::keyValue()
{
    const std::size_t eq = text_.find('=');
    if (eq == std::string::npos)
        fatal("expected 'key = value', got '", text_, "'");
    std::string key = trim(text_.substr(0, eq));
    once(key);
    return {std::move(key), trim(text_.substr(eq + 1))};
}

void
LineReader::once(const std::string &key)
{
    const auto [first, fresh] = claimed_.emplace(key, line_);
    if (!fresh) {
        fatal("duplicate key '", key, "' (first set on line ",
              first->second, ")");
    }
}

std::size_t
LineReader::seenLine(const std::string &key) const
{
    const auto it = claimed_.find(key);
    return it == claimed_.end() ? 0 : it->second;
}

} // namespace ovlsim

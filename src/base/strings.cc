#include "base/strings.hh"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace rex {

std::string
trim(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(
            text[begin]))) {
        ++begin;
    }
    while (end > begin && std::isspace(static_cast<unsigned char>(
            text[end - 1]))) {
        --end;
    }
    return std::string(text.substr(begin, end - begin));
}

std::vector<std::string>
split(std::string_view text, char sep)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == sep) {
            fields.emplace_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return fields;
}

std::vector<std::string>
splitWhitespace(std::string_view text)
{
    std::vector<std::string> tokens;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() && std::isspace(static_cast<unsigned char>(
                text[i]))) {
            ++i;
        }
        std::size_t start = i;
        while (i < text.size() && !std::isspace(static_cast<unsigned char>(
                text[i]))) {
            ++i;
        }
        if (i > start)
            tokens.emplace_back(text.substr(start, i - start));
    }
    return tokens;
}

std::string
toUpper(std::string_view text)
{
    std::string out(text);
    for (char &c : out)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return out;
}

std::string
toLower(std::string_view text)
{
    std::string out(text);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
        text.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
        text.substr(text.size() - suffix.size()) == suffix;
}

bool
parseInteger(std::string_view text, std::int64_t &out)
{
    if (text.empty())
        return false;
    bool negative = false;
    std::size_t i = 0;
    if (text[0] == '-') {
        negative = true;
        i = 1;
    }
    if (i >= text.size())
        return false;

    int base = 10;
    if (text.size() - i > 2 && text[i] == '0' &&
            (text[i + 1] == 'x' || text[i + 1] == 'X')) {
        base = 16;
        i += 2;
    } else if (text.size() - i > 2 && text[i] == '0' &&
            (text[i + 1] == 'b' || text[i + 1] == 'B')) {
        base = 2;
        i += 2;
    }

    std::int64_t value = 0;
    bool any = false;
    for (; i < text.size(); ++i) {
        char c = text[i];
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = 10 + (c - 'a');
        else if (c >= 'A' && c <= 'F')
            digit = 10 + (c - 'A');
        else
            return false;
        if (digit >= base)
            return false;
        value = value * base + digit;
        any = true;
    }
    if (!any)
        return false;
    out = negative ? -value : value;
    return true;
}

std::string
concat(std::initializer_list<std::string_view> parts)
{
    std::size_t size = 0;
    for (std::string_view part : parts)
        size += part.size();
    std::string out;
    out.reserve(size);
    for (std::string_view part : parts)
        out += part;
    return out;
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args_copy);
        return {};
    }
    std::string out(static_cast<std::size_t>(needed), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    va_end(args_copy);
    return out;
}

} // namespace rex

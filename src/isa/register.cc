#include "isa/register.hh"

#include "base/strings.hh"

namespace rex::isa {

std::string
regName(RegId reg)
{
    if (reg == kZeroReg)
        return "XZR";
    return concat({"X", std::to_string(reg)});
}

std::optional<RegId>
parseReg(std::string_view text)
{
    std::string up = toUpper(text);
    if (up == "XZR" || up == "WZR")
        return kZeroReg;
    if (up.size() < 2 || (up[0] != 'X' && up[0] != 'W'))
        return std::nullopt;
    std::int64_t n;
    if (!parseInteger(up.substr(1), n))
        return std::nullopt;
    if (n < 0 || n > 30)
        return std::nullopt;
    return static_cast<RegId>(n);
}

} // namespace rex::isa

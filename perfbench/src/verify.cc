#include "verify.hh"

#include <stdexcept>

namespace perfbench {

AckLog::AckLog(std::size_t keys, std::int64_t (*initial)(std::int64_t))
    : expect_(keys)
{
    for (std::size_t k = 0; k < keys; ++k)
        expect_[k] = initial(static_cast<std::int64_t>(k));
}

void
AckLog::ack(std::int64_t key, std::int64_t value)
{
    expect_.at(static_cast<std::size_t>(key)) = value;
}

std::int64_t
AckLog::expected(std::int64_t key) const
{
    return expect_.at(static_cast<std::size_t>(key));
}

std::size_t
AckLog::check(const std::vector<std::optional<std::int64_t>> &observed,
              std::string *first_bad) const
{
    if (observed.size() != expect_.size())
        throw std::invalid_argument("AckLog::check: key count differs");
    std::size_t bad = 0;
    for (std::size_t k = 0; k < expect_.size(); ++k) {
        if (observed[k] == expect_[k])
            continue;
        if (bad++ == 0 && first_bad != nullptr)
            *first_bad = "key " + std::to_string(k) + ": expected " +
                         std::to_string(expect_[k]) + ", read " +
                         (observed[k] ? std::to_string(*observed[k])
                                      : std::string("nothing"));
    }
    return bad;
}

std::size_t
checkGroupSums(const std::vector<std::int64_t> &balances,
               std::size_t group_size, std::int64_t group_total,
               std::string *first_bad)
{
    if (group_size == 0 || balances.size() % group_size != 0)
        throw std::invalid_argument("checkGroupSums: ragged groups");
    std::size_t bad = 0;
    for (std::size_t g = 0; g < balances.size() / group_size; ++g) {
        std::int64_t sum = 0;
        for (std::size_t i = 0; i < group_size; ++i)
            sum += balances[g * group_size + i];
        if (sum == group_total)
            continue;
        if (bad++ == 0 && first_bad != nullptr)
            *first_bad = "group " + std::to_string(g) + " sums to " +
                         std::to_string(sum) + ", expected " +
                         std::to_string(group_total);
    }
    return bad;
}

} // namespace perfbench

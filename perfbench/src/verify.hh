/**
 * @file
 * Result checkers shared by the workloads: the last acknowledged
 * value per key (kv_wire, pjo_heap) and conserved group sums
 * (transfer_wire). They compare what a store returned against what
 * the clients were told was durable; they never read the store
 * themselves, so a test can feed them a broken store's answers.
 */

#ifndef PERFBENCH_VERIFY_HH
#define PERFBENCH_VERIFY_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** Expected value of every key in [0, keys): the preload value until
 * a write to it is acknowledged, then the last acknowledged one.
 * Writers of distinct keys may call ack() concurrently. */
class AckLog
{
  public:
    AckLog(std::size_t keys, std::int64_t (*initial)(std::int64_t key));

    std::size_t keys() const { return expect_.size(); }

    void ack(std::int64_t key, std::int64_t value);
    std::int64_t expected(std::int64_t key) const;

    /** Compare @p observed (index = key; nullopt = key missing)
     * with the log. Returns the number of wrong keys and describes
     * the first in @p first_bad. */
    std::size_t check(const std::vector<std::optional<std::int64_t>> &observed,
                      std::string *first_bad) const;

  private:
    std::vector<std::int64_t> expect_;
};

/** Conservation check: every group of @p group_size consecutive
 * balances sums to @p group_total. Returns the number of groups
 * that do not and describes the first. */
std::size_t checkGroupSums(const std::vector<std::int64_t> &balances,
                           std::size_t group_size,
                           std::int64_t group_total,
                           std::string *first_bad);

} // namespace perfbench

#endif // PERFBENCH_VERIFY_HH

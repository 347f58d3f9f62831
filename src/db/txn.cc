/**
 * @file
 * db::Txn handle plumbing (the engine lives in database.cc /
 * sharded_database.cc; the handle finishes its session through the
 * owner it was minted by).
 */

#include "db/txn.hh"

#include "db/database.hh"
#include "db/sharded_database.hh"
#include "nvm/crash_injector.hh"

namespace espresso {
namespace db {

Txn::~Txn()
{
    abandon();
}

Status
Txn::commit()
{
    return finish(true);
}

Status
Txn::rollback()
{
    return finish(false);
}

Status
Txn::finish(bool commit)
{
    Status s = Status::make(StatusCode::kMisuse,
                            "db: empty transaction handle");
    if (db_ != nullptr)
        s = commit ? db_->commitDetached(id_) : db_->rollbackDetached(id_);
    else if (sdb_ != nullptr)
        s = commit ? sdb_->commitDetached(id_)
                   : sdb_->rollbackDetached(id_);
    if (s.code() != StatusCode::kMisuse) {
        db_ = nullptr;
        sdb_ = nullptr;
    }
    return s;
}

void
Txn::abandon() noexcept
{
    // Consumes an engine-side abort too; a kMisuse result (stale
    // handle) is fine to drop. Once the power is gone every device
    // event throws again, so rollback is left to crash() recovery.
    bool power_lost = db_ != nullptr ? db_->powerLost()
                                     : sdb_ != nullptr && sdb_->powerLost();
    try {
        if (!power_lost)
            (void)finish(false);
    } catch (const SimulatedCrash &) {
        // The power failed during this rollback; the same holds.
    }
    db_ = nullptr;
    sdb_ = nullptr;
}

} // namespace db
} // namespace espresso

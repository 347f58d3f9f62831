/**
 * @file
 * db::Txn handle plumbing (the engine lives in database.cc /
 * sharded_database.cc; the handle just routes to the owner it was
 * minted by).
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
        s = db_->finishHandle(seq_, commit);
    else if (sdb_ != nullptr)
        s = sdb_->finishHandle(seq_, commit);
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
    try {
        if (db_ != nullptr && !db_->powerLost())
            (void)db_->finishHandle(seq_, false);
        else if (sdb_ != nullptr && !sdb_->powerLost())
            (void)sdb_->finishHandle(seq_, false);
    } catch (const SimulatedCrash &) {
        // The power failed during this rollback; the same holds.
    }
    db_ = nullptr;
    sdb_ = nullptr;
}

} // namespace db
} // namespace espresso

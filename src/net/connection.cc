#include "net/connection.hh"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "db/sharded_database.hh"
#include "db/wal.hh"

namespace espresso {
namespace net {

namespace {

WireStatus
mapCode(db::StatusCode c)
{
    switch (c) {
    case db::StatusCode::kOk:
        return WireStatus::kOk;
    case db::StatusCode::kWalFull:
        return WireStatus::kWalFull;
    case db::StatusCode::kDeadlock:
        return WireStatus::kDeadlock;
    case db::StatusCode::kConflict:
        return WireStatus::kConflict;
    case db::StatusCode::kMisuse:
        return WireStatus::kMisuse;
    case db::StatusCode::kAborted:
        return WireStatus::kAborted;
    case db::StatusCode::kBusy:
        return WireStatus::kBusy;
    }
    return WireStatus::kError;
}

} // namespace

Connection::Connection(Server *srv, EventLoop *loop, unsigned worker,
                       UniqueFd fd, std::uint64_t id)
    : srv_(srv), db_(srv->db_), loop_(loop), worker_(worker),
      fd_(std::move(fd)), id_(id),
      // A full-size response frame must fit an *empty* ring or it
      // could never drain; a slow reader still overflows on the
      // second one.
      wbuf_(std::max(srv->cfg_.writeBufBytes,
                     kMaxPayload + kWireHeaderBytes + 4096))
{}

Connection::~Connection() = default;

void
Connection::start()
{
    interest_ = EPOLLIN;
    auto self = shared_from_this();
    loop_->add(fd_.get(), interest_, [self](std::uint32_t ev) {
        self->onEvents(ev);
    });
}

void
Connection::onEvents(std::uint32_t ev)
{
    if (closed_)
        return;
    if (ev & (EPOLLERR | EPOLLHUP)) {
        close();
        return;
    }
    if (ev & EPOLLOUT) {
        flushWrite();
        if (!closed_)
            updateInterest();
    }
    if (closed_)
        return;
    if (ev & EPOLLIN)
        readable();
}

void
Connection::readable()
{
    const std::size_t chunk = srv_->cfg_.readBufBytes;
    for (;;) {
        std::size_t old = rbuf_.size();
        rbuf_.resize(old + chunk);
        ssize_t n = ::read(fd_.get(), rbuf_.data() + old, chunk);
        if (n > 0) {
            rbuf_.resize(old + static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < chunk)
                break;
            // Bound the unparsed backlog; level-triggered epoll
            // re-delivers what we leave in the kernel.
            if (rbuf_.size() - rhead_ >
                kMaxPayload + kWireHeaderBytes + chunk)
                break;
            continue;
        }
        rbuf_.resize(old);
        if (n == 0) {
            close();
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        close();
        return;
    }
    processBuffer();
}

void
Connection::processBuffer()
{
    // A commit that completes inline resumes from inside execFrame;
    // the loop below is already running and picks the pipeline up.
    if (parsing_)
        return;
    parsing_ = true;
    while (!closed_ && !paused_) {
        FrameView f;
        ParseResult pr = tryParseFrame(rbuf_.data() + rhead_,
                                       rbuf_.size() - rhead_, &f);
        if (pr == ParseResult::kNeedMore)
            break;
        if (pr != ParseResult::kFrame) {
            // Corrupt framing: the stream can't be resynchronized.
            srv_->stats_.protocolErrors.fetch_add(
                1, std::memory_order_relaxed);
            parsing_ = false;
            close();
            return;
        }
        srv_->stats_.frames.fetch_add(1, std::memory_order_relaxed);
        execFrame(f);
        if (closed_) {
            parsing_ = false;
            return;
        }
        rhead_ += f.frameBytes();
    }
    parsing_ = false;
    if (rhead_ > 0 &&
        (rhead_ == rbuf_.size() || rhead_ >= srv_->cfg_.readBufBytes)) {
        rbuf_.erase(rbuf_.begin(),
                    rbuf_.begin() +
                        static_cast<std::ptrdiff_t>(rhead_));
        rhead_ = 0;
    }
    updateInterest();
}

void
Connection::execFrame(const FrameView &f)
{
    SlotPtr slot = pushSlot();
    WireReader r(f);
    switch (f.op) {
    case WireOp::kPing:
        fillSimple(slot, f.op, WireStatus::kOk);
        return;
    case WireOp::kCreateTable:
        opCreateTable(r, slot);
        return;
    case WireOp::kGet:
    case WireOp::kScanEq:
    case WireOp::kRowCount:
        opRead(f.op, r, slot);
        return;
    case WireOp::kPut:
    case WireOp::kInsert:
    case WireOp::kUpdate:
    case WireOp::kDel:
        opWrite(f.op, r, slot);
        return;
    case WireOp::kBegin:
        opBegin(r, slot);
        return;
    case WireOp::kCommit:
    case WireOp::kRollback:
        opFinishTxn(f.op, slot);
        return;
    }
    // Unknown opcode in a well-formed frame: answer, keep the
    // stream.
    fillSimple(slot, f.op, WireStatus::kBadRequest);
}

void
Connection::opCreateTable(WireReader &r, const SlotPtr &slot)
{
    db::TableSchema schema;
    schema.name = r.getStr();
    std::uint16_t pk_col = r.getU16();
    std::uint16_t idx_col = r.getU16();
    std::uint16_t ncols = r.getU16();
    if (!r.ok() || ncols == 0 || ncols > db::Catalog::kMaxColumns) {
        fillSimple(slot, WireOp::kCreateTable, WireStatus::kBadRequest);
        return;
    }
    for (std::uint16_t i = 0; i < ncols; ++i) {
        db::ColumnDef col;
        col.name = r.getStr();
        std::uint8_t type = r.getU8();
        if (!r.ok() || type > static_cast<std::uint8_t>(
                                  db::DbType::kStr)) {
            fillSimple(slot, WireOp::kCreateTable,
                       WireStatus::kBadRequest);
            return;
        }
        col.type = static_cast<db::DbType>(type);
        schema.columns.push_back(std::move(col));
    }
    if (!r.atEnd() || pk_col >= ncols) {
        fillSimple(slot, WireOp::kCreateTable, WireStatus::kBadRequest);
        return;
    }
    schema.pkColumn = pk_col;
    schema.indexColumn = idx_col == 0xffff
                             ? db::TableSchema::kNoIndex
                             : idx_col;
    try {
        db_->createTable(schema);
        fillSimple(slot, WireOp::kCreateTable, WireStatus::kOk);
    } catch (const std::exception &) {
        fillSimple(slot, WireOp::kCreateTable, WireStatus::kError);
    }
}

void
Connection::opRead(WireOp op, WireReader &r, const SlotPtr &slot)
{
    std::string table = r.getStr();
    std::int64_t pk = 0;
    std::string column;
    db::DbValue needle;
    if (op == WireOp::kGet)
        pk = r.getI64();
    else if (op == WireOp::kScanEq) {
        column = r.getStr();
        needle = r.getValue();
    }
    if (!r.ok() || !r.atEnd()) {
        fillSimple(slot, op, WireStatus::kBadRequest);
        return;
    }
    if (txnId_ != 0) {
        if (txnDead_) {
            fillSimple(slot, op, WireStatus::kAborted);
            return;
        }
        if (!db_->bindDetached(txnId_)) {
            fillSimple(slot, op, WireStatus::kMisuse);
            return;
        }
    }
    WireWriter w;
    WireStatus st = WireStatus::kOk;
    bool have_payload = false;
    try {
        switch (op) {
        case WireOp::kGet: {
            db::DbRecord rec;
            if (db_->fetchRecord(table, pk, &rec)) {
                w.begin(op, static_cast<std::uint16_t>(WireStatus::kOk));
                w.putRow(rec.values);
                w.finish();
                have_payload = true;
            } else {
                st = WireStatus::kNotFound;
            }
            break;
        }
        case WireOp::kScanEq: {
            w.begin(op, static_cast<std::uint16_t>(WireStatus::kOk));
            std::size_t count_at = w.size();
            w.putU32(0);
            std::uint32_t n = 0;
            db_->scanEq(table, column, needle,
                        [&](const std::vector<db::DbValue> &row) {
                            w.putRow(row);
                            ++n;
                        });
            w.patchU32(count_at, n);
            w.finish();
            if (w.size() > kMaxPayload + kWireHeaderBytes) {
                st = WireStatus::kError; // result exceeds a frame
            } else {
                have_payload = true;
            }
            break;
        }
        default: { // kRowCount
            std::size_t rows = db_->rowCount(table);
            w.begin(op, static_cast<std::uint16_t>(WireStatus::kOk));
            w.putU64(rows);
            w.finish();
            have_payload = true;
            break;
        }
        }
    } catch (const db::TxnAbortError &e) {
        st = mapCode(e.code());
        if (txnId_ != 0)
            txnDead_ = true;
    } catch (const std::exception &) {
        st = WireStatus::kError;
    }
    if (txnId_ != 0)
        db_->unbindDetached(txnId_);
    if (have_payload)
        fillPayload(slot, std::move(w));
    else
        fillSimple(slot, op, st);
}

void
Connection::opWrite(WireOp op, WireReader &r, const SlotPtr &slot)
{
    std::string table = r.getStr();
    db::DbRecord rec;
    std::int64_t pk = 0;
    if (op == WireOp::kDel) {
        pk = r.getI64();
    } else {
        rec.dirtyMask = r.getU64();
        rec.values = r.getRow();
    }
    if (!r.ok() || !r.atEnd()) {
        fillSimple(slot, op, WireStatus::kBadRequest);
        return;
    }
    if (op != WireOp::kDel) {
        const db::TableSchema *schema = db_->catalog().find(table);
        if (schema == nullptr) {
            fillSimple(slot, op, WireStatus::kError);
            return;
        }
        if (rec.values.size() != schema->columns.size() ||
            rec.values[schema->pkColumn].type != db::DbType::kI64) {
            fillSimple(slot, op, WireStatus::kBadRequest);
            return;
        }
    }

    // One path for both modes: the statement runs in the connection's
    // open bracket, or auto-commits as a one-statement bracket of its
    // own.
    const bool own = txnId_ == 0;
    std::uint64_t bid = txnId_;
    WireStatus st = WireStatus::kOk;
    if (own) {
        if (!srv_->admit(worker_)) {
            srv_->stats_.admissionRejects.fetch_add(
                1, std::memory_order_relaxed);
            fillSimple(slot, op, WireStatus::kBusy);
            return;
        }
        st = mapCode(db_->beginDetached({}, &bid).code());
    } else if (txnDead_) {
        st = WireStatus::kAborted;
    }
    std::uint8_t flag = 0;
    if (st == WireStatus::kOk && !db_->bindDetached(bid)) {
        st = WireStatus::kMisuse;
    } else if (st == WireStatus::kOk) {
        try {
            switch (op) {
            case WireOp::kPut:
            case WireOp::kInsert:
                db_->persistRecord(table, rec);
                flag = 1;
                break;
            case WireOp::kUpdate:
                flag = db_->updateRecord(table, rec) ? 1 : 0;
                break;
            default: // kDel
                flag = db_->deleteRecord(table, pk) ? 1 : 0;
                break;
            }
        } catch (const db::TxnAbortError &e) {
            st = mapCode(e.code());
            txnDead_ = !own; // the engine killed the bracket
        } catch (const db::WalFullError &) {
            st = WireStatus::kWalFull;
            txnDead_ = !own;
        } catch (const std::exception &) {
            st = WireStatus::kError; // statement failed; bracket lives
        }
        db_->unbindDetached(bid);
    }
    if (!own) {
        // Durability is the explicit commit's contract.
        fillWrite(slot, op, st, flag);
        return;
    }
    if (st != WireStatus::kOk) {
        if (bid != 0)
            (void)db_->rollbackDetached(bid);
        srv_->noteWorkDone(worker_);
        if (st == WireStatus::kBusy)
            srv_->stats_.admissionRejects.fetch_add(
                1, std::memory_order_relaxed);
        fillSimple(slot, op, st);
        return;
    }
    // Pipelining: the row mutation is already visible to this
    // connection's next frame; the commit parks in the member's
    // group-commit drainer, where concurrent connections' fences
    // coalesce, and the response completes from there in slot order.
    auto self = shared_from_this();
    db_->commitDetachedAsync(
        bid, [this, self, slot, op, flag](db::Status s) {
            loop_->post([this, self, slot, op, flag, s] {
                srv_->noteWorkDone(worker_);
                if (closed_)
                    return;
                if (s.isOk())
                    srv_->stats_.txnsCommitted.fetch_add(
                        1, std::memory_order_relaxed);
                fillWrite(slot, op, mapCode(s.code()), flag);
                updateInterest();
            });
        });
}

void
Connection::opBegin(WireReader &r, const SlotPtr &slot)
{
    std::uint8_t iso = r.getU8();
    if (!r.ok() || !r.atEnd() || iso > 1) {
        fillSimple(slot, WireOp::kBegin, WireStatus::kBadRequest);
        return;
    }
    if (txnId_ != 0) {
        fillSimple(slot, WireOp::kBegin, WireStatus::kMisuse);
        return;
    }
    db::TxnOptions opts;
    opts.isolation = iso == 1 ? db::Isolation::kSnapshot
                              : db::Isolation::kReadUncommitted;
    std::uint64_t bid = 0;
    db::Status s = db_->beginDetached(opts, &bid);
    if (!s.isOk()) {
        srv_->stats_.admissionRejects.fetch_add(
            1, std::memory_order_relaxed);
        fillSimple(slot, WireOp::kBegin, mapCode(s.code()));
        return;
    }
    txnId_ = bid;
    txnDead_ = false;
    WireWriter w;
    w.begin(WireOp::kBegin,
            static_cast<std::uint16_t>(WireStatus::kOk));
    w.putU64(bid);
    w.finish();
    fillPayload(slot, std::move(w));
}

void
Connection::opFinishTxn(WireOp op, const SlotPtr &slot)
{
    if (txnId_ == 0) {
        fillSimple(slot, op, WireStatus::kMisuse);
        return;
    }
    if (!srv_->admit(worker_)) {
        srv_->stats_.admissionRejects.fetch_add(
            1, std::memory_order_relaxed);
        fillSimple(slot, op, WireStatus::kBusy);
        return;
    }
    // The engine owns the bracket from here, whatever the outcome: a
    // disconnect meanwhile has nothing to roll back. The connection
    // stays paused until the finish completes, so the client's next
    // transaction begins after this one's commit point.
    std::uint64_t bid = txnId_;
    txnId_ = 0;
    txnDead_ = false;
    paused_ = true;
    updateInterest();
    auto self = shared_from_this();
    auto done = [this, self, op, slot](WireStatus st) {
        if (st == WireStatus::kOk && op == WireOp::kCommit)
            srv_->stats_.txnsCommitted.fetch_add(
                1, std::memory_order_relaxed);
        else
            srv_->stats_.txnsAborted.fetch_add(
                1, std::memory_order_relaxed);
        loop_->post(
            [this, self, op, slot, st] { resumeAfter(op, slot, st); });
    };
    if (op == WireOp::kCommit) {
        // Blocks no thread: the engine's commit chain runs on the
        // members' group-commit drainers (or completes inline for a
        // read-only or engine-aborted bracket).
        db_->commitDetachedAsync(bid, [done](db::Status s) {
            done(mapCode(s.code()));
        });
        return;
    }
    // A rollback restores undo images under fences: it runs on the
    // committer pool, off the worker.
    auto db = db_;
    srv_->submitJob([db, bid, done] {
        WireStatus st = WireStatus::kError;
        try {
            st = mapCode(db->rollbackDetached(bid).code());
        } catch (const std::exception &) {
        }
        done(st);
    });
}

void
Connection::resumeAfter(WireOp op, const SlotPtr &slot, WireStatus st)
{
    srv_->noteWorkDone(worker_);
    if (closed_)
        return;
    paused_ = false;
    fillSimple(slot, op, st);
    if (closed_)
        return;
    processBuffer(); // resume the pipeline
}

void
Connection::fillWrite(const SlotPtr &slot, WireOp op, WireStatus st,
                      std::uint8_t flag)
{
    if (st != WireStatus::kOk ||
        (op != WireOp::kUpdate && op != WireOp::kDel)) {
        fillSimple(slot, op, st);
        return;
    }
    WireWriter w;
    w.begin(op, static_cast<std::uint16_t>(st));
    w.putU8(flag);
    w.finish();
    fillPayload(slot, std::move(w));
}

Connection::SlotPtr
Connection::pushSlot()
{
    SlotPtr slot = std::make_shared<Slot>();
    slots_.push_back(slot);
    return slot;
}

void
Connection::fillSimple(const SlotPtr &slot, WireOp op, WireStatus st)
{
    WireWriter w;
    w.begin(op, static_cast<std::uint16_t>(st));
    w.finish();
    fillPayload(slot, std::move(w));
}

void
Connection::fillPayload(const SlotPtr &slot, WireWriter &&w)
{
    slot->bytes = w.bytes();
    slot->ready = true;
    flushSlots();
}

void
Connection::flushSlots()
{
    if (closed_)
        return;
    while (!slots_.empty() && slots_.front()->ready) {
        Slot &s = *slots_.front();
        if (!wbuf_.write(s.bytes.data(), s.bytes.size())) {
            flushWrite();
            if (closed_)
                return;
            if (!wbuf_.write(s.bytes.data(), s.bytes.size())) {
                // Slow reader: bounded buffering, then hang up.
                close(true);
                return;
            }
        }
        slots_.pop_front();
    }
    flushWrite();
}

void
Connection::flushWrite()
{
    while (!closed_ && !wbuf_.empty()) {
        std::pair<const std::uint8_t *, std::size_t> span =
            wbuf_.peek();
        // MSG_NOSIGNAL: a hung-up peer is a close, not a SIGPIPE.
        ssize_t n = ::send(fd_.get(), span.first, span.second,
                           MSG_NOSIGNAL);
        if (n > 0) {
            wbuf_.consume(static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        close();
        return;
    }
    updateInterest();
}

void
Connection::updateInterest()
{
    if (closed_)
        return;
    std::uint32_t want = 0;
    if (!paused_ && slots_.size() < srv_->cfg_.queueDepth)
        want |= EPOLLIN;
    if (!wbuf_.empty())
        want |= EPOLLOUT;
    if (want != interest_) {
        loop_->mod(fd_.get(), want);
        interest_ = want;
    }
}

void
Connection::close(bool overflow)
{
    if (closed_)
        return;
    closed_ = true;
    if (overflow)
        srv_->stats_.overflowDisconnects.fetch_add(
            1, std::memory_order_relaxed);
    srv_->stats_.closed.fetch_add(1, std::memory_order_relaxed);
    if (fd_.valid()) {
        loop_->del(fd_.get());
        fd_.reset();
    }
    slots_.clear();
    rbuf_.clear();
    rhead_ = 0;
    if (txnId_ != 0) {
        // Mid-transaction disconnect: roll the parked bracket back
        // on the pool so its WAL shard tokens and row locks free
        // even though the client is gone.
        std::uint64_t bid = txnId_;
        txnId_ = 0;
        srv_->forceAdmit(worker_);
        auto *srv = srv_;
        auto db = db_;
        unsigned worker = worker_;
        srv_->submitJob([srv, db, bid, worker]() {
            (void)db->rollbackDetached(bid);
            srv->stats_.txnsAborted.fetch_add(
                1, std::memory_order_relaxed);
            srv->noteWorkDone(worker);
        });
    }
    srv_->connectionClosed(id_);
}

} // namespace net
} // namespace espresso

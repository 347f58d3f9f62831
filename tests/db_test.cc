/**
 * @file
 * Mini-H2 tests: value/slot/SQL-literal codecs, lexer and parser,
 * CRUD through both ingress paths, transactions, WAL crash recovery,
 * catalog persistence, and the PR 6 surface — explicit Txn handles
 * with unified Status codes, snapshot isolation (single-engine and
 * cross-shard), first-committer-wins conflicts, and deadlock
 * detection.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "db/database.hh"
#include "db/sharded_database.hh"
#include "db/sql_lexer.hh"
#include "db/sql_parser.hh"
#include "db/wal.hh"
#include "runtime/oop.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace espresso {
namespace db {
namespace {

TEST(ValueCodecTest, SlotRoundTrip)
{
    std::uint8_t slot[kValueSlotBytes];
    for (const DbValue &v :
         {DbValue::null(), DbValue::ofI64(-42),
          DbValue::ofF64(3.25), DbValue::ofStr("hello 'world'"),
          DbValue::ofStr("")}) {
        encodeValueSlot(slot, v);
        EXPECT_TRUE(decodeValueSlot(slot) == v);
    }
    EXPECT_THROW(
        encodeValueSlot(slot, DbValue::ofStr(std::string(60, 'x'))),
        FatalError);
}

TEST(ValueCodecTest, SqlLiteralsEscape)
{
    EXPECT_EQ(toSqlLiteral(DbValue::ofI64(7)), "7");
    EXPECT_EQ(toSqlLiteral(DbValue::null()), "NULL");
    EXPECT_EQ(toSqlLiteral(DbValue::ofStr("o'clock")), "'o''clock'");
}

TEST(SqlLexerTest, TokenKinds)
{
    auto toks = tokenizeSql("SELECT a, b FROM t WHERE x = -3.5");
    ASSERT_GE(toks.size(), 10u);
    EXPECT_EQ(toks[0].kind, TokKind::kIdent);
    EXPECT_EQ(toks[0].text, "SELECT");
    EXPECT_EQ(toks[2].punct, ',');
    auto &last = toks[toks.size() - 2];
    EXPECT_EQ(last.kind, TokKind::kFloat);
    EXPECT_DOUBLE_EQ(last.d, -3.5);
    EXPECT_THROW(tokenizeSql("SELECT 'oops"), FatalError);
}

TEST(SqlParserTest, ParsesAllStatements)
{
    SqlStatement create = parseSql(
        "CREATE TABLE T (ID BIGINT PRIMARY KEY, NAME VARCHAR)");
    EXPECT_EQ(create.kind, SqlStatement::Kind::kCreateTable);
    EXPECT_EQ(create.schema.columns.size(), 2u);
    EXPECT_EQ(create.schema.pkColumn, 0u);

    SqlStatement insert = parseSql(
        "INSERT INTO T (ID, NAME) VALUES (1, 'it''s')");
    EXPECT_EQ(insert.insertValues[1].s, "it's");

    SqlStatement select = parseSql("SELECT * FROM T WHERE ID = 1");
    EXPECT_TRUE(select.selectAll);
    EXPECT_TRUE(select.hasWhere);
    EXPECT_EQ(select.whereValue.i, 1);

    SqlStatement update =
        parseSql("UPDATE T SET NAME = 'x' WHERE ID = 2");
    EXPECT_EQ(update.assignments.size(), 1u);

    SqlStatement del = parseSql("DELETE FROM T WHERE ID = 3");
    EXPECT_EQ(del.kind, SqlStatement::Kind::kDelete);

    EXPECT_THROW(parseSql("DROP TABLE T"), FatalError);
    EXPECT_THROW(parseSql("UPDATE T SET NAME = 'x'"), FatalError);
}

class DatabaseTest : public ::testing::Test
{
  protected:
    DatabaseTest()
    {
        DatabaseConfig cfg;
        cfg.rowRegionSize = 8u << 20;
        cfg.rowsPerTable = 512;
        db_ = std::make_unique<Database>(cfg);
        db_->executeSql("CREATE TABLE PERSON (ID BIGINT PRIMARY KEY, "
                        "NAME VARCHAR, AGE BIGINT)");
    }

    std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, SqlCrudRoundTrip)
{
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (1, 'Ann', 30)");
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (2, 'Bob', 40)");

    ResultSet rs = db_->executeSql("SELECT * FROM PERSON WHERE ID = 1");
    ASSERT_EQ(rs.rows.size(), 1u);
    EXPECT_EQ(rs.rows[0][1].s, "Ann");
    EXPECT_EQ(rs.rows[0][2].i, 30);

    db_->executeSql("UPDATE PERSON SET AGE = 31 WHERE ID = 1");
    rs = db_->executeSql("SELECT AGE FROM PERSON WHERE ID = 1");
    EXPECT_EQ(rs.rows[0][0].i, 31);

    ResultSet all = db_->executeSql("SELECT * FROM PERSON");
    EXPECT_EQ(all.rows.size(), 2u);

    db_->executeSql("DELETE FROM PERSON WHERE ID = 2");
    EXPECT_EQ(db_->rowCount("PERSON"), 1u);

    EXPECT_THROW(db_->executeSql(
                     "INSERT INTO PERSON (ID, NAME, AGE) VALUES "
                     "(1, 'dup', 0)"),
                 FatalError);
}

TEST_F(DatabaseTest, DirectRecordPathMatchesSqlPath)
{
    DbRecord rec;
    rec.values = {DbValue::ofI64(5), DbValue::ofStr("Eve"),
                  DbValue::ofI64(25)};
    db_->persistRecord("PERSON", rec);

    ResultSet rs = db_->executeSql("SELECT * FROM PERSON WHERE ID = 5");
    ASSERT_EQ(rs.rows.size(), 1u);
    EXPECT_EQ(rs.rows[0][1].s, "Eve");

    // Masked update: only AGE.
    DbRecord up;
    up.values = {DbValue::ofI64(5), DbValue::ofStr("IGNORED"),
                 DbValue::ofI64(26)};
    up.dirtyMask = 1ull << 2;
    db_->persistRecord("PERSON", up);
    DbRecord out;
    ASSERT_TRUE(db_->fetchRecord("PERSON", 5, &out));
    EXPECT_EQ(out.values[1].s, "Eve"); // untouched
    EXPECT_EQ(out.values[2].i, 26);

    EXPECT_TRUE(db_->deleteRecord("PERSON", 5));
    EXPECT_FALSE(db_->fetchRecord("PERSON", 5, &out));
}

TEST_F(DatabaseTest, ScanEq)
{
    for (int i = 0; i < 20; ++i) {
        DbRecord rec;
        rec.values = {DbValue::ofI64(i),
                      DbValue::ofStr(i % 2 ? "odd" : "even"),
                      DbValue::ofI64(i)};
        db_->persistRecord("PERSON", rec);
    }
    int odd = 0;
    db_->scanEq("PERSON", "NAME", DbValue::ofStr("odd"),
                [&](const std::vector<DbValue> &) { ++odd; });
    EXPECT_EQ(odd, 10);
}

TEST_F(DatabaseTest, ExplicitTransactionRollback)
{
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (1, 'Ann', 30)");
    Txn t = db_->beginTxn();
    db_->executeSql("UPDATE PERSON SET AGE = 99 WHERE ID = 1");
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (2, 'Tmp', 0)");
    EXPECT_TRUE(t.rollback().isOk());

    ResultSet rs = db_->executeSql("SELECT AGE FROM PERSON WHERE ID = 1");
    EXPECT_EQ(rs.rows[0][0].i, 30);
    EXPECT_EQ(db_->rowCount("PERSON"), 1u);
}

TEST_F(DatabaseTest, CommittedDataSurvivesCrash)
{
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (1, 'Ann', 30)");
    db_->crash();
    ResultSet rs = db_->executeSql("SELECT * FROM PERSON WHERE ID = 1");
    ASSERT_EQ(rs.rows.size(), 1u);
    EXPECT_EQ(rs.rows[0][1].s, "Ann");
    // Schema survived too (catalog reload).
    EXPECT_EQ(db_->catalog().tables().size(), 1u);
}

TEST_F(DatabaseTest, OpenTransactionRollsBackAcrossCrash)
{
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (1, 'Ann', 30)");
    {
        Txn t = db_->beginTxn();
        db_->executeSql("UPDATE PERSON SET AGE = 99 WHERE ID = 1");
        db_->crash(); // commit never happened; the handle is stale
    }

    ResultSet rs = db_->executeSql("SELECT AGE FROM PERSON WHERE ID = 1");
    ASSERT_EQ(rs.rows.size(), 1u);
    EXPECT_EQ(rs.rows[0][0].i, 30);
}

TEST_F(DatabaseTest, WalDedupSkipsRepeatedRanges)
{
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (1, 'Ann', 30)");
    Txn t = db_->beginTxn();
    db_->executeSql("UPDATE PERSON SET AGE = 1 WHERE ID = 1");
    WalShard &shard = db_->wal().shard(db_->currentTxShard());
    std::size_t used_after_first = shard.bytesUsed();
    std::size_t count_after_first = shard.entryCount();
    ASSERT_GT(used_after_first, 0u);
    for (int i = 2; i <= 50; ++i) {
        db_->executeSql("UPDATE PERSON SET AGE = " + std::to_string(i) +
                        " WHERE ID = 1");
    }
    // Hot-row rewrites must not re-log the same old image.
    EXPECT_EQ(shard.bytesUsed(), used_after_first);
    EXPECT_EQ(shard.entryCount(), count_after_first);
    EXPECT_TRUE(t.commit().isOk());
    ResultSet rs = db_->executeSql("SELECT AGE FROM PERSON WHERE ID = 1");
    EXPECT_EQ(rs.rows[0][0].i, 50);

    // ... and rollback restores the pre-transaction image, not an
    // intermediate one.
    Txn r = db_->beginTxn();
    db_->executeSql("UPDATE PERSON SET AGE = 98 WHERE ID = 1");
    db_->executeSql("UPDATE PERSON SET AGE = 99 WHERE ID = 1");
    EXPECT_TRUE(r.rollback().isOk());
    rs = db_->executeSql("SELECT AGE FROM PERSON WHERE ID = 1");
    EXPECT_EQ(rs.rows[0][0].i, 50);
}

TEST(WalRecoveryTest, LogFullRollsBackRecoverably)
{
    DatabaseConfig cfg;
    cfg.rowRegionSize = 2u << 20;
    cfg.rowsPerTable = 128;
    cfg.walSize = 4096; // tiny: a few row images fill a segment
    cfg.walShards = 1;
    Database db(cfg);
    db.executeSql("CREATE TABLE T (ID BIGINT PRIMARY KEY, V BIGINT)");
    for (int i = 0; i < 64; ++i)
        db.executeSql("INSERT INTO T (ID, V) VALUES (" +
                      std::to_string(i) + ", 0)");

    // A transaction touching more rows than the segment holds must
    // roll back — and the process (and database) must survive.
    Txn t = db.beginTxn();
    bool full = false;
    for (int i = 0; i < 64 && !full; ++i) {
        try {
            db.executeSql("UPDATE T SET V = 1 WHERE ID = " +
                          std::to_string(i));
        } catch (const FatalError &) {
            full = true;
        }
    }
    ASSERT_TRUE(full);
    // The engine rolled the transaction back itself and released its
    // WAL shard; rollback() of the dead transaction is a quiet no-op.
    EXPECT_EQ(db.busyWalShards(), 0u);
    EXPECT_TRUE(t.rollback().isOk());

    // commit() of a transaction the engine killed reports why.
    Txn t2 = db.beginTxn();
    EXPECT_THROW(
        {
            db.executeSql("UPDATE T SET V = 2 WHERE ID = 0");
            // Refill the segment to force another mid-txn abort.
            for (int i = 1; i < 64; ++i)
                db.executeSql("UPDATE T SET V = 2 WHERE ID = " +
                              std::to_string(i));
        },
        FatalError);
    EXPECT_EQ(db.busyWalShards(), 0u);
    EXPECT_EQ(t2.commit().code(), StatusCode::kWalFull);

    // Every update the failed transactions made was undone.
    ResultSet rs = db.executeSql("SELECT * FROM T");
    ASSERT_EQ(rs.rows.size(), 64u);
    for (const auto &row : rs.rows)
        EXPECT_EQ(row[1].i, 0) << "row " << row[0].i;

    // The database stays fully usable.
    db.executeSql("INSERT INTO T (ID, V) VALUES (1000, 7)");
    EXPECT_EQ(db.rowCount("T"), 65u);
    Txn t3 = db.beginTxn();
    db.executeSql("UPDATE T SET V = 3 WHERE ID = 0");
    EXPECT_TRUE(t3.commit().isOk());
    rs = db.executeSql("SELECT V FROM T WHERE ID = 0");
    EXPECT_EQ(rs.rows[0][0].i, 3);
}

TEST(WalRecoveryTest, CorruptHeaderIsDiscardedNotWalked)
{
    setWarningsEnabled(false);
    NvmDevice dev(1u << 20);
    Addr data = dev.toAddr(512 * 1024);
    for (int i = 0; i < 64; ++i)
        *reinterpret_cast<std::uint8_t *>(data + i) = 0xAA;
    dev.persist(data, 64);

    Wal wal(&dev, dev.toAddr(0), 64 * 1024, 4);
    WalShard &shard = wal.shard(0);
    shard.begin();
    shard.logRange(data, 64);
    for (int i = 0; i < 64; ++i)
        *reinterpret_cast<std::uint8_t *>(data + i) = 0xBB;
    dev.persist(data, 64);

    // Scribble garbage over the segment header's count/used words
    // (a torn header line) and persist the damage.
    Addr hb = shard.segmentBase();
    storeWord(hb + 8, ~0ull);  // count
    storeWord(hb + 16, ~0ull); // used
    dev.persist(hb, 64);

    // Recovery must neither crash nor walk the garbage...
    wal.recover();
    EXPECT_FALSE(shard.active());
    // ...and must not have "restored" anything from a bogus walk.
    EXPECT_EQ(*reinterpret_cast<std::uint8_t *>(data), 0xBB);

    // The discarded segment is reusable.
    shard.begin();
    shard.logRange(data, 64);
    shard.stageCommit();
    dev.fence();
    shard.stageRetire();
    dev.fence();
    EXPECT_FALSE(shard.active());
    setWarningsEnabled(true);
}

TEST(WalRecoveryTest, TornTailEntryIsSkippedValidPrefixRollsBack)
{
    setWarningsEnabled(false);
    NvmDevice dev(1u << 20);
    Addr r1 = dev.toAddr(512 * 1024);
    Addr r2 = dev.toAddr(512 * 1024 + 4096);
    for (int i = 0; i < 64; ++i) {
        *reinterpret_cast<std::uint8_t *>(r1 + i) = 0x11;
        *reinterpret_cast<std::uint8_t *>(r2 + i) = 0x22;
    }
    dev.persist(r1, 64);
    dev.persist(r2, 64);

    Wal wal(&dev, dev.toAddr(0), 64 * 1024, 1);
    WalShard &shard = wal.shard(0);
    shard.begin();
    shard.logRange(r1, 64);
    shard.logRange(r2, 64);
    for (int i = 0; i < 64; ++i) {
        *reinterpret_cast<std::uint8_t *>(r1 + i) = 0x33;
        *reinterpret_cast<std::uint8_t *>(r2 + i) = 0x44;
    }
    dev.persist(r1, 64);
    dev.persist(r2, 64);

    // Corrupt the tail entry's payload (entry layout: 32-byte fields
    // + 64-byte image; the second entry starts at +96).
    Addr tail_payload = shard.segmentBase() + kCacheLineSize + 96 + 32;
    *reinterpret_cast<std::uint8_t *>(tail_payload + 5) ^= 0xFF;
    dev.persist(tail_payload, 64);

    wal.recover();
    EXPECT_FALSE(shard.active());
    // The valid prefix rolled back; the torn tail was skipped.
    EXPECT_EQ(*reinterpret_cast<std::uint8_t *>(r1), 0x11);
    EXPECT_EQ(*reinterpret_cast<std::uint8_t *>(r2), 0x44);
    setWarningsEnabled(true);
}

TEST_F(DatabaseTest, UncommittedDeleteKeepsPkReserved)
{
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (1, 'Ann', 30)");
    Txn t = db_->beginTxn();
    EXPECT_TRUE(db_->deleteRecord("PERSON", 1));
    DbRecord out;
    EXPECT_FALSE(db_->fetchRecord("PERSON", 1, &out));

    // Another thread's insert of the reserved pk must be refused
    // while the delete is uncommitted — otherwise this rollback
    // would resurrect the old row on top of it.
    std::thread intruder([&]() {
        EXPECT_THROW(db_->executeSql("INSERT INTO PERSON (ID, NAME, "
                                     "AGE) VALUES (1, 'Zoe', 1)"),
                     FatalError);
    });
    intruder.join();

    EXPECT_TRUE(t.rollback().isOk());
    ASSERT_TRUE(db_->fetchRecord("PERSON", 1, &out));
    EXPECT_EQ(out.values[1].s, "Ann");
    EXPECT_EQ(db_->rowCount("PERSON"), 1u);
}

TEST_F(DatabaseTest, DeleteThenReinsertSamePkInOneTransaction)
{
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (1, 'Ann', 30)");

    Txn t = db_->beginTxn();
    EXPECT_TRUE(db_->deleteRecord("PERSON", 1));
    DbRecord rec;
    rec.values = {DbValue::ofI64(1), DbValue::ofStr("Ann2"),
                  DbValue::ofI64(31)};
    db_->persistRecord("PERSON", rec);
    EXPECT_TRUE(t.commit().isOk());

    DbRecord out;
    ASSERT_TRUE(db_->fetchRecord("PERSON", 1, &out));
    EXPECT_EQ(out.values[1].s, "Ann2");
    EXPECT_EQ(db_->rowCount("PERSON"), 1u);

    // The rolled-back variant restores the original row.
    Txn r = db_->beginTxn();
    EXPECT_TRUE(db_->deleteRecord("PERSON", 1));
    rec.values[1] = DbValue::ofStr("Ann3");
    db_->persistRecord("PERSON", rec);
    EXPECT_TRUE(r.rollback().isOk());
    ASSERT_TRUE(db_->fetchRecord("PERSON", 1, &out));
    EXPECT_EQ(out.values[1].s, "Ann2");
    EXPECT_EQ(db_->rowCount("PERSON"), 1u);

    // Durable too.
    db_->crash();
    ASSERT_TRUE(db_->fetchRecord("PERSON", 1, &out));
    EXPECT_EQ(out.values[1].s, "Ann2");
}

TEST(SamePkContentionTest, ConcurrentWritersOnOneKeyStayConsistent)
{
    DatabaseConfig cfg;
    cfg.rowRegionSize = 2u << 20;
    cfg.rowsPerTable = 64;
    cfg.walShards = 8;
    Database db(cfg);
    db.executeSql("CREATE TABLE T (ID BIGINT PRIMARY KEY, V BIGINT)");
    db.executeSql("INSERT INTO T (ID, V) VALUES (7, 0)");

    constexpr int kThreads = 4;
    constexpr int kIters = 60;
    std::atomic<bool> go{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t]() {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (int i = 0; i < kIters; ++i) {
                try {
                    Txn txn = db.beginTxn();
                    Status s;
                    if ((t + i) % 3 == 0) {
                        // delete + re-insert the hot key
                        if (db.deleteRecord("T", 7)) {
                            DbRecord rec;
                            rec.values = {DbValue::ofI64(7),
                                          DbValue::ofI64(t * 1000 + i)};
                            db.persistRecord("T", rec);
                        }
                        s = txn.commit();
                    } else if ((t + i) % 3 == 1) {
                        DbRecord rec;
                        rec.values = {DbValue::ofI64(7),
                                      DbValue::ofI64(t * 1000 + i)};
                        rec.dirtyMask = 1ull << 1;
                        db.persistRecord("T", rec);
                        s = txn.commit();
                    } else {
                        DbRecord rec;
                        rec.values = {DbValue::ofI64(7),
                                      DbValue::ofI64(-1)};
                        rec.dirtyMask = 1ull << 1;
                        db.persistRecord("T", rec);
                        s = txn.rollback();
                    }
                    if (!s.isOk())
                        failures.fetch_add(1);
                } catch (const FatalError &) {
                    // A racing delete may briefly reserve the pk;
                    // the transaction was rolled back for us or the
                    // statement refused (the unwound handle rolled it
                    // back) — both leave the db intact.
                    failures.fetch_add(1);
                }
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (auto &w : workers)
        w.join();

    // Exactly one live row with pk 7, holding one writer's committed
    // value — never a duplicate, never a resurrected ghost.
    EXPECT_EQ(db.rowCount("T"), 1u);
    ResultSet rs = db.executeSql("SELECT * FROM T");
    ASSERT_EQ(rs.rows.size(), 1u);
    EXPECT_EQ(rs.rows[0][0].i, 7);
    db.crash(CrashMode::kEvictRandomLines, 99);
    EXPECT_EQ(db.rowCount("T"), 1u);
    EXPECT_EQ(db.executeSql("SELECT * FROM T").rows.size(), 1u);
}

TEST(GroupCommitTest, ConcurrentCommittersShareOneDrain)
{
    DatabaseConfig cfg;
    cfg.rowRegionSize = 2u << 20;
    cfg.rowsPerTable = 256;
    cfg.walShards = 8;
    // Very generous: determinism first — the quiet period (window/4)
    // must exceed any TSan/CI scheduling hiccup between commits.
    cfg.groupCommitWindowUs = 4000000;
    Database db(cfg);
    db.executeSql("CREATE TABLE T (ID BIGINT PRIMARY KEY, V BIGINT)");

    constexpr int kThreads = 4;
    CommitCoordinator::Stats before = db.commitCoordinator().stats();
    std::atomic<int> staged{0};
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> fences_at_barrier{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t]() {
            Txn txn = db.beginTxn();
            DbRecord rec;
            rec.values = {DbValue::ofI64(t), DbValue::ofI64(100 + t)};
            db.persistRecord("T", rec);
            staged.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            EXPECT_TRUE(txn.commit().isOk());
        });
    }
    while (staged.load() != kThreads)
        std::this_thread::yield();
    fences_at_barrier = db.device().stats().fences.load();
    go.store(true, std::memory_order_release);
    for (auto &w : workers)
        w.join();

    // All K transactions were in flight when the leader formed its
    // batch, so the whole group drained in one cycle: two fences
    // (images, then commit records), regardless of K.
    CommitCoordinator::Stats after = db.commitCoordinator().stats();
    EXPECT_EQ(after.batches - before.batches, 1u);
    EXPECT_EQ(after.maxBatch, static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(db.device().stats().fences.load() - fences_at_barrier,
              2u);

    // ... and all K transactions are durable.
    db.crash(CrashMode::kDiscardUnflushed);
    for (int t = 0; t < kThreads; ++t) {
        ResultSet rs = db.executeSql("SELECT V FROM T WHERE ID = " +
                                     std::to_string(t));
        ASSERT_EQ(rs.rows.size(), 1u) << "txn " << t << " lost";
        EXPECT_EQ(rs.rows[0][0].i, 100 + t);
    }
}

TEST(GroupCommitTest, AutoWindowDegeneratesToEagerWhenUncontended)
{
    DatabaseConfig cfg;
    cfg.rowRegionSize = 2u << 20;
    cfg.rowsPerTable = 256;
    cfg.walShards = 8;
    cfg.groupCommitWindowUs = DatabaseConfig::kWindowAuto;
    Database db(cfg);
    EXPECT_EQ(db.commitCoordinator().windowNs(),
              CommitCoordinator::kAutoWindow);
    db.executeSql("CREATE TABLE T (ID BIGINT PRIMARY KEY, V BIGINT)");

    // Phase 1: one committer. Auto must behave exactly like eager —
    // every commit drains alone, immediately, and the derived window
    // is zero (there is nobody to coalesce with).
    CommitCoordinator::Stats before = db.commitCoordinator().stats();
    constexpr int kSeq = 8;
    for (int i = 0; i < kSeq; ++i) {
        Txn txn = db.beginTxn();
        DbRecord rec;
        rec.values = {DbValue::ofI64(i), DbValue::ofI64(i)};
        db.persistRecord("T", rec);
        EXPECT_TRUE(txn.commit().isOk());
    }
    CommitCoordinator::Stats mid = db.commitCoordinator().stats();
    EXPECT_EQ(mid.txns - before.txns, static_cast<std::uint64_t>(kSeq));
    EXPECT_EQ(mid.batches - before.batches,
              static_cast<std::uint64_t>(kSeq));
    EXPECT_EQ(mid.maxBatch, 1u);
    EXPECT_EQ(db.commitCoordinator().effectiveWindowNs(), 0u);
    EXPECT_EQ(db.commitCoordinator().stats().autoWindowNs, 0u);

    // Phase 2: four in-flight committers parked at a barrier. The
    // EWMA has seen the phase-1 arrival gaps, so with inflight > 1
    // the derived window must open up (and be published in stats).
    constexpr int kThreads = 4;
    std::atomic<int> staged{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t]() {
            Txn txn = db.beginTxn();
            DbRecord rec;
            rec.values = {DbValue::ofI64(100 + t), DbValue::ofI64(t)};
            db.persistRecord("T", rec);
            staged.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            EXPECT_TRUE(txn.commit().isOk());
        });
    }
    while (staged.load() != kThreads)
        std::this_thread::yield();
    EXPECT_GT(db.commitCoordinator().effectiveWindowNs(), 0u);
    EXPECT_GT(db.commitCoordinator().stats().autoWindowNs, 0u);
    EXPECT_LE(db.commitCoordinator().stats().autoWindowNs,
              CommitCoordinator::kAutoMaxWindowNs);
    go.store(true, std::memory_order_release);
    for (auto &w : workers)
        w.join();
    CommitCoordinator::Stats after = db.commitCoordinator().stats();
    EXPECT_EQ(after.txns - mid.txns,
              static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(db.rowCount("T"), static_cast<std::size_t>(kSeq + kThreads));
}

TEST(GroupCommitTest, AutoWindowResolvesFromEnv)
{
    ASSERT_EQ(::setenv("ESPRESSO_DB_GROUP_COMMIT", "auto", 1), 0);
    DatabaseConfig cfg;
    cfg.rowRegionSize = 2u << 20;
    cfg.rowsPerTable = 256;
    {
        Database db(cfg);
        EXPECT_EQ(db.commitCoordinator().windowNs(),
                  CommitCoordinator::kAutoWindow);
    }
    ::unsetenv("ESPRESSO_DB_GROUP_COMMIT");
}

// ---------------------------------------------------------------------
// Detached sessions: the wire front door's transferable transactions
// ---------------------------------------------------------------------

TEST(DetachedSessionTest, BracketTransfersAcrossThreads)
{
    DatabaseConfig cfg;
    cfg.rowRegionSize = 2u << 20;
    cfg.rowsPerTable = 256;
    cfg.walShards = 4;
    cfg.groupCommitWindowUs = 0;
    Database db(cfg);
    db.executeSql("CREATE TABLE T (ID BIGINT PRIMARY KEY, V BIGINT)");

    // Thread A opens the session and stages the first write.
    std::uint64_t sid = 0;
    std::thread a([&]() {
        ASSERT_TRUE(db.beginDetached({}, &sid).isOk());
        ASSERT_TRUE(db.bindDetached(sid));
        DbRecord rec;
        rec.values = {DbValue::ofI64(1), DbValue::ofI64(10)};
        db.persistRecord("T", rec);
        db.unbindDetached(sid);
    });
    a.join();
    ASSERT_NE(sid, 0u);
    EXPECT_EQ(db.detachedCount(), 1u);
    EXPECT_GE(db.busyWalShards(), 1u);

    // Thread B adopts it mid-flight: it sees A's uncommitted write
    // from inside the same transaction and stages another.
    std::thread b([&]() {
        ASSERT_TRUE(db.bindDetached(sid));
        DbRecord out;
        ASSERT_TRUE(db.fetchRecord("T", 1, &out));
        EXPECT_EQ(out.values[1].i, 10);
        DbRecord rec;
        rec.values = {DbValue::ofI64(2), DbValue::ofI64(20)};
        db.persistRecord("T", rec);
        db.unbindDetached(sid);
    });
    b.join();

    // A session bound nowhere commits from any thread — C never
    // executed a statement of it.
    std::thread c([&]() {
        EXPECT_TRUE(db.commitDetached(sid).isOk());
    });
    c.join();

    EXPECT_EQ(db.detachedCount(), 0u);
    EXPECT_EQ(db.busyWalShards(), 0u);
    DbRecord out;
    ASSERT_TRUE(db.fetchRecord("T", 1, &out));
    EXPECT_EQ(out.values[1].i, 10);
    ASSERT_TRUE(db.fetchRecord("T", 2, &out));
    EXPECT_EQ(out.values[1].i, 20);

    // Both writes rode one transaction: atomic across the transfer.
    db.crash(CrashMode::kDiscardUnflushed);
    EXPECT_EQ(db.rowCount("T"), 2u);

    // A double bind from a second thread while bound elsewhere is
    // refused, not fatal.
    std::uint64_t sid2 = 0;
    ASSERT_TRUE(db.beginDetached({}, &sid2).isOk());
    ASSERT_TRUE(db.bindDetached(sid2));
    std::thread d([&]() { EXPECT_FALSE(db.bindDetached(sid2)); });
    d.join();
    db.unbindDetached(sid2);
    EXPECT_TRUE(db.rollbackDetached(sid2).isOk());
    EXPECT_EQ(db.busyWalShards(), 0u);
}

TEST_F(DatabaseTest, TableCapacityIsEnforced)
{
    DatabaseConfig tiny;
    tiny.rowRegionSize = 1u << 20;
    tiny.rowsPerTable = 4;
    Database small(tiny);
    small.executeSql("CREATE TABLE T (ID BIGINT PRIMARY KEY)");
    for (int i = 0; i < 4; ++i)
        small.executeSql("INSERT INTO T (ID) VALUES (" +
                         std::to_string(i) + ")");
    EXPECT_THROW(small.executeSql("INSERT INTO T (ID) VALUES (99)"),
                 FatalError);
}

// ---------------------------------------------------------------------
// ShardedDatabase: pk partitioning through the consistent-hash router
// ---------------------------------------------------------------------

class ShardedDbTest : public ::testing::Test
{
  protected:
    static ShardedDatabaseConfig
    config(unsigned shards)
    {
        ShardedDatabaseConfig cfg;
        cfg.shards = shards;
        cfg.shard.rowRegionSize = 2u << 20;
        cfg.shard.rowsPerTable = 512;
        cfg.shard.groupCommitWindowUs = 0;
        return cfg;
    }

    static TableSchema
    schema()
    {
        return TableSchema{
            "T", {{"ID", DbType::kI64}, {"V", DbType::kI64}}, 0,
            TableSchema::kNoIndex};
    }

    static DbRecord
    row(std::int64_t id, std::int64_t v)
    {
        DbRecord rec;
        rec.values = {DbValue::ofI64(id), DbValue::ofI64(v)};
        return rec;
    }
};

TEST_F(ShardedDbTest, RoutesByPkAndFansOut)
{
    ShardedDatabase database(config(4));
    database.createTable(schema());
    for (std::int64_t id = 0; id < 200; ++id)
        database.persistRecord("T", row(id, id * 10));

    // Point reads hit the routed shard; totals sum across members.
    for (std::int64_t id = 0; id < 200; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out)) << id;
        EXPECT_EQ(out.values[1].i, id * 10);
        EXPECT_EQ(database.shardForPk(id).rowCount("T") > 0, true);
    }
    EXPECT_EQ(database.rowCount("T"), 200u);

    // The router actually partitions (every member holds a slice),
    // and rows live exactly where the ring says.
    std::size_t spread = 0;
    for (unsigned s = 0; s < 4; ++s)
        spread += database.shard(s).rowCount("T") > 0 ? 1 : 0;
    EXPECT_EQ(spread, 4u);
    for (std::int64_t id = 0; id < 200; ++id) {
        DbRecord out;
        EXPECT_TRUE(database.shardForPk(id).fetchRecord("T", id, &out));
    }

    // Fan-out scan sees every matching row exactly once.
    for (std::int64_t id = 100; id < 110; ++id)
        database.persistRecord("T", row(id, -1));
    std::size_t hits = 0;
    database.scanEq("T", "V", DbValue::ofI64(-1),
                    [&](const std::vector<DbValue> &) { ++hits; });
    EXPECT_EQ(hits, 10u);

    EXPECT_TRUE(database.deleteRecord("T", 5));
    EXPECT_FALSE(database.deleteRecord("T", 5));
    EXPECT_EQ(database.rowCount("T"), 199u);
}

TEST_F(ShardedDbTest, NonIntegerPkIsRejectedNotStoredAsRowZero)
{
    // A record's pk cell must be an integer: a string pk used to be
    // stored under pk 0's index slot, after which pk 0's own row was
    // unreadable and rowCount drifted.
    ShardedDatabase database(config(2));
    database.createTable(schema());
    DbRecord bad;
    bad.values = {DbValue::ofStr("0"), DbValue::ofI64(9)};
    EXPECT_THROW(database.persistRecord("T", bad), FatalError);
    EXPECT_EQ(database.rowCount("T"), 0u);

    database.persistRecord("T", row(0, 5));
    EXPECT_THROW(database.updateRecord("T", bad), FatalError);
    DbRecord out;
    ASSERT_TRUE(database.fetchRecord("T", 0, &out));
    EXPECT_EQ(out.values[1].i, 5);
    EXPECT_EQ(database.rowCount("T"), 1u);

    // The member engine and its SQL INSERT/UPDATE paths check the same.
    Database &member = database.shardForPk(0);
    EXPECT_THROW(member.persistRecord("T", bad), FatalError);
    EXPECT_THROW(member.updateRecord("T", bad), FatalError);
    EXPECT_THROW(member.executeSql("INSERT INTO T (ID, V) VALUES ('7', 1)"),
                 FatalError);
    EXPECT_THROW(member.executeSql("UPDATE T SET V = 9 WHERE ID = 'x'"),
                 FatalError);
    ASSERT_TRUE(database.fetchRecord("T", 0, &out));
    EXPECT_EQ(out.values[1].i, 5);
    EXPECT_EQ(database.rowCount("T"), 1u);
    EXPECT_EQ(database.busyWalShards(), 0u);
}

TEST_F(ShardedDbTest, CrossShardBracketCommitsAndRollsBack)
{
    ShardedDatabase database(config(4));
    database.createTable(schema());
    for (std::int64_t id = 0; id < 32; ++id)
        database.persistRecord("T", row(id, 0));

    Txn t = database.beginTxn();
    for (std::int64_t id = 0; id < 32; ++id)
        database.persistRecord("T", row(id, 1));
    // The open bracket holds one WAL shard on every member it wrote.
    EXPECT_GT(database.busyWalShards(), 1u);
    EXPECT_TRUE(t.commit().isOk());
    EXPECT_EQ(database.busyWalShards(), 0u);
    for (std::int64_t id = 0; id < 32; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, 1);
    }

    Txn r = database.beginTxn();
    for (std::int64_t id = 0; id < 32; ++id)
        database.persistRecord("T", row(id, 2));
    EXPECT_TRUE(r.rollback().isOk());
    for (std::int64_t id = 0; id < 32; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, 1) << "rollback leaked on id " << id;
    }
}

TEST_F(ShardedDbTest, WalFullAbortsTheWholeBracket)
{
    ShardedDatabaseConfig cfg = config(2);
    cfg.shard.walSize = 4096; // one tiny undo segment per member
    cfg.shard.walShards = 1;
    ShardedDatabase database(cfg);
    database.createTable(schema());
    for (std::int64_t id = 0; id < 400; ++id)
        database.persistRecord("T", row(id, 7));

    // Overflow a cross-shard bracket; true when the WAL filled.
    auto overflow = [&]() {
        try {
            for (std::int64_t id = 0; id < 400; ++id)
                database.persistRecord("T", row(id, 8));
        } catch (const WalFullError &) {
            return true;
        }
        return false;
    };
    auto expectUntouched = [&]() {
        for (std::int64_t id = 0; id < 400; ++id) {
            DbRecord out;
            ASSERT_TRUE(database.fetchRecord("T", id, &out));
            EXPECT_EQ(out.values[1].i, 7) << "leak on id " << id;
        }
    };

    // The whole cross-shard bracket aborted: both members rolled
    // back and released their WAL shards, no half-applied shard
    // survives, and the database keeps serving new work. The
    // caller's rollback() after catching the error is a graceful
    // no-op (Database's aborted-flag contract) ...
    Txn t = database.beginTxn();
    ASSERT_TRUE(overflow()) << "undo segment never filled";
    EXPECT_EQ(database.busyWalShards(), 0u);
    EXPECT_TRUE(t.rollback().isOk());
    expectUntouched();

    // ... and its commit() reports why.
    Txn t2 = database.beginTxn();
    ASSERT_TRUE(overflow()) << "undo segment never filled";
    EXPECT_EQ(database.busyWalShards(), 0u);
    EXPECT_EQ(t2.commit().code(), StatusCode::kWalFull);
    expectUntouched();
    database.persistRecord("T", row(3, 9));
    DbRecord out;
    ASSERT_TRUE(database.fetchRecord("T", 3, &out));
    EXPECT_EQ(out.values[1].i, 9);
}

TEST_F(ShardedDbTest, MemberCrashRecoveryIsShardLocal)
{
    ShardedDatabase database(config(2));
    database.createTable(schema());
    std::vector<std::int64_t> shard0_ids, shard1_ids;
    for (std::int64_t id = 0; id < 100; ++id) {
        database.persistRecord("T", row(id, id));
        (database.shardIndexForPk(id) == 0 ? shard0_ids : shard1_ids)
            .push_back(id);
    }
    ASSERT_FALSE(shard0_ids.empty());
    ASSERT_FALSE(shard1_ids.empty());

    // Leave an uncommitted member-level transaction in flight on
    // member 0, then power-fail only that member (fabric brackets
    // must be closed across a crash — the member's own engine rolls
    // its open transaction back on reopen).
    std::int64_t victim = shard0_ids[0];
    {
        Txn member_txn = database.shard(0).beginTxn();
        database.shard(0).persistRecord("T", row(victim, -5));
        database.crashShard(0, CrashMode::kDiscardUnflushed, 42);
    }

    // Member 0 recovered from its own WAL: the in-flight update
    // rolled back, committed rows survive; member 1 never blinked.
    for (std::int64_t id : shard0_ids) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out)) << id;
        EXPECT_EQ(out.values[1].i, id);
    }
    for (std::int64_t id : shard1_ids) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out)) << id;
        EXPECT_EQ(out.values[1].i, id);
    }
    // The fabric keeps serving — including on the recovered member.
    database.persistRecord("T", row(victim, 11));
    DbRecord out;
    ASSERT_TRUE(database.fetchRecord("T", victim, &out));
    EXPECT_EQ(out.values[1].i, 11);
}

// ---------------------------------------------------------------------
// PR 6: the explicit Txn handle API, unified Status codes, snapshot
// isolation, and deadlock detection.
// ---------------------------------------------------------------------

class TxnApiTest : public ::testing::Test
{
  protected:
    TxnApiTest()
    {
        DatabaseConfig cfg;
        cfg.rowRegionSize = 8u << 20;
        cfg.rowsPerTable = 512;
        cfg.walShards = 4;
        db_ = std::make_unique<Database>(cfg);
        db_->createTable(TableSchema{"KV",
                                     {{"ID", DbType::kI64},
                                      {"V", DbType::kI64}},
                                     0,
                                     TableSchema::kNoIndex});
        for (std::int64_t id = 0; id < 16; ++id)
            put(id, 0);
    }

    void
    put(std::int64_t id, std::int64_t v)
    {
        DbRecord rec;
        rec.values = {DbValue::ofI64(id), DbValue::ofI64(v)};
        db_->persistRecord("KV", rec);
    }

    std::int64_t
    get(std::int64_t id)
    {
        DbRecord out;
        EXPECT_TRUE(db_->fetchRecord("KV", id, &out)) << id;
        return out.values[1].i;
    }

    std::unique_ptr<Database> db_;
};

TEST_F(TxnApiTest, HandleCommitRollbackAndMisuse)
{
    Txn t = db_->beginTxn();
    EXPECT_EQ(db_->busyWalShards(), 1u); // open: holds its WAL shard
    EXPECT_EQ(t.snapshot(), kNoSnapshot);
    put(1, 5);
    Status s = t.commit();
    EXPECT_TRUE(s.isOk()) << s.message();
    EXPECT_EQ(db_->busyWalShards(), 0u);
    EXPECT_EQ(get(1), 5);
    // A finished handle reports misuse, never fatals.
    EXPECT_EQ(t.commit().code(), StatusCode::kMisuse);
    EXPECT_EQ(t.rollback().code(), StatusCode::kMisuse);
    EXPECT_EQ(Txn().commit().code(), StatusCode::kMisuse);

    Txn r = db_->beginTxn();
    put(1, 9);
    EXPECT_TRUE(r.rollback().isOk());
    EXPECT_EQ(db_->busyWalShards(), 0u);
    EXPECT_EQ(get(1), 5);
}

TEST_F(TxnApiTest, DestructorAndMoveSemantics)
{
    // Dropping an open handle rolls its transaction back.
    {
        Txn t = db_->beginTxn();
        put(2, 7);
    }
    EXPECT_EQ(get(2), 0);

    // Moving transfers ownership; the source goes inert.
    Txn a = db_->beginTxn();
    put(3, 4);
    Txn b = std::move(a);
    EXPECT_EQ(a.commit().code(), StatusCode::kMisuse);
    EXPECT_TRUE(b.commit().isOk());
    EXPECT_EQ(get(3), 4);
}

TEST_F(TxnApiTest, ForeignThreadCommitIsMisuse)
{
    // A Txn handle is pinned to the thread that minted it; finishing
    // it from a worker that merely holds a reference is a protocol
    // error reported as a status, never silently committed.
    Txn t = db_->beginTxn();
    put(4, 44);
    Status foreign = Status::ok();
    std::thread other([&]() { foreign = t.commit(); });
    other.join();
    EXPECT_EQ(foreign.code(), StatusCode::kMisuse);

    // The refused commit left the handle and its transaction open on
    // this thread; it rolls back normally, so the staged write never
    // lands.
    EXPECT_EQ(db_->busyWalShards(), 1u);
    EXPECT_TRUE(t.rollback().isOk());
    EXPECT_EQ(get(4), 0);
}

TEST_F(TxnApiTest, CommitReportsWalFullAsStatus)
{
    DatabaseConfig cfg;
    cfg.rowRegionSize = 8u << 20;
    cfg.rowsPerTable = 512;
    cfg.walSize = 4096;
    cfg.walShards = 1;
    Database small(cfg);
    small.createTable(TableSchema{"KV",
                                  {{"ID", DbType::kI64},
                                   {"V", DbType::kI64}},
                                  0,
                                  TableSchema::kNoIndex});
    auto rowOf = [](std::int64_t id, std::int64_t v) {
        DbRecord rec;
        rec.values = {DbValue::ofI64(id), DbValue::ofI64(v)};
        return rec;
    };
    for (std::int64_t id = 0; id < 400; ++id)
        small.persistRecord("KV", rowOf(id, 7));

    Txn t = small.beginTxn();
    bool overflowed = false;
    try {
        for (std::int64_t id = 0; id < 400; ++id)
            small.persistRecord("KV", rowOf(id, 8));
    } catch (const WalFullError &) {
        overflowed = true; // legacy exception still escapes
    }
    ASSERT_TRUE(overflowed) << "undo segment never filled";
    // ... but the handle reports the rollback as a Status.
    EXPECT_EQ(t.commit().code(), StatusCode::kWalFull);
    EXPECT_EQ(small.busyWalShards(), 0u);
    for (std::int64_t id = 0; id < 400; ++id) {
        DbRecord out;
        ASSERT_TRUE(small.fetchRecord("KV", id, &out));
        EXPECT_EQ(out.values[1].i, 7) << "leak on id " << id;
    }
}

TEST_F(TxnApiTest, SnapshotReaderSeesBeginTimeVersions)
{
    Txn r = db_->beginTxn({Isolation::kSnapshot});
    ASSERT_NE(r.snapshot(), kNoSnapshot);
    for (std::int64_t id = 0; id < 8; ++id)
        EXPECT_EQ(get(id), 0);

    // A writer overwrites every row in one transaction and commits
    // mid-scan.
    std::thread w([&]() {
        Txn t = db_->beginTxn();
        for (std::int64_t id = 0; id < 16; ++id)
            put(id, 1);
        EXPECT_TRUE(t.commit().isOk());
    });
    w.join();

    // The rest of the scan still resolves to begin-time versions:
    // the committed multi-row write is invisible in its entirety.
    for (std::int64_t id = 8; id < 16; ++id)
        EXPECT_EQ(get(id), 0) << "snapshot leak at id " << id;
    EXPECT_TRUE(r.commit().isOk());

    // Outside the snapshot the new versions are all there.
    for (std::int64_t id = 0; id < 16; ++id)
        EXPECT_EQ(get(id), 1);

    // A fresh snapshot taken after the commit sees the new world.
    Txn r2 = db_->beginTxn({Isolation::kSnapshot});
    for (std::int64_t id = 0; id < 16; ++id)
        EXPECT_EQ(get(id), 1);
    EXPECT_TRUE(r2.commit().isOk());
}

TEST_F(TxnApiTest, FirstSnapshotDoesNotWaitForAnOpenWriter)
{
    // No snapshot was ever taken on this engine. An open
    // read-uncommitted writer has dirtied row 1; a snapshot begun on
    // another thread must neither wait for it nor see its image.
    Txn w = db_->beginTxn();
    put(1, 5);
    auto reader = std::async(std::launch::async, [this]() {
        Txn r = db_->beginTxn({Isolation::kSnapshot});
        std::int64_t v = get(1);
        EXPECT_TRUE(r.commit().isOk());
        return v;
    });
    bool returned = reader.wait_for(std::chrono::seconds(5)) ==
                    std::future_status::ready;
    EXPECT_TRUE(returned) << "snapshot begin waited for the writer";
    // Commit either way, so a begin that does wait can finish.
    EXPECT_TRUE(w.commit().isOk());
    std::int64_t seen = reader.get();
    if (returned) {
        EXPECT_EQ(seen, 0) << "snapshot saw an uncommitted image";
    }

    Txn r2 = db_->beginTxn({Isolation::kSnapshot});
    EXPECT_EQ(get(1), 5);
    EXPECT_TRUE(r2.commit().isOk());
}

TEST(PersistenceCountTest, EagerRowWritesWithoutSnapshots)
{
    // Version markers and commit stamps ride lines that row writes
    // flush anyway: they add no flush call, line or fence. Pinned
    // per statement on a single thread at a zero window, before any
    // snapshot was taken.
    DatabaseConfig cfg;
    cfg.rowRegionSize = 4u << 20;
    cfg.rowsPerTable = 64;
    cfg.groupCommitWindowUs = 0;
    Database db(cfg);
    db.createTable(TableSchema{
        "T", {{"ID", DbType::kI64}, {"V", DbType::kI64}}, 0,
        TableSchema::kNoIndex});
    const NvmStats &st = db.device().stats();
    struct Counts
    {
        std::uint64_t fences, lines, flushCalls;
    };
    auto delta = [&st](const auto &op) {
        Counts before{st.fences.load(), st.linesFlushed.load(),
                      st.flushCalls.load()};
        op();
        return Counts{st.fences.load() - before.fences,
                      st.linesFlushed.load() - before.lines,
                      st.flushCalls.load() - before.flushCalls};
    };
    DbRecord rec;
    rec.values = {DbValue::ofI64(1), DbValue::ofI64(10)};
    Counts ins = delta([&] { db.persistRecord("T", rec); });
    rec.values[1] = DbValue::ofI64(11);
    rec.dirtyMask = 1ull << 1;
    Counts upd = delta([&] { db.persistRecord("T", rec); });
    Counts del = delta([&] { EXPECT_TRUE(db.deleteRecord("T", 1)); });

    auto expect = [](const Counts &c, std::uint64_t fences,
                     std::uint64_t lines, std::uint64_t flush_calls,
                     const char *what) {
        EXPECT_EQ(c.fences, fences) << what;
        EXPECT_EQ(c.lines, lines) << what;
        EXPECT_EQ(c.flushCalls, flush_calls) << what;
    };
    expect(ins, 4, 9, 7, "insert");
    expect(upd, 3, 13, 6, "update");
    expect(del, 3, 6, 6, "delete");

    CommitCoordinator::Stats cs = db.commitCoordinator().stats();
    EXPECT_EQ(cs.batches, 3u);
    EXPECT_EQ(cs.txns, 3u);
    EXPECT_EQ(cs.maxBatch, 1u);
}

TEST_F(TxnApiTest, FirstCommitterWinsReportsConflict)
{
    Txn r = db_->beginTxn({Isolation::kSnapshot});
    EXPECT_EQ(get(5), 0);

    // Another transaction commits row 5 after our snapshot.
    std::thread w([&]() { put(5, 7); });
    w.join();

    bool aborted = false;
    try {
        put(5, 9);
    } catch (const TxnAbortError &e) {
        aborted = true;
        EXPECT_EQ(e.code(), StatusCode::kConflict);
    }
    ASSERT_TRUE(aborted) << "stale write was admitted";
    EXPECT_EQ(r.commit().code(), StatusCode::kConflict);
    EXPECT_EQ(db_->busyWalShards(), 0u);
    EXPECT_EQ(get(5), 7) << "first committer must stand";
}

TEST_F(TxnApiTest, DeadlockAbortsExactlyOneVictim)
{
    // Two transactions lock rows 1 and 2 in opposite orders and
    // rendezvous in between: a guaranteed cycle. The engine must
    // abort exactly one with kDeadlock; the survivor commits.
    std::array<StatusCode, 2> codes{StatusCode::kOk, StatusCode::kOk};
    std::atomic<int> at_barrier{0};
    auto worker = [&](int me, std::int64_t first, std::int64_t second) {
        Txn t = db_->beginTxn();
        try {
            put(first, 100 + me);
            at_barrier.fetch_add(1);
            while (at_barrier.load(std::memory_order_acquire) != 2)
                std::this_thread::yield();
            put(second, 100 + me);
            codes[me] = t.commit().code();
        } catch (const TxnAbortError &) {
            codes[me] = t.commit().code();
        }
    };
    std::thread a(worker, 0, 1, 2);
    std::thread b(worker, 1, 2, 1);
    a.join();
    b.join();

    int winners = (codes[0] == StatusCode::kOk) +
                  (codes[1] == StatusCode::kOk);
    ASSERT_EQ(winners, 1) << "codes: " << static_cast<int>(codes[0])
                          << ", " << static_cast<int>(codes[1]);
    int victim = codes[0] == StatusCode::kOk ? 1 : 0;
    EXPECT_EQ(codes[victim], StatusCode::kDeadlock);
    // The victim's partial write rolled back: both rows carry the
    // survivor's value.
    std::int64_t winner_val = 100 + (1 - victim);
    EXPECT_EQ(get(1), winner_val);
    EXPECT_EQ(get(2), winner_val);

    // The database keeps serving transactions afterwards.
    Txn t = db_->beginTxn();
    put(1, 0);
    put(2, 0);
    EXPECT_TRUE(t.commit().isOk());
}

TEST_F(ShardedDbTest, TxnHandleDrivesCrossShardBracket)
{
    ShardedDatabase database(config(4));
    database.createTable(schema());
    for (std::int64_t id = 0; id < 32; ++id)
        database.persistRecord("T", row(id, 0));

    Txn t = database.beginTxn();
    for (std::int64_t id = 0; id < 32; ++id)
        database.persistRecord("T", row(id, 1));
    EXPECT_GT(database.busyWalShards(), 1u);
    EXPECT_TRUE(t.commit().isOk());
    EXPECT_EQ(database.busyWalShards(), 0u);
    EXPECT_EQ(t.commit().code(), StatusCode::kMisuse);
    for (std::int64_t id = 0; id < 32; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, 1);
    }

    // Dropping an open handle rolls the whole bracket back.
    {
        Txn u = database.beginTxn();
        for (std::int64_t id = 0; id < 32; ++id)
            database.persistRecord("T", row(id, 2));
    }
    for (std::int64_t id = 0; id < 32; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, 1) << "dtor leak on id " << id;
    }
}

TEST_F(ShardedDbTest, SnapshotBracketSeesCrossShardCommitAtomically)
{
    ShardedDatabase database(config(4));
    database.createTable(schema());
    for (std::int64_t id = 0; id < 32; ++id)
        database.persistRecord("T", row(id, 0));

    Txn r = database.beginTxn({Isolation::kSnapshot});
    ASSERT_NE(r.snapshot(), kNoSnapshot);
    for (std::int64_t id = 0; id < 16; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, 0);
    }

    // A cross-shard 2PC commit lands mid-scan.
    std::thread w([&]() {
        Txn t = database.beginTxn();
        for (std::int64_t id = 0; id < 32; ++id)
            database.persistRecord("T", row(id, 1));
        EXPECT_TRUE(t.commit().isOk());
    });
    w.join();

    // The snapshot still resolves every member's rows to begin-time
    // versions — the fabric-wide commit is invisible as a whole.
    for (std::int64_t id = 16; id < 32; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, 0)
            << "snapshot saw a torn cross-shard commit at id " << id;
    }
    EXPECT_TRUE(r.commit().isOk());

    for (std::int64_t id = 0; id < 32; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, 1);
    }
}

// ---------------------------------------------------------------------
// Non-blocking commits: ShardedDatabase::commitDetachedAsync
// ---------------------------------------------------------------------

class AsyncCommitTest : public ShardedDbTest
{
  protected:
    /** The @p nth (0-based) pk that routes to member @p shard. */
    static std::int64_t
    pkOn(ShardedDatabase &db, unsigned shard, unsigned nth = 0)
    {
        for (std::int64_t pk = 0;; ++pk)
            if (db.shardIndexForPk(pk) == shard && nth-- == 0)
                return pk;
    }

    /** Open a detached bracket and write @p v into @p pks through
     * it. */
    static std::uint64_t
    openWriting(ShardedDatabase &db, const std::vector<std::int64_t> &pks,
                std::int64_t v)
    {
        std::uint64_t id = 0;
        EXPECT_TRUE(db.beginDetached({}, &id).isOk());
        EXPECT_TRUE(db.bindDetached(id));
        for (std::int64_t pk : pks)
            db.persistRecord("T", row(pk, v));
        db.unbindDetached(id);
        return id;
    }

    /** Fence and flush counts of every member device, then the
     * coordinator's. */
    static std::vector<std::uint64_t>
    deviceEvents(ShardedDatabase &db)
    {
        std::vector<std::uint64_t> out;
        auto add = [&out](NvmDevice &d) {
            out.push_back(d.stats().fences.load());
            out.push_back(d.stats().flushCalls.load());
        };
        for (unsigned i = 0; i < db.shardCount(); ++i)
            add(db.shard(i).device());
        add(db.coordinatorDevice());
        return out;
    }

    /** commitDetachedAsync, then wait for its callback; @p inline_done
     * reports whether it had fired before the call returned. */
    static Status
    commitAsyncAndWait(ShardedDatabase &db, std::uint64_t id,
                       bool *inline_done = nullptr)
    {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        Status out;
        db.commitDetachedAsync(id, [&](Status s) {
            std::lock_guard<std::mutex> g(mu);
            out = s;
            done = true;
            cv.notify_one();
        });
        std::unique_lock<std::mutex> lk(mu);
        if (inline_done != nullptr)
            *inline_done = done;
        cv.wait(lk, [&] { return done; });
        return out;
    }
};

TEST_F(AsyncCommitTest, ReadOnlyBracketCompletesInlineWithoutFences)
{
    ShardedDatabase database(config(2));
    database.createTable(schema());
    std::int64_t a = pkOn(database, 0), b = pkOn(database, 1);
    database.persistRecord("T", row(a, 1));
    database.persistRecord("T", row(b, 2));

    std::uint64_t id = 0;
    ASSERT_TRUE(database.beginDetached({Isolation::kSnapshot}, &id).isOk());
    ASSERT_TRUE(database.bindDetached(id));
    DbRecord out;
    ASSERT_TRUE(database.fetchRecord("T", a, &out));
    ASSERT_TRUE(database.fetchRecord("T", b, &out));
    database.unbindDetached(id);

    std::vector<std::uint64_t> before = deviceEvents(database);
    bool inline_done = false;
    EXPECT_TRUE(commitAsyncAndWait(database, id, &inline_done).isOk());
    EXPECT_TRUE(inline_done) << "a read-only commit took a thread hop";
    EXPECT_EQ(deviceEvents(database), before);
    EXPECT_EQ(database.detachedCount(), 0u);
    EXPECT_EQ(database.busyWalShards(), 0u);
}

TEST_F(AsyncCommitTest, SingleMemberBracketIsOneGroupCommit)
{
    ShardedDatabase database(config(2));
    database.createTable(schema());
    std::vector<std::int64_t> pks = {pkOn(database, 0, 0),
                                     pkOn(database, 0, 1)};
    for (std::int64_t pk : pks)
        database.persistRecord("T", row(pk, 0));

    std::uint64_t id = openWriting(database, pks, 5);
    CommitCoordinator::Stats m0 =
        database.shard(0).commitCoordinator().stats();
    CommitCoordinator::Stats m1 =
        database.shard(1).commitCoordinator().stats();
    std::uint64_t coord =
        database.coordinatorDevice().stats().fences.load();
    EXPECT_TRUE(commitAsyncAndWait(database, id).isOk());

    EXPECT_EQ(database.shard(0).commitCoordinator().stats().txns,
              m0.txns + 1);
    EXPECT_EQ(database.shard(1).commitCoordinator().stats().txns,
              m1.txns);
    EXPECT_EQ(database.coordinatorDevice().stats().fences.load(), coord);
    EXPECT_EQ(database.busyWalShards(), 0u);
    for (std::int64_t pk : pks) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", pk, &out));
        EXPECT_EQ(out.values[1].i, 5);
    }
}

TEST_F(AsyncCommitTest, TwoMemberBracketPublishesOneDecision)
{
    ShardedDatabase database(config(2));
    database.createTable(schema());
    std::vector<std::int64_t> pks = {pkOn(database, 0),
                                     pkOn(database, 1)};
    for (std::int64_t pk : pks)
        database.persistRecord("T", row(pk, 0));

    std::uint64_t id = openWriting(database, pks, 9);
    std::uint64_t coord =
        database.coordinatorDevice().stats().fences.load();
    EXPECT_TRUE(commitAsyncAndWait(database, id).isOk());
    EXPECT_EQ(database.coordinatorDevice().stats().fences.load(),
              coord + 1);
    EXPECT_EQ(database.busyWalShards(), 0u);
    EXPECT_EQ(database.detachedCount(), 0u);

    // Durable on both members: the decision committed them together.
    database.crash(CrashMode::kDiscardUnflushed);
    for (std::int64_t pk : pks) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", pk, &out));
        EXPECT_EQ(out.values[1].i, 9);
    }
}

TEST_F(AsyncCommitTest, EngineAbortedBracketReportsItsCodeAndTouchesNoDevice)
{
    ShardedDatabase database(config(2));
    database.createTable(schema());
    std::int64_t a = pkOn(database, 0), b = pkOn(database, 1);
    database.persistRecord("T", row(a, 0));
    database.persistRecord("T", row(b, 0));

    // First committer wins: a row committed after the bracket's
    // snapshot kills the bracket on its write.
    std::uint64_t id = 0;
    ASSERT_TRUE(database.beginDetached({Isolation::kSnapshot}, &id).isOk());
    ASSERT_TRUE(database.bindDetached(id));
    database.persistRecord("T", row(b, 1));
    database.unbindDetached(id);
    database.persistRecord("T", row(a, 7)); // auto-commit, after S
    ASSERT_TRUE(database.bindDetached(id));
    EXPECT_THROW(database.persistRecord("T", row(a, 2)), TxnAbortError);
    database.unbindDetached(id);

    std::vector<std::uint64_t> before = deviceEvents(database);
    bool inline_done = false;
    EXPECT_EQ(commitAsyncAndWait(database, id, &inline_done).code(),
              StatusCode::kConflict);
    EXPECT_TRUE(inline_done);
    EXPECT_EQ(deviceEvents(database), before);
    EXPECT_EQ(database.busyWalShards(), 0u);
    EXPECT_EQ(database.detachedCount(), 0u);
    DbRecord out;
    ASSERT_TRUE(database.fetchRecord("T", b, &out));
    EXPECT_EQ(out.values[1].i, 0) << "the killed bracket's write leaked";
}

TEST_F(AsyncCommitTest, DecisionSlotExhaustionParksChains)
{
    // More concurrent 2PC brackets than the DecisionLog has slots.
    // Member 1 fences slowly, so its prepares pile into one batch
    // whose callbacks claim every slot before any finish frees one.
    constexpr unsigned kBrackets = 96;
    ShardedDatabaseConfig cfg = config(2);
    cfg.shard.walShards = 128;
    ShardedDatabase database(cfg);
    database.createTable(schema());
    NvmConfig &slow = database.shard(1).device().config();
    slow.fenceLatencyNs = 2'000'000;

    std::vector<std::uint64_t> ids;
    std::vector<std::int64_t> pks;
    for (unsigned i = 0; i < kBrackets; ++i) {
        std::int64_t a = pkOn(database, 0, i), b = pkOn(database, 1, i);
        pks.push_back(a);
        pks.push_back(b);
        ids.push_back(openWriting(database, {a, b}, 1));
    }
    std::uint64_t coord =
        database.coordinatorDevice().stats().fences.load();

    std::mutex mu;
    std::condition_variable cv;
    unsigned done = 0, ok = 0;
    for (std::uint64_t id : ids)
        database.commitDetachedAsync(id, [&](Status s) {
            std::lock_guard<std::mutex> g(mu);
            ++done;
            ok += s.isOk() ? 1 : 0;
            cv.notify_one();
        });
    {
        std::unique_lock<std::mutex> lk(mu);
        ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(60),
                                [&] { return done == kBrackets; }))
            << "only " << done << " of " << kBrackets << " commits finished";
    }
    EXPECT_EQ(ok, kBrackets);
    EXPECT_EQ(database.coordinatorDevice().stats().fences.load(),
              coord + kBrackets);
    EXPECT_EQ(database.busyWalShards(), 0u);
    EXPECT_EQ(database.detachedCount(), 0u);
    for (std::int64_t pk : pks) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", pk, &out));
        EXPECT_EQ(out.values[1].i, 1) << pk;
    }
    slow.fenceLatencyNs = 0;
}

TEST_F(AsyncCommitTest, SnapshotAuditsSeeNoFracturedSums)
{
    // Groups of four accounts, one per member: every transfer is a
    // cross-shard 2PC whose row locks drop at the decision, before
    // the members' finishes are durable. Snapshot audits must still
    // see every group's sum conserved.
    constexpr unsigned kMembers = 4, kGroups = 4, kWriters = 4;
    constexpr int kTransfers = 60;
    constexpr std::int64_t kOpening = 1000;
    ShardedDatabaseConfig cfg = config(kMembers);
    cfg.shard.walShards = 16;
    NvmConfig nvm;
    nvm.fenceLatencyNs = 20'000;
    ShardedDatabase database(cfg, nvm);
    database.createTable(schema());
    std::vector<std::vector<std::int64_t>> groups(kGroups);
    for (unsigned g = 0; g < kGroups; ++g)
        for (unsigned m = 0; m < kMembers; ++m) {
            groups[g].push_back(pkOn(database, m, g));
            database.persistRecord("T", row(groups[g].back(), kOpening));
        }

    std::atomic<int> writers_left{kWriters};
    std::atomic<std::uint64_t> committed{0};
    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w]() {
            Rng rng(0xA5C0ull + w);
            for (int done = 0, tries = 0; done < kTransfers && tries < 100000;
                 ++tries) {
                const std::vector<std::int64_t> &g =
                    groups[rng.nextBelow(kGroups)];
                std::uint64_t x = rng.nextBelow(kMembers);
                std::uint64_t y = (x + 1 + rng.nextBelow(kMembers - 1)) %
                                  kMembers;
                std::int64_t amount =
                    1 + static_cast<std::int64_t>(rng.nextBelow(9));
                std::uint64_t id = 0;
                if (!database.beginDetached({Isolation::kSnapshot}, &id)
                         .isOk())
                    continue;
                EXPECT_TRUE(database.bindDetached(id));
                try {
                    DbRecord from, to;
                    EXPECT_TRUE(database.fetchRecord("T", g[x], &from));
                    EXPECT_TRUE(database.fetchRecord("T", g[y], &to));
                    database.persistRecord(
                        "T", row(g[x], from.values[1].i - amount));
                    database.persistRecord(
                        "T", row(g[y], to.values[1].i + amount));
                } catch (const TxnAbortError &) {
                    // Conflict or bounded lock wait: commit reports it.
                }
                database.unbindDetached(id);
                if (commitAsyncAndWait(database, id).isOk()) {
                    ++done;
                    committed.fetch_add(1);
                }
            }
            writers_left.fetch_sub(1);
        });
    }

    std::uint64_t audits = 0, fractured = 0;
    while (writers_left.load() > 0 || audits == 0) {
        Txn r = database.beginTxn({Isolation::kSnapshot});
        for (unsigned g = 0; g < kGroups; ++g) {
            std::int64_t sum = 0;
            for (std::int64_t pk : groups[g]) {
                DbRecord out;
                EXPECT_TRUE(database.fetchRecord("T", pk, &out));
                sum += out.values[1].i;
            }
            if (sum != kOpening * kMembers && fractured++ == 0)
                ADD_FAILURE() << "fractured read of group " << g
                              << " at audit " << audits << ": sum "
                              << sum;
        }
        EXPECT_TRUE(r.commit().isOk());
        ++audits;
    }
    for (std::thread &t : writers)
        t.join();
    EXPECT_EQ(fractured, 0u);
    EXPECT_EQ(committed.load(),
              static_cast<std::uint64_t>(kWriters * kTransfers));
    EXPECT_GT(audits, 1u);
    EXPECT_EQ(database.busyWalShards(), 0u);
    EXPECT_EQ(database.detachedCount(), 0u);
}

// ---------------------------------------------------------------------
// Sessions: a Txn is an engine session bound to the thread that began
// it; detached sessions and brackets move between threads by id
// ---------------------------------------------------------------------

class SessionTest : public AsyncCommitTest
{
};

TEST_F(SessionTest, BoundTxnRefusesASecondBindOnADatabase)
{
    DatabaseConfig cfg;
    cfg.rowRegionSize = 2u << 20;
    cfg.rowsPerTable = 256;
    cfg.walShards = 4;
    cfg.groupCommitWindowUs = 0;
    Database db(cfg);
    db.createTable(schema());

    std::uint64_t other = 0;
    ASSERT_TRUE(db.beginDetached({}, &other).isOk());
    Txn t = db.beginTxn();
    db.persistRecord("T", row(1, 10));
    EXPECT_FALSE(db.bindDetached(other)) << "a thread binds one session";
    EXPECT_TRUE(t.commit().isOk());
    DbRecord out;
    ASSERT_TRUE(db.fetchRecord("T", 1, &out));
    EXPECT_EQ(out.values[1].i, 10);

    // With the Txn finished the thread is free to bind again.
    ASSERT_TRUE(db.bindDetached(other));
    db.persistRecord("T", row(2, 20));
    db.unbindDetached(other);
    EXPECT_TRUE(db.rollbackDetached(other).isOk());
    EXPECT_FALSE(db.fetchRecord("T", 2, &out));
    EXPECT_EQ(db.busyWalShards(), 0u);
    EXPECT_EQ(db.detachedCount(), 0u);
}

TEST_F(SessionTest, BoundTxnRefusesASecondBindOnAShardedDatabase)
{
    ShardedDatabase database(config(2));
    database.createTable(schema());
    std::int64_t a = pkOn(database, 0), b = pkOn(database, 1);

    std::uint64_t other = 0;
    ASSERT_TRUE(database.beginDetached({}, &other).isOk());
    Txn t = database.beginTxn();
    database.persistRecord("T", row(a, 10));
    database.persistRecord("T", row(b, 10));
    EXPECT_FALSE(database.bindDetached(other))
        << "a thread binds one bracket";
    EXPECT_TRUE(t.commit().isOk());
    DbRecord out;
    ASSERT_TRUE(database.fetchRecord("T", a, &out));
    EXPECT_EQ(out.values[1].i, 10);
    ASSERT_TRUE(database.fetchRecord("T", b, &out));
    EXPECT_EQ(out.values[1].i, 10);

    ASSERT_TRUE(database.bindDetached(other));
    database.persistRecord("T", row(a, 20));
    database.persistRecord("T", row(b, 20));
    database.unbindDetached(other);
    EXPECT_TRUE(database.rollbackDetached(other).isOk());
    ASSERT_TRUE(database.fetchRecord("T", a, &out));
    EXPECT_EQ(out.values[1].i, 10);
    ASSERT_TRUE(database.fetchRecord("T", b, &out));
    EXPECT_EQ(out.values[1].i, 10);
    EXPECT_EQ(database.busyWalShards(), 0u);
    EXPECT_EQ(database.detachedCount(), 0u);
}

TEST_F(SessionTest, KilledTxnDoesNotBlockTheNextBegin)
{
    // The engine kills a snapshot Txn on a first-committer-wins
    // conflict; the thread may begin again before finishing the dead
    // handle, which then still reports why it died.
    DatabaseConfig cfg;
    cfg.rowRegionSize = 2u << 20;
    cfg.rowsPerTable = 256;
    cfg.walShards = 4;
    cfg.groupCommitWindowUs = 0;
    Database db(cfg);
    db.createTable(schema());
    db.persistRecord("T", row(1, 0));
    ShardedDatabase sharded(config(2));
    sharded.createTable(schema());
    sharded.persistRecord("T", row(1, 0));

    auto check = [](auto &engine) {
        Txn dead = engine.beginTxn({Isolation::kSnapshot});
        std::thread w([&]() { engine.persistRecord("T", row(1, 7)); });
        w.join();
        EXPECT_THROW(engine.persistRecord("T", row(1, 5)), TxnAbortError);
        Txn next = engine.beginTxn();
        engine.persistRecord("T", row(2, 2));
        EXPECT_TRUE(next.commit().isOk());
        EXPECT_EQ(dead.commit().code(), StatusCode::kConflict);
        EXPECT_EQ(engine.busyWalShards(), 0u);
        EXPECT_EQ(engine.detachedCount(), 0u);
        DbRecord out;
        ASSERT_TRUE(engine.fetchRecord("T", 1, &out));
        EXPECT_EQ(out.values[1].i, 7);
        EXPECT_TRUE(engine.fetchRecord("T", 2, &out));
    };
    check(db);
    check(sharded);
}

TEST_F(SessionTest, DetachedBracketJoinsMembersOnDifferentThreads)
{
    ShardedDatabase database(config(2));
    database.createTable(schema());
    std::int64_t a = pkOn(database, 0), b = pkOn(database, 1);
    database.persistRecord("T", row(a, 0));
    database.persistRecord("T", row(b, 0));

    std::uint64_t id = 0;
    ASSERT_TRUE(database.beginDetached({}, &id).isOk());
    // Each member is joined by a different thread; the bracket keeps
    // both member sessions while parked in between.
    auto write_on_thread = [&](std::int64_t pk) {
        std::thread w([&]() {
            ASSERT_TRUE(database.bindDetached(id));
            database.persistRecord("T", row(pk, 5));
            database.unbindDetached(id);
        });
        w.join();
    };
    write_on_thread(a);
    write_on_thread(b);
    EXPECT_EQ(database.busyWalShards(), 2u);

    std::uint64_t coord =
        database.coordinatorDevice().stats().fences.load();
    Status s = Status::ok();
    std::thread c([&]() { s = database.commitDetached(id); });
    c.join();
    EXPECT_TRUE(s.isOk()) << s.message();
    EXPECT_EQ(database.coordinatorDevice().stats().fences.load(),
              coord + 1);
    EXPECT_EQ(database.busyWalShards(), 0u);
    EXPECT_EQ(database.detachedCount(), 0u);
    for (std::int64_t pk : {a, b}) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", pk, &out));
        EXPECT_EQ(out.values[1].i, 5);
    }

    database.crash(CrashMode::kDiscardUnflushed);
    for (std::int64_t pk : {a, b}) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", pk, &out));
        EXPECT_EQ(out.values[1].i, 5) << "pk " << pk;
    }
}

TEST_F(SessionTest, DetachedBracketKilledOnAnotherThreadRollsBackWhole)
{
    ShardedDatabase database(config(2));
    database.createTable(schema());
    std::int64_t a = pkOn(database, 0), b = pkOn(database, 1);
    database.persistRecord("T", row(a, 0));
    database.persistRecord("T", row(b, 0));

    std::uint64_t id = 0;
    ASSERT_TRUE(database.beginDetached({Isolation::kSnapshot}, &id).isOk());
    std::thread ta([&]() {
        ASSERT_TRUE(database.bindDetached(id));
        database.persistRecord("T", row(a, 5));
        database.unbindDetached(id);
    });
    ta.join();
    database.persistRecord("T", row(b, 7)); // auto-commit, after S

    // First committer wins: B's write on member 1 kills the bracket,
    // member 0's write (made on A's thread) included.
    std::thread tb([&]() {
        ASSERT_TRUE(database.bindDetached(id));
        try {
            database.persistRecord("T", row(b, 5));
            ADD_FAILURE() << "a write after the snapshot went through";
        } catch (const TxnAbortError &e) {
            EXPECT_EQ(e.code(), StatusCode::kConflict);
        }
        database.unbindDetached(id);
    });
    tb.join();
    EXPECT_EQ(database.busyWalShards(), 0u);

    Status s = Status::make(StatusCode::kMisuse, "unset");
    std::thread tc([&]() { s = database.rollbackDetached(id); });
    tc.join();
    EXPECT_TRUE(s.isOk()) << s.message();
    EXPECT_EQ(database.busyWalShards(), 0u);
    EXPECT_EQ(database.detachedCount(), 0u);
    DbRecord out;
    ASSERT_TRUE(database.fetchRecord("T", a, &out));
    EXPECT_EQ(out.values[1].i, 0) << "member 0's write survived the kill";
    ASSERT_TRUE(database.fetchRecord("T", b, &out));
    EXPECT_EQ(out.values[1].i, 7);
}

TEST(VersionChainTest, TrimKeepsChainsBoundedUnderLongSnapshot)
{
    // Regression for the chain trimmer: a long-lived snapshot plus a
    // write-hot key must not grow the key's version chain without
    // bound — per active snapshot only the newest reachable
    // pre-image is retained, and commit-time pruning drops the rest.
    DatabaseConfig cfg;
    cfg.rowRegionSize = 4u << 20;
    cfg.rowsPerTable = 64;
    Database db(cfg);
    db.createTable(TableSchema{
        "T", {{"ID", DbType::kI64}, {"V", DbType::kI64}}, 0,
        TableSchema::kNoIndex});
    DbRecord rec;
    rec.values = {DbValue::ofI64(1), DbValue::ofI64(0)};
    db.persistRecord("T", rec);

    Word s = db.snapshotClock().beginSnapshot();
    std::size_t max_depth = 0;
    for (int i = 1; i <= 400; ++i) {
        DbRecord up;
        up.values = {DbValue::ofI64(1), DbValue::ofI64(i)};
        up.dirtyMask = 1ull << 1; // V only
        db.persistRecord("T", up);
        max_depth = std::max(max_depth,
                             db.versionChainDepth("T", 1));
    }
    // One active snapshot -> O(1) retained history, not O(updates).
    EXPECT_LE(max_depth, 3u) << "chain grew with update count";

    // The retained image still serves the old snapshot correctly.
    DbRecord out;
    ASSERT_TRUE(db.fetchRecordAt("T", 1, &out, s));
    EXPECT_EQ(out.values[1].i, 0) << "snapshot lost its version";
    ASSERT_TRUE(db.fetchRecord("T", 1, &out));
    EXPECT_EQ(out.values[1].i, 400);

    // Once the snapshot retires, the next commit drains the chain.
    db.snapshotClock().endSnapshot(s);
    DbRecord up;
    up.values = {DbValue::ofI64(1), DbValue::ofI64(401)};
    up.dirtyMask = 1ull << 1;
    db.persistRecord("T", up);
    EXPECT_LE(db.versionChainDepth("T", 1), 1u)
        << "chain survived its last snapshot";
}

TEST_F(ShardedDbTest, GrowAndShrinkRepartitionRows)
{
    ShardedDatabase database(config(2));
    database.createTable(schema());
    constexpr std::int64_t kRows = 300;
    for (std::int64_t id = 0; id < kRows; ++id)
        database.persistRecord("T", row(id, id * 3));

    database.grow(2);
    EXPECT_EQ(database.shardCount(), 4u);
    EXPECT_FALSE(database.migrating());
    EXPECT_EQ(database.rowCount("T"), static_cast<std::size_t>(kRows));
    std::size_t spread = 0;
    for (unsigned s = 0; s < 4; ++s)
        spread += database.shard(s).rowCount("T") > 0 ? 1 : 0;
    EXPECT_EQ(spread, 4u) << "joiners received no rows";
    for (std::int64_t id = 0; id < kRows; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out)) << id;
        EXPECT_EQ(out.values[1].i, id * 3) << id;
        // The row lives exactly where the new ring routes it.
        EXPECT_TRUE(database.shardForPk(id).fetchRecord("T", id, &out))
            << id;
    }

    // Writes and brackets keep flowing on the grown membership.
    Txn t = database.beginTxn();
    for (std::int64_t id = 0; id < 32; ++id)
        database.persistRecord("T", row(id, -id));
    EXPECT_TRUE(t.commit().isOk());
    for (std::int64_t id = 0; id < 32; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, -id);
    }

    database.shrink(2);
    EXPECT_EQ(database.shardCount(), 2u);
    EXPECT_FALSE(database.migrating());
    EXPECT_EQ(database.rowCount("T"), static_cast<std::size_t>(kRows));
    for (std::int64_t id = 0; id < kRows; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out)) << id;
        EXPECT_EQ(out.values[1].i, id < 32 ? -id : id * 3) << id;
    }
}

} // namespace
} // namespace db
} // namespace espresso

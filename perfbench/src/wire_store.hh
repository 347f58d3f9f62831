/**
 * @file
 * The served store both wire workloads run against: a 4-member
 * ShardedDatabase behind one reactor Server, plus counter snapshots
 * of every layer it crosses.
 */

#ifndef PERFBENCH_WIRE_STORE_HH
#define PERFBENCH_WIRE_STORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/sharded_database.hh"
#include "harness.hh"
#include "net/server.hh"
#include "net/wire_client.hh"

namespace perfbench {

/** Layer counters at one instant; subtract two for a phase. */
struct WireCounters
{
    std::uint64_t memberFences = 0, memberLines = 0, memberFlushCalls = 0;
    std::uint64_t coordFences = 0, coordLines = 0;
    std::uint64_t gcTxns = 0, gcBatches = 0, gcWindowTimeouts = 0;
    std::uint64_t frames = 0, admissionRejects = 0;

    WireCounters operator-(const WireCounters &o) const;
};

class WireStore
{
  public:
    static constexpr unsigned kMembers = 4;

    /** Build the members and create @p schema; the fence model is
     * off until setFenceLatency(). */
    WireStore(const espresso::db::TableSchema &schema,
              std::size_t rows_per_member);
    ~WireStore();

    WireStore(const WireStore &) = delete;
    WireStore &operator=(const WireStore &) = delete;

    espresso::db::ShardedDatabase &db() { return *db_; }

    /** Set the modeled fence latency on every member device and the
     * coordinator device (sleeping, serialized per device). Callers
     * are quiesced: no thread may be inside the store. */
    void setFenceLatency(std::uint64_t ns);

    void startServer();
    void stopServer();
    std::uint16_t port() const { return server_->port(); }

    WireCounters counters() const;

  private:
    std::unique_ptr<espresso::db::ShardedDatabase> db_;
    std::unique_ptr<espresso::net::Server> server_;
};

/** The net.*, db.* and nvm.member / nvm.coord metrics of a wire
 * workload's traced run, except db.txn.*: @p t is the traced wire
 * phase, @p d the counters it moved, @p inproc the spans of the
 * in-process replay, and @p ops what counts are divided by. */
void setWireLayers(Report &l, const PhaseTotals &t, const WireCounters &d,
                   const TraceSet &inproc, double ops, double recovery_ms);

/** Connect @p n clients to @p port; throws on failure. */
std::vector<std::unique_ptr<espresso::net::WireClient>>
connectClients(std::uint16_t port, unsigned n);

/** Receive one response frame; throws when the connection breaks. */
espresso::net::FrameView
recvOrThrow(espresso::net::WireClient &c, std::vector<std::uint8_t> *buf);

/** The i64 column @p col of a kGet response row. */
std::int64_t rowI64(const espresso::net::FrameView &f, std::size_t col);

} // namespace perfbench

#endif // PERFBENCH_WIRE_STORE_HH

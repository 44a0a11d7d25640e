// The in-process load generator: operations, a closed loop over blocking
// AuthClients and an open loop that one thread drives over raw sockets.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "fixtures.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"

namespace perfbench {

enum class OpType { kVerify, kPredict, kChain, kEnroll };
inline constexpr int kOpTypeCount = 4;
const char* op_name(OpType type);

/// One generated request (a chain is one session: CHALLENGE, holder proof,
/// CHAINED_AUTH).
struct Op {
  OpType type = OpType::kVerify;
  const Device* device = nullptr;  ///< target device (null for ENROLL)
  Challenge challenge;             ///< PREDICT
  std::shared_ptr<const VerifyItem> verify;  ///< VERIFY
  ppuf::net::EnrollRequestBody enroll;       ///< ENROLL
  double due_s = 0.0;              ///< open loop: send time after start

  /// Fold everything this op will put on the wire into `fp`.
  void fingerprint(Fingerprint& fp) const;
};

/// What one operation came back with.
struct OpResult {
  ppuf::util::Status status;  ///< transport or typed wire error
  double rtt_us = 0.0;        ///< round trip(s); a chain excludes the proof
  double lag_us = 0.0;        ///< how late the generator sent it
  ppuf::SimulationModel::Prediction prediction;
  ppuf::protocol::AuthenticationResult verdict;
  ppuf::net::ChallengeGrant grant;
  ppuf::protocol::ChainedReport chain_report;
  ppuf::protocol::ChainedVerifyResult chain_verdict;
  std::uint64_t enrolled_id = 0;
};

/// Compact record of one executed op, written into storage sized before
/// the run so recording allocates nothing that grows with throughput (the
/// peak-memory metric is the serving stack's, not the generator's).  The
/// op itself is found again from (conn, index): a closed loop's stream is
/// a pure function of them, an open loop's index is a schedule position.
struct Outcome {
  std::uint32_t conn = 0;
  std::uint32_t index = 0;
  ppuf::util::StatusCode code = ppuf::util::StatusCode::kOk;
  bool accepted = false;  ///< VERIFY / chain verdict
  int bit = 0;            ///< PREDICT reply
  double flow_a = 0.0, flow_b = 0.0;
  double rtt_us = 0.0, lag_us = 0.0;
  std::uint64_t enrolled_id = 0;
};

struct LoadResult {
  /// Outcome storage per connection (an open loop uses one slot); the
  /// first count[c] entries of conns[c] are valid.
  std::vector<std::vector<Outcome>> conns;
  std::vector<std::size_t> count;
  /// Full results of failures (their messages) and, when `keep_chains`
  /// is set, of chain sessions (the server's grant and the proof, for the
  /// traced replay), by (conn, index).
  std::map<std::pair<std::uint32_t, std::uint32_t>, OpResult> kept;
  bool keep_chains = false;
  double elapsed_s = 0.0;
  std::uint64_t client_retries = 0;

  /// Size and touch the outcome storage (before the memory baseline).
  void prepare(std::size_t slots, std::size_t per_slot);
  std::size_t size() const;
};

/// An op and its result, rebuilt from a LoadResult for checks and replay.
struct Executed {
  Op op;
  OpResult result;
};
using OpLookup = std::function<Op(std::uint32_t conn, std::uint32_t index)>;
std::vector<Executed> expand(const LoadResult& load, const OpLookup& lookup);

/// Synchronous execution of one op over a blocking client.
void execute(ppuf::net::AuthClient& client, const Op& op, OpResult* out);

/// Closed loop: `connections` threads, each with its own AuthClient,
/// sending `stream(conn, i)` back to back for `seconds`.  `out` must be
/// prepared with one slot per connection.
using OpStream = std::function<Op(unsigned conn, std::size_t index)>;
void run_closed_loop(std::uint16_t port, unsigned connections, double seconds,
                     const OpStream& stream, LoadResult* out);

/// Open loop: one thread sends `schedule` at each op's due time over
/// `connections` sockets (each op to the connection with the fewest
/// sessions in flight; a chain stays on its connection) and times every
/// op from its due time.  Replies still missing
/// `drain_s` after the last send count as kDeadlineExceeded.  `out` must
/// be prepared with one slot of schedule.size(); outcomes are recorded as
/// ops complete and left in schedule order.
void run_open_loop(std::uint16_t port, unsigned connections,
                   const std::vector<Op>& schedule, double drain_s,
                   LoadResult* out);

}  // namespace perfbench

/**
 * @file
 * Open-loop request generator: one thread sends every request of a
 * schedule at its due time, whether or not earlier ones have been
 * answered, over one lva-rpc-v1 connection per request (the daemon
 * serves a connection on one handler until the client closes it, so
 * keep-alive would turn the open loop into a closed one).
 *
 * Latency is timed from each request's due time, not from when it
 * was actually sent, so a stall in the generator or the daemon is
 * charged to every request it delays; how late the generator sent
 * each request is recorded separately.
 */

#ifndef PERFBENCH_OPENLOOP_HH
#define PERFBENCH_OPENLOOP_HH

#include <string>
#include <vector>

#include "util/types.hh"

namespace perfbench {

/** One request of a schedule: when it is due and what it sends. */
struct Due
{
    double due = 0.0;            ///< absolute nowSeconds() time
    const std::string *payload;  ///< request JSON (not owned)
};

/** What happened to one request. */
struct Reply
{
    double due = 0.0;
    double sent = 0.0;    ///< when the generator began sending it
    double done = 0.0;    ///< when the whole response had arrived
    bool answered = false;///< a complete response frame arrived
    std::string response; ///< its payload
    std::string error;    ///< transport failure, when not answered

    double latency() const { return done - due; }
    double lateness() const { return sent - due; }
};

/**
 * Run @p schedule (sorted by due time) against 127.0.0.1:@p port and
 * return one Reply per request, in schedule order. A request still
 * unanswered @p timeoutS after its due time fails.
 */
std::vector<Reply> runOpenLoop(lva::u16 port,
                               const std::vector<Due> &schedule,
                               double timeoutS);

/** Encode one lva-rpc-v1 frame: "LVA1", u32 big-endian length, body. */
std::string encodeFrame(const std::string &payload);

} // namespace perfbench

#endif // PERFBENCH_OPENLOOP_HH

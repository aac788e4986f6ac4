/**
 * @file
 * Minimal localhost TCP transport + request framing for the
 * evaluation service (`lva-rpc-v1`, docs/serving.md).
 *
 * The serving layer deliberately speaks a tiny, fully specified wire
 * format instead of pulling in an RPC dependency: every message is
 * one *frame* — an 8-byte header (the 4-byte magic "LVA1" followed by
 * the payload length as a 4-byte big-endian integer) and then exactly
 * that many payload bytes (UTF-8 JSON at the layer above). A reader
 * can therefore always distinguish a clean end-of-stream (EOF at a
 * frame boundary) from a truncated or corrupt one (EOF mid-frame, bad
 * magic, oversize length), which is what lets the server drop a
 * malformed client without ever desynchronizing or blocking forever.
 *
 * Deadlines: every blocking operation takes a timeout in
 * milliseconds, enforced with poll(2) against a monotonic
 * (steady_clock) deadline — no wall-clock reads, so the lint rules of
 * DESIGN.md section 12 hold. Timeout 0 means "no deadline".
 *
 * Sends use MSG_NOSIGNAL: a peer that disconnects mid-response
 * surfaces as a NetError on the handler thread, never as a
 * process-wide SIGPIPE.
 */

#ifndef LVA_UTIL_NET_HH
#define LVA_UTIL_NET_HH

#include <stdexcept>
#include <string>

#include "util/types.hh"

namespace lva {

/** What every transport-layer failure (and deadline expiry) raises. */
class NetError : public std::runtime_error
{
  public:
    explicit NetError(const std::string &msg)
        : std::runtime_error(msg) {}
};

/** Largest frame payload either side accepts (64 MiB). */
std::size_t frameMaxBytes();

/** The 4 magic bytes opening every frame ("LVA1"). */
const char *frameMagic();

/**
 * One connected TCP socket (movable, closes on destruction).
 *
 * All I/O helpers loop until the full count is transferred, throwing
 * NetError on error, EOF mid-transfer, or deadline expiry.
 */
class TcpStream
{
  public:
    TcpStream() = default;

    /** Adopt an already-connected socket (takes ownership). */
    explicit TcpStream(int fd) : fd_(fd) {}

    ~TcpStream() { close(); }

    TcpStream(TcpStream &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }

    TcpStream &
    operator=(TcpStream &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }

    TcpStream(const TcpStream &) = delete;
    TcpStream &operator=(const TcpStream &) = delete;

    /**
     * Connect to @p host:@p port (numeric address, normally
     * "127.0.0.1") within @p timeoutMs; throws NetError on refusal
     * or deadline expiry.
     */
    static TcpStream connectTo(const std::string &host, u16 port,
                               u64 timeoutMs);

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    void close();

    /** Write all @p n bytes within @p timeoutMs. */
    void sendAll(const void *data, std::size_t n, u64 timeoutMs);

    /**
     * Read exactly @p n bytes within @p timeoutMs. @p eofOk permits a
     * clean EOF *before the first byte* (returns false); EOF after a
     * partial read always throws.
     */
    bool recvExact(void *data, std::size_t n, u64 timeoutMs,
                   bool eofOk = false);

  private:
    int fd_ = -1;
};

/**
 * A listening localhost socket. Construct with port 0 to let the
 * kernel pick an ephemeral port (tests, port-file discovery).
 *
 * The listener also owns a self-pipe that acceptOne() polls beside
 * the socket, so another thread or a signal handler can end a wait
 * at once with wake() instead of the accept loop ticking on a
 * timeout to notice a stop flag.
 */
class TcpListener
{
  public:
    /** Bind 127.0.0.1:@p port and listen; throws NetError. */
    explicit TcpListener(u16 port);

    ~TcpListener() { close(); }

    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    /** The bound port (resolved after an ephemeral bind). */
    u16 port() const { return port_; }

    bool valid() const { return fd_ >= 0; }

    /**
     * Accept one connection, waiting at most @p timeoutMs (0 = wait
     * forever). Returns an invalid stream on timeout or after a
     * wake(); throws NetError on a closed or broken listener.
     */
    TcpStream acceptOne(u64 timeoutMs);

    /**
     * End the acceptOne() in progress, or the next one, with an
     * invalid stream. One write(2) to the self-pipe, so it is
     * async-signal-safe and callable from any thread.
     */
    void wake();

    void close();

  private:
    int fd_ = -1;
    int wakeRd_ = -1; ///< self-pipe read end, polled by acceptOne
    int wakeWr_ = -1; ///< self-pipe write end, written by wake
    u16 port_ = 0;
};

/**
 * Write @p payload as one frame (magic + big-endian length + bytes).
 * Payloads larger than frameMaxBytes() are refused with NetError
 * before anything is sent.
 */
void writeFrame(TcpStream &stream, const std::string &payload,
                u64 timeoutMs);

/**
 * Read one frame into @p payload. Returns false on a clean EOF at a
 * frame boundary (the peer finished and closed). Throws NetError on
 * bad magic, an oversize length, EOF mid-frame, or deadline expiry.
 */
bool readFrame(TcpStream &stream, std::string &payload, u64 timeoutMs);

} // namespace lva

#endif // LVA_UTIL_NET_HH

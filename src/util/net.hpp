#pragma once
// Shared low-level socket/process plumbing for the pool transport
// (mr/transport.cpp) and the serving daemon (serve/, tools/gdiamd.cpp).
//
// Everything here deals with the three failure modes that plague naive
// socket code and must never corrupt a BSP superstep or a served request:
//
//   * partial reads/writes and EINTR — write_all/read_exact loop until the
//     full buffer crossed the descriptor (or the peer is provably gone);
//   * SIGPIPE — write_all sends with MSG_NOSIGNAL on sockets (falling back
//     to write(2) for pipes/regular fds), so a dead peer surfaces as an
//     EPIPE return value the caller can handle, never a process-killing
//     signal;
//   * zombie children — reap_child waits with a *bounded* deadline,
//     escalating SIGTERM → SIGKILL rather than hanging teardown forever on
//     a wedged worker.
//
// The helpers are deliberately exception-free at the I/O layer (bool/EOF
// returns); callers own the error story (PoolTransport turns a torn frame
// into a worker restart, the daemon into a dropped connection).
//
// write_all and read_exact carry the "net.send" / "net.recv" fault points
// (util/fault.hpp, DESIGN.md §11): an armed schedule can fail them with an
// errno, delay them, or tear the frame mid-transfer — which is how the
// chaos suite drives every torn-frame and peer-gone recovery path above
// from outside, deterministically.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gdiam::util::net {

/// Writes all `len` bytes to `fd`, riding out partial writes and EINTR.
/// Uses send(MSG_NOSIGNAL) on sockets so a closed peer yields EPIPE instead
/// of SIGPIPE. Returns false (with errno set) when the peer is gone or the
/// descriptor is broken.
bool write_all(int fd, const void* data, std::size_t len) noexcept;

/// Like write_all, but gives up after `timeout_ms` of the peer not draining
/// its socket (errno = ETIMEDOUT) instead of blocking forever on a stalled
/// reader. Socket fds only (uses MSG_DONTWAIT + poll). timeout_ms <= 0
/// degrades to plain write_all.
bool write_all_timeout(int fd, const void* data, std::size_t len,
                       int timeout_ms) noexcept;

/// Reads exactly `len` bytes into `data`. Returns false on EOF or error
/// (errno == 0 distinguishes clean EOF from a real error).
bool read_exact(int fd, void* data, std::size_t len) noexcept;

/// u64 framing used by every gdiam wire format (host order; all peers are
/// forks or same-host daemon clients).
bool write_u64(int fd, std::uint64_t v) noexcept;
bool read_u64(int fd, std::uint64_t& v) noexcept;

/// Appends a host-order u64 to a byte buffer (frame assembly).
void append_u64(std::vector<std::byte>& out, std::uint64_t v);

/// Outcome of reaping one child process.
struct ReapResult {
  bool reaped = false;      // waitpid succeeded (false: no such child)
  bool sigtermed = false;   // deadline expired; child was sent SIGTERM
  bool sigkilled = false;   // SIGTERM grace expired too; child was SIGKILLed
  int status = 0;           // raw waitpid status when reaped
};

/// Reaps `pid` with a bounded, EINTR-clean wait: polls WNOHANG for up to
/// `timeout_ms`, then escalates SIGTERM (a wedged-but-cooperative child can
/// still clean up), grants a short grace, then SIGKILLs and does one final
/// blocking wait. Never hangs on a wedged child, never leaks a zombie or a
/// stuck child for a killable one.
ReapResult reap_child(pid_t pid, int timeout_ms) noexcept;

/// Creates, binds and listens on an AF_UNIX stream socket at `path`
/// (unlinking any stale socket first). Throws std::runtime_error on failure
/// (path too long for sun_path, bind/listen errors).
int listen_unix(const std::string& path, int backlog);

/// Connects to the AF_UNIX stream socket at `path`. Throws on failure.
int connect_unix(const std::string& path);

}  // namespace gdiam::util::net

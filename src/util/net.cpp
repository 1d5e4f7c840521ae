#include "util/net.hpp"

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/fault.hpp"

namespace gdiam::util::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void sleep_ms(int ms) noexcept {
  timespec ts{ms / 1000, static_cast<long>(ms % 1000) * 1000000L};
  ::nanosleep(&ts, nullptr);
}

}  // namespace

namespace {

bool write_all_raw(int fd, const char* p, std::size_t len) noexcept {
  bool use_send = true;  // downgraded once if fd is not a socket
  while (len > 0) {
    ssize_t n;
    if (use_send) {
      n = ::send(fd, p, len, MSG_NOSIGNAL);
      if (n < 0 && errno == ENOTSOCK) {
        use_send = false;  // pipe or regular fd; caller must mask SIGPIPE
        continue;
      }
    } else {
      n = ::write(fd, p, len);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool write_all(int fd, const void* data, std::size_t len) noexcept {
  const char* p = static_cast<const char*>(data);
  const fault::Outcome f = fault::check("net.send");
  if (f.fail) return false;  // errno set by the fault point
  if (f.short_io) {
    // Torn frame: put a real prefix on the wire (the peer sees a frame that
    // stops mid-payload), then report the peer gone.
    if (len > 1) write_all_raw(fd, p, len / 2);
    errno = EPIPE;
    return false;
  }
  return write_all_raw(fd, p, len);
}

bool write_all_timeout(int fd, const void* data, std::size_t len,
                       int timeout_ms) noexcept {
  if (timeout_ms <= 0) return write_all(fd, data, len);
  const char* p = static_cast<const char*>(data);
  const fault::Outcome f = fault::check("net.send");
  if (f.fail) return false;
  if (f.short_io) {
    if (len > 1) write_all_raw(fd, p, len / 2);
    errno = EPIPE;
    return false;
  }
  int remaining = timeout_ms;
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      p += n;
      len -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return false;
    // Socket buffer full: wait (bounded) for the peer to drain it. A peer
    // that never reads is a stalled client, not a reason to wedge a server
    // thread forever.
    if (remaining <= 0) {
      errno = ETIMEDOUT;
      return false;
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int slice = remaining < 100 ? remaining : 100;
    const int r = ::poll(&pfd, 1, slice);
    if (r < 0 && errno != EINTR) return false;
    remaining -= slice;
  }
  return true;
}

bool read_exact(int fd, void* data, std::size_t len) noexcept {
  char* p = static_cast<char*>(data);
  const fault::Outcome f = fault::check("net.recv");
  if (f.fail) return false;  // errno set by the fault point
  if (f.short_io) {
    // Peer gone mid-frame: consume (and drop) a prefix of the stream so the
    // connection is genuinely desynced, then report EOF-in-frame.
    if (len > 1) {
      std::size_t part = len / 2;
      while (part > 0) {
        const ssize_t n = ::read(fd, p, part);
        if (n <= 0) break;
        part -= static_cast<std::size_t>(n);
      }
    }
    errno = 0;
    return false;
  }
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {  // EOF mid-frame: peer is gone
      errno = 0;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

void BufferedReader::reset(int fd, int spin_us) {
  // Large enough that a superstep's reply or input frame usually arrives in
  // one read; a longer frame grows the buffer, which keeps the capacity.
  constexpr std::size_t kMinBuffer = 64 * 1024;
  if (cap_ < kMinBuffer) {
    buf_ = std::make_unique_for_overwrite<std::byte[]>(kMinBuffer);
    cap_ = kMinBuffer;
  }
  fd_ = fd;
  spin_us_ = spin_us;
  pos_ = 0;
  end_ = 0;
}

const std::byte* BufferedReader::take(std::size_t len) {
  if (end_ - pos_ < len) {
    // Move the untaken tail to the front of a buffer that holds the whole
    // request, and refill until it is all there.
    const std::size_t tail = end_ - pos_;
    if (cap_ < len) {
      auto bigger = std::make_unique_for_overwrite<std::byte[]>(len);
      std::memcpy(bigger.get(), buf_.get() + pos_, tail);
      buf_ = std::move(bigger);
      cap_ = len;
    } else {
      std::memmove(buf_.get(), buf_.get() + pos_, tail);
    }
    pos_ = 0;
    end_ = tail;
    while (end_ < len) {
      const ssize_t n = refill();
      if (n <= 0) return nullptr;
      end_ += static_cast<std::size_t>(n);
    }
  }
  const std::byte* p = buf_.get() + pos_;
  pos_ += len;
  return p;
}

ssize_t BufferedReader::refill() noexcept {
  std::byte* data = buf_.get() + end_;
  const std::size_t cap = cap_ - end_;
  const fault::Outcome f = fault::check("net.recv");
  if (f.fail) return -1;  // errno set by the fault point
  if (f.short_io) {
    // Peer gone mid-frame: drop what arrives so the stream is genuinely
    // desynced, then report EOF-in-frame.
    while (::read(fd_, data, cap > 1 ? cap / 2 : 1) < 0 && errno == EINTR) {
    }
    errno = 0;
    return 0;
  }
  if (spin_us_ > 0 && skip_ == 0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(spin_us_);
    bool waited = false;
    do {
      const ssize_t n = ::recv(fd_, data, cap, MSG_DONTWAIT);
      if (n >= 0) {
        if (waited) backoff_ = 0;  // the spin paid off
        if (n == 0) errno = 0;
        return n;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return -1;
      }
      waited = true;
    } while (std::chrono::steady_clock::now() < deadline);
    // The peer took longer than the budget: a long step, an idle pool, or a
    // box with more runnable threads than CPUs, where spinning only takes
    // the CPU from the process it waits for. Block through the next 1, 3,
    // 7, ... waits (at most kMaxSkip) before the next try; a spin that pays
    // off resets the count.
    constexpr unsigned kMaxSkip = 63;
    backoff_ = std::min(2 * backoff_ + 1, kMaxSkip);
    skip_ = backoff_;
  } else if (skip_ > 0) {
    --skip_;
  }
  for (;;) {
    const ssize_t n = ::read(fd_, data, cap);
    if (n >= 0) {
      if (n == 0) errno = 0;
      return n;
    }
    if (errno != EINTR) return -1;
  }
}

bool BufferedReader::take_u64(std::uint64_t& v) {
  const std::byte* p = take(sizeof v);
  if (p == nullptr) return false;
  std::memcpy(&v, p, sizeof v);
  return true;
}

unsigned usable_cpus() noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

bool write_u64(int fd, std::uint64_t v) noexcept {
  return write_all(fd, &v, sizeof v);
}

bool read_u64(int fd, std::uint64_t& v) noexcept {
  return read_exact(fd, &v, sizeof v);
}

void append_u64(std::vector<std::byte>& out, std::uint64_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

namespace {

/// WNOHANG poll for up to `timeout_ms`, EINTR-clean. Returns 1 when the
/// child was reaped into `out`, 0 on deadline, -1 when there is no such
/// child to wait for (ECHILD: already reaped elsewhere).
int poll_reap(pid_t pid, int timeout_ms, ReapResult& out) noexcept {
  int waited = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &out.status, WNOHANG);
    if (r == pid) {
      out.reaped = true;
      return 1;
    }
    if (r < 0) {
      if (errno == EINTR) continue;  // signal hit the poll, not the child
      return -1;                     // ECHILD
    }
    if (waited >= timeout_ms) return 0;
    // Coarse 1ms poll: teardown is rare and the common case (child already
    // exited) never sleeps at all.
    sleep_ms(1);
    waited += 1;
  }
}

}  // namespace

ReapResult reap_child(pid_t pid, int timeout_ms) noexcept {
  ReapResult out;
  int r = poll_reap(pid, timeout_ms, out);
  if (r != 0) return out;
  // Deadline expired: the child is wedged. SIGTERM first — a stuck-but-
  // cooperative child (blocked on a dead socket, say) can still run its
  // cleanup — with a short grace before the hammer.
  out.sigtermed = true;
  ::kill(pid, SIGTERM);
  const int grace_ms = timeout_ms < 1000 ? (timeout_ms > 0 ? timeout_ms : 1)
                                         : 1000;
  r = poll_reap(pid, grace_ms, out);
  if (r != 0) return out;
  // SIGTERM ignored or handled into a hang: SIGKILL cannot be, so this
  // final blocking wait is bounded in practice — the stuck child is
  // escalated away, never leaked.
  out.sigkilled = true;
  ::kill(pid, SIGKILL);
  pid_t w;
  do {
    w = ::waitpid(pid, &out.status, 0);
  } while (w < 0 && errno == EINTR);
  out.reaped = (w == pid);
  return out;
}

int listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("bind " + path);
  }
  if (::listen(fd, backlog) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("listen " + path);
  }
  return fd;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("connect " + path);
  }
  return fd;
}

}  // namespace gdiam::util::net

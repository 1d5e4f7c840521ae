#pragma once
// Deterministic fault injection (DESIGN.md §11).
//
// Every place gdiam talks to the OS — socket sends/recvs, worker spawns,
// graph loads, the daemon scheduler — carries a *named fault point*: one
// call to fault::check("site") on the path. Disarmed (the production state)
// a fault point costs a single relaxed atomic load; armed, the site's
// configured action fires:
//
//   errno[:E]   — the call fails with errno E (default EIO): write_all /
//                 read_exact return false, spawn paths throw;
//   delay[:MS]  — the call sleeps MS milliseconds (default 50) and proceeds;
//   short       — a torn I/O: write_all sends a *prefix* of the buffer then
//                 reports the peer gone (EPIPE); read_exact consumes part of
//                 the stream then reports EOF-mid-frame (errno = 0);
//   kill        — SIGKILL: the victim pid the call site names (a pool
//                 worker), or the calling process when the site names none
//                 (a worker-side site killing itself mid-superstep).
//
// Schedules are *deterministic*: a site fires on exactly the Nth hit
// (`@N`, counted per process — a forked worker counts its own hits), or
// per-hit with probability p from a seeded hash of (seed, hit index)
// (`%p:seed`) — a pure function, so a failure schedule replays exactly, in
// every process, on every run. That is what lets the chaos suite assert
// survived runs bit-identical to clean runs instead of merely "didn't
// crash" (the PASGAL-style reproducibility lever, PAPERS.md).
//
// Spec grammar (GDIAM_FAULTS env var, `gdiamd --faults`, the daemon `fault`
// verb, or fault::arm() in tests); sites are listed in DESIGN.md §11:
//
//   spec    := point (';' point)*
//   point   := site '=' kind [':' arg] [trigger]
//   kind    := 'errno' | 'delay' | 'short' | 'kill'
//   trigger := '@' N            — fire on the Nth hit only (1-based)
//            | '%' p [':' seed] — fire each hit with probability p
//
//   GDIAM_FAULTS="pool.ship=kill@2;net.send=errno:EPIPE%0.01:42"

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>

namespace gdiam::util::fault {

/// What fired at a fault point. Delay faults are applied inside check()
/// (the site just proceeds afterwards); kill faults never return to sites
/// that name no victim. `fail` and `short_io` are mutually exclusive.
struct Outcome {
  /// An errno fault fired: errno is set; the call site should fail the
  /// operation exactly as if the OS had returned that errno.
  bool fail = false;
  /// A short-I/O fault fired: the call site should present a torn frame /
  /// peer-gone-mid-frame to its caller.
  bool short_io = false;
};

namespace detail {
/// Number of armed fault points. The *only* cost a disarmed site pays is
/// one relaxed load of this counter.
extern std::atomic<std::uint32_t> g_armed;
Outcome check_slow(const char* site, pid_t victim) noexcept;
}  // namespace detail

/// The fault point. `victim` is the pid a kill fault targets (a pool
/// worker's pid at coordinator call sites); victim < 0 means "the calling
/// process" (worker-side sites). Near-zero cost while disarmed.
inline Outcome check(const char* site, pid_t victim = -1) noexcept {
  if (detail::g_armed.load(std::memory_order_relaxed) == 0) return {};
  return detail::check_slow(site, victim);
}

/// Parses `spec` (grammar above) and arms the schedule, replacing any
/// previous one. Hit counters start at zero. Throws std::invalid_argument
/// on malformed specs (the previous schedule stays armed).
void arm(const std::string& spec);

/// Arms from the GDIAM_FAULTS environment variable if set. Returns false
/// (with a message on stderr) on a malformed value instead of throwing —
/// tool mains call this before argument parsing.
bool arm_from_env() noexcept;

/// Disarms every fault point and clears the schedule.
void disarm() noexcept;

[[nodiscard]] bool armed() noexcept;

/// Times the site's action actually fired (0 for unknown/never-hit sites).
[[nodiscard]] std::uint64_t fired(const std::string& site) noexcept;

/// Times the site was crossed while armed (0 for unknown sites).
[[nodiscard]] std::uint64_t hits(const std::string& site) noexcept;

/// Human-readable schedule with per-site hit/fired counts, one per line:
/// "pool.ship=kill@2 hits=5 fired=1\n..." — the daemon `fault` verb's body.
[[nodiscard]] std::string describe();

}  // namespace gdiam::util::fault

// Progress/diagnostic log sink for benches, examples and evaluation drivers.
//
// Library code returns values and never prints; the *drivers* around it still
// want progress lines ("training LeNet-5...", "computing probes..."). Routing
// those through obs::log() instead of raw printf gives one switch — NOCW_QUIET
// — that silences every progress line at once (CI logs, scripted sweeps),
// while result tables keep flowing through bench::emit / util/table. The
// output.print rule of tools/nocw_analyze.py bans std::printf in bench/
// outside the sanctioned emission point, so a new progress print cannot
// quietly bypass the switch.
#pragma once

#include <cstdarg>

namespace nocw::obs {

/// True when NOCW_QUIET is set to a nonzero value (read once per process).
[[nodiscard]] bool quiet() noexcept;

/// Test/driver override for the NOCW_QUIET switch.
void set_quiet(bool quiet) noexcept;

/// printf-style progress line to stdout, suppressed when quiet(). A trailing
/// newline is NOT added; callers keep full printf control. Returns true when
/// the line was actually emitted (false under NOCW_QUIET), so tests can
/// assert the switch works without capturing stdout.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
bool log(const char* fmt, ...);

/// va_list form of log(), for wrappers.
bool vlog(const char* fmt, std::va_list args);

}  // namespace nocw::obs

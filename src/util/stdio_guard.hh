/**
 * @file
 * EPIPE-safe stdout for CLI tools.
 *
 * `whisper_trace_stats trace.whrt | head` closes the pipe after ten
 * lines; without protection the next printf delivers SIGPIPE and the
 * tool dies mid-report with a 141. guardStdio() turns that into the
 * POSIX error path: writes to the dead pipe fail with EPIPE, the
 * stream's error flag latches, and the tool can finish and exit
 * normally.
 */

#ifndef WHISPER_UTIL_STDIO_GUARD_HH
#define WHISPER_UTIL_STDIO_GUARD_HH

#include <csignal>

namespace whisper
{

/** Call first thing in main(): SIGPIPE becomes EPIPE. */
inline void
guardStdio()
{
    std::signal(SIGPIPE, SIG_IGN);
}

} // namespace whisper

#endif // WHISPER_UTIL_STDIO_GUARD_HH

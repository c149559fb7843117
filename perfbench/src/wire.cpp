#include "wire.hpp"

#include <sys/socket.h>
#include <sys/types.h>

#include <atomic>

namespace {
std::atomic<std::uint64_t> g_bytes_in{0};
std::atomic<std::uint64_t> g_bytes_out{0};
std::atomic<std::uint64_t> g_recv_calls{0};
std::atomic<std::uint64_t> g_send_calls{0};
}  // namespace

extern "C" {
ssize_t __real_send(int fd, const void* buf, size_t n, int flags);
ssize_t __real_recv(int fd, void* buf, size_t n, int flags);

ssize_t __wrap_send(int fd, const void* buf, size_t n, int flags) {
  const ssize_t r = __real_send(fd, buf, n, flags);
  g_send_calls.fetch_add(1, std::memory_order_relaxed);
  if (r > 0) g_bytes_out.fetch_add(static_cast<std::uint64_t>(r), std::memory_order_relaxed);
  return r;
}

ssize_t __wrap_recv(int fd, void* buf, size_t n, int flags) {
  const ssize_t r = __real_recv(fd, buf, n, flags);
  g_recv_calls.fetch_add(1, std::memory_order_relaxed);
  if (r > 0) g_bytes_in.fetch_add(static_cast<std::uint64_t>(r), std::memory_order_relaxed);
  return r;
}
}

namespace perfbench {

WireCounts wire_counts() {
  return {static_cast<double>(g_bytes_in.load()), static_cast<double>(g_bytes_out.load()),
          static_cast<double>(g_recv_calls.load()), static_cast<double>(g_send_calls.load())};
}

}  // namespace perfbench

// Coordinator wire counters for the cluster model.
//
// /proc/self/io does not count send(2)/recv(2) on sockets, so the
// benchmark build links the runtime with -Wl,--wrap=send,--wrap=recv and
// counts every call and byte at that boundary. Counts are per process:
// read in the benchmark process they cover the coordinator only, since the
// cluster members are forked children with their own copies.
#pragma once

#include <cstdint>

namespace perfbench {

struct WireCounts {
  double bytes_in = 0.0;
  double bytes_out = 0.0;
  double recv_calls = 0.0;
  double send_calls = 0.0;
};

WireCounts wire_counts();

}  // namespace perfbench

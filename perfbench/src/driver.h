// The load driver: one thread multiplexing nonblocking loopback
// connections over epoll. It runs either a closed loop (each connection
// sends a pipeline of `depth` requests, waits for all replies, repeats) or
// an open loop (requests are due at fixed intervals; latency is charged
// from the due time, so a stall is paid by every request queued behind
// it). Pacing waits use epoll_pwait2's nanosecond timeout under a 1 ns
// timer slack, not poll(2)'s milliseconds.
//
// Routing: every operation on a key travels on connection key % conns, so
// each key's writes are ordered on one connection and its reads never race
// them (see perfbench/README.md for why reads may not take another
// connection). Every reply is verified by the Checker as it arrives.

#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "workload.h"

namespace perfbench {

int64_t NowNs();

/// One RESP reply decoded from a buffer (views point into the buffer).
struct Reply {
  char type = 0;  // '+', '-', ':', '$' (bulk) or 'n' (nil).
  const char* data = nullptr;
  size_t len = 0;
};
/// Returns bytes consumed, 0 when the reply is incomplete, -1 when the
/// bytes are not RESP.
long ParseReply(const char* buf, size_t len, Reply* out);

/// Per-window latency samples (ns) of one phase, by operation type.
class Recorder {
 public:
  Recorder(int64_t t0_ns, int64_t window_ns, int windows);
  void Done(Op::Type type, int64_t start_ns, int64_t end_ns);
  void Late(int64_t late_ns) { late_ns_.push_back(Clamp(late_ns)); }

  int windows() const { return static_cast<int>(ops_.size()); }
  std::vector<uint32_t>* latencies(int window, Op::Type type) {
    return &lat_[type][window];
  }
  uint64_t ops(int window) const { return ops_[window]; }
  std::vector<uint32_t>* late() { return &late_ns_; }
  uint32_t max_ns(Op::Type type) const { return max_[type]; }

 private:
  static uint32_t Clamp(int64_t ns) {
    return ns < 0 ? 0 : ns > 4000000000ll ? 4000000000u
                                          : static_cast<uint32_t>(ns);
  }
  int64_t t0_ns_;
  int64_t window_ns_;
  std::vector<std::vector<uint32_t>> lat_[2];
  std::vector<uint64_t> ops_;
  std::vector<uint32_t> late_ns_;
  uint32_t max_[2] = {0, 0};
};

struct DriverOptions {
  int conns = 1;
  int depth = 1;
  /// Open-loop offered rate in ops/s; 0 runs a closed loop.
  double rate = 0;
  /// Echo mode: the peer returns the request bytes verbatim (the loopback
  /// floor); replies are matched by length and content, not RESP.
  bool echo = false;
  /// Open a separate control connection for INFO / SHUTDOWN.
  bool control = false;
};

class Driver {
 public:
  Driver(uint16_t port, DriverOptions options, Checker* checker);
  ~Driver();
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Pipeline depth and open-loop rate (0 = closed loop) of later Runs.
  void Configure(int depth, double rate) {
    options_.depth = depth;
    options_.rate = rate;
  }

  /// False (with error()) when a connection could not be made.
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// Yields the next operation; false when the source is exhausted.
  using Source = std::function<bool(Op*)>;
  /// INFO sampling while running: called with the time; returns the
  /// interval to the next sample in ns (0 = no sampling).
  using InfoInterval = std::function<int64_t(int64_t now_ns)>;
  using InfoSink = std::function<void(const std::string& info)>;

  /// Sends operations until `deadline_ns` or until the source runs dry,
  /// then waits for every reply. In the open loop every operation due
  /// before the deadline is sent, even when its connection frees up after
  /// it. Returns false on a protocol, connection
  /// or check failure (see error()).
  bool Run(const Source& source, int64_t deadline_ns, Recorder* recorder,
           const InfoInterval& info_interval = nullptr,
           const InfoSink& info_sink = nullptr);

  /// Synchronous INFO on the control connection (connections idle).
  bool Info(std::string* text);
  /// SHUTDOWN on the control connection; waits for the server to close it.
  bool Shutdown();

  uint64_t gets_sent() const { return gets_sent_; }
  uint64_t sets_sent() const { return sets_sent_; }
  uint64_t completed() const { return completed_; }
  uint64_t failed() const { return failed_; }
  /// Time the last reply of the last Run arrived.
  int64_t last_reply_ns() const { return last_reply_ns_; }

 private:
  struct Pending {
    Op op;
    uint32_t version = 0;  // SET: version written; GET: acked at send.
    int64_t start_ns = 0;
    std::string echo;      // Echo mode: the request bytes.
  };
  struct Queued {
    Op op;
    int64_t sched_ns = 0;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    size_t in_off = 0;
    bool want_write = false;
    std::deque<Pending> inflight;
    std::deque<Queued> queue;  // Operations routed to this connection.
    int64_t idle_since_ns = 0;
  };

  bool Fail(const std::string& why);
  void Send(size_t c, const Op& op, int64_t start_ns);
  bool Flush(Conn* conn);
  bool ReadReplies(size_t c, Recorder* recorder);
  bool ReadControl(const InfoSink& sink);
  bool WaitControlReply(std::string* text);
  void SetWriteInterest(Conn* conn, bool on);

  DriverOptions options_;
  Checker* checker_;
  std::vector<Conn> conns_;
  Conn control_;
  bool control_busy_ = false;
  int epfd_ = -1;
  std::string error_;

  uint64_t gets_sent_ = 0;
  uint64_t sets_sent_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  int64_t last_reply_ns_ = 0;
};

/// Runs a loopback echo server on a thread of its own (the floor: the
/// kernel and syscall cost any server pays). Same socket options as the
/// driver's connections.
class EchoServer {
 public:
  EchoServer();
  ~EchoServer();
  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;
  uint16_t port() const { return port_; }

 private:
  void Loop();
  int listen_fd_ = -1;
  int stop_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

/// Reads `/proc/<pid>/stat` user+sys CPU in seconds; -1 on failure.
double ProcessCpuSeconds(int pid);
/// Resident set of `pid` in bytes, current (VmRSS) or peak (VmHWM); 0 on
/// failure.
uint64_t RssBytes(int pid, bool peak);
/// Bytes in the regular files under `path`; 0 when it does not exist.
uint64_t DirBytes(const std::string& path);

/// Value of `field` in an INFO reply; false when absent.
bool InfoField(const std::string& info, const std::string& field,
               uint64_t* value);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_

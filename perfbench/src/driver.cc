#include "driver.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

constexpr uint64_t kControlTag = UINT64_MAX;
constexpr int64_t kStallNs = 30'000'000'000ll;

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void SetNonBlocking(int fd) {
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

int ConnectLoopback(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  SetNoDelay(fd);
  SetNonBlocking(fd);
  return fd;
}

const char kInfoRequest[] = "*1\r\n$4\r\nINFO\r\n";
const char kShutdownRequest[] = "*1\r\n$8\r\nSHUTDOWN\r\n";

}  // namespace

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

long ParseReply(const char* buf, size_t len, Reply* out) {
  if (len < 3) return 0;
  const char* crlf = static_cast<const char*>(memmem(buf, len, "\r\n", 2));
  if (crlf == nullptr) return 0;
  const size_t head = static_cast<size_t>(crlf - buf) + 2;
  switch (buf[0]) {
    case '+':
    case '-':
    case ':':
      out->type = buf[0];
      out->data = buf + 1;
      out->len = head - 3;
      return static_cast<long>(head);
    case '$': {
      if (head == 5 && buf[1] == '-' && buf[2] == '1') {
        out->type = 'n';
        out->data = nullptr;
        out->len = 0;
        return static_cast<long>(head);
      }
      size_t n = 0;
      for (const char* p = buf + 1; p < crlf; ++p) {
        if (*p < '0' || *p > '9' || n > (1u << 30)) return -1;
        n = n * 10 + static_cast<size_t>(*p - '0');
      }
      if (head == 3) return -1;
      if (len < head + n + 2) return 0;
      if (buf[head + n] != '\r' || buf[head + n + 1] != '\n') return -1;
      out->type = '$';
      out->data = buf + head;
      out->len = n;
      return static_cast<long>(head + n + 2);
    }
    default:
      return -1;
  }
}

Recorder::Recorder(int64_t t0_ns, int64_t window_ns, int windows)
    : t0_ns_(t0_ns), window_ns_(window_ns), ops_(windows, 0) {
  lat_[0].resize(windows);
  lat_[1].resize(windows);
}

void Recorder::Done(Op::Type type, int64_t start_ns, int64_t end_ns) {
  int64_t w = (start_ns - t0_ns_) / window_ns_;
  w = std::clamp<int64_t>(w, 0, static_cast<int64_t>(ops_.size()) - 1);
  const uint32_t ns = Clamp(end_ns - start_ns);
  lat_[type][w].push_back(ns);
  ++ops_[w];
  max_[type] = std::max(max_[type], ns);
}

Driver::Driver(uint16_t port, DriverOptions options, Checker* checker)
    : options_(options), checker_(checker), conns_(options.conns) {
  // Nanosecond pacing: without this the kernel may defer a timed wakeup
  // by the default 50 us slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    Fail("epoll_create1 failed");
    return;
  }
  auto add = [this](int fd, uint64_t tag) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = tag;
    epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  };
  for (size_t c = 0; c < conns_.size(); ++c) {
    conns_[c].fd = ConnectLoopback(port);
    if (conns_[c].fd < 0) {
      Fail("cannot connect to 127.0.0.1:" + std::to_string(port));
      return;
    }
    add(conns_[c].fd, c);
  }
  if (options_.control) {
    control_.fd = ConnectLoopback(port);
    if (control_.fd < 0) {
      Fail("cannot connect control connection");
      return;
    }
    add(control_.fd, kControlTag);
  }
}

Driver::~Driver() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) close(c.fd);
  }
  if (control_.fd >= 0) close(control_.fd);
  if (epfd_ >= 0) close(epfd_);
}

bool Driver::Fail(const std::string& why) {
  if (error_.empty()) error_ = why;
  return false;
}

void Driver::SetWriteInterest(Conn* conn, bool on) {
  if (conn->want_write == on) return;
  conn->want_write = on;
  epoll_event ev{};
  ev.events = on ? EPOLLIN | EPOLLOUT : EPOLLIN;
  ev.data.u64 = static_cast<uint64_t>(conn - conns_.data());
  epoll_ctl(epfd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Driver::Send(size_t c, const Op& op, int64_t start_ns) {
  Conn& conn = conns_[c];
  Pending p;
  p.op = op;
  p.start_ns = start_ns;
  const size_t before = conn.out.size();
  if (op.type == Op::kSet) {
    p.version = options_.echo ? 1 : checker_->NextWrite(op.key);
    AppendSet(&conn.out, op.key, p.version, checker_->value_bytes());
    ++sets_sent_;
  } else {
    p.version = checker_->acked(op.key);
    AppendGet(&conn.out, op.key);
    ++gets_sent_;
  }
  if (options_.echo) p.echo = conn.out.substr(before);
  conn.inflight.push_back(std::move(p));
}

bool Driver::Flush(Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    ssize_t n = send(conn->fd, conn->out.data() + conn->out_off,
                     conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      SetWriteInterest(conn, true);
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return Fail(std::string("send: ") + strerror(errno));
    }
  }
  conn->out.clear();
  conn->out_off = 0;
  SetWriteInterest(conn, false);
  return true;
}

bool Driver::ReadReplies(size_t c, Recorder* recorder) {
  Conn& conn = conns_[c];
  char buf[65536];
  while (true) {
    ssize_t n = recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
    } else if (n == 0) {
      return Fail("server closed a load connection");
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      return Fail(std::string("recv: ") + strerror(errno));
    }
  }
  const int64_t now = NowNs();
  while (!conn.inflight.empty()) {
    Pending& p = conn.inflight.front();
    const char* data = conn.in.data() + conn.in_off;
    const size_t avail = conn.in.size() - conn.in_off;
    if (options_.echo) {
      if (avail < p.echo.size()) break;
      if (memcmp(data, p.echo.data(), p.echo.size()) != 0) {
        return Fail("echo returned different bytes");
      }
      conn.in_off += p.echo.size();
    } else {
      Reply r;
      long used = ParseReply(data, avail, &r);
      if (used == 0) break;
      if (used < 0) return Fail("malformed RESP reply");
      conn.in_off += static_cast<size_t>(used);
      if (r.type == '-') {
        ++failed_;
        if (failed_ == 1) {
          fprintf(stderr, "error reply: %.*s\n", static_cast<int>(r.len),
                  r.data);
        }
      } else if (p.op.type == Op::kGet) {
        if (r.type != '$' && r.type != 'n') {
          return Fail("GET answered with a non-bulk reply");
        }
        std::string why;
        if (!checker_->CheckGet(p.op.key, p.version,
                                checker_->sent(p.op.key), r.type == 'n',
                                r.data, r.len, &why)) {
          return Fail("check failed: " + why);
        }
      } else {
        if (r.type != '+' || r.len != 2 || memcmp(r.data, "OK", 2) != 0) {
          return Fail("SET answered with something other than +OK");
        }
        checker_->Ack(p.op.key, p.version);
      }
    }
    if (recorder != nullptr) recorder->Done(p.op.type, p.start_ns, now);
    ++completed_;
    last_reply_ns_ = now;
    conn.inflight.pop_front();
    if (conn.inflight.empty()) conn.idle_since_ns = now;
  }
  if (conn.in_off == conn.in.size()) {
    conn.in.clear();
    conn.in_off = 0;
  } else if (conn.inflight.empty()) {
    return Fail("reply without a request");
  } else if (conn.in_off > (1u << 20)) {
    conn.in.erase(0, conn.in_off);
    conn.in_off = 0;
  }
  return true;
}

bool Driver::ReadControl(const InfoSink& sink) {
  char buf[65536];
  while (true) {
    ssize_t n = recv(control_.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      control_.in.append(buf, static_cast<size_t>(n));
    } else if (n == 0) {
      return Fail("server closed the control connection");
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      return Fail(std::string("recv: ") + strerror(errno));
    }
  }
  Reply r;
  long used = ParseReply(control_.in.data(), control_.in.size(), &r);
  if (used < 0 || (used > 0 && r.type != '$')) {
    return Fail("bad INFO reply");
  }
  if (used == 0) return true;
  std::string text(r.data, r.len);
  control_.in.erase(0, static_cast<size_t>(used));
  control_busy_ = false;
  if (sink) sink(text);
  return true;
}

bool Driver::WaitControlReply(std::string* text) {
  const int64_t give_up = NowNs() + kStallNs;
  while (true) {
    Reply r;
    long used = ParseReply(control_.in.data(), control_.in.size(), &r);
    if (used < 0) return Fail("bad control reply");
    if (used > 0) {
      if (r.type == '-') return Fail("control command failed");
      text->assign(r.data != nullptr ? r.data : "", r.len);
      control_.in.erase(0, static_cast<size_t>(used));
      return true;
    }
    pollfd pfd{control_.fd, POLLIN, 0};
    if (NowNs() > give_up) return Fail("control reply timed out");
    if (poll(&pfd, 1, 100) <= 0) continue;
    char buf[65536];
    ssize_t n = recv(control_.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      control_.in.append(buf, static_cast<size_t>(n));
    } else if (n == 0) {
      return Fail("server closed the control connection");
    } else if (errno != EAGAIN && errno != EINTR) {
      return Fail(std::string("recv: ") + strerror(errno));
    }
  }
}

bool Driver::Info(std::string* text) {
  if (control_.fd < 0 || control_busy_) return Fail("control connection busy");
  if (send(control_.fd, kInfoRequest, sizeof(kInfoRequest) - 1,
           MSG_NOSIGNAL) != static_cast<ssize_t>(sizeof(kInfoRequest) - 1)) {
    return Fail("cannot send INFO");
  }
  return WaitControlReply(text);
}

bool Driver::Shutdown() {
  if (control_.fd < 0 || control_busy_) return Fail("control connection busy");
  if (send(control_.fd, kShutdownRequest, sizeof(kShutdownRequest) - 1,
           MSG_NOSIGNAL) !=
      static_cast<ssize_t>(sizeof(kShutdownRequest) - 1)) {
    return Fail("cannot send SHUTDOWN");
  }
  // The server replies +OK, drains, and closes every connection.
  const int64_t give_up = NowNs() + kStallNs;
  while (NowNs() < give_up) {
    pollfd pfd{control_.fd, POLLIN, 0};
    if (poll(&pfd, 1, 100) <= 0) continue;
    char buf[4096];
    ssize_t n = recv(control_.fd, buf, sizeof(buf), 0);
    if (n == 0 || (n < 0 && errno == ECONNRESET)) return true;
    if (n < 0 && errno != EAGAIN && errno != EINTR) {
      return Fail(std::string("recv: ") + strerror(errno));
    }
  }
  return Fail("server did not close after SHUTDOWN");
}

bool Driver::Run(const Source& source, int64_t deadline_ns,
                 Recorder* recorder, const InfoInterval& info_interval,
                 const InfoSink& info_sink) {
  if (!ok()) return false;
  const bool closed = options_.rate <= 0;
  const size_t n = conns_.size();
  const size_t depth = static_cast<size_t>(options_.depth);
  const int64_t t_start = NowNs();
  const double period_ns = closed ? 0 : 1e9 / options_.rate;
  uint64_t released = 0;
  Op next{};
  bool have_next = false;
  bool exhausted = false;
  int64_t next_info = info_interval ? t_start : INT64_MAX;
  int64_t last_progress = t_start;
  uint64_t completed_before = completed_;
  for (Conn& conn : conns_) conn.idle_since_ns = t_start;

  while (true) {
    int64_t now = NowNs();
    const bool issuing = !exhausted && now < deadline_ns;
    if (closed && now >= deadline_ns) {
      // A closed loop drops what it pulled from the source but never sent
      // (never attempted). An open loop still sends every operation that
      // fell due before the deadline, charged from its due time.
      for (Conn& conn : conns_) conn.queue.clear();
    }

    if (closed) {
      // A connection with no replies outstanding sends its next pipeline:
      // first what was already routed to it, then more from the source.
      // Operations on keys it does not own go to their owner's queue, and
      // it stops pulling once an owner holds two pipelines' worth, so the
      // connection of a hot key paces the loop instead of queueing forever.
      for (size_t c = 0; c < n; ++c) {
        Conn& conn = conns_[c];
        if (!conn.inflight.empty()) continue;
        size_t batch = 0;
        bool backlog = false;
        while (batch < depth) {
          Op op;
          if (!conn.queue.empty()) {
            op = conn.queue.front().op;
            conn.queue.pop_front();
          } else if (!issuing || exhausted || backlog) {
            break;
          } else if (!source(&op)) {
            exhausted = true;
            break;
          } else if (op.key % n != c) {
            Conn& owner = conns_[op.key % n];
            owner.queue.push_back({op, 0});
            backlog = owner.queue.size() >= 2 * depth;
            continue;
          }
          Send(c, op, now);
          ++batch;
        }
        if (batch > 0 && !Flush(&conn)) return false;
      }
    } else {
      while (issuing) {
        if (!have_next) {
          if (!source(&next)) {
            exhausted = true;
            break;
          }
          have_next = true;
        }
        const int64_t sched =
            t_start + static_cast<int64_t>(released * period_ns);
        if (sched > now || sched >= deadline_ns) break;
        conns_[next.key % n].queue.push_back({next, sched});
        ++released;
        have_next = false;
      }
      for (Conn& conn : conns_) {
        bool sent = false;
        while (conn.inflight.size() < depth && !conn.queue.empty()) {
          const Queued q = conn.queue.front();
          conn.queue.pop_front();
          if (recorder != nullptr) {
            recorder->Late(now - std::max(q.sched_ns, conn.idle_since_ns));
          }
          Send(static_cast<size_t>(&conn - conns_.data()), q.op, q.sched_ns);
          sent = true;
        }
        if (sent && !Flush(&conn)) return false;
      }
    }

    size_t inflight = 0;
    bool queued = false, sendable = false;
    for (const Conn& conn : conns_) {
      inflight += conn.inflight.size();
      queued = queued || !conn.queue.empty();
      sendable = sendable || (conn.inflight.empty() && !conn.queue.empty());
    }
    if (!issuing && inflight == 0 && !queued && !control_busy_) break;

    if (info_interval && !control_busy_ && now >= next_info &&
        now < deadline_ns) {
      const int64_t every = info_interval(now);
      if (every > 0) {
        if (send(control_.fd, kInfoRequest, sizeof(kInfoRequest) - 1,
                 MSG_NOSIGNAL) !=
            static_cast<ssize_t>(sizeof(kInfoRequest) - 1)) {
          return Fail("cannot send INFO");
        }
        control_busy_ = true;
        next_info = now + every;
      } else {
        next_info = now + 1'000'000;
      }
    }

    // Sleep until a reply, the next due operation or the next sample.
    // A closed-loop connection left idle with operations queued for it
    // sends on the next pass without sleeping.
    int64_t wake = closed && sendable ? now : now + 50'000'000;
    if (!closed && issuing && !exhausted) {
      wake = std::min<int64_t>(
          wake, t_start + static_cast<int64_t>(released * period_ns));
    }
    if (issuing) wake = std::min(wake, deadline_ns);
    if (info_interval && !control_busy_) wake = std::min(wake, next_info);
    const int64_t wait = std::max<int64_t>(0, wake - now);
    timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                static_cast<long>(wait % 1'000'000'000)};
    epoll_event events[64];
    int ready = epoll_pwait2(epfd_, events, 64, &ts, nullptr);
    if (ready < 0 && errno != EINTR) return Fail("epoll_pwait2 failed");
    for (int e = 0; e < ready; ++e) {
      const uint64_t tag = events[e].data.u64;
      if (tag == kControlTag) {
        if (!ReadControl(info_sink)) return false;
        continue;
      }
      if (events[e].events & EPOLLOUT) {
        if (!Flush(&conns_[tag])) return false;
      }
      if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        if (!ReadReplies(tag, recorder)) return false;
      }
    }
    now = NowNs();
    if (completed_ != completed_before) {
      completed_before = completed_;
      last_progress = now;
    } else if (inflight > 0 && now - last_progress > kStallNs) {
      return Fail("no reply for 30 s");
    }
  }
  return ok();
}

EchoServer::EchoServer() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t alen = sizeof(addr);
  if (listen_fd_ < 0 ||
      bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ||
      listen(listen_fd_, 16) ||
      getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen)) {
    return;
  }
  port_ = ntohs(addr.sin_port);
  stop_fd_ = eventfd(0, EFD_CLOEXEC);
  thread_ = std::thread([this] { Loop(); });
}

EchoServer::~EchoServer() {
  if (thread_.joinable()) {
    uint64_t one = 1;
    if (write(stop_fd_, &one, sizeof(one)) != sizeof(one)) perror("eventfd");
    thread_.join();
  }
  if (stop_fd_ >= 0) close(stop_fd_);
  if (listen_fd_ >= 0) close(listen_fd_);
}

void EchoServer::Loop() {
  int ep = epoll_create1(EPOLL_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(ep, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = stop_fd_;
  epoll_ctl(ep, EPOLL_CTL_ADD, stop_fd_, &ev);
  std::vector<int> fds;
  char buf[65536];
  bool running = true;
  while (running) {
    epoll_event events[16];
    int ready = epoll_wait(ep, events, 16, -1);
    for (int e = 0; e < ready; ++e) {
      const int fd = events[e].data.fd;
      if (fd == stop_fd_) {
        running = false;
      } else if (fd == listen_fd_) {
        int c = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (c < 0) continue;
        SetNoDelay(c);
        ev.data.fd = c;
        epoll_ctl(ep, EPOLL_CTL_ADD, c, &ev);
        fds.push_back(c);
      } else {
        ssize_t n = recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
          epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
          continue;
        }
        for (ssize_t off = 0; off < n;) {
          ssize_t w = send(fd, buf + off, static_cast<size_t>(n - off),
                           MSG_NOSIGNAL);
          if (w <= 0) break;
          off += w;
        }
      }
    }
  }
  for (int fd : fds) close(fd);
  close(ep);
}

double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1;
  const size_t paren = line.rfind(')');
  if (paren == std::string::npos) return -1;
  std::istringstream fields(line.substr(paren + 2));
  std::string f;
  unsigned long long utime = 0, stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> f; ++i) {
    if (i == 14) utime = std::stoull(f);
    if (i == 15) stime = std::stoull(f);
  }
  return static_cast<double>(utime + stime) / sysconf(_SC_CLK_TCK);
}

uint64_t RssBytes(int pid, bool peak) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  const std::string field = peak ? "VmHWM:" : "VmRSS:";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stoull(line.substr(field.size())) * 1024;
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& path) {
  // The server creates and deletes files while this walks; a file that
  // vanishes meanwhile is skipped.
  std::error_code ec;
  uint64_t total = 0;
  for (std::filesystem::recursive_directory_iterator it(path, ec), end;
       !ec && it != end; it.increment(ec)) {
    std::error_code size_ec;
    if (!it->is_regular_file(size_ec)) continue;
    const uint64_t size = it->file_size(size_ec);
    if (!size_ec) total += size;
  }
  return total;
}

bool InfoField(const std::string& info, const std::string& field,
               uint64_t* value) {
  const std::string needle = "\n" + field + ":";
  size_t pos = info.rfind(field + ":", 0) == 0 ? 0 : info.find(needle);
  if (pos == std::string::npos) return false;
  pos = info.find(':', pos) + 1;
  *value = std::strtoull(info.c_str() + pos, nullptr, 10);
  return true;
}

}  // namespace perfbench

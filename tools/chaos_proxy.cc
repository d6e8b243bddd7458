// chaos_proxy: a deterministic fault-injecting TCP forwarder for failover
// drills (tools/server_smoke_test.sh) and manual chaos testing.
//
//   chaos_proxy --target=HOST:PORT [--listen=P] [--seed=S]
//               [--delay-ms=T] [--drop-after-bytes=N]
//               [--throttle-bytes-per-tick=N] [--partitioned]
//
// The proxy accepts connections on 127.0.0.1:P (P=0 picks an ephemeral
// port; "listening on port <P>" is printed once ready, same contract as
// kspin_server) and forwards bytes both ways to the target. Faults are
// deterministic — same flags + seed, same behaviour — so a failing drill
// reproduces:
//
//   --delay-ms=T        hold every forwarded chunk for T ms (+ seeded
//                       jitter of up to T/4) before relaying it.
//   --drop-after-bytes=N  after relaying N bytes across a connection
//                       (both directions combined), hard-close it —
//                       a mid-request cut, the torn-response case.
//   --throttle-bytes-per-tick=N  relay at most N bytes per direction per
//                       10 ms tick — a slow link; ordering is preserved
//                       (TCP semantics are never violated, only timing).
//   --partitioned       start with the link cut: accepted connections are
//                       closed immediately and nothing reaches the target.
//
// SIGUSR1 toggles the partition at runtime ("partition: on|off" on
// stderr), which is how the smoke test heals the network mid-drill.
//
// Single-threaded poll() loop; connections are independent, faults apply
// per connection. Exit: SIGINT/SIGTERM.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace kspin::chaos {
namespace {

struct Args {
  std::uint16_t listen_port = 0;
  std::string target_host = "127.0.0.1";
  std::uint16_t target_port = 0;
  std::uint64_t seed = 1;
  std::uint32_t delay_ms = 0;
  std::uint64_t drop_after_bytes = 0;  // 0 = never drop.
  std::uint32_t throttle_bytes = 0;    // Per direction per tick; 0 = off.
  bool partitioned = false;
  bool bad = false;
};

Args Parse(int argc, char** argv) {
  Args args;
  bool target_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* name) -> std::optional<std::string> {
      const std::string prefix = std::string("--") + name + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (auto v = value("listen")) {
      args.listen_port = static_cast<std::uint16_t>(std::stoul(*v));
    } else if (auto v = value("target")) {
      const std::size_t colon = v->rfind(':');
      if (colon == std::string::npos) {
        args.bad = true;
      } else {
        args.target_host = v->substr(0, colon);
        args.target_port =
            static_cast<std::uint16_t>(std::stoul(v->substr(colon + 1)));
        target_set = true;
      }
    } else if (auto v = value("seed")) {
      args.seed = std::stoull(*v);
    } else if (auto v = value("delay-ms")) {
      args.delay_ms = static_cast<std::uint32_t>(std::stoul(*v));
    } else if (auto v = value("drop-after-bytes")) {
      args.drop_after_bytes = std::stoull(*v);
    } else if (auto v = value("throttle-bytes-per-tick")) {
      args.throttle_bytes = static_cast<std::uint32_t>(std::stoul(*v));
    } else if (arg == "--partitioned") {
      args.partitioned = true;
    } else {
      args.bad = true;
    }
  }
  if (!target_set || args.target_port == 0) args.bad = true;
  return args;
}

using Clock = std::chrono::steady_clock;

/// One buffered direction of a connection. Bytes land in `pending` as
/// they arrive and drain to the other socket once their release time (set
/// by --delay-ms) has passed and the throttle allows.
struct Pipe {
  std::vector<std::uint8_t> pending;
  Clock::time_point release{};  ///< When the front of `pending` may move.
  bool saw_eof = false;
};

struct Connection {
  int client_fd = -1;
  int target_fd = -1;
  Pipe upstream;    // client -> target
  Pipe downstream;  // target -> client
  std::uint64_t relayed = 0;  ///< Total bytes relayed (both directions).
};

volatile std::sig_atomic_t g_toggle_partition = 0;
volatile std::sig_atomic_t g_stop = 0;

void OnUsr1(int) { g_toggle_partition = 1; }
void OnStop(int) { g_stop = 1; }

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void CloseConnection(Connection& conn) {
  if (conn.client_fd >= 0) ::close(conn.client_fd);
  if (conn.target_fd >= 0) ::close(conn.target_fd);
  conn.client_fd = conn.target_fd = -1;
}

int Main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  if (args.bad) {
    std::fprintf(
        stderr,
        "usage: chaos_proxy --target=HOST:PORT [--listen=P] [--seed=S] "
        "[--delay-ms=T] [--drop-after-bytes=N] "
        "[--throttle-bytes-per-tick=N] [--partitioned]\n");
    return 1;
  }

  // Seeded xorshift64* jitter stream — all timing noise derives from
  // --seed so runs are reproducible.
  std::uint64_t rng = args.seed ? args.seed : 1;
  const auto next_random = [&rng] {
    rng ^= rng >> 12;
    rng ^= rng << 25;
    rng ^= rng >> 27;
    return rng * 0x2545f4914f6cdd1dull;
  };
  const auto jitter_ms = [&](std::uint32_t base) -> std::uint32_t {
    if (base == 0) return 0;
    return base + static_cast<std::uint32_t>(next_random() % (base / 4 + 1));
  };

  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
  addr.sin_port = ::htons(args.listen_port);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listener, 16) != 0) {
    std::perror("bind/listen");
    return 1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  SetNonBlocking(listener);

  std::signal(SIGUSR1, OnUsr1);
  std::signal(SIGINT, OnStop);
  std::signal(SIGTERM, OnStop);
  std::signal(SIGPIPE, SIG_IGN);

  bool partitioned = args.partitioned;
  std::printf("target: %s:%u\n", args.target_host.c_str(),
              args.target_port);
  std::printf("listening on port %u\n", ::ntohs(addr.sin_port));
  std::fflush(stdout);
  std::fprintf(stderr, "partition: %s\n", partitioned ? "on" : "off");

  std::vector<Connection> connections;
  constexpr std::uint32_t kTickMs = 10;

  while (!g_stop) {
    if (g_toggle_partition) {
      g_toggle_partition = 0;
      partitioned = !partitioned;
      std::fprintf(stderr, "partition: %s\n", partitioned ? "on" : "off");
      if (partitioned) {
        // Cutting the link also cuts established flows, like a pulled
        // cable would.
        for (auto& conn : connections) CloseConnection(conn);
      }
    }

    std::vector<pollfd> fds;
    fds.push_back({listener, POLLIN, 0});
    for (const auto& conn : connections) {
      short client_events = 0;
      short target_events = 0;
      if (!conn.upstream.saw_eof) client_events |= POLLIN;
      if (!conn.downstream.saw_eof) target_events |= POLLIN;
      if (!conn.downstream.pending.empty()) client_events |= POLLOUT;
      if (!conn.upstream.pending.empty()) target_events |= POLLOUT;
      fds.push_back({conn.client_fd, client_events, 0});
      fds.push_back({conn.target_fd, target_events, 0});
    }
    ::poll(fds.data(), fds.size(), static_cast<int>(kTickMs));
    // Only connections in this tick's poll set have pollfds; the ones
    // accepted below are served from the next tick on.
    const std::size_t polled = connections.size();

    // New connections. Under partition they are accepted then dropped on
    // the floor — the client sees an immediate RST/EOF, not a timeout,
    // which keeps drills fast and deterministic.
    if (fds[0].revents & POLLIN) {
      while (true) {
        const int client = ::accept(listener, nullptr, nullptr);
        if (client < 0) break;
        if (partitioned) {
          ::close(client);
          continue;
        }
        const int target = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in taddr{};
        taddr.sin_family = AF_INET;
        taddr.sin_port = ::htons(args.target_port);
        if (::inet_pton(AF_INET, args.target_host.c_str(),
                        &taddr.sin_addr) != 1 ||
            ::connect(target, reinterpret_cast<sockaddr*>(&taddr),
                      sizeof(taddr)) != 0) {
          std::fprintf(stderr, "connect to target failed: %s\n",
                       std::strerror(errno));
          ::close(client);
          ::close(target);
          continue;
        }
        ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        ::setsockopt(target, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        SetNonBlocking(client);
        SetNonBlocking(target);
        Connection conn;
        conn.client_fd = client;
        conn.target_fd = target;
        connections.push_back(conn);
      }
    }

    const auto now = Clock::now();
    std::size_t fd_index = 1;
    for (std::size_t c = 0; c < polled; ++c) {
      Connection& conn = connections[c];
      const pollfd& client_poll = fds[fd_index++];
      const pollfd& target_poll = fds[fd_index++];
      if (conn.client_fd < 0) continue;

      // Ingest available bytes into the buffered pipes; a fresh chunk on
      // an empty pipe (re)arms the delay timer.
      const auto ingest = [&](int fd, const pollfd& pfd, Pipe& pipe) {
        if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR))) return true;
        std::uint8_t buf[16384];
        while (true) {
          const ssize_t n = ::read(fd, buf, sizeof(buf));
          if (n > 0) {
            if (pipe.pending.empty()) {
              pipe.release =
                  now + std::chrono::milliseconds(jitter_ms(args.delay_ms));
            }
            pipe.pending.insert(pipe.pending.end(), buf, buf + n);
            continue;
          }
          if (n == 0) {
            pipe.saw_eof = true;
            return true;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
          return false;  // Hard error: tear the connection down.
        }
      };
      // Drain a pipe into its destination socket, honouring delay,
      // throttle, and the drop-after budget.
      const auto drain = [&](Pipe& pipe, int dest) {
        if (pipe.pending.empty() || now < pipe.release) return true;
        std::size_t budget = pipe.pending.size();
        if (args.throttle_bytes > 0) {
          budget = std::min<std::size_t>(budget, args.throttle_bytes);
        }
        if (args.drop_after_bytes > 0) {
          if (conn.relayed >= args.drop_after_bytes) return false;
          budget = std::min<std::size_t>(
              budget,
              static_cast<std::size_t>(args.drop_after_bytes -
                                       conn.relayed));
        }
        const ssize_t n = ::write(dest, pipe.pending.data(), budget);
        if (n < 0) {
          return errno == EAGAIN || errno == EWOULDBLOCK;
        }
        pipe.pending.erase(pipe.pending.begin(), pipe.pending.begin() + n);
        conn.relayed += static_cast<std::uint64_t>(n);
        if (args.drop_after_bytes > 0 &&
            conn.relayed >= args.drop_after_bytes) {
          std::fprintf(stderr, "drop-after-bytes budget spent; cutting\n");
          return false;
        }
        return true;
      };

      bool alive = ingest(conn.client_fd, client_poll, conn.upstream) &&
                   ingest(conn.target_fd, target_poll, conn.downstream);
      if (alive) {
        alive = drain(conn.upstream, conn.target_fd) &&
                drain(conn.downstream, conn.client_fd);
      }
      // Natural end: both sides hit EOF and everything buffered drained.
      if (alive && conn.upstream.saw_eof && conn.downstream.saw_eof &&
          conn.upstream.pending.empty() &&
          conn.downstream.pending.empty()) {
        alive = false;
      }
      if (!alive) CloseConnection(conn);
    }
    std::erase_if(connections,
                  [](const Connection& c) { return c.client_fd < 0; });
  }

  for (auto& conn : connections) CloseConnection(conn);
  ::close(listener);
  return 0;
}

}  // namespace
}  // namespace kspin::chaos

int main(int argc, char** argv) { return kspin::chaos::Main(argc, argv); }

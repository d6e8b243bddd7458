#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <exception>
#include <map>
#include <span>
#include <stdexcept>
#include <thread>

#include "server/wire.h"
#include "timed_modules.h"

namespace kspin::perfbench {
namespace {

using namespace server;  // Wire format.

void SleepUntilNs(std::uint64_t deadline_ns) {
  const std::uint64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

// Replies still missing this long after the last send count as failed.
constexpr std::uint64_t kReplyTimeoutNs = 10'000'000'000;

/// A connected, blocking loopback TCP socket (TCP_NODELAY).
class Socket {
 public:
  explicit Socket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                  sizeof address) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool WriteAll(std::span<const std::uint8_t> bytes) const {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      bytes = bytes.subspan(static_cast<std::size_t>(n));
    }
    return true;
  }

  bool Readable(int timeout_ms) const {
    pollfd p{fd_, POLLIN, 0};
    return ::poll(&p, 1, timeout_ms) > 0;
  }

  /// Appends what is available to `buffer`; false on EOF or error.
  bool ReadSome(std::vector<std::uint8_t>* buffer) const {
    std::uint8_t chunk[64 * 1024];
    ssize_t n = 0;
    do {
      n = ::recv(fd_, chunk, sizeof chunk, 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    buffer->insert(buffer->end(), chunk, chunk + n);
    return true;
  }

 private:
  int fd_ = -1;
};

Opcode ExpectedOpcode(const Op& op) {
  switch (op.kind) {
    case OpKind::kBoolean: return Opcode::kSearchBoolean;
    case OpKind::kRanked: return Opcode::kSearchRanked;
    case OpKind::kInsert: return Opcode::kInsertDoc;
    case OpKind::kUpdate: return Opcode::kUpdateDoc;
    case OpKind::kDelete: return Opcode::kDeleteDoc;
  }
  return Opcode::kError;
}

/// One request frame, as Client would send it (trace trailer when
/// `trace_id` is non-zero).
std::vector<std::uint8_t> EncodeOpFrame(const Op& op, std::uint64_t request_id,
                                        std::uint64_t trace_id) {
  std::vector<std::uint8_t> payload;
  switch (op.kind) {
    case OpKind::kBoolean:
    case OpKind::kRanked:
      payload = EncodeSearchRequest({op.vertex, op.k, op.query});
      break;
    case OpKind::kInsert:
      payload = EncodeInsertDocRequest({0, op.vertex, op.name, op.add, 0});
      break;
    case OpKind::kUpdate:
      payload = EncodeUpdateDocRequest({0, op.object, op.add, op.remove, 0});
      break;
    case OpKind::kDelete:
      payload = EncodeDeleteDocRequest({0, op.object, 0});
      break;
  }
  FrameHeader header;
  header.opcode = ExpectedOpcode(op);
  header.request_id = request_id;
  if (trace_id != 0) {
    header.flags |= kFrameFlagTraceContext;
    AppendTraceTrailer(&payload, {trace_id, trace_id, kTraceFlagSampled});
  }
  return EncodeFrame(header, payload);
}

/// Reads reply frames off a socket: status byte of each reply, by id.
class ReplyReader {
 public:
  explicit ReplyReader(const Socket& socket) : socket_(socket) {}

  struct Reply {
    std::uint64_t request_id = 0;
    Opcode opcode = Opcode::kError;
    bool ok = false;  ///< A well-formed reply with status OK.
    int status = -1;  ///< Status byte; -1 for an empty payload.
  };

  /// Waits up to `timeout_ms` for the next reply. False on timeout, EOF
  /// or a stream that cannot be decoded.
  bool Next(Reply* reply, int timeout_ms) {
    for (;;) {
      FrameHeader header;
      std::size_t frame_size = 0;
      const DecodeResult decoded = TryDecodeFrame(
          std::span<const std::uint8_t>(buffer_).subspan(consumed_), &header,
          &frame_size);
      if (decoded == DecodeResult::kFrame) {
        reply->request_id = header.request_id;
        reply->opcode = header.opcode;
        reply->status = header.payload_size > 0
                            ? buffer_[consumed_ + kHeaderSize]
                            : -1;
        reply->ok = reply->status == static_cast<int>(StatusCode::kOk);
        consumed_ += frame_size;
        return true;
      }
      if (decoded != DecodeResult::kNeedMore) return false;
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
      consumed_ = 0;
      if (!socket_.Readable(timeout_ms) || !socket_.ReadSome(&buffer_)) {
        return false;
      }
    }
  }

 private:
  const Socket& socket_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace

std::size_t PhaseResult::Ok() const {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [](const Sample& s) { return s.ok; }));
}

std::string PhaseResult::FailureCauses() const {
  std::map<std::string, std::size_t> counts;
  for (const Sample& s : samples) {
    if (s.ok) continue;
    if (s.status < 0) {
      ++counts["no_reply"];
    } else if (s.status == static_cast<int>(StatusCode::kOk)) {
      ++counts["wrong_opcode"];
    } else {
      ++counts[std::string(StatusName(static_cast<StatusCode>(s.status)))];
    }
  }
  std::string out;
  for (const auto& [cause, n] : counts) {
    out += (out.empty() ? "" : " ") + cause + "=" + std::to_string(n);
  }
  return out;
}

PhaseResult RunOpenLoop(const LoadTarget& target, const std::vector<Op>& ops,
                        double rate_per_s) {
  PhaseResult result;
  result.samples.resize(ops.size());
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::uint64_t trace_id = target.traced ? target.trace_base + i + 1
                                                 : 0;
    frames.push_back(EncodeOpFrame(ops[i], i + 1, trace_id));
    result.samples[i].trace_id = trace_id;
    result.samples[i].write = ops[i].IsWrite();
  }
  const Socket socket(target.port);
  const double interval_ns = 1e9 / rate_per_s;
  const std::uint64_t start = NowNs() + 1'000'000;
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> send_failed{false};
  std::jthread sender([&] {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      Sample& sample = result.samples[i];
      sample.scheduled_ns =
          start + static_cast<std::uint64_t>(std::llround(i * interval_ns));
      SleepUntilNs(sample.scheduled_ns);
      sample.send_ns = NowNs();
      if (!socket.WriteAll(frames[i])) {
        send_failed = true;
        break;
      }
      sent.store(i + 1, std::memory_order_release);
    }
  });
  // Receiver: this thread. Replies may arrive out of order (two workers).
  ReplyReader reader(socket);
  std::size_t received = 0;
  std::uint64_t quiet_since = NowNs();
  for (;;) {
    const bool sender_done = send_failed.load() || sent.load() == ops.size();
    if (sender_done && received >= sent.load()) break;
    ReplyReader::Reply reply;
    if (!reader.Next(&reply, 50)) {
      // Missing replies count as failed once the sender is done and the
      // server has been silent for a while.
      if (sender_done && NowNs() - quiet_since > kReplyTimeoutNs) break;
      continue;
    }
    quiet_since = NowNs();
    if (reply.request_id == 0 || reply.request_id > ops.size()) break;
    Sample& sample = result.samples[reply.request_id - 1];
    sample.done_ns = quiet_since;
    sample.status = reply.status;
    sample.ok =
        reply.ok && reply.opcode == ExpectedOpcode(ops[reply.request_id - 1]);
    ++received;
  }
  sender.join();
  result.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  const std::size_t last = sent.load();
  if (last > 0) {
    const Sample& sample = result.samples[last - 1];
    result.final_lag_ms =
        static_cast<double>(sample.send_ns - sample.scheduled_ns) / 1e6;
  }
  return result;
}

PhaseResult RunClosedLoop(const LoadTarget& target,
                          const std::vector<Op>& ops, double seconds) {
  std::vector<std::vector<Sample>> per_connection(kClosedConnections);
  std::vector<std::exception_ptr> errors(kClosedConnections);
  const std::uint64_t start = NowNs();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  const auto connection = [&](std::size_t j) {
    // Request n of connection j (request id n + 1) sends op
    // (j + n * kClosedConnections) mod |ops|.
    const auto op_of = [&](std::uint64_t n) -> const Op& {
      return ops[(j + n * kClosedConnections) % ops.size()];
    };
    const Socket socket(target.port);
    ReplyReader reader(socket);
    std::vector<Sample>& samples = per_connection[j];
    const auto send = [&] {
      const std::uint64_t n = samples.size();
      Sample sample;
      sample.write = op_of(n).IsWrite();
      if (target.traced) {
        sample.trace_id = target.trace_base + j * (std::uint64_t{1} << 32) + n;
      }
      const std::vector<std::uint8_t> frame =
          EncodeOpFrame(op_of(n), n + 1, sample.trace_id);
      sample.scheduled_ns = sample.send_ns = NowNs();
      samples.push_back(sample);
      return socket.WriteAll(frame);
    };
    std::size_t outstanding = 0;
    for (; outstanding < kClosedDepth && send(); ++outstanding) {
    }
    while (outstanding > 0) {
      ReplyReader::Reply reply;
      if (!reader.Next(&reply, static_cast<int>(kReplyTimeoutNs / 1000000)) ||
          reply.request_id == 0 || reply.request_id > samples.size()) {
        break;  // Replies still outstanding count as failed.
      }
      --outstanding;
      Sample& sample = samples[reply.request_id - 1];
      sample.done_ns = NowNs();
      sample.status = reply.status;
      sample.ok =
          reply.ok && reply.opcode == ExpectedOpcode(op_of(reply.request_id - 1));
      if (sample.done_ns < deadline && send()) ++outstanding;
    }
  };
  std::vector<std::jthread> threads;
  for (std::size_t j = 0; j < kClosedConnections; ++j) {
    threads.emplace_back([&, j] {
      try {
        connection(j);
      } catch (...) {
        errors[j] = std::current_exception();
      }
    });
  }
  for (std::jthread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  PhaseResult result;
  result.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  for (const std::vector<Sample>& samples : per_connection) {
    result.samples.insert(result.samples.end(), samples.begin(),
                          samples.end());
  }
  return result;
}

std::optional<double> Percentile(std::vector<double> values, double p,
                                 std::size_t min_beyond) {
  if (values.empty()) return std::nullopt;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (values.size() - index - 1 < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

}  // namespace kspin::perfbench

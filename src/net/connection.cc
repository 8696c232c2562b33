#include "net/connection.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <utility>

namespace dust::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds until `deadline` clamped to [0, INT_MAX] for poll().
int MillisUntil(Clock::time_point deadline) {
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (remaining.count() <= 0) return 0;
  if (remaining.count() > 60'000) return 60'000;  // poll in bounded slices
  return static_cast<int>(remaining.count());
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("fcntl(O_NONBLOCK): ") +
                            std::strerror(errno));
  }
  return Status::Ok();
}

/// Waits for `events` on fd until the deadline; DeadlineExceeded when it
/// passes first. Retries EINTR.
Status WaitFor(int fd, short events, Clock::time_point deadline,
               const char* what) {
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int timeout = MillisUntil(deadline);
    if (timeout == 0 && Clock::now() >= deadline) {
      return Status::DeadlineExceeded(std::string(what) +
                                      " deadline expired");
    }
    const int n = ::poll(&pfd, 1, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("poll: ") + std::strerror(errno));
    }
    if (n == 0) continue;  // re-check the deadline at the top
    return Status::Ok();   // readable/writable (or error, surfaced by the op)
  }
}

}  // namespace

Status ParseEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint.size()) {
    return Status::InvalidArgument("endpoint must be host:port, got: " +
                                   endpoint);
  }
  uint32_t value = 0;
  for (size_t i = colon + 1; i < endpoint.size(); ++i) {
    const char c = endpoint[i];
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument("endpoint port is not numeric: " +
                                     endpoint);
    }
    value = value * 10 + static_cast<uint32_t>(c - '0');
    if (value > 65535) {
      return Status::InvalidArgument("endpoint port out of range: " +
                                     endpoint);
    }
  }
  if (value == 0) {
    return Status::InvalidArgument("endpoint port must be >= 1: " + endpoint);
  }
  *host = endpoint.substr(0, colon);
  *port = static_cast<uint16_t>(value);
  return Status::Ok();
}

Connection::Connection(int fd) : fd_(fd) {
  if (fd_ >= 0) SetNonBlocking(fd_);  // best effort; ops surface failures
}

Connection::~Connection() { Close(); }

Connection::Connection(Connection&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Connection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Connection> Connection::Dial(const std::string& host, uint16_t port,
                                    int connect_timeout_ms) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  Connection conn(fd);  // owns the fd (and makes it nonblocking) from here
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(connect_timeout_ms);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    if (errno != EINPROGRESS) {
      return Status::Unavailable("connect " + host + ":" +
                                 std::to_string(port) + ": " +
                                 std::strerror(errno));
    }
    // A slow connect is bounded like every other wait, but reported as
    // Unavailable: "still starting" and "not there" are the same to a
    // retry policy.
    Status waited = WaitFor(fd, POLLOUT, deadline, "connect");
    if (!waited.ok()) {
      if (waited.code() == StatusCode::kDeadlineExceeded) {
        return Status::Unavailable("connect " + host + ":" +
                                   std::to_string(port) + " timed out");
      }
      return waited;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      return Status::Unavailable("connect " + host + ":" +
                                 std::to_string(port) + ": " +
                                 std::strerror(err != 0 ? err : errno));
    }
  }
  return {std::move(conn)};
}

Status Connection::WriteFrame(const Frame& frame,
                              Clock::time_point deadline) {
  if (fd_ < 0) return Status::FailedPrecondition("connection is closed");
  const std::string bytes = EncodeFrame(frame);
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      DUST_RETURN_IF_ERROR(WaitFor(fd_, POLLOUT, deadline, "write"));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Unavailable(std::string("send: ") + std::strerror(errno));
  }
  return Status::Ok();
}

Status Connection::ReadExact(char* out, size_t n, Clock::time_point deadline,
                             bool* clean_close_before_first_byte) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, out + got, n - got, 0);
    if (r > 0) {
      got += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) {
      if (clean_close_before_first_byte != nullptr && got == 0) {
        *clean_close_before_first_byte = true;
        return Status::Unavailable("connection closed by peer");
      }
      return Status::IoError("frame truncated: peer closed after " +
                             std::to_string(got) + " of " +
                             std::to_string(n) + " bytes");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      DUST_RETURN_IF_ERROR(WaitFor(fd_, POLLIN, deadline, "read"));
      continue;
    }
    if (errno == EINTR) continue;
    if (got == 0 && clean_close_before_first_byte != nullptr) {
      *clean_close_before_first_byte = true;
      return Status::Unavailable(std::string("recv: ") +
                                 std::strerror(errno));
    }
    return Status::IoError(std::string("recv: ") + std::strerror(errno));
  }
  return Status::Ok();
}

Status Connection::ReadFrame(Frame* frame, Clock::time_point deadline) {
  if (fd_ < 0) return Status::FailedPrecondition("connection is closed");
  char header_bytes[kFrameHeaderBytes];
  bool clean_close = false;
  // A close at a frame boundary is a retired connection (Unavailable); one
  // inside the header or payload is a torn frame (IoError).
  DUST_RETURN_IF_ERROR(
      ReadExact(header_bytes, sizeof(header_bytes), deadline, &clean_close));
  FrameHeader header;
  DUST_RETURN_IF_ERROR(DecodeFrameHeader(header_bytes, &header));
  frame->type = header.type;
  frame->request_id = header.request_id;
  frame->payload.resize(header.payload_len);
  if (header.payload_len > 0) {
    DUST_RETURN_IF_ERROR(
        ReadExact(frame->payload.data(), header.payload_len, deadline,
                  nullptr));
  }
  return Status::Ok();
}

Status Connection::Call(const Frame& request, Frame* response,
                        Clock::time_point deadline) {
  DUST_RETURN_IF_ERROR(WriteFrame(request, deadline));
  DUST_RETURN_IF_ERROR(ReadFrame(response, deadline));
  if (response->request_id != request.request_id) {
    // The stream is answering some other call; nothing on it can be
    // trusted any more.
    return Status::IoError(
        "response id " + std::to_string(response->request_id) +
        " does not echo request id " + std::to_string(request.request_id));
  }
  return Status::Ok();
}

}  // namespace dust::net

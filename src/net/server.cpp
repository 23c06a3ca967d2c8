#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "net/frame.h"

namespace poiprivacy::net {

ReleaseServer::ReleaseServer(service::ReleaseService& service,
                             ServerConfig config)
    : service_(&service), config_(std::move(config)) {
  if (config_.workers == 0) config_.workers = 1;
}

ReleaseServer::~ReleaseServer() { stop(); }

void ReleaseServer::start() {
  if (running_.load(std::memory_order_acquire)) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("net: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net: bad bind address " + config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, config_.backlog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net: cannot bind " + config_.bind_address + ":" +
                             std::to_string(config_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  closed_ = false;
  running_.store(true, std::memory_order_release);
  pool_ = std::make_unique<common::ThreadPool>(config_.workers);
  // run_tasks turns the fork-join pool into a plain worker group: each of
  // the `workers` tasks is one long-lived connection loop.
  dispatch_thread_ = std::thread([this] {
    pool_->run_tasks(config_.workers,
                     [this](std::size_t) { connection_loop(); });
  });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ReleaseServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Unblock accept(), then the queue, then any worker mid-read.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    for (const int fd : active_) ::shutdown(fd, SHUT_RDWR);
  }
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  pool_.reset();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : pending_) ::close(fd);
    pending_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ReleaseServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or broken): stop accepting
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        ::close(fd);
        return;
      }
      pending_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

bool ReleaseServer::pop_connection(int& fd) {
  std::unique_lock<std::mutex> lock(mu_);
  queue_cv_.wait(lock, [this] { return closed_ || !pending_.empty(); });
  if (pending_.empty()) return false;
  fd = pending_.front();
  pending_.pop_front();
  active_.push_back(fd);
  return true;
}

void ReleaseServer::connection_loop() {
  int fd = -1;
  while (pop_connection(fd)) {
    serve_connection(fd);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      active_.erase(std::find(active_.begin(), active_.end(), fd));
    }
    ::close(fd);
  }
}

void ReleaseServer::serve_connection(int fd) {
  std::vector<std::uint8_t> body;
  std::vector<std::uint8_t> reply;
  for (;;) {
    switch (read_frame(fd, body, config_.max_frame_bytes)) {
      case FrameIo::kOk:
        break;
      case FrameIo::kClosed:
        return;
      case FrameIo::kTooLarge:
      case FrameIo::kError:
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    // Request kinds are disambiguated by body length (36 vs 25 bytes).
    service::ReleaseResult result;
    if (body.size() == kStreamRequestBodyBytes) {
      const std::optional<service::StreamRequest> request =
          decode_stream_request(body);
      if (!request) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      result = service_->serve_stream(*request);
    } else {
      const std::optional<service::ReleaseRequest> request =
          decode_request(body);
      if (!request) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      result = service_->serve_concurrent(*request);
    }
    encode_response(result, reply);
    if (!write_frame(fd, reply)) return;
    frames_served_.fetch_add(1, std::memory_order_relaxed);
  }
}

ServerStats ReleaseServer::stats() const {
  ServerStats out;
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.frames_served = frames_served_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace poiprivacy::net

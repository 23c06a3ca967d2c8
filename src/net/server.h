// Blocking TCP front-end for the release service.
//
// The serving layer's process boundary: a listener accepts loopback/LAN
// connections, each speaking the length-prefixed frame protocol of
// frame.h (one request frame in, one response frame out, pipelining
// allowed). A point request is answered through
// ReleaseService::serve_concurrent(), a batch of one through the
// service's one serving pipeline, and a stream request through
// serve_stream(); both are thread-safe, so the socket tier adds no
// locking of its own around the service.
//
// Threading model (deliberately boring): one accept thread pushes
// connected fds onto a bounded-by-backlog queue; `workers` long-lived
// connection loops pop fds and own one connection each until it closes.
// The loops run as tasks of a private common::ThreadPool (the pool's
// fork-join run_tasks is driven from a dispatcher thread, making it a
// plain worker group). Running inside a pool task, a connection thread
// executes the service's parallel_for_each phases inline, so connections
// never contend for global_pool() and the server composes with --threads
// conventions. A worker holding a connection serves it to completion —
// with W workers, at most W concurrent connections make progress and
// further ones wait in the queue; this is a deliberate fit for the
// loopback bench/test use (bounded, simple), not a C10K design.
//
// Protocol errors fail the connection, not the server: a malformed or
// oversized frame closes that connection (counted in stats) and the
// worker moves on. stop() shuts down the listener and every live
// connection, then joins; it is idempotent and run by the destructor.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "service/release_service.h"

namespace poiprivacy::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;   ///< 0 = ephemeral; see ReleaseServer::port()
  std::size_t workers = 4;  ///< concurrent connection loops
  int backlog = 64;
  std::size_t max_frame_bytes = 1 << 20;
};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t frames_served = 0;
  std::uint64_t protocol_errors = 0;  ///< connections dropped on bad frames

  friend bool operator==(const ServerStats&, const ServerStats&) = default;
};

class ReleaseServer {
 public:
  /// The service must outlive the server. The server calls only
  /// serve_concurrent and serve_stream, so the owner may keep calling
  /// serve()/enqueue() meanwhile (forfeiting their bit-identical replay,
  /// as documented in release_service.h).
  ReleaseServer(service::ReleaseService& service, ServerConfig config);
  ~ReleaseServer();

  ReleaseServer(const ReleaseServer&) = delete;
  ReleaseServer& operator=(const ReleaseServer&) = delete;

  /// Binds + listens + spawns the accept thread and worker group.
  /// Throws std::runtime_error if the socket cannot be bound.
  void start();

  /// Stops accepting, shuts down live connections, joins everything.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// The bound port (the kernel's pick when config.port == 0).
  std::uint16_t port() const noexcept { return port_; }
  ServerStats stats() const;
  const ServerConfig& config() const noexcept { return config_; }

 private:
  void accept_loop();
  void connection_loop();
  void serve_connection(int fd);
  bool pop_connection(int& fd);

  service::ReleaseService* service_;
  ServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};

  std::thread accept_thread_;
  std::thread dispatch_thread_;  ///< drives pool_.run_tasks(workers, ...)
  std::unique_ptr<common::ThreadPool> pool_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  ///< accepted fds awaiting a worker
  std::vector<int> active_;  ///< fds currently owned by workers
  bool closed_ = false;      ///< queue closed; workers drain and exit

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> frames_served_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
};

}  // namespace poiprivacy::net

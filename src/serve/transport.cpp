#include "serve/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "fault/inject.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace snnskip::serve {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

wire::Status to_wire(RequestStatus s) {
  switch (s) {
    case RequestStatus::Ok:
      return wire::Status::Ok;
    case RequestStatus::Rejected:
      return wire::Status::Rejected;
    case RequestStatus::Expired:
      return wire::Status::Expired;
    case RequestStatus::Failed:
      return wire::Status::Failed;
  }
  return wire::Status::Failed;
}

}  // namespace

SocketServer::SocketServer(Server& server, const ServeOptions& opts)
    : server_(server), opts_(opts) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("serve::SocketServer: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port =
      htons(static_cast<std::uint16_t>(opts_.port < 0 ? 0 : opts_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(
        "serve::SocketServer: cannot listen on 127.0.0.1:" +
        std::to_string(opts_.port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = static_cast<int>(ntohs(bound.sin_port));
  set_nonblocking(listen_fd_);

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve::SocketServer: pipe() failed");
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);

  io_ = std::thread([this] { io_loop(); });
  SNNSKIP_LOG(Info) << "serve: listening on 127.0.0.1:" << port_;
}

SocketServer::~SocketServer() {
  shutdown();
  // Every pending completion callback captures `this`, so none may still
  // be running (or waiting to run) when this object is freed. drain()
  // flushes the common case but is bounded by drain_timeout_ms — it can
  // return false with requests still executing whose completions fire
  // later. Wait for the callback count itself: a timed-out drain has
  // already failed every queued request, so this converges quickly
  // unless a worker is wedged inside an engine step (which would hang
  // the Server's own pool join anyway).
  server_.drain();
  {
    std::unique_lock<std::mutex> lock(cb_mu_);
    cb_cv_.wait(lock, [this] { return pending_callbacks_ == 0; });
  }
  hard_stop_.store(true, std::memory_order_release);
  wake();
  if (io_.joinable()) io_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
}

void SocketServer::shutdown() {
  shutdown_.store(true, std::memory_order_release);
  wake();
}

SocketServer::TransportStats SocketServer::stats() const {
  TransportStats s;
  s.connections = connections_.load();
  s.frames_rx = frames_rx_.load();
  s.frames_torn = frames_torn_.load();
  s.responses_tx = responses_tx_.load();
  s.dropped_responses = dropped_responses_.load();
  s.disconnects = disconnects_.load();
  s.timeouts = timeouts_.load();
  s.accept_failures = accept_failures_.load();
  s.protocol_errors = protocol_errors_.load();
  return s;
}

void SocketServer::wake() {
  if (wake_wr_ >= 0) {
    const char b = 'w';
    [[maybe_unused]] ssize_t n = ::write(wake_wr_, &b, 1);  // EAGAIN is fine
  }
}

void SocketServer::io_loop() {
  std::vector<pollfd> pfds;
  std::vector<ConnPtr> polled;  // pfds[i + 2] belongs to polled[i]

  while (!hard_stop_.load(std::memory_order_acquire)) {
    const bool shutting = shutdown_.load(std::memory_order_acquire);

    // Snapshot connections (the completion threads only touch out_mu-
    // guarded fields, never the map, so the snapshot is race-free).
    std::vector<ConnPtr> conns;
    {
      std::lock_guard<std::mutex> lock(cmu_);
      conns.reserve(conns_.size());
      for (auto& [id, c] : conns_) conns.push_back(c);
    }

    if (shutting && !goaway_sent_) {
      // Graceful drain: tell every client to stop sending; the connection
      // closes once its queued responses flush and nothing is in flight.
      goaway_sent_ = true;
      auto frame = wire::encode_goaway();
      for (const ConnPtr& c : conns) {
        std::lock_guard<std::mutex> lock(c->out_mu);
        if (!c->closed) c->outq.push_back(frame);
        c->closing = true;
      }
    }

    pfds.clear();
    polled.clear();
    pfds.push_back({wake_rd_, POLLIN, 0});
    pfds.push_back({listen_fd_, static_cast<short>(shutting ? 0 : POLLIN), 0});
    for (const ConnPtr& c : conns) {
      short events = 0;
      if (!c->stalled && !c->closing) events |= POLLIN;
      {
        std::lock_guard<std::mutex> lock(c->out_mu);
        if (!c->outq.empty()) events |= POLLOUT;
      }
      pfds.push_back({c->fd, events, 0});
      polled.push_back(c);
    }

    ::poll(pfds.data(), pfds.size(), 50);
    const std::int64_t now = wire::mono_now_ns();

    if ((pfds[0].revents & POLLIN) != 0) {
      char buf[256];
      while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
    }
    if ((pfds[1].revents & POLLIN) != 0) do_accept();

    for (std::size_t i = 0; i < polled.size(); ++i) {
      const ConnPtr& c = polled[i];
      const short re = pfds[i + 2].revents;
      if (c->fd < 0) continue;
      if ((re & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        disconnects_.fetch_add(1);
        Telemetry::count("serve.transport.disconnects");
        close_conn(c);
        continue;
      }
      if ((re & POLLOUT) != 0) handle_writable(c);
      if (c->fd >= 0 && (re & POLLIN) != 0) handle_readable(c);
      if (c->fd < 0) continue;

      // A half-received frame (or an injected stall) that makes no
      // progress for io_timeout_ms is a dead or malicious peer: reap it.
      // Fully idle connections (no partial frame) are never reaped.
      if ((c->stalled || c->in.buffered() > 0) && opts_.io_timeout_ms > 0 &&
          now - c->last_progress_ns > opts_.io_timeout_ms * 1'000'000) {
        timeouts_.fetch_add(1);
        Telemetry::count("serve.transport.timeouts");
        SNNSKIP_LOG(Warn) << "serve: closing stalled connection #" << c->id
                          << " (" << c->in.buffered()
                          << " bytes buffered mid-frame)";
        close_conn(c);
        continue;
      }

      // Closing connections go away once flushed and quiescent.
      if (c->closing) {
        std::int64_t inflight;
        bool flushed;
        {
          std::lock_guard<std::mutex> lock(c->out_mu);
          inflight = c->inflight;
          flushed = c->outq.empty();
        }
        if (inflight == 0 && flushed) close_conn(c);
      }
    }
  }

  // Hard stop: drop whatever is left.
  std::lock_guard<std::mutex> lock(cmu_);
  for (auto& [id, c] : conns_) {
    std::lock_guard<std::mutex> olock(c->out_mu);
    c->closed = true;
    if (c->fd >= 0) ::close(c->fd);
    c->fd = -1;
  }
  conns_.clear();
}

void SocketServer::do_accept() {
  while (true) {
    sockaddr_in peer{};
    socklen_t plen = sizeof(peer);
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &plen);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      accept_failures_.fetch_add(1);
      Telemetry::count("serve.transport.accept_failures");
      SNNSKIP_LOG(Warn) << "serve: accept() failed: " << std::strerror(errno);
      return;
    }
    if (SNNSKIP_FAULT("serve.accept_fail")) {
      // Drill: an accept that fails after the handshake (fd exhaustion,
      // RST race) must not take the listener down with it.
      accept_failures_.fetch_add(1);
      Telemetry::count("serve.transport.accept_failures");
      SNNSKIP_LOG(Warn) << "serve: injected accept failure, dropping client";
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto c = std::make_shared<Conn>();
    c->fd = fd;
    c->last_progress_ns = wire::mono_now_ns();
    {
      std::lock_guard<std::mutex> lock(cmu_);
      c->id = next_conn_id_++;
      conns_.emplace(c->id, c);
    }
    connections_.fetch_add(1);
    Telemetry::count("serve.transport.connections");
  }
}

void SocketServer::handle_readable(const ConnPtr& c) {
  if (SNNSKIP_FAULT("serve.read_stall")) {
    // Drill: the peer stops mid-frame. Stop reading the fd; the stall
    // sweep closes it after io_timeout_ms.
    c->stalled = true;
    c->last_progress_ns = wire::mono_now_ns();
    return;
  }
  char buf[16384];
  while (true) {
    const ssize_t n = ::read(c->fd, buf, sizeof(buf));
    if (n > 0) {
      c->last_progress_ns = wire::mono_now_ns();
      try {
        c->in.append(buf, static_cast<std::size_t>(n));
        while (auto frame = c->in.next()) {
          frames_rx_.fetch_add(1);
          handle_frame(c, std::move(*frame));
          if (c->fd < 0) return;  // handle_frame may close the conn
        }
      } catch (const wire::ProtocolError& e) {
        // Bad magic / header checksum / oversize length: the stream
        // cannot be resynced.
        protocol_errors_.fetch_add(1);
        Telemetry::count("serve.transport.protocol_errors");
        SNNSKIP_LOG(Warn) << "serve: protocol error on connection #" << c->id
                          << ": " << e.what();
        close_conn(c);
        return;
      } catch (const std::exception& e) {
        // Defense in depth: anything else a frame provokes (an allocation
        // failure above all) costs that connection, never the daemon — an
        // uncaught exception here would std::terminate the I/O thread.
        protocol_errors_.fetch_add(1);
        Telemetry::count("serve.transport.protocol_errors");
        SNNSKIP_LOG(Error) << "serve: error handling frame on connection #"
                           << c->id << ": " << e.what();
        close_conn(c);
        return;
      }
      continue;
    }
    if (n == 0) {  // orderly EOF
      disconnects_.fetch_add(1);
      Telemetry::count("serve.transport.disconnects");
      close_conn(c);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    disconnects_.fetch_add(1);  // ECONNRESET and friends
    Telemetry::count("serve.transport.disconnects");
    close_conn(c);
    return;
  }
}

void SocketServer::handle_frame(const ConnPtr& c,
                                wire::FrameAssembler::Frame frame) {
  if (frame.type == wire::FrameType::Goaway) return;  // client-side only
  // A frame read after shutdown() — it raced the GOAWAY, which the next
  // loop pass queues on this connection — is not admitted: the client
  // learns to stop from the GOAWAY, and the connection closes once its
  // earlier responses flush.
  if (shutdown_.load(std::memory_order_acquire)) return;
  if (frame.type != wire::FrameType::Request) {
    protocol_errors_.fetch_add(1);
    close_conn(c);
    return;
  }
  if (!frame.crc_ok || SNNSKIP_FAULT("serve.frame_torn")) {
    // Torn frame: the length prefix kept the stream synchronized, so only
    // THIS request is lost. Tell the client to resend (id 0: a torn
    // payload cannot be trusted for its id; the client protocol is one
    // outstanding request per connection, so correlation is unambiguous).
    frames_torn_.fetch_add(1);
    Telemetry::count("serve.frame_torn");
    wire::ResponseMsg r;
    r.id = 0;
    r.status = wire::Status::CrcError;
    r.error = "request frame failed CRC check; resend";
    send_response_now(c, r);
    return;
  }

  wire::RequestMsg req;
  try {
    req = wire::decode_request(frame.payload.data(), frame.payload.size());
  } catch (const wire::ProtocolError& e) {
    wire::ResponseMsg r;
    r.id = 0;
    r.status = wire::Status::BadRequest;
    r.error = e.what();
    send_response_now(c, r);
    return;
  }

  if (SNNSKIP_FAULT("serve.client_disconnect")) {
    // Drill: the peer vanishes with a request in flight. The request must
    // still run and return its lease; the response is dropped on the
    // floor when the completion finds the connection gone. Closing before
    // the submit keeps that true however fast the request completes.
    disconnects_.fetch_add(1);
    Telemetry::count("serve.transport.disconnects");
    SNNSKIP_LOG(Warn) << "serve: injected disconnect on connection #" << c->id;
    close_conn(c);
  }
  {
    std::lock_guard<std::mutex> lock(c->out_mu);
    ++c->inflight;
  }
  {
    std::lock_guard<std::mutex> lock(cb_mu_);
    ++pending_callbacks_;
  }
  const std::uint64_t conn_id = c->id;
  const std::uint64_t req_id = req.id;
  SubmitOptions sub;
  sub.deadline_ns = req.deadline_ns;
  try {
    server_.submit_async(
        req.model, std::move(req.frames), sub,
        [this, conn_id, req_id](Outcome o) {
          wire::ResponseMsg r;
          r.id = req_id;
          r.status = to_wire(o.status);
          r.retry_after_us = o.retry_after_us;
          r.error = std::move(o.error);
          if (o.status == RequestStatus::Ok) r.value = std::move(o.value);
          enqueue_response(conn_id, wire::encode_response(r));
          // Last touch of `this`: the destructor waits on this count, and
          // notify must happen under the lock so it cannot outlive the
          // condition variable it signals.
          std::lock_guard<std::mutex> lock(cb_mu_);
          if (--pending_callbacks_ == 0) cb_cv_.notify_all();
        });
  } catch (const std::exception& e) {
    // Unknown model / empty sequence / shape mismatch: the request is
    // wrong, not the connection. submit_async threw before taking
    // ownership of the completion, so settle the inflight and callback
    // counts here.
    {
      std::lock_guard<std::mutex> lock(c->out_mu);
      --c->inflight;
    }
    {
      std::lock_guard<std::mutex> lock(cb_mu_);
      if (--pending_callbacks_ == 0) cb_cv_.notify_all();
    }
    wire::ResponseMsg r;
    r.id = req_id;
    r.status = wire::Status::BadRequest;
    r.error = e.what();
    send_response_now(c, r);
    return;
  }
}

void SocketServer::handle_writable(const ConnPtr& c) {
  bool broken = false;
  {
    std::lock_guard<std::mutex> lock(c->out_mu);
    while (!c->outq.empty()) {
      const std::vector<std::uint8_t>& front = c->outq.front();
      const ssize_t n = ::write(c->fd, front.data() + c->out_off,
                                front.size() - c->out_off);
      if (n > 0) {
        c->last_progress_ns = wire::mono_now_ns();
        c->out_off += static_cast<std::size_t>(n);
        if (c->out_off == front.size()) {
          c->outq.pop_front();
          c->out_off = 0;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      broken = true;  // peer gone mid-write (EPIPE/ECONNRESET)
      break;
    }
  }
  if (broken) {
    disconnects_.fetch_add(1);
    Telemetry::count("serve.transport.disconnects");
    close_conn(c);
  }
}

void SocketServer::enqueue_response(std::uint64_t conn_id,
                                    std::vector<std::uint8_t> frame) {
  ConnPtr c;
  {
    std::lock_guard<std::mutex> lock(cmu_);
    auto it = conns_.find(conn_id);
    if (it != conns_.end()) c = it->second;
  }
  if (!c) {
    dropped_responses_.fetch_add(1);
    Telemetry::count("serve.transport.dropped_responses");
    return;
  }
  {
    std::lock_guard<std::mutex> lock(c->out_mu);
    --c->inflight;
    if (c->closed) {
      dropped_responses_.fetch_add(1);
      Telemetry::count("serve.transport.dropped_responses");
      return;
    }
    c->outq.push_back(std::move(frame));
  }
  responses_tx_.fetch_add(1);
  wake();
}

void SocketServer::send_response_now(const ConnPtr& c,
                                     const wire::ResponseMsg& m) {
  // I/O-thread path (torn frame / bad request): enqueue and let the poll
  // loop flush, same as completions.
  {
    std::lock_guard<std::mutex> lock(c->out_mu);
    if (c->closed) return;
    c->outq.push_back(wire::encode_response(m));
  }
  responses_tx_.fetch_add(1);
}

void SocketServer::close_conn(const ConnPtr& c) {
  {
    std::lock_guard<std::mutex> lock(c->out_mu);
    c->closed = true;
    if (c->fd >= 0) ::close(c->fd);
    c->fd = -1;
  }
  std::lock_guard<std::mutex> lock(cmu_);
  conns_.erase(c->id);
}

}  // namespace snnskip::serve

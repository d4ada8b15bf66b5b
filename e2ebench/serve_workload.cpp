// Workloads `serve-sparse` and `serve-dense`: an in-process serve::Server
// behind a SocketServer on loopback, hosting one fp32 and one int8
// resnet18s, driven by an open-loop Poisson generator.
//
// The models load the way the daemon loads them: an SNNSKIP2 checkpoint
// plus a manifest per precision, through ModelRegistry::load (compile and
// int8 self-calibration included). The server runs with the compiled-in
// ServeOptions defaults; only the port is ephemeral.
//
// Generator: one thread sends each request at its due time whether or not
// earlier answers have arrived, round-robin over four pipelined
// connections, encoding frames with the public serve/protocol.h encoders,
// and reads the answers from the same four connections between sends. A
// request carries the deadline due + limit. Latency runs from the due time
// to the decoded response. A rejected, expired, failed, mismatching or
// unanswered request is a failed operation and a miss of the limit. Every
// answer is compared with a batch-1 direct-engine twin of the same model
// and precision at 1e-4; one that differs fails the run.
//
// The run starts with rounds of a pass over the `low` rung and a
// closed-loop pass (32 requests outstanding); the gated figures are
// medians over the rounds. Then the rates are walked upward over a fixed
// ladder: the rungs up to `high` always run; above `high` the walk stops
// at the first rung that misses the SLO (helpers.h). Only the requests
// (arrival times, models, event payloads) depend on the seed; the models
// are the system under test and stay fixed.

#include <poll.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include "bench.h"
#include "graph/mac_counter.h"
#include "helpers.h"
#include "infer/plan.h"
#include "layers.h"
#include "models/zoo.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "telemetry/trace_export.h"
#include "train/checkpoint.h"

namespace e2e {

namespace {

using snnskip::Tensor;
using snnskip::Telemetry;
namespace serve = snnskip::serve;
namespace wire = snnskip::serve::wire;

// The served model: resnet18s, width 8, two polarity channels on a 16x16
// plane, ten classes, compiled at batch 8 (the default max_batch).
constexpr std::int64_t kWidth = 8;
constexpr std::int64_t kChannels = 2;
constexpr std::int64_t kSide = 16;
constexpr std::int64_t kClasses = 10;
constexpr std::int64_t kMaxT = 12;
constexpr std::int64_t kBatch = 8;
constexpr std::uint64_t kModelSeed = 7;
constexpr int kConnections = 4;
constexpr int kPayloads = 64;  // distinct event sequences per model
constexpr int kSetupRepeats = 15;
const char* const kModels[2] = {"fp32", "int8"};

struct WorkloadSpec {
  const char* name;
  double density;             ///< share of input events that are on
  std::int64_t t_min, t_max;  ///< sequence length range (fixed when equal)
  double limit_ms;            ///< p99 latency limit (SLO) and deadline
  std::vector<double> ladder; ///< offered rates, walked upward (req/s)
  int high;                   ///< index of the named rung below saturation
};

WorkloadSpec spec_for(bool dense) {
  // Rung 0 is `low` (mostly lone requests in a batch). Rung 4 is `high`:
  // busy, with batches filling, at about 60% of the knee measured when
  // the ladder was set. The rungs between them run once per run, so a
  // walk whose `high` pass misses (a slow stretch of the shared host)
  // still reports a rate near capacity rather than `low`'s. The ~12% steps
  // above `high` find the knee, with headroom for a faster server; the
  // limits are generous so a walk stops where latency runs away
  // (saturation), not on a transient stall.
  if (dense) {
    return {"serve-dense", 0.40, 4, 12, 200.0,
            {50, 100, 150, 200, 250, 280, 315, 350, 395, 440, 495, 555, 620, 700, 790, 890,
             1000},
            4};
  }
  return {"serve-sparse", 0.05, 8, 8, 100.0,
          {200, 400, 700, 1000, 1250, 1400, 1570, 1760, 1970, 2200, 2470, 2770, 3100, 3500,
           3920, 4400, 4930, 5520},
          4};
}

/// The run starts with kRounds rounds, each a pass over the `low` rung and
/// a closed-loop pass. The closed-loop figures are medians over the
/// rounds, so they do not hang on one slow stretch of the shared host (on
/// the same runs, the p50 over all closed-loop requests pooled spread 0.20
/// over six seeds, the median of the rounds' p50s 0.15). kLowShare and
/// kClosedShare of --seconds are split evenly over the rounds; the traced
/// run makes one round.
constexpr int kRounds = 8;
constexpr double kLowShare = 0.25;
constexpr double kClosedShare = 0.40;

/// Share of --seconds each pass over a rung above `low` gets.
double rung_share(const WorkloadSpec& w, int rung) { return rung == w.high ? 0.04 : 0.03; }

/// A closed-loop pass keeps kInFlight requests outstanding over the four
/// connections, like that many synchronous clients: enough to keep both
/// server workers busy. Its rate and p50 latency are the gated serve
/// figures. On a 4-vCPU VM whose host steals about a tenth of each vCPU,
/// a saturated server is the steadiest thing to measure: over five seeds
/// at a time its rate spread 0.10-0.20 (interquartile range over median),
/// while the `low` p50 spread 0.21-0.44 and a loop of four outstanding
/// requests 0.14-0.31, measured on the same runs.
constexpr std::size_t kInFlight = 32;
constexpr std::size_t kClosedPlan = 20000;  ///< requests planned per pass

/// Unmeasured load at the high rate before the rounds, so lazily built
/// engines, socket buffers and caches are warm when timing starts.
constexpr double kWarmupSeconds = 1.5;

// ------------------------------------------------------------ set-up

/// Members are destroyed in reverse order: the socket server (goaway and
/// drain) first, then the server, then the registry it borrows.
struct Deployment {
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::SocketServer> sock;
  std::string dir;  ///< checkpoint and manifests
  std::string manifests[2];
  double setup_s = 0.0;
};

snnskip::ModelConfig model_config() {
  snnskip::ModelConfig cfg;
  cfg.width = kWidth;
  cfg.in_channels = kChannels;
  cfg.num_classes = kClasses;
  cfg.max_timesteps = kMaxT;
  cfg.seed = kModelSeed;
  return cfg;
}

void write_manifest(const std::string& path, const std::string& name,
                    const std::string& precision, std::int64_t batch) {
  std::ofstream f(path);
  f << "name " << name << "\nfamily resnet18s\nwidth " << kWidth
    << "\nin_channels " << kChannels << "\nnum_classes " << kClasses
    << "\ntimesteps " << kMaxT << "\nseed " << kModelSeed
    << "\ncheckpoint model.ckpt\nbatch " << batch << "\nin_h " << kSide
    << "\nin_w " << kSide << "\nprecision " << precision << "\n";
  if (!f) throw std::runtime_error("cannot write manifest " + path);
}

/// Checkpoint + manifests -> registry loads -> server -> socket server.
std::unique_ptr<Deployment> deploy(const std::string& dir) {
  auto d = std::make_unique<Deployment>();
  d->dir = dir;
  const auto t0 = std::chrono::steady_clock::now();
  const snnskip::ModelConfig cfg = model_config();
  snnskip::Network net = snnskip::build_model(
      "resnet18s", cfg, snnskip::default_adjacencies("resnet18s", cfg));
  if (!snnskip::save_network(dir + "/model.ckpt", net)) {
    throw std::runtime_error("cannot write checkpoint in " + dir);
  }
  for (int m = 0; m < 2; ++m) {
    d->manifests[m] = dir + "/" + kModels[m] + ".manifest";
    write_manifest(d->manifests[m], kModels[m], kModels[m], kBatch);
  }
  d->registry = std::make_unique<serve::ModelRegistry>(4);
  const char* const load_spans[2] = {"serve.registry_load.fp32",
                                     "serve.registry_load.int8"};
  for (int m = 0; m < 2; ++m) {
    E2E_SPAN(load_spans[m]);
    d->registry->load(d->manifests[m]);
  }
  serve::ServeOptions opts;  // compiled-in defaults
  opts.port = 0;
  d->server = std::make_unique<serve::Server>(*d->registry, opts);
  for (const std::string& path : d->manifests) {
    d->server->add_model(serve::ModelSpec::from_manifest(path));
  }
  d->sock = std::make_unique<serve::SocketServer>(*d->server, opts);
  d->setup_s = seconds_since(t0);
  return d;
}

// ------------------------------------------------------------ inputs

struct Payload {
  wire::RequestMsg msg;  ///< frames filled; id/deadline set per send
  Tensor reference;      ///< batch-1 twin's rate-accumulated output
  std::int64_t t = 0;
};

/// kPayloads event sequences per model (a pure function of the seed),
/// each with its batch-1 direct-engine reference.
std::vector<Payload> make_payloads(const WorkloadSpec& w, std::uint64_t seed,
                                   Deployment& d) {
  std::vector<Payload> out;
  for (int m = 0; m < 2; ++m) {
    const std::string twin = d.dir + "/" + kModels[m] + ".twin.manifest";
    write_manifest(twin, std::string(kModels[m]) + ".twin", kModels[m], 1);
    serve::ModelHandle h = d.registry->load(twin);
    const snnskip::infer::Plan& plan = *h->plan();
    serve::LoadedModel::Lease lease = h->lease();
    std::uint64_t tstate = derive_seed(seed, 300 + m);
    Tensor step_out;
    for (int p = 0; p < kPayloads; ++p) {
      Payload pl;
      pl.t = w.t_min + static_cast<std::int64_t>(
                           splitmix64(tstate) %
                           static_cast<std::uint64_t>(w.t_max - w.t_min + 1));
      const auto frames =
          event_payload(derive_seed(seed, 400 + m), static_cast<std::uint64_t>(p),
                        pl.t, kChannels, kSide, kSide, w.density);
      pl.msg.model = kModels[m];
      pl.reference = Tensor(snnskip::Shape{kClasses});
      pl.reference.fill(0.f);
      lease->reset();
      for (const auto& f : frames) {
        Tensor x(snnskip::Shape{kChannels, kSide, kSide});
        std::copy(f.begin(), f.end(), x.data());
        lease->step(x.reshape(plan.input_shape), &step_out);
        for (std::int64_t c = 0; c < kClasses; ++c) {
          pl.reference.data()[c] += step_out.data()[c];
        }
        pl.msg.frames.push_back(std::move(x));
      }
      out.push_back(std::move(pl));
    }
  }
  return out;
}

// ------------------------------------------------------------ generator

struct Planned {
  std::int64_t due_off_ns = 0;
  int payload = 0;  ///< index into the payload table (model-major)
};

std::vector<Planned> plan_rung(std::uint64_t seed, int rung, double rate,
                               std::size_t n) {
  // Two streams per pass, apart from every other purpose of the seed.
  const auto pass = static_cast<std::uint64_t>(rung + 1);
  const std::vector<std::int64_t> due =
      poisson_schedule(derive_seed(derive_seed(seed, 500), pass), rate, n);
  std::uint64_t pick = derive_seed(derive_seed(seed, 600), pass);
  std::vector<Planned> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].due_off_ns = due[i];
    out[i].payload = static_cast<int>(splitmix64(pick) % (2 * kPayloads));
  }
  return out;
}

struct Sent {
  std::int64_t due_ns = 0, send_ns = 0, sent_ns = 0, resp_ns = 0;
  wire::Status status = wire::Status::Failed;
  bool answered = false;
  bool int8 = false;
  bool match = false;  ///< well formed and within 1e-4 of the batch-1 twin
};

struct RungRun {
  double rate = 0.0;
  /// > 0: closed loop. Each request goes out as soon as fewer than this
  /// many are outstanding, for closed_ns; the plan's due times are unused
  /// and a request is due when it is sent.
  std::size_t in_flight = 0;
  std::int64_t closed_ns = 0;
  std::vector<Planned> plan;
  std::vector<Sent> sent;
  std::int64_t start_ns = 0, end_ns = 0;  ///< mono: first due, last answer
  serve::ServeStats before, after;
  std::map<std::string, double> counters_before, counters_after;
  std::int64_t mismatches[2] = {0, 0};  ///< fp32 / int8 answers off twin
  std::int64_t answers[2] = {0, 0};     ///< fp32 / int8 answers Ok
};

bool write_all(int fd, const std::vector<std::uint8_t>& buf) {
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t w = ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

class LoadGen {
 public:
  LoadGen(int port, std::vector<Payload>* payloads, double limit_ms)
      : payloads_(payloads), limit_ns_(static_cast<std::int64_t>(limit_ms * 1e6)) {
    for (int c = 0; c < kConnections; ++c) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      const int one = 1;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (fd < 0 ||
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) != 0 ||
          ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        if (fd >= 0) ::close(fd);
        for (int open_fd : fds_) ::close(open_fd);
        throw std::runtime_error("cannot connect to the server");
      }
      fds_.push_back(fd);
    }
  }
  ~LoadGen() {
    for (int fd : fds_) ::close(fd);
  }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Send `run->plan` (open or closed loop, see RungRun) and collect every
  /// answer, all on the calling thread. A closed-loop run keeps only the
  /// requests it sent.
  void run(RungRun* run, bool traced) {
    const std::size_t n = run->plan.size();
    const bool closed = run->in_flight > 0;
    run->sent.assign(n, Sent{});
    const std::uint64_t id_base = next_id_;
    next_id_ += n;
    const std::int64_t start = wire::mono_now_ns() + 2'000'000;
    run->start_ns = start;
    const std::int64_t send_end =
        closed ? start + run->closed_ns : start + (n > 0 ? run->plan.back().due_off_ns : 0);
    const std::int64_t give_up = send_end + limit_ns_ + 3'000'000'000LL;
    // Telemetry clock = steady_clock = CLOCK_MONOTONIC on Linux; the
    // offset maps wire timestamps onto trace timestamps.
    const std::int64_t tel_off =
        static_cast<std::int64_t>(Telemetry::now_ns()) - wire::mono_now_ns();

    std::vector<wire::FrameAssembler> in(fds_.size());
    std::vector<pollfd> pfds;
    for (int fd : fds_) pfds.push_back({fd, POLLIN, 0});
    std::vector<std::uint8_t> buf(1 << 16);
    std::size_t next = 0, received = 0;
    bool sending = n > 0;
    while (sending || received < next) {
      std::int64_t now = wire::mono_now_ns();
      if (now >= give_up) break;
      // Send what is due: open loop, every request whose due time has
      // come; closed loop, until in_flight requests are outstanding.
      while (sending && now >= start) {
        if (next == n || (closed && now >= send_end)) {
          sending = false;
          break;
        }
        const std::int64_t due = closed ? now : start + run->plan[next].due_off_ns;
        if (closed ? next - received >= run->in_flight : now < due) break;
        Sent& s = run->sent[next];
        s.due_ns = due;
        s.send_ns = now;
        {
          E2E_SPAN("gen.send");
          wire::RequestMsg& msg =
              (*payloads_)[static_cast<std::size_t>(run->plan[next].payload)].msg;
          msg.id = id_base + next;
          msg.deadline_ns = due + limit_ns_;
          if (!write_all(fds_[next % fds_.size()], wire::encode_request(msg))) {
            throw std::runtime_error("a generator connection closed");
          }
        }
        s.sent_ns = now = wire::mono_now_ns();
        ++next;
      }
      // Wait for answers until the next send is due; the last millisecond
      // before an open-loop due time is spun, so the send is not late by a
      // wake-up.
      std::int64_t until = give_up;
      if (sending && now < start) {
        until = start;
      } else if (sending && closed) {
        until = next - received < run->in_flight ? now : send_end;
      } else if (sending) {
        until = start + run->plan[next].due_off_ns - 1'000'000;
      }
      const std::int64_t wait_ns = std::max<std::int64_t>(0, until - now);
      const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                        static_cast<long>(wait_ns % 1'000'000'000)};
      if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
      for (std::size_t c = 0; c < pfds.size(); ++c) {
        if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        {
          E2E_SPAN("gen.read");
          const ssize_t r = ::recv(pfds[c].fd, buf.data(), buf.size(), 0);
          if (r <= 0) throw std::runtime_error("a generator connection closed");
          in[c].append(buf.data(), static_cast<std::size_t>(r));
        }
        while (auto frame = in[c].next()) {
          if (frame->type != wire::FrameType::Response || !frame->crc_ok) continue;
          E2E_SPAN("gen.recv");
          const wire::ResponseMsg resp =
              wire::decode_response(frame->payload.data(), frame->payload.size());
          if (resp.id < id_base || resp.id >= id_base + next) continue;
          Sent& s = run->sent[resp.id - id_base];
          if (s.answered) continue;
          s.answered = true;
          ++received;
          s.status = resp.status;
          if (resp.status == wire::Status::Ok) {
            const Payload& pl = (*payloads_)[static_cast<std::size_t>(
                run->plan[resp.id - id_base].payload)];
            s.int8 = pl.msg.model == "int8";
            const bool valid =
                resp.value.shape() == pl.reference.shape() &&
                std::all_of(resp.value.data(), resp.value.data() + resp.value.numel(),
                            [](float v) { return std::isfinite(v); });
            s.match = valid && Tensor::max_abs_diff(resp.value, pl.reference) <= 1e-4f;
            ++run->answers[s.int8];
            if (!s.match) ++run->mismatches[s.int8];
          }
          s.resp_ns = wire::mono_now_ns();
          if (traced) {
            snnskip::telemetry::record_span(
                "bench", "gen.request#" + std::to_string(resp.id),
                static_cast<std::uint64_t>(s.due_ns + tel_off),
                static_cast<std::uint64_t>(s.resp_ns - s.due_ns));
          }
        }
      }
    }
    run->sent.resize(next);
    run->plan.resize(next);
    std::int64_t end = start;
    for (const Sent& s : run->sent) end = std::max(end, s.answered ? s.resp_ns : s.sent_ns);
    run->end_ns = end;
  }

 private:
  std::vector<Payload>* payloads_;
  std::int64_t limit_ns_;
  std::vector<int> fds_;
  std::uint64_t next_id_ = 1;
};

// ------------------------------------------------------------ rung stats

/// Answered Ok, well formed, and within 1e-4 of the batch-1 twin.
bool ok(const Sent& s) {
  return s.answered && s.status == wire::Status::Ok && s.match;
}

/// Latency percentile over the requests of `runs` (pooled). Failed
/// requests rank as misses above every answer; a percentile landing on
/// one reports the longest of the runs' spans (first due to last answer).
double rung_percentile(const std::vector<const RungRun*>& runs, double p) {
  std::vector<double> v;
  double span_ms = 0.0;
  for (const RungRun* run : runs) {
    span_ms = std::max(span_ms, static_cast<double>(run->end_ns - run->start_ns) * 1e-6);
    for (const Sent& s : run->sent) {
      v.push_back(ok(s) ? static_cast<double>(s.resp_ns - s.due_ns) * 1e-6
                        : std::numeric_limits<double>::infinity());
    }
  }
  const double x = percentile(std::move(v), p);
  return std::isfinite(x) ? x : span_ms;
}

/// p50 and tail latency of a set of runs of one rung; the tail is the
/// highest percentile the pooled sample count supports (helpers.h).
struct Latency {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};

Latency latency(const std::vector<const RungRun*>& runs) {
  std::size_t n = 0;
  for (const RungRun* run : runs) n += run->sent.size();
  Latency l;
  l.tail_pct = supported_percentile(n);
  l.p50 = rung_percentile(runs, 50);
  l.tail = rung_percentile(runs, l.tail_pct);
  return l;
}

RungResult summarize(const RungRun& run, double limit_ms) {
  RungResult r;
  r.rate_rps = run.rate;
  r.sent = static_cast<std::int64_t>(run.sent.size());
  std::vector<double> lag;
  for (const Sent& s : run.sent) {
    if (ok(s) && static_cast<double>(s.resp_ns - s.due_ns) * 1e-6 <= limit_ms) {
      ++r.within_limit;
    }
    if (!ok(s)) ++r.failed;
    lag.push_back(static_cast<double>(s.send_ns - s.due_ns) * 1e-6);
  }
  const std::size_t tenth = std::max<std::size_t>(1, lag.size() / 10);
  if (!lag.empty()) {
    r.lag_first_ms = median({lag.begin(), lag.begin() + static_cast<std::ptrdiff_t>(tenth)});
    r.lag_last_ms = median({lag.end() - static_cast<std::ptrdiff_t>(tenth), lag.end()});
  }
  return r;
}

struct Walk {
  /// Every pass in the order run: the rounds, then the walk.
  std::vector<RungRun> rungs;
  std::vector<std::size_t> lows, closed;  ///< the rounds' passes, indices into rungs
  std::size_t high = 0;                   ///< the pass over the `high` rung
  double max_rps_at_slo = 0.0;
  double closed_rps = 0.0;     ///< median over the closed-loop passes
  double closed_p50_ms = 0.0;  ///< median over the closed-loop passes of their p50
  RungRun warmup;           ///< unmeasured; its answers are checked too

  std::vector<const RungRun*> passes(const std::vector<std::size_t>& idx) const {
    std::vector<const RungRun*> out;
    for (std::size_t i : idx) out.push_back(&rungs[i]);
    return out;
  }
};

double answers_per_s(const RungRun& run) {
  return static_cast<double>(std::count_if(run.sent.begin(), run.sent.end(), ok)) /
         (static_cast<double>(run.end_ns - run.start_ns) * 1e-9);
}

Walk walk_ladder(const WorkloadSpec& w, const Options& opts, Deployment& d,
                 std::vector<Payload>* payloads, bool traced) {
  Walk walk;
  LoadGen gen(d.sock->port(), payloads, w.limit_ms);
  walk.warmup.rate = w.ladder[static_cast<std::size_t>(w.high)];
  walk.warmup.plan = plan_rung(opts.seed, -1, walk.warmup.rate,
                               static_cast<std::size_t>(walk.warmup.rate * kWarmupSeconds));
  gen.run(&walk.warmup, /*traced=*/false);
  // The traced run's aggregates (op times, gemm) cover the measured rungs only.
  if (traced) Telemetry::reset();

  auto execute = [&](RungRun run) -> const RungRun& {
    run.before = d.server->stats();
    if (traced) run.counters_before = Telemetry::counters();
    gen.run(&run, traced);
    run.after = d.server->stats();
    if (traced) run.counters_after = Telemetry::counters();
    walk.rungs.push_back(std::move(run));
    return walk.rungs.back();
  };
  auto open_pass = [&](int i, int attempt, double seconds) -> const RungRun& {
    RungRun plan;
    plan.rate = w.ladder[static_cast<std::size_t>(i)];
    const auto n = static_cast<std::size_t>(std::max(1.0, std::round(plan.rate * seconds)));
    plan.plan = plan_rung(opts.seed, i + 100 * attempt, plan.rate, n);
    const RungRun& run = execute(std::move(plan));
    std::fprintf(stderr, "%s rung %d: %.0f rps, %zu sent, %lld failed, p50 %.3f ms, p99 %.3f ms\n",
                 w.name, i, run.rate, run.sent.size(),
                 static_cast<long long>(summarize(run, w.limit_ms).failed),
                 rung_percentile({&run}, 50), rung_percentile({&run}, 99));
    return run;
  };
  auto run_rung = [&](int i, int attempt) {
    return summarize(open_pass(i, attempt, opts.seconds * rung_share(w, i)), w.limit_ms);
  };

  const int rounds = traced ? 1 : kRounds;
  std::vector<double> closed_rates, closed_p50s;
  for (int k = 0; k < rounds; ++k) {
    open_pass(0, k, opts.seconds * kLowShare / kRounds);
    walk.lows.push_back(walk.rungs.size() - 1);
    RungRun plan;
    plan.in_flight = kInFlight;
    plan.closed_ns = static_cast<std::int64_t>(opts.seconds * kClosedShare / kRounds * 1e9);
    plan.plan = plan_rung(opts.seed, 1000 + k, 1.0, kClosedPlan);
    const RungRun& run = execute(std::move(plan));
    walk.closed.push_back(walk.rungs.size() - 1);
    closed_rates.push_back(answers_per_s(run));
    closed_p50s.push_back(rung_percentile({&run}, 50));
    std::fprintf(stderr, "%s closed pass: %zu in flight, %zu sent, %lld failed, %.0f answers/s\n",
                 w.name, run.in_flight, run.sent.size(),
                 static_cast<long long>(summarize(run, w.limit_ms).failed), closed_rates.back());
  }
  walk.closed_rps = median(closed_rates);
  walk.closed_p50_ms = median(closed_p50s);

  // The walk: `low` (its first pass, or the second when the first
  // misses), the rungs up to `high` once each, then upward until a rung
  // misses. A miss counts only when a second attempt confirms it, so one
  // stall of the shared host does not end the walk.
  std::vector<RungResult> results;
  for (std::size_t k = 0; k < std::min<std::size_t>(2, walk.lows.size()); ++k) {
    results.assign(1, summarize(walk.rungs[walk.lows[k]], w.limit_ms));
    if (rung_meets_slo(results[0])) break;
  }
  for (int i = 1; i < static_cast<int>(w.ladder.size()); ++i) {
    if (!continue_walk(results, w.high)) break;
    RungResult r = run_rung(i, kRounds);
    if (i == w.high) walk.high = walk.rungs.size() - 1;
    if (traced && i == w.high) break;
    if (!rung_meets_slo(r)) r = run_rung(i, kRounds + 1);
    results.push_back(r);
  }
  const int top = highest_rung_at_slo(results);
  walk.max_rps_at_slo = top < 0 ? 0.0 : w.ladder[static_cast<std::size_t>(top)];
  return walk;
}

/// Answers that differ from their batch-1 twin, per precision (fp32,
/// int8), and answers Ok, over every rung of the walk and its warm-up.
struct TwinTally {
  std::int64_t mismatches[2] = {0, 0};
  std::int64_t answers[2] = {0, 0};

  explicit TwinTally(const Walk& walk) {
    std::vector<const RungRun*> runs = {&walk.warmup};
    for (const RungRun& run : walk.rungs) runs.push_back(&run);
    for (const RungRun* run : runs) {
      for (int p = 0; p < 2; ++p) {
        mismatches[p] += run->mismatches[p];
        answers[p] += run->answers[p];
      }
    }
  }
  double share(int p) const {
    return answers[p] > 0 ? static_cast<double>(mismatches[p]) / static_cast<double>(answers[p])
                          : 0.0;
  }
  /// Fails the run when any answer differs from its twin.
  void check(Result* r) const {
    if (mismatches[0] + mismatches[1] == 0) return;
    r->fail_check(std::to_string(mismatches[0]) + " of " + std::to_string(answers[0]) +
                  " fp32 and " + std::to_string(mismatches[1]) + " of " +
                  std::to_string(answers[1]) +
                  " int8 answers differ from the batch-1 twin beyond 1e-4");
  }
};

double delta(const RungRun& r, const char* counter) {
  auto get = [&](const std::map<std::string, double>& m) {
    const auto it = m.find(counter);
    return it == m.end() ? 0.0 : it->second;
  };
  return get(r.counters_after) - get(r.counters_before);
}

std::int64_t useful_steps(const RungRun& r, const std::vector<Payload>& payloads) {
  std::int64_t steps = 0;
  for (std::size_t i = 0; i < r.sent.size(); ++i) {
    if (ok(r.sent[i])) steps += payloads[static_cast<std::size_t>(r.plan[i].payload)].t;
  }
  return steps;
}

double occupancy(const RungRun& r) {
  const double batches = static_cast<double>(r.after.batches - r.before.batches);
  return batches > 0 ? static_cast<double>(r.after.completed - r.before.completed) / batches
                     : 0.0;
}

// ------------------------------------------------------------ traced run

/// Per-batch server-side time, reconstructed from the server's own spans:
/// the requests one cut puts in a batch share the queue_wait end instant,
/// and batches of one model run in the order they were cut.
struct ServerSide {
  std::vector<double> per_request_ms;  ///< queue_wait + pool wait + execute
  double total_ns = 0.0;               ///< summed over requests
  std::vector<double> queue_wait_ms, execute_ms;
};

ServerSide server_side(const TraceView& tv, std::int64_t from_tel, std::int64_t to_tel) {
  struct Cut {
    std::uint64_t at = 0;
    std::vector<double> waits_ns;
  };
  std::map<std::string, std::map<std::uint64_t, Cut>> cuts;
  std::map<std::string, std::vector<const SpanEvent*>> execs;
  ServerSide out;
  for (const SpanEvent& e : tv.events()) {
    const auto ts = static_cast<std::int64_t>(e.ts_ns);
    if (ts < from_tel || ts > to_tel) continue;
    if (e.cat == "serve.queue_wait") {
      Cut& c = cuts[e.name][e.ts_ns + e.dur_ns];
      c.at = e.ts_ns + e.dur_ns;
      c.waits_ns.push_back(static_cast<double>(e.dur_ns));
      out.queue_wait_ms.push_back(static_cast<double>(e.dur_ns) * 1e-6);
    } else if (e.cat == "serve.execute") {
      execs[e.name].push_back(&e);
      out.execute_ms.push_back(static_cast<double>(e.dur_ns) * 1e-6);
    }
  }
  for (auto& [model, by_time] : cuts) {
    auto& ex = execs[model];
    std::sort(ex.begin(), ex.end(),
              [](const SpanEvent* a, const SpanEvent* b) { return a->ts_ns < b->ts_ns; });
    std::size_t k = 0;
    for (auto& [at, cut] : by_time) {
      if (k >= ex.size()) break;
      const SpanEvent& x = *ex[k++];
      const double pool_ns =
          x.ts_ns > at ? static_cast<double>(x.ts_ns - at) : 0.0;
      for (double w : cut.waits_ns) {
        const double ns = w + pool_ns + static_cast<double>(x.dur_ns);
        out.per_request_ms.push_back(ns * 1e-6);
        out.total_ns += ns;
      }
    }
  }
  return out;
}

std::int64_t spiking_neurons_per_image(const snnskip::infer::Plan& plan) {
  std::int64_t n = 0;
  for (const auto& v : plan.values) {
    if (v.spiking && v.def >= 0) n += v.floats;
  }
  return n / plan.input_shape[0];
}

/// The op kinds resnet18s spends its time in; the rest report as "other".
const char* op_kind_name(snnskip::infer::OpKind k) {
  using snnskip::infer::OpKind;
  switch (k) {
    case OpKind::Conv: return "conv";
    case OpKind::Linear: return "linear";
    case OpKind::GlobalAvgPool: return "gap";
    default: return "other";
  }
}

struct Untraced {
  Walk walk;
  double setup_s = 0.0;
  std::vector<Payload> payloads;
};

void traced_metrics(const WorkloadSpec& w, const Options& opts, Untraced& u,
                    Result* r) {
  const std::string dir = opts.work_dir + "/traced";
  std::filesystem::create_directories(dir);
  Telemetry::reset();
  Telemetry::set_enabled(true);
  std::unique_ptr<Deployment> d = deploy(dir);
  const TraceView setup_view(snnskip::telemetry::snapshot());
  const Walk walk = walk_ladder(w, opts, *d, &u.payloads, /*traced=*/true);
  Telemetry::set_enabled(false);
  const std::string trace_path = opts.work_dir + "/" + w.name + ".trace.json";
  if (!snnskip::write_chrome_trace(trace_path)) {
    r->fail_check("cannot write the Chrome trace " + trace_path);
  }
  const TraceView tv(snnskip::telemetry::snapshot());
  const serve::ServeStats stats = d->server->stats();
  const serve::SocketServer::TransportStats ts = d->sock->stats();
  const snnskip::infer::Plan& plan = *d->registry->load(d->manifests[0])->plan();
  const snnskip::infer::Plan& plan8 = *d->registry->load(d->manifests[1])->plan();

  TwinTally(walk).check(r);
  const RungRun& low = walk.rungs.at(walk.lows.front());
  const RungRun& high = walk.rungs.at(walk.high);
  const std::int64_t tel_off =
      static_cast<std::int64_t>(Telemetry::now_ns()) - wire::mono_now_ns();

  // Request-time attribution: each request's latency (due -> decoded
  // answer) splits into generator lateness, encode+write, server queue
  // wait + worker-pool wait + execute, and socket read + decode. What no
  // span covers is transport time (kernel + the server's I/O thread,
  // which has no spans of its own).
  double request_ns = 0.0, covered_ns = 0.0;
  std::vector<double> rtt_low_ms, lateness_ms;
  ServerSide both{};
  ServerSide low_side{};
  for (const RungRun* run : {&low, &high}) {
    const std::int64_t from = run->start_ns + tel_off, to = run->end_ns + tel_off;
    const ServerSide side = server_side(tv, from, to);
    if (run == &low) low_side = side;
    both.queue_wait_ms.insert(both.queue_wait_ms.end(), side.queue_wait_ms.begin(),
                              side.queue_wait_ms.end());
    both.execute_ms.insert(both.execute_ms.end(), side.execute_ms.begin(),
                           side.execute_ms.end());
    covered_ns += side.total_ns;
    for (const Sent& s : run->sent) {
      if (!s.answered) continue;
      request_ns += static_cast<double>(s.resp_ns - s.due_ns);
      covered_ns += static_cast<double>(s.sent_ns - s.due_ns);
      lateness_ms.push_back(static_cast<double>(s.send_ns - s.due_ns) * 1e-6);
      if (run == &low) rtt_low_ms.push_back(static_cast<double>(s.resp_ns - s.send_ns) * 1e-6);
    }
    for (const SpanEvent& e : tv.events()) {
      const auto t = static_cast<std::int64_t>(e.ts_ns);
      if (e.cat == "bench" && (e.name == "gen.read" || e.name == "gen.recv") && t >= from &&
          t <= to) {
        covered_ns += static_cast<double>(e.dur_ns);
      }
    }
  }
  const double unattributed = request_ns > 0.0 ? 1.0 - covered_ns / request_ns : 1.0;
  if (unattributed > 0.10) {
    std::fprintf(stderr, "%s: layer spans cover only %.1f%% of the request time\n", w.name,
                 100.0 * (1.0 - unattributed));
  }

  const double steps = delta(low, "infer.steps") + delta(high, "infer.steps");
  const double layers_total = delta(low, "infer.packed_layers") + delta(high, "infer.packed_layers") +
                              delta(low, "infer.csr_layers") + delta(high, "infer.csr_layers") +
                              delta(low, "infer.dense_layers") + delta(high, "infer.dense_layers");
  const double answered = static_cast<double>(
      std::count_if(low.sent.begin(), low.sent.end(), ok) +
      std::count_if(high.sent.begin(), high.sent.end(), ok));
  const std::int64_t useful = useful_steps(low, u.payloads) + useful_steps(high, u.payloads);
  const snnskip::ModelConfig cfg = model_config();
  snnskip::Network net = snnskip::build_model(
      "resnet18s", cfg, snnskip::default_adjacencies("resnet18s", cfg));
  const double macs_per_step = static_cast<double>(
      snnskip::count_macs(net, snnskip::Shape{1, kChannels, kSide, kSide}).total);

  auto slot_use = [&](const RungRun& run) {
    const double s = delta(run, "infer.steps");
    return s > 0 ? static_cast<double>(useful_steps(run, u.payloads)) / (s * kBatch) : 0.0;
  };

  // Self time per op kind: infer.op spans have no child spans except the
  // aggregate-only gemm calls, which the dense conv and linear paths make.
  std::map<std::string, double> kind_s;
  std::map<std::string, std::string> kind_of;
  for (const auto* p : {&plan, &plan8}) {
    for (const auto& op : p->ops) kind_of[op.name] = op_kind_name(op.kind);
  }
  for (const auto& [name, s] : tv.agg_by_name("infer.op")) {
    const auto it = kind_of.find(name);
    kind_s[it == kind_of.end() ? "other" : it->second] += s;
  }
  const double gemm_s = tv.agg_total_s("gemm");
  kind_s["conv"] = std::max(0.0, kind_s["conv"] - gemm_s);


  r->add("infer.step_us.p50", median(tv.durations_ms("infer.step")) * 1e3, "us");
  for (const char* k : {"conv", "linear", "gap", "other"}) {
    r->add(std::string("infer.op.") + k + "_s", kind_s[k], "s");
  }
  r->add("infer.packed_share",
         layers_total > 0 ? (delta(low, "infer.packed_layers") + delta(high, "infer.packed_layers")) /
                                layers_total
                          : 0.0,
         "ratio");
  r->add("infer.density",
         steps > 0 ? (delta(low, "infer.spikes_popcount") + delta(high, "infer.spikes_popcount")) /
                         (steps * kBatch * static_cast<double>(spiking_neurons_per_image(plan)))
                   : 0.0,
         "ratio");
  r->add("infer.synops_per_req",
         answered > 0 ? (delta(low, "infer.synops") + delta(high, "infer.synops")) / answered : 0.0,
         "count");
  r->add("infer.dense_macs_per_req",
         answered > 0 ? macs_per_step * static_cast<double>(useful) / answered : 0.0, "count");
  r->add("tensor.gemm_s", gemm_s, "s");
  r->add("serve.queue_wait_ms.p50", median(both.queue_wait_ms), "ms");
  r->add("serve.queue_wait_ms.p99", percentile(both.queue_wait_ms, 99), "ms");
  r->add("serve.execute_ms.p50", median(both.execute_ms), "ms");
  r->add("serve.server_p99_ms", stats.p99_ms, "ms");
  r->add("serve.batch_occupancy.low", occupancy(low), "requests");
  r->add("serve.batch_occupancy.high", occupancy(high), "requests");
  r->add("serve.batch_occupancy.closed", occupancy(walk.rungs.at(walk.closed.front())),
         "requests");
  r->add("serve.slot_use_ratio.low", slot_use(low), "ratio");
  r->add("serve.slot_use_ratio.high", slot_use(high), "ratio");
  r->add("serve.queue_depth_hw", static_cast<double>(stats.queue_depth_high_water), "requests");
  r->add("serve.rejected",
         static_cast<double>(low.after.rejected - low.before.rejected +
                             high.after.rejected - high.before.rejected),
         "count");
  r->add("serve.expired",
         static_cast<double>(low.after.expired - low.before.expired +
                             high.after.expired - high.before.expired),
         "count");
  r->add("serve.wire_ms.p50", median(rtt_low_ms) - median(low_side.per_request_ms), "ms");
  r->add("serve.transport.frames_torn", static_cast<double>(ts.frames_torn), "count");
  r->add("serve.transport.protocol_errors", static_cast<double>(ts.protocol_errors), "count");
  r->add("serve.transport.disconnects", static_cast<double>(ts.disconnects), "count");
  r->add("serve.registry.load_s.fp32", setup_view.agg_total_s("bench", "serve.registry_load.fp32"), "s");
  r->add("serve.registry.load_s.int8", setup_view.agg_total_s("bench", "serve.registry_load.int8"), "s");
  r->add("gen.lateness_p99_ms", percentile(lateness_ms, 99), "ms");
  r->add("attr.unattributed_share", unattributed, "ratio");
  // Tracing overhead on the primary figure, the gated closed-loop rate.
  r->add("trace.overhead_ratio", walk.closed_rps > 0 ? u.walk.closed_rps / walk.closed_rps : 0.0,
         "ratio");
}

}  // namespace

Result run_serve(const Options& opts, bool dense) {
  const WorkloadSpec w = spec_for(dense);
  Result r;
  Untraced u;
  std::unique_ptr<Deployment> d;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    d.reset();  // the previous deployment shuts down before the next starts
    const std::string dir = opts.work_dir + "/deploy" + std::to_string(i);
    std::filesystem::create_directories(dir);
    d = deploy(dir);
    setups.push_back(d->setup_s);
  }
  u.setup_s = median(setups);
  u.payloads = make_payloads(w, opts.seed, *d);

  u.walk = walk_ladder(w, opts, *d, &u.payloads, /*traced=*/false);
  const TwinTally twins(u.walk);
  twins.check(&r);
  std::int64_t within = 0;
  std::vector<std::size_t> reported = u.walk.lows;
  reported.push_back(u.walk.high);
  for (std::size_t i : reported) {
    const RungResult s = summarize(u.walk.rungs[i], w.limit_ms);
    r.attempted += s.sent;
    r.failed += s.failed;
    within += s.within_limit;
  }
  const Latency wl = latency(u.walk.passes(u.walk.lows)), wh = latency(u.walk.passes({u.walk.high}));
  const std::vector<Metric> named = {
      {"lat_p50_ms.low", wl.p50, "ms"},
      {"lat_tail_ms.low", wl.tail, "ms"},
      {"tail_percentile.low", wl.tail_pct, "pct"},
      {"lat_p50_ms.high", wh.p50, "ms"},
      {"lat_tail_ms.high", wh.tail, "ms"},
      {"tail_percentile.high", wh.tail_pct, "pct"},
      {"max_rps_at_slo", u.walk.max_rps_at_slo, "1/s"},
      {"closed_rps", u.walk.closed_rps, "1/s"},
      {"closed_p50_ms", u.walk.closed_p50_ms, "ms"},
      {"twin_mismatch_share.fp32", twins.share(0), "ratio"},
      {"twin_mismatch_share.int8", twins.share(1), "ratio"},
  };
  print_named(w.name, named);
  if (!opts.trace) {
    r.add("throughput_per_s", u.walk.closed_rps, "1/s");
    r.add("latency_ms", u.walk.closed_p50_ms, "ms");
    r.add("quality", static_cast<double>(within) / static_cast<double>(r.attempted), "ratio");
    r.add("setup_s", u.setup_s, "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }
  for (const Metric& m : named) r.add("e2e." + m.name, m.value, m.unit);
  d.reset();
  traced_metrics(w, opts, u, &r);
  return r;
}

}  // namespace e2e

#include "serve/options.h"

#include "util/runtime_env.h"

namespace snnskip::serve {

ServeOptions ServeOptions::from_env() {
  ServeOptions o;
  o.queue_capacity = env::get_int("SNNSKIP_SERVE_QUEUE", o.queue_capacity);
  if (o.queue_capacity < 1) o.queue_capacity = 1;
  o.workers = env::get_int("SNNSKIP_SERVE_WORKERS", o.workers);
  if (o.workers < 1) o.workers = 1;
  o.port = env::get_int("SNNSKIP_SERVE_PORT", o.port);
  if (o.port < 0 || o.port > 65535) o.port = 0;
  o.io_timeout_ms =
      env::get_int("SNNSKIP_SERVE_IO_TIMEOUT_MS", o.io_timeout_ms);
  if (o.io_timeout_ms < 1) o.io_timeout_ms = 1;
  o.drain_timeout_ms =
      env::get_int("SNNSKIP_SERVE_DRAIN_MS", o.drain_timeout_ms);
  if (o.drain_timeout_ms < 0) o.drain_timeout_ms = 0;
  return o;
}

}  // namespace snnskip::serve

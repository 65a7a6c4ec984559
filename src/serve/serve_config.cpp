#include "serve/serve_config.hpp"

#include "jobs/jobs_config.hpp"

namespace rumr::serve {

ServerOptions server_options_from_config(const config::ConfigFile& file) {
  ServerOptions options;
  options.threads = file.get_size("serve", "threads", options.threads);
  options.batch_threads = file.get_size("serve", "batch_threads", options.batch_threads);
  options.cache_capacity = file.get_size("serve", "cache_capacity", options.cache_capacity);
  options.cache_max_bytes = file.get_size("serve", "cache_bytes", options.cache_max_bytes);
  options.cache_shards = file.get_size("serve", "cache_shards", options.cache_shards);
  options.queue_capacity = file.get_size("serve", "queue_capacity", options.queue_capacity);
  options.discipline =
      jobs::parse_discipline(config::lower_ascii(file.get_string("serve", "queue", "fcfs")));
  options.admission =
      jobs::parse_admission(config::lower_ascii(file.get_string("serve", "admission", "reject")));
  options.audit = file.get_bool("serve", "audit", options.audit);
  return options;
}

}  // namespace rumr::serve

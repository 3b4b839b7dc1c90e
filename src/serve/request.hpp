// everest/serve/request.hpp
//
// Typed requests and responses of the everest::serve layer. The serving
// runtime turns the SDK from a one-DFG-per-call library into a multi-tenant
// request server (the design-environment paper's virtualized-node runtime,
// and the 1st-CLaaS FPGA-as-a-service shape: many clients, one accelerator
// pool, batched dispatch). One server fronts one serving graph; a request is
// one element of that graph's input streams.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "runtime/dfg_executor.hpp"
#include "support/expected.hpp"

namespace everest::serve {

/// One inference/analytics request: a single element for every input stream
/// of the serving graph.
struct Request {
  std::string tenant = "default";
  /// One record per graph input stream, keyed by the dfg.input name. Every
  /// declared input must be present.
  std::map<std::string, runtime::Record> inputs;
  /// Absolute deadline on the server clock (us since server construction);
  /// < 0 means none. Requests still queued past their deadline are shed
  /// with DeadlineExceeded instead of executed: stamp it as
  /// Server::now_us() + budget.
  double deadline_us = -1.0;
  /// Higher priority dequeues first *within* a tenant; tenants compete only
  /// through their fair-share weights.
  int priority = 0;
};

/// The completed (or shed/failed) counterpart of one Request.
struct Response {
  std::uint64_t request_id = 0;
  std::string tenant;
  /// Ok when `outputs` is valid; otherwise the error that shed or failed
  /// the request (Unavailable for load shedding / exhausted backends,
  /// DeadlineExceeded for deadline shedding).
  support::Status status;
  /// One record per graph output stream — byte-identical to what a
  /// single-request (unbatched) execution would produce.
  std::map<std::string, runtime::Record> outputs;
  /// Server-clock timestamps (us) and derived latency.
  double admit_us = 0.0;
  double finish_us = 0.0;
  double latency_us = 0.0;
  /// The batch this request rode in.
  std::uint64_t batch_id = 0;
  std::size_t batch_size = 0;
  /// Which backend executed it ("" when shed before dispatch).
  std::string backend;
  /// True when the request ran on a non-primary backend (failover).
  bool degraded = false;
};

/// Per-tenant QoS knobs.
struct TenantConfig {
  /// Fair-share weight: a tenant with weight 2 dequeues twice as often as a
  /// weight-1 tenant under contention. Must be > 0.
  double weight = 1.0;
  /// Token-bucket admission rate in requests/second; <= 0 disables rate
  /// limiting for the tenant.
  double rate_per_s = 0.0;
  /// Token-bucket burst capacity (only meaningful when rate_per_s > 0).
  double burst = 8.0;
  /// Per-tenant queue bound; 0 falls back to the server default. Admissions
  /// beyond the bound are shed with Unavailable.
  std::size_t queue_bound = 0;
};

}  // namespace everest::serve

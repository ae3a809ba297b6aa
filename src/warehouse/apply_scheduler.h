#ifndef OPDELTA_WAREHOUSE_APPLY_SCHEDULER_H_
#define OPDELTA_WAREHOUSE_APPLY_SCHEDULER_H_

#include <cstddef>

#include "common/thread_pool.h"
#include "warehouse/integrator.h"

namespace opdelta::warehouse {

/// An OpDeltaIntegrator built from the former parallel-apply options. Op-delta
/// apply is inline, so `pool` and `max_inflight` are ignored and only
/// `cache` is passed on. Kept only because cdcbench/cdcbench.cc compiles
/// against this name.
class ParallelApplyScheduler : public OpDeltaIntegrator {
 public:
  struct Options {
    ThreadPool* pool = nullptr;
    size_t max_inflight = 1;
    sql::StatementCache* cache = nullptr;
  };

  ParallelApplyScheduler(engine::Database* warehouse, Options options)
      : OpDeltaIntegrator(warehouse, options.cache) {}
};

}  // namespace opdelta::warehouse

#endif  // OPDELTA_WAREHOUSE_APPLY_SCHEDULER_H_

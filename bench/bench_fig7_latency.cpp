// Fig. 7 of the paper: host/device transfer latency microbenchmark.
//
// Transfer times for messages of 1 KiB .. 256 KiB in four modes: cudaMemcpy
// and cudaMemcpyAsync(+synchronize), each in both directions.  The paper's
// observations to reproduce: cudaMemcpyAsync carries ~50 us of latency
// against ~11 us for cudaMemcpy (the Tylersburg chipset issue), and the
// host-to-device and device-to-host curves have different slopes
// (asymmetric bandwidth).  Timings are averaged over many transfers as in
// the paper's 500,000-transfer measurement.
//
// Each mode is traced and run through the critical-path analyzer, so
// BENCH_fig7_latency.json carries a per-point attribution (PCIe occupancy
// vs host-side issue/sync time) -- the sync-vs-async latency gap is then
// explainable from the JSON alone: the async points show the same bus
// occupancy but a far larger non-PCIe share per transfer.

#include "bench_util.h"
#include "gpusim/device.h"
#include "trace/critpath.h"

#include <cstdio>

using namespace quda;
using namespace quda::gpusim;

namespace {

struct TransferPoint {
  double avg_us = 0;            // average per-transfer latency
  trace::CritSummary crit;      // attribution of the traced rep loop
};

// average per-transfer time over `reps` back-to-back transfers on an
// otherwise idle device, with the rep loop traced and attributed
TransferPoint measure(const DeviceSpec& spec, std::int64_t bytes, CopyDir dir, bool async,
                      int reps) {
  Device dev(spec, BusModel{});
  double host = 0.0;
  trace::RankTracer tracer;
  tracer.bind(0, &host);
  tracer.set_enabled(true);
  trace::ScopedTracer bind(&tracer);
  for (int i = 0; i < reps; ++i) {
    if (async) {
      host = dev.memcpy_async(host, 1, bytes, dir);
      host = dev.stream_synchronize(host, 1); // cudaMemcpyAsync + synchronize
    } else {
      host = dev.memcpy_sync(host, bytes, dir);
    }
  }
  TransferPoint p;
  p.avg_us = host / reps;
  trace::TraceReport report;
  report.enabled = true;
  report.per_rank.push_back(tracer.take_events());
  p.crit = trace::analyze_solve(report, trace::ModelConfig{spec.dual_copy_engine});
  return p;
}

void record(bench::BenchJson& json, std::int64_t bytes, const char* mode, const char* dir,
            const TransferPoint& p, int reps) {
  json.point();
  json.field("bytes", static_cast<double>(bytes));
  json.field("mode", mode);
  json.field("dir", dir);
  json.field("time_us", p.avg_us);
  bench::record_critpath(json, p.crit);
  if (p.crit.valid) {
    // per-transfer shares of the rep loop's critical path
    json.field("pcie_us_per_transfer", p.crit.pcie_us() / reps);
    json.field("host_us_per_transfer", (p.crit.path_us - p.crit.pcie_us()) / reps);
  }
}

} // namespace

int main() {
  std::printf("Fig. 7: transfer-time microbenchmark (GeForce GTX 285 node model)\n\n");
  std::printf("%-10s %18s %18s %22s %22s\n", "bytes", "memcpy d2h (us)", "memcpy h2d (us)",
              "memcpyAsync d2h (us)", "memcpyAsync h2d (us)");

  bench::BenchJson json("fig7_latency");
  json.config("device", "geforce_gtx285");

  const DeviceSpec& spec = geforce_gtx285();
  const int reps = 500; // the model is deterministic; tracing makes reps cheap but not free
  json.config("reps", static_cast<double>(reps));
  for (std::int64_t bytes = 1 << 10; bytes <= 1 << 18; bytes <<= 1) {
    const TransferPoint sd = measure(spec, bytes, CopyDir::DeviceToHost, false, reps);
    const TransferPoint sh = measure(spec, bytes, CopyDir::HostToDevice, false, reps);
    const TransferPoint ad = measure(spec, bytes, CopyDir::DeviceToHost, true, reps);
    const TransferPoint ah = measure(spec, bytes, CopyDir::HostToDevice, true, reps);
    std::printf("%-10lld %18.1f %18.1f %22.1f %22.1f\n", static_cast<long long>(bytes),
                sd.avg_us, sh.avg_us, ad.avg_us, ah.avg_us);
    record(json, bytes, "sync", "d2h", sd, reps);
    record(json, bytes, "sync", "h2d", sh, reps);
    record(json, bytes, "async", "d2h", ad, reps);
    record(json, bytes, "async", "h2d", ah, reps);
  }

  std::printf("\nexpected structure: ~11 us sync latency vs ~50 us async latency; d2h\n");
  std::printf("slope steeper than h2d (asymmetric bus bandwidth)\n");
  std::printf("\nattribution of the largest async d2h point:\n%s",
              trace::attribution_table(
                  measure(spec, 1 << 18, CopyDir::DeviceToHost, true, reps).crit)
                  .c_str());
  json.write();
  return 0;
}

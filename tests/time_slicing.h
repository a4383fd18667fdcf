#pragma once
// An independent test-side implementation of the paper's 1-D (time)
// decomposition: rank r owns time slices [r*T/N, (r+1)*T/N).  The library
// slices through the general 4-D block code (core/partition.h) with the
// {1,1,1,N} grid; tests use this copy to check it against.

#include "lattice/host_field.h"

namespace quda::time_slicing {

inline Geometry local_geometry(const Geometry& global, int n_ranks) {
  LatticeDims d = global.dims();
  d.t /= n_ranks;
  return Geometry(d);
}

inline Coords to_global(const Coords& local, int rank, int t_local) {
  Coords g = local;
  g[3] += rank * t_local;
  return g;
}

inline HostGaugeField slice_gauge(const HostGaugeField& global, int rank, int n_ranks) {
  const Geometry lg = local_geometry(global.geom(), n_ranks);
  HostGaugeField local(lg);
  for (std::int64_t i = 0; i < lg.volume(); ++i) {
    const Coords lc = lg.coords(i);
    const Coords gc = to_global(lc, rank, lg.dims().t);
    for (int mu = 0; mu < 4; ++mu) local.link(mu, lc) = global.link(mu, gc);
  }
  return local;
}

inline HostSpinorField slice_spinor(const HostSpinorField& global, int rank, int n_ranks) {
  const Geometry lg = local_geometry(global.geom(), n_ranks);
  HostSpinorField local(lg);
  for (std::int64_t i = 0; i < lg.volume(); ++i)
    local[i] = global.at(to_global(lg.coords(i), rank, lg.dims().t));
  return local;
}

inline HostCloverField slice_clover(const HostCloverField& global, int rank, int n_ranks) {
  const Geometry lg = local_geometry(global.geom(), n_ranks);
  HostCloverField local(lg);
  for (std::int64_t i = 0; i < lg.volume(); ++i)
    local[i] = global[global.geom().linear_index(to_global(lg.coords(i), rank, lg.dims().t))];
  return local;
}

inline void merge_spinor(HostSpinorField& global, const HostSpinorField& local, int rank) {
  const Geometry& lg = local.geom();
  for (std::int64_t i = 0; i < lg.volume(); ++i)
    global.at(to_global(lg.coords(i), rank, lg.dims().t)) = local[i];
}

} // namespace quda::time_slicing

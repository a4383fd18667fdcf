#pragma once
// Device-resident gauge field in the QUDA blocked layout.
//
// Storage is per direction mu and per parity; each (mu, parity) slab is a
// BlockLayout over the half-volume, padded by one face perpendicular to mu.
// Links are stored full (18 reals), 2-row compressed (12 reals, Section
// V-C1), or in the minimal 8-real parameterization (Clark et al.,
// arXiv:0911.3191) -- the knob that trades reconstruction arithmetic for
// gauge memory traffic on the bandwidth-bound dslash.
//
// Gauge ghost zone (Section VI-B): for a decomposition that cuts dimension
// mu, the link matrices that must be fetched from the backward neighbor are
// the U_mu links of its last slice perpendicular to mu.  Since the pad
// region of the mu slab is exactly one such face in size, the ghost links
// are stored *inside the padding* -- no extra allocation.  (The paper does
// this for the time direction; the multi-dimensional extension applies the
// same trick per cut dimension.)

#include "lattice/geometry.h"
#include "lattice/layout.h"
#include "lattice/precision.h"
#include "su3/su3.h"

#include <array>
#include <cassert>
#include <vector>

namespace quda {

enum class Reconstruct : int {
  Eight = 8,     // phase + second-row parameterization, fully rebuilt in registers
  Twelve = 12,   // 2-row compressed, third row rebuilt in registers
  Eighteen = 18, // full matrix
};

// stored reals per link = the enum value
inline constexpr int reals_per_link(Reconstruct r) { return static_cast<int>(r); }

inline const char* to_string(Reconstruct r) {
  switch (r) {
    case Reconstruct::Eight: return "8";
    case Reconstruct::Twelve: return "12";
    case Reconstruct::Eighteen: return "18";
  }
  return "?";
}

template <typename P> class GaugeField {
public:
  using store_t = typename P::store_t;
  using real_t = typename P::real_t;

  GaugeField() = default;

  // slab mu padded by the face perpendicular to mu, so any
  // dimension can host a gauge ghost
  GaugeField(const Geometry& geom, Reconstruct recon) {
    std::array<std::int64_t, 4> pads;
    for (int mu = 0; mu < 4; ++mu) pads[static_cast<std::size_t>(mu)] = geom.face_sites(mu);
    init(geom.half_volume(), pads, recon);
  }

  Reconstruct reconstruct() const { return recon_; }
  std::int64_t ghost_capacity(int mu) const { return layouts_[static_cast<std::size_t>(mu)].pad; }

  std::int64_t device_bytes() const { return std::int64_t(data_.size()) * sizeof(store_t); }

  SU3<real_t> load(int mu, Parity parity, std::int64_t cb) const {
    assert(cb >= 0 && cb < layouts_[static_cast<std::size_t>(mu)].sites);
    return load_at(mu, slab_base(mu, parity), cb);
  }

  void store(int mu, Parity parity, std::int64_t cb, const SU3<double>& u) {
    assert(cb >= 0 && cb < layouts_[static_cast<std::size_t>(mu)].sites);
    store_at(mu, slab_base(mu, parity), cb, u);
  }

  // ghost links for a decomposition cutting dimension mu: the U_mu links of
  // the backward neighbor's last slice, living in the pad of the mu slab
  SU3<real_t> load_ghost(int mu, Parity parity, std::int64_t face_site) const {
    assert(face_site >= 0 && face_site < ghost_capacity(mu));
    return load_at(mu, slab_base(mu, parity), layouts_[static_cast<std::size_t>(mu)].sites + face_site);
  }

  void store_ghost(int mu, Parity parity, std::int64_t face_site, const SU3<double>& u) {
    assert(face_site >= 0 && face_site < ghost_capacity(mu));
    store_at(mu, slab_base(mu, parity), layouts_[static_cast<std::size_t>(mu)].sites + face_site, u);
  }

  const std::vector<store_t>& raw_data() const { return data_; }

private:
  void init(std::int64_t sites, const std::array<std::int64_t, 4>& pads, Reconstruct recon) {
    recon_ = recon;
    // 18-real (uncompressed) storage is not divisible by a 4-vector, so it
    // always uses 2-vectors (QUDA stores uncompressed links as float2)
    const int nvec = recon == Reconstruct::Eighteen ? 2 : P::nvec;
    std::int64_t off = 0;
    for (int mu = 0; mu < 4; ++mu) {
      layouts_[static_cast<std::size_t>(mu)] =
          BlockLayout(sites, pads[static_cast<std::size_t>(mu)], static_cast<int>(recon), nvec);
      base_[static_cast<std::size_t>(mu)] = off;
      off += 2 * layouts_[static_cast<std::size_t>(mu)].body_size();
    }
    data_.assign(static_cast<std::size_t>(off), store_t{});
  }

  std::int64_t slab_base(int mu, Parity parity) const {
    return base_[static_cast<std::size_t>(mu)] +
           parity_int(parity) * layouts_[static_cast<std::size_t>(mu)].body_size();
  }

  // load_at/store_at walk the blocked layout incrementally (idx + w inside
  // the current short vector, idx stepping one block stride when it fills),
  // matching l.index(x, n) without per-component integer division
  SU3<real_t> load_at(int mu, std::int64_t base, std::int64_t x) const {
    const BlockLayout& l = layouts_[static_cast<std::size_t>(mu)];
    const int nvec = l.nvec;
    const std::int64_t bstep = std::int64_t(nvec) * l.stride();
    std::int64_t idx = base + std::int64_t(nvec) * x;
    int w = 0;
    if (recon_ == Reconstruct::Eight) {
      SU3Packed8<real_t> p;
      for (int k = 0; k < 8; ++k) {
        real_t v = raw(idx + w);
        if constexpr (P::value == Precision::Half)
          if (k < 2) v = unit_to_phase(v); // phases are stored as theta/pi
        p.v[static_cast<std::size_t>(k)] = v;
        ++w;
        if (w == nvec) {
          w = 0;
          idx += bstep;
        }
      }
      return unpack_eight(p);
    }
    const int rows = (recon_ == Reconstruct::Twelve) ? 2 : 3;
    SU3<real_t> u;
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < 3; ++c) {
        u.e[r][c] = Complex<real_t>(raw(idx + w), raw(idx + w + 1));
        w += 2;
        if (w == nvec) {
          w = 0;
          idx += bstep;
        }
      }
    if (recon_ == Reconstruct::Twelve) u.e[2] = reconstruct_third_row(u.e[0], u.e[1]);
    return u;
  }

  void store_at(int mu, std::int64_t base, std::int64_t x, const SU3<double>& u) {
    const BlockLayout& l = layouts_[static_cast<std::size_t>(mu)];
    const int nvec = l.nvec;
    const std::int64_t bstep = std::int64_t(nvec) * l.stride();
    std::int64_t idx = base + std::int64_t(nvec) * x;
    int w = 0;
    if (recon_ == Reconstruct::Eight) {
      const SU3Packed8<double> p = pack_eight(u);
      for (int k = 0; k < 8; ++k) {
        real_t v = static_cast<real_t>(p.v[static_cast<std::size_t>(k)]);
        if constexpr (P::value == Precision::Half)
          if (k < 2) v = phase_to_unit(v); // keep the fixed-point range
        set_raw(idx + w, v);
        ++w;
        if (w == nvec) {
          w = 0;
          idx += bstep;
        }
      }
      return;
    }
    const int rows = (recon_ == Reconstruct::Twelve) ? 2 : 3;
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < 3; ++c) {
        set_raw(idx + w, static_cast<real_t>(u.e[r][c].re));
        set_raw(idx + w + 1, static_cast<real_t>(u.e[r][c].im));
        w += 2;
        if (w == nvec) {
          w = 0;
          idx += bstep;
        }
      }
  }

  real_t raw(std::int64_t i) const {
    const store_t v = data_[static_cast<std::size_t>(i)];
    if constexpr (P::value == Precision::Half)
      return from_half(v);
    else
      return static_cast<real_t>(v);
  }

  void set_raw(std::int64_t i, real_t v) {
    if constexpr (P::value == Precision::Half)
      data_[static_cast<std::size_t>(i)] = to_half(static_cast<float>(v));
    else
      data_[static_cast<std::size_t>(i)] = static_cast<store_t>(v);
  }

  Reconstruct recon_ = Reconstruct::Twelve;
  std::array<BlockLayout, 4> layouts_{};
  std::array<std::int64_t, 4> base_{};
  std::vector<store_t> data_;
};

using GaugeFieldD = GaugeField<PrecDouble>;
using GaugeFieldS = GaugeField<PrecSingle>;
using GaugeFieldH = GaugeField<PrecHalf>;

} // namespace quda

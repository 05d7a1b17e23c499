#include "gen/realistic.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "gen/emitter.h"
#include "gen/random_walk.h"
#include "util/check.h"
#include "util/rng.h"

namespace hydra::gen {
namespace {

// The four realistic emitters below hold the family RNG and produce one
// series per Emit; the whole-dataset functions and `hydra gen`'s streaming
// writer share them, so both paths are byte-identical by construction.

class SeismicEmitter : public SeriesEmitter {
 public:
  SeismicEmitter(size_t length, uint64_t seed)
      : SeriesEmitter("Seismic", length), rng_(seed) {}

 protected:
  void EmitRaw(core::Value* row) override {
    const size_t length = this->length();
    for (size_t j = 0; j < length; ++j) {
      row[j] = static_cast<core::Value>(0.3 * rng_.Gaussian());
    }
    const int events = 1 + rng_.Poisson(1.5);
    for (int e = 0; e < events; ++e) {
      const size_t onset = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(length) - 1));
      const double amplitude = std::exp(rng_.Gaussian(1.0, 0.6));
      const double freq = rng_.Uniform(0.05, 0.35);   // cycles per sample
      const double decay = rng_.Uniform(0.02, 0.1);   // envelope decay rate
      const double phase = rng_.Uniform(0.0, 2.0 * M_PI);
      for (size_t j = onset; j < length; ++j) {
        const double t = static_cast<double>(j - onset);
        row[j] += static_cast<core::Value>(
            amplitude * std::exp(-decay * t) *
            std::sin(2.0 * M_PI * freq * t + phase));
      }
    }
  }

 private:
  util::Rng rng_;
};

class AstroEmitter : public SeriesEmitter {
 public:
  AstroEmitter(size_t length, uint64_t seed)
      : SeriesEmitter("Astro", length), rng_(seed) {}

 protected:
  void EmitRaw(core::Value* row) override {
    const size_t length = this->length();
    const double period =
        rng_.Uniform(static_cast<double>(length) / 8.0,
                     static_cast<double>(length) / 2.0);
    const double base_phase = rng_.Uniform(0.0, 2.0 * M_PI);
    double harmonics[3];
    for (double& h : harmonics) h = std::exp(rng_.Gaussian(0.0, 0.5));
    harmonics[1] *= 0.5;
    harmonics[2] *= 0.25;
    for (size_t j = 0; j < length; ++j) {
      const double t = static_cast<double>(j);
      double v = 0.0;
      for (int h = 0; h < 3; ++h) {
        v += harmonics[h] *
             std::sin(2.0 * M_PI * (h + 1) * t / period + base_phase * (h + 1));
      }
      row[j] = static_cast<core::Value>(v + 0.2 * rng_.Gaussian());
    }
  }

 private:
  util::Rng rng_;
};

class SaldEmitter : public SeriesEmitter {
 public:
  SaldEmitter(size_t length, uint64_t seed)
      : SeriesEmitter("SALD", length), rng_(seed) {}

 protected:
  void EmitRaw(core::Value* row) override {
    constexpr double kAr = 0.97;  // strong autocorrelation: smooth signals
    const size_t length = this->length();
    double state = rng_.Gaussian();
    const double drift_period =
        rng_.Uniform(static_cast<double>(length) / 2.0,
                     static_cast<double>(length) * 2.0);
    const double drift_phase = rng_.Uniform(0.0, 2.0 * M_PI);
    for (size_t j = 0; j < length; ++j) {
      state = kAr * state + std::sqrt(1.0 - kAr * kAr) * rng_.Gaussian();
      const double drift =
          0.8 * std::sin(2.0 * M_PI * static_cast<double>(j) / drift_period +
                         drift_phase);
      row[j] = static_cast<core::Value>(state + drift);
    }
  }

 private:
  util::Rng rng_;
};

class DeepEmitter : public SeriesEmitter {
 public:
  DeepEmitter(size_t length, uint64_t seed)
      : SeriesEmitter("Deep1B", length),
        rng_(seed),
        // Shared random mixing matrix: latent factors spread across all
        // positions, so no short prefix of any fixed transform captures
        // most of the energy. Drawn before the first series, like the
        // whole-dataset generator did.
        rank_(std::max<size_t>(4, length / 8)),
        mix_(rank_ * length),
        latent_(rank_) {
    for (double& m : mix_) {
      m = rng_.Gaussian() / std::sqrt(static_cast<double>(rank_));
    }
  }

 protected:
  void EmitRaw(core::Value* row) override {
    const size_t length = this->length();
    for (double& z : latent_) z = rng_.Gaussian();
    for (size_t j = 0; j < length; ++j) {
      double v = 0.0;
      for (size_t r = 0; r < rank_; ++r) v += latent_[r] * mix_[r * length + j];
      row[j] = static_cast<core::Value>(v + 0.4 * rng_.Gaussian());
    }
  }

 private:
  util::Rng rng_;
  size_t rank_;
  std::vector<double> mix_;
  std::vector<double> latent_;
};

// Single source of truth for the family names: MakeEmitter dispatch and
// KnownFamilies both read this table.
using EmitterFactory =
    std::unique_ptr<SeriesEmitter> (*)(size_t length, uint64_t seed);

struct FamilyEntry {
  const char* name;
  EmitterFactory make;
};

template <typename E>
std::unique_ptr<SeriesEmitter> Make(size_t length, uint64_t seed) {
  return std::make_unique<E>(length, seed);
}

constexpr FamilyEntry kFamilyTable[] = {
    {"synth",
     [](size_t length, uint64_t seed) -> std::unique_ptr<SeriesEmitter> {
       return std::make_unique<RandomWalkEmitter>(length, seed);
     }},
    {"seismic", Make<SeismicEmitter>},
    {"astro", Make<AstroEmitter>},
    {"sald", Make<SaldEmitter>},
    {"deep", Make<DeepEmitter>},
};

core::Dataset EmitAll(SeriesEmitter* emitter, size_t count) {
  core::Dataset data(emitter->name(), emitter->length());
  data.Reserve(count);
  for (size_t i = 0; i < count; ++i) {
    emitter->Emit(data.AppendUninitialized());
  }
  return data;
}

}  // namespace

std::unique_ptr<SeriesEmitter> MakeEmitter(const std::string& family,
                                           size_t length, uint64_t seed) {
  for (const FamilyEntry& entry : kFamilyTable) {
    if (family == entry.name) return entry.make(length, seed);
  }
  HYDRA_CHECK_MSG(false, "unknown dataset family");
  return nullptr;
}

core::Dataset MakeDataset(const std::string& family, size_t count,
                          size_t length, uint64_t seed) {
  return EmitAll(MakeEmitter(family, length, seed).get(), count);
}

const std::vector<std::string>& KnownFamilies() {
  static const std::vector<std::string> kFamilies = [] {
    std::vector<std::string> names;
    for (const FamilyEntry& entry : kFamilyTable) names.push_back(entry.name);
    return names;
  }();
  return kFamilies;
}

bool IsKnownFamily(const std::string& family) {
  for (const std::string& f : KnownFamilies()) {
    if (f == family) return true;
  }
  return false;
}

}  // namespace hydra::gen

#include "index/vafile.h"

#include <algorithm>
#include <cmath>

#include "core/distance.h"
#include "core/refine.h"
#include "io/counted_storage.h"
#include "io/index_codec.h"
#include "transform/dft.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::index {
namespace {

/// Per-thread query scratch, reused across queries like ScratchKnnHeap:
/// the cell-bound tables, phase 1's per-series lower bounds and the
/// refinement's candidates. Every entry point below re-arms it once per
/// query, so at most one use is live per thread and concurrent queries
/// never share one.
struct VaScratch {
  std::vector<double> q_full;  // the query's full packed DFT
  transform::VaPlusQuantizer::QueryBounds bounds;
  std::vector<double> lb;
  core::Candidates candidates;
};

VaScratch& Scratch() {
  thread_local VaScratch scratch;
  return scratch;
}

/// The query's full packed DFT (DC skipped), in the thread's scratch.
std::span<const double> QueryDft(core::SeriesView query) {
  std::vector<double>& q_full = Scratch().q_full;
  q_full.resize(transform::MaxPackedCoeffs(query.size(), /*skip_dc=*/true));
  transform::PackedRealDft(query, /*skip_dc=*/true, q_full);
  return q_full;
}

/// The phase-2 refinement of one worker (see DoSearchKnn): the exact
/// criterion prunes against min(seed, heap bound) always, the epsilon
/// shrink additionally once the heap is full; abandoning is against that
/// running bound, or against the heap's own with `exact_values`.
struct VaRefine : core::KnnRefine {
  double seed;  // phase 1's k-th best upper bound
  bool exact_values;

  double Running() const { return std::min(seed, heap->Bound()); }
  bool Admits(double lb) const {
    if (lb >= Running()) return false;
    return plan->bound_scale == 1.0 || heap->size() < plan->k ||
           lb < heap->Bound() * plan->bound_scale;
  }
  double AbandonBound() const {
    return exact_values ? heap->Bound() : Running();
  }
};

}  // namespace

core::BuildStats VaFile::DoBuild(const core::Dataset& data) {
  util::WallTimer timer;
  data_ = &data;
  const size_t dims =
      std::min(options_.dims,
               transform::MaxPackedCoeffs(data.length(), /*skip_dc=*/true));

  // One pass: DFT of every series (the paper's DFT-for-KLT substitution).
  std::vector<std::vector<double>> dfts(data.size());
  tail_energy_.resize(data.size());
  std::vector<double> full(transform::MaxPackedCoeffs(data.length(), true));
  for (size_t i = 0; i < data.size(); ++i) {
    // Full transform to account for the residual (tail) energy, truncated
    // summary for the approximation file.
    transform::PackedRealDft(data[i], /*skip_dc=*/true, full);
    double tail = 0.0;
    for (size_t d = dims; d < full.size(); ++d) tail += full[d] * full[d];
    tail_energy_[i] = tail;
    dfts[i].assign(full.begin(), full.begin() + static_cast<long>(dims));
  }
  quantizer_ = transform::VaPlusQuantizer::Train(
      dfts, options_.total_bits, options_.allocation, options_.placement);
  cells_.resize(data.size() * dims);
  for (size_t i = 0; i < data.size(); ++i) {
    const auto cell = quantizer_.Quantize(dfts[i]);
    std::copy(cell.begin(), cell.end(), cells_.begin() + i * dims);
  }

  core::BuildStats stats;
  stats.cpu_seconds = timer.Seconds();
  stats.bytes_read = static_cast<int64_t>(data.bytes());
  stats.random_reads = 1;
  // Only the approximation file is written.
  stats.bytes_written = static_cast<int64_t>(
      data.size() * (quantizer_.ApproximationBytes() + sizeof(float)));
  stats.random_writes = 1;
  return stats;
}

void VaFile::DoSave(io::IndexWriter* writer) const {
  writer->BeginSection("options");
  writer->WriteU64(options_.dims);
  writer->WriteI32(options_.total_bits);
  writer->WriteU8(static_cast<uint8_t>(options_.allocation));
  writer->WriteU8(static_cast<uint8_t>(options_.placement));
  writer->EndSection();
  writer->BeginSection("quantizer");
  writer->WriteI32(quantizer_.total_bits());
  writer->WriteU64(quantizer_.dims());
  for (size_t d = 0; d < quantizer_.dims(); ++d) {
    writer->WriteI32(quantizer_.bits_for(d));
    const auto edges = quantizer_.EdgesFor(d);
    writer->WritePodVector(
        std::vector<double>(edges.begin(), edges.end()));
  }
  writer->EndSection();
  writer->BeginSection("approximations");
  writer->WritePodVector(cells_);
  writer->WritePodVector(tail_energy_);
  writer->EndSection();
}

util::Status VaFile::DoOpen(io::IndexReader* reader,
                            const core::Dataset& data) {
  reader->EnterSection("options");
  options_.dims = reader->ReadU64();
  options_.total_bits = reader->ReadI32();
  options_.allocation =
      static_cast<transform::VaPlusQuantizer::Allocation>(reader->ReadU8());
  options_.placement =
      static_cast<transform::VaPlusQuantizer::CellPlacement>(
          reader->ReadU8());
  reader->EnterSection("quantizer");
  const int total_bits = reader->ReadI32();
  const uint64_t dims = reader->ReadU64();
  std::vector<int> bits;
  std::vector<std::vector<double>> edges;
  for (uint64_t d = 0; d < dims && reader->ok(); ++d) {
    const int b = reader->ReadI32();
    std::vector<double> e = reader->ReadPodVector<double>();
    if (reader->ok() &&
        (b < 0 || b > transform::VaPlusQuantizer::kMaxBitsPerDim ||
         e.size() != (size_t{1} << b) + 1)) {
      reader->Fail("VA+ quantizer table is malformed");
      break;
    }
    bits.push_back(b);
    edges.push_back(std::move(e));
  }
  if (reader->ok() && total_bits < 1) {
    reader->Fail("VA+ quantizer bit budget is malformed");
  }
  if (!reader->ok()) return reader->status();
  quantizer_ = transform::VaPlusQuantizer::FromTables(std::move(edges),
                                                      std::move(bits),
                                                      total_bits);
  reader->EnterSection("approximations");
  cells_ = reader->ReadPodVector<uint16_t>();
  tail_energy_ = reader->ReadPodVector<double>();
  if (reader->ok() &&
      (cells_.size() != data.size() * quantizer_.dims() ||
       tail_energy_.size() != data.size())) {
    reader->Fail("VA+ approximation file does not cover the dataset");
  }
  // A checksum only proves the bytes match themselves: every stored cell
  // indexes its dimension's edge row (and the query tables), so a crafted
  // cell must not reach a search.
  for (size_t j = 0; reader->ok() && j < cells_.size(); ++j) {
    if (cells_[j] >= size_t{1} << quantizer_.bits_for(j % dims)) {
      reader->Fail("VA+ approximation cell out of range");
    }
  }
  for (size_t i = 0; reader->ok() && i < tail_energy_.size(); ++i) {
    if (!std::isfinite(tail_energy_[i]) || tail_energy_[i] < 0.0) {
      reader->Fail("VA+ residual energy is not finite and non-negative");
    }
  }
  if (!reader->ok()) return reader->status();
  data_ = &data;
  return reader->status();
}

core::QueryResult VaFile::DoSearchKnn(core::SeriesView query,
                                      const core::KnnPlan& plan) {
  HYDRA_CHECK(data_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  const size_t count = data_->size();
  const size_t dims = quantizer_.dims();
  const core::QueryOrder& order = core::ScratchQueryOrder(query);

  const std::span<const double> q_full = QueryDft(query);
  const std::span<const double> q_dft = q_full.first(dims);
  double q_tail = 0.0;
  for (size_t d = dims; d < q_full.size(); ++d) q_tail += q_full[d] * q_full[d];
  const double q_tail_rt = std::sqrt(q_tail);

  // Phase 1: bounds from the approximation file (memory-resident; the
  // paper reports VA+file performs virtually no sequential disk I/O).
  // The scratch heap serves both phases in turn: phase 1 only needs the
  // k-th best upper bound, which is extracted before the Reset.
  VaScratch& scratch = Scratch();
  scratch.bounds.Reset(quantizer_, q_dft);
  std::vector<double>& lb = scratch.lb;
  lb.resize(count);
  core::KnnHeap& heap = core::ScratchKnnHeap(plan.k);
  // Phase 1 offers *upper* bounds — real candidates provably within them —
  // so sharing the cross-shard bound here is sound and lets other shards
  // prune against this shard's k-th upper bound early.
  heap.ShareBound(plan.shared_bound);
  for (size_t i = 0; i < count; ++i) {
    const auto cell = scratch.bounds.Both(cells_.data() + i * dims);
    lb[i] = cell.lb_sq;
    // Full-space upper bound: truncated-space bound plus the
    // Cauchy-Schwarz residual term.
    const double rt = q_tail_rt + std::sqrt(tail_energy_[i]);
    heap.Offer(static_cast<core::SeriesId>(i), cell.ub_sq + rt * rt);
  }
  result.stats.lower_bound_computations += static_cast<int64_t>(2 * count);
  const double seed = heap.Bound();

  // The candidates are the series phase 1 left standing; the running bound
  // of phase 2 only tightens, so they cover every series it refines.
  core::Candidates& candidates = scratch.candidates;
  candidates.Clear();
  for (size_t i = 0; i < count; ++i) {
    if (lb[i] < seed) candidates.Add(static_cast<core::SeriesId>(i), lb[i]);
  }

  // Phase 2: skip-sequential refinement of the candidates in file order.
  //
  // The exact path prunes and early-abandons against the running min of
  // the phase-1 seed and the heap's k-th actual distance. Abandoned
  // partial distances may then enter a not-yet-full heap, which is sound
  // only because the exact path always refines the true top-k afterwards
  // and evicts them. A plan that can stop early (epsilon shrink or a raw
  // budget) loses that eviction guarantee, so it switches to the
  // tree-style abandon discipline: abandon against heap.Bound() — +inf
  // until the heap holds k, so every resident value is an exact distance,
  // and any abandoned value is rejected by the heap. The epsilon modes
  // additionally prune against heap.Bound() * bound_scale
  // (= bsf/(1+epsilon)^2) once the heap is full, which is what makes every
  // reported distance provably within (1+epsilon) of the truth; until then
  // only the exact criterion applies, so a large epsilon cannot prune
  // everything and return an empty answer.
  // A budget alone (no epsilon) keeps the exact prune criterion — it must
  // only cap work, never add it — but still needs the exact-values
  // abandon discipline so a truncated answer reports true distances.
  // A shared cross-shard bound breaks the eviction guarantee the same way
  // (another shard's bound may prune this shard's local top-k before the
  // refinement reaches it), so it too forces the exact-values discipline:
  // every abandoned value then exceeds a bound that never drops below the
  // final global k-th distance, and the merge rejects it.
  const bool exact_values = plan.bound_scale != 1.0 ||
                            plan.max_raw != core::KnnPlan::kUnlimited ||
                            plan.shared_bound != nullptr;
  heap.Reset(plan.k);
  // Re-attaches the cross-shard bound that Reset detached.
  core::KnnWorkers workers(&heap, &result.stats, plan);
  io::WorkerCursors cursors(data_, workers.workers());
  core::RefineCandidates(candidates, workers.workers(), cursors, order,
                         [&](size_t w) {
                           return VaRefine{
                               {&workers.heap(w), &workers.stats(w), &plan},
                               seed,
                               exact_values};
                         });

  workers.Finish(plan.k, &result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::QueryResult VaFile::DoSearchRange(core::SeriesView query,
                                        const core::RangePlan& plan) {
  HYDRA_CHECK(data_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  const size_t count = data_->size();
  const size_t dims = quantizer_.dims();
  const core::QueryOrder& order = core::ScratchQueryOrder(query);

  VaScratch& scratch = Scratch();
  scratch.bounds.Reset(quantizer_, QueryDft(query).first(dims));

  // One pass over the memory-resident approximation file collects the
  // survivors of the fixed r^2 bound — exactly the series refined — then
  // a skip-sequential refinement of them against the raw file.
  core::Candidates& candidates = scratch.candidates;
  candidates.Clear();
  for (size_t i = 0; i < count; ++i) {
    if (scratch.bounds.LowerBoundSq(cells_.data() + i * dims) <=
        plan.radius * plan.radius) {
      candidates.ids.push_back(static_cast<core::SeriesId>(i));
    }
  }
  result.stats.lower_bound_computations += static_cast<int64_t>(count);
  core::RefineRange(candidates, *data_, plan, order, &result);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::Footprint VaFile::footprint() const {
  HYDRA_CHECK(data_ != nullptr);
  core::Footprint fp;
  // No tree: the approximation file is the whole structure.
  fp.memory_bytes = static_cast<int64_t>(
      quantizer_.MemoryBytes() + cells_.size() * sizeof(uint16_t) +
      tail_energy_.size() * sizeof(double));
  fp.disk_bytes = static_cast<int64_t>(
      data_->size() * (quantizer_.ApproximationBytes() + sizeof(float)));
  return fp;
}

double VaFile::MeanTlb(core::SeriesView query) const {
  HYDRA_CHECK(data_ != nullptr);
  // The VA+file has no leaves; each series' cell acts as its region. Use a
  // strided sample to keep TLB evaluation cheap.
  const size_t count = data_->size();
  const size_t dims = quantizer_.dims();
  transform::VaPlusQuantizer::QueryBounds& bounds = Scratch().bounds;
  bounds.Reset(quantizer_, QueryDft(query).first(dims));
  const size_t sample = std::min<size_t>(count, 2000);
  double sum = 0.0;
  size_t used = 0;
  for (size_t j = 0; j < sample; ++j) {
    const size_t i = j * count / sample;
    const double lb =
        std::sqrt(bounds.LowerBoundSq(cells_.data() + i * dims));
    const double truth =
        std::sqrt(core::SquaredEuclidean(query, (*data_)[i]));
    if (truth > 0.0) {
      sum += lb / truth;
      ++used;
    }
  }
  return used == 0 ? 0.0 : sum / static_cast<double>(used);
}

}  // namespace hydra::index

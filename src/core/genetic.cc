#include "core/genetic.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pollux {
namespace {

struct GaMetrics {
  obs::Counter* rounds;
  obs::Counter* generations;
  obs::Counter* fitness_evals;
  obs::Gauge* best_fitness;
  obs::Histogram* gen_best_fitness;

  static const GaMetrics& Get() {
    static const GaMetrics metrics;
    return metrics;
  }

 private:
  GaMetrics() {
    auto& registry = obs::MetricsRegistry::Global();
    rounds = registry.GetCounter("ga.rounds");
    generations = registry.GetCounter("ga.generations");
    fitness_evals = registry.GetCounter("ga.fitness_evals");
    best_fitness = registry.GetGauge("ga.best_fitness");
    gen_best_fitness = registry.GetHistogram("ga.gen_best_fitness");
  }
};

// Scratch for one repair, in one block: per-node GPU usage, per-job count of
// occupied nodes, and for each node the list of jobs holding a positive cell
// there, in ascending job order, plus one node-sized list for the cap stage.
// The repair stages walk these lists instead of rescanning rows and columns,
// and keep them in step with every cell they change. The block is the
// caller's, reused across repairs: Build() zeroes it, and the cap stage,
// which runs before the first Build(), writes its row list before reading.
class Occupancy {
 public:
  Occupancy(size_t num_jobs, size_t num_nodes, std::vector<int>& block)
      : num_jobs_(num_jobs), num_nodes_(num_nodes), block_(block) {
    block_.resize(num_nodes * (num_jobs + 3) + num_jobs);
  }

  // One row-major pass over the matrix. Branch-free: every cell writes its
  // job id at its node's list end, and only positive cells advance the end.
  void Build(const AllocationMatrix& matrix) {
    std::fill(block_.begin(), block_.end(), 0);
    int* usage = block_.data();
    int* count = usage + num_nodes_;
    int* lists = jobs_on(0);
    for (size_t j = 0; j < num_jobs_; ++j) {
      const int* row = matrix.RowData(j);
      int occupied = 0;
      for (size_t n = 0; n < num_nodes_; ++n) {
        const int positive = row[n] > 0 ? 1 : 0;
        usage[n] += row[n];
        lists[n * num_jobs_ + static_cast<size_t>(count[n])] = static_cast<int>(j);
        count[n] += positive;
        occupied += positive;
      }
      nodes_of_job(j) = occupied;
    }
  }

  int& usage(size_t n) { return block_[n]; }
  int& count(size_t n) { return block_[num_nodes_ + n]; }
  int& nodes_of_job(size_t j) { return block_[2 * num_nodes_ + j]; }
  int* jobs_on(size_t n) { return block_.data() + 2 * num_nodes_ + num_jobs_ + n * num_jobs_; }
  int* row_scratch() { return jobs_on(num_nodes_); }

 private:
  size_t num_jobs_;
  size_t num_nodes_;
  std::vector<int>& block_;
};

// Uniform reservoir pick over a list of `count` candidates: one
// UniformInt(1, i) per candidate in list order, exactly the draws a scan that
// meets the candidates in that order makes. Requires count >= 1.
int ReservoirPick(int count, Rng& rng) {
  int chosen = 0;
  for (int i = 1; i <= count; ++i) {
    if (rng.UniformInt(1, i) == 1) {
      chosen = i - 1;
    }
  }
  return chosen;
}

// Drops entry i of a list of `count`, keeping the rest in order.
void EraseAt(int* list, int& count, int i) {
  std::copy(list + i + 1, list + count, list + i);
  --count;
}

// Rack with the most GPUs in the given row (ties to the lowest rack id), or
// -1 for unallocated rows. `rack_gpus` is scratch sized to the rack count.
int PrimaryRackOf(const AllocationMatrix& matrix, size_t job, const ClusterSpec& cluster,
                  std::vector<int>& rack_gpus) {
  std::fill(rack_gpus.begin(), rack_gpus.end(), 0);
  for (size_t n = 0; n < matrix.num_nodes(); ++n) {
    const int gpus = matrix.at(job, n);
    if (gpus > 0) {
      rack_gpus[cluster.RackOf(static_cast<int>(n))] += gpus;
    }
  }
  int primary = -1;
  for (size_t r = 0; r < rack_gpus.size(); ++r) {
    if (rack_gpus[r] > 0 && (primary < 0 || rack_gpus[r] > rack_gpus[primary])) {
      primary = static_cast<int>(r);
    }
  }
  return primary;
}

}  // namespace

GeneticOptimizer::GeneticOptimizer(ClusterSpec cluster, GaOptions options)
    : cluster_(std::move(cluster)), options_(options), rng_(options.seed) {
  BuildRackIndex();
}

void GeneticOptimizer::SetCluster(ClusterSpec cluster) {
  cluster_ = std::move(cluster);
  population_.clear();
  last_job_ids_.clear();
  BuildRackIndex();
}

void GeneticOptimizer::BuildRackIndex() {
  rack_nodes_.clear();
  if (!cluster_.HasTopology()) {
    return;
  }
  rack_nodes_.resize(static_cast<size_t>(cluster_.NumRacks()));
  for (int n = 0; n < cluster_.NumNodes(); ++n) {
    rack_nodes_[cluster_.RackOf(n)].push_back(n);
  }
}

void GeneticOptimizer::EnsurePool() {
  if (!pool_) {
    pool_ = std::make_unique<ThreadPool>(options_.threads <= 0 ? -1 : options_.threads);
  }
}

void GeneticOptimizer::Mutate(AllocationMatrix& matrix) { MutateWith(matrix, rng_); }

void GeneticOptimizer::MutateWith(AllocationMatrix& matrix, Rng& rng) const {
  const size_t nodes = matrix.num_nodes();
  if (nodes == 0) {
    return;
  }
  if (cluster_.HasTopology()) {
    MutateRackAffineWith(matrix, rng);
    return;
  }
  // Each cell mutates with probability 1/N, i.e. each job suffers one
  // mutation on average. Sampled as a per-row Binomial(N, 1/N) draw (cheaper
  // than N Bernoulli draws per job; Poisson(1) approximation for large N).
  for (size_t j = 0; j < matrix.num_jobs(); ++j) {
    int64_t mutations =
        nodes <= 8 ? 0 : std::min<int64_t>(rng.Poisson(1.0), static_cast<int64_t>(nodes));
    if (nodes <= 8) {
      for (size_t n = 0; n < nodes; ++n) {
        if (rng.Bernoulli(1.0 / static_cast<double>(nodes))) {
          matrix.at(j, n) = static_cast<int>(rng.UniformInt(0, cluster_.gpus_per_node[n]));
        }
      }
      continue;
    }
    for (int64_t k = 0; k < mutations; ++k) {
      const size_t n = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(nodes) - 1));
      matrix.at(j, n) = static_cast<int>(rng.UniformInt(0, cluster_.gpus_per_node[n]));
    }
  }
}

void GeneticOptimizer::MutateRackAffineWith(AllocationMatrix& matrix, Rng& rng) const {
  const size_t nodes = matrix.num_nodes();
  // Same mutation-count law as the flat operator (one expected mutation per
  // row), but half of an allocated job's mutations are redirected to a
  // uniform node inside its primary rack: the search explores "fill my rack"
  // moves as often as global ones, which is what replaces the flat model's
  // scalar node-count penalty.
  std::vector<int> rack_gpus(rack_nodes_.size(), 0);
  const auto mutate_cell = [&](size_t j, size_t n, int primary) {
    if (primary >= 0 && rng.Bernoulli(0.5)) {
      const std::vector<int>& members = rack_nodes_[static_cast<size_t>(primary)];
      n = static_cast<size_t>(
          members[rng.UniformInt(0, static_cast<int64_t>(members.size()) - 1)]);
    }
    matrix.at(j, n) = static_cast<int>(rng.UniformInt(0, cluster_.gpus_per_node[n]));
  };
  for (size_t j = 0; j < matrix.num_jobs(); ++j) {
    const int primary = PrimaryRackOf(matrix, j, cluster_, rack_gpus);
    if (nodes <= 8) {
      for (size_t n = 0; n < nodes; ++n) {
        if (rng.Bernoulli(1.0 / static_cast<double>(nodes))) {
          mutate_cell(j, n, primary);
        }
      }
      continue;
    }
    const int64_t mutations = std::min<int64_t>(rng.Poisson(1.0), static_cast<int64_t>(nodes));
    for (int64_t k = 0; k < mutations; ++k) {
      const size_t n = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(nodes) - 1));
      mutate_cell(j, n, primary);
    }
  }
}

AllocationMatrix GeneticOptimizer::Crossover(const AllocationMatrix& a, const AllocationMatrix& b) {
  AllocationMatrix child;
  CrossoverWith(a, b, rng_, child);
  return child;
}

void GeneticOptimizer::CrossoverWith(const AllocationMatrix& a, const AllocationMatrix& b,
                                     Rng& rng, AllocationMatrix& child) const {
  // Row-atomic: each job's full placement comes from one parent, so a
  // rack-compact row survives crossover intact (crossover never needs its own
  // rack-affinity handling).
  if (child.num_jobs() != a.num_jobs() || child.num_nodes() != a.num_nodes()) {
    child = AllocationMatrix(a.num_jobs(), a.num_nodes());
  }
  for (size_t j = 0; j < a.num_jobs(); ++j) {
    const AllocationMatrix& parent = rng.Bernoulli(0.5) ? a : b;
    std::copy_n(parent.RowData(j), a.num_nodes(), child.RowData(j));
  }
}

void GeneticOptimizer::Repair(AllocationMatrix& matrix, const std::vector<SchedJobInfo>& jobs) {
  RepairWith(matrix, jobs, rng_);
}

void GeneticOptimizer::RepairWith(AllocationMatrix& matrix, const std::vector<SchedJobInfo>& jobs,
                                  Rng& rng) const {
  const size_t num_jobs = matrix.num_jobs();
  const size_t num_nodes = matrix.num_nodes();

  // Every stage draws exactly as a whole-row or whole-column reservoir scan
  // would: one UniformInt(1, i) per candidate cell, in ascending index order.
  // The lists only skip the cells such a scan would pass over.
  thread_local std::vector<int> block;
  Occupancy occupancy(num_jobs, num_nodes, block);

  // 1. Per-job exploration cap (at most 2x the most GPUs ever held): while a
  // row is over its cap, decrement one of its positive cells, chosen
  // uniformly; a cell that reaches 0 leaves the row's list.
  int* positive = occupancy.row_scratch();
  for (size_t j = 0; j < num_jobs; ++j) {
    const int cap = std::max(1, jobs[j].max_gpus_cap);
    int* row = matrix.RowData(j);
    int total = 0;
    for (size_t n = 0; n < num_nodes; ++n) {
      total += row[n] > 0 ? row[n] : 0;
    }
    if (total <= cap) {
      continue;
    }
    int count = 0;
    for (size_t n = 0; n < num_nodes; ++n) {
      positive[count] = static_cast<int>(n);
      count += row[n] > 0 ? 1 : 0;
    }
    for (; total > cap && count > 0; --total) {
      const int chosen = ReservoirPick(count, rng);
      if (--row[positive[chosen]] == 0) {
        EraseAt(positive, count, chosen);
      }
    }
  }

  // 2. Node capacity: while a node is over capacity, decrement the cell of
  // one of the jobs holding GPUs there, chosen uniformly.
  occupancy.Build(matrix);
  for (size_t n = 0; n < num_nodes; ++n) {
    int* holders = occupancy.jobs_on(n);
    int& count = occupancy.count(n);
    for (int& usage = occupancy.usage(n); usage > cluster_.gpus_per_node[n] && count > 0;
         --usage) {
      const int chosen = ReservoirPick(count, rng);
      const size_t j = static_cast<size_t>(holders[chosen]);
      if (--matrix.at(j, n) == 0) {
        EraseAt(holders, count, chosen);
        --occupancy.nodes_of_job(j);
      }
    }
  }

  // 2b. Rack-affine compaction (topology mode only): gather a rack-spanning
  // job's spilled GPUs back into its primary rack where capacity allows —
  // prefer filling a node, then the rack, before leaving any spill. Runs
  // before interference avoidance so compacted rows are what the fixed point
  // sees. Deterministic (no RNG draws), so the flat-mode stream is untouched.
  if (!rack_nodes_.empty()) {
    CompactRacks(matrix);
    if (options_.interference_avoidance) {
      occupancy.Build(matrix);
    }
  }

  // 3. Interference avoidance: at most one distributed (multi-node) job per
  // node. Evicting a job's share on one node can change which jobs are
  // distributed, so iterate to a fixed point. Node counts per job are
  // maintained incrementally, and each sweep walks only occupied cells.
  if (!options_.interference_avoidance) {
    return;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t n = 0; n < num_nodes; ++n) {
      int* holders = occupancy.jobs_on(n);
      int& count = occupancy.count(n);
      // Reservoir-pick the distributed job to keep on this node.
      int distributed = 0;
      int keep = 0;
      for (int i = 0; i < count; ++i) {
        if (occupancy.nodes_of_job(static_cast<size_t>(holders[i])) >= 2) {
          ++distributed;
          if (rng.UniformInt(1, distributed) == 1) {
            keep = holders[i];
          }
        }
      }
      if (distributed < 2) {
        continue;
      }
      int kept = 0;
      for (int i = 0; i < count; ++i) {
        const size_t j = static_cast<size_t>(holders[i]);
        if (holders[i] != keep && occupancy.nodes_of_job(j) >= 2) {
          matrix.at(j, n) = 0;
          --occupancy.nodes_of_job(j);
          changed = true;
        } else {
          holders[kept++] = holders[i];
        }
      }
      count = kept;
    }
  }
}

void GeneticOptimizer::CompactRacks(AllocationMatrix& matrix) const {
  const size_t num_jobs = matrix.num_jobs();
  const size_t num_nodes = matrix.num_nodes();
  std::vector<int> usage = matrix.NodeUsage();
  std::vector<int> rack_gpus(rack_nodes_.size(), 0);
  for (size_t j = 0; j < num_jobs; ++j) {
    const int primary = PrimaryRackOf(matrix, j, cluster_, rack_gpus);
    if (primary < 0) {
      continue;
    }
    int racks_occupied = 0;
    for (int g : rack_gpus) {
      racks_occupied += g > 0 ? 1 : 0;
    }
    if (racks_occupied < 2) {
      continue;
    }
    const std::vector<int>& home = rack_nodes_[static_cast<size_t>(primary)];
    // Two destination passes: nodes the job already occupies (fill a node),
    // then the rest of the rack (fill the rack); node index order within each.
    for (size_t n = 0; n < num_nodes; ++n) {
      if (cluster_.RackOf(static_cast<int>(n)) == primary || matrix.at(j, n) <= 0) {
        continue;
      }
      for (int pass = 0; pass < 2 && matrix.at(j, n) > 0; ++pass) {
        for (int dst : home) {
          const bool occupied = matrix.at(j, static_cast<size_t>(dst)) > 0;
          if ((pass == 0) != occupied) {
            continue;
          }
          const int free = cluster_.gpus_per_node[dst] - usage[dst];
          const int take = std::min(free, matrix.at(j, n));
          if (take <= 0) {
            continue;
          }
          matrix.at(j, static_cast<size_t>(dst)) += take;
          matrix.at(j, n) -= take;
          usage[dst] += take;
          usage[n] -= take;
          if (matrix.at(j, n) <= 0) {
            break;
          }
        }
      }
    }
  }
}

void GeneticOptimizer::SeedPopulation(const std::vector<SchedJobInfo>& jobs) {
  const size_t num_jobs = jobs.size();
  const size_t num_nodes = static_cast<size_t>(cluster_.NumNodes());

  // Remap the persisted population onto the current job set by job id.
  std::vector<AllocationMatrix> remapped;
  if (!population_.empty() && population_.front().num_nodes() == num_nodes) {
    for (const auto& old : population_) {
      AllocationMatrix matrix(num_jobs, num_nodes);
      for (size_t j = 0; j < num_jobs; ++j) {
        for (size_t old_row = 0; old_row < last_job_ids_.size(); ++old_row) {
          if (last_job_ids_[old_row] == jobs[j].job_id) {
            for (size_t n = 0; n < num_nodes; ++n) {
              matrix.at(j, n) = old.at(old_row, n);
            }
            break;
          }
        }
      }
      remapped.push_back(std::move(matrix));
    }
  }
  population_ = std::move(remapped);

  // The incumbent allocation is always a member, so the GA can only improve
  // on keeping everything in place.
  AllocationMatrix incumbent(num_jobs, num_nodes);
  for (size_t j = 0; j < num_jobs; ++j) {
    incumbent.SetRow(j, jobs[j].current_allocation);
  }
  population_.push_back(incumbent);

  while (population_.size() < static_cast<size_t>(options_.population_size)) {
    AllocationMatrix matrix = incumbent;
    MutateWith(matrix, rng_);
    population_.push_back(std::move(matrix));
  }
  if (population_.size() > static_cast<size_t>(options_.population_size)) {
    population_.resize(static_cast<size_t>(options_.population_size));
  }
  for (auto& matrix : population_) {
    RepairWith(matrix, jobs, rng_);
  }
  last_job_ids_.clear();
  for (const auto& job : jobs) {
    last_job_ids_.push_back(job.job_id);
  }
}

size_t GeneticOptimizer::TournamentPickWith(std::span<const double> fitnesses,
                                            Rng& rng) const {
  size_t best = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(fitnesses.size()) - 1));
  for (int i = 1; i < options_.tournament_size; ++i) {
    const size_t candidate =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(fitnesses.size()) - 1));
    if (fitnesses[candidate] > fitnesses[best]) {
      best = candidate;
    }
  }
  return best;
}

GeneticOptimizer::Result GeneticOptimizer::Optimize(const std::vector<SchedJobInfo>& jobs) {
  TRACE_SCOPE("ga_round");
  Result result;
  const size_t num_nodes = static_cast<size_t>(cluster_.NumNodes());
  if (jobs.empty() || num_nodes == 0) {
    result.best = AllocationMatrix(jobs.size(), num_nodes);
    return result;
  }
  const bool observed = obs::MetricsRegistry::Global().enabled();
  if (observed) {
    GaMetrics::Get().rounds->Add();
  }

  EnsurePool();

  SeedPopulation(jobs);
  const FitnessScorer scorer(jobs, cluster_, options_.restart_penalty);
  std::vector<double> fitnesses(population_.size());
  pool_->ParallelFor(0, population_.size(),
                     [&](size_t i) { fitnesses[i] = scorer.Fitness(population_[i]); });
  if (observed) {
    GaMetrics::Get().fitness_evals->Add(population_.size());
  }

  // Offspring i lives in population_[parents + i] and its fitness in
  // fitnesses[parents + i]. After elitist survival the losers' matrices sit
  // in those slots, so the next generation's crossover overwrites them in
  // place instead of allocating. Every generation keeps `parents` survivors.
  const size_t parents = population_.size();
  const size_t brood = static_cast<size_t>(options_.population_size);
  population_.resize(parents + brood);
  fitnesses.resize(parents + brood);
  std::vector<AllocationMatrix> next(parents + brood);
  std::vector<double> next_fitnesses(parents + brood);
  std::vector<size_t> order(parents + brood);
  std::vector<Rng> streams;
  streams.reserve(brood);
  for (int gen = 0; gen < options_.generations; ++gen) {
    // Fork one stream per offspring from the master generator, in index
    // order, before any parallelism: offspring i's randomness then depends
    // only on (seed, generation, i), never on which worker runs it.
    streams.clear();
    for (size_t i = 0; i < brood; ++i) {
      streams.push_back(rng_.Fork());
    }
    const std::span<const double> parent_fitnesses(fitnesses.data(), parents);
    pool_->ParallelFor(0, brood, [&](size_t i) {
      Rng& rng = streams[i];
      const size_t pa = TournamentPickWith(parent_fitnesses, rng);
      const size_t pb = TournamentPickWith(parent_fitnesses, rng);
      AllocationMatrix& child = population_[parents + i];
      CrossoverWith(population_[pa], population_[pb], rng, child);
      MutateWith(child, rng);
      RepairWith(child, jobs, rng);
      fitnesses[parents + i] = scorer.Fitness(child);
    });
    // Elitist survival: keep the best `parents` individuals, in fitness
    // order; the rest follow them as the next brood's slots.
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return fitnesses[a] > fitnesses[b]; });
    for (size_t k = 0; k < order.size(); ++k) {
      std::swap(next[k], population_[order[k]]);
      next_fitnesses[k] = fitnesses[order[k]];
    }
    population_.swap(next);
    fitnesses.swap(next_fitnesses);
    if (observed) {
      const GaMetrics& metrics = GaMetrics::Get();
      metrics.generations->Add();
      metrics.fitness_evals->Add(brood);
      metrics.gen_best_fitness->Record(fitnesses.front());
    }
  }
  population_.resize(parents);

  result.best = population_.front();
  result.fitness = fitnesses.front();
  result.utility = scorer.Utility(result.best);
  if (observed) {
    GaMetrics::Get().best_fitness->Set(result.fitness);
  }
  return result;
}

}  // namespace pollux

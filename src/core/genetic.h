// The genetic algorithm PolluxSched runs every scheduling interval
// (Sec. 4.2.1, Fig. 5). Each individual is an allocation matrix; one
// generation applies mutation, tournament-selected crossover, and repair
// (node capacity, per-job exploration caps, and optionally the interference-
// avoidance constraint), then keeps the fittest individuals. The population
// is persisted across calls to bootstrap the next scheduling interval.
//
// Offspring are independent, so each generation's brood is produced and
// evaluated in parallel on a ThreadPool. Every offspring draws from its own
// Rng stream, forked from the master generator in a fixed order before the
// parallel region, which makes results bit-identical for any worker count
// (asserted by core_genetic_determinism_test). Fitness evaluation goes
// through one FitnessScorer per Optimize call, built before the parallel
// region and only read inside it.

#ifndef POLLUX_CORE_GENETIC_H_
#define POLLUX_CORE_GENETIC_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/allocation.h"
#include "core/fitness.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pollux {

struct GaOptions {
  int population_size = 100;
  int generations = 100;
  int tournament_size = 3;
  double restart_penalty = 0.25;
  // Disallow two multi-node jobs from sharing any node (Sec. 4.2.1).
  bool interference_avoidance = true;
  uint64_t seed = 42;
  // Worker threads for offspring generation + fitness evaluation. 1 runs
  // single-threaded; 0 or negative means std::thread::hardware_concurrency().
  // The returned allocations are identical for every value.
  int threads = 1;
};

class GeneticOptimizer {
 public:
  GeneticOptimizer(ClusterSpec cluster, GaOptions options);

  struct Result {
    AllocationMatrix best;
    double fitness = 0.0;
    double utility = 0.0;  // Eqn. 17 of the best matrix.
  };

  // Runs the configured number of generations for the given job set and
  // returns the fittest allocation matrix. Jobs are matched to the persisted
  // population by job_id, so jobs may arrive/depart between calls.
  Result Optimize(const std::vector<SchedJobInfo>& jobs);

  // Replaces the cluster (used by the autoscaler when nodes are added or
  // released). Clears the persisted population since matrix shapes change.
  void SetCluster(ClusterSpec cluster);

  const ClusterSpec& cluster() const { return cluster_; }

  // Search state for checkpoint/restore: the master Rng cursor plus the
  // persisted population and the job ids it was bred for. Restore after any
  // SetCluster call (SetCluster clears the population).
  struct State {
    Rng::State rng;
    std::vector<uint64_t> last_job_ids;
    std::vector<AllocationMatrix> population;
  };
  State GetState() const { return State{rng_.GetState(), last_job_ids_, population_}; }
  void SetState(const State& state) {
    rng_.SetState(state.rng);
    last_job_ids_ = state.last_job_ids;
    population_ = state.population;
  }

  // Cold recovery: forget the persisted population and re-seed the master
  // Rng from configuration, as a freshly restarted scheduler process would.
  void ResetSearchState() {
    rng_ = Rng(options_.seed);
    last_job_ids_.clear();
    population_.clear();
  }

  // Exposed for testing: enforces all feasibility constraints in place.
  void Repair(AllocationMatrix& matrix, const std::vector<SchedJobInfo>& jobs);

  // Exposed for testing: each cell mutates with probability 1/num_nodes to a
  // uniform value in [0, node capacity].
  void Mutate(AllocationMatrix& matrix);

  // Exposed for testing: offspring takes each row from one of the parents.
  AllocationMatrix Crossover(const AllocationMatrix& a, const AllocationMatrix& b);

 private:
  void SeedPopulation(const std::vector<SchedJobInfo>& jobs);
  void EnsurePool();

  // Stream-explicit operators: everything an offspring needs runs against
  // the Rng handed in, never against rng_, so offspring can be produced
  // concurrently from pre-forked streams.
  void MutateWith(AllocationMatrix& matrix, Rng& rng) const;
  // Topology-mode mutation: half of all mutations are redirected into the
  // job's primary rack, so the search prefers filling a node, then a rack,
  // before spilling (DESIGN.md sec. 14). Only used when cluster_ carries
  // topology annotations; the flat path's RNG sequence is untouched.
  void MutateRackAffineWith(AllocationMatrix& matrix, Rng& rng) const;
  // Topology-mode repair stage: deterministically moves a rack-spanning
  // job's minority-rack GPUs into free capacity in its primary rack.
  void CompactRacks(AllocationMatrix& matrix) const;
  // Writes the offspring into `child`, reshaping it only when its shape
  // differs, so a recycled matrix is overwritten without allocating.
  void CrossoverWith(const AllocationMatrix& a, const AllocationMatrix& b, Rng& rng,
                     AllocationMatrix& child) const;
  // Repair walks per-node lists of occupied jobs, but every draw keeps the
  // order and span of a full row or column reservoir scan, so results match
  // the rescanning kernel bit for bit (pinned by GeneticGoldenTest).
  void RepairWith(AllocationMatrix& matrix, const std::vector<SchedJobInfo>& jobs,
                  Rng& rng) const;
  size_t TournamentPickWith(std::span<const double> fitnesses, Rng& rng) const;

  void BuildRackIndex();

  ClusterSpec cluster_;
  // Node ids per rack, built once per SetCluster; empty outside topology mode.
  std::vector<std::vector<int>> rack_nodes_;
  GaOptions options_;
  Rng rng_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<uint64_t> last_job_ids_;
  std::vector<AllocationMatrix> population_;
};

}  // namespace pollux

#endif  // POLLUX_CORE_GENETIC_H_

#include "counting/count_nfa.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "counting/flat_bitset.h"
#include "counting/subset_intern.h"
#include "counting/weighted_pick.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/span.h"
#include "util/thread_pool.h"

namespace pqe {

namespace {

// Attempts drawn per block-RNG batch in the fast kernels: 2 raw words per
// attempt (one for the weighted pick, one for the prefix index), so a batch
// is a 4 KiB buffer — resident in L1 while the acceptance pass runs.
constexpr size_t kDrawBatch = 256;

// A pooled sample of A(q, l), stored as a derivation reference: the incoming
// transition taken and the index of the prefix sample in the predecessor
// stratum's pool. Strings are never materialized (membership replays the
// ref chain through the run-state memo), so pools cost O(1) memory per
// sample.
struct SampleRef {
  uint32_t transition = 0;  // index into nfa.transitions()
  uint32_t prefix = 0;      // index into the pool of stratum (l-1, from)
};

class NfaCounter {
 public:
  NfaCounter(const Nfa& nfa, size_t n, const EstimatorConfig& config)
      : nfa_(nfa),
        n_(n),
        num_states_(nfa.NumStates()),
        config_(config),
        rng_(config.seed),
        fast_(config.kernel_mode == KernelMode::kFast),
        cancel_(config.cancel) {}

  Result<CountEstimate> Run() {
    if (nfa_.initial_states().empty()) {
      return CountEstimate{ExtFloat(), stats_};
    }
    if (Cancelled()) return DeadlineError(0);
    pool_target_ = config_.ResolvePoolSize(n_);

    ComputeFeasibility();

    est_.assign((n_ + 1) * num_states_, ExtFloat());
    pool_.assign((n_ + 1) * num_states_, ArenaRun{});
    // A pool holds at most pool_target_ samples (level 0: one), so this
    // bound — what per-stratum vectors would reserve in total — spares the
    // arenas every grow-and-copy.
    const size_t max_pooled = stats_.strata_live * pool_target_;
    pool_arena_.reserve(max_pooled);
    reach_.reserve(max_pooled);
    // Subset id 0 is the "not computed" sentinel of reach_; the run-state
    // set of the empty string — the sorted initial states — is subset 1,
    // and level-0 samples all resolve to it.
    step_scratch_ = nfa_.initial_states();
    std::sort(step_scratch_.begin(), step_scratch_.end());
    initial_set_ = sets_.Intern(step_scratch_);
    // Level 0: A(q, 0) = {λ} iff q is initial.
    for (StateId q = 0; q < num_states_; ++q) {
      if (nfa_.IsInitial(q) && live_.Test(At(0, q))) {
        est_[At(0, q)] = ExtFloat::FromUint64(1);
        pool_[At(0, q)] =
            ArenaRun{static_cast<uint32_t>(pool_arena_.size()), 1};
        pool_arena_.push_back(SampleRef{});  // the empty string
      }
    }
    reach_.resize(pool_arena_.size());
    for (size_t l = 1; l <= n_; ++l) {
      // One cancellation poll per length stratum, plus finer-grained polls
      // in the rejection loops (an attempt budget can dominate a stratum).
      if (Cancelled()) return DeadlineError(l);
      for (StateId q = 0; q < num_states_; ++q) {
        if (live_.Test(At(l, q))) ProcessStratum(q, l);
      }
      if (cancel_ != nullptr) cancel_->AddProgress(1);
    }
    // A rejection loop may have bailed out mid-stratum on an expired token;
    // the partial tables must not be read as an estimate.
    if (Cancelled()) return DeadlineError(n_);
    return Finalize();
  }

 private:
  // Level-major index of the stratum (l, q) into est_, pool_ and live_.
  size_t At(size_t l, StateId q) const { return l * num_states_ + q; }

  // Arena index of the pooled sample idx of stratum (l, q).
  uint32_t PoolIndex(size_t l, StateId q, uint32_t idx) const {
    return pool_[At(l, q)].off + idx;
  }

  // live_ bit (l, q): A(q, l) is non-empty AND the stratum can still
  // contribute to an accepting state at length n (forward-feasible ∧
  // backward-useful).
  void ComputeFeasibility() {
    const size_t cells = (n_ + 1) * num_states_;
    FlatBitset fwd;
    fwd.Assign(cells);
    for (StateId q : nfa_.initial_states()) fwd.Set(At(0, q));
    for (size_t l = 1; l <= n_; ++l) {
      for (const Nfa::Transition& t : nfa_.transitions()) {
        if (fwd.Test(At(l - 1, t.from))) fwd.Set(At(l, t.to));
      }
    }
    if (config_.disable_backward_pruning) {
      live_ = fwd;  // ablation mode: no usefulness pruning
    } else {
      // Backward usefulness first, then intersected with fwd in place.
      live_.Assign(cells);
      for (StateId q = 0; q < num_states_; ++q) {
        if (nfa_.IsAccepting(q)) live_.Set(At(n_, q));
      }
      for (size_t l = n_; l-- > 0;) {
        for (const Nfa::Transition& t : nfa_.transitions()) {
          if (live_.Test(At(l + 1, t.to))) live_.Set(At(l, t.from));
        }
      }
      live_.AndWith(fwd);
    }
    stats_.strata_total += cells;
    stats_.strata_live += live_.Count();
  }

  // Memoized membership oracle: the sorted set of states the automaton can
  // be in after reading the string of pooled sample idx of stratum (l, q),
  // keyed by the sample's pool-arena index — pools are append-only and only
  // finalized strata are referenced, so entries never invalidate within a
  // run. Shared prefixes across draws (and across strata: every ref chain
  // ends in the same low strata) are resolved once instead of per check.
  // reach_ holds one subset id per pooled sample, parallel to pool_arena_
  // (0 = not computed yet). The view returned is valid until the next call
  // (a replay may intern a new set and grow the set arena).
  Span<StateId> ReachStates(StateId q, size_t l, uint32_t idx) {
    const Nfa::Transition* trans = nfa_.transitions().data();
    // Walk the ref chain down to the first memoized suffix (or level 0),
    // recording the uncomputed links.
    chain_.clear();
    uint32_t cur = PoolIndex(l, q, idx);
    uint32_t set = 0;
    for (size_t cur_l = l;; --cur_l) {
      uint32_t& id = reach_[cur];
      if (id != 0) {
        ++stats_.runstates_memo_hits;
        set = id;
        break;
      }
      ++stats_.runstates_memo_misses;
      if (cur_l == 0) {
        set = id = initial_set_;
        break;
      }
      chain_.push_back(cur);
      const SampleRef& ref = pool_arena_[cur];
      cur = PoolIndex(cur_l - 1, trans[ref.transition].from, ref.prefix);
    }
    // Replay upward: one lazy-DFA step per uncomputed link.
    for (size_t i = chain_.size(); i-- > 0;) {
      const uint32_t link = chain_[i];
      set = Step(set, trans[pool_arena_[link].transition].symbol);
      reach_[link] = set;
    }
    return sets_.View(set);
  }

  // --- Lazy subset DFA ----------------------------------------------------
  //
  // Every distinct run-state set is interned once in sets_ under a dense
  // subset id, and steps_ maps a packed (subset id, symbol) key to the
  // successor's id. A step runs the subset simulation (Nfa::ActiveStep)
  // only when its key is new to the run; every other step is one table
  // probe (counting/subset_intern.h).

  // The successor subset of `set` under `symbol`.
  uint32_t Step(uint32_t set, SymbolId symbol) {
    // set >= 1, so a live key is never 0, the empty-bucket marker.
    const uint64_t key = (uint64_t{set} << 32) | symbol;
    if (const uint32_t* next = steps_.Find(key)) return *next;
    ++stats_.runstates_steps;
    nfa_.ActiveStep(sets_.View(set), symbol, &step_scratch_);
    const uint32_t next = sets_.Intern(step_scratch_);
    steps_.Insert(key, next);
    return next;
  }

  // A same-symbol group of incoming transitions (see ProcessStratum): the
  // run members_[begin, end), and its canonical hits accepted_[acc_begin,
  // acc_end).
  struct Member {
    SymbolId symbol;
    uint32_t transition;
  };
  struct Group {
    uint32_t begin = 0;
    uint32_t end = 0;
    ExtFloat weight_sum;
    ExtFloat estimate;
    uint32_t acc_begin = 0;
    uint32_t acc_end = 0;
  };

  // The drawer mode every weighted pick in this counter routes through —
  // the single kernel-mode dispatch point.
  IndexDrawer::Mode DrawMode() const {
    return fast_ ? IndexDrawer::Mode::kAlias : IndexDrawer::Mode::kCached;
  }

  // Canonical check: the chosen transition must be the first (by transition
  // index) in the group whose predecessor state can be reached on the
  // sampled prefix — decided exactly by simulation, memoized over the
  // derivation ref.
  bool IsCanonical(const Group& g, const SampleRef& candidate, size_t l) {
    const Nfa::Transition* trans = nfa_.transitions().data();
    const Nfa::Transition& t = trans[candidate.transition];
    ++stats_.membership_checks;
    const Span<StateId> reach = ReachStates(t.from, l - 1, candidate.prefix);
    uint32_t canonical = candidate.transition;
    for (uint32_t m = g.begin; m < g.end; ++m) {
      const uint32_t other_idx = members_[m].transition;
      if (std::binary_search(reach.begin(), reach.end(),
                             trans[other_idx].from)) {
        canonical = other_idx;
        break;
      }
    }
    return canonical == candidate.transition;
  }

  // Fast-kernel batch: fills the SoA candidate arenas with `batch` draws —
  // one alias pick plus one multiply-shift prefix index each — from a single
  // contiguous block of raw RNG words. cand_valid_[i] is 0 when the picked
  // transition's predecessor pool is empty (still counted as an attempt,
  // matching the scalar loop's `continue`).
  void DrawCandidateBatch(const Group& g, size_t batch, size_t l) {
    const Nfa::Transition* trans = nfa_.transitions().data();
    words_.resize(2 * batch);
    rng_.FillBlock(words_.data(), 2 * batch);
    ++stats_.batch_draws;
    BatchSizeHist().Observe(batch);
    cand_trans_.resize(batch);
    cand_prefix_.resize(batch);
    cand_valid_.assign(batch, 0);
    for (size_t i = 0; i < batch; ++i) {
      const size_t pick =
          drawer_.DrawFromDouble(Rng::DoubleFromWord(words_[2 * i]));
      const uint32_t trans_idx = members_[g.begin + pick].transition;
      const uint32_t prev_len = pool_[At(l - 1, trans[trans_idx].from)].len;
      if (prev_len == 0) continue;
      cand_trans_[i] = trans_idx;
      cand_prefix_[i] = static_cast<uint32_t>(
          Rng::BoundedFromWord(words_[2 * i + 1], prev_len));
      cand_valid_[i] = 1;
    }
  }

  obs::Histogram& BatchSizeHist() {
    if (batch_hist_ == nullptr) {
      batch_hist_ = &obs::MetricRegistry::Global().GetHistogram(
          "counting.batch_size_hist");
    }
    return *batch_hist_;
  }

  // Groups the contributing incoming transitions of stratum (q, l) by
  // symbol into members_/groups_: a stable sort by symbol makes each group
  // one contiguous run. Groups come in ascending symbol order, and each
  // keeps InTransitions order; the draw sequence (and with it every golden
  // estimate) is defined in that order.
  void BuildGroups(StateId q, size_t l) {
    const Nfa::Transition* trans = nfa_.transitions().data();
    members_.clear();
    groups_.clear();
    for (uint32_t idx : nfa_.InTransitions(q)) {
      const Nfa::Transition& t = trans[idx];
      const size_t from = At(l - 1, t.from);
      if (!live_.Test(from) || est_[from].IsZero()) continue;
      members_.push_back(Member{t.symbol, idx});
    }
    std::stable_sort(members_.begin(), members_.end(),
                     [](const Member& a, const Member& b) {
                       return a.symbol < b.symbol;
                     });
    for (uint32_t m = 0; m < members_.size(); ++m) {
      if (m == 0 || members_[m].symbol != members_[m - 1].symbol) {
        Group g;
        g.begin = g.end = m;
        groups_.push_back(g);
      }
      Group& g = groups_.back();
      ++g.end;
      g.weight_sum = g.weight_sum.Add(
          est_[At(l - 1, trans[members_[m].transition].from)]);
    }
  }

  // Stratum estimate for A(q, l) = ∪_t A(from(t), l−1)·symbol(t).
  // Transitions with distinct symbols append distinct last characters, so
  // the union decomposes into an exact sum over symbol groups; only within
  // a group of same-symbol incoming transitions is the Karp–Luby canonical-
  // witness estimator (with its exact prefix-membership oracle) needed.
  void ProcessStratum(StateId q, size_t l) {
    const Nfa::Transition* trans = nfa_.transitions().data();
    BuildGroups(q, l);
    if (groups_.empty()) return;  // estimate stays 0
    accepted_.clear();

    auto DrawRef = [&](uint32_t trans_idx, SampleRef* out) {
      const uint32_t prev_len = pool_[At(l - 1, trans[trans_idx].from)].len;
      if (prev_len == 0) return false;
      out->transition = trans_idx;
      out->prefix = static_cast<uint32_t>(rng_.NextBounded(prev_len));
      return true;
    };

    ExtFloat total_estimate;
    for (Group& g : groups_) {
      if (g.end - g.begin == 1) {
        g.estimate = g.weight_sum;  // no overlap possible
        total_estimate = total_estimate.Add(g.estimate);
        continue;
      }
      // One drawer build per group, reused across the whole rejection loop
      // (the alias mode is the fast tier).
      draw_weights_.clear();
      for (uint32_t m = g.begin; m < g.end; ++m) {
        draw_weights_.push_back(
            est_[At(l - 1, trans[members_[m].transition].from)]);
      }
      drawer_.Prepare(DrawMode(), draw_weights_, &stats_);
      const size_t max_attempts = MaxRejectionAttempts(pool_target_);
      const size_t acc_begin = accepted_.size();
      auto hits = [&] { return accepted_.size() - acc_begin; };
      size_t attempts = 0;
      if (fast_) {
        // Batched SoA kernel: draw a block of candidates at once, then run
        // the acceptance pass over the contiguous arenas. The whole batch
        // counts as attempts even when the pool target is crossed mid-batch
        // — the extra canonical hits just enrich the resample pool, and
        // accepted/attempts stays a per-attempt acceptance-rate estimate.
        while (hits() < pool_target_ && attempts < max_attempts) {
          if (Cancelled()) break;
          const size_t batch = std::min(kDrawBatch, max_attempts - attempts);
          DrawCandidateBatch(g, batch, l);
          for (size_t i = 0; i < batch; ++i) {
            if (cand_valid_[i] == 0) continue;
            const SampleRef candidate{cand_trans_[i], cand_prefix_[i]};
            if (IsCanonical(g, candidate, l)) accepted_.push_back(candidate);
          }
          attempts += batch;
        }
      } else {
        while (hits() < pool_target_ && attempts < max_attempts) {
          ++attempts;
          if ((attempts & 255u) == 0 && Cancelled()) break;
          const size_t pick = drawer_.Draw(&rng_);
          SampleRef candidate;
          if (!DrawRef(members_[g.begin + pick].transition, &candidate)) {
            continue;
          }
          if (IsCanonical(g, candidate, l)) accepted_.push_back(candidate);
        }
      }
      stats_.attempts += attempts;
      stats_.accepted += hits();
      if (hits() == 0) {
        // Statistically negligible when attempts >> group size (acceptance
        // is >= 1/|group|); force one biased sample so a live stratum never
        // reports a false zero.
        ++stats_.forced_samples;
        const size_t pick = drawer_.Draw(&rng_);
        SampleRef forced;
        if (DrawRef(members_[g.begin + pick].transition, &forced)) {
          accepted_.push_back(forced);
          g.estimate = g.weight_sum.Scale(
              1.0 / static_cast<double>(attempts + 1));
        }
      } else {
        g.estimate = g.weight_sum.Scale(static_cast<double>(hits()) /
                                        static_cast<double>(attempts));
      }
      g.acc_begin = static_cast<uint32_t>(acc_begin);
      g.acc_end = static_cast<uint32_t>(accepted_.size());
      total_estimate = total_estimate.Add(g.estimate);
    }
    est_[At(l, q)] = total_estimate;
    if (total_estimate.IsZero()) return;

    // Pool: mixture over groups proportional to their estimates; singleton
    // groups draw fresh, overlapping groups resample their canonical hits.
    group_list_.clear();
    group_weights_.clear();
    for (const Group& g : groups_) {
      if (g.estimate.IsZero()) continue;
      group_list_.push_back(&g);
      group_weights_.push_back(g.estimate);
    }
    if (group_list_.size() > 1) {
      drawer_.Prepare(DrawMode(), group_weights_, &stats_);
    }
    const size_t pool_begin = pool_arena_.size();
    if (fast_) {
      // Batched mixture: one word for the group pick, one for the index
      // within the group (fresh prefix for singleton groups, canonical-hit
      // resample otherwise), drawn block-at-a-time.
      for (size_t done = 0; done < pool_target_;) {
        const size_t batch = std::min(kDrawBatch, pool_target_ - done);
        words_.resize(2 * batch);
        rng_.FillBlock(words_.data(), 2 * batch);
        ++stats_.batch_draws;
        BatchSizeHist().Observe(batch);
        for (size_t i = 0; i < batch; ++i) {
          const Group& g =
              group_list_.size() == 1
                  ? *group_list_[0]
                  : *group_list_[drawer_.DrawFromDouble(
                        Rng::DoubleFromWord(words_[2 * i]))];
          const uint64_t word = words_[2 * i + 1];
          if (g.end - g.begin == 1) {
            const uint32_t trans_idx = members_[g.begin].transition;
            const uint32_t prev_len =
                pool_[At(l - 1, trans[trans_idx].from)].len;
            if (prev_len == 0) continue;
            pool_arena_.push_back(SampleRef{
                trans_idx,
                static_cast<uint32_t>(Rng::BoundedFromWord(word, prev_len))});
          } else if (g.acc_end != g.acc_begin) {
            pool_arena_.push_back(accepted_[
                g.acc_begin +
                Rng::BoundedFromWord(word, g.acc_end - g.acc_begin)]);
          }
        }
        done += batch;
      }
    } else {
      for (size_t i = 0; i < pool_target_; ++i) {
        const Group& g = group_list_.size() == 1
                             ? *group_list_[0]
                             : *group_list_[drawer_.Draw(&rng_)];
        if (g.end - g.begin == 1) {
          SampleRef sample;
          if (DrawRef(members_[g.begin].transition, &sample)) {
            pool_arena_.push_back(sample);
          }
        } else if (g.acc_end != g.acc_begin) {
          pool_arena_.push_back(accepted_[
              g.acc_begin + rng_.NextBounded(g.acc_end - g.acc_begin)]);
        }
      }
    }
    PQE_CHECK(pool_arena_.size() <= UINT32_MAX);
    const size_t pool_len = pool_arena_.size() - pool_begin;
    pool_[At(l, q)] = ArenaRun{static_cast<uint32_t>(pool_begin),
                           static_cast<uint32_t>(pool_len)};
    reach_.resize(pool_arena_.size());
    stats_.pool_entries += pool_len;
  }

  // |L_n| = |∪_{q ∈ F} A(q, n)| via the same canonical-witness estimator
  // (canonical = smallest accepting state reachable on the string).
  Result<CountEstimate> Finalize() {
    std::vector<StateId> finals;
    std::vector<ExtFloat> weights;
    for (StateId q = 0; q < num_states_; ++q) {
      if (!nfa_.IsAccepting(q) || !live_.Test(At(n_, q))) continue;
      if (est_[At(n_, q)].IsZero()) continue;
      finals.push_back(q);
      weights.push_back(est_[At(n_, q)]);
    }
    if (finals.empty()) {
      return CountEstimate{ExtFloat(), stats_};
    }
    const ExtFloat total = SumExtFloats(weights);
    if (finals.size() == 1) {
      return CountEstimate{total, stats_};
    }
    const size_t target = pool_target_;
    const size_t max_attempts = MaxRejectionAttempts(target);
    size_t attempts = 0;
    size_t accepted = 0;
    drawer_.Prepare(DrawMode(), weights, &stats_);
    // Canonical check for one (accepting state, pool index) draw: q must be
    // the smallest accepting state reachable on the sampled string.
    auto AcceptsCanonically = [&](StateId q, uint32_t idx) {
      ++stats_.membership_checks;
      const Span<StateId> reach = ReachStates(q, n_, idx);
      StateId canonical = q;
      for (StateId other : finals) {
        if (std::binary_search(reach.begin(), reach.end(), other)) {
          canonical = other;
          break;
        }
      }
      return canonical == q;
    };
    if (fast_) {
      while (attempts < max_attempts && accepted < target) {
        if (Cancelled()) break;
        const size_t batch = std::min(kDrawBatch, max_attempts - attempts);
        words_.resize(2 * batch);
        rng_.FillBlock(words_.data(), 2 * batch);
        ++stats_.batch_draws;
        BatchSizeHist().Observe(batch);
        for (size_t i = 0; i < batch; ++i) {
          const size_t pick =
              drawer_.DrawFromDouble(Rng::DoubleFromWord(words_[2 * i]));
          const StateId q = finals[pick];
          const uint32_t pool_len = pool_[At(n_, q)].len;
          if (pool_len == 0) continue;
          const uint32_t idx = static_cast<uint32_t>(
              Rng::BoundedFromWord(words_[2 * i + 1], pool_len));
          if (AcceptsCanonically(q, idx)) ++accepted;
        }
        attempts += batch;
      }
    } else {
      while (attempts < max_attempts && accepted < target) {
        ++attempts;
        if ((attempts & 255u) == 0 && Cancelled()) break;
        const size_t pick = drawer_.Draw(&rng_);
        const StateId q = finals[pick];
        const uint32_t pool_len = pool_[At(n_, q)].len;
        if (pool_len == 0) continue;
        const uint32_t idx =
            static_cast<uint32_t>(rng_.NextBounded(pool_len));
        if (AcceptsCanonically(q, idx)) ++accepted;
      }
    }
    stats_.attempts += attempts;
    stats_.accepted += accepted;
    if (Cancelled()) return DeadlineError(n_);
    if (accepted == 0) {
      ++stats_.forced_samples;
      accepted = 1;
    }
    ExtFloat value = total.Scale(static_cast<double>(accepted) /
                                 static_cast<double>(attempts));
    return CountEstimate{value, stats_};
  }

  // --- Cancellation -------------------------------------------------------

  bool Cancelled() const { return cancel_ != nullptr && cancel_->Expired(); }

  Status DeadlineError(size_t l) const {
    return Status::DeadlineExceeded(
        "count_nfa: cancelled at length stratum " + std::to_string(l) + "/" +
        std::to_string(n_));
  }

  const Nfa& nfa_;
  const size_t n_;
  const size_t num_states_;
  const EstimatorConfig& config_;
  Rng rng_;
  const bool fast_;  // batched fast kernels (kernel_mode = kFast)
  const CancelToken* cancel_;
  size_t pool_target_ = 0;
  CountStats stats_;
  // Level-major stratum tables, indexed by At(l, q).
  FlatBitset live_;
  std::vector<ExtFloat> est_;
  std::vector<ArenaRun> pool_;             // run of pool_arena_ per stratum
  std::vector<SampleRef> pool_arena_;  // every pool, back to back

  // Run-state memo (ReachStates): one subset id per pooled sample,
  // parallel to pool_arena_ (0 = not computed).
  std::vector<uint32_t> reach_;
  // Lazy subset DFA: interned run-state sets, and the successor id of each
  // (subset id, symbol) step taken so far.
  SetInterner sets_;
  PackedTable steps_;
  uint32_t initial_set_ = 0;

  // Hot-path scratch, reused across draws and strata.
  IndexDrawer drawer_;
  std::vector<uint32_t> chain_;  // uncomputed memo links, top first
  std::vector<StateId> step_scratch_;  // a subset being stepped or interned
  std::vector<Member> members_;  // symbol groups of the current stratum
  std::vector<Group> groups_;
  std::vector<SampleRef> accepted_;  // every group's canonical hits
  std::vector<ExtFloat> draw_weights_;
  std::vector<const Group*> group_list_;
  std::vector<ExtFloat> group_weights_;
  // Fast-kernel SoA arenas, sized to one batch and reused across batches.
  std::vector<uint64_t> words_;       // raw block-RNG output
  std::vector<uint32_t> cand_trans_;  // candidate transition per attempt
  std::vector<uint32_t> cand_prefix_; // candidate prefix index per attempt
  std::vector<uint8_t> cand_valid_;   // 0 = predecessor pool was empty
  obs::Histogram* batch_hist_ = nullptr;  // lazy counting.batch_size_hist
};

}  // namespace

Result<CountEstimate> CountNfaStrings(const Nfa& nfa, size_t n,
                                      const EstimatorConfig& config) {
  if (config.epsilon <= 0.0 || config.epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  const size_t reps = std::max<size_t>(config.repetitions, 1);
  PQE_TRACE_SPAN_VAR(span, "count.nfa");
  span.AttrUint("states", nfa.NumStates());
  span.AttrUint("transitions", nfa.transitions().size());
  span.AttrUint("word_length", n);
  span.AttrUint("repetitions", reps);
  if (reps == 1) {
    NfaCounter counter(nfa, n, config);
    PQE_ASSIGN_OR_RETURN(CountEstimate est, counter.Run());
    RecordCountRun("pqe.count_nfa", est.stats, config.kernel_mode, &span);
    return est;
  }
  // Median-of-R amplification over independent seeds. Reps are independent
  // (per-rep derived seed, per-rep counter), so they fan out over the shared
  // pool; per-rep slots plus the fixed-order merge below keep the median and
  // aggregate stats bit-identical across thread counts.
  const size_t threads =
      std::min(ThreadPool::ResolveNumThreads(config.num_threads), reps);
  span.AttrUint("threads", threads);
  // The CSR adjacency is a lazily-built mutable index; build it before the
  // reps share the const Nfa across workers (docs/parallelism.md).
  nfa.WarmAdjacency();
  std::vector<CountEstimate> runs(reps);
  std::vector<Status> rep_status(reps, Status::OK());
  auto& rep_hist =
      obs::MetricRegistry::Global().GetHistogram("pqe.count_nfa.rep_ns");
  ParallelFor(threads, reps, [&](size_t r) {
    // Spans only on the serial path (sessions are thread-local; parallel
    // reps record timings via the atomic histogram instead).
    std::optional<obs::ScopedSpan> rep_span;
    if (threads == 1) {
      rep_span.emplace("count.nfa.rep");
      rep_span->AttrUint("rep", r);
    }
    const auto start = std::chrono::steady_clock::now();
    EstimatorConfig rep_config = config;
    rep_config.repetitions = 1;
    rep_config.seed = Rng::DeriveSeed(config.seed, r);
    NfaCounter counter(nfa, n, rep_config);
    Result<CountEstimate> est = counter.Run();
    if (!est.ok()) {
      rep_status[r] = est.status();
      return;
    }
    runs[r] = est.MoveValue();
    rep_hist.Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  });
  for (const Status& st : rep_status) PQE_RETURN_IF_ERROR(st);
  CountStats aggregate;
  for (const CountEstimate& est : runs) {
    aggregate.strata_total = est.stats.strata_total;
    aggregate.strata_live = est.stats.strata_live;
    aggregate.pool_entries += est.stats.pool_entries;
    aggregate.attempts += est.stats.attempts;
    aggregate.accepted += est.stats.accepted;
    aggregate.forced_samples += est.stats.forced_samples;
    aggregate.membership_checks += est.stats.membership_checks;
    aggregate.picker_builds += est.stats.picker_builds;
    aggregate.alias_builds += est.stats.alias_builds;
    aggregate.batch_draws += est.stats.batch_draws;
    aggregate.runstates_memo_hits += est.stats.runstates_memo_hits;
    aggregate.runstates_memo_misses += est.stats.runstates_memo_misses;
    aggregate.runstates_steps += est.stats.runstates_steps;
  }
  std::sort(runs.begin(), runs.end(),
            [](const CountEstimate& a, const CountEstimate& b) {
              return a.value < b.value;
            });
  CountEstimate out = runs[runs.size() / 2];
  out.stats = aggregate;
  RecordCountRun("pqe.count_nfa", out.stats, config.kernel_mode, &span);
  return out;
}

}  // namespace pqe

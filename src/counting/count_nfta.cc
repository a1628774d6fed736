#include "counting/count_nfta.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "automata/tree.h"
#include "counting/flat_bitset.h"
#include "counting/subset_intern.h"
#include "counting/weighted_pick.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pqe {

namespace {

// Attempts drawn per block-RNG batch in the fast kernels (see the NFA twin
// in count_nfa.cc): 2–3 raw words per attempt, so a batch stays L1-resident
// while the acceptance pass runs over it.
constexpr size_t kDrawBatch = 256;

// Derivation reference for a pooled tree sample of A(q, s): the transition
// taken at the root and the forest_arena_ index of its child forest, a
// sample of F(τ, arity, s−1) (unused for a leaf), plus the membership
// kernel's memo of the tree's interned run-state set.
struct TreeSample {
  uint32_t transition = 0;
  uint32_t forest = 0;
  uint32_t set = 0;  // subset id (see TreeSet); 0 = not computed
};

// Derivation reference for a pooled forest sample of F(τ, j, s): the
// forest_arena_ index of its prefix, a sample of F(τ, j−1, s − split)
// (unused when j = 1), and the tree_arena_ index of its j-th child tree, a
// sample of A(child_j(τ), split), plus the memo of its interned child tuple.
struct ForestSample {
  uint32_t prefix = 0;
  uint32_t tree = 0;
  uint32_t tuple = 0;  // child-tuple id (see ForestTuple); 0 = not computed
};

class NftaCounter {
 public:
  NftaCounter(const Nfta& nfta, size_t n, const EstimatorConfig& config)
      : nfta_(nfta),
        n_(n),
        config_(config),
        rng_(config.seed),
        fast_(config.kernel_mode == KernelMode::kFast),
        cancel_(config.cancel) {}

  Result<CountEstimate> Run() {
    if (nfta_.HasLambdaTransitions()) {
      return Status::InvalidArgument(
          "CountNftaTrees requires a λ-free NFTA (run EliminateLambda)");
    }
    if (n_ == 0) return CountEstimate{ExtFloat(), stats_};
    if (Cancelled()) return DeadlineError(0);
    pool_target_ = config_.ResolvePoolSize(n_);

    IndexPairs();
    ComputeForwardFeasibility();
    ComputeBackwardUsefulness();
    BuildLiveLists();

    // Strata accounting, folded into the processing sweep below (the sweep
    // already visits every stratum to test liveness; a dedicated counting
    // pass would re-walk O(|Q|·n + |Δ|·a·n) entries). strata_total is a
    // closed form: A-strata are |Q|·n (sizes 1..n), F-strata arity·(n+1)
    // per transition (sizes 0..n). The sweep skips forest size 0, which is
    // never live (a child tree has size >= 1), so the live count matches.
    stats_.strata_total = nfta_.NumStates() * n_;
    for (uint32_t tau = 0; tau < nfta_.NumTransitions(); ++tau) {
      stats_.strata_total += nfta_.transition(tau).children.size() * (n_ + 1);
    }

    AllocateTables();
    for (size_t s = 1; s <= n_; ++s) {
      // One cancellation poll per size stratum, plus finer-grained polls in
      // the rejection loops (a single stratum's attempt budget can be large).
      if (Cancelled()) return DeadlineError(s);
      // The live lists replay the dense scan's visit order exactly (states
      // ascending, then transitions ascending with positions ascending), so
      // the processing — and with it every RNG draw — is unchanged.
      for (const LiveA& a : live_a_by_s_[s]) {
        ++stats_.strata_live;
        ProcessTreeStratum(a.q, s, a.id);
      }
      for (const LiveF& f : live_f_by_s_[s]) {
        ++stats_.strata_live;
        ProcessForestStratum(f.tau, f.j, s, f.id);
      }
      if (cancel_ != nullptr) cancel_->AddProgress(1);
    }
    // A rejection loop may have bailed out mid-stratum on an expired token;
    // the partial tables must not be read as an estimate.
    if (Cancelled()) return DeadlineError(n_);
    CountEstimate out;
    out.value = EstA(nfta_.initial_state(), n_);
    out.stats = stats_;
    return out;
  }

  // Materializes `count` (near-uniform) accepted trees of size n_ from the
  // root stratum's sample pool. Must be called after Run(); returns fewer
  // trees (possibly none) when the language is empty.
  std::vector<LabeledTree> SampleAccepted(size_t count) {
    std::vector<LabeledTree> out;
    const uint32_t id = IdA(nfta_.initial_state(), n_);
    if (id == kNoStratum || pool_a_[id].len == 0) return out;
    const ArenaRun pool = pool_a_[id];
    out.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const uint32_t idx = static_cast<uint32_t>(rng_.NextBounded(pool.len));
      out.push_back(MaterializeTree(pool.off + idx));
    }
    return out;
  }

 private:
  // --- Feasibility -----------------------------------------------------

  // Feasibility-propagation events, packed into one word so the per-size
  // buckets are flat u64 vectors: tree strata carry the state, forest
  // strata the transition and prefix length (positions fit 24 bits — an
  // arity cannot exceed the tree size bound).
  static constexpr uint64_t kTreeEvent = uint64_t{1} << 63;
  static uint64_t EncodeForest(uint32_t tau, size_t j) {
    return (static_cast<uint64_t>(tau) << 24) | static_cast<uint64_t>(j);
  }
  static uint32_t ForestEventTau(uint64_t e) {
    return static_cast<uint32_t>(e >> 24);
  }
  static uint32_t ForestEventJ(uint64_t e) {
    return static_cast<uint32_t>(e & 0xffffff);
  }

  // Every (τ, j) with j ∈ [0, arity(τ)] gets a dense pair index
  // pair_base_[τ] + j, the row of its forest strata in the flat tables.
  void IndexPairs() {
    pair_base_.assign(nfta_.NumTransitions() + 1, 0);
    for (uint32_t tau = 0; tau < nfta_.NumTransitions(); ++tau) {
      pair_base_[tau + 1] = pair_base_[tau] +
                            static_cast<uint32_t>(
                                nfta_.transition(tau).children.size() + 1);
    }
  }
  size_t Pair(uint32_t tau, size_t j) const { return pair_base_[tau] + j; }
  size_t NumPairs() const { return pair_base_.back(); }

  // Bit positions in the row-major (stratum × size) feasibility bitsets:
  // one row of n_ + 1 sizes per state (A) or per (τ, j) pair (F).
  size_t BitA(StateId q, size_t s) const { return q * (n_ + 1) + s; }
  size_t BitF(uint32_t tau, size_t j, size_t s) const {
    return Pair(tau, j) * (n_ + 1) + s;
  }

  // fwd_a_ bit (q, s): A(q, s) non-empty; fwd_f_ bit (τ, j, s): F(τ, j, s)
  // non-empty. Alongside the bitsets, sparse sorted lists of feasible sizes
  // are kept per stratum: gadget-expanded automata are size-determined (one
  // or two live sizes per stratum), and the naive split loops would cost
  // O(n²·|Δ|).
  //
  // The closure is computed semi-naively: instead of re-scanning every
  // transition at every size (O(n·|Δ|·a) bit probes, which dwarfs the
  // handful of live strata on gadget-expanded automata), newly feasible
  // strata are queued into per-size buckets and each one cascades once —
  // a new tree size pairs against the recorded prefix-forest sizes, a new
  // forest size pairs against the recorded child-tree sizes. Every
  // (prefix, child) pair is seen by whichever side is processed later, so
  // the fixed point — and with it every downstream table — is identical to
  // the dense scan's; buckets drain in ascending size order, which keeps
  // the recorded size lists sorted exactly as before.
  void ComputeForwardFeasibility() {
    const size_t S = nfta_.NumStates();
    fwd_a_.Assign(S * (n_ + 1));
    fwd_a_sizes_.assign(S, {});
    fwd_f_.Assign(NumPairs() * (n_ + 1));
    fwd_f_sizes_.assign(NumPairs(), {});
    for (uint32_t tau = 0; tau < nfta_.NumTransitions(); ++tau) {
      fwd_f_.Set(BitF(tau, 0, 0));
      fwd_f_sizes_[Pair(tau, 0)].push_back(0);
    }

    // Reverse child index (CSR): state q -> occurrences (τ, j) with
    // child_j(τ) == q, the pairs a new tree size of q can extend.
    std::vector<uint32_t> rev_offsets(S + 1, 0);
    size_t total_arity = 0;
    for (const Nfta::Transition& t : nfta_.transitions()) {
      for (StateId c : t.children) ++rev_offsets[c + 1];
      total_arity += t.children.size();
    }
    for (size_t i = 0; i < S; ++i) rev_offsets[i + 1] += rev_offsets[i];
    std::vector<uint64_t> rev_pairs(total_arity);
    {
      std::vector<uint32_t> cursor(rev_offsets.begin(), rev_offsets.end() - 1);
      for (uint32_t tau = 0; tau < nfta_.NumTransitions(); ++tau) {
        const Nfta::Transition& t = nfta_.transition(tau);
        for (size_t j = 1; j <= t.children.size(); ++j) {
          rev_pairs[cursor[t.children[j - 1]]++] = EncodeForest(tau, j);
        }
      }
    }

    std::vector<std::vector<uint64_t>> buckets(n_ + 1);
    // Seeds: an arity-0 transition's (empty) full forest makes a size-1
    // tree; arity-≥1 transitions wait for their first child sizes.
    for (uint32_t tau = 0; tau < nfta_.NumTransitions(); ++tau) {
      if (nfta_.transition(tau).children.empty() && n_ >= 1) {
        buckets[1].push_back(kTreeEvent | nfta_.transition(tau).from);
      }
    }
    for (size_t s = 1; s <= n_; ++s) {
      // Index drain: processing can append same-size events (a tree of
      // size s extends an empty prefix forest to a forest of size s).
      for (size_t i = 0; i < buckets[s].size(); ++i) {
        const uint64_t e = buckets[s][i];
        if (e & kTreeEvent) {
          const StateId q = static_cast<StateId>(e & ~kTreeEvent);
          if (fwd_a_.Test(BitA(q, s))) continue;
          fwd_a_.Set(BitA(q, s));
          fwd_a_sizes_[q].push_back(static_cast<uint32_t>(s));
          for (uint32_t r = rev_offsets[q]; r < rev_offsets[q + 1]; ++r) {
            const uint32_t tau = ForestEventTau(rev_pairs[r]);
            const uint32_t j = ForestEventJ(rev_pairs[r]);
            for (uint32_t prev : fwd_f_sizes_[Pair(tau, j - 1)]) {
              if (prev + s > n_) break;
              buckets[prev + s].push_back(EncodeForest(tau, j));
            }
          }
        } else {
          const uint32_t tau = ForestEventTau(e);
          const uint32_t j = ForestEventJ(e);
          if (fwd_f_.Test(BitF(tau, j, s))) continue;
          fwd_f_.Set(BitF(tau, j, s));
          fwd_f_sizes_[Pair(tau, j)].push_back(static_cast<uint32_t>(s));
          const Nfta::Transition& t = nfta_.transition(tau);
          if (j == t.children.size()) {
            if (s + 1 <= n_) buckets[s + 1].push_back(kTreeEvent | t.from);
          } else {
            for (uint32_t split : fwd_a_sizes_[t.children[j]]) {
              if (s + split > n_) break;
              buckets[s + split].push_back(EncodeForest(tau, j + 1));
            }
          }
        }
      }
      buckets[s].clear();
      buckets[s].shrink_to_fit();
    }
  }

  // bwd_a_/bwd_f_: the stratum can occur inside some accepted tree of total
  // size n. Seeded at (initial, n) and propagated down through transitions
  // and feasible splits.
  void ComputeBackwardUsefulness() {
    if (config_.disable_backward_pruning) {
      // Ablation mode: everything forward-feasible counts as useful.
      bwd_a_ = fwd_a_;
      bwd_f_ = fwd_f_;
      return;
    }
    bwd_a_.Assign(nfta_.NumStates() * (n_ + 1));
    bwd_f_.Assign(NumPairs() * (n_ + 1));
    // Semi-naive marking, mirroring the forward pass: a seed at
    // (initial, n) cascades down, each marked stratum processed once.
    // A(q, s) marks the full forests F(τ, m, s−1); F(τ, j, s) marks its
    // feasible splits F(τ, j−1, prev) and A(child_j, s−prev). Marks only
    // ever target strictly smaller (size, position), so draining buckets
    // from large sizes down — re-scanning a bucket for the same-size marks
    // a forest stratum makes on its shorter prefixes — reaches the same
    // fixed point as the dense descending scan.
    std::vector<std::vector<uint64_t>> buckets(n_ + 1);
    buckets[n_].push_back(kTreeEvent | nfta_.initial_state());
    for (size_t s = n_ + 1; s-- > 1;) {
      for (size_t i = 0; i < buckets[s].size(); ++i) {
        const uint64_t e = buckets[s][i];
        if (e & kTreeEvent) {
          const StateId q = static_cast<StateId>(e & ~kTreeEvent);
          if (bwd_a_.Test(BitA(q, s))) continue;
          bwd_a_.Set(BitA(q, s));
          // The seed may be infeasible.
          if (!fwd_a_.Test(BitA(q, s))) continue;
          for (uint32_t tau_idx : nfta_.OutTransitions(q)) {
            const size_t m = nfta_.transition(tau_idx).children.size();
            if (fwd_f_.Test(BitF(tau_idx, m, s - 1))) {
              buckets[s - 1].push_back(EncodeForest(tau_idx, m));
            }
          }
        } else {
          const uint32_t tau = ForestEventTau(e);
          const uint32_t j = ForestEventJ(e);
          if (bwd_f_.Test(BitF(tau, j, s))) continue;
          bwd_f_.Set(BitF(tau, j, s));
          if (j == 0) continue;
          const Nfta::Transition& t = nfta_.transition(tau);
          for (uint32_t prev : fwd_f_sizes_[Pair(tau, j - 1)]) {
            if (prev > s) break;
            const size_t split = s - prev;
            if (split >= 1 && fwd_a_.Test(BitA(t.children[j - 1], split))) {
              buckets[prev].push_back(EncodeForest(tau, j - 1));
              buckets[split].push_back(kTreeEvent | t.children[j - 1]);
            }
          }
        }
      }
      buckets[s].clear();
      buckets[s].shrink_to_fit();
    }
    // Size-0 forest events (empty prefixes of useful forests) land in
    // bucket 0; they carry no further cascade, just the mark.
    for (const uint64_t e : buckets[0]) {
      bwd_f_.Set(BitF(ForestEventTau(e), ForestEventJ(e), 0));
    }
  }

  // Dense stratum ids and per-size lists of live strata, distilled from the
  // sparse forward size lists once both pruning passes are done.
  //
  // Every live stratum gets a dense id: A(q, s) the position of s in q's
  // run of a_size_ (a_begin_[q] .. a_begin_[q + 1]), F(τ, j, s) the
  // position of s in the pair's run of f_size_. Runs are sorted, and hold
  // one or two sizes on gadget-expanded automata, so an id lookup (IdA /
  // IdF) is a search of a tiny sorted run; every per-stratum table is a
  // flat vector indexed by id.
  //
  // The main sweep then visits exactly the live strata instead of
  // re-testing every (state, size) and (transition, position, size)
  // combination per size — the dense scan is O(n·(|Q| + |Δ|·a)) of bit
  // probes, which on gadget-expanded automata (tens of thousands of states,
  // a handful of live sizes each) costs more than all the liveness hits it
  // finds. Build order replays the dense scan's visit order, so processing
  // order is unchanged.
  void BuildLiveLists() {
    live_a_by_s_.assign(n_ + 1, {});
    live_f_by_s_.assign(n_ + 1, {});
    a_begin_.assign(nfta_.NumStates() + 1, 0);
    a_size_.clear();
    for (StateId q = 0; q < nfta_.NumStates(); ++q) {
      for (uint32_t s : fwd_a_sizes_[q]) {
        if (!bwd_a_.Test(BitA(q, s))) continue;
        live_a_by_s_[s].push_back(
            LiveA{q, static_cast<uint32_t>(a_size_.size())});
        a_size_.push_back(s);
      }
      a_begin_[q + 1] = static_cast<uint32_t>(a_size_.size());
    }
    f_begin_.assign(NumPairs() + 1, 0);
    f_size_.clear();
    for (uint32_t tau = 0; tau < nfta_.NumTransitions(); ++tau) {
      const size_t arity = nfta_.transition(tau).children.size();
      // j = 0 (the empty forest) is never live; its run stays empty.
      f_begin_[Pair(tau, 0) + 1] = static_cast<uint32_t>(f_size_.size());
      for (size_t j = 1; j <= arity; ++j) {
        for (uint32_t s : fwd_f_sizes_[Pair(tau, j)]) {
          if (!bwd_f_.Test(BitF(tau, j, s))) continue;
          live_f_by_s_[s].push_back(LiveF{
              tau, static_cast<uint32_t>(j),
              static_cast<uint32_t>(f_size_.size())});
          f_size_.push_back(s);
        }
        f_begin_[Pair(tau, j) + 1] = static_cast<uint32_t>(f_size_.size());
      }
    }
  }

  static constexpr uint32_t kNoStratum = 0xffffffffu;

  // Dense id of size s in the sorted run sizes[begin, end), or kNoStratum.
  static uint32_t FindId(const std::vector<uint32_t>& sizes, uint32_t begin,
                         uint32_t end, size_t s) {
    const uint32_t* first = sizes.data() + begin;
    const uint32_t* last = sizes.data() + end;
    const uint32_t* it = std::lower_bound(first, last, s);
    if (it == last || *it != s) return kNoStratum;
    return static_cast<uint32_t>(it - sizes.data());
  }
  uint32_t IdA(StateId q, size_t s) const {
    return FindId(a_size_, a_begin_[q], a_begin_[q + 1], s);
  }
  uint32_t IdF(uint32_t tau, size_t j, size_t s) const {
    const size_t p = Pair(tau, j);
    return FindId(f_size_, f_begin_[p], f_begin_[p + 1], s);
  }

  // --- Tables -----------------------------------------------------------

  // Tables are indexed by dense stratum id: gadget-expanded automata are
  // size-determined, so only a handful of sizes per stratum are live; dense
  // (state x size) tables would dominate memory.
  void AllocateTables() {
    est_a_.assign(a_size_.size(), ExtFloat());
    pool_a_.assign(a_size_.size(), ArenaRun{});
    // Child-tuple id 0 is the "not computed" memo marker and id 1 the empty
    // tuple; neither has a cons cell of its own.
    tuple_prefix_.assign(kEmptyTuple + 1, 0);
    tuple_last_.assign(kEmptyTuple + 1, 0);
    est_f_.assign(f_size_.size(), ExtFloat());
    pool_f_.assign(f_size_.size(), ArenaRun{});
    // A pool holds at most pool_target_ samples, so these bounds — what
    // per-stratum vectors would reserve in total — spare the arenas every
    // grow-and-copy.
    tree_arena_.reserve(a_size_.size() * pool_target_);
    forest_arena_.reserve(f_size_.size() * pool_target_);
  }

  ExtFloat EstA(StateId q, size_t s) const {
    const uint32_t id = IdA(q, s);
    return id == kNoStratum ? ExtFloat() : est_a_[id];
  }
  // F(τ, 0, s) is the empty forest: one element at size 0, none otherwise.
  ExtFloat EstF(uint32_t tau, size_t j, size_t s) const {
    if (j == 0) return s == 0 ? ExtFloat::FromUint64(1) : ExtFloat();
    const uint32_t id = IdF(tau, j, s);
    return id == kNoStratum ? ExtFloat() : est_f_[id];
  }

  // --- Materialization ---------------------------------------------------

  // Appends the j trees of the forest sample forest_arena_[f] as children
  // of `parent` in `out` (left to right).
  void MaterializeForest(size_t j, uint32_t f, LabeledTree* out,
                         uint32_t parent) const {
    if (j == 0) return;  // empty forest
    const ForestSample& ref = forest_arena_[f];
    MaterializeForest(j - 1, ref.prefix, out, parent);
    MaterializeTreeInto(ref.tree, out, parent);
  }

  // Appends the tree sample tree_arena_[t] as a child of `parent`.
  void MaterializeTreeInto(uint32_t t, LabeledTree* out,
                           uint32_t parent) const {
    const TreeSample& ref = tree_arena_[t];
    const Nfta::Transition& tr = nfta_.transition(ref.transition);
    const uint32_t node = out->AddChild(parent, tr.symbol);
    MaterializeForest(tr.children.size(), ref.forest, out, node);
  }

  LabeledTree MaterializeTree(uint32_t t) const {
    const TreeSample& ref = tree_arena_[t];
    const Nfta::Transition& tr = nfta_.transition(ref.transition);
    LabeledTree out(tr.symbol);
    MaterializeForest(tr.children.size(), ref.forest, &out, out.root());
    return out;
  }

  // --- Strata processing --------------------------------------------------

  // A contributing transition of a tree stratum A(q, s): its weight is the
  // estimate of its full child forest F(τ, m, s−1), whose dense id
  // `forest` is hoisted here (kNoStratum for a leaf transition).
  struct Member {
    SymbolId symbol;
    uint32_t tau;
    uint32_t forest;
    ExtFloat weight;
  };
  // A same-symbol group of candidate transitions (see ProcessTreeStratum):
  // the run members_[begin, end), and its canonical hits accepted_[acc_begin,
  // acc_end) (only for multi-τ groups).
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

  obs::Histogram& BatchSizeHist() {
    if (batch_hist_ == nullptr) {
      batch_hist_ = &obs::MetricRegistry::Global().GetHistogram(
          "counting.batch_size_hist");
    }
    return *batch_hist_;
  }

  // Sentinel in a hoisted forest-pool size list: the transition is a leaf,
  // so no forest index is drawn (as opposed to 0, an empty pool).
  static constexpr size_t kLeafPool = static_cast<size_t>(-1);

  // Forest-pool size a candidate for member `mb` draws its index from, or
  // kLeafPool for a leaf transition.
  size_t ForestPoolSize(const Member& mb) const {
    if (mb.forest == kNoStratum) return kLeafPool;
    return pool_f_[mb.forest].len;
  }
  // The forest_arena_ index of entry `idx` of member `mb`'s forest pool.
  uint32_t ForestRef(const Member& mb, uint64_t idx) const {
    return pool_f_[mb.forest].off + static_cast<uint32_t>(idx);
  }

  // Fast-kernel batch for the tree-stratum rejection loop: fills the SoA
  // candidate arenas with `batch` draws — one alias pick over the group's
  // transitions plus one multiply-shift forest index each — from a single
  // contiguous block of raw RNG words. cand_valid_[i] is 0 when the picked
  // transition's forest pool is empty (still counted as an attempt,
  // matching the scalar loop's `continue`). `fpool_sizes` is the hoisted
  // per-transition forest-pool size (the pools live in smaller, finalized
  // strata, so one lookup per group replaces one per trial).
  void DrawTreeBatch(const Group& g, const std::vector<size_t>& fpool_sizes,
                     size_t batch) {
    words_.resize(2 * batch);
    rng_.FillBlock(words_.data(), 2 * batch);
    ++stats_.batch_draws;
    BatchSizeHist().Observe(batch);
    cand_tau_.resize(batch);
    cand_forest_.resize(batch);
    cand_valid_.assign(batch, 0);
    for (size_t i = 0; i < batch; ++i) {
      const size_t pick =
          drawer_.DrawFromDouble(Rng::DoubleFromWord(words_[2 * i]));
      const size_t fpool_size = fpool_sizes[pick];
      const Member& mb = members_[g.begin + pick];
      uint32_t forest = 0;
      if (fpool_size != kLeafPool) {
        if (fpool_size == 0) continue;
        forest = ForestRef(
            mb, Rng::BoundedFromWord(words_[2 * i + 1], fpool_size));
      }
      cand_tau_[i] = mb.tau;
      cand_forest_[i] = forest;
      cand_valid_[i] = 1;
    }
  }

  // Groups the contributing out-transitions of stratum (q, s) by symbol
  // into members_/groups_: a stable sort by symbol makes each group one
  // contiguous run. Groups come in ascending symbol order, and each keeps
  // OutTransitions order; the draw sequence (and with it every golden
  // estimate) is defined in that order.
  void BuildGroups(StateId q, size_t s) {
    members_.clear();
    groups_.clear();
    for (uint32_t tau_idx : nfta_.OutTransitions(q)) {
      const Nfta::Transition& t = nfta_.transition(tau_idx);
      const size_t m = t.children.size();
      const uint32_t forest = m == 0 ? kNoStratum : IdF(tau_idx, m, s - 1);
      const ExtFloat w = m == 0 ? EstF(tau_idx, 0, s - 1)
                        : forest == kNoStratum ? ExtFloat()
                                               : est_f_[forest];
      if (w.IsZero()) continue;
      members_.push_back(Member{t.symbol, tau_idx, forest, w});
    }
    std::stable_sort(members_.begin(), members_.end(),
                     [](const Member& a, const Member& b) {
                       return a.symbol < b.symbol;
                     });
    for (uint32_t k = 0; k < members_.size(); ++k) {
      if (k == 0 || members_[k].symbol != members_[k - 1].symbol) {
        Group g;
        g.begin = g.end = k;
        groups_.push_back(g);
      }
      Group& g = groups_.back();
      ++g.end;
      g.weight_sum = g.weight_sum.Add(members_[k].weight);
    }
  }

  // A(q, s) = ∪_{τ ∈ out(q)} { α_τ-rooted trees with child forest in
  // F(τ, m_τ, s−1) }. Transitions with distinct symbols generate disjoint
  // tree sets, so the union decomposes into an exact sum over symbol groups;
  // the Karp–Luby canonical-witness estimator is only needed *within* a
  // group of same-symbol transitions (rare outside witness-choice states).
  void ProcessTreeStratum(StateId q, size_t s, uint32_t id) {
    BuildGroups(q, s);
    if (groups_.empty()) return;
    accepted_.clear();

    // Draws a candidate sample for member `mb` (random forest ref);
    // returns false if the forest pool is empty.
    auto DrawCandidate = [&](const Member& mb, TreeSample* out) {
      out->transition = mb.tau;
      out->forest = 0;
      if (mb.forest != kNoStratum) {
        const uint32_t len = pool_f_[mb.forest].len;
        if (len == 0) return false;
        out->forest = ForestRef(mb, rng_.NextBounded(len));
      }
      return true;
    };

    // Per-group estimates: exact for singleton groups, Karp–Luby within
    // overlapping (same-symbol) groups.
    ExtFloat total_estimate;
    for (Group& g : groups_) {
      if (g.end - g.begin == 1) {
        g.estimate = g.weight_sum;
        total_estimate = total_estimate.Add(g.estimate);
        continue;
      }
      // One drawer build per group, reused across the whole rejection loop
      // (the alias mode is the fast tier).
      draw_weights_.clear();
      for (uint32_t k = g.begin; k < g.end; ++k) {
        draw_weights_.push_back(members_[k].weight);
      }
      drawer_.Prepare(DrawMode(), draw_weights_, &stats_);
      const size_t target = pool_target_;
      const size_t max_attempts = MaxRejectionAttempts(target);
      const size_t acc_begin = accepted_.size();
      auto hits = [&] { return accepted_.size() - acc_begin; };
      size_t attempts = 0;
      if (fast_) {
        // Batched SoA kernel (see the NFA twin): the whole batch counts as
        // attempts even when the target is crossed mid-batch — extra
        // canonical hits just enrich the resample pool.
        fast_fpool_sizes_.resize(g.end - g.begin);
        for (uint32_t k = g.begin; k < g.end; ++k) {
          fast_fpool_sizes_[k - g.begin] = ForestPoolSize(members_[k]);
        }
        while (hits() < target && attempts < max_attempts) {
          if (Cancelled()) break;
          const size_t batch = std::min(kDrawBatch, max_attempts - attempts);
          DrawTreeBatch(g, fast_fpool_sizes_, batch);
          for (size_t i = 0; i < batch; ++i) {
            if (cand_valid_[i] == 0) continue;
            const TreeSample candidate{cand_tau_[i], cand_forest_[i]};
            if (CanonicalTransition(q, candidate) ==
                candidate.transition) {
              accepted_.push_back(candidate);
            }
          }
          attempts += batch;
        }
      } else {
        while (hits() < target && attempts < max_attempts) {
          ++attempts;
          if ((attempts & 255u) == 0 && Cancelled()) break;
          const size_t pick = drawer_.Draw(&rng_);
          TreeSample candidate;
          if (!DrawCandidate(members_[g.begin + pick], &candidate)) continue;
          if (CanonicalTransition(q, candidate) == candidate.transition) {
            accepted_.push_back(candidate);
          }
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
        TreeSample forced;
        if (DrawCandidate(members_[g.begin + pick], &forced)) {
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
    est_a_[id] = total_estimate;
    if (total_estimate.IsZero()) return;

    // Pool: a mixture over groups proportional to their estimates. Samples
    // from singleton groups are drawn fresh; overlapping groups resample
    // their accepted (canonical) candidates.
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
    const size_t pool_begin = tree_arena_.size();
    if (fast_) {
      // Hoisted per-group draw bound: fresh-draw forest-pool size for
      // singleton groups (kLeafPool when no forest is drawn), accepted-pool
      // size otherwise — one lookup per group instead of one per entry.
      fast_fpool_sizes_.resize(group_list_.size());
      for (size_t k = 0; k < group_list_.size(); ++k) {
        const Group& g = *group_list_[k];
        fast_fpool_sizes_[k] = g.end - g.begin == 1
                                   ? ForestPoolSize(members_[g.begin])
                                   : g.acc_end - g.acc_begin;
      }
      // Batched mixture: one word for the group pick, one for the index
      // within the group (fresh forest ref for singleton groups,
      // canonical-hit resample otherwise), drawn block-at-a-time.
      for (size_t done = 0; done < pool_target_;) {
        const size_t batch = std::min(kDrawBatch, pool_target_ - done);
        words_.resize(2 * batch);
        rng_.FillBlock(words_.data(), 2 * batch);
        ++stats_.batch_draws;
        BatchSizeHist().Observe(batch);
        for (size_t i = 0; i < batch; ++i) {
          const size_t gpick =
              group_list_.size() == 1
                  ? 0
                  : drawer_.DrawFromDouble(Rng::DoubleFromWord(words_[2 * i]));
          const Group& g = *group_list_[gpick];
          const size_t bound = fast_fpool_sizes_[gpick];
          const uint64_t word = words_[2 * i + 1];
          if (g.end - g.begin == 1) {
            const Member& mb = members_[g.begin];
            uint32_t forest = 0;
            if (bound != kLeafPool) {
              if (bound == 0) continue;
              forest = ForestRef(mb, Rng::BoundedFromWord(word, bound));
            }
            tree_arena_.push_back(TreeSample{mb.tau, forest});
          } else if (bound != 0) {
            tree_arena_.push_back(
                accepted_[g.acc_begin + Rng::BoundedFromWord(word, bound)]);
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
          TreeSample sample;
          if (DrawCandidate(members_[g.begin], &sample)) {
            tree_arena_.push_back(sample);
          }
        } else if (g.acc_end != g.acc_begin) {
          tree_arena_.push_back(accepted_[
              g.acc_begin + rng_.NextBounded(g.acc_end - g.acc_begin)]);
        }
      }
    }
    pool_a_[id] = CloseRun(pool_begin, tree_arena_.size());
    stats_.pool_entries += pool_a_[id].len;
  }

  // The run [begin, end) of a pool just appended to its arena; arena
  // indexes are 32-bit.
  static ArenaRun CloseRun(size_t begin, size_t end) {
    PQE_CHECK(end <= UINT32_MAX);
    return ArenaRun{static_cast<uint32_t>(begin),
                    static_cast<uint32_t>(end - begin)};
  }

  // --- Membership kernel: interned run-state sets ------------------------
  //
  // The run-state set of a tree — the states from which it can be
  // generated — depends only on its root symbol and on the run-state sets
  // of its child subtrees, left to right. So each pooled forest sample
  // memoizes the tuple of its children's sets as an interned child-tuple
  // id (a cons cell: its prefix's tuple id and its last child's subset id,
  // interned in tuples_), and each pooled tree sample memoizes its own
  // subset id. A set is computed once per distinct (symbol, tuple id) key
  // (tree_sets_), and a canonical transition once per (candidate
  // transition, tuple id) key (canonical_). A membership check on memoized
  // slots is then one slot read and one table probe. Pools referenced by a
  // sample live in strictly smaller, already finalized strata, so no memo
  // entry invalidates within a run. The answers are the sets a bottom-up
  // simulation of the materialized tree computes (Nfta::RunStates), so the
  // memo changes no draw.

  static constexpr uint32_t kEmptyTuple = 1;

  // The subset id of the run-state set of the pooled tree
  // tree_arena_[tree].
  uint32_t TreeSet(uint32_t tree) {
    // Recursion only writes memo fields; no arena grows while a membership
    // check runs, so the reference holds.
    TreeSample& ref = tree_arena_[tree];
    if (ref.set != 0) {
      ++stats_.runstates_memo_hits;
      return ref.set;
    }
    ++stats_.runstates_memo_misses;
    const Nfta::Transition& t = nfta_.transitions()[ref.transition];
    const uint32_t tuple = ForestTuple(t.children.size(), ref.forest);
    // tuple >= 1, so a live key is never 0, the empty-bucket marker.
    const uint64_t key = (uint64_t{tuple} << 32) | t.symbol;
    const uint32_t* known = tree_sets_.Find(key);
    ref.set = known != nullptr ? *known : ComputeTreeSet(t.symbol, tuple, key);
    return ref.set;
  }

  // The child-tuple id of the j-tree forest sample forest_arena_[f]: the
  // subset ids of its child subtrees.
  uint32_t ForestTuple(size_t j, uint32_t f) {
    if (j == 0) return kEmptyTuple;
    ForestSample& ref = forest_arena_[f];
    if (ref.tuple != 0) {
      ++stats_.runstates_memo_hits;
      return ref.tuple;
    }
    ++stats_.runstates_memo_misses;
    const uint32_t prefix = ForestTuple(j - 1, ref.prefix);
    const uint32_t child = TreeSet(ref.tree);
    const uint64_t key = (uint64_t{prefix} << 32) | child;
    if (const uint32_t* known = tuples_.Find(key)) {
      ref.tuple = *known;
    } else {
      PQE_CHECK(tuple_prefix_.size() < UINT32_MAX);
      ref.tuple = static_cast<uint32_t>(tuple_prefix_.size());
      tuple_prefix_.push_back(prefix);
      tuple_last_.push_back(child);
      tuples_.Insert(key, ref.tuple);
    }
    return ref.tuple;
  }

  // Unpacks `tuple` into tuple_scratch_, first child's subset id first.
  void DecodeTuple(uint32_t tuple) {
    tuple_scratch_.clear();
    for (; tuple != kEmptyTuple; tuple = tuple_prefix_[tuple]) {
      tuple_scratch_.push_back(tuple_last_[tuple]);
    }
    std::reverse(tuple_scratch_.begin(), tuple_scratch_.end());
  }

  // Computes, interns and records under `key` the run-state set of a tree
  // with root `symbol` whose child subtrees have the sets of `tuple`: the
  // source states of every transition with that symbol and arity whose
  // child states accept the respective subtrees (the candidate enumeration
  // of Nfta::RunStates).
  uint32_t ComputeTreeSet(SymbolId symbol, uint32_t tuple, uint64_t key) {
    ++stats_.runstates_steps;
    const Nfta::Transition* trans = nfta_.transitions().data();
    DecodeTuple(tuple);
    const size_t m = tuple_scratch_.size();
    set_scratch_.clear();
    if (m == 0) {
      for (uint32_t tau : nfta_.LeafTransitions(symbol)) {
        set_scratch_.push_back(trans[tau].from);
      }
    } else {
      const Child0Index& index = EnsureChild0Index(symbol);
      for (StateId first_child_state : sets_.View(tuple_scratch_[0])) {
        const uint32_t end = index.offsets[first_child_state + 1];
        for (uint32_t o = index.offsets[first_child_state]; o < end; ++o) {
          const Nfta::Transition& cand = trans[index.taus[o]];
          if (cand.children.size() != m) continue;
          if (ChildrenAccept(cand, 1)) set_scratch_.push_back(cand.from);
        }
      }
    }
    std::sort(set_scratch_.begin(), set_scratch_.end());
    set_scratch_.erase(std::unique(set_scratch_.begin(), set_scratch_.end()),
                       set_scratch_.end());
    const uint32_t id = sets_.Intern(set_scratch_);
    tree_sets_.Insert(key, id);
    return id;
  }

  // Arity-≥1 transitions carrying one symbol, CSR-grouped by first child
  // state (counting sort, so taus stay ascending within a child0 bucket):
  // an O(1) candidate lookup per state of the first child's set, where
  // Nfta::TransitionsWithSymbolChild0 binary-searches the global index.
  struct Child0Index {
    std::vector<uint32_t> offsets;  // NumStates() + 1 entries
    std::vector<uint32_t> taus;
  };

  const Child0Index& EnsureChild0Index(SymbolId symbol) {
    if (child0_index_.empty()) child0_index_.resize(nfta_.AlphabetSize());
    Child0Index& index = child0_index_[symbol];
    if (!index.offsets.empty()) return index;
    const Nfta::Transition* trans = nfta_.transitions().data();
    index.offsets.assign(nfta_.NumStates() + 1, 0);
    for (uint32_t tau : nfta_.TransitionsWithSymbol(symbol)) {
      if (!trans[tau].children.empty()) {
        ++index.offsets[trans[tau].children[0] + 1];
      }
    }
    for (size_t q = 0; q < nfta_.NumStates(); ++q) {
      index.offsets[q + 1] += index.offsets[q];
    }
    index.taus.resize(index.offsets.back());
    std::vector<uint32_t> cursor(index.offsets.begin(),
                                 index.offsets.end() - 1);
    for (uint32_t tau : nfta_.TransitionsWithSymbol(symbol)) {
      if (!trans[tau].children.empty()) {
        index.taus[cursor[trans[tau].children[0]]++] = tau;
      }
    }
    return index;
  }

  // Whether child states `from`.. of `cand` lie in the respective sets of
  // the tuple in tuple_scratch_ (of cand's arity).
  bool ChildrenAccept(const Nfta::Transition& cand, size_t from) const {
    for (size_t i = from; i < tuple_scratch_.size(); ++i) {
      const Span<StateId> set = sets_.View(tuple_scratch_[i]);
      if (!std::binary_search(set.begin(), set.end(), cand.children[i])) {
        return false;
      }
    }
    return true;
  }

  // The canonical generating transition for the tree denoted by `candidate`
  // in a stratum of q: the smallest-index τ' ∈ out(q) whose symbol and arity
  // match and whose child states accept the respective subtrees (decided
  // exactly by bottom-up simulation through the interned run-state sets).
  uint32_t CanonicalTransition(StateId q, const TreeSample& candidate) {
    ++stats_.membership_checks;
    const Nfta::Transition* trans = nfta_.transitions().data();
    const Nfta::Transition& t = trans[candidate.transition];
    const size_t m = t.children.size();
    const uint32_t tuple = ForestTuple(m, candidate.forest);
    // The candidate transition fixes q (its source), the symbol and the
    // arity, so it and the tuple make the whole key.
    const uint64_t key = (uint64_t{tuple} << 32) | candidate.transition;
    if (const uint32_t* known = canonical_.Find(key)) return *known;
    DecodeTuple(tuple);
    for (uint32_t tau_idx : nfta_.OutTransitions(q)) {
      const Nfta::Transition& cand = trans[tau_idx];
      if (cand.symbol != t.symbol || cand.children.size() != m) continue;
      if (ChildrenAccept(cand, 0)) {
        canonical_.Insert(key, tau_idx);
        return tau_idx;
      }
    }
    // The candidate itself always matches; unreachable.
    PQE_CHECK(false);
    return candidate.transition;
  }

  // F(τ, j, s) = ⊎_split F(τ, j−1, s−split) × A(child_j, split): exact
  // disjoint sum of products; samples compose without rejection. Only the
  // child's live sizes can carry a non-zero A(child_j, split), so the split
  // loop walks that sorted run; the draws depend on splits ascending.
  void ProcessForestStratum(uint32_t tau, size_t j, size_t s, uint32_t id) {
    const Nfta::Transition& t = nfta_.transition(tau);
    const StateId child = t.children[j - 1];
    splits_.clear();
    split_weights_.clear();
    split_prefix_ids_.clear();
    split_tree_ids_.clear();
    ExtFloat total;
    for (uint32_t a = a_begin_[child]; a < a_begin_[child + 1]; ++a) {
      const uint32_t split = a_size_[a];
      if (split > s) break;
      const ExtFloat prev = EstF(tau, j - 1, s - split);
      const ExtFloat& sub = est_a_[a];
      if (prev.IsZero() || sub.IsZero()) continue;
      ExtFloat w = prev.Mul(sub);
      splits_.push_back(split);
      split_weights_.push_back(w);
      split_prefix_ids_.push_back(j - 1 > 0 ? IdF(tau, j - 1, s - split)
                                            : kNoStratum);
      split_tree_ids_.push_back(a);
      total = total.Add(w);
    }
    est_f_[id] = total;
    if (splits_.empty()) return;

    if (splits_.size() > 1) {
      drawer_.Prepare(DrawMode(), split_weights_, &stats_);
    }
    const size_t pool_begin = forest_arena_.size();
    // The pools a draw composes from are per-split invariants of the
    // stratum (they belong to strictly smaller strata, complete by now) —
    // hoisted once per split instead of looked up per trial.
    prev_pools_.resize(splits_.size());
    tree_pools_.resize(splits_.size());
    for (size_t k = 0; k < splits_.size(); ++k) {
      prev_pools_[k] = split_prefix_ids_[k] == kNoStratum
                           ? ArenaRun{}
                           : pool_f_[split_prefix_ids_[k]];
      tree_pools_[k] = pool_a_[split_tree_ids_[k]];
    }
    if (fast_) {
      // Batched composition: one word for the split pick, one for the
      // prefix-forest index, one for the child-tree index.
      for (size_t done = 0; done < pool_target_;) {
        const size_t batch = std::min(kDrawBatch, pool_target_ - done);
        words_.resize(3 * batch);
        rng_.FillBlock(words_.data(), 3 * batch);
        ++stats_.batch_draws;
        BatchSizeHist().Observe(batch);
        for (size_t i = 0; i < batch; ++i) {
          const size_t pick =
              splits_.size() == 1
                  ? 0
                  : drawer_.DrawFromDouble(Rng::DoubleFromWord(words_[3 * i]));
          const ArenaRun prev = prev_pools_[pick];
          const ArenaRun tree = tree_pools_[pick];
          uint32_t prefix = 0;
          if (j - 1 > 0) {
            if (prev.len == 0) continue;
            prefix = prev.off + static_cast<uint32_t>(Rng::BoundedFromWord(
                                    words_[3 * i + 1], prev.len));
          }
          if (tree.len == 0) continue;
          forest_arena_.push_back(ForestSample{
              prefix, tree.off + static_cast<uint32_t>(Rng::BoundedFromWord(
                                     words_[3 * i + 2], tree.len))});
        }
        done += batch;
      }
    } else {
      for (size_t i = 0; i < pool_target_; ++i) {
        const size_t pick = splits_.size() == 1 ? 0 : drawer_.Draw(&rng_);
        const ArenaRun prev = prev_pools_[pick];
        const ArenaRun tree = tree_pools_[pick];
        uint32_t prefix = 0;
        if (j - 1 > 0) {
          if (prev.len == 0) continue;
          prefix = prev.off + static_cast<uint32_t>(rng_.NextBounded(prev.len));
        }
        if (tree.len == 0) continue;
        forest_arena_.push_back(ForestSample{
            prefix,
            tree.off + static_cast<uint32_t>(rng_.NextBounded(tree.len))});
      }
    }
    pool_f_[id] = CloseRun(pool_begin, forest_arena_.size());
    stats_.pool_entries += pool_f_[id].len;
  }

  // --- Cancellation -------------------------------------------------------

  bool Cancelled() const { return cancel_ != nullptr && cancel_->Expired(); }

  Status DeadlineError(size_t s) const {
    return Status::DeadlineExceeded(
        "count_nfta: cancelled at size stratum " + std::to_string(s) + "/" +
        std::to_string(n_));
  }

  const Nfta& nfta_;
  const size_t n_;
  const EstimatorConfig& config_;
  Rng rng_;
  const bool fast_;  // batched fast kernels (kernel_mode = kFast)
  const CancelToken* cancel_;
  size_t pool_target_ = 0;
  CountStats stats_;

  // Hot-path scratch, reused across draws and strata.
  IndexDrawer drawer_;
  std::vector<Member> members_;  // symbol groups of the current tree stratum
  std::vector<Group> groups_;
  std::vector<TreeSample> accepted_;  // every group's canonical hits
  std::vector<ExtFloat> draw_weights_;
  std::vector<const Group*> group_list_;
  std::vector<ExtFloat> group_weights_;
  // The current forest stratum's feasible splits, their weights and the
  // dense ids of the prefix-forest / child-tree strata each split draws
  // from, plus those strata's pool sizes.
  std::vector<uint32_t> splits_;
  std::vector<ExtFloat> split_weights_;
  std::vector<uint32_t> split_prefix_ids_;
  std::vector<uint32_t> split_tree_ids_;
  std::vector<ArenaRun> prev_pools_;
  std::vector<ArenaRun> tree_pools_;
  // Fast-kernel SoA arenas, sized to one batch and reused across batches.
  std::vector<uint64_t> words_;        // raw block-RNG output
  std::vector<uint32_t> cand_tau_;     // candidate transition per attempt
  std::vector<uint32_t> cand_forest_;  // candidate forest index per attempt
  std::vector<uint8_t> cand_valid_;    // 0 = the forest pool was empty
  obs::Histogram* batch_hist_ = nullptr;  // lazy counting.batch_size_hist
  // Membership kernel (see TreeSet): interned run-state sets, the cons
  // cells of the interned child tuples ([tuple id] -> prefix tuple id, last
  // child's subset id), and the tables keyed (prefix tuple, child set) ->
  // tuple, (tuple, symbol) -> set and (tuple, transition) -> canonical
  // transition.
  SetInterner sets_;
  std::vector<uint32_t> tuple_prefix_;
  std::vector<uint32_t> tuple_last_;
  PackedTable tuples_;
  PackedTable tree_sets_;
  PackedTable canonical_;
  std::vector<Child0Index> child0_index_;  // [symbol], built on first use
  std::vector<uint32_t> tuple_scratch_;  // a decoded tuple's subset ids
  std::vector<StateId> set_scratch_;     // a run-state set being computed
  // Hoisted per-group forest-pool sizes for the batched trial loops (see
  // kLeafPool); scratch reused across strata.
  std::vector<size_t> fast_fpool_sizes_;

  // Feasibility: row-major (stratum × size) bitsets (BitA / BitF) and the
  // sparse sorted feasible sizes per state / per (τ, j) pair.
  std::vector<uint32_t> pair_base_;  // [τ] -> pair index of (τ, 0)
  FlatBitset fwd_a_;
  FlatBitset fwd_f_;
  FlatBitset bwd_a_;
  FlatBitset bwd_f_;
  std::vector<std::vector<uint32_t>> fwd_a_sizes_;  // [q]
  std::vector<std::vector<uint32_t>> fwd_f_sizes_;  // [pair]
  // Live strata per size, in the dense scan's visit order (BuildLiveLists).
  struct LiveA {
    StateId q;
    uint32_t id;
  };
  struct LiveF {
    uint32_t tau;
    uint32_t j;
    uint32_t id;
  };
  std::vector<std::vector<LiveA>> live_a_by_s_;
  std::vector<std::vector<LiveF>> live_f_by_s_;
  // Dense stratum ids: the sorted live sizes of state q are
  // a_size_[a_begin_[q], a_begin_[q + 1]), those of pair p are
  // f_size_[f_begin_[p], f_begin_[p + 1]); an id is a position there.
  std::vector<uint32_t> a_begin_;
  std::vector<uint32_t> a_size_;
  std::vector<uint32_t> f_begin_;
  std::vector<uint32_t> f_size_;
  // Per-stratum tables, indexed by dense id.
  std::vector<ExtFloat> est_a_;
  std::vector<ArenaRun> pool_a_;  // run of tree_arena_ per A stratum
  std::vector<ExtFloat> est_f_;
  std::vector<ArenaRun> pool_f_;  // run of forest_arena_ per F stratum
  // Every pool, back to back; samples refer to each other by arena index.
  std::vector<TreeSample> tree_arena_;
  std::vector<ForestSample> forest_arena_;
};

}  // namespace

Result<NftaSampleResult> CountAndSampleNftaTrees(
    const Nfta& nfta, size_t n, const EstimatorConfig& config,
    size_t num_samples) {
  if (config.epsilon <= 0.0 || config.epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  PQE_TRACE_SPAN_VAR(span, "count.nfta");
  span.AttrUint("states", nfta.NumStates());
  span.AttrUint("transitions", nfta.NumTransitions());
  span.AttrUint("tree_size", n);
  span.AttrUint("samples_requested", num_samples);
  NftaCounter counter(nfta, n, config);
  NftaSampleResult out;
  PQE_ASSIGN_OR_RETURN(out.estimate, counter.Run());
  out.samples = counter.SampleAccepted(num_samples);
  RecordCountRun("pqe.count_nfta", out.estimate.stats, config.kernel_mode,
                 &span);
  return out;
}

Result<CountEstimate> CountNftaTrees(const Nfta& nfta, size_t n,
                                     const EstimatorConfig& config) {
  if (config.epsilon <= 0.0 || config.epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  const size_t reps = std::max<size_t>(config.repetitions, 1);
  PQE_TRACE_SPAN_VAR(span, "count.nfta");
  span.AttrUint("states", nfta.NumStates());
  span.AttrUint("transitions", nfta.NumTransitions());
  span.AttrUint("tree_size", n);
  span.AttrUint("repetitions", reps);
  if (reps == 1) {
    NftaCounter counter(nfta, n, config);
    PQE_ASSIGN_OR_RETURN(CountEstimate est, counter.Run());
    RecordCountRun("pqe.count_nfta", est.stats, config.kernel_mode, &span);
    return est;
  }
  // Median-of-R amplification over independent seeds — the standard FPRAS
  // confidence boost. Repetitions are independent (per-rep seed, per-rep
  // counter state), so they fan out over the shared pool; each rep writes
  // its own slot and the merge below runs in fixed rep order, keeping the
  // median and the aggregate stats bit-identical across thread counts.
  const size_t threads =
      std::min(ThreadPool::ResolveNumThreads(config.num_threads), reps);
  span.AttrUint("threads", threads);
  // The membership oracle's lazy index must exist before the const automaton
  // is shared across workers (building it mutates `mutable` members).
  nfta.WarmRunIndex();
  std::vector<CountEstimate> runs(reps);
  std::vector<Status> rep_status(reps, Status::OK());
  auto& rep_hist =
      obs::MetricRegistry::Global().GetHistogram("pqe.count_nfta.rep_ns");
  ParallelFor(threads, reps, [&](size_t r) {
    // Per-rep spans only on the serial path: sessions are thread-local, so
    // worker-run reps would attach nothing, and the caller-participating
    // parallel path would trace a scheduling-dependent subset. Parallel
    // runs record per-rep timings through the (atomic) histogram instead.
    std::optional<obs::ScopedSpan> rep_span;
    if (threads == 1) {
      rep_span.emplace("count.nfta.rep");
      rep_span->AttrUint("rep", r);
    }
    const auto start = std::chrono::steady_clock::now();
    EstimatorConfig rep_config = config;
    rep_config.repetitions = 1;
    rep_config.seed = Rng::DeriveSeed(config.seed, r);
    NftaCounter counter(nfta, n, rep_config);
    Result<CountEstimate> est = counter.Run();
    if (!est.ok()) {
      rep_status[r] = est.status();
      return;
    }
    if (rep_span) rep_span->AttrFloat("log2_value", est->value.Log2());
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
  RecordCountRun("pqe.count_nfta", out.stats, config.kernel_mode, &span);
  return out;
}

}  // namespace pqe

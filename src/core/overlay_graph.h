#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/graph/graph.h"

namespace mto {

/// The virtual overlay topology G* that MTO-Sampler walks on (paper Fig 1).
///
/// The overlay starts out equal to the original graph; as the walk queries
/// neighborhoods it registers them here, and the edge rules then remove or
/// replace edges. All modifications are recorded globally (by edge key) so
/// that a node queried *after* an incident edge was modified still sees the
/// modified neighborhood — the overlay is one consistent graph, not a
/// per-node view. Rewiring decisions are memoized (`MarkProcessed`) so the
/// walk is a genuine random walk on a converging topology.
class OverlayGraph {
 public:
  OverlayGraph() = default;

  /// Registers the *original* neighborhood of `v` (the response of q(v)).
  /// Applies all previously recorded removals/additions involving v.
  /// Idempotent; subsequent calls are no-ops.
  ///
  /// The overlay borrows `original` instead of copying it: the span must be
  /// sorted ascending and outlive the overlay. Both hold for the lists a
  /// `QueryView` or `Graph::Neighbors` returns, which point into the
  /// session's immutable network.
  void RegisterNode(NodeId v, std::span<const NodeId> original);

  /// True iff v's neighborhood has been registered.
  bool IsRegistered(NodeId v) const { return nodes_.Find(v) != nullptr; }

  /// Overlay neighbor list of a registered node (sorted ascending). It
  /// aliases the original list until an edge rule first changes the node.
  /// The span is invalidated by the next RemoveEdge/AddEdge touching `v`.
  /// Throws std::logic_error if `v` is not registered.
  std::span<const NodeId> Neighbors(NodeId v) const;

  /// Overlay degree k*_v of a registered node.
  uint32_t Degree(NodeId v) const {
    return static_cast<uint32_t>(Neighbors(v).size());
  }

  /// The *original* neighbor list of a registered node, exactly as the web
  /// interface returned it (the borrowed span). The paper's edge criteria
  /// are stated on the original graph, so the sampler consults these by
  /// default.
  std::span<const NodeId> OriginalNeighbors(NodeId v) const;

  /// Original degree k_v of a registered node.
  uint32_t OriginalDegree(NodeId v) const {
    return static_cast<uint32_t>(OriginalNeighbors(v).size());
  }

  /// True iff edge (u,v) is present in the overlay view of registered node
  /// u. Requires u registered.
  bool HasEdge(NodeId u, NodeId v) const;

  /// Removes edge (u,v) from the overlay. Updates both endpoints' lists (if
  /// registered) and records the removal for nodes registered later.
  void RemoveEdge(NodeId u, NodeId v);

  /// Adds edge (u,v) to the overlay (no-op if already present).
  void AddEdge(NodeId u, NodeId v);

  /// Memoizes that edge (u,v) has been classified; future encounters skip
  /// the rules (gives replacements their once-only semantics).
  void MarkProcessed(NodeId u, NodeId v);

  /// True iff (u,v) was already classified.
  bool IsProcessed(NodeId u, NodeId v) const;

  /// Number of recorded removals / additions (diagnostics).
  size_t num_removed() const { return removed_.size(); }
  size_t num_added() const { return added_.size(); }

  /// Nodes registered so far.
  size_t num_registered() const { return nodes_.size(); }

  /// True iff v is reachable from u in the overlay *without* using edge
  /// (u, v), traversing only registered nodes (an unregistered node can be
  /// reached but not expanded — its neighborhood is unknown to the walk).
  /// Explores at most `max_visits` nodes; returns false when the budget runs
  /// out, so a true result is a proof and a false result is "unknown".
  /// This is the connectivity guard that keeps aggressive removals from
  /// stranding the walk (DESIGN.md §5).
  bool PathExistsAvoiding(NodeId u, NodeId v, size_t max_visits = 4096) const;

  /// Net overlay-degree change per node implied by all recorded removals
  /// and additions: k*_v = k_v + delta[v] (0 when absent). Covers nodes that
  /// were never registered, which is what the KL experiments need to build
  /// the full ideal distribution τ*.
  std::unordered_map<NodeId, int> DegreeDeltas() const;

  /// Order-independent image of everything the walk did to the overlay: the
  /// registered node set plus the recorded edge-rule mutations (removals,
  /// additions, classification marks, as packed `Key(u, v)` edge keys). The
  /// overlay's full state is a pure function of this delta and the original
  /// neighborhoods — `RegisterNode` applies recorded mutations regardless
  /// of arrival order — which is what makes the MTO sampler checkpointable
  /// (see src/service/checkpoint.h). All vectors are sorted ascending, so a
  /// delta serializes deterministically.
  struct Delta {
    std::vector<NodeId> registered;
    std::vector<uint64_t> removed;
    std::vector<uint64_t> added;
    std::vector<uint64_t> processed;
  };

  /// Captures the current delta (sorted copies of the internal sets).
  Delta SnapshotDelta() const;

  /// Rebuilds this overlay from a delta: installs the mutation sets, then
  /// re-registers every node through `neighbors_of` (the q(v) response
  /// source — the restored session cache, or ground truth on the service's
  /// resume path), borrowing each span like RegisterNode. Any existing state
  /// is discarded. The rebuilt overlay is bit-identical to the one the delta
  /// was snapshotted from.
  void RestoreDelta(
      const Delta& delta,
      const std::function<std::span<const NodeId>(NodeId)>& neighbors_of);

  /// Materializes the overlay restricted to registered nodes as a Graph,
  /// relabelling to 0..k-1; `mapping`, when non-null, receives
  /// overlay-node -> original-id. Edges to unregistered endpoints are kept
  /// only if the endpoint appears in some registered list and is itself
  /// registered (i.e. the induced subgraph on registered nodes).
  Graph InducedOverlay(std::vector<NodeId>* mapping = nullptr) const;

 private:
  /// Open-addressing hash table from an unsigned integer key to a small
  /// trivially copyable value: power-of-two capacity, Fibonacci hashing,
  /// linear probing, load factor at most 1/2. Erase shifts the rest of the
  /// probe run back into the hole (wrapping past the end of the array), so
  /// it leaves no tombstones and add/remove cancellations never slow later
  /// probes. The all-ones key marks an empty slot; a real all-ones key is
  /// kept in a side field. With `V = Unit` it is a set.
  struct Unit {};
  template <typename K, typename V>
  class FlatTable {
   public:
    size_t size() const { return size_; }

    const V* Find(K key) const {
      if (key == kEmpty) return has_empty_key_ ? &empty_key_value_ : nullptr;
      if (slots_.empty()) return nullptr;
      for (size_t i = Home(key);; i = (i + 1) & Mask()) {
        if (slots_[i].key == key) return &slots_[i].value;
        if (slots_[i].key == kEmpty) return nullptr;
      }
    }
    V* Find(K key) {
      return const_cast<V*>(std::as_const(*this).Find(key));
    }
    bool Contains(K key) const { return Find(key) != nullptr; }

    /// Inserts `key -> value` unless `key` is present; either way returns
    /// the stored value and whether it was inserted.
    std::pair<V*, bool> Insert(K key, V value = V{}) {
      if (key == kEmpty) {
        if (has_empty_key_) return {&empty_key_value_, false};
        has_empty_key_ = true;
        empty_key_value_ = value;
        ++size_;
        return {&empty_key_value_, true};
      }
      if (2 * (size_ + 1) > slots_.size()) {
        if (V* found = Find(key)) return {found, false};
        Rehash(2 * (size_ + 1));
      }
      size_t i = Home(key);
      for (; slots_[i].key != kEmpty; i = (i + 1) & Mask()) {
        if (slots_[i].key == key) return {&slots_[i].value, false};
      }
      slots_[i] = {key, value};
      ++size_;
      return {&slots_[i].value, true};
    }

    /// Removes `key`; false when it was absent.
    bool Erase(K key) {
      if (key == kEmpty) {
        if (!has_empty_key_) return false;
        has_empty_key_ = false;
        --size_;
        return true;
      }
      if (slots_.empty()) return false;
      size_t hole = Home(key);
      for (; slots_[hole].key != key; hole = (hole + 1) & Mask()) {
        if (slots_[hole].key == kEmpty) return false;
      }
      // Move each later entry of the run back into the hole unless the
      // hole lies before that entry's home slot (cyclically).
      for (size_t i = (hole + 1) & Mask(); slots_[i].key != kEmpty;
           i = (i + 1) & Mask()) {
        if (((i - Home(slots_[i].key)) & Mask()) >= ((i - hole) & Mask())) {
          slots_[hole] = slots_[i];
          hole = i;
        }
      }
      slots_[hole].key = kEmpty;
      --size_;
      return true;
    }

    /// Sizes the table for `n` keys without further growth.
    void Reserve(size_t n) {
      if (2 * n > slots_.size()) Rehash(2 * n);
    }

    /// Calls f(key, value) for every entry, in slot order.
    template <typename F>
    void ForEach(F&& f) const {
      if (has_empty_key_) f(kEmpty, empty_key_value_);
      for (const Slot& slot : slots_) {
        if (slot.key != kEmpty) f(slot.key, slot.value);
      }
    }

   private:
    struct Slot {
      K key;
      [[no_unique_address]] V value;
    };
    static constexpr K kEmpty = static_cast<K>(~K{0});

    size_t Mask() const { return slots_.size() - 1; }
    size_t Home(K key) const {
      return static_cast<size_t>(
          (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
    }
    /// Reallocates to the smallest power of two >= max(16, min_slots).
    void Rehash(size_t min_slots) {
      size_t capacity = 16;
      unsigned shift = 60;
      while (capacity < min_slots) {
        capacity *= 2;
        --shift;
      }
      std::vector<Slot> old(capacity, Slot{kEmpty, V{}});
      old.swap(slots_);
      shift_ = shift;
      for (const Slot& slot : old) {
        if (slot.key == kEmpty) continue;
        size_t i = Home(slot.key);
        while (slots_[i].key != kEmpty) i = (i + 1) & Mask();
        slots_[i] = slot;
      }
    }

    std::vector<Slot> slots_;
    size_t size_ = 0;
    unsigned shift_ = 64;
    bool has_empty_key_ = false;
    V empty_key_value_{};
  };

  static constexpr uint32_t kNone = ~uint32_t{0};

  /// One registered node, 16 bytes: the borrowed original list, plus the
  /// index of a private copy in `rewired_` that exists only once an edge
  /// rule has changed the node.
  struct Node {
    const NodeId* original;
    uint32_t degree;
    uint32_t rewired;
  };
  static_assert(sizeof(Node) == 16);

  /// One entry of the per-node mutation index: a partner of a recorded
  /// removal or addition, and the next entry of the same node's chain.
  struct Link {
    NodeId partner;
    uint32_t next;
  };

  static uint64_t Key(NodeId u, NodeId v);
  const Node* FindNode(NodeId v) const;
  std::span<const NodeId> Current(const Node& node) const {
    return node.rewired == kNone
               ? std::span<const NodeId>(node.original, node.degree)
               : std::span<const NodeId>(rewired_[node.rewired]);
  }
  /// Makes `w` present in (or absent from) the current list of the node at
  /// `records_[index]`, kept sorted; the first change copies the original
  /// list into `rewired_`.
  void SetEdge(uint32_t index, NodeId w, bool present);
  /// Applies a rewiring of edge (x, partner) to x: to its list when x is
  /// registered, else, when the edge key was newly `recorded`, to x's
  /// mutation chain so that RegisterNode(x) finds it.
  void Touch(NodeId x, NodeId partner, bool recorded, bool present);
  /// Prepends `partner` to x's mutation chain.
  void IndexMutation(NodeId x, NodeId partner);

  FlatTable<NodeId, uint32_t> nodes_;  ///< node -> index into records_
  std::vector<Node> records_;
  std::vector<std::vector<NodeId>> rewired_;
  FlatTable<uint64_t, Unit> removed_;
  FlatTable<uint64_t, Unit> added_;
  FlatTable<uint64_t, Unit> processed_;
  /// Mutation index: for each node that was unregistered when one of its
  /// edges was rewired, the newest link of its chain in `links_`. A chain
  /// may name a partner whose record was since cancelled; RegisterNode
  /// consults `removed_`/`added_` for each, so that is harmless.
  FlatTable<NodeId, uint32_t> mutation_heads_;
  std::vector<Link> links_;
};

}  // namespace mto

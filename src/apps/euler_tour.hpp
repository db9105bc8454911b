// Euler-tour tree computations on top of list ranking and list scan.
//
// The paper motivates list ranking as "a primitive for many tree and graph
// algorithms" [1, 11, 12, 20, ...]. This module provides the classic
// reduction: a rooted tree's edges become arc pairs (a "descend" and an
// "ascend" arc per edge), chained into a single linked list that traverses
// the tree like a depth-first walk. One list rank / one list scan over the
// tour then yields, fully in parallel:
//
//   depth(v)        exclusive +1/-1 scan at v's descend arc, plus one;
//   preorder(v)     exclusive scan counting descend arcs, plus one;
//   subtree_size(v) from the ranks of v's descend and ascend arcs
//                   (the tour segment between them has 2*size(v) arcs).
//
// The tour is an ordinary lr90::LinkedList, so any backend works: every
// helper takes an lr90::Engine and runs through its rank/scan facade --
// the multi-threaded host path, the simulated Cray C90, or the serial
// reference all serve tree workloads (and a serving layer can submit the tour's
// Rank/ScanRequests through an EngineServer). The engine-less overloads
// build a throwaway host engine, matching the legacy one-shot behaviour.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "lists/linked_list.hpp"

namespace lr90 {

/// A rooted tree given by its parent array; parent[root] == root.
struct RootedTree {
  std::vector<index_t> parent;
  index_t root = 0;

  std::size_t size() const { return parent.size(); }
};

/// Returns std::nullopt-like validity: true iff parent[] describes a tree
/// rooted at `root` (single root self-loop, no cycles, all reachable).
bool is_valid_tree(const RootedTree& tree);

/// A uniformly random recursive tree on n nodes (node v>0 attaches to a
/// uniform node < v), then relabeled by a random permutation so parents
/// are not index-ordered.
RootedTree random_tree(std::size_t n, Rng& rng);

/// The Euler tour of a rooted tree as a linked list of arcs. Arc ids:
/// descend(v) = 2*(edge index of v), ascend(v) = that + 1, where each
/// non-root v owns the edge (parent(v), v). Values are +1 on descend and
/// -1 on ascend arcs (the depth scan's weights).
struct EulerTour {
  LinkedList arcs;
  /// Maps non-root vertex -> its descend/ascend arc id (root: kNoVertex).
  std::vector<index_t> down;
  std::vector<index_t> up;
};

/// Builds the tour in O(n). Children are visited in increasing vertex
/// order. Requires a valid tree; a single-node tree yields an empty list.
EulerTour build_euler_tour(const RootedTree& tree);

/// Depth of every node (root = 0) via one list scan over the tour.
std::vector<value_t> tree_depths(const RootedTree& tree, Engine& engine);
/// Depth via a throwaway host engine.
std::vector<value_t> tree_depths(const RootedTree& tree);

/// Preorder number of every node (root = 0) via one list scan.
std::vector<value_t> preorder_numbers(const RootedTree& tree, Engine& engine);
/// Preorder via a throwaway host engine.
std::vector<value_t> preorder_numbers(const RootedTree& tree);

/// Subtree size of every node (root = n) via one list rank.
std::vector<value_t> subtree_sizes(const RootedTree& tree, Engine& engine);
/// Subtree sizes via a throwaway host engine.
std::vector<value_t> subtree_sizes(const RootedTree& tree);

/// All three labels of one tree (one tour + one rank + two scans).
struct TreeLabels {
  std::vector<value_t> depth;         ///< root = 0
  std::vector<value_t> preorder;      ///< root = 0, DFS order
  std::vector<value_t> subtree_size;  ///< root = n
};
/// All three at the price of one tour + one rank + two scans, reusing the
/// engine's workspace across them.
TreeLabels tree_labels(const RootedTree& tree, Engine& engine);
/// All three labels via a throwaway host engine.
TreeLabels tree_labels(const RootedTree& tree);

/// Rootfix sums (Blelloch's "tree scan" toward the leaves): for per-vertex
/// weights w, out[v] = sum of w(u) over all ancestors u of v, *excluding*
/// v itself (root = 0). Depth is the special case w == 1 shifted by one.
/// One +w/-w list scan over the tour.
std::vector<value_t> path_sums(const RootedTree& tree,
                               std::span<const value_t> weights,
                               Engine& engine);
/// Rootfix sums via a throwaway host engine.
std::vector<value_t> path_sums(const RootedTree& tree,
                               std::span<const value_t> weights);

/// Leaffix sums (tree scan toward the root): out[v] = sum of w(u) over the
/// subtree rooted at v, including v. Subtree size is the special case
/// w == 1. One weighted list scan over the tour.
std::vector<value_t> subtree_sums(const RootedTree& tree,
                                  std::span<const value_t> weights,
                                  Engine& engine);
/// Leaffix sums via a throwaway host engine.
std::vector<value_t> subtree_sums(const RootedTree& tree,
                                  std::span<const value_t> weights);

}  // namespace lr90

// Transformations between linked lists, permutations, and arrays -- the
// "what you do with a rank" toolkit.
//
// The paper's opening example: ranks "can be used to reorder the vertices
// of a linked list into an array in one parallel step". These helpers
// package that and its relatives; all accept a precomputed rank so callers
// can amortize one ranking across several transforms (pass an empty span
// to let the helper rank internally on a host-backend Engine).
#pragma once

#include <span>
#include <vector>

#include "core/engine.hpp"
#include "lists/linked_list.hpp"

namespace lr90 {

/// Values of the list in traversal order: out[rank(v)] = value[v].
std::vector<value_t> list_to_array(const LinkedList& list,
                                   std::span<const value_t> rank = {});

/// Vertex indices in traversal order: out[rank(v)] = v (the permutation
/// "list order -> memory index"). Equivalent to order_of() but parallel.
std::vector<index_t> order_permutation(const LinkedList& list,
                                       std::span<const value_t> rank = {});

/// The reversed list: traversal order back-to-front, same vertex indices
/// and values. O(n), link-parallel (no ranking needed).
LinkedList reverse_list(const LinkedList& list);

/// Splits the list *after* each vertex in `cut_after` (duplicates and the
/// global tail are ignored): returns the resulting sublists as independent
/// valid LinkedLists over re-indexed vertices, in traversal order.
std::vector<LinkedList> split_list(const LinkedList& list,
                                   std::span<const index_t> cut_after);

/// Concatenates lists (in argument order) into one list over re-indexed
/// vertices; inverse of split_list up to re-indexing.
LinkedList concat_lists(std::span<const LinkedList> lists);

/// Builds the linked list whose traversal visits memory slots in the order
/// given by the permutation's *inverse*: slot perm[i] is the i-th visited.
/// (random_list() composed differently; exposed for round-trip tests.)
LinkedList list_of_permutation(std::span<const index_t> perm);

/// Ranks a batch of independent lists with a single parallel pass:
/// concatenates them, ranks once, and rebases each part. Downstream tree
/// and graph algorithms routinely carry many short lists (e.g. per-level
/// adjacency chains); batching keeps the parallel machine saturated where
/// per-list calls would be overhead-bound. `opt` configures the Engine
/// that ranks the concatenation.
std::vector<std::vector<value_t>> rank_many(std::span<const LinkedList> lists,
                                            const EngineOptions& opt = {});

}  // namespace lr90

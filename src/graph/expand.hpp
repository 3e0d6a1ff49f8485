// Graph-to-layout expansion — the second step of the RSG algorithm (§3.1).
//
// A root node is chosen, arbitrarily placed at ((0,0), North), and the graph
// is traversed; each partial instance acquires a location and orientation
// from an already-placed neighbour via eq 3.1/3.2. One interface-table
// access per node (§4.5). The connectivity graph need only be a spanning
// tree; redundant cycle edges are tolerated but must agree with the
// placements already derived — a disagreement means the design file and
// sample layout are inconsistent, and raises LayoutError rather than
// silently depending on traversal order (the bug §3.4 describes in early
// RSG versions).
#pragma once

#include <string>

#include "graph/connectivity_graph.hpp"
#include "iface/interface_table.hpp"
#include "layout/cell_table.hpp"
#include "support/cancel.hpp"

namespace rsg {

struct ExpandStats {
  std::size_t nodes_placed = 0;
  std::size_t redundant_edges_checked = 0;
  std::size_t interface_lookups = 0;
};

// How many placed nodes expand_to_cell places between polls of its cancel
// token.
inline constexpr std::size_t kExpandPollInterval = 1024;

// mk_cell (§4.4.3): expands the connected component of `root` into a new
// cell named `cell_name` in `cells`. Every node in the component must be
// unexpanded; after the call each node carries its placement and owner.
// Instances are added in node-creation order, so output is deterministic and
// independent of edge insertion order.
//
// `cancel` (optional) is polled every kExpandPollInterval placed nodes,
// before the cell is created: a fired token throws StatusError
// (CANCELLED or DEADLINE_EXCEEDED) and no cell is made.
Cell& expand_to_cell(ConnectivityGraph& graph, GraphNode* root, const std::string& cell_name,
                     const InterfaceTable& interfaces, CellTable& cells,
                     ExpandStats* stats = nullptr, const CancelToken* cancel = nullptr);

}  // namespace rsg

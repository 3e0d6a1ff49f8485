// Sample-layout files — the graphical half of the RSG's input (Fig 1.1).
//
// A sample layout supplies (a) the primitive cell definitions and (b) the
// interfaces between them, *defined by example*: cells are assembled
// together exactly as a layout designer would to check that they fit, and a
// numeric label placed in the overlap region of two instances declares that
// interface number between their celltypes (§2.3, Fig 5.5). The assembly
// itself is scaffolding — it is not retained as a cell, and it does NOT
// constrain the architecture of generated layouts (the relaxation over HPLA
// discussed in §1.2.2).
//
// Text format (';'/'#' comments):
//
//   cell basic-cell
//     box metal1 0 0 40 8        ; layer x0 y0 x1 y1
//     point si 0 4               ; named point (documentation)
//     inst sub other-cell 4 4 N  ; hierarchical sample cells are allowed
//   end
//
//   assembly
//     inst a basic-cell 0 0 N    ; name cell x y orientation
//     inst b basic-cell 44 0 N
//     label 1 at 42 4            ; interface #1 where exactly two instance
//                                ; bounding boxes overlap at (42,4);
//                                ; reference = earlier-declared instance
//     label 2 from a to b        ; explicit form; reference = a. Required to
//                                ; disambiguate same-celltype pairs (§3.4)
//   end
//
// Several assembly blocks may appear; each is an independent coordinate
// system.
//
// A sample may also be CIF (§4.5: any format, given a parser): text whose
// first non-space character is '(' or 'D' goes to load_sample_layout_cif
// (io/cif_reader.hpp), where "assembly*" cells carry the by-example labels.
// Every way into generation loads its sample here, so both formats work
// wherever a sample is accepted.
#pragma once

#include <string>

#include "iface/interface_table.hpp"
#include "layout/cell_table.hpp"

namespace rsg {

struct SampleLayoutStats {
  std::size_t cells = 0;
  std::size_t boxes = 0;
  std::size_t points = 0;
  std::size_t assembly_instances = 0;
  std::size_t interfaces_declared = 0;
};

// Loads a sample in either format into `cells` and `interfaces`. Throws
// rsg::Error on malformed input.
SampleLayoutStats load_sample_layout(const std::string& text, CellTable& cells,
                                     InterfaceTable& interfaces);

}  // namespace rsg

// Quickstart: the full RSG pipeline on a toy two-cell library.
//
// Shows the three inputs of Figure 1.1 — a sample layout with by-example
// interfaces, a procedural design file, and a parameter file — and prints
// the generated CIF plus a few facts about the run.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <iostream>

#include "io/svg_writer.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/session.hpp"

int main() {
  // The graphical domain: two cells assembled once to define interface #1
  // (tile to the right) and #2 (tile diagonally) by example.
  const std::string sample = R"(
cell brick
  box metal1 0 0 20 8
  box poly 2 0 6 12
end
cell trim
  box implant 8 2 14 6
end
assembly
  inst a brick 0 0 N
  inst b brick 24 0 N
  inst c brick 24 14 MN
  inst t trim 0 0 N
  label 1 from a to b
  label 2 from b to c
  label 1 from a to t
end
)";

  // The procedural domain: a macro that builds a row of bricks, trimming
  // every even one, then a staircase of rows. Note the delayed binding —
  // no coordinates anywhere.
  const std::string design = R"(
(macro mrow (n)
  (locals foo)
  (do (i 1 (+ i 1) (> i n))
      (mk_instance b.i brick)
      (cond ((= (mod i 2) 0) (connect b.i (mk_instance foo trim) trimnum)))
      (cond ((> i 1) (connect b.(- i 1) b.i hnum)))))

(macro mstairs (rows cols)
  (locals r foo)
  (do (k 1 (+ k 1) (> k rows))
      (assign r.k (mrow cols))
      (cond ((> k 1) (connect (subcell r.(- k 1) b.cols)
                              (subcell r.k b.1) diagnum))))
  (mk_cell "staircase" (subcell r.1 b.1)))

(mstairs rows cols)
)";

  // The per-case personalization.
  const std::string params = R"(
rows = 3
cols = 4
hnum = 1
diagnum = 2
trimnum = 1
)";

  try {
    // Compile the sample and the design once; each parameter file is then
    // one generation session over them.
    rsg::GenerationSession session(rsg::CompiledDesign::compile(sample, design));
    const rsg::GeneratorResult result = session.generate(params);

    std::cout << "generated cell: " << result.top->name() << "\n";
    std::cout << "instances (flat): " << result.top->flattened_instance_count() << "\n";
    std::cout << "bounding box:     " << result.top->bounding_box() << "\n";
    std::cout << "interface lookups during expansion: " << result.interface_lookups << "\n\n";
    std::cout << result.output;  // the CIF

    rsg::write_svg_file("quickstart.svg", *result.top);
    std::cout << "\nwrote quickstart.svg\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

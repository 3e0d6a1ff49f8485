// CIF 2.0 reader.
//
// §4.5: "The RSG maintains its own database and as such it is layout file
// format independent. The RSG can be made to accept any file format by
// providing an appropriate parser for the file format." This parser accepts
// the CIF subset the RSG ecosystem uses — DS/DF symbol definitions with
// scale factors, L layer selection, axis-aligned B boxes (including rotated
// direction vectors), C calls with T/R/MX/MY transforms, 9 symbol names and
// 94 point labels — which covers everything cif_writer emits plus typical
// hand-written CIF.
//
// Two entry levels:
//  * CifPullParser — an incremental pull parser over a character stream. It
//    reads fixed-size chunks, holds at most one command's text plus one read
//    chunk in memory, and delivers one semantic event per next() call with
//    scale factors and the current layer already applied. This is the
//    memory-bounded path for multi-GB files.
//  * read_cif / load_sample_layout_cif — the whole-layout entry points,
//    built on the pull parser. These materialize cells (the cell table
//    owns its boxes), but the parse itself stays single-pass and windowed.
//
// load_sample_layout_cif treats cells whose name begins with "assembly" as
// interface-definition scaffolding: their instances plus numeric 94 labels
// define interfaces by example exactly like the text sample format. It is
// the CIF branch of load_sample_layout (io/sample_layout.hpp), which picks
// it by content, so CompiledDesign::compile — and with it rsg_cli,
// rsg_serve and every GenerationSession — accepts a CIF sample.
#pragma once

#include <cstddef>
#include <istream>
#include <string>

#include "iface/interface_table.hpp"
#include "io/sample_layout.hpp"
#include "layout/cell_table.hpp"

namespace rsg {

class CifPullParser {
 public:
  struct Options {
    // Read granularity. The parser's working set is one chunk plus the text
    // of the longest single CIF command (tracked by peak_buffer_bytes).
    std::size_t chunk_bytes = 64 * 1024;
  };

  enum class EventKind {
    kBeginSymbol,  // DS — symbol id in `symbol`
    kSymbolName,   // 9 — name in `name`
    kBox,          // B — final local coordinates in `box`, layer resolved
    kLabel,        // 94 — text in `name`, scaled position in `at`
    kCall,         // C — callee id + scaled placement; top_level when
                   //     emitted outside any DS/DF pair
    kEndSymbol,    // DF
    kEnd,          // E or end of input
  };

  struct Event {
    EventKind kind = EventKind::kEnd;
    int symbol = 0;                // kBeginSymbol
    std::string name;              // kSymbolName, kLabel
    Layer layer = Layer::kMetal1;  // kBox
    Box box;                       // kBox
    Point at;                      // kLabel
    int callee = 0;                // kCall
    Placement placement;           // kCall
    bool top_level = false;        // kCall
  };

  explicit CifPullParser(std::istream& in);
  CifPullParser(std::istream& in, Options options);

  // Delivers the next semantic event. Returns false once kEnd has been
  // delivered. Throws rsg::Error on malformed input — same diagnostics as
  // read_cif, which is implemented on this parser.
  bool next(Event& event);

  // Largest combined size of the residual command text and the read chunk —
  // the testable memory bound of the single-pass parse.
  std::size_t peak_buffer_bytes() const { return peak_buffer_bytes_; }
  std::size_t bytes_consumed() const { return bytes_consumed_; }

 private:
  bool refill();
  bool take_command(std::string& command);

  std::istream& in_;
  Options options_;
  std::string chunk_;        // raw bytes read from the stream
  std::size_t chunk_pos_ = 0;
  std::string pending_;      // current command text, comments stripped
  int paren_depth_ = 0;      // comment nesting carried across chunks
  bool done_ = false;
  bool end_delivered_ = false;

  // Interpretation state (scale and layer apply at event time).
  bool in_symbol_ = false;
  int open_symbol_ = 0;
  Coord scale_num_ = 1;
  Coord scale_den_ = 1;
  Layer current_layer_ = Layer::kMetal1;

  std::size_t peak_buffer_bytes_ = 0;
  std::size_t bytes_consumed_ = 0;
};

struct CifReadResult {
  // Name of the root cell: the target of the file's top-level call, or a
  // synthesized "ciftop" holding all top-level calls, or empty if none.
  std::string top;
  std::size_t cells_read = 0;
  std::size_t boxes_read = 0;
  std::size_t calls_read = 0;
};

// Parses CIF text into `cells`. Throws rsg::Error on malformed input,
// forward references, or non-axis-aligned geometry.
CifReadResult read_cif(const std::string& text, CellTable& cells);

// Streaming variant: same semantics, reading incrementally from a stream.
CifReadResult read_cif(std::istream& in, CellTable& cells,
                       CifPullParser::Options options = {});

// Sample-layout-from-CIF: ordinary cells go to the cell table; "assembly*"
// cells are consumed as by-example interface definitions (positional
// numeric labels in instance overlap regions).
SampleLayoutStats load_sample_layout_cif(const std::string& text, CellTable& cells,
                                         InterfaceTable& interfaces);

}  // namespace rsg

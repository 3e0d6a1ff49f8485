// Tests for the RSGB binary snapshot format (src/io/snapshot.{hpp,cpp}).
//
// The layout under test in WorkedExample is the exact two-cell table from
// the worked example in docs/formats/RSGB.md §8; the field-by-field
// assertions cite the spec's section numbers. If one of those assertions
// fails, either the writer or the spec is wrong — fix whichever drifted,
// never the test.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>

#include "io/cif_writer.hpp"
#include "io/snapshot.hpp"
#include "support/error.hpp"

namespace rsg {
namespace {

std::string snapshot_bytes(const CellTable& cells, const std::string& root) {
  std::ostringstream out(std::ios::binary);
  write_snapshot(out, cells, root);
  return out.str();
}

template <typename T>
T read_at(const std::string& bytes, std::size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

template <typename T>
void poke(std::string& bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

// Re-seals the header after a deliberate header edit (RSGB.md §3: the
// header CRC at offset 60 covers bytes [0, 60)).
void reseal_header(std::string& bytes) {
  poke<std::uint32_t>(bytes, 60, snapshot_crc32(bytes.data(), 60));
}

// The docs/formats/RSGB.md §8 worked example: cell "unit" holding one
// metal1 box, cell "top" holding one label and one named instance of unit.
CellTable worked_example() {
  CellTable cells;
  Cell& unit = cells.create("unit");
  unit.add_box(Layer::kMetal1, Box(0, 0, 4, 2));
  Cell& top = cells.create("top");
  top.add_label("a", {1, 2});
  top.add_instance(&unit, Placement{{10, 0}, Orientation::kNorth}, "u0");
  return cells;
}

TEST(SnapshotFormat, Crc32MatchesTheSpecCheckValue) {
  // §7: CRC-32/ISO-HDLC, whose check value is the CRC of "123456789" —
  // what any conforming reader (zlib's crc32, say) computes.
  const std::string check = "123456789";
  EXPECT_EQ(snapshot_crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(snapshot_crc32(check.data(), 0), 0u);
  // Chained through `seed`, any split of the bytes gives the one-call CRC.
  for (std::size_t split = 0; split <= check.size(); ++split) {
    const std::uint32_t head = snapshot_crc32(check.data(), split);
    EXPECT_EQ(snapshot_crc32(check.data() + split, check.size() - split, head), 0xCBF43926u)
        << "split at " << split;
  }
}

TEST(SnapshotFormat, WorkedExampleFieldByField) {
  const std::string bytes = snapshot_bytes(worked_example(), "top");

  // §3 header: magic, version 1.0, 64 header bytes, 5 sections, the file
  // size the layout in §8 derives (224 + 80 + 40 + 24 + 32 + 15 = 415),
  // table at 64, root = cell index 1 ("top").
  ASSERT_EQ(bytes.size(), 415u);
  EXPECT_EQ(std::memcmp(bytes.data(), "RSGB", 4), 0);
  EXPECT_EQ(read_at<std::uint16_t>(bytes, 4), 1u);   // version_major
  EXPECT_EQ(read_at<std::uint16_t>(bytes, 6), 0u);   // version_minor
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 8), 64u);  // header_bytes
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 12), 5u);  // section_count
  EXPECT_EQ(read_at<std::uint64_t>(bytes, 16), 415u);  // file_bytes
  EXPECT_EQ(read_at<std::uint64_t>(bytes, 24), 64u);   // section_table_offset
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 32), 1u);    // root_cell_index
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 36), 0u);    // flags
  // §3: header CRC-32 over bytes [0, 60), section-table CRC over the table.
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 60), snapshot_crc32(bytes.data(), 60));
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 40), snapshot_crc32(bytes.data() + 64, 5 * 32));

  // §4 section table: five 32-byte entries at offset 64, in the fixed
  // writer order CELL, BOXS, LABL, INST, STRT, payloads 8-aligned.
  struct Expected {
    const char* fourcc;
    std::uint64_t offset;
    std::uint64_t size;
    std::uint32_t count;
  };
  const Expected expected[5] = {
      {"CELL", 224, 80, 2}, {"BOXS", 304, 40, 1}, {"LABL", 344, 24, 1},
      {"INST", 368, 32, 1}, {"STRT", 400, 15, 15},
  };
  for (int i = 0; i < 5; ++i) {
    const std::size_t entry = 64 + 32 * static_cast<std::size_t>(i);
    EXPECT_EQ(std::memcmp(bytes.data() + entry, expected[i].fourcc, 4), 0) << i;
    EXPECT_EQ(read_at<std::uint32_t>(bytes, entry + 4), 0u) << i;  // reserved
    EXPECT_EQ(read_at<std::uint64_t>(bytes, entry + 8), expected[i].offset) << i;
    EXPECT_EQ(read_at<std::uint64_t>(bytes, entry + 16), expected[i].size) << i;
    EXPECT_EQ(read_at<std::uint32_t>(bytes, entry + 24), expected[i].count) << i;
    EXPECT_EQ(read_at<std::uint32_t>(bytes, entry + 28),
              snapshot_crc32(bytes.data() + expected[i].offset, expected[i].size))
        << i;
  }

  // §5.1 cell records (40-byte stride): "unit" then "top" in creation
  // order, name offsets into STRT, record spans into the geometry sections.
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 224 + 0), 1u);   // name_offset "unit"
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 224 + 4), 1u);   // box_count
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 224 + 8), 0u);   // label_count
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 224 + 12), 0u);  // instance_count
  EXPECT_EQ(read_at<std::uint64_t>(bytes, 224 + 16), 0u);  // first_box
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 264 + 0), 6u);   // name_offset "top"
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 264 + 8), 1u);   // label_count
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 264 + 12), 1u);  // instance_count

  // §5.2 box record: corners then layer (metal1 = 2 in the Layer enum).
  EXPECT_EQ(read_at<std::int64_t>(bytes, 304 + 0), 0);   // lo_x
  EXPECT_EQ(read_at<std::int64_t>(bytes, 304 + 8), 0);   // lo_y
  EXPECT_EQ(read_at<std::int64_t>(bytes, 304 + 16), 4);  // hi_x
  EXPECT_EQ(read_at<std::int64_t>(bytes, 304 + 24), 2);  // hi_y
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 304 + 32), 2u);  // layer

  // §5.3 label record: text offset, position.
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 344 + 0), 10u);  // "a"
  EXPECT_EQ(read_at<std::int64_t>(bytes, 344 + 8), 1);
  EXPECT_EQ(read_at<std::int64_t>(bytes, 344 + 16), 2);

  // §5.4 instance record: callee index, name, location, orientation.
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 368 + 0), 0u);   // cell_index "unit"
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 368 + 4), 12u);  // "u0"
  EXPECT_EQ(read_at<std::int64_t>(bytes, 368 + 8), 10);
  EXPECT_EQ(read_at<std::int64_t>(bytes, 368 + 16), 0);
  EXPECT_EQ(read_at<std::uint32_t>(bytes, 368 + 24), 0u);  // kNorth

  // §6 string table: leading NUL, then interned NUL-terminated strings.
  EXPECT_EQ(std::memcmp(bytes.data() + 400, "\0unit\0top\0a\0u0\0", 15), 0);
}

TEST(SnapshotFormat, RoundTripIsByteIdenticalAndDeterministic) {
  const CellTable original = worked_example();
  const std::string bytes = snapshot_bytes(original, "top");
  EXPECT_EQ(bytes, snapshot_bytes(original, "top"));  // deterministic

  const Snapshot snapshot = Snapshot::from_buffer(bytes.data(), bytes.size());
  CellTable reloaded;
  const SnapshotReadResult result = load_snapshot(snapshot.view(), reloaded);
  EXPECT_EQ(result.root, "top");
  EXPECT_EQ(result.cells, 2u);
  EXPECT_EQ(result.boxes, 1u);
  EXPECT_EQ(result.labels, 1u);
  EXPECT_EQ(result.instances, 1u);
  EXPECT_EQ(reloaded.get("top").instances()[0].name, "u0");

  // write(load(write(x))) == write(x): the snapshot is a fixed point.
  EXPECT_EQ(snapshot_bytes(reloaded, result.root), bytes);
  // And the reloaded layout is the same layout.
  EXPECT_EQ(cif_to_string(reloaded.get("top")), cif_to_string(original.get("top")));
}

TEST(SnapshotFormat, MmapFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "rsgb_mmap_test.rsgb";
  const CellTable original = worked_example();
  write_snapshot_file(path, original, "top");

  const Snapshot snapshot = Snapshot::map_file(path);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(snapshot.mapped());  // the zero-copy path, not a buffered read
#endif
  CellTable reloaded;
  EXPECT_EQ(load_snapshot(snapshot.view(), reloaded).root, "top");
  EXPECT_EQ(cif_to_string(reloaded.get("top")), cif_to_string(original.get("top")));

  CellTable reloaded2;
  EXPECT_EQ(read_snapshot_file(path, reloaded2).cells, 2u);
  std::remove(path.c_str());
}

TEST(SnapshotFormat, RejectsCorruption) {
  const std::string good = snapshot_bytes(worked_example(), "top");

  {  // §3: wrong magic
    std::string bad = good;
    bad[0] = 'X';
    EXPECT_THROW(Snapshot::from_buffer(bad.data(), bad.size()), Error);
  }
  {  // §3: any header edit without resealing trips the header CRC
    std::string bad = good;
    poke<std::uint32_t>(bad, 36, 1);  // flags
    EXPECT_THROW(Snapshot::from_buffer(bad.data(), bad.size()), Error);
  }
  {  // §4: a flipped section-table byte trips the table CRC
    std::string bad = good;
    bad[64 + 8] ^= 0x01;
    EXPECT_THROW(Snapshot::from_buffer(bad.data(), bad.size()), Error);
  }
  {  // §5.2: a flipped payload byte trips that section's CRC
    std::string bad = good;
    bad[304] ^= 0x01;  // box lo_x
    try {
      Snapshot::from_buffer(bad.data(), bad.size());
      FAIL() << "corrupted BOXS payload was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("BOXS"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
    }
  }
}

TEST(SnapshotFormat, RejectsTruncation) {
  const std::string good = snapshot_bytes(worked_example(), "top");
  // Any prefix shorter than the declared file_bytes must be rejected —
  // either as too-small, or as truncated against the §3 size field.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{32}, std::size_t{64},
                                 std::size_t{224}, good.size() - 1}) {
    EXPECT_THROW(Snapshot::from_buffer(good.data(), keep), Error) << keep;
  }
}

TEST(SnapshotFormat, VersionSkew) {
  const std::string good = snapshot_bytes(worked_example(), "top");

  {  // §2: a different major version is rejected even with valid CRCs
    std::string skewed = good;
    poke<std::uint16_t>(skewed, 4, 2);
    reseal_header(skewed);
    try {
      Snapshot::from_buffer(skewed.data(), skewed.size());
      FAIL() << "major version skew was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("major version"), std::string::npos);
    }
  }
  {  // §2: a newer minor version is additive and loads fine
    std::string skewed = good;
    poke<std::uint16_t>(skewed, 6, 99);
    reseal_header(skewed);
    const Snapshot snapshot = Snapshot::from_buffer(skewed.data(), skewed.size());
    EXPECT_EQ(snapshot.view().version_minor(), 99u);
    CellTable reloaded;
    EXPECT_EQ(load_snapshot(snapshot.view(), reloaded).cells, 2u);
  }
  {  // §2/§4: an unknown section FourCC is skipped, not an error
    std::string skewed = good;
    std::memcpy(skewed.data() + 64 + 4 * 32, "ZZZZ", 4);  // retype STRT
    poke<std::uint32_t>(skewed, 40, snapshot_crc32(skewed.data() + 64, 5 * 32));
    reseal_header(skewed);
    const Snapshot snapshot = Snapshot::from_buffer(skewed.data(), skewed.size());
    // With no string table, name lookups must fail cleanly, not crash.
    CellTable reloaded;
    EXPECT_THROW(load_snapshot(snapshot.view(), reloaded), Error);
  }
}

TEST(SnapshotFormat, WriterInputValidation) {
  CellTable cells;
  cells.create("only");
  std::ostringstream out(std::ios::binary);
  EXPECT_THROW(write_snapshot(out, cells, "missing_root"), Error);

  // An empty table with no root is a valid (if boring) snapshot.
  CellTable empty;
  const std::string bytes = snapshot_bytes(empty, "");
  const Snapshot snapshot = Snapshot::from_buffer(bytes.data(), bytes.size());
  EXPECT_EQ(snapshot.view().root_cell_index(), kSnapshotNoRootCell);
  CellTable reloaded;
  EXPECT_EQ(load_snapshot(snapshot.view(), reloaded).cells, 0u);
}

}  // namespace
}  // namespace rsg

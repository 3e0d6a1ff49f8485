// Checkpoint/restart for long compaction runs: the schedule's per-round
// checkpoint sink, bit-for-bit resume from every round boundary, the RSGC
// file format's round trip, its corruption/truncation/version defenses,
// and the session-level --checkpoint-out → --checkpoint-in loop.
#include "io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "compact/synth_design.hpp"
#include "compact/xy_schedule.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/session.hpp"
#include "support/error.hpp"

namespace rsg {
namespace {

using compact::CompactionRules;
using compact::RoundStats;
using compact::SynthField;
using compact::XyCheckpoint;
using compact::XyScheduleOptions;
using compact::XyScheduleResult;
using compact::compact_flat_schedule;
using compact::make_random_field;

void expect_rounds_equal(const std::vector<RoundStats>& a, const std::vector<RoundStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].round, b[i].round);
    EXPECT_EQ(a[i].width_delta, b[i].width_delta);
    EXPECT_EQ(a[i].height_delta, b[i].height_delta);
    EXPECT_EQ(a[i].x_skipped, b[i].x_skipped);
    EXPECT_EQ(a[i].y_skipped, b[i].y_skipped);
    EXPECT_EQ(a[i].constraints_emitted, b[i].constraints_emitted);
    EXPECT_EQ(a[i].partners_reswept, b[i].partners_reswept);
    EXPECT_EQ(a[i].partners_reused, b[i].partners_reused);
    EXPECT_EQ(a[i].solve_pops, b[i].solve_pops);
    EXPECT_EQ(a[i].warm_x, b[i].warm_x);
    EXPECT_EQ(a[i].warm_y, b[i].warm_y);
  }
}

void expect_checkpoints_equal(const XyCheckpoint& a, const XyCheckpoint& b) {
  EXPECT_EQ(a.rounds_done, b.rounds_done);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.x_infeasible, b.x_infeasible);
  EXPECT_EQ(a.y_infeasible, b.y_infeasible);
  EXPECT_EQ(a.width_before, b.width_before);
  EXPECT_EQ(a.height_before, b.height_before);
  EXPECT_EQ(a.boxes, b.boxes);
  EXPECT_EQ(a.stretchable, b.stretchable);
  expect_rounds_equal(a.round_stats, b.round_stats);
}

std::string checkpoint_bytes(const XyCheckpoint& checkpoint) {
  std::ostringstream out;
  write_compaction_checkpoint(out, checkpoint);
  return out.str();
}

// `image` with its header and section table edited by `edit`, both CRCs
// resealed. A table that grows moves to the end of the image.
template <class Edit>
std::string craft(const std::string& image, const Edit& edit) {
  std::string out = image;
  SnapshotHeader header;
  std::memcpy(&header, out.data(), sizeof(header));
  std::uint64_t table_offset = header.section_table_offset;
  std::vector<SnapshotSection> sections(header.section_count);
  std::memcpy(sections.data(), out.data() + table_offset,
              sections.size() * sizeof(SnapshotSection));
  edit(header, sections);
  if (sections.size() != header.section_count) {
    table_offset = (out.size() + 7) / 8 * 8;
    out.resize(table_offset + sections.size() * sizeof(SnapshotSection));
    header.section_count = static_cast<std::uint32_t>(sections.size());
    header.section_table_offset = table_offset;
    header.file_bytes = out.size();
  }
  const std::size_t table_bytes = sections.size() * sizeof(SnapshotSection);
  std::memcpy(out.data() + table_offset, sections.data(), table_bytes);
  header.section_table_crc32 = snapshot_crc32(sections.data(), table_bytes);
  header.header_crc32 = snapshot_crc32(&header, 60);
  std::memcpy(out.data(), &header, sizeof(header));
  return out;
}

// The checkpoint after round 3 of a schedule run to a 3-round cap.
XyCheckpoint three_round_checkpoint(const SynthField& field) {
  XyScheduleOptions schedule;
  schedule.max_rounds = 3;
  schedule.stop_when_converged = false;
  XyCheckpoint last;
  schedule.checkpoint_sink = [&](const XyCheckpoint& ck) { last = ck; };
  compact_flat_schedule(field.boxes, CompactionRules::mosis(), {}, schedule,
                        field.stretchable);
  return last;
}

TEST(Checkpoint, SinkReceivesEveryRoundAndResumeIsBitForBit) {
  // Run a schedule to completion collecting the per-round checkpoints,
  // then restart from EVERY round boundary: the resumed run must land on
  // the uninterrupted run's geometry, round count, and flags exactly.
  const SynthField field = make_random_field(17, 30);
  XyScheduleOptions schedule;
  schedule.max_rounds = 6;
  std::vector<XyCheckpoint> checkpoints;
  schedule.checkpoint_sink = [&](const XyCheckpoint& ck) { checkpoints.push_back(ck); };
  const XyScheduleResult full = compact_flat_schedule(
      field.boxes, CompactionRules::mosis(), {}, schedule, field.stretchable);
  ASSERT_EQ(checkpoints.size(), static_cast<std::size_t>(full.rounds));

  for (std::size_t k = 0; k < checkpoints.size(); ++k) {
    XyScheduleOptions resume_options;
    resume_options.max_rounds = 6;
    resume_options.resume = &checkpoints[k];
    // The boxes argument is ignored on resume; pass the originals anyway.
    const XyScheduleResult resumed = compact_flat_schedule(
        field.boxes, CompactionRules::mosis(), {}, resume_options, field.stretchable);
    ASSERT_EQ(resumed.boxes, full.boxes) << "resume after round " << k + 1;
    EXPECT_EQ(resumed.rounds, full.rounds) << "resume after round " << k + 1;
    EXPECT_EQ(resumed.converged, full.converged);
    EXPECT_EQ(resumed.width_after, full.width_after);
    EXPECT_EQ(resumed.height_after, full.height_after);
    EXPECT_EQ(resumed.width_before, full.width_before);
    EXPECT_EQ(resumed.height_before, full.height_before);
  }
}

TEST(Checkpoint, ResumeIsBitForBitAcrossAHundredFields) {
  // The property corpus: for every seeded field, interrupt after round 1
  // and resume — the restart must be indistinguishable from never stopping.
  for (std::uint32_t seed = 0; seed < 110; ++seed) {
    const SynthField field = make_random_field(seed, 4 + static_cast<int>(seed % 30));
    XyScheduleOptions schedule;
    schedule.max_rounds = 4;
    std::vector<XyCheckpoint> checkpoints;
    schedule.checkpoint_sink = [&](const XyCheckpoint& ck) { checkpoints.push_back(ck); };
    const XyScheduleResult full = compact_flat_schedule(
        field.boxes, CompactionRules::mosis(), {}, schedule, field.stretchable);
    ASSERT_FALSE(checkpoints.empty()) << "seed " << seed;

    // Serialize through the RSGC format, not just the in-memory struct:
    // the resumed state is exactly what a file-based restart would see.
    const std::string bytes = checkpoint_bytes(checkpoints.front());
    const XyCheckpoint restored = read_compaction_checkpoint(bytes.data(), bytes.size());
    XyScheduleOptions resume_options;
    resume_options.max_rounds = 4;
    resume_options.resume = &restored;
    const XyScheduleResult resumed = compact_flat_schedule(
        field.boxes, CompactionRules::mosis(), {}, resume_options, field.stretchable);
    ASSERT_EQ(resumed.boxes, full.boxes) << "seed " << seed;
    EXPECT_EQ(resumed.rounds, full.rounds) << "seed " << seed;
    EXPECT_EQ(resumed.converged, full.converged) << "seed " << seed;
  }
}

TEST(Checkpoint, FileRoundTripPreservesEveryField) {
  const XyCheckpoint last = three_round_checkpoint(make_random_field(23, 25));
  ASSERT_EQ(last.rounds_done, 3);
  ASSERT_FALSE(last.boxes.empty());
  ASSERT_EQ(last.round_stats.size(), 3u);

  const std::string path = testing::TempDir() + "rsg_checkpoint_roundtrip.rsgc";
  const CheckpointWriteStats stats = write_compaction_checkpoint_file(path, last);
  EXPECT_EQ(stats.boxes, last.boxes.size());
  EXPECT_EQ(stats.rounds, last.round_stats.size());
  EXPECT_GT(stats.file_bytes, sizeof(SnapshotHeader));

  const XyCheckpoint restored = read_compaction_checkpoint_file(path);
  expect_checkpoints_equal(last, restored);
  std::remove(path.c_str());
}

TEST(Checkpoint, ReadsImagesWithShardTelemetryInTheReservedFields) {
  // Version 1.0 images from builds with the sharded solver carry nonzero
  // per-round shard telemetry where the round record now has reserved
  // fields. Plant such values in every RNDS record, re-seal the CRCs, and
  // the image must read and resume exactly like the zeroed one.
  const SynthField field = make_random_field(23, 25);
  const std::string good = checkpoint_bytes(three_round_checkpoint(field));
  std::string old_image = good;

  SnapshotHeader header;
  std::memcpy(&header, old_image.data(), sizeof(header));
  std::vector<SnapshotSection> sections(header.section_count);
  const std::size_t table_bytes = sections.size() * sizeof(SnapshotSection);
  std::memcpy(sections.data(), old_image.data() + header.section_table_offset, table_bytes);
  bool patched = false;
  for (SnapshotSection& section : sections) {
    if (section.type != kSectionCheckpointRounds) continue;
    ASSERT_EQ(section.count, 3u);
    for (std::uint32_t i = 0; i < section.count; ++i) {
      char* record = old_image.data() + section.offset + i * sizeof(CheckpointRoundRecord);
      CheckpointRoundRecord written;
      std::memcpy(&written, record, sizeof(written));
      EXPECT_EQ(written.reserved0, 0);  // the writer zeroes the reserved fields
      EXPECT_EQ(written.reserved1, 0);
      EXPECT_EQ(written.reserved2, 0u);
      EXPECT_EQ(written.reserved3, 0u);
      const std::int32_t shards = 4;
      const std::int32_t reconcile = 2 + static_cast<std::int32_t>(i);
      const std::uint64_t boundary = 17;
      const std::uint64_t churn = 5 + i;
      std::memcpy(record + offsetof(CheckpointRoundRecord, reserved0), &shards, 4);
      std::memcpy(record + offsetof(CheckpointRoundRecord, reserved1), &reconcile, 4);
      std::memcpy(record + offsetof(CheckpointRoundRecord, reserved2), &boundary, 8);
      std::memcpy(record + offsetof(CheckpointRoundRecord, reserved3), &churn, 8);
    }
    section.crc32 = snapshot_crc32(old_image.data() + section.offset, section.size);
    patched = true;
  }
  ASSERT_TRUE(patched);
  std::memcpy(old_image.data() + header.section_table_offset, sections.data(), table_bytes);
  header.section_table_crc32 = snapshot_crc32(sections.data(), table_bytes);
  header.header_crc32 = snapshot_crc32(&header, 60);
  std::memcpy(old_image.data(), &header, sizeof(header));
  ASSERT_NE(old_image, good);

  const XyCheckpoint from_old = read_compaction_checkpoint(old_image.data(), old_image.size());
  const XyCheckpoint from_new = read_compaction_checkpoint(good.data(), good.size());
  expect_checkpoints_equal(from_new, from_old);

  const auto resume = [&](const XyCheckpoint& checkpoint) {
    XyScheduleOptions options;
    options.max_rounds = 6;
    options.resume = &checkpoint;
    return compact_flat_schedule(field.boxes, CompactionRules::mosis(), {}, options,
                                 field.stretchable);
  };
  const XyScheduleResult resumed_old = resume(from_old);
  const XyScheduleResult resumed_new = resume(from_new);
  EXPECT_EQ(resumed_old.boxes, resumed_new.boxes);
  EXPECT_EQ(resumed_old.rounds, resumed_new.rounds);
  EXPECT_EQ(resumed_old.converged, resumed_new.converged);
  EXPECT_EQ(resumed_old.width_after, resumed_new.width_after);
  EXPECT_EQ(resumed_old.height_after, resumed_new.height_after);
}

TEST(Checkpoint, RejectsCorruptionTruncationAndVersionSkew) {
  const SynthField field = make_random_field(7, 20);
  XyScheduleOptions schedule;
  schedule.max_rounds = 2;
  schedule.stop_when_converged = false;
  XyCheckpoint last;
  schedule.checkpoint_sink = [&](const XyCheckpoint& ck) { last = ck; };
  compact_flat_schedule(field.boxes, CompactionRules::mosis(), {}, schedule,
                        field.stretchable);
  const std::string good = checkpoint_bytes(last);
  ASSERT_GT(good.size(), 128u);

  // Sanity: the pristine image reads back.
  read_compaction_checkpoint(good.data(), good.size());

  // A flipped payload byte fails a section CRC.
  {
    std::string bad = good;
    bad[bad.size() / 2] ^= 0x40;
    EXPECT_THROW(read_compaction_checkpoint(bad.data(), bad.size()), Error);
  }
  // Truncation cannot pass the bounds checks.
  EXPECT_THROW(read_compaction_checkpoint(good.data(), good.size() / 2), Error);
  EXPECT_THROW(read_compaction_checkpoint(good.data(), 16), Error);
  // A wrong magic is rejected before anything else.
  {
    std::string bad = good;
    bad[0] = 'X';
    EXPECT_THROW(read_compaction_checkpoint(bad.data(), bad.size()), Error);
  }
  // A newer MAJOR version is rejected even with a valid header CRC.
  {
    std::string bad = good;
    const std::uint16_t major = kCheckpointMajor + 1;
    std::memcpy(&bad[4], &major, sizeof(major));
    const std::uint32_t crc = snapshot_crc32(bad.data(), 60);
    std::memcpy(&bad[60], &crc, sizeof(crc));
    EXPECT_THROW(read_compaction_checkpoint(bad.data(), bad.size()), Error);
  }
  // A newer MINOR version is accepted (additive evolution only).
  {
    std::string ok = good;
    const std::uint16_t minor = kCheckpointMinor + 1;
    std::memcpy(&ok[6], &minor, sizeof(minor));
    const std::uint32_t crc = snapshot_crc32(ok.data(), 60);
    std::memcpy(&ok[60], &crc, sizeof(crc));
    const XyCheckpoint restored = read_compaction_checkpoint(ok.data(), ok.size());
    expect_checkpoints_equal(last, restored);
  }
  // Crafted bounds whose end wraps past 2^64 back into the file. `craft`
  // reseals both CRCs, so only the bounds checks stand between the image
  // and an out-of-bounds read.
  {
    // A section whose offset + size wraps to 8.
    const auto wrap = [](SnapshotHeader&, std::vector<SnapshotSection>& sections) {
      sections.front().size = ~std::uint64_t{0} - sections.front().offset + 9;
    };
    const std::string bad = craft(good, wrap);
    EXPECT_THROW(read_compaction_checkpoint(bad.data(), bad.size()), Error);
  }
  {
    // A section table at 2^64 - 64, whose end wraps into the file.
    const auto wrap = [](SnapshotHeader& header, std::vector<SnapshotSection>&) {
      header.section_table_offset = ~std::uint64_t{0} - 63;
    };
    const std::string bad = craft(good, wrap);
    EXPECT_THROW(read_compaction_checkpoint(bad.data(), bad.size()), Error);
  }
}

TEST(Checkpoint, RejectsADuplicatedSection) {
  // RSGB.md §4, which RSGC follows: a known section type twice is an error,
  // never "the last one wins". Each image below is valid but for one extra
  // table entry naming an existing section's payload again.
  const std::string good = checkpoint_bytes(three_round_checkpoint(make_random_field(7, 20)));
  read_compaction_checkpoint(good.data(), good.size());
  for (const std::uint32_t type : {kSectionCheckpointMeta, kSectionBoxes}) {
    const auto duplicate = [type](SnapshotHeader&, std::vector<SnapshotSection>& sections) {
      for (const SnapshotSection& section : std::vector<SnapshotSection>(sections)) {
        if (section.type == type) sections.push_back(section);
      }
    };
    const std::string bad = craft(good, duplicate);
    try {
      read_compaction_checkpoint(bad.data(), bad.size());
      ADD_FAILURE() << "a second " << (type == kSectionBoxes ? "BOXS" : "META")
                    << " section was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos) << e.what();
    }
  }
}

TEST(Checkpoint, ReadsAnImageAtAnOddAddress) {
  // A checkpoint image is read through copies, never cast in place, so any
  // buffer holds one: here one byte past an aligned allocation.
  const XyCheckpoint last = three_round_checkpoint(make_random_field(23, 25));
  const std::string good = checkpoint_bytes(last);
  const std::string buffer = '\0' + good;
  ASSERT_NE(reinterpret_cast<std::uintptr_t>(buffer.data() + 1) % 2, 0u);
  expect_checkpoints_equal(last, read_compaction_checkpoint(buffer.data() + 1, good.size()));
}

TEST(Checkpoint, SessionCheckpointOutThenInReproducesTheRun) {
  // The pipeline-level loop rsg_cli exposes as --checkpoint-out /
  // --checkpoint-in: a run that wrote checkpoints, restarted from the file,
  // must emit the identical CIF.
  constexpr const char* kSample = R"(
cell brick
  box metal1 0 0 20 8
end
assembly
  inst a brick 0 0 N
  inst b brick 40 0 N
  label 1 from a to b
end
)";
  constexpr const char* kDesign = R"(
(macro mrow (n)
  (locals foo)
  (do (i 1 (+ i 1) (> i n))
      (mk_instance b.i brick)
      (cond ((> i 1) (connect b.(- i 1) b.i 1)))))
(assign r (mrow n))
(mk_cell "row" (subcell r b.1))
)";
  const std::string path = testing::TempDir() + "rsg_checkpoint_generator.rsgc";
  const auto compiled = CompiledDesign::compile(kSample, kDesign);

  GenerationSession writer(compiled);
  CompactionRequest writing;
  writing.enabled = true;
  writing.checkpoint_out = path;
  writer.set_compaction(writing);
  const GeneratorResult original = writer.generate("n = 6");
  ASSERT_TRUE(original.compacted);

  // The file holds the final completed round; resuming from it must not
  // redo any work and must reproduce the output byte for byte.
  const XyCheckpoint final_round = read_compaction_checkpoint_file(path);
  EXPECT_EQ(final_round.rounds_done, original.compaction.rounds);

  GenerationSession resumer(compiled);
  CompactionRequest resuming;
  resuming.enabled = true;
  resuming.checkpoint_in = path;
  resumer.set_compaction(resuming);
  const GeneratorResult resumed = resumer.generate("n = 6");
  ASSERT_TRUE(resumed.compacted);
  EXPECT_EQ(resumed.output, original.output);
  EXPECT_EQ(resumed.compaction.boxes, original.compaction.boxes);
  EXPECT_EQ(resumed.compaction.width_after, original.compaction.width_after);
  std::remove(path.c_str());
}

TEST(Checkpoint, StretchableLayersRejectACheckpointOfAnotherDesign) {
  // The mask follows the flattened top cell, the resumed schedule runs the
  // checkpoint's boxes: when their counts differ, the run must fail rather
  // than return the checkpoint's geometry as if both axes were infeasible.
  constexpr const char* kSample = R"(
cell brick
  box metal1 0 0 20 8
end
assembly
  inst a brick 0 0 N
  inst b brick 40 0 N
  label 1 from a to b
end
)";
  constexpr const char* kDesign = R"(
(macro mrow (n)
  (locals foo)
  (do (i 1 (+ i 1) (> i n))
      (mk_instance b.i brick)
      (cond ((> i 1) (connect b.(- i 1) b.i 1)))))
(assign r (mrow n))
(mk_cell "row" (subcell r b.1))
)";
  const std::string path = testing::TempDir() + "rsg_checkpoint_mask.rsgc";
  const auto compiled = CompiledDesign::compile(kSample, kDesign);

  GenerationSession writer(compiled);
  CompactionRequest writing;
  writing.enabled = true;
  writing.checkpoint_out = path;
  writer.set_compaction(writing);
  ASSERT_TRUE(writer.generate("n = 6").compacted);

  GenerationSession resumer(compiled);
  CompactionRequest resuming;
  resuming.enabled = true;
  resuming.checkpoint_in = path;
  resuming.stretchable_layers = {Layer::kMetal1};
  resumer.set_compaction(resuming);
  try {
    resumer.generate("n = 4");
    ADD_FAILURE() << "a 6-brick checkpoint resumed under a 4-brick mask";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "compact_flat: stretchable mask size mismatch");
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rsg

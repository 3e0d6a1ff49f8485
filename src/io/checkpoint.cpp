#include "io/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <map>
#include <vector>

#include "io/atomic_file.hpp"
#include "support/error.hpp"

namespace rsg {

CheckpointWriteStats write_compaction_checkpoint(std::ostream& out,
                                                 const compact::XyCheckpoint& checkpoint) {
  if (!checkpoint.stretchable.empty() &&
      checkpoint.stretchable.size() != checkpoint.boxes.size()) {
    throw Error("RSGC: stretchable mask size does not match the box count");
  }
  const std::size_t boxes = checkpoint.boxes.size();
  const std::size_t mask = checkpoint.stretchable.size();
  const std::size_t rounds = checkpoint.round_stats.size();

  const auto emit_meta = [&](SectionSink& sink) {
    CheckpointMetaRecord record{};
    record.rounds_done = checkpoint.rounds_done;
    record.converged = checkpoint.converged ? 1 : 0;
    record.x_infeasible = checkpoint.x_infeasible ? 1 : 0;
    record.y_infeasible = checkpoint.y_infeasible ? 1 : 0;
    record.width_before = checkpoint.width_before;
    record.height_before = checkpoint.height_before;
    record.box_count = boxes;
    record.round_count = rounds;
    sink.record(record);
  };
  const auto emit_boxes = [&](SectionSink& sink) {
    for (const LayerBox& lb : checkpoint.boxes) sink.record(snapshot_box_record(lb));
  };
  const auto emit_mask = [&](SectionSink& sink) {
    for (const bool s : checkpoint.stretchable) sink.record(static_cast<std::uint8_t>(s ? 1 : 0));
  };
  const auto emit_rounds = [&](SectionSink& sink) {
    for (const compact::RoundStats& rs : checkpoint.round_stats) {
      CheckpointRoundRecord record{};
      record.round = rs.round;
      record.width_delta = rs.width_delta;
      record.height_delta = rs.height_delta;
      record.x_skipped = rs.x_skipped ? 1 : 0;
      record.y_skipped = rs.y_skipped ? 1 : 0;
      record.warm_x = rs.warm_x ? 1 : 0;
      record.warm_y = rs.warm_y ? 1 : 0;
      record.constraints_emitted = rs.constraints_emitted;
      record.partners_reswept = rs.partners_reswept;
      record.partners_reused = rs.partners_reused;
      record.solve_pops = rs.solve_pops;
      record.wall_ms = rs.wall_ms;
      sink.record(record);
    }
  };
  const auto count = [](std::size_t n) { return static_cast<std::uint32_t>(n); };

  // Fault point checkpoint.write_payload: the write dies mid-stream — the
  // header and some sections are on disk, the rest never arrive (the
  // classic truncated checkpoint a crash leaves behind).
  const std::uint64_t file_bytes = write_sections(
      out, kCheckpointMagic, kCheckpointMajor, kCheckpointMinor, kSnapshotNoRootCell,
      {{kSectionCheckpointMeta, 1, sizeof(CheckpointMetaRecord), emit_meta},
       {kSectionBoxes, count(boxes), boxes * sizeof(SnapshotBoxRecord), emit_boxes},
       {kSectionCheckpointStretch, count(mask), mask, emit_mask},
       {kSectionCheckpointRounds, count(rounds), rounds * sizeof(CheckpointRoundRecord),
        emit_rounds}},
      "checkpoint.write_payload");
  return {file_bytes, boxes, rounds};
}

CheckpointWriteStats write_compaction_checkpoint_file(const std::string& path,
                                                      const compact::XyCheckpoint& checkpoint) {
  // write-temp → fsync → rename: the sink rewrites this file after EVERY
  // schedule round, so a crash mid-rewrite must never destroy the previous
  // round's (still perfectly resumable) checkpoint.
  CheckpointWriteStats stats;
  atomic_write_file(path, [&](std::ostream& out) {
    stats = write_compaction_checkpoint(out, checkpoint);
  });
  return stats;
}

compact::XyCheckpoint read_compaction_checkpoint(const void* data, std::size_t size) {
  // Each section's table entry by type. Every read from the image is a
  // memcpy, so it may sit at any address.
  std::map<std::uint32_t, SnapshotSection> found;
  read_sections(data, size, kCheckpointMagic, kCheckpointMajor,
                {kSectionCheckpointMeta, kSectionBoxes, kSectionCheckpointStretch,
                 kSectionCheckpointRounds},
                [&](const SnapshotSection& s, const std::uint8_t*) { found[s.type] = s; });
  const auto section = [&](std::uint32_t type) {
    const auto it = found.find(type);
    if (it == found.end()) throw Error("RSGC: missing required section");
    return it->second;
  };
  const SnapshotSection meta = section(kSectionCheckpointMeta);
  const SnapshotSection boxes = section(kSectionBoxes);
  const SnapshotSection stretch = section(kSectionCheckpointStretch);
  const SnapshotSection rounds = section(kSectionCheckpointRounds);
  if (meta.size != sizeof(CheckpointMetaRecord)) throw Error("RSGC: bad META size");

  const auto* bytes = static_cast<const std::uint8_t*>(data);
  CheckpointMetaRecord record;
  std::memcpy(&record, bytes + meta.offset, sizeof(record));
  if (boxes.size != record.box_count * sizeof(SnapshotBoxRecord) ||
      boxes.count != record.box_count) {
    throw Error("RSGC: BOXS size does not match the META box count");
  }
  if (stretch.size != stretch.count ||
      (stretch.count != 0 && stretch.count != record.box_count)) {
    throw Error("RSGC: STRM size does not match the META box count");
  }
  if (rounds.size != record.round_count * sizeof(CheckpointRoundRecord) ||
      rounds.count != record.round_count) {
    throw Error("RSGC: RNDS size does not match the META round count");
  }

  compact::XyCheckpoint checkpoint;
  checkpoint.rounds_done = record.rounds_done;
  checkpoint.converged = record.converged != 0;
  checkpoint.x_infeasible = record.x_infeasible != 0;
  checkpoint.y_infeasible = record.y_infeasible != 0;
  checkpoint.width_before = record.width_before;
  checkpoint.height_before = record.height_before;

  checkpoint.boxes.reserve(record.box_count);
  for (std::uint64_t i = 0; i < record.box_count; ++i) {
    SnapshotBoxRecord box;
    std::memcpy(&box, bytes + boxes.offset + i * sizeof(box), sizeof(box));
    checkpoint.boxes.push_back(snapshot_box(box, "RSGC"));
  }
  checkpoint.stretchable.reserve(stretch.count);
  for (std::uint64_t i = 0; i < stretch.count; ++i) {
    checkpoint.stretchable.push_back(bytes[stretch.offset + i] != 0);
  }
  checkpoint.round_stats.reserve(record.round_count);
  for (std::uint64_t i = 0; i < record.round_count; ++i) {
    CheckpointRoundRecord rr;
    std::memcpy(&rr, bytes + rounds.offset + i * sizeof(rr), sizeof(rr));
    compact::RoundStats rs;
    rs.round = rr.round;
    rs.width_delta = rr.width_delta;
    rs.height_delta = rr.height_delta;
    rs.x_skipped = rr.x_skipped != 0;
    rs.y_skipped = rr.y_skipped != 0;
    rs.warm_x = rr.warm_x != 0;
    rs.warm_y = rr.warm_y != 0;
    rs.constraints_emitted = rr.constraints_emitted;
    rs.partners_reswept = rr.partners_reswept;
    rs.partners_reused = rr.partners_reused;
    rs.solve_pops = rr.solve_pops;
    rs.wall_ms = rr.wall_ms;
    checkpoint.round_stats.push_back(rs);
  }
  return checkpoint;
}

compact::XyCheckpoint read_compaction_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw Error("cannot open checkpoint file: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> buffer(static_cast<std::size_t>(size));
  if (size > 0) in.read(reinterpret_cast<char*>(buffer.data()), size);
  if (!in) throw Error("RSGC: read failed: " + path);
  return read_compaction_checkpoint(buffer.data(), buffer.size());
}

}  // namespace rsg

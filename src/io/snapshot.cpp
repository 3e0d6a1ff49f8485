#include "io/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <new>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "io/atomic_file.hpp"
#include "support/error.hpp"
#include "support/fault_injection.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define RSG_SNAPSHOT_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace rsg {

namespace {

constexpr std::uint64_t align8(std::uint64_t v) { return (v + 7) & ~std::uint64_t{7}; }

std::string fourcc_name(std::uint32_t type) {
  std::string s(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((type >> (8 * i)) & 0xFF);
    s[static_cast<std::size_t>(i)] = (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return s;
}

// True when the bytes [offset, offset + size) lie inside a file of
// `file_bytes` bytes. It never forms offset + size, which a crafted image
// can wrap past 2^64 into range.
constexpr bool range_in_file(std::uint64_t offset, std::uint64_t size, std::uint64_t file_bytes) {
  return offset <= file_bytes && size <= file_bytes - offset;
}

// The writer's two destinations: the first pass accumulates a section's CRC
// and size, the second streams its bytes to the output.
struct CrcSink final : SectionSink {
  std::uint32_t crc = 0;
  std::uint64_t bytes = 0;
  void write(const void* data, std::size_t size) override {
    crc = snapshot_crc32(data, size, crc);
    bytes += size;
  }
};

struct StreamSink final : SectionSink {
  StreamSink(std::ostream& out, const char* fault_point) : out_(out), fault_point_(fault_point) {}
  std::uint64_t bytes = 0;  // the logical position, failed writes included
  void write(const void* data, std::size_t size) override {
    bytes += size;
    // Fault point: a write that dies mid-stream (ENOSPC, yanked disk). The
    // stream fails like a real short write — bytes already written stay
    // written — and write_sections' trailing check throws.
    if (fault::fired(fault_point_)) {
      out_.setstate(std::ios::failbit);
      return;
    }
    out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  }

 private:
  std::ostream& out_;
  const char* fault_point_;
};

}  // namespace

std::uint32_t snapshot_crc32(const void* data, std::size_t size, std::uint32_t seed) {
  // IEEE 802.3 reflected CRC-32, nibble-at-a-time (tiny table, no init race):
  // entry n is the register after shifting the 4 bits of n out.
  static constexpr std::array<std::uint32_t, 16> kTable = [] {
    std::array<std::uint32_t, 16> t{};
    for (std::uint32_t n = 0; n < 16; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 4; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[n] = c;
    }
    return t;
  }();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ p[i]) & 0x0F] ^ (crc >> 4);
    crc = kTable[(crc ^ (p[i] >> 4)) & 0x0F] ^ (crc >> 4);
  }
  return crc ^ 0xFFFFFFFFu;
}

SnapshotBoxRecord snapshot_box_record(const LayerBox& lb) {
  SnapshotBoxRecord rec{};
  rec.lo_x = lb.box.lo.x;
  rec.lo_y = lb.box.lo.y;
  rec.hi_x = lb.box.hi.x;
  rec.hi_y = lb.box.hi.y;
  rec.layer = static_cast<std::uint32_t>(lb.layer);
  return rec;
}

LayerBox snapshot_box(const SnapshotBoxRecord& rec, const char* tag) {
  if (rec.layer >= static_cast<std::uint32_t>(kNumLayers) || rec.lo_x > rec.hi_x ||
      rec.lo_y > rec.hi_y) {
    throw Error(std::string(tag) + ": malformed box record");
  }
  return {static_cast<Layer>(rec.layer), Box(rec.lo_x, rec.lo_y, rec.hi_x, rec.hi_y)};
}

// --------------------------------------------------------------------------
// The section container
// --------------------------------------------------------------------------

std::uint64_t write_sections(std::ostream& out, const char (&magic)[4], std::uint16_t major,
                             std::uint16_t minor, std::uint32_t root_cell_index,
                             const std::vector<SectionSource>& sources, const char* fault_point) {
  const std::string tag(magic, 4);
  std::vector<SnapshotSection> sections(sources.size());
  std::uint64_t offset = sizeof(SnapshotHeader) + sections.size() * sizeof(SnapshotSection);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    offset = align8(offset);
    CrcSink crc;
    sources[i].emit(crc);
    if (crc.bytes != sources[i].size) throw Error(tag + ": internal writer size mismatch");
    sections[i].type = sources[i].type;
    sections[i].offset = offset;
    sections[i].size = sources[i].size;
    sections[i].count = sources[i].count;
    sections[i].crc32 = crc.crc;
    offset += sources[i].size;
  }

  SnapshotHeader header{};
  std::memcpy(header.magic, magic, 4);
  header.version_major = major;
  header.version_minor = minor;
  header.header_bytes = sizeof(SnapshotHeader);
  header.section_count = static_cast<std::uint32_t>(sections.size());
  header.file_bytes = offset;
  header.section_table_offset = sizeof(SnapshotHeader);
  header.root_cell_index = root_cell_index;
  header.section_table_crc32 =
      snapshot_crc32(sections.data(), sections.size() * sizeof(SnapshotSection));
  header.header_crc32 = snapshot_crc32(&header, 60);

  StreamSink sink(out, fault_point);
  sink.write(&header, sizeof(header));
  sink.write(sections.data(), sections.size() * sizeof(SnapshotSection));
  for (std::size_t i = 0; i < sections.size(); ++i) {
    static constexpr char kPad[8] = {};
    if (sink.bytes < sections[i].offset) sink.write(kPad, sections[i].offset - sink.bytes);
    sources[i].emit(sink);
  }
  if (!out) throw Error(tag + ": write failed");
  return header.file_bytes;
}

SnapshotHeader read_sections(const void* data, std::size_t size, const char (&magic)[4],
                             std::uint16_t major, std::initializer_list<std::uint32_t> known,
                             const SectionVisitor& visit) {
  const std::string tag(magic, 4);
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  SnapshotHeader header;
  if (size < sizeof(header)) throw Error(tag + ": file too small for a header");
  std::memcpy(&header, bytes, sizeof(header));
  if (std::memcmp(header.magic, magic, 4) != 0) throw Error(tag + ": bad magic");
  if (snapshot_crc32(bytes, 60) != header.header_crc32) throw Error(tag + ": header CRC mismatch");
  if (header.version_major != major) {
    throw Error(tag + ": unsupported major version " + std::to_string(header.version_major) +
                " (this reader supports " + std::to_string(major) + ")");
  }
  // A newer minor version is additive by contract (§2) and is accepted.
  if (header.header_bytes < sizeof(SnapshotHeader)) throw Error(tag + ": bad header size");
  if (header.file_bytes < sizeof(SnapshotHeader) || header.file_bytes > size) {
    throw Error(tag + ": truncated file (header declares " + std::to_string(header.file_bytes) +
                " bytes, buffer holds " + std::to_string(size) + ")");
  }
  const std::uint64_t table_offset = header.section_table_offset;
  const std::uint64_t table_size = std::uint64_t{header.section_count} * sizeof(SnapshotSection);
  if (table_offset < sizeof(SnapshotHeader) || table_offset % 8 != 0 ||
      !range_in_file(table_offset, table_size, header.file_bytes)) {
    throw Error(tag + ": section table out of bounds");
  }
  if (snapshot_crc32(bytes + table_offset, table_size) != header.section_table_crc32) {
    throw Error(tag + ": section table CRC mismatch");
  }

  std::vector<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < header.section_count; ++i) {
    SnapshotSection s;
    std::memcpy(&s, bytes + table_offset + i * sizeof(SnapshotSection), sizeof(s));
    const std::string name = tag + ": section '" + fourcc_name(s.type) + "'";
    if (s.offset % 8 != 0 || !range_in_file(s.offset, s.size, header.file_bytes)) {
      throw Error(name + " out of bounds");
    }
    if (snapshot_crc32(bytes + s.offset, s.size) != s.crc32) throw Error(name + " CRC mismatch");
    if (std::find(known.begin(), known.end(), s.type) != known.end()) {
      if (std::find(seen.begin(), seen.end(), s.type) != seen.end()) {
        throw Error(tag + ": duplicate section '" + fourcc_name(s.type) + "'");
      }
      seen.push_back(s.type);
    }
    // Unknown FourCCs are additive minor-version content and are skipped
    // by the visitors (§2).
    visit(s, bytes + s.offset);
  }
  return header;
}

// --------------------------------------------------------------------------
// SnapshotView
// --------------------------------------------------------------------------

SnapshotView::SnapshotView(const void* data, std::size_t size) {
  // The record structs are read in place, which needs their alignment.
  if (reinterpret_cast<std::uintptr_t>(data) % 8 != 0) {
    throw Error("RSGB: buffer is not 8-byte aligned");
  }
  const auto visit = [&](const SnapshotSection& s, const std::uint8_t* payload) {
    auto take = [&](auto*& field, std::size_t& count, std::size_t stride) {
      if (s.size != std::uint64_t{s.count} * stride) {
        throw Error("RSGB: section '" + fourcc_name(s.type) +
                    "' size does not match its record stride");
      }
      field = reinterpret_cast<std::remove_reference_t<decltype(field)>>(payload);
      count = s.count;
    };
    switch (s.type) {
      case kSectionCells:
        take(cells_, cell_count_, sizeof(SnapshotCellRecord));
        break;
      case kSectionBoxes:
        take(boxes_, box_count_, sizeof(SnapshotBoxRecord));
        break;
      case kSectionLabels:
        take(labels_, label_count_, sizeof(SnapshotLabelRecord));
        break;
      case kSectionInstances:
        take(instances_, instance_count_, sizeof(SnapshotInstanceRecord));
        break;
      case kSectionStrings: {
        const auto* text = reinterpret_cast<const char*>(payload);
        if (s.size != s.count || s.size == 0 || text[0] != '\0' || text[s.size - 1] != '\0') {
          throw Error("RSGB: malformed string table");
        }
        strings_ = text;
        string_bytes_ = s.size;
        break;
      }
      default:
        break;
    }
  };
  header_ = read_sections(data, size, kSnapshotMagic, kSnapshotMajor,
                          {kSectionCells, kSectionBoxes, kSectionLabels, kSectionInstances,
                           kSectionStrings},
                          visit);
  if (header_.root_cell_index != kSnapshotNoRootCell && header_.root_cell_index >= cell_count_) {
    throw Error("RSGB: root cell index out of range");
  }
}

std::string_view SnapshotView::string(std::uint32_t offset) const {
  if (offset >= string_bytes_) throw Error("RSGB: string offset out of bounds");
  return std::string_view(strings_ + offset);  // table ends in NUL, so this terminates
}

std::string_view SnapshotView::root_cell_name() const {
  if (header_.root_cell_index == kSnapshotNoRootCell) return {};
  return string(cell(header_.root_cell_index).name_offset);
}

// --------------------------------------------------------------------------
// Snapshot (owning)
// --------------------------------------------------------------------------

Snapshot::Snapshot(const void* data, std::size_t size, bool mapped, void* owned)
    : view_(data, size), data_(data), size_(size), mapped_(mapped), owned_(owned) {}

Snapshot::Snapshot(Snapshot&& other) noexcept
    : view_(other.view_),
      data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      owned_(other.owned_) {
  other.data_ = nullptr;
  other.owned_ = nullptr;
  other.mapped_ = false;
  other.size_ = 0;
}

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    this->~Snapshot();
    new (this) Snapshot(std::move(other));
  }
  return *this;
}

Snapshot::~Snapshot() {
#if RSG_SNAPSHOT_HAVE_MMAP
  if (mapped_ && data_ != nullptr) munmap(const_cast<void*>(data_), size_);
#endif
  ::operator delete(owned_, std::align_val_t{8});
}

Snapshot Snapshot::from_buffer(const void* data, std::size_t size) {
  void* storage = ::operator new(size, std::align_val_t{8});
  std::memcpy(storage, data, size);
  try {
    return Snapshot(storage, size, /*mapped=*/false, storage);
  } catch (...) {
    ::operator delete(storage, std::align_val_t{8});
    throw;
  }
}

Snapshot Snapshot::map_file(const std::string& path) {
#if RSG_SNAPSHOT_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw Error("cannot open snapshot file: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    throw Error("cannot stat snapshot file: " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) throw Error("cannot mmap snapshot file: " + path);
  try {
    return Snapshot(addr, size, /*mapped=*/true, nullptr);
  } catch (...) {
    ::munmap(addr, size);
    throw;
  }
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open snapshot file: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return from_buffer(bytes.data(), bytes.size());
#endif
}

// --------------------------------------------------------------------------
// Writer
// --------------------------------------------------------------------------

SnapshotWriteStats write_snapshot(std::ostream& out, const CellTable& cells,
                                  const std::string& root) {
  const std::vector<std::string> names = cells.names_in_order();

  // The string table is the only materialized payload: offset 0 is the empty
  // string, everything else is interned NUL-terminated text.
  std::string strtab(1, '\0');
  std::unordered_map<std::string, std::uint32_t> interned;
  auto intern = [&](const std::string& s) -> std::uint32_t {
    if (s.empty()) return 0;
    auto [it, inserted] = interned.try_emplace(s, static_cast<std::uint32_t>(strtab.size()));
    if (inserted) {
      if (strtab.size() + s.size() + 1 > 0xFFFFFFFFu) {
        throw Error("RSGB: string table exceeds 4 GiB");
      }
      strtab += s;
      strtab += '\0';
    }
    return it->second;
  };

  std::unordered_map<const Cell*, std::uint32_t> cell_index;
  std::vector<const Cell*> ordered;
  ordered.reserve(names.size());
  for (const std::string& name : names) {
    const Cell& cell = cells.get(name);
    cell_index[&cell] = static_cast<std::uint32_t>(ordered.size());
    ordered.push_back(&cell);
    intern(name);
  }

  std::uint32_t root_index = kSnapshotNoRootCell;
  if (!root.empty()) {
    if (!cells.contains(root)) throw Error("RSGB: root cell '" + root + "' is not in the table");
    root_index = cell_index.at(&cells.get(root));
  }

  std::uint64_t total_boxes = 0, total_labels = 0, total_instances = 0;
  for (const Cell* cell : ordered) {
    total_boxes += cell->boxes().size();
    total_labels += cell->labels().size();
    total_instances += cell->instances().size();
    for (const Label& label : cell->labels()) intern(label.text);
    for (const Instance& inst : cell->instances()) {
      intern(inst.name);
      if (cell_index.find(inst.cell) == cell_index.end()) {
        throw Error("RSGB: instance in '" + cell->name() +
                    "' references a cell outside the table");
      }
    }
  }

  // Payload emitters. Each runs twice — a CRC pass, then the emit pass —
  // so no record array is ever materialized.
  auto emit_cells = [&](SectionSink& sink) {
    std::uint64_t next_box = 0, next_label = 0, next_instance = 0;
    for (std::size_t i = 0; i < ordered.size(); ++i) {
      const Cell& cell = *ordered[i];
      SnapshotCellRecord rec{};
      rec.name_offset = intern(names[i]);
      rec.box_count = static_cast<std::uint32_t>(cell.boxes().size());
      rec.label_count = static_cast<std::uint32_t>(cell.labels().size());
      rec.instance_count = static_cast<std::uint32_t>(cell.instances().size());
      rec.first_box = next_box;
      rec.first_label = next_label;
      rec.first_instance = next_instance;
      next_box += rec.box_count;
      next_label += rec.label_count;
      next_instance += rec.instance_count;
      sink.record(rec);
    }
  };
  auto emit_boxes = [&](SectionSink& sink) {
    for (const Cell* cell : ordered) {
      for (const LayerBox& lb : cell->boxes()) sink.record(snapshot_box_record(lb));
    }
  };
  auto emit_labels = [&](SectionSink& sink) {
    for (const Cell* cell : ordered) {
      for (const Label& label : cell->labels()) {
        SnapshotLabelRecord rec{};
        rec.text_offset = intern(label.text);
        rec.x = label.at.x;
        rec.y = label.at.y;
        sink.record(rec);
      }
    }
  };
  auto emit_instances = [&](SectionSink& sink) {
    for (const Cell* cell : ordered) {
      for (const Instance& inst : cell->instances()) {
        SnapshotInstanceRecord rec{};
        rec.cell_index = cell_index.at(inst.cell);
        rec.name_offset = intern(inst.name);
        rec.x = inst.placement.location.x;
        rec.y = inst.placement.location.y;
        rec.orientation = static_cast<std::uint32_t>(inst.placement.orientation.index());
        sink.record(rec);
      }
    }
  };
  const auto count = [](std::uint64_t n) { return static_cast<std::uint32_t>(n); };
  const std::uint64_t file_bytes = write_sections(
      out, kSnapshotMagic, kSnapshotMajor, kSnapshotMinor, root_index,
      {{kSectionCells, count(ordered.size()), ordered.size() * sizeof(SnapshotCellRecord),
        emit_cells},
       {kSectionBoxes, count(total_boxes), total_boxes * sizeof(SnapshotBoxRecord), emit_boxes},
       {kSectionLabels, count(total_labels), total_labels * sizeof(SnapshotLabelRecord),
        emit_labels},
       {kSectionInstances, count(total_instances),
        total_instances * sizeof(SnapshotInstanceRecord), emit_instances},
       {kSectionStrings, count(strtab.size()), strtab.size(),
        [&](SectionSink& sink) { sink.write(strtab.data(), strtab.size()); }}},
      "snapshot.write_payload");

  return {file_bytes, ordered.size(), total_boxes, total_labels, total_instances};
}

SnapshotWriteStats write_snapshot_file(const std::string& path, const CellTable& cells,
                                       const std::string& root) {
  // write-temp → fsync → rename: a crash (or injected fault) mid-write
  // never leaves a truncated file at `path` — the previous snapshot, if
  // any, stays readable until the new one is complete and durable.
  SnapshotWriteStats stats;
  atomic_write_file(path, [&](std::ostream& out) { stats = write_snapshot(out, cells, root); });
  return stats;
}

// --------------------------------------------------------------------------
// Loader
// --------------------------------------------------------------------------

SnapshotReadResult load_snapshot(const SnapshotView& view, CellTable& cells) {
  SnapshotReadResult result;
  std::vector<Cell*> created(view.cell_count());

  for (std::size_t i = 0; i < view.cell_count(); ++i) {
    const SnapshotCellRecord& rec = view.cell(i);
    const std::string name(view.string(rec.name_offset));
    if (name.empty()) throw Error("RSGB: cell " + std::to_string(i) + " has an empty name");
    if (cells.contains(name)) {
      throw Error("RSGB: cell '" + name + "' already exists in the table");
    }
    created[i] = &cells.create(name);
  }

  for (std::size_t i = 0; i < view.cell_count(); ++i) {
    const SnapshotCellRecord& rec = view.cell(i);
    if (rec.first_box > view.box_count() - rec.box_count ||
        rec.box_count > view.box_count() ||
        rec.first_label > view.label_count() - rec.label_count ||
        rec.label_count > view.label_count() ||
        rec.first_instance > view.instance_count() - rec.instance_count ||
        rec.instance_count > view.instance_count()) {
      throw Error("RSGB: cell record " + std::to_string(i) + " has out-of-range record spans");
    }
    Cell& cell = *created[i];
    for (std::uint32_t b = 0; b < rec.box_count; ++b) {
      const LayerBox box = snapshot_box(view.box(rec.first_box + b), "RSGB");
      cell.add_box(box.layer, box.box);
      ++result.boxes;
    }
    for (std::uint32_t l = 0; l < rec.label_count; ++l) {
      const SnapshotLabelRecord& label = view.label(rec.first_label + l);
      cell.add_label(std::string(view.string(label.text_offset)), {label.x, label.y});
      ++result.labels;
    }
    for (std::uint32_t n = 0; n < rec.instance_count; ++n) {
      const SnapshotInstanceRecord& inst = view.instance(rec.first_instance + n);
      if (inst.cell_index >= view.cell_count()) {
        throw Error("RSGB: instance references cell index out of range");
      }
      if (inst.orientation >= 8) throw Error("RSGB: bad instance orientation");
      cell.add_instance(created[inst.cell_index],
                        Placement{{inst.x, inst.y},
                                  Orientation::from_index(static_cast<int>(inst.orientation))},
                        std::string(view.string(inst.name_offset)));
      ++result.instances;
    }
  }
  result.cells = view.cell_count();
  result.root = std::string(view.root_cell_name());
  return result;
}

SnapshotReadResult read_snapshot_file(const std::string& path, CellTable& cells) {
  Snapshot snapshot = Snapshot::map_file(path);
  return load_snapshot(snapshot.view(), cells);
}

}  // namespace rsg

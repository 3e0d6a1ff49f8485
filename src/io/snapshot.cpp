#include "io/snapshot.hpp"

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

// Destination for the two-pass payload generation: the first pass accumulates
// CRCs and sizes, the second streams bytes to the output.
struct ByteSink {
  virtual ~ByteSink() = default;
  virtual void write(const void* data, std::size_t size) = 0;
};

struct CrcSink final : ByteSink {
  std::uint32_t crc = 0;
  std::uint64_t bytes = 0;
  void write(const void* data, std::size_t size) override {
    crc = snapshot_crc32(data, size, crc);
    bytes += size;
  }
};

struct StreamSink final : ByteSink {
  explicit StreamSink(std::ostream& out) : out_(out) {}
  std::uint64_t bytes = 0;
  void write(const void* data, std::size_t size) override {
    // Fault point: a payload write that dies mid-stream (ENOSPC, yanked
    // disk). The stream fails like a real short write — bytes already
    // written stay written — and write_snapshot's trailing check throws.
    if (fault::fired("snapshot.write_payload")) {
      out_.setstate(std::ios::failbit);
      return;
    }
    out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
    bytes += size;
  }

 private:
  std::ostream& out_;
};

}  // namespace

std::uint32_t snapshot_crc32(const void* data, std::size_t size, std::uint32_t seed) {
  // IEEE 802.3 reflected CRC-32, nibble-at-a-time (tiny table, no init race).
  static constexpr std::array<std::uint32_t, 16> kTable = [] {
    std::array<std::uint32_t, 16> t{};
    for (std::uint32_t n = 0; n < 16; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
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

// --------------------------------------------------------------------------
// SnapshotView
// --------------------------------------------------------------------------

SnapshotView::SnapshotView(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  if (reinterpret_cast<std::uintptr_t>(bytes) % 8 != 0) {
    throw Error("RSGB: buffer is not 8-byte aligned");
  }
  if (size < sizeof(SnapshotHeader)) throw Error("RSGB: file too small for a header");
  header_ = reinterpret_cast<const SnapshotHeader*>(bytes);
  if (std::memcmp(header_->magic, kSnapshotMagic, 4) != 0) throw Error("RSGB: bad magic");
  if (snapshot_crc32(bytes, 60) != header_->header_crc32) {
    throw Error("RSGB: header CRC mismatch");
  }
  if (header_->version_major != kSnapshotMajor) {
    throw Error("RSGB: unsupported major version " + std::to_string(header_->version_major) +
                " (this reader supports " + std::to_string(kSnapshotMajor) + ")");
  }
  // A newer minor version is additive by contract (§2) and is accepted.
  if (header_->header_bytes < sizeof(SnapshotHeader)) throw Error("RSGB: bad header size");
  if (header_->file_bytes < sizeof(SnapshotHeader) || header_->file_bytes > size) {
    throw Error("RSGB: truncated file (header declares " + std::to_string(header_->file_bytes) +
                " bytes, buffer holds " + std::to_string(size) + ")");
  }
  const std::uint64_t file_bytes = header_->file_bytes;
  const std::uint64_t table_offset = header_->section_table_offset;
  const std::uint64_t table_size =
      std::uint64_t{header_->section_count} * sizeof(SnapshotSection);
  if (table_offset % 8 != 0 || !snapshot_range_in_file(table_offset, table_size, file_bytes)) {
    throw Error("RSGB: section table out of bounds");
  }
  const auto* sections = reinterpret_cast<const SnapshotSection*>(bytes + table_offset);
  if (snapshot_crc32(sections, table_size) != header_->section_table_crc32) {
    throw Error("RSGB: section table CRC mismatch");
  }

  for (std::uint32_t i = 0; i < header_->section_count; ++i) {
    const SnapshotSection& s = sections[i];
    if (s.offset % 8 != 0 || !snapshot_range_in_file(s.offset, s.size, file_bytes)) {
      throw Error("RSGB: section '" + fourcc_name(s.type) + "' out of bounds");
    }
    const void* payload = bytes + s.offset;
    if (snapshot_crc32(payload, s.size) != s.crc32) {
      throw Error("RSGB: section '" + fourcc_name(s.type) + "' CRC mismatch");
    }
    auto take = [&](auto*& field, std::size_t& count, std::size_t stride) {
      if (field != nullptr) throw Error("RSGB: duplicate section '" + fourcc_name(s.type) + "'");
      if (s.size != std::uint64_t{s.count} * stride) {
        throw Error("RSGB: section '" + fourcc_name(s.type) +
                    "' size does not match its record stride");
      }
      field = static_cast<std::remove_reference_t<decltype(field)>>(payload);
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
      case kSectionStrings:
        if (strings_ != nullptr) throw Error("RSGB: duplicate section 'STRT'");
        if (s.size != s.count || s.size == 0 ||
            static_cast<const char*>(payload)[0] != '\0' ||
            static_cast<const char*>(payload)[s.size - 1] != '\0') {
          throw Error("RSGB: malformed string table");
        }
        strings_ = static_cast<const char*>(payload);
        string_bytes_ = s.size;
        break;
      default:
        break;  // unknown sections are ignored (forward compatibility, §2)
    }
  }
  if (header_->root_cell_index != kSnapshotNoRootCell &&
      header_->root_cell_index >= cell_count_) {
    throw Error("RSGB: root cell index out of range");
  }
}

std::string_view SnapshotView::string(std::uint32_t offset) const {
  if (offset >= string_bytes_) throw Error("RSGB: string offset out of bounds");
  return std::string_view(strings_ + offset);  // table ends in NUL, so this terminates
}

std::string_view SnapshotView::root_cell_name() const {
  if (header_->root_cell_index == kSnapshotNoRootCell) return {};
  return string(cell(header_->root_cell_index).name_offset);
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

  // Payload generators. Each runs twice — a CRC pass, then the emit pass —
  // so no record array is ever materialized.
  auto gen_cells = [&](ByteSink& sink) {
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
      sink.write(&rec, sizeof(rec));
    }
  };
  auto gen_boxes = [&](ByteSink& sink) {
    for (const Cell* cell : ordered) {
      for (const LayerBox& lb : cell->boxes()) {
        SnapshotBoxRecord rec{};
        rec.lo_x = lb.box.lo.x;
        rec.lo_y = lb.box.lo.y;
        rec.hi_x = lb.box.hi.x;
        rec.hi_y = lb.box.hi.y;
        rec.layer = static_cast<std::uint32_t>(lb.layer);
        sink.write(&rec, sizeof(rec));
      }
    }
  };
  auto gen_labels = [&](ByteSink& sink) {
    for (const Cell* cell : ordered) {
      for (const Label& label : cell->labels()) {
        SnapshotLabelRecord rec{};
        rec.text_offset = intern(label.text);
        rec.x = label.at.x;
        rec.y = label.at.y;
        sink.write(&rec, sizeof(rec));
      }
    }
  };
  auto gen_instances = [&](ByteSink& sink) {
    for (const Cell* cell : ordered) {
      for (const Instance& inst : cell->instances()) {
        SnapshotInstanceRecord rec{};
        rec.cell_index = cell_index.at(inst.cell);
        rec.name_offset = intern(inst.name);
        rec.x = inst.placement.location.x;
        rec.y = inst.placement.location.y;
        rec.orientation = static_cast<std::uint32_t>(inst.placement.orientation.index());
        sink.write(&rec, sizeof(rec));
      }
    }
  };
  auto gen_strings = [&](ByteSink& sink) { sink.write(strtab.data(), strtab.size()); };

  const std::array<std::uint32_t, 5> order = {kSectionCells, kSectionBoxes, kSectionLabels,
                                              kSectionInstances, kSectionStrings};
  auto run_generator = [&](std::uint32_t type, ByteSink& sink) {
    switch (type) {
      case kSectionCells: gen_cells(sink); break;
      case kSectionBoxes: gen_boxes(sink); break;
      case kSectionLabels: gen_labels(sink); break;
      case kSectionInstances: gen_instances(sink); break;
      case kSectionStrings: gen_strings(sink); break;
    }
  };

  // Lay out the file: header, section table, then 8-aligned payloads.
  std::array<SnapshotSection, 5> sections{};
  std::uint64_t offset = sizeof(SnapshotHeader) + sections.size() * sizeof(SnapshotSection);
  const std::array<std::uint64_t, 5> sizes = {
      ordered.size() * sizeof(SnapshotCellRecord), total_boxes * sizeof(SnapshotBoxRecord),
      total_labels * sizeof(SnapshotLabelRecord), total_instances * sizeof(SnapshotInstanceRecord),
      strtab.size()};
  const std::array<std::uint32_t, 5> counts = {
      static_cast<std::uint32_t>(ordered.size()), static_cast<std::uint32_t>(total_boxes),
      static_cast<std::uint32_t>(total_labels), static_cast<std::uint32_t>(total_instances),
      static_cast<std::uint32_t>(strtab.size())};
  for (std::size_t i = 0; i < sections.size(); ++i) {
    offset = align8(offset);
    sections[i].type = order[i];
    sections[i].offset = offset;
    sections[i].size = sizes[i];
    sections[i].count = counts[i];
    CrcSink crc;
    run_generator(order[i], crc);
    if (crc.bytes != sizes[i]) throw Error("RSGB: internal writer size mismatch");
    sections[i].crc32 = crc.crc;
    offset += sizes[i];
  }
  const std::uint64_t file_bytes = offset;

  SnapshotHeader header{};
  std::memcpy(header.magic, kSnapshotMagic, 4);
  header.version_major = kSnapshotMajor;
  header.version_minor = kSnapshotMinor;
  header.header_bytes = sizeof(SnapshotHeader);
  header.section_count = static_cast<std::uint32_t>(sections.size());
  header.file_bytes = file_bytes;
  header.section_table_offset = sizeof(SnapshotHeader);
  header.root_cell_index = root_index;
  header.flags = 0;
  header.section_table_crc32 =
      snapshot_crc32(sections.data(), sections.size() * sizeof(SnapshotSection));
  header.header_crc32 = snapshot_crc32(&header, 60);

  StreamSink sink(out);
  sink.write(&header, sizeof(header));
  sink.write(sections.data(), sections.size() * sizeof(SnapshotSection));
  for (const SnapshotSection& s : sections) {
    static constexpr char kPad[8] = {};
    if (sink.bytes < s.offset) sink.write(kPad, s.offset - sink.bytes);
    run_generator(s.type, sink);
  }
  if (!out) throw Error("RSGB: write failed");

  SnapshotWriteStats stats;
  stats.file_bytes = file_bytes;
  stats.cells = ordered.size();
  stats.boxes = total_boxes;
  stats.labels = total_labels;
  stats.instances = total_instances;
  return stats;
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
      const SnapshotBoxRecord& box = view.box(rec.first_box + b);
      if (box.layer >= static_cast<std::uint32_t>(kNumLayers) || box.lo_x > box.hi_x ||
          box.lo_y > box.hi_y) {
        throw Error("RSGB: malformed box record");
      }
      cell.add_box(static_cast<Layer>(box.layer), Box(box.lo_x, box.lo_y, box.hi_x, box.hi_y));
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

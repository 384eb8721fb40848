#include "io/fastq.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "common/error.h"
#include "io/fasta.h"
#include "io/fastq_block.h"
#include "io/read_batch.h"

namespace staratlas {

namespace {
// File streams default to a tiny (often 8 KiB) stdio-style buffer; FASTQ
// files are large and line-oriented, so give disk I/O a block-sized one.
// pubsetbuf must be applied before open() to take effect.
constexpr usize kFileBufferBytes = 256 * 1024;
// Records parsed per block-parser call before they are copied out.
constexpr usize kRecordsPerBatch = 1024;
}  // namespace

bool FastqReader::get_line(std::string& out) {
  if (!std::getline(*in_, out)) return false;
  ++line_;
  if (!out.empty() && out.back() == '\r') out.pop_back();
  return true;
}

std::optional<FastqRecord> FastqReader::next() {
  std::string header;
  // Skip blank lines between records (lenient, like most tools).
  do {
    if (!get_line(header)) return std::nullopt;
  } while (header.empty());

  if (header[0] != '@') {
    throw ParseError("FASTQ line " + std::to_string(line_) +
                     ": expected '@' header, got '" + header + "'");
  }
  FastqRecord rec;
  rec.name = header.substr(1);
  if (rec.name.empty()) {
    throw ParseError("FASTQ line " + std::to_string(line_) + ": empty read name");
  }

  std::string plus;
  if (!get_line(rec.sequence) || !get_line(plus) || !get_line(rec.quality)) {
    throw ParseError("FASTQ record truncated at line " + std::to_string(line_));
  }
  if (plus.empty() || plus[0] != '+') {
    throw ParseError("FASTQ line " + std::to_string(line_ - 1) +
                     ": expected '+' separator");
  }
  if (rec.sequence.size() != rec.quality.size()) {
    throw ParseError("FASTQ record '" + rec.name +
                     "': sequence/quality length mismatch");
  }
  normalize_sequence(rec.sequence);
  ++count_;
  // '@' + name + '\n' + seq + '\n' + "+\n" + qual + '\n'
  bytes_ += 1 + rec.name.size() + 1 + rec.sequence.size() + 1 + 2 +
            rec.quality.size() + 1;
  return rec;
}

std::vector<FastqRecord> read_fastq(std::istream& in) {
  FastqBlockReader reader(in);
  ReadBatch batch;
  std::vector<FastqRecord> records;
  while (reader.read_batch(batch, kRecordsPerBatch) > 0) {
    for (usize i = 0; i < batch.size(); ++i) {
      records.push_back({std::string(batch.name(i)),
                         std::string(batch.sequence(i)),
                         std::string(batch.quality(i))});
    }
    batch.clear();
  }
  return records;
}

std::vector<FastqRecord> read_fastq_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open FASTQ file: " + path);
  auto records = read_fastq(in);
  // A short read at end of file sets failbit; badbit is the one that
  // distinguishes a mid-file I/O error from end of file.
  if (in.bad()) throw IoError("I/O error while reading FASTQ file: " + path);
  return records;
}

void write_fastq(std::ostream& out, const std::vector<FastqRecord>& records) {
  for (const auto& rec : records) {
    out << '@' << rec.name << '\n'
        << rec.sequence << "\n+\n"
        << rec.quality << '\n';
  }
}

void write_fastq_file(const std::string& path,
                      const std::vector<FastqRecord>& records) {
  std::vector<char> buffer(kFileBufferBytes);
  std::ofstream out;
  out.rdbuf()->pubsetbuf(buffer.data(),
                         static_cast<std::streamsize>(buffer.size()));
  out.open(path);
  if (!out) throw IoError("cannot open FASTQ file for writing: " + path);
  write_fastq(out, records);
  out.flush();
  if (!out) throw IoError("failed writing FASTQ file: " + path);
}

ByteSize fastq_serialized_size(const std::vector<FastqRecord>& records) {
  u64 bytes = 0;
  for (const auto& rec : records) {
    // '@' + name + '\n' + seq + '\n' + "+\n" + qual + '\n'
    bytes += 1 + rec.name.size() + 1 + rec.sequence.size() + 1 + 2 +
             rec.quality.size() + 1;
  }
  return ByteSize(bytes);
}

ReadSet make_read_set(std::vector<FastqRecord> records) {
  return make_read_set(std::move(records), ByteSize());
}

ReadSet make_read_set(std::vector<FastqRecord> records, ByteSize fastq_bytes) {
  ReadSet set;
  set.fastq_bytes = fastq_bytes.bytes() ? fastq_bytes
                                        : fastq_serialized_size(records);
  set.reads = std::move(records);
  return set;
}

}  // namespace staratlas

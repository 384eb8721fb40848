#include "io/shard_plan.h"

#include <cstring>

#include "common/error.h"

namespace staratlas {

namespace {

/// Walks `data` with the block parser's record grammar and calls
/// fn(record_start, record_index, sequence_length) for every record:
/// blank lines between records are skipped, and a record is a non-blank
/// header line plus the next three lines taken verbatim (an empty read's
/// blank sequence and quality lines included). Line lengths exclude the
/// trailing '\r' of CRLF endings. Returns the record count; throws the
/// parser's ParseError when the input ends inside a record.
template <typename Fn>
u64 for_each_record(std::string_view data, Fn&& fn) {
  u64 records = 0;
  u64 line = 0;    // lines walked, blank ones included (the parser's count)
  int field = 0;   // next line of the current record; 0 = its header
  usize record_start = 0;
  usize sequence_length = 0;
  usize pos = 0;
  while (pos < data.size()) {
    const char* nl = static_cast<const char*>(
        std::memchr(data.data() + pos, '\n', data.size() - pos));
    const usize line_end = nl ? static_cast<usize>(nl - data.data())
                              : data.size();
    usize content_end = line_end;
    if (content_end > pos && data[content_end - 1] == '\r') --content_end;
    ++line;
    if (field == 0) {
      if (content_end > pos) {
        record_start = pos;
        field = 1;
      }
    } else {
      if (field == 1) sequence_length = content_end - pos;
      if (++field == 4) {
        fn(record_start, records, sequence_length);
        ++records;
        field = 0;
      }
    }
    pos = nl ? line_end + 1 : data.size();
  }
  if (field != 0) {
    throw ParseError("FASTQ record truncated at line " + std::to_string(line));
  }
  return records;
}

}  // namespace

ShardPlan plan_fastq_shards(std::string_view data, usize num_shards) {
  STARATLAS_CHECK(num_shards >= 1);
  ShardPlan plan;
  plan.total_bytes = data.size();

  // Byte targets t_i = i * size / n; each shard boundary is the first
  // record start at or past its target, found in one forward line walk.
  std::vector<usize> snapped(num_shards, data.size());
  std::vector<u64> reads_before(num_shards, 0);
  usize next_target = 1;  // boundary 0 is pinned to offset 0

  plan.total_reads =
      for_each_record(data, [&](usize record_start, u64 index, usize) {
        while (next_target < num_shards &&
               record_start >= data.size() * next_target / num_shards) {
          snapped[next_target] = record_start;
          reads_before[next_target] = index;
          ++next_target;
        }
      });
  for (; next_target < num_shards; ++next_target) {
    snapped[next_target] = data.size();
    reads_before[next_target] = plan.total_reads;
  }

  plan.ranges.resize(num_shards);
  for (usize i = 0; i < num_shards; ++i) {
    ShardRange& range = plan.ranges[i];
    range.byte_begin = i == 0 ? 0 : snapped[i];
    range.byte_end = i + 1 < num_shards ? snapped[i + 1] : data.size();
    range.first_read = i == 0 ? 0 : reads_before[i];
    const u64 end_read =
        i + 1 < num_shards ? reads_before[i + 1] : plan.total_reads;
    range.num_reads = end_read - range.first_read;
  }
  return plan;
}

usize next_record_start(std::string_view data, usize pos) {
  if (pos >= data.size()) return data.size();
  // Land on a line start: pos is one already iff it is 0 or follows '\n'.
  usize line = pos;
  if (pos > 0 && data[pos - 1] != '\n') {
    const usize nl = data.find('\n', pos);
    if (nl == std::string_view::npos) return data.size();
    line = nl + 1;
  }
  // Collect the next few non-blank line starts. From any line of a
  // well-formed record the next record start is at most 4 lines away, so
  // a 12-line window always contains candidate k and its k+2 probe.
  constexpr usize kWindow = 12;
  usize starts[kWindow];
  usize count = 0;
  while (line < data.size() && count < kWindow) {
    const usize nl = data.find('\n', line);
    const usize line_end = nl == std::string_view::npos ? data.size() : nl;
    usize content_end = line_end;
    if (content_end > line && data[content_end - 1] == '\r') --content_end;
    if (content_end > line) starts[count++] = line;
    if (nl == std::string_view::npos) break;
    line = nl + 1;
  }
  for (usize k = 0; k + 2 < count; ++k) {
    // Quality lines may start with '@' but sequence lines never start
    // with '+', so "line k is '@' and line k+2 is '+'" is unambiguous.
    if (data[starts[k]] == '@' && data[starts[k + 2]] == '+') {
      return starts[k];
    }
  }
  return data.size();
}

FastqCount count_fastq_records(std::string_view data) {
  FastqCount count;
  count.records = for_each_record(
      data, [&count](usize, u64, usize sequence_length) {
        count.sequence_bases += sequence_length;
      });
  return count;
}

}  // namespace staratlas

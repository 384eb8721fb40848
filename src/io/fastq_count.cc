#include "io/fastq_count.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <vector>

#include "common/error.h"

namespace staratlas {

namespace {

/// The block parser's record grammar as a line walk over consecutive
/// blocks of one input: blank lines between records are skipped, and a
/// record is a non-blank header line plus the next three lines taken
/// verbatim (an empty read's blank sequence and quality lines included).
/// Line lengths exclude the trailing '\r' of CRLF endings. A line may
/// straddle blocks: the walker carries its length and last byte across
/// feed() calls, so any block size gives the same walk.
class RecordWalker {
 public:
  /// Walks the lines that end inside `block`, the input's next bytes.
  void feed(std::string_view block) {
    usize pos = 0;
    while (pos < block.size()) {
      const char* nl = static_cast<const char*>(
          std::memchr(block.data() + pos, '\n', block.size() - pos));
      if (nl == nullptr) {  // the line goes on in the next block
        line_len_ += block.size() - pos;
        line_cr_ = block.back() == '\r';
        break;
      }
      const usize line_end = static_cast<usize>(nl - block.data());
      if (line_end > pos) {
        line_len_ += line_end - pos;
        line_cr_ = block[line_end - 1] == '\r';
      }
      end_line();
      pos = line_end + 1;
    }
  }

  /// Ends the input: walks an unterminated final line, then returns the
  /// count or throws the parser's ParseError when the input ends inside a
  /// record.
  FastqCount finish() {
    if (line_len_ > 0) end_line();
    if (field_ != 0) {
      throw ParseError("FASTQ record truncated at line " +
                       std::to_string(line_));
    }
    return count_;
  }

 private:
  void end_line() {
    const usize content = line_len_ - (line_cr_ ? 1 : 0);
    ++line_;
    if (field_ == 0) {
      if (content > 0) field_ = 1;
    } else {
      if (field_ == 1) count_.sequence_bases += content;
      if (++field_ == 4) {
        ++count_.records;
        field_ = 0;
      }
    }
    line_len_ = 0;
    line_cr_ = false;
  }

  FastqCount count_;
  u64 line_ = 0;   ///< lines walked, blank ones included (the parser's count)
  int field_ = 0;  ///< next line of the current record; 0 = its header
  usize line_len_ = 0;    ///< bytes of the current line seen so far
  bool line_cr_ = false;  ///< the current line's last byte so far is '\r'
};

}  // namespace

FastqCount count_fastq_records(std::string_view data) {
  RecordWalker walker;
  walker.feed(data);
  return walker.finish();
}

FastqCount count_fastq_records(std::istream& in, usize block_bytes) {
  RecordWalker walker;
  std::vector<char> block(std::max<usize>(block_bytes, 1));
  for (;;) {
    in.read(block.data(), static_cast<std::streamsize>(block.size()));
    const usize got = static_cast<usize>(in.gcount());
    if (got == 0) break;
    walker.feed(std::string_view(block.data(), got));
  }
  if (in.bad()) throw IoError("I/O error while counting FASTQ records");
  return walker.finish();
}

}  // namespace staratlas
